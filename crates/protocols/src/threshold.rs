//! The linear threshold rule.
//!
//! The paper's introduction frames dynamos as a generalisation of *target
//! set selection* in the linear threshold model (Granovetter \[17\],
//! Kempe-Kleinberg-Tardos \[20\]): a vertex becomes *active* once the number
//! of its active neighbours reaches its threshold, and never deactivates.
//! The TSS substrate (`ctori-tss`) runs this rule on general graphs; it is
//! defined here so that it shares the [`LocalRule`] interface and can also
//! be run on tori for comparison with the SMP-Protocol.
//!
//! In colour terms: "active" is a distinguished colour `k`; every other
//! colour counts as inactive.  The rule is monotone by definition.

use crate::capability::ColorCountRule;
use crate::rule::LocalRule;
use ctori_coloring::Color;

/// Linear threshold activation: a vertex adopts `active` once at least
/// `threshold` of its neighbours hold `active`, and then never changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdRule {
    active: Color,
    threshold: usize,
}

impl ThresholdRule {
    /// Creates the rule with an activation colour and a uniform threshold.
    pub fn new(active: Color, threshold: usize) -> Self {
        assert!(
            threshold >= 1,
            "a zero threshold would activate everything at once"
        );
        ThresholdRule { active, threshold }
    }

    /// The simple-majority threshold for degree-4 tori: ⌈4/2⌉ = 2.
    pub fn simple_majority_on_torus(active: Color) -> Self {
        Self::new(active, 2)
    }

    /// The strong-majority threshold for degree-4 tori: ⌈(4+1)/2⌉ = 3.
    pub fn strong_majority_on_torus(active: Color) -> Self {
        Self::new(active, 3)
    }

    /// The activation colour.
    pub fn active_color(&self) -> Color {
        self.active
    }

    /// The activation threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }
}

impl LocalRule for ThresholdRule {
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color {
        if own == self.active {
            return own;
        }
        let active_neighbors = neighbors.iter().filter(|&&c| c == self.active).count();
        if active_neighbors >= self.threshold {
            self.active
        } else {
            own
        }
    }

    fn name(&self) -> &'static str {
        "linear threshold"
    }

    fn is_monotone_for(&self, k: Color) -> bool {
        k == self.active
    }

    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        // The rule only ever counts the activation colour, on any palette.
        let threshold = u32::try_from(self.threshold).unwrap_or(u32::MAX);
        Some(ColorCountRule::activation(self.active, threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    #[test]
    fn activates_at_threshold() {
        let rule = ThresholdRule::new(c(2), 2);
        assert_eq!(rule.next_color(c(1), &[c(2), c(2), c(1), c(1)]), c(2));
        assert_eq!(rule.next_color(c(1), &[c(2), c(1), c(1), c(1)]), c(1));
        assert_eq!(rule.next_color(c(1), &[c(2); 4]), c(2));
    }

    #[test]
    fn active_vertices_stay_active() {
        let rule = ThresholdRule::new(c(2), 2);
        assert_eq!(rule.next_color(c(2), &[c(1); 4]), c(2));
        assert!(rule.is_monotone_for(c(2)));
        assert!(!rule.is_monotone_for(c(1)));
    }

    #[test]
    fn other_colors_are_all_inactive() {
        let rule = ThresholdRule::new(c(2), 2);
        // Colours 3 and 4 do not help activation.
        assert_eq!(rule.next_color(c(1), &[c(3), c(3), c(4), c(4)]), c(1));
    }

    #[test]
    fn works_with_arbitrary_degree() {
        let rule = ThresholdRule::new(c(2), 3);
        let nbrs = vec![c(2), c(2), c(2), c(1), c(1), c(1), c(1)];
        assert_eq!(rule.next_color(c(1), &nbrs), c(2));
        let nbrs_short = vec![c(2), c(2)];
        assert_eq!(rule.next_color(c(1), &nbrs_short), c(1));
    }

    #[test]
    fn preset_thresholds() {
        assert_eq!(ThresholdRule::simple_majority_on_torus(c(5)).threshold(), 2);
        assert_eq!(ThresholdRule::strong_majority_on_torus(c(5)).threshold(), 3);
        assert_eq!(
            ThresholdRule::simple_majority_on_torus(c(5)).active_color(),
            c(5)
        );
        assert_eq!(ThresholdRule::new(c(1), 1).name(), "linear threshold");
    }

    #[test]
    #[should_panic(expected = "zero threshold")]
    fn zero_threshold_rejected() {
        let _ = ThresholdRule::new(c(1), 0);
    }
}
