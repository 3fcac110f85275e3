//! Irreversible (monotone) rule wrapper.
//!
//! The dynamo literature distinguishes *reversible* processes (vertices may
//! flip back, the paper's setting) from *irreversible* ones (once a vertex
//! adopts the spreading colour it keeps it forever — the model of
//! Chang & Lyuu \[9\] cited in the related work, and the standard model of
//! target set selection).  [`Irreversible`] turns any rule into its
//! irreversible counterpart with respect to a target colour `k`, which the
//! experiments use to compare the two regimes.

use crate::capability::ColorCountRule;
use crate::rule::LocalRule;
use ctori_coloring::Color;

/// Makes an inner rule monotone with respect to a target colour: a vertex
/// that holds `target` never changes again, and a vertex that would lose
/// `target`... cannot, because it never holds it until it adopts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Irreversible<R> {
    inner: R,
    target: Color,
}

impl<R: LocalRule> Irreversible<R> {
    /// Wraps `inner`, locking vertices once they adopt `target`.
    pub fn new(inner: R, target: Color) -> Self {
        Irreversible { inner, target }
    }

    /// The locked-in colour.
    pub fn target(&self) -> Color {
        self.target
    }

    /// The wrapped rule.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: LocalRule> LocalRule for Irreversible<R> {
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color {
        if own == self.target {
            return own;
        }
        self.inner.next_color(own, neighbors)
    }

    fn name(&self) -> &'static str {
        "irreversible wrapper"
    }

    fn is_monotone_for(&self, k: Color) -> bool {
        k == self.target
    }

    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        Some(self.inner.as_color_count_rule()?.with_locked(self.target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpProtocol;

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    #[test]
    fn locked_vertices_never_change() {
        let rule = Irreversible::new(SmpProtocol, c(2));
        // A vertex already coloured 2 keeps 2 even if its neighbourhood
        // says otherwise.
        assert_eq!(rule.next_color(c(2), &[c(3), c(3), c(3), c(3)]), c(2));
        // A vertex of another colour follows the inner rule.
        assert_eq!(rule.next_color(c(1), &[c(3), c(3), c(4), c(5)]), c(3));
        assert_eq!(rule.next_color(c(1), &[c(2), c(2), c(4), c(5)]), c(2));
    }

    #[test]
    fn monotone_flag_matches_target() {
        let rule = Irreversible::new(SmpProtocol, c(7));
        assert!(rule.is_monotone_for(c(7)));
        assert!(!rule.is_monotone_for(c(1)));
        assert_eq!(rule.target(), c(7));
        assert_eq!(rule.inner().name(), "SMP-Protocol");
    }

    #[test]
    fn other_colors_may_still_flip_among_themselves() {
        let rule = Irreversible::new(SmpProtocol, c(2));
        // Non-target colours keep obeying the inner rule, including
        // adopting each other.
        assert_eq!(rule.next_color(c(4), &[c(5), c(5), c(1), c(3)]), c(5));
    }
}
