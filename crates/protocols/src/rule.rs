//! The [`LocalRule`] trait and a dynamic-dispatch wrapper.

use crate::capability::ColorCountRule;
use crate::irreversible::Irreversible;
use crate::majority::{ReverseSimpleMajority, ReverseStrongMajority, TieBreak};
use crate::smp::SmpProtocol;
use crate::threshold::ThresholdRule;
use ctori_coloring::Color;

/// A synchronous local recolouring rule.
///
/// The rule sees only the vertex's own colour and its neighbours' colours
/// (in an arbitrary but fixed order) and returns the colour the vertex will
/// hold in the next round.  Rules must be pure: the engine may evaluate
/// them in any order and in parallel.
pub trait LocalRule: Send + Sync {
    /// Computes the next colour of a vertex.
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color;

    /// A short human-readable rule name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Whether the rule is *monotone with respect to `k`*: a vertex that
    /// holds colour `k` can never lose it.  The engine uses this to skip
    /// the explicit monotonicity check when it is guaranteed by
    /// construction.
    fn is_monotone_for(&self, _k: Color) -> bool {
        false
    }

    /// The rule's per-colour counting form, if it has one.
    ///
    /// Returning `Some` promises that on **any** palette the rule is
    /// equivalent to the returned [`ColorCountRule`] (see its docs for the
    /// exact contract).  The engine uses this to route torus runs of up
    /// to 16 colours onto its bit-plane lane, where neighbourhoods are
    /// evaluated by per-plane popcounts over 64-vertex words instead of
    /// per-vertex colour multiset scans.  The default is `None`, which
    /// keeps the rule on the generic lane.
    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        None
    }
}

impl<R: LocalRule + ?Sized> LocalRule for &R {
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color {
        (**self).next_color(own, neighbors)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn is_monotone_for(&self, k: Color) -> bool {
        (**self).is_monotone_for(k)
    }
    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        (**self).as_color_count_rule()
    }
}

impl<R: LocalRule + ?Sized> LocalRule for Box<R> {
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color {
        (**self).next_color(own, neighbors)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn is_monotone_for(&self, k: Color) -> bool {
        (**self).is_monotone_for(k)
    }
    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        (**self).as_color_count_rule()
    }
}

/// An enumeration of the rules shipped with this workspace, for callers
/// that need to store heterogeneous rules without boxing.  This is the
/// value a [`crate::registry`] rule string resolves to, and therefore the
/// rule representation of declarative scenario descriptions.
///
/// Marked `#[non_exhaustive]`: new protocols will be added as scenarios
/// grow, so downstream `match`es must keep a wildcard arm.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AnyRule {
    /// The paper's SMP-Protocol.
    Smp(SmpProtocol),
    /// The bi-coloured reverse simple majority baseline.
    ReverseSimple(ReverseSimpleMajority),
    /// The bi-coloured reverse strong majority baseline.
    ReverseStrong(ReverseStrongMajority),
    /// The SMP-Protocol made irreversible for a target colour.
    IrreversibleSmp(Irreversible<SmpProtocol>),
    /// The linear threshold rule.
    Threshold(ThresholdRule),
}

impl AnyRule {
    /// Convenience constructor for the SMP protocol.
    pub fn smp() -> Self {
        AnyRule::Smp(SmpProtocol)
    }

    /// Convenience constructor for reverse simple majority with the given
    /// tie-break.
    pub fn reverse_simple(tie_break: TieBreak) -> Self {
        AnyRule::ReverseSimple(ReverseSimpleMajority::new(tie_break))
    }

    /// Convenience constructor for reverse strong majority.
    pub fn reverse_strong() -> Self {
        AnyRule::ReverseStrong(ReverseStrongMajority)
    }
}

impl From<SmpProtocol> for AnyRule {
    fn from(rule: SmpProtocol) -> Self {
        AnyRule::Smp(rule)
    }
}

impl From<ReverseSimpleMajority> for AnyRule {
    fn from(rule: ReverseSimpleMajority) -> Self {
        AnyRule::ReverseSimple(rule)
    }
}

impl From<ReverseStrongMajority> for AnyRule {
    fn from(rule: ReverseStrongMajority) -> Self {
        AnyRule::ReverseStrong(rule)
    }
}

impl From<Irreversible<SmpProtocol>> for AnyRule {
    fn from(rule: Irreversible<SmpProtocol>) -> Self {
        AnyRule::IrreversibleSmp(rule)
    }
}

impl From<ThresholdRule> for AnyRule {
    fn from(rule: ThresholdRule) -> Self {
        AnyRule::Threshold(rule)
    }
}

impl LocalRule for AnyRule {
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color {
        match self {
            AnyRule::Smp(r) => r.next_color(own, neighbors),
            AnyRule::ReverseSimple(r) => r.next_color(own, neighbors),
            AnyRule::ReverseStrong(r) => r.next_color(own, neighbors),
            AnyRule::IrreversibleSmp(r) => r.next_color(own, neighbors),
            AnyRule::Threshold(r) => r.next_color(own, neighbors),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyRule::Smp(r) => r.name(),
            AnyRule::ReverseSimple(r) => r.name(),
            AnyRule::ReverseStrong(r) => r.name(),
            AnyRule::IrreversibleSmp(r) => r.name(),
            AnyRule::Threshold(r) => r.name(),
        }
    }

    fn is_monotone_for(&self, k: Color) -> bool {
        match self {
            AnyRule::Smp(r) => r.is_monotone_for(k),
            AnyRule::ReverseSimple(r) => r.is_monotone_for(k),
            AnyRule::ReverseStrong(r) => r.is_monotone_for(k),
            AnyRule::IrreversibleSmp(r) => r.is_monotone_for(k),
            AnyRule::Threshold(r) => r.is_monotone_for(k),
        }
    }

    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        match self {
            AnyRule::Smp(r) => r.as_color_count_rule(),
            AnyRule::ReverseSimple(r) => r.as_color_count_rule(),
            AnyRule::ReverseStrong(r) => r.as_color_count_rule(),
            AnyRule::IrreversibleSmp(r) => r.as_color_count_rule(),
            AnyRule::Threshold(r) => r.as_color_count_rule(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_rule_dispatches() {
        let c = |i| Color::new(i);
        let smp = AnyRule::smp();
        assert_eq!(smp.name(), "SMP-Protocol");
        assert_eq!(smp.next_color(c(1), &[c(2), c(2), c(3), c(4)]), c(2));

        let pb = AnyRule::reverse_simple(TieBreak::PreferBlack);
        assert_eq!(pb.name(), "reverse simple majority (prefer-black)");

        let strong = AnyRule::reverse_strong();
        assert_eq!(strong.name(), "reverse strong majority");
    }

    #[test]
    fn references_and_boxes_are_rules() {
        let c = |i| Color::new(i);
        let rule = SmpProtocol;
        let by_ref: &dyn LocalRule = &rule;
        assert_eq!(by_ref.next_color(c(1), &[c(2), c(2), c(3), c(4)]), c(2));
        let boxed: Box<dyn LocalRule> = Box::new(SmpProtocol);
        assert_eq!(boxed.next_color(c(1), &[c(2), c(2), c(3), c(4)]), c(2));
        assert_eq!(boxed.name(), "SMP-Protocol");
        assert!(!boxed.is_monotone_for(c(1)));
    }
}
