//! Bi-coloured majority baselines (Flocchini et al. \[15\], Peleg \[26\]).
//!
//! Propositions 1 and 2 of the paper transfer lower/upper bounds from the
//! bi-coloured *reverse simple majority* and *reverse strong majority*
//! rules to the multi-coloured SMP-Protocol.  These baselines are
//! re-implemented here from the definitions quoted in the paper:
//!
//! * **reverse simple majority** — a vertex recolours to the colour held by
//!   at least ⌈d/2⌉ = 2 of its 4 neighbours.  When both colours reach the
//!   threshold (a 2–2 split) a tie-break is needed:
//!   [`TieBreak::PreferBlack`] recolours black (the choice made in \[15\]),
//!   [`TieBreak::PreferCurrent`] keeps the current colour (the PC option of
//!   \[26\]).
//! * **reverse strong majority** — a vertex recolours to a colour only if
//!   at least ⌈(d+1)/2⌉ = 3 of its neighbours hold it; otherwise it keeps
//!   its colour.  With threshold 3 no tie is possible.
//!
//! "Reverse" refers to the non-monotone character of the process: vertices
//! may flip back and forth, exactly as in the SMP-Protocol.
//!
//! Although stated for two colours in \[15\], both rules are implemented here
//! for arbitrary palettes (threshold on the count of any single colour,
//! black preference only applying to [`ctori_coloring::Color::BLACK`]), so
//! they can also be run on multi-coloured configurations for comparison
//! experiments.

use crate::capability::ColorCountRule;
use crate::rule::LocalRule;
use ctori_coloring::Color;

/// Tie-breaking policy for the reverse simple majority rule on a 2–2 split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Recolour black (colour 2) on ties involving black — the rule of \[15\].
    PreferBlack,
    /// Keep the current colour on ties — the PC option of \[26\].
    PreferCurrent,
}

/// Reverse simple majority: adopt a colour held by at least half (= 2) of
/// the neighbours.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReverseSimpleMajority {
    tie_break: TieBreak,
}

impl ReverseSimpleMajority {
    /// Simple-majority threshold for degree-4 vertices: ⌈4/2⌉ = 2.
    pub const THRESHOLD: usize = 2;

    /// Creates the rule with the given tie-break policy.
    pub fn new(tie_break: TieBreak) -> Self {
        ReverseSimpleMajority { tie_break }
    }

    /// The rule exactly as used in \[15\]: prefer black on ties.
    pub fn prefer_black() -> Self {
        Self::new(TieBreak::PreferBlack)
    }

    /// The Prefer-Current variant.
    pub fn prefer_current() -> Self {
        Self::new(TieBreak::PreferCurrent)
    }

    /// The configured tie-break policy.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }
}

impl LocalRule for ReverseSimpleMajority {
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color {
        let stats = crate::counting::leader_stats(neighbors);
        if stats.max < Self::THRESHOLD {
            return own;
        }
        if !stats.tied {
            return stats.leader;
        }
        match self.tie_break {
            TieBreak::PreferBlack if stats.black_leads => Color::BLACK,
            TieBreak::PreferBlack => {
                // Tie not involving black: fall back to keeping the colour
                // (the bi-coloured setting of [15] never reaches this arm).
                own
            }
            TieBreak::PreferCurrent => own,
        }
    }

    fn name(&self) -> &'static str {
        match self.tie_break {
            TieBreak::PreferBlack => "reverse simple majority (prefer-black)",
            TieBreak::PreferCurrent => "reverse simple majority (prefer-current)",
        }
    }

    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        // Adopt the unique leader at multiplicity >= 2; a tie keeps the
        // current colour, except that Prefer-Black resolves a tie
        // *involving black* to black.
        let rule = ColorCountRule::plurality(Self::THRESHOLD as u32);
        Some(match self.tie_break {
            TieBreak::PreferCurrent => rule,
            TieBreak::PreferBlack => rule.with_tie_to(Color::BLACK),
        })
    }
}

/// Reverse strong majority: adopt a colour held by at least
/// ⌈(d+1)/2⌉ = 3 of the 4 neighbours.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReverseStrongMajority;

impl ReverseStrongMajority {
    /// Strong-majority threshold for degree-4 vertices: ⌈(4+1)/2⌉ = 3.
    pub const THRESHOLD: usize = 3;
}

impl LocalRule for ReverseStrongMajority {
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color {
        match crate::counting::plurality(neighbors, Self::THRESHOLD) {
            Some(c) => c,
            None => own,
        }
    }

    fn name(&self) -> &'static str {
        "reverse strong majority"
    }

    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        // A unique plurality at multiplicity >= 3 — with threshold 3 on
        // degree 4 the uniqueness requirement is automatic, and on larger
        // degrees (TSS hubs) `counting::plurality` demands it too.
        Some(ColorCountRule::plurality(Self::THRESHOLD as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    const WHITE: u16 = 1;
    const BLACK: u16 = 2;

    fn simple_pb(own: u16, nbrs: [u16; 4]) -> Color {
        ReverseSimpleMajority::prefer_black()
            .next_color(c(own), &[c(nbrs[0]), c(nbrs[1]), c(nbrs[2]), c(nbrs[3])])
    }

    fn simple_pc(own: u16, nbrs: [u16; 4]) -> Color {
        ReverseSimpleMajority::prefer_current()
            .next_color(c(own), &[c(nbrs[0]), c(nbrs[1]), c(nbrs[2]), c(nbrs[3])])
    }

    fn strong(own: u16, nbrs: [u16; 4]) -> Color {
        ReverseStrongMajority.next_color(c(own), &[c(nbrs[0]), c(nbrs[1]), c(nbrs[2]), c(nbrs[3])])
    }

    #[test]
    fn simple_majority_plain_cases() {
        // 3 black, 1 white: black under both tie-breaks.
        assert_eq!(simple_pb(WHITE, [BLACK, BLACK, BLACK, WHITE]), c(BLACK));
        assert_eq!(simple_pc(WHITE, [BLACK, BLACK, BLACK, WHITE]), c(BLACK));
        // 3 white, 1 black: white.
        assert_eq!(simple_pb(BLACK, [WHITE, WHITE, WHITE, BLACK]), c(WHITE));
        // 4 white: white.
        assert_eq!(simple_pb(BLACK, [WHITE; 4]), c(WHITE));
    }

    #[test]
    fn two_two_tie_differs_between_pb_and_pc() {
        // This is the exact situation discussed in the paper's
        // introduction: "in [15] if in the neighborhood of a node v there
        // are two black and two white nodes, v recolors black, whereas in
        // our case the node does not change color".
        let nbrs = [BLACK, BLACK, WHITE, WHITE];
        assert_eq!(simple_pb(WHITE, nbrs), c(BLACK));
        assert_eq!(simple_pc(WHITE, nbrs), c(WHITE));
        assert_eq!(simple_pc(BLACK, nbrs), c(BLACK));
    }

    #[test]
    fn multicolor_tie_without_black_keeps_current() {
        let nbrs = [3, 3, 4, 4];
        assert_eq!(simple_pb(1, nbrs), c(1));
        assert_eq!(simple_pc(1, nbrs), c(1));
    }

    #[test]
    fn below_threshold_keeps_current() {
        // In a multi-coloured configuration a 1-1-1-1 neighbourhood leaves
        // the vertex unchanged under simple majority.
        assert_eq!(simple_pb(5, [1, 2, 3, 4]), c(5));
    }

    #[test]
    fn strong_majority_needs_three() {
        assert_eq!(strong(WHITE, [BLACK, BLACK, BLACK, WHITE]), c(BLACK));
        assert_eq!(strong(WHITE, [BLACK, BLACK, BLACK, BLACK]), c(BLACK));
        // Only two black: not enough.
        assert_eq!(strong(WHITE, [BLACK, BLACK, WHITE, WHITE]), c(WHITE));
        assert_eq!(strong(WHITE, [BLACK, BLACK, WHITE, 3]), c(WHITE));
        // Three of a non-black colour also wins (multi-colour extension).
        assert_eq!(strong(1, [4, 4, 4, 2]), c(4));
    }

    #[test]
    fn strong_majority_is_stricter_than_smp() {
        // Proposition 2 rests on this: whenever reverse strong majority
        // recolours, the SMP rule would too, but not vice versa.
        use crate::smp::SmpProtocol;
        let smp = SmpProtocol;
        let patterns: [[u16; 4]; 5] = [
            [2, 2, 2, 2],
            [2, 2, 2, 1],
            [2, 2, 1, 3],
            [2, 2, 1, 1],
            [1, 2, 3, 4],
        ];
        for p in patterns {
            let nbrs = [c(p[0]), c(p[1]), c(p[2]), c(p[3])];
            let own = c(9);
            let strong_next = ReverseStrongMajority.next_color(own, &nbrs);
            if strong_next != own {
                assert_eq!(
                    smp.next_color(own, &nbrs),
                    strong_next,
                    "SMP must recolour whenever strong majority does ({p:?})"
                );
            }
        }
    }

    #[test]
    fn names_and_accessors() {
        assert_eq!(
            ReverseSimpleMajority::prefer_black().tie_break(),
            TieBreak::PreferBlack
        );
        assert!(ReverseSimpleMajority::prefer_black()
            .name()
            .contains("prefer-black"));
        assert!(ReverseSimpleMajority::prefer_current()
            .name()
            .contains("prefer-current"));
        assert_eq!(ReverseStrongMajority.name(), "reverse strong majority");
        assert!(!ReverseStrongMajority.is_monotone_for(c(2)));
    }
}
