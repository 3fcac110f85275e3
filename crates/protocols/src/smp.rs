//! The SMP-Protocol (Algorithm 1 of the paper).
//!
//! > *"a node recolors itself by directly assuming the color of the
//! > adjacent vertices either if two neighbors have the same color and the
//! > remaining ones have different colors in between or all the neighbors
//! > have the same color"*
//!
//! Formally (Algorithm 1): for a vertex `x` with neighbours `a, b, c, d`,
//! if `(r(a) = r(b) ∧ r(c) ≠ r(d)) ∨ (r(a) = r(b) = r(c) = r(d))` then
//! `r(x) ← r(a)`.
//!
//! Reading the quantification over the *choice* of the pair `{a, b}`, the
//! rule is equivalent to: **adopt the colour held by a unique plurality of
//! at least two neighbours; otherwise keep the current colour.**  The
//! neighbour multisets of a degree-4 vertex fall into exactly five
//! patterns:
//!
//! | pattern | example | action |
//! |---------|---------|--------|
//! | 4       | `k k k k` | adopt `k` (second clause) |
//! | 3-1     | `k k k c` | adopt `k` (pair of `k`s, remaining `k ≠ c`) |
//! | 2-1-1   | `k k c d` | adopt `k` (pair of `k`s, remaining `c ≠ d`) |
//! | 2-2     | `k k c c` | **no change** (whichever pair is chosen, the remaining two are equal) |
//! | 1-1-1-1 | `a b c d` | no change (no pair exists) |
//!
//! The 2-2 case is precisely where the paper departs from the
//! Prefer-Black / Prefer-Current rules of \[15\]/\[26\]: the SMP-Protocol gives
//! no colour priority, so restricted to two colours it does **not** reduce
//! to the rule of \[15\] (Remark 1 of the paper builds on this).

use crate::capability::ColorCountRule;
use crate::counting::plurality;
use crate::rule::LocalRule;
use ctori_coloring::Color;

/// The paper's "simple majority with persuadable entities" protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmpProtocol;

impl SmpProtocol {
    /// The number of equal-coloured neighbours required to trigger a
    /// recolouring (two, per Algorithm 1).
    pub const REQUIRED_PAIR: usize = 2;
}

impl LocalRule for SmpProtocol {
    #[inline]
    fn next_color(&self, own: Color, neighbors: &[Color]) -> Color {
        match plurality(neighbors, Self::REQUIRED_PAIR) {
            Some(c) => c,
            None => own,
        }
    }

    fn name(&self) -> &'static str {
        "SMP-Protocol"
    }

    fn as_color_count_rule(&self) -> Option<ColorCountRule> {
        // `next_color` is literally `plurality(neighbors, 2)` with the own
        // colour as fallback, which is the counting form verbatim.
        Some(ColorCountRule::plurality(Self::REQUIRED_PAIR as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    fn step(own: u16, nbrs: [u16; 4]) -> Color {
        SmpProtocol.next_color(c(own), &[c(nbrs[0]), c(nbrs[1]), c(nbrs[2]), c(nbrs[3])])
    }

    #[test]
    fn all_four_equal_recolors() {
        // Second clause of Algorithm 1.
        assert_eq!(step(1, [2, 2, 2, 2]), c(2));
        // Also when the vertex already has the colour (no-op).
        assert_eq!(step(2, [2, 2, 2, 2]), c(2));
    }

    #[test]
    fn three_one_recolors_to_majority() {
        assert_eq!(step(1, [3, 3, 3, 2]), c(3));
        assert_eq!(step(5, [2, 3, 3, 3]), c(3));
    }

    #[test]
    fn two_one_one_recolors_to_the_pair() {
        // First clause: a pair with the remaining two different.
        assert_eq!(step(1, [4, 4, 2, 3]), c(4));
        assert_eq!(step(9, [2, 7, 7, 3]), c(7));
        // The pair may be the vertex's own colour — then nothing visibly
        // changes, but the rule still "fires".
        assert_eq!(step(4, [4, 4, 2, 3]), c(4));
    }

    #[test]
    fn two_two_tie_keeps_current_color() {
        // This is where the SMP-Protocol deliberately differs from
        // Prefer-Black: in [15] a 2-2 black/white split recolours black.
        assert_eq!(step(1, [2, 2, 3, 3]), c(1));
        assert_eq!(step(7, [1, 2, 1, 2]), c(7));
        // Even if the tie involves the vertex's own colour.
        assert_eq!(step(2, [2, 2, 3, 3]), c(2));
    }

    #[test]
    fn all_different_keeps_current_color() {
        assert_eq!(step(9, [1, 2, 3, 4]), c(9));
        assert_eq!(step(1, [1, 2, 3, 4]), c(1));
    }

    #[test]
    fn rule_is_independent_of_neighbor_order() {
        let nbrs = [c(2), c(5), c(5), c(9)];
        let mut permuted = nbrs;
        // check a few permutations
        for _ in 0..4 {
            permuted.rotate_left(1);
            assert_eq!(
                SmpProtocol.next_color(c(1), &nbrs),
                SmpProtocol.next_color(c(1), &permuted)
            );
        }
    }

    #[test]
    fn own_color_does_not_influence_decision() {
        // The rule reads the neighbourhood only; the vertex's own colour
        // matters only as the fallback.
        let nbrs = [c(3), c(3), c(1), c(2)];
        for own in 1..6 {
            assert_eq!(SmpProtocol.next_color(c(own), &nbrs), c(3));
        }
    }

    #[test]
    fn not_monotone_by_default() {
        assert!(!SmpProtocol.is_monotone_for(c(1)));
        assert_eq!(SmpProtocol.name(), "SMP-Protocol");
    }

    #[test]
    fn k_block_members_never_change() {
        // A vertex with two k-coloured neighbours (its block mates) and two
        // equal "outside" neighbours sees a 2-2 tie and keeps k; with two
        // different outside neighbours it re-adopts k.  Either way it stays
        // k — the invariant behind Definition 4.
        assert_eq!(step(2, [2, 2, 5, 5]), c(2));
        assert_eq!(step(2, [2, 2, 5, 6]), c(2));
        assert_eq!(step(2, [2, 2, 2, 6]), c(2));
    }

    #[test]
    fn non_k_block_members_never_become_k() {
        // A vertex with at least three non-k neighbours can never see two
        // k-coloured neighbours, so it can never adopt k (Definition 5).
        // Example: three neighbours coloured 3, one coloured k=2.
        assert_eq!(step(4, [3, 3, 3, 2]), c(3));
        // Example: neighbours 3, 4, 5 and one k=2: no pair at all.
        assert_eq!(step(4, [3, 4, 5, 2]), c(4));
    }
}
