//! # ctori-protocols
//!
//! Local recolouring rules for the *Dynamic Monopolies in Colored Tori*
//! reproduction.
//!
//! Every protocol studied in the paper (and every baseline it compares
//! against) is a **local rule**: a pure function from a vertex's current
//! colour and the multiset of its neighbours' colours to its next colour.
//! All vertices apply the rule simultaneously each round (the synchronous
//! model of Section III.D); the simulation engine in `ctori-engine` does
//! the orchestration, this crate only defines the rules.
//!
//! Provided rules:
//!
//! * [`SmpProtocol`] — the paper's SMP-Protocol (*simple majority with
//!   persuadable entities*, Algorithm 1): adopt the colour of a unique
//!   plurality of at least two neighbours; keep the current colour on
//!   2–2 ties or when all neighbours differ.
//! * [`ReverseSimpleMajority`] — the bi-coloured baseline of Flocchini et
//!   al. \[15\] with the two classical tie-breaking options
//!   ([`TieBreak::PreferBlack`] and [`TieBreak::PreferCurrent`], the
//!   Prefer-Black / Prefer-Current rules attributed to Peleg \[26\]).
//! * [`ReverseStrongMajority`] — the strong-majority variant (a vertex
//!   needs at least ⌈(d+1)/2⌉ = 3 equal-coloured neighbours to recolour),
//!   used by Proposition 2 for the upper-bound transfer.
//! * [`Irreversible`] — a wrapper making any rule monotone with respect to
//!   a target colour (once a vertex turns `k` it stays `k`), the
//!   "irreversible dynamo" model referenced in the related work.
//! * [`ThresholdRule`] — the linear threshold rule used by the
//!   target-set-selection substrate.
//!
//! Rules are also selectable **by string** through the [`registry`]
//! (`"smp"`, `"prefer-black"`, `"threshold(2,2)"`, …), which is how the
//! engine's declarative `RunSpec` scenarios name them.
//!
//! # Example
//!
//! ```
//! use ctori_coloring::Color;
//! use ctori_protocols::{LocalRule, SmpProtocol};
//!
//! let rule = SmpProtocol;
//! let c = |i| Color::new(i);
//! // Two neighbours coloured 3, the other two with different colours:
//! // adopt colour 3 (first clause of Algorithm 1).
//! assert_eq!(rule.next_color(c(1), &[c(3), c(3), c(2), c(4)]), c(3));
//! // A 2-2 tie: keep the current colour (the paper's deliberate
//! // departure from Prefer-Black).
//! assert_eq!(rule.next_color(c(1), &[c(3), c(3), c(2), c(2)]), c(1));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod capability;
pub mod counting;
pub mod irreversible;
pub mod majority;
pub mod registry;
pub mod rule;
pub mod smp;
pub mod threshold;

pub use capability::{ColorCountForm, ColorCountRule};
pub use counting::{plurality, ColorCounts};
pub use irreversible::Irreversible;
pub use majority::{ReverseSimpleMajority, ReverseStrongMajority, TieBreak};
pub use registry::RuleParseError;
pub use rule::{AnyRule, LocalRule};
pub use smp::SmpProtocol;
pub use threshold::ThresholdRule;
