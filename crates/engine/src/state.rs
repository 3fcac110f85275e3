//! State-vector backends of the simulator.
//!
//! The simulator stores the configuration behind the [`StateVec`]
//! abstraction, which has two backends:
//!
//! * [`StateVec::Generic`] — one [`Color`] (`u16`) per vertex plus an
//!   incrementally maintained per-colour census, serving any rule and any
//!   palette;
//! * [`StateVec::Planes`] — `⌈log₂ k⌉` bits per vertex (one bit for one
//!   or two colours) inside a [`PlaneLane`], used on 4-regular tori when
//!   at most 16 colours are present and the rule advertises a per-colour
//!   counting form through
//!   [`ctori_protocols::LocalRule::as_color_count_rule`].
//!
//! The generic backend keeps its aggregate queries (`count_of`,
//! `monochromatic`, `histogram_counts`) O(palette) or better by updating
//! a census as changes are applied.  The plane lane keeps only per-plane
//! bit counts, so `monochromatic`, the query the run loop asks every
//! round, is O(planes); `count_of` of a palette colour and
//! `histogram_counts` count off the packed plane words on each call (64
//! vertices per word), so steps keep no per-colour ledger that no one
//! reads.

use crate::planes::PlaneLane;
use ctori_coloring::Color;

/// An incrementally maintained per-colour census.
///
/// Counts are indexed by the raw colour value; the table grows on demand
/// (colours are `u16`, so it is at most 256 KiB even for adversarial
/// palettes) and tracks how many distinct colours are currently present.
#[derive(Clone, Debug, Default)]
pub struct ColorCensus {
    counts: Vec<u32>,
    distinct: usize,
}

impl ColorCensus {
    /// Builds the census of a configuration.
    pub fn of(colors: &[Color]) -> Self {
        let mut census = ColorCensus::default();
        for &c in colors {
            census.add(c);
        }
        census
    }

    /// Records one more vertex of colour `c`.
    pub fn add(&mut self, c: Color) {
        let idx = c.index() as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        if self.counts[idx] == 0 {
            self.distinct += 1;
        }
        self.counts[idx] += 1;
    }

    /// Records one fewer vertex of colour `c`.
    pub fn remove(&mut self, c: Color) {
        let idx = c.index() as usize;
        self.counts[idx] -= 1;
        if self.counts[idx] == 0 {
            self.distinct -= 1;
        }
    }

    /// Number of vertices currently holding `c`.
    pub fn count(&self, c: Color) -> usize {
        self.counts
            .get(c.index() as usize)
            .map(|&n| n as usize)
            .unwrap_or(0)
    }

    /// Number of distinct colours currently present.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// The `(colour, count)` pairs of every colour currently present, in
    /// ascending colour order.  O(palette), not O(vertices) — this is
    /// what makes per-round histogram sampling cheap for the progress
    /// events of the execution API.
    pub fn present(&self) -> Vec<(Color, usize)> {
        self.counts
            .iter()
            .enumerate()
            .skip(1) // index 0 is the unset sentinel, never in a built run
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (Color::new(idx as u16), n as usize))
            .collect()
    }
}

/// The simulator's configuration storage.
pub enum StateVec {
    /// One colour per vertex; works for every rule and palette.
    Generic {
        /// The configuration.
        colors: Vec<Color>,
        /// Incremental per-colour census of `colors`.
        census: ColorCensus,
    },
    /// `⌈log₂ k⌉` bits per vertex across the bit-planes of a plane lane
    /// (the lane owns its palette and per-colour census).
    Planes {
        /// The bit-plane state plus the word-granular frontier scheduler
        /// (boxed: the lane's bookkeeping dwarfs the generic variant).
        lane: Box<PlaneLane>,
    },
}

impl StateVec {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        match self {
            StateVec::Generic { colors, .. } => colors.len(),
            StateVec::Planes { lane } => lane.len(),
        }
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bit-plane backend is in use.
    pub fn is_planes(&self) -> bool {
        matches!(self, StateVec::Planes { .. })
    }

    /// The colour of vertex `v`.
    #[inline]
    pub fn color_of(&self, v: usize) -> Color {
        match self {
            StateVec::Generic { colors, .. } => colors[v],
            StateVec::Planes { lane } => lane.color_at(v),
        }
    }

    /// Materialises the configuration as one colour per vertex.
    pub fn snapshot(&self) -> Vec<Color> {
        match self {
            StateVec::Generic { colors, .. } => colors.clone(),
            StateVec::Planes { lane } => lane.snapshot(),
        }
    }

    /// Number of vertices currently holding `k` (O(1); on the plane lane
    /// one pass over the packed plane words, or O(log palette) for a
    /// colour outside the palette).
    pub fn count_of(&self, k: Color) -> usize {
        match self {
            StateVec::Generic { census, .. } => census.count(k),
            StateVec::Planes { lane } => lane.count_of(k),
        }
    }

    /// The `(colour, count)` pairs of every colour currently present, in
    /// ascending colour order (O(palette); on the plane lane one pass over
    /// the packed plane words, 64 vertices per word) — never a decode of
    /// the configuration, which is what keeps per-round histogram
    /// observers cheap.
    pub fn histogram_counts(&self) -> Vec<(Color, usize)> {
        match self {
            StateVec::Generic { census, .. } => census.present(),
            StateVec::Planes { lane } => lane.histogram(),
        }
    }

    /// The monochromatic colour, if every vertex holds the same one (O(1);
    /// O(planes) on the plane lane, off its per-plane bit counts).
    pub fn monochromatic(&self) -> Option<Color> {
        if self.is_empty() {
            return None;
        }
        match self {
            StateVec::Generic { colors, census } => (census.distinct() == 1).then(|| colors[0]),
            StateVec::Planes { lane } => lane.monochromatic(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    #[test]
    fn census_tracks_distinct_colors() {
        let mut census = ColorCensus::of(&[c(1), c(1), c(2)]);
        assert_eq!(census.count(c(1)), 2);
        assert_eq!(census.count(c(9)), 0);
        assert_eq!(census.distinct(), 2);
        census.remove(c(2));
        census.add(c(1));
        assert_eq!(census.distinct(), 1);
        assert_eq!(census.count(c(1)), 3);
    }

    #[test]
    fn generic_state_queries() {
        let colors = vec![c(1), c(2), c(1)];
        let state = StateVec::Generic {
            census: ColorCensus::of(&colors),
            colors,
        };
        assert_eq!(state.len(), 3);
        assert!(!state.is_planes());
        assert_eq!(state.color_of(1), c(2));
        assert_eq!(state.count_of(c(1)), 2);
        assert_eq!(state.monochromatic(), None);
        assert_eq!(state.snapshot(), vec![c(1), c(2), c(1)]);
    }
}
