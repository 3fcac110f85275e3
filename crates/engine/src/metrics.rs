//! Per-round metrics.
//!
//! The experiments plot how the population of each colour evolves round by
//! round (e.g. to show the monotone growth of `V^k` for a dynamo, or the
//! stagnation of a non-dynamo configuration).  This module also carries
//! the engine's step-profiling counters: [`StepStats`] accumulates the
//! hybrid dense/sparse lane decisions of every round inside the
//! simulator, and [`RoundStats`] is the timed summary a
//! [`crate::RunOutcome`] reports as its `round-stats:` line.

use crate::simulator::Simulator;
use ctori_coloring::{Color, Coloring, Palette};
use ctori_protocols::LocalRule;

/// Cumulative step-profiling counters, maintained by the simulator.
///
/// Every [`crate::Simulator::step`] adds one round and the decision its
/// lane made: whether the round ran the full dense sweep or walked the
/// sparse worklist, and how many vertex evaluations that cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Rounds that ran the full (dense, tiled) sweep.
    pub dense_rounds: u64,
    /// Rounds that walked the sparse worklist path.
    pub sparse_rounds: u64,
    /// Vertices evaluated across all rounds.
    pub cells_evaluated: u64,
}

impl StepStats {
    /// Folds one round's decision into the totals.
    pub fn record_round(&mut self, dense: bool, cells_evaluated: u64) {
        self.rounds += 1;
        if dense {
            self.dense_rounds += 1;
        } else {
            self.sparse_rounds += 1;
        }
        self.cells_evaluated += cells_evaluated;
    }
}

/// The timed step profile of one finished run.
///
/// This is pure observability: it is excluded from
/// [`crate::RunOutcome`] equality and from the spec's canonical key, and
/// parsing tolerates its absence, because its values (wall-clock
/// nanoseconds above all) vary run to run while the simulation result
/// does not.
///
/// The text keys `dense-bands` and `sparse-bands` date from row-band
/// stepping, when each band of a round counted; every round is one band
/// now, so they count rounds, and outcome texts keep their shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Rounds that ran the full (dense, tiled) sweep (`dense-bands`).
    pub dense_rounds: u64,
    /// Rounds that walked the sparse worklist path (`sparse-bands`).
    pub sparse_rounds: u64,
    /// Vertices evaluated across all rounds.
    pub cells_evaluated: u64,
    /// Threads a round stepped on: 1 for every run of this engine; an
    /// outcome text recorded by an older engine keeps its value.
    pub threads: u64,
    /// Wall-clock nanoseconds spent inside the run.
    pub nanos: u64,
}

impl RoundStats {
    /// Throughput in gigacells (vertex evaluations) per second; `None`
    /// when no time was observed.
    pub fn gcells_per_sec(&self) -> Option<f64> {
        (self.nanos > 0).then(|| self.cells_evaluated as f64 / self.nanos as f64)
    }

    /// Renders the stats as the `round-stats:` line's value — a
    /// `key=value` list that [`RoundStats::parse`] round-trips.
    pub fn render(&self) -> String {
        format!(
            "rounds={} dense-bands={} sparse-bands={} cells={} threads={} nanos={}",
            self.rounds,
            self.dense_rounds,
            self.sparse_rounds,
            self.cells_evaluated,
            self.threads,
            self.nanos
        )
    }

    /// Parses a [`RoundStats::render`] value; `None` on any malformed,
    /// missing or repeated field.
    pub fn parse(text: &str) -> Option<RoundStats> {
        let mut stats = RoundStats {
            rounds: 0,
            dense_rounds: 0,
            sparse_rounds: 0,
            cells_evaluated: 0,
            threads: 0,
            nanos: 0,
        };
        // One bit per key, set when the key is read.
        let mut seen = 0u8;
        for token in text.split_whitespace() {
            let (key, value) = token.split_once('=')?;
            let value: u64 = value.parse().ok()?;
            let (bit, slot) = match key {
                "rounds" => (0, &mut stats.rounds),
                "dense-bands" => (1, &mut stats.dense_rounds),
                "sparse-bands" => (2, &mut stats.sparse_rounds),
                "cells" => (3, &mut stats.cells_evaluated),
                "threads" => (4, &mut stats.threads),
                "nanos" => (5, &mut stats.nanos),
                _ => return None,
            };
            if seen & (1 << bit) != 0 {
                return None;
            }
            seen |= 1 << bit;
            *slot = value;
        }
        (seen == 0b11_1111).then_some(stats)
    }
}

/// A colour histogram at a specific round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorHistogram {
    /// The round the histogram was taken at (0 = initial configuration).
    pub round: usize,
    /// `(colour, number of vertices)` pairs, one per palette colour.
    pub counts: Vec<(Color, usize)>,
}

impl ColorHistogram {
    /// The count for a specific colour (0 if the colour is not listed).
    pub fn count(&self, color: Color) -> usize {
        self.counts
            .iter()
            .find(|(c, _)| *c == color)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Total number of vertices covered by the histogram.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// The colour with the largest population (ties broken by colour
    /// index).
    pub fn dominant(&self) -> Option<Color> {
        self.counts
            .iter()
            .max_by_key(|(c, n)| (*n, std::cmp::Reverse(c.index())))
            .map(|(c, _)| *c)
    }
}

/// Takes a histogram of a colouring over a palette.
pub fn round_histogram(coloring: &Coloring, palette: &Palette, round: usize) -> ColorHistogram {
    ColorHistogram {
        round,
        counts: coloring.histogram(palette),
    }
}

/// Runs a simulation for up to `max_rounds` rounds, collecting a histogram
/// after every round (including the initial configuration), and stopping
/// early on a fixed point or a monochromatic configuration.
pub fn histogram_series<R: LocalRule>(
    sim: &mut Simulator<R>,
    palette: &Palette,
    max_rounds: usize,
) -> Vec<ColorHistogram> {
    let mut series = vec![round_histogram(&sim.coloring(), palette, sim.round())];
    for _ in 0..max_rounds {
        if sim.monochromatic().is_some() {
            break;
        }
        let step = sim.step();
        series.push(round_histogram(&sim.coloring(), palette, sim.round()));
        if step.changed == 0 {
            break;
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_coloring::ColoringBuilder;
    use ctori_protocols::SmpProtocol;
    use ctori_topology::toroidal_mesh;

    #[test]
    fn round_stats_render_round_trips() {
        let stats = RoundStats {
            rounds: 41,
            dense_rounds: 30,
            sparse_rounds: 11,
            cells_evaluated: 1 << 33,
            threads: 8,
            nanos: 2_500_000_000,
        };
        assert_eq!(RoundStats::parse(&stats.render()), Some(stats));
        let gcps = stats.gcells_per_sec().unwrap();
        assert!((gcps - (1u64 << 33) as f64 / 2.5e9).abs() < 1e-9);
        assert!(RoundStats::parse("rounds=1").is_none(), "missing fields");
        assert!(RoundStats::parse("bogus").is_none());
        assert!(RoundStats::parse(&format!("{} extra=1", stats.render())).is_none());
        assert!(
            RoundStats::parse("rounds=1 rounds=1 sparse-bands=0 cells=0 threads=1 nanos=0")
                .is_none(),
            "a repeated key does not stand in for a missing one"
        );
        let zero = RoundStats { nanos: 0, ..stats };
        assert_eq!(zero.gcells_per_sec(), None);
    }

    #[test]
    fn step_stats_accumulate() {
        let mut stats = StepStats::default();
        stats.record_round(true, 1_000_000);
        stats.record_round(false, 250_000);
        stats.record_round(true, 1_000_000);
        assert_eq!(
            stats,
            StepStats {
                rounds: 3,
                dense_rounds: 2,
                sparse_rounds: 1,
                cells_evaluated: 2_250_000,
            }
        );
    }

    #[test]
    fn histogram_counts_and_dominant() {
        let t = toroidal_mesh(3, 3);
        let coloring = ColoringBuilder::filled(&t, Color::new(1))
            .cell(0, 0, Color::new(2))
            .cell(0, 1, Color::new(2))
            .build();
        let p = Palette::new(3);
        let h = round_histogram(&coloring, &p, 0);
        assert_eq!(h.count(Color::new(1)), 7);
        assert_eq!(h.count(Color::new(2)), 2);
        assert_eq!(h.count(Color::new(3)), 0);
        assert_eq!(h.count(Color::new(9)), 0);
        assert_eq!(h.total(), 9);
        assert_eq!(h.dominant(), Some(Color::new(1)));
        assert_eq!(h.round, 0);
    }

    #[test]
    fn series_tracks_monotone_growth() {
        let t = toroidal_mesh(5, 5);
        let k = Color::new(2);
        let coloring = ColoringBuilder::filled(&t, k)
            .cell(1, 1, Color::new(1))
            .cell(1, 2, Color::new(3))
            .cell(2, 1, Color::new(4))
            .cell(2, 2, Color::new(5))
            .build();
        let p = Palette::new(5);
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        let series = histogram_series(&mut sim, &p, 100);
        assert!(series.len() >= 2);
        // k-population is non-decreasing and ends at 25.
        let counts: Vec<usize> = series.iter().map(|h| h.count(k)).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), 25);
        // every histogram covers all the vertices
        assert!(series.iter().all(|h| h.total() == 25));
    }

    #[test]
    fn series_stops_at_fixed_point() {
        let t = toroidal_mesh(4, 4);
        let coloring =
            ctori_coloring::patterns::column_stripes(&t, &[Color::new(1), Color::new(2)]);
        let p = Palette::new(2);
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        let series = histogram_series(&mut sim, &p, 100);
        // initial + one idle round
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].counts, series[1].counts);
    }
}
