//! Run observation: per-round hooks over a running simulation.
//!
//! An [`Observer`] receives a borrowed [`StepView`] of the configuration
//! after every synchronous round (plus one [`Observer::on_start`] call for
//! the initial configuration and an [`Observer::on_finish`] call with the
//! final [`RunOutcome`]).  This subsumes the bespoke recording loops the
//! workspace used to carry: full-configuration traces are a
//! [`TraceObserver`], per-round colour histograms are a
//! [`HistogramObserver`], and experiment-specific measurements implement
//! the trait directly instead of re-writing the round loop.
//!
//! Observation is strictly read-only — a view cannot mutate the simulator —
//! and costs nothing when unused: `Simulator::run` drives the same loop
//! with a no-op sink.

use crate::metrics::{round_histogram, ColorHistogram};
use crate::runner::RunOutcome;
use crate::state::StateVec;
use crate::trace::Trace;
use ctori_coloring::{Color, Coloring, Palette};

/// A read-only view of the configuration after a synchronous round.
///
/// Borrowed from the simulator for the duration of one callback; copy out
/// whatever the observer needs ([`StepView::coloring`] materialises the
/// full grid, the per-vertex accessors avoid that allocation).
pub struct StepView<'a> {
    state: &'a StateVec,
    rows: usize,
    cols: usize,
    round: usize,
    changed: usize,
}

impl<'a> StepView<'a> {
    pub(crate) fn new(
        state: &'a StateVec,
        rows: usize,
        cols: usize,
        round: usize,
        changed: usize,
    ) -> Self {
        StepView {
            state,
            rows,
            cols,
            round,
            changed,
        }
    }

    /// The round that was just completed (`0` in [`Observer::on_start`]).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Number of vertices that changed colour this round.
    pub fn changed(&self) -> usize {
        self.changed
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.state.len()
    }

    /// The grid shape of [`StepView::coloring`] (`1 × n` on general
    /// graphs).
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The current colour of vertex `v`.
    pub fn color_of(&self, v: usize) -> Color {
        self.state.color_of(v)
    }

    /// Number of vertices currently holding `k` (O(1); on the plane lane
    /// one pass over the packed plane words).
    pub fn count_of(&self, k: Color) -> usize {
        self.state.count_of(k)
    }

    /// The monochromatic colour, if every vertex holds the same one (O(1);
    /// O(planes) on the plane lane, off its per-plane bit counts).
    pub fn monochromatic(&self) -> Option<Color> {
        self.state.monochromatic()
    }

    /// The colour populations after this round, as a [`ColorHistogram`]
    /// of the colours currently present (O(palette); on the plane lane one
    /// pass over the packed plane words, 64 vertices per word).  Neither
    /// decodes the configuration, so it is cheap enough to sample every
    /// round; the execution API's progress events are built from this.
    pub fn histogram(&self) -> ColorHistogram {
        ColorHistogram {
            round: self.round,
            counts: self.state.histogram_counts(),
        }
    }

    /// Materialises the configuration as one colour per vertex.
    pub fn snapshot(&self) -> Vec<Color> {
        self.state.snapshot()
    }

    /// Materialises the configuration as a grid-shaped [`Coloring`].
    pub fn coloring(&self) -> Coloring {
        Coloring::from_cells(self.rows, self.cols, self.state.snapshot())
    }
}

/// Per-round hooks over a run.
///
/// All methods default to no-ops, so an observer implements only what it
/// measures.
pub trait Observer {
    /// Called once with the initial configuration, before any round runs.
    fn on_start(&mut self, _view: &StepView<'_>) {}

    /// Called after every completed synchronous round.
    fn on_round(&mut self, _view: &StepView<'_>) {}

    /// Called once with the final outcome, after termination.
    fn on_finish(&mut self, _outcome: &RunOutcome) {}
}

/// The no-op observer (`Runner::execute` uses it internally).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Records every configuration of a run, yielding a [`Trace`].
///
/// This is the observer behind [`crate::trace::run_with_trace`]; figure
/// reproduction uses the trace to extract per-vertex recolouring times.
#[derive(Clone, Debug, Default)]
pub struct TraceObserver {
    configurations: Vec<Coloring>,
}

impl TraceObserver {
    /// Creates an empty trace recorder.
    pub fn new() -> Self {
        TraceObserver::default()
    }

    /// The recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if no configuration was recorded yet (the observer has not
    /// been run).
    pub fn into_trace(self) -> Trace {
        Trace::from_configurations(self.configurations)
    }
}

impl Observer for TraceObserver {
    fn on_start(&mut self, view: &StepView<'_>) {
        self.configurations.push(view.coloring());
    }

    fn on_round(&mut self, view: &StepView<'_>) {
        self.configurations.push(view.coloring());
    }
}

/// Records a per-round colour histogram series (the data behind the
/// convergence plots).
#[derive(Clone, Debug)]
pub struct HistogramObserver {
    palette: Palette,
    series: Vec<ColorHistogram>,
}

impl HistogramObserver {
    /// Creates a recorder counting the colours of `palette`.
    pub fn new(palette: Palette) -> Self {
        HistogramObserver {
            palette,
            series: Vec::new(),
        }
    }

    /// The recorded series, one histogram per round (round 0 = initial).
    pub fn series(&self) -> &[ColorHistogram] {
        &self.series
    }

    /// Consumes the observer, yielding the series.
    pub fn into_series(self) -> Vec<ColorHistogram> {
        self.series
    }
}

impl Observer for HistogramObserver {
    fn on_start(&mut self, view: &StepView<'_>) {
        self.series.push(round_histogram(
            &view.coloring(),
            &self.palette,
            view.round(),
        ));
    }

    fn on_round(&mut self, view: &StepView<'_>) {
        self.series.push(round_histogram(
            &view.coloring(),
            &self.palette,
            view.round(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ColorCensus;

    fn view_of(state: &StateVec) -> StepView<'_> {
        StepView::new(state, 1, state.len(), 0, 0)
    }

    #[test]
    fn step_view_reads_the_state() {
        let colors = vec![Color::new(1), Color::new(2), Color::new(1)];
        let state = StateVec::Generic {
            census: ColorCensus::of(&colors),
            colors,
        };
        let view = view_of(&state);
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.grid_dims(), (1, 3));
        assert_eq!(view.color_of(1), Color::new(2));
        assert_eq!(view.count_of(Color::new(1)), 2);
        assert_eq!(view.monochromatic(), None);
        assert_eq!(view.round(), 0);
        assert_eq!(view.changed(), 0);
        assert_eq!(view.snapshot().len(), 3);
        assert_eq!(view.coloring().cols(), 3);
        let histogram = view.histogram();
        assert_eq!(histogram.round, 0);
        assert_eq!(
            histogram.counts,
            vec![(Color::new(1), 2), (Color::new(2), 1)]
        );
    }

    #[test]
    fn trace_observer_collects_configurations() {
        let colors = vec![Color::new(1); 4];
        let state = StateVec::Generic {
            census: ColorCensus::of(&colors),
            colors,
        };
        let mut observer = TraceObserver::new();
        observer.on_start(&view_of(&state));
        observer.on_round(&view_of(&state));
        let trace = observer.into_trace();
        assert_eq!(trace.rounds(), 1);
        assert_eq!(trace.initial(), trace.last());
    }

    #[test]
    fn histogram_observer_counts_rounds() {
        let colors = vec![Color::new(1), Color::new(2)];
        let state = StateVec::Generic {
            census: ColorCensus::of(&colors),
            colors,
        };
        let mut observer = HistogramObserver::new(Palette::new(2));
        observer.on_start(&view_of(&state));
        assert_eq!(observer.series().len(), 1);
        assert_eq!(observer.series()[0].count(Color::new(1)), 1);
        assert_eq!(observer.into_series().len(), 1);
    }
}
