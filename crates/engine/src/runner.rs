//! Scenario execution: one entry point for single runs and batch sweeps.
//!
//! [`Runner`] is the execution half of the declarative API: it owns the
//! whole pipeline from a [`RunSpec`] to a [`RunOutcome`] — materialising
//! the topology, colouring the seed, resolving the rule, selecting the
//! simulation lane, and driving the run to termination — so callers never
//! touch a `Simulator` to run a scenario.  [`Runner::sweep`] fans a batch
//! of specs out over the [`crate::sweep::parallel_map`] thread pool,
//! which is the workspace's first end-to-end multi-scenario throughput
//! path (parameter grids: density × size × rule).
//!
//! ```
//! use ctori_engine::{Runner, RunSpec, RuleSpec, SeedSpec, TopologySpec, Termination};
//! use ctori_engine::spec::PatternSpec;
//! use ctori_coloring::Color;
//!
//! // Alternating white/black columns: every vertex sees a 2-2 tie, which
//! // the prefer-black tie-break resolves to black in a single round.
//! let spec = RunSpec::new(
//!     TopologySpec::toroidal_mesh(4, 4),
//!     RuleSpec::parse("prefer-black").unwrap(),
//!     SeedSpec::Pattern(PatternSpec::ColumnStripes(vec![Color::WHITE, Color::BLACK])),
//! );
//! let outcome = Runner::new().execute(&spec);
//! assert_eq!(outcome.termination, Termination::Monochromatic(Color::BLACK));
//! assert_eq!(outcome.rounds, 1);
//! ```

use crate::metrics::RoundStats;
use crate::observe::{NullObserver, Observer};
use crate::simulator::{RunReport, Simulator, Termination};
use crate::spec::{lines_with_rest, BuiltTopology, EngineOptions, LaneSpec, RunSpec};
use crate::sweep::parallel_map;
use ctori_coloring::render::render_coloring_into;
use ctori_coloring::{textio, Color, Coloring};
use ctori_protocols::AnyRule;
use std::time::Instant;

/// Errors produced when parsing a [`RunOutcome`] from its text form.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum OutcomeParseError {
    /// A required `key: value` line was missing.
    MissingField(&'static str),
    /// A line was not of the `key: value` form, or used an unknown key.
    UnexpectedLine {
        /// 1-based line number in the input.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A field's value was malformed.
    BadValue {
        /// Which field.
        field: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The final-configuration glyph grid failed to parse.
    BadColoring(textio::ParseError),
}

impl std::fmt::Display for OutcomeParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutcomeParseError::MissingField(key) => write!(f, "missing `{key}:` line"),
            OutcomeParseError::UnexpectedLine { line, text } => {
                write!(f, "line {line}: expected `key: value`, got {text:?}")
            }
            OutcomeParseError::BadValue { field, detail } => {
                write!(f, "bad `{field}`: {detail}")
            }
            OutcomeParseError::BadColoring(e) => write!(f, "bad final configuration: {e}"),
        }
    }
}

impl std::error::Error for OutcomeParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OutcomeParseError::BadColoring(e) => Some(e),
            _ => None,
        }
    }
}

impl From<textio::ParseError> for OutcomeParseError {
    fn from(e: textio::ParseError) -> Self {
        OutcomeParseError::BadColoring(e)
    }
}

fn bad_value(field: &'static str, detail: impl Into<String>) -> OutcomeParseError {
    OutcomeParseError::BadValue {
        field,
        detail: detail.into(),
    }
}

/// The result of executing one [`RunSpec`].
///
/// Plain data: everything a caller (or a service response) needs without
/// keeping the simulator alive.  Like the spec itself, an outcome has a
/// line-oriented text round-trip ([`RunOutcome::to_text`] /
/// [`RunOutcome::from_text`]) so it can travel over the service wire
/// protocol and be stored as an artefact.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RunOutcome {
    /// Canonical name of the rule that ran (registry form).
    pub rule: String,
    /// Why the run stopped.
    pub termination: Termination,
    /// Number of rounds executed.
    pub rounds: usize,
    /// The final configuration (grid-shaped; `1 × n` on general graphs).
    pub final_coloring: Coloring,
    /// Per-vertex adoption times of the tracked colour, when
    /// [`crate::spec::EngineOptions::track_times_for`] was set.
    pub recoloring_times: Option<Vec<Option<usize>>>,
    /// Whether the run was monotone in the checked colour, when
    /// [`crate::spec::EngineOptions::check_monotone_for`] was set.
    pub monotone: Option<bool>,
    /// Final count of the tracked/checked colour.
    pub final_target_count: Option<usize>,
    /// Always `false` for runs of this engine: the bit-packed two-colour
    /// lane it reported on was folded into the bit-plane lane, which now
    /// runs two-colour torus specs too.  The field and its `packed-lane:`
    /// text line stay so that outcome texts keep their shape and code
    /// reading the field keeps compiling; an outcome text recorded by an
    /// older engine still parses with its recorded value.
    pub used_packed_lane: bool,
    /// Whether the bit-plane lane drove the run.
    pub used_plane_lane: bool,
    /// Timed step profile of the run (dense/sparse decisions, cells
    /// evaluated, wall clock).  Pure observability: excluded from equality
    /// and absent from outcomes produced by engines predating it.
    pub round_stats: Option<RoundStats>,
}

impl PartialEq for RunOutcome {
    /// Equality ignores [`RunOutcome::round_stats`]: the stats record
    /// *how* a run executed (wall clock, dense/sparse decisions), not what
    /// it computed, so outcomes of the same spec compare equal across
    /// machines, engine versions and cache hits.
    fn eq(&self, other: &Self) -> bool {
        self.rule == other.rule
            && self.termination == other.termination
            && self.rounds == other.rounds
            && self.final_coloring == other.final_coloring
            && self.recoloring_times == other.recoloring_times
            && self.monotone == other.monotone
            && self.final_target_count == other.final_target_count
            && self.used_packed_lane == other.used_packed_lane
            && self.used_plane_lane == other.used_plane_lane
    }
}

impl RunOutcome {
    /// Whether the run converged to the `k`-monochromatic configuration.
    pub fn reached_monochromatic(&self, k: Color) -> bool {
        self.termination.is_monochromatic_in(k)
    }

    /// Number of vertices holding `k` in the final configuration.
    pub fn final_count(&self, k: Color) -> usize {
        self.final_coloring.count(k)
    }

    /// The outcome in the engine's [`RunReport`] shape (for helpers such
    /// as [`crate::trace::RecoloringTimes::from_report`]).
    pub fn report(&self) -> RunReport {
        RunReport {
            termination: self.termination,
            rounds: self.rounds,
            recoloring_times: self.recoloring_times.clone(),
            monotone: self.monotone,
            final_target_count: self.final_target_count,
        }
    }

    /// Renders the outcome as text.  The output parses back with
    /// [`RunOutcome::from_text`] to an identical outcome.
    ///
    /// The format mirrors [`RunSpec::to_text`]: `key: value` lines, with
    /// the final configuration as a [`ctori_coloring::textio`] glyph grid
    /// after a trailing `final:` header (so the grid is always the last
    /// field, like an explicit seed).
    pub fn to_text(&self) -> String {
        let yes_no = |b: bool| if b { "yes" } else { "no" };
        let mut out = String::new();
        out.push_str(&format!("rule: {}\n", self.rule));
        out.push_str(&format!(
            "termination: {}\n",
            termination_to_text(self.termination)
        ));
        out.push_str(&format!("rounds: {}\n", self.rounds));
        out.push_str(&format!("packed-lane: {}\n", yes_no(self.used_packed_lane)));
        out.push_str(&format!("plane-lane: {}\n", yes_no(self.used_plane_lane)));
        out.push_str(&format!(
            "monotone: {}\n",
            match self.monotone {
                Some(b) => yes_no(b),
                None => "-",
            }
        ));
        out.push_str(&format!(
            "target-count: {}\n",
            match self.final_target_count {
                Some(n) => n.to_string(),
                None => "-".into(),
            }
        ));
        if let Some(stats) = &self.round_stats {
            out.push_str(&format!("round-stats: {}\n", stats.render()));
        }
        match &self.recoloring_times {
            None => out.push_str("times: none\n"),
            Some(times) => {
                out.push_str("times:");
                for t in times {
                    match t {
                        Some(round) => out.push_str(&format!(" {round}")),
                        None => out.push_str(" -"),
                    }
                }
                out.push('\n');
            }
        }
        out.push_str("final:\n");
        render_coloring_into(&self.final_coloring, &mut out);
        out
    }

    /// Parses an outcome from the text form produced by
    /// [`RunOutcome::to_text`].
    pub fn from_text(text: &str) -> Result<RunOutcome, OutcomeParseError> {
        let mut rule = None;
        let mut termination = None;
        let mut rounds = None;
        let mut packed = None;
        let mut planes = None;
        let mut monotone = None;
        let mut target_count = None;
        let mut times = None;
        let mut round_stats = None;
        let mut final_coloring = None;

        let parse_yes_no = |field: &'static str, v: &str| match v {
            "yes" => Ok(true),
            "no" => Ok(false),
            other => Err(bad_value(field, format!("expected yes/no, got {other:?}"))),
        };

        for (idx, line, rest) in lines_with_rest(text) {
            if line.trim().is_empty() {
                continue;
            }
            let (key, value) =
                line.split_once(':')
                    .ok_or_else(|| OutcomeParseError::UnexpectedLine {
                        line: idx + 1,
                        text: line.to_string(),
                    })?;
            let value = value.trim();
            match key.trim() {
                "rule" => rule = Some(value.to_string()),
                "termination" => termination = Some(termination_from_text(value)?),
                "rounds" => {
                    rounds = Some(value.parse().map_err(|_| {
                        bad_value("rounds", format!("{value:?} is not a round count"))
                    })?)
                }
                "packed-lane" => packed = Some(parse_yes_no("packed-lane", value)?),
                "plane-lane" => planes = Some(parse_yes_no("plane-lane", value)?),
                "monotone" => {
                    monotone = Some(match value {
                        "-" => None,
                        v => Some(parse_yes_no("monotone", v)?),
                    })
                }
                "target-count" => {
                    target_count = Some(match value {
                        "-" => None,
                        v => Some(v.parse().map_err(|_| {
                            bad_value("target-count", format!("{v:?} is not a count"))
                        })?),
                    })
                }
                "times" => {
                    times = Some(if value == "none" {
                        None
                    } else {
                        let mut parsed = Vec::new();
                        for token in value.split_whitespace() {
                            parsed.push(match token {
                                "-" => None,
                                t => Some(t.parse().map_err(|_| {
                                    bad_value("times", format!("{t:?} is not a round"))
                                })?),
                            });
                        }
                        Some(parsed)
                    })
                }
                "round-stats" => {
                    // Optional: older outcomes never carried the line,
                    // so absence parses to `None` — but a present,
                    // malformed line is still an error.
                    round_stats = Some(RoundStats::parse(value).ok_or_else(|| {
                        bad_value("round-stats", format!("{value:?} is not a stats record"))
                    })?);
                }
                "final" => {
                    // The glyph grid owns every remaining line.
                    final_coloring = Some(textio::from_text(rest)?);
                    break;
                }
                _ => {
                    return Err(OutcomeParseError::UnexpectedLine {
                        line: idx + 1,
                        text: line.to_string(),
                    })
                }
            }
        }

        Ok(RunOutcome {
            rule: rule.ok_or(OutcomeParseError::MissingField("rule"))?,
            termination: termination.ok_or(OutcomeParseError::MissingField("termination"))?,
            rounds: rounds.ok_or(OutcomeParseError::MissingField("rounds"))?,
            final_coloring: final_coloring.ok_or(OutcomeParseError::MissingField("final"))?,
            recoloring_times: times.ok_or(OutcomeParseError::MissingField("times"))?,
            monotone: monotone.ok_or(OutcomeParseError::MissingField("monotone"))?,
            final_target_count: target_count
                .ok_or(OutcomeParseError::MissingField("target-count"))?,
            used_packed_lane: packed.ok_or(OutcomeParseError::MissingField("packed-lane"))?,
            used_plane_lane: planes.ok_or(OutcomeParseError::MissingField("plane-lane"))?,
            round_stats,
        })
    }
}

/// Renders a [`Termination`] for the outcome text form.
fn termination_to_text(termination: Termination) -> String {
    match termination {
        Termination::Monochromatic(c) => format!("monochromatic {}", c.index()),
        Termination::FixedPoint => "fixed-point".into(),
        Termination::Cycle { period } => format!("cycle {period}"),
        Termination::RoundLimit => "round-limit".into(),
    }
}

/// Parses a [`Termination`] from the outcome text form.
fn termination_from_text(value: &str) -> Result<Termination, OutcomeParseError> {
    let mut tokens = value.split_whitespace();
    let head = tokens.next();
    let parsed = match head {
        Some("monochromatic") => {
            let raw = tokens
                .next()
                .ok_or_else(|| bad_value("termination", "monochromatic needs a colour"))?;
            let index: u16 = raw
                .parse()
                .map_err(|_| bad_value("termination", format!("{raw:?} is not a colour index")))?;
            if index == 0 {
                return Err(bad_value("termination", "colour indices are 1-based"));
            }
            Termination::Monochromatic(Color::new(index))
        }
        Some("fixed-point") => Termination::FixedPoint,
        Some("cycle") => {
            let raw = tokens
                .next()
                .ok_or_else(|| bad_value("termination", "cycle needs a period"))?;
            Termination::Cycle {
                period: raw.parse().map_err(|_| {
                    bad_value("termination", format!("{raw:?} is not a cycle period"))
                })?,
            }
        }
        Some("round-limit") => Termination::RoundLimit,
        other => {
            return Err(bad_value(
                "termination",
                format!("unknown termination {other:?}"),
            ))
        }
    };
    if tokens.next().is_some() {
        return Err(bad_value("termination", "trailing tokens"));
    }
    Ok(parsed)
}

/// Executes [`RunSpec`]s, alone or in parallel batches.
///
/// A `Runner` is cheap to create and holds no scenario state — only the
/// thread budget used by [`Runner::sweep`].
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    threads: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Runner {
    /// A runner with the default thread budget
    /// ([`crate::sweep::default_threads`]: available parallelism, capped
    /// at 16 — the same policy as [`crate::sweep::parallel_runs`]).
    pub fn new() -> Self {
        Runner {
            threads: crate::sweep::default_threads(),
        }
    }

    /// A runner with an explicit thread budget for [`Runner::sweep`]
    /// (`1` = one run at a time).
    pub fn with_threads(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
        }
    }

    /// A runner honouring the thread budget of a scenario's
    /// [`EngineOptions::threads`] knob (`0` = the default budget).
    ///
    /// This is how a declarative batch chooses its own parallelism: render
    /// `threads=N` into the spec text, and execute the grid with
    /// `Runner::for_options(&spec.options).sweep(grid)`.
    pub fn for_options(options: &EngineOptions) -> Self {
        Runner::with_threads(options.effective_threads())
    }

    /// The thread budget used by [`Runner::sweep`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes one scenario to termination.
    ///
    /// # Panics
    ///
    /// Panics when the spec is structurally invalid (seed does not fit the
    /// topology, torus smaller than 2×2, …) — the same contracts as the
    /// underlying constructors, surfaced with their messages.
    pub fn execute(&self, spec: &RunSpec) -> RunOutcome {
        self.execute_observed(spec, &mut NullObserver)
    }

    /// Executes one scenario, reporting every round to `observer`.
    pub fn execute_observed(&self, spec: &RunSpec, observer: &mut dyn Observer) -> RunOutcome {
        let rule = spec.rule.resolve();
        let config = spec.options.run_config();
        let mut sim = build_simulator(spec, rule);
        observer.on_start(&sim.view());
        // Deliberate timing code: the outcome reports total run time.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let report = sim.run_with(&config, |view| observer.on_round(view));
        let nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let stats = sim.step_stats();
        let outcome = RunOutcome {
            rule: spec.rule.name(),
            termination: report.termination,
            rounds: report.rounds,
            final_coloring: sim.coloring(),
            recoloring_times: report.recoloring_times,
            monotone: report.monotone,
            final_target_count: report.final_target_count,
            used_packed_lane: false,
            used_plane_lane: sim.uses_plane_lane(),
            round_stats: Some(RoundStats {
                rounds: stats.rounds,
                dense_rounds: stats.dense_rounds,
                sparse_rounds: stats.sparse_rounds,
                cells_evaluated: stats.cells_evaluated,
                threads: 1,
                nanos,
            }),
        };
        observer.on_finish(&outcome);
        outcome
    }

    /// Executes a batch of scenarios in parallel, preserving input order.
    ///
    /// The specs fan out over the engine's work-stealing sweep pool
    /// ([`crate::sweep::parallel_map`]); each scenario runs independently
    /// on one worker, so a grid of small runs scales with the thread
    /// budget.  Accepts any owned iterable (`Vec`, a `map` chain, …);
    /// callers holding a grid they want to keep use
    /// [`Runner::sweep_refs`] and clone nothing.
    pub fn sweep<I>(&self, specs: I) -> Vec<RunOutcome>
    where
        I: IntoIterator<Item = RunSpec>,
    {
        parallel_map(specs.into_iter().collect(), self.threads, |spec| {
            self.execute(spec)
        })
    }

    /// As [`Runner::sweep`], but borrows the grid — no spec is cloned or
    /// consumed, so a caller can sweep the same grid repeatedly (the
    /// benchmark harness does exactly that).
    pub fn sweep_refs(&self, specs: &[RunSpec]) -> Vec<RunOutcome> {
        parallel_map(specs.iter().collect(), self.threads, |spec: &&RunSpec| {
            self.execute(spec)
        })
    }
}

/// Builds the simulator for a spec with the lane policy applied.
fn build_simulator(spec: &RunSpec, rule: AnyRule) -> Simulator<AnyRule> {
    let initial = spec.initial_coloring();
    let sim = match spec.topology.build() {
        BuiltTopology::Torus(torus) => Simulator::new(&torus, rule, initial),
        BuiltTopology::Graph(graph) => Simulator::from_topology(&graph, rule, initial.into_cells()),
    };
    match spec.options.lane {
        LaneSpec::Auto => sim,
        LaneSpec::GenericFrontier => sim.with_generic_lane(),
        LaneSpec::FullSweep => sim.with_generic_lane().with_full_sweep(),
        LaneSpec::Planes => sim.with_plane_lane(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::RunConfig;
    use crate::spec::{EngineOptions, RuleSpec, SeedSpec, TopologySpec};
    use ctori_protocols::SmpProtocol;
    use ctori_topology::{toroidal_mesh, TorusKind};

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    /// An absorbing-patch spec: all colour 2 except a 2×2 patch of
    /// pairwise distinct colours.
    fn absorbing_spec() -> RunSpec {
        let torus = toroidal_mesh(5, 5);
        let coloring = ctori_coloring::ColoringBuilder::filled(&torus, c(2))
            .cell(1, 1, c(1))
            .cell(1, 2, c(3))
            .cell(2, 1, c(4))
            .cell(2, 2, c(5))
            .build();
        RunSpec::new(
            TopologySpec::toroidal_mesh(5, 5),
            RuleSpec::from_rule(SmpProtocol),
            SeedSpec::Explicit(coloring),
        )
        .for_dynamo(c(2))
    }

    #[test]
    fn execute_matches_hand_built_simulator() {
        let spec = absorbing_spec();
        let outcome = Runner::new().execute(&spec);

        let torus = toroidal_mesh(5, 5);
        let mut sim = Simulator::new(&torus, SmpProtocol, spec.initial_coloring());
        let report = sim.run(&RunConfig::for_dynamo(c(2)));

        assert_eq!(outcome.termination, report.termination);
        assert_eq!(outcome.rounds, report.rounds);
        assert_eq!(outcome.recoloring_times, report.recoloring_times);
        assert_eq!(outcome.monotone, report.monotone);
        assert_eq!(outcome.final_target_count, report.final_target_count);
        assert_eq!(outcome.final_coloring, sim.coloring());
        assert_eq!(outcome.rule, "smp");
        assert!(outcome.reached_monochromatic(c(2)));
        assert_eq!(outcome.final_count(c(2)), 25);
        assert_eq!(outcome.report().rounds, outcome.rounds);
    }

    #[test]
    fn spec_parsed_from_text_reproduces_the_builder_outcome() {
        let spec = absorbing_spec();
        let reparsed = RunSpec::from_text(&spec.to_text()).unwrap();
        let runner = Runner::with_threads(1);
        let a = runner.execute(&spec);
        let b = runner.execute(&reparsed);
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.final_coloring, b.final_coloring);
        assert_eq!(a.recoloring_times, b.recoloring_times);
    }

    #[test]
    fn lane_forcing_changes_the_backend_not_the_result() {
        let base = RunSpec::new(
            TopologySpec::torus(TorusKind::TorusCordalis, 6, 6),
            RuleSpec::parse("prefer-black").unwrap(),
            SeedSpec::nodes(Color::BLACK, Color::WHITE, [0usize, 1, 6, 7, 35]),
        );
        let runner = Runner::with_threads(1);
        let auto = runner.execute(&base);
        assert!(auto.used_plane_lane, "two colours select the plane lane");
        for lane in [LaneSpec::GenericFrontier, LaneSpec::FullSweep] {
            let forced = runner.execute(
                &base
                    .clone()
                    .with_options(EngineOptions::default().with_lane(lane)),
            );
            assert!(!forced.used_plane_lane);
            assert_eq!(forced.termination, auto.termination, "{lane:?}");
            assert_eq!(forced.rounds, auto.rounds, "{lane:?}");
            assert_eq!(forced.final_coloring, auto.final_coloring, "{lane:?}");
        }
    }

    #[test]
    fn plane_lane_forcing_changes_the_backend_not_the_result() {
        // Four colours: auto selects the bit-plane lane, and forcing each
        // lane must reproduce the same run.
        let base = RunSpec::new(
            TopologySpec::torus(TorusKind::TorusSerpentinus, 8, 8),
            RuleSpec::parse("smp").unwrap(),
            SeedSpec::Density {
                color: c(1),
                palette: 4,
                fraction: 0.3,
                rng_seed: 7,
            },
        );
        let runner = Runner::with_threads(1);
        let auto = runner.execute(&base);
        assert!(
            auto.used_plane_lane,
            "a 4-colour SMP torus run selects the plane lane"
        );
        for lane in [
            LaneSpec::GenericFrontier,
            LaneSpec::FullSweep,
            LaneSpec::Planes,
        ] {
            let forced = runner.execute(
                &base
                    .clone()
                    .with_options(EngineOptions::default().with_lane(lane)),
            );
            assert_eq!(forced.used_plane_lane, lane == LaneSpec::Planes, "{lane:?}");
            assert_eq!(forced.termination, auto.termination, "{lane:?}");
            assert_eq!(forced.rounds, auto.rounds, "{lane:?}");
            assert_eq!(forced.final_coloring, auto.final_coloring, "{lane:?}");
        }
    }

    #[test]
    fn graph_specs_run_on_general_topologies() {
        // Threshold-1 activation sweeping a 5-path, as a pure spec.
        let spec = RunSpec::new(
            TopologySpec::Graph {
                nodes: 5,
                edges: vec![(0, 1), (1, 2), (2, 3), (3, 4)],
            },
            RuleSpec::parse("threshold(2,1)").unwrap(),
            SeedSpec::nodes(c(2), c(1), [0usize]),
        );
        let outcome = Runner::new().execute(&spec);
        assert_eq!(outcome.termination, Termination::Monochromatic(c(2)));
        assert_eq!(outcome.rounds, 4);
        assert!(!outcome.used_plane_lane, "graphs take the generic lane");
        assert_eq!(outcome.final_coloring.rows(), 1, "graphs report flat");
    }

    #[test]
    fn two_colour_torus_specs_report_the_plane_lane() {
        let spec = RunSpec::from_text(
            "topology: toroidal-mesh 16x16\nrule: prefer-black\n\
             seed: density color=2 palette=2 fraction=0.4 rng=3\n",
        )
        .unwrap();
        let text = Runner::with_threads(1).execute(&spec).to_text();
        assert!(text.contains("plane-lane: yes\n"), "\n{text}");
        assert!(text.contains("packed-lane: no\n"), "\n{text}");
    }

    #[test]
    fn sweep_preserves_order_and_matches_sequential() {
        let grid: Vec<RunSpec> = [4usize, 5, 6, 7]
            .into_iter()
            .flat_map(|size| {
                TorusKind::ALL.into_iter().map(move |kind| {
                    RunSpec::new(
                        TopologySpec::torus(kind, size, size),
                        RuleSpec::parse("smp").unwrap(),
                        SeedSpec::checkerboard(c(1), c(2)),
                    )
                })
            })
            .collect();
        let sequential: Vec<RunOutcome> = grid
            .iter()
            .map(|spec| Runner::with_threads(1).execute(spec))
            .collect();
        // An explicit thread budget so the batch path genuinely fans out
        // even on single-core CI machines.  sweep_refs borrows the grid;
        // sweep can then consume it — both must agree with sequential
        // execution.
        let runner = Runner::with_threads(4);
        let borrowed = runner.sweep_refs(&grid);
        let parallel = runner.sweep(grid);
        assert_eq!(parallel.len(), sequential.len());
        assert_eq!(borrowed.len(), sequential.len());
        for ((a, b), c) in parallel.iter().zip(&sequential).zip(&borrowed) {
            assert_eq!(a.termination, b.termination);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.final_coloring, b.final_coloring);
            assert_eq!(c.termination, b.termination);
            assert_eq!(c.final_coloring, b.final_coloring);
        }
    }

    #[test]
    fn sweep_accepts_any_owned_iterable() {
        // A map chain, no intermediate Vec at the call site.
        let outcomes = Runner::with_threads(2).sweep((4usize..6).map(|size| {
            RunSpec::new(
                TopologySpec::toroidal_mesh(size, size),
                RuleSpec::parse("smp").unwrap(),
                SeedSpec::checkerboard(c(1), c(2)),
            )
        }));
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn outcome_text_round_trips() {
        // A tracked run: every Option field populated.
        let tracked = Runner::with_threads(1).execute(&absorbing_spec());
        let text = tracked.to_text();
        assert_eq!(RunOutcome::from_text(&text).unwrap(), tracked, "\n{text}");
        // An untracked cycle: None fields and a Cycle termination.
        let spec = RunSpec::new(
            TopologySpec::toroidal_mesh(4, 4),
            RuleSpec::parse("smp").unwrap(),
            SeedSpec::checkerboard(c(1), c(2)),
        );
        let cycled = Runner::with_threads(1).execute(&spec);
        assert!(matches!(cycled.termination, Termination::Cycle { .. }));
        assert_eq!(cycled.recoloring_times, None);
        let text = cycled.to_text();
        assert_eq!(RunOutcome::from_text(&text).unwrap(), cycled, "\n{text}");
    }

    #[test]
    fn the_largest_glyph_palette_round_trips_through_outcome_text() {
        let spec = RunSpec::from_text(
            "topology: toroidal-mesh 8x8\nrule: threshold(1,4)\n\
             seed: density color=1 palette=35 fraction=0.3 rng=1\n",
        )
        .unwrap();
        let outcome = Runner::with_threads(1).execute(&spec);
        let cells = outcome.final_coloring.cells();
        assert!(
            cells.iter().any(|c| c.index() >= 30),
            "the final grid should hold letter glyphs near `z`"
        );
        let text = outcome.to_text();
        assert_eq!(RunOutcome::from_text(&text).unwrap(), outcome, "\n{text}");
    }

    #[test]
    fn outcome_parse_errors_are_descriptive() {
        assert!(matches!(
            RunOutcome::from_text(""),
            Err(OutcomeParseError::MissingField("rule"))
        ));
        assert!(matches!(
            RunOutcome::from_text("nonsense"),
            Err(OutcomeParseError::UnexpectedLine { line: 1, .. })
        ));
        let good = Runner::with_threads(1).execute(&absorbing_spec()).to_text();
        let broken = good.replace("termination: monochromatic 2", "termination: vanished");
        match RunOutcome::from_text(&broken) {
            Err(OutcomeParseError::BadValue { field, .. }) => assert_eq!(field, "termination"),
            other => panic!("expected BadValue, got {other:?}"),
        }
        let broken = good.replace("packed-lane: ", "packed-lane: maybe");
        assert!(RunOutcome::from_text(&broken).is_err());
        let broken = good.replace("plane-lane: ", "plane-lane: maybe");
        assert!(RunOutcome::from_text(&broken).is_err());
        // Dropping the plane-lane line entirely is a MissingField, not a
        // silent default — outcomes from older engines must not parse.
        let dropped: String = good
            .lines()
            .filter(|l| !l.starts_with("plane-lane:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            RunOutcome::from_text(&dropped),
            Err(OutcomeParseError::MissingField("plane-lane"))
        ));
        // Errors compose with Box<dyn Error>.
        let boxed: Box<dyn std::error::Error> = Box::new(RunOutcome::from_text("").unwrap_err());
        assert!(boxed.to_string().contains("rule"));
    }

    #[test]
    fn round_stats_are_reported_and_survive_the_text_form() {
        let outcome = Runner::with_threads(1).execute(&absorbing_spec());
        let stats = outcome.round_stats.expect("every run reports stats");
        assert_eq!(stats.rounds, outcome.rounds as u64);
        assert_eq!(stats.threads, 1);
        assert!(stats.cells_evaluated > 0);
        let text = outcome.to_text();
        let reparsed = RunOutcome::from_text(&text).unwrap();
        assert_eq!(reparsed.round_stats, outcome.round_stats, "\n{text}");
        // Outcomes from engines predating the line still parse…
        let legacy_text: String = text
            .lines()
            .filter(|l| !l.starts_with("round-stats:"))
            .map(|l| format!("{l}\n"))
            .collect();
        let legacy = RunOutcome::from_text(&legacy_text).unwrap();
        assert_eq!(legacy.round_stats, None);
        // …and equality ignores the stats either way.
        assert_eq!(legacy, outcome);
        // A present but malformed line is still an error.
        let broken = text.replace("round-stats: rounds=", "round-stats: bogus=");
        match RunOutcome::from_text(&broken) {
            Err(OutcomeParseError::BadValue { field, .. }) => assert_eq!(field, "round-stats"),
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn step_threads_change_neither_the_profile_nor_the_outcome() {
        let spec = absorbing_spec();
        let mut threaded = spec.clone();
        threaded.options = threaded.options.with_threads(8);
        assert_eq!(
            spec.canonical_key(),
            threaded.canonical_key(),
            "threads stay out of the canonical key"
        );
        let seq = Runner::with_threads(1).execute(&spec);
        let par = Runner::with_threads(8).execute(&threaded);
        assert_eq!(par, seq, "outcome equality across thread counts");
        for outcome in [&seq, &par] {
            let stats = outcome.round_stats.unwrap();
            assert_eq!(stats.threads, 1, "every round runs on the calling thread");
            assert_eq!(stats.dense_rounds + stats.sparse_rounds, stats.rounds);
        }
    }

    #[test]
    fn auto_threads_step_on_one_thread_at_every_size() {
        // 2¹⁸ cells, with `auto` and with an explicit 4 on a 4-thread
        // budget.
        let spec = RunSpec::new(
            TopologySpec::toroidal_mesh(512, 512),
            RuleSpec::from_rule(SmpProtocol),
            SeedSpec::Density {
                color: c(2),
                palette: 3,
                fraction: 0.4,
                rng_seed: 7,
            },
        )
        .with_options(EngineOptions::default().with_max_rounds(4));
        assert_eq!(spec.options.threads, 0, "the default is auto");
        let runner = Runner::with_threads(4);
        let auto = runner.execute(&spec);
        assert_eq!(auto.round_stats.unwrap().threads, 1);
        let mut explicit = spec.clone();
        explicit.options = explicit.options.with_threads(4);
        let explicit = runner.execute(&explicit);
        assert_eq!(explicit.round_stats.unwrap().threads, 1);
        assert_eq!(auto, explicit);
    }

    #[test]
    fn runner_for_options_honours_the_thread_knob() {
        let options = EngineOptions::default().with_threads(5);
        assert_eq!(Runner::for_options(&options).threads(), 5);
        let auto = EngineOptions::default();
        assert_eq!(
            Runner::for_options(&auto).threads(),
            crate::sweep::default_threads()
        );
    }

    #[test]
    fn observers_see_every_round() {
        struct CountingObserver {
            starts: usize,
            rounds: usize,
            finished: Option<usize>,
        }
        impl Observer for CountingObserver {
            fn on_start(&mut self, view: &crate::observe::StepView<'_>) {
                assert_eq!(view.round(), 0);
                self.starts += 1;
            }
            fn on_round(&mut self, view: &crate::observe::StepView<'_>) {
                assert_eq!(view.round(), self.rounds + 1);
                self.rounds += 1;
            }
            fn on_finish(&mut self, outcome: &RunOutcome) {
                self.finished = Some(outcome.rounds);
            }
        }
        let mut observer = CountingObserver {
            starts: 0,
            rounds: 0,
            finished: None,
        };
        let outcome = Runner::new().execute_observed(&absorbing_spec(), &mut observer);
        assert_eq!(observer.starts, 1);
        assert_eq!(observer.rounds, outcome.rounds);
        assert_eq!(observer.finished, Some(outcome.rounds));
    }
}
