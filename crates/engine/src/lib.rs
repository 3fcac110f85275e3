//! # ctori-engine
//!
//! Synchronous simulation engine for the *Dynamic Monopolies in Colored
//! Tori* reproduction.
//!
//! The paper's model (Section III.D) is fully synchronous: every vertex
//! reads its neighbours' colours and all vertices update simultaneously,
//! one round per unit of time.  The engine provides:
//!
//! * [`Simulator`] — an incremental synchronous stepper over any
//!   [`ctori_topology::Topology`] and any [`ctori_protocols::LocalRule`].
//!   After the first round only the *frontier* (last round's changed
//!   vertices and their out-neighbours) is re-evaluated, and torus runs
//!   of up to 16 colours whose rule has a
//!   [`ctori_protocols::ColorCountRule`] form are routed onto the
//!   bit-plane lane ([`planes::PlaneLane`]), which evaluates 64 vertices
//!   per word (one plane for one or two colours) straight from the
//!   torus's wrap rule.  The generic lane steps over the
//!   [`ctori_topology::Adjacency`] CSR kernel, which a torus simulator
//!   builds only when a lane or caller reads it.  Either lane runs a
//!   round as one pass on the calling thread, choosing a dense sweep or
//!   the sparse worklist per round;
//! * [`state`] — the [`state::StateVec`] backends behind the simulator
//!   (generic colour vector vs. bit planes);
//! * [`RunConfig`] / [`RunReport`] / [`Termination`] — run-to-convergence
//!   with fixed-point detection, optional cycle detection, optional
//!   monotonicity tracking and optional per-vertex recolouring times (the
//!   data behind Figures 5 and 6 and Theorems 7 and 8);
//! * [`trace`] — full configuration traces for figure rendering;
//! * [`metrics`] — per-round colour histograms and the step-timing /
//!   lane-choice counters behind `round-stats:` reporting;
//! * [`sweep`] — parallel parameter sweeps over many simulations using
//!   `std::thread::scope` workers with lock-free result collection: the
//!   engine's parallelism is across runs, never inside one round.
//!
//! # The declarative execution API
//!
//! Interactive callers drive a [`Simulator`] directly; everything else —
//! experiments, batch sweeps, and the `ctori-service` server — describes a
//! scenario as data and hands it to the runner:
//!
//! * [`spec`] — [`RunSpec`]: a plain-data scenario (topology + rule by
//!   registry name + seed + engine policy) with a human-readable text
//!   round-trip ([`RunSpec::to_text`] / [`RunSpec::from_text`]);
//! * [`runner`] — [`Runner::execute`] turns one spec into a
//!   [`RunOutcome`]; [`Runner::sweep`] fans a parameter grid out over the
//!   sweep thread pool;
//! * [`observe`] — [`Observer`] hooks ([`TraceObserver`],
//!   [`HistogramObserver`], or custom) receive a [`StepView`] after every
//!   round, replacing bespoke recording loops;
//! * [`exec`] — the backend-agnostic async-style surface above all of it:
//!   [`Executor::submit`] returns a [`JobHandle`] with `status`/`wait`/
//!   `cancel` and a polled stream of typed [`RunEvent`]s.  The
//!   [`LocalExecutor`] worker pool serves it in-process; `ctori-service`
//!   serves the same trait over TCP, so the same caller code moves from
//!   laptop to server unchanged.
//!
//! ```
//! use ctori_engine::{Runner, RunSpec, RuleSpec, SeedSpec, TopologySpec};
//! use ctori_coloring::Color;
//!
//! let spec = RunSpec::new(
//!     TopologySpec::toroidal_mesh(6, 6),
//!     RuleSpec::parse("smp").unwrap(),
//!     SeedSpec::checkerboard(Color::new(1), Color::new(2)),
//! );
//! let outcome = Runner::new().execute(&spec);
//! // A checkerboard flips entirely every round: a verified period-2 cycle.
//! assert_eq!(outcome.termination, ctori_engine::Termination::Cycle { period: 2 });
//! ```
//!
//! # Example
//!
//! ```
//! use ctori_topology::toroidal_mesh;
//! use ctori_coloring::{Color, ColoringBuilder};
//! use ctori_protocols::SmpProtocol;
//! use ctori_engine::{RunConfig, Simulator, Termination};
//!
//! // A 4x4 toroidal mesh, all colour 2 except a small patch of pairwise
//! // different colours: the patch is absorbed and the system converges to
//! // the 2-monochromatic configuration under the SMP protocol.
//! let torus = toroidal_mesh(4, 4);
//! let coloring = ColoringBuilder::filled(&torus, Color::new(2))
//!     .cell(1, 1, Color::new(1))
//!     .cell(1, 2, Color::new(3))
//!     .cell(2, 1, Color::new(4))
//!     .cell(2, 2, Color::new(5))
//!     .build();
//! let mut sim = Simulator::new(&torus, SmpProtocol, coloring);
//! let report = sim.run(&RunConfig::default());
//! assert_eq!(report.termination, Termination::Monochromatic(Color::new(2)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod exec;
mod frontier;
pub mod metrics;
#[cfg(feature = "naive-baseline")]
pub mod naive;
pub mod observe;
pub mod planes;
pub mod runner;
pub mod simulator;
pub mod spec;
pub mod state;
pub mod sweep;
pub mod telemetry;
pub mod trace;

pub use exec::{
    ExecError, Executor, JobControl, JobHandle, JobState, JobStatus, LocalExecutor,
    LocalExecutorConfig, OutcomeCache, PoolStats, Priority, RunEvent, SubmitOptions,
};
pub use metrics::{round_histogram, ColorHistogram, RoundStats, StepStats};
pub use observe::{HistogramObserver, NullObserver, Observer, StepView, TraceObserver};
pub use planes::PlaneLane;
pub use runner::{OutcomeParseError, RunOutcome, Runner};
pub use simulator::{RunConfig, RunReport, Simulator, StepReport, Termination};
pub use spec::{
    BuiltTopology, EngineOptions, LaneSpec, PatternSpec, RuleSpec, RunSpec, SeedSpec, SpecKey,
    SpecParseError, TopologySpec,
};
pub use state::StateVec;
pub use sweep::{default_threads, parallel_map, parallel_runs};
pub use telemetry::{HistogramSnapshot, JobTrace, MetricsSnapshot, Registry, SpanEvent, SpanKind};
pub use trace::{run_with_trace, RecoloringTimes, Trace};
