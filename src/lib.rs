//! # colored-tori
//!
//! Facade crate for the *Dynamic Monopolies in Colored Tori* reproduction
//! (Brunetti, Lodi & Quattrociocchi, IPPS 2011).
//!
//! The workspace is split into focused crates; this facade re-exports them
//! under stable module names so applications can depend on a single crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`topology`]  | `ctori-topology`  | toroidal mesh, torus cordalis, torus serpentinus, general graphs |
//! | [`coloring`]  | `ctori-coloring`  | colours, palettes, colourings, patterns, rendering |
//! | [`protocols`] | `ctori-protocols` | SMP-Protocol and the bi-coloured majority baselines |
//! | [`engine`]    | `ctori-engine`    | synchronous simulator, the declarative `RunSpec`/`Runner`/`Observer` API, the `Executor`/`JobHandle` surface with its local worker pool, traces, parallel sweeps |
//! | [`dynamo`]    | `ctori-core`      | blocks, dynamos, bounds, constructions, round formulas, search, figures |
//! | [`tss`]       | `ctori-tss`       | target set selection on general graphs, random graph generators |
//! | [`service`]   | `ctori-service`   | batch simulation service: TCP front-end over the engine's worker pool, spec-hash result cache, the remote `Executor` backend |
//! | [`fleet`]     | `ctori-fleet`     | sharded multi-backend coordinator: consistent-hash routing, health probes, sweep work stealing, fleet-wide stats |
//! | [`analysis`]  | `ctori-analysis`  | the per-figure / per-theorem experiment harness |
//!
//! # Quick start
//!
//! ```
//! use colored_tori::prelude::*;
//!
//! // Build the paper's minimum-size monotone dynamo on a 9x9 toroidal mesh
//! // (Theorem 2 / Figure 2) and verify it by simulation.
//! let k = Color::new(1);
//! let built = theorem2_dynamo(9, 9, k).expect("constructible");
//! assert_eq!(built.seed_size(), 9 + 9 - 2);
//!
//! let report = verify_dynamo(built.torus(), built.coloring(), k);
//! assert!(report.is_monotone_dynamo());
//! assert_eq!(report.rounds, 8);
//!
//! // Any scenario can equally be described as plain data and handed to
//! // the engine's Runner — the declarative path batch sweeps build on:
//! let spec = RunSpec::new(
//!     TopologySpec::toroidal_mesh(9, 9),
//!     RuleSpec::parse("smp").unwrap(),
//!     SeedSpec::Explicit(built.coloring().clone()),
//! )
//! .for_dynamo(k);
//! let outcome = Runner::new().execute(&spec);
//! assert!(outcome.reached_monochromatic(k));
//! assert_eq!(outcome.rounds, 8);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

/// Torus topologies and general graphs (re-export of `ctori-topology`).
pub mod topology {
    pub use ctori_topology::*;
}

/// Colours, palettes and colourings (re-export of `ctori-coloring`).
pub mod coloring {
    pub use ctori_coloring::*;
}

/// Local recolouring rules (re-export of `ctori-protocols`).
pub mod protocols {
    pub use ctori_protocols::*;
}

/// The synchronous simulation engine (re-export of `ctori-engine`).
pub mod engine {
    pub use ctori_engine::*;
}

/// Dynamos, bounds, constructions and figures (re-export of `ctori-core`).
pub mod dynamo {
    pub use ctori_core::*;
}

/// Target set selection substrate (re-export of `ctori-tss`).
pub mod tss {
    pub use ctori_tss::*;
}

/// The batch simulation service (re-export of `ctori-service`).
pub mod service {
    pub use ctori_service::*;
}

/// The sharded multi-backend coordinator (re-export of `ctori-fleet`).
pub mod fleet {
    pub use ctori_fleet::*;
}

/// The experiment harness (re-export of `ctori-analysis`).
pub mod analysis {
    pub use ctori_analysis::*;
}

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use ctori_coloring::{Color, Coloring, ColoringBuilder, Palette};
    pub use ctori_core::bounds::lower_bound;
    pub use ctori_core::construct::cordalis::theorem4_dynamo;
    pub use ctori_core::construct::mesh::theorem2_dynamo;
    pub use ctori_core::construct::minimum_dynamo;
    pub use ctori_core::construct::serpentinus::theorem6_dynamo;
    pub use ctori_core::dynamo::{verify_dynamo, DynamoReport};
    pub use ctori_core::rounds::{theorem7_rounds, theorem8_rounds};
    pub use ctori_engine::{
        EngineOptions, ExecError, Executor, JobHandle, JobTrace, LaneSpec, LocalExecutor,
        LocalExecutorConfig, MetricsSnapshot, Observer, Registry, RuleSpec, RunConfig, RunEvent,
        RunOutcome, RunSpec, Runner, SeedSpec, Simulator, SpanKind, StepView, SubmitOptions,
        Termination, TopologySpec, TraceObserver,
    };
    pub use ctori_fleet::{FleetConfig, FleetExecutor};
    pub use ctori_protocols::{AnyRule, LocalRule, SmpProtocol};
    pub use ctori_service::RemoteExecutor;
    pub use ctori_topology::{
        toroidal_mesh, torus_cordalis, torus_serpentinus, Coord, NodeId, Topology, Torus, TorusKind,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_modules_are_wired_together() {
        let torus = toroidal_mesh(6, 6);
        let k = Color::new(2);
        let built = minimum_dynamo(TorusKind::ToroidalMesh, 6, 6, k).unwrap();
        assert_eq!(
            built.seed_size(),
            lower_bound(TorusKind::ToroidalMesh, 6, 6)
        );
        let report = verify_dynamo(&torus, built.coloring(), k);
        assert!(report.is_monotone_dynamo());
    }
}
