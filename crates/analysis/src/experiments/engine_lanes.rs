//! Experiment `lanes`: cross-checking the engine's simulation lanes.
//!
//! Not a figure of the paper — an engineering experiment guarding
//! incremental frontier stepping and the bit-plane lane.  For every torus
//! kind it describes the same bi-coloured prefer-black workload (the
//! paper's baseline rule, chosen because it is non-monotone, keeps the
//! frontier moving and exercises the lane's tie mask) as a [`RunSpec`]
//! and executes it under all three [`LaneSpec`] policies:
//!
//! * the **bit-plane lane** ([`LaneSpec::Auto`]: a degree-4 torus + a
//!   [`ctori_protocols::ColorCountRule`]-capable rule);
//! * the **generic frontier** ([`LaneSpec::GenericFrontier`]);
//! * the **full sweep** ([`LaneSpec::FullSweep`], the exhaustive
//!   reference stepper).
//!
//! The whole `(kind × size × lane)` grid fans out in **one**
//! [`Runner::sweep`] call, so the experiment also demonstrates the batch
//! layer parallelising a parameter grid.

use crate::experiment::{Experiment, ExperimentRecord, Mode};
use crate::table::Table;
use ctori_coloring::{Color, ColoringBuilder};
use ctori_engine::{
    EngineOptions, LaneSpec, RuleSpec, RunOutcome, RunSpec, Runner, SeedSpec, Termination,
    TopologySpec,
};
use ctori_topology::{Torus, TorusKind};

const LANES: [LaneSpec; 3] = [
    LaneSpec::Auto,
    LaneSpec::GenericFrontier,
    LaneSpec::FullSweep,
];

/// The bi-coloured prefer-black workload for one torus cell, as a spec:
/// a black square block (grows) plus a lone black vertex (is erased), so
/// both flip directions are exercised.
fn cell_spec(kind: TorusKind, size: usize, lane: LaneSpec) -> RunSpec {
    let torus = Torus::new(kind, size, size);
    let mut builder = ColoringBuilder::filled(&torus, Color::WHITE);
    for r in 1..=size / 3 {
        for c in 1..=size / 3 {
            builder = builder.cell(r, c, Color::BLACK);
        }
    }
    let coloring = builder.cell(size - 1, size - 1, Color::BLACK).build();
    RunSpec::new(
        TopologySpec::torus(kind, size, size),
        RuleSpec::parse("prefer-black").expect("registry rule"),
        SeedSpec::Explicit(coloring),
    )
    .with_options(EngineOptions::default().with_lane(lane))
}

/// Outcome of one size/kind cell, for all three lanes.
struct LaneOutcome {
    kind: TorusKind,
    size: usize,
    planes_selected: bool,
    agree: bool,
    termination: Termination,
    rounds: usize,
}

fn summarize(kind: TorusKind, size: usize, outcomes: &[RunOutcome]) -> LaneOutcome {
    let auto = &outcomes[0];
    let agree = outcomes.iter().skip(1).all(|o| {
        o.termination == auto.termination
            && o.rounds == auto.rounds
            && o.final_coloring == auto.final_coloring
            && !o.used_plane_lane
    });
    LaneOutcome {
        kind,
        size,
        planes_selected: auto.used_plane_lane,
        agree,
        termination: auto.termination,
        rounds: auto.rounds,
    }
}

/// `lanes`: engine lane equivalence sweep.
pub struct EngineLanes;

impl Experiment for EngineLanes {
    fn id(&self) -> &'static str {
        "lanes"
    }
    fn title(&self) -> &'static str {
        "Engine lanes: bit-plane, generic frontier and full sweep agree on every torus"
    }
    fn run(&self, mode: Mode) -> ExperimentRecord {
        let sizes: Vec<usize> = match mode {
            Mode::Quick => vec![6, 9],
            Mode::Full => vec![6, 9, 12, 16, 24, 32, 48],
        };
        let cells: Vec<(TorusKind, usize)> = TorusKind::ALL
            .into_iter()
            .flat_map(|kind| sizes.iter().map(move |&s| (kind, s)))
            .collect();
        // One flat (kind × size × lane) grid through the batch layer —
        // sweep takes the iterator directly, no intermediate grid Vec.
        let results =
            Runner::new().sweep(cells.iter().flat_map(|&(kind, size)| {
                LANES.iter().map(move |&lane| cell_spec(kind, size, lane))
            }));
        let outcomes: Vec<LaneOutcome> = cells
            .iter()
            .zip(results.chunks(LANES.len()))
            .map(|(&(kind, size), chunk)| summarize(kind, size, chunk))
            .collect();

        let mut table = Table::new(vec![
            "torus",
            "plane lane selected",
            "lanes agree",
            "termination",
            "rounds",
        ]);
        let mut passed = true;
        for o in &outcomes {
            passed &= o.agree && o.planes_selected;
            table.add_row(vec![
                format!("{} {}x{}", o.kind, o.size, o.size),
                o.planes_selected.to_string(),
                o.agree.to_string(),
                format!("{:?}", o.termination),
                o.rounds.to_string(),
            ]);
        }

        ExperimentRecord {
            id: self.id(),
            title: self.title(),
            paper_claim: "Engineering invariant (no paper claim): the incremental frontier \
                          scheduler and the bit-plane lane are exact optimisations of the \
                          synchronous full-sweep semantics."
                .into(),
            table,
            observations: vec![
                "the plane lane is auto-selected for every bi-coloured prefer-black run; all \
                 three data paths terminate identically with identical final configurations.  \
                 The whole (kind x size x lane) grid executes as one Runner::sweep batch."
                    .into(),
            ],
            passed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_quick_reproduces() {
        let record = EngineLanes.run(Mode::Quick);
        assert!(record.passed, "{}", record.render());
    }
}
