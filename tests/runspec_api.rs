//! Properties of the declarative `RunSpec` / `Runner` execution API.
//!
//! Two contracts are pinned here:
//!
//! * **text round-trip** — `RunSpec::to_text` followed by
//!   `RunSpec::from_text` yields an *identical* spec, and executing the
//!   reparsed spec reproduces the *identical* outcome (the property a
//!   batch/service layer depends on: a stored scenario is the scenario);
//! * **runner ≡ simulator** — `Runner::execute` on a spec produces exactly
//!   the report a hand-built `Simulator::run` produces for the same
//!   torus, rule and initial configuration, on all three torus kinds;
//! * **content addressing** — `RunSpec::canonical_key` is invariant under
//!   the text round-trip (the service cache contract: the key a client
//!   computes locally addresses the same cache slot server-side), and
//!   `RunOutcome::from_text(to_text(o)) == o` (an outcome survives the
//!   service wire protocol byte-for-byte).

use colored_tori::engine::spec::PatternSpec;
use colored_tori::engine::{EngineOptions, LaneSpec, RunConfig, Simulator};
use colored_tori::prelude::*;
use colored_tori::protocols::registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn torus_kind() -> impl Strategy<Value = TorusKind> {
    prop_oneof![
        Just(TorusKind::ToroidalMesh),
        Just(TorusKind::TorusCordalis),
        Just(TorusKind::TorusSerpentinus),
    ]
}

fn rule_text() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("smp"),
        Just("prefer-black"),
        Just("prefer-current"),
        Just("strong-majority"),
        Just("threshold(2,2)"),
        Just("irreversible-smp(2)"),
    ]
}

/// A random (but plain-data) seed spec for an `m × n` grid.
fn seed_spec(m: usize, n: usize) -> impl Strategy<Value = SeedSpec> {
    let c = Color::new;
    let nodes = proptest::collection::vec(0..(m * n) as u32, 0..8).prop_map(|mut nodes| {
        nodes.sort_unstable();
        nodes.dedup();
        SeedSpec::Nodes {
            color: Color::BLACK,
            background: Color::WHITE,
            nodes,
        }
    });
    let pattern = prop_oneof![
        Just(SeedSpec::Pattern(PatternSpec::Checkerboard(c(1), c(2)))),
        Just(SeedSpec::Pattern(PatternSpec::ColumnStripes(vec![
            c(1),
            c(2),
            c(3)
        ]))),
        Just(SeedSpec::Pattern(PatternSpec::RowStripes(vec![c(2), c(4)]))),
        Just(SeedSpec::uniform(c(2))),
    ];
    let density =
        (0u64..1_000_000, 0u32..=100).prop_map(move |(rng_seed, percent)| SeedSpec::Density {
            color: c(1),
            palette: 4,
            fraction: f64::from(percent) / 100.0,
            rng_seed,
        });
    prop_oneof![nodes, pattern, density]
}

fn options() -> impl Strategy<Value = EngineOptions> {
    (
        prop_oneof![
            Just(LaneSpec::Auto),
            Just(LaneSpec::GenericFrontier),
            Just(LaneSpec::FullSweep)
        ],
        any::<bool>(),
        0usize..50,
        any::<bool>(),
    )
        .prop_map(|(lane, detect_cycles, max_rounds, track)| EngineOptions {
            lane,
            detect_cycles,
            max_rounds,
            threads: 0,
            progress_every: 0,
            track_times_for: track.then_some(Color::BLACK),
            check_monotone_for: track.then_some(Color::BLACK),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// format → parse → identical spec AND identical outcome.
    #[test]
    fn spec_text_round_trip_reproduces_the_outcome(
        kind in torus_kind(),
        m in 3usize..=7,
        n in 3usize..=7,
        rule in rule_text(),
        opts in options(),
        seed in seed_spec(7, 7),
    ) {
        // Clamp node-list seeds to the actual grid.
        let seed = match seed {
            SeedSpec::Nodes { color, background, nodes } => SeedSpec::Nodes {
                color,
                background,
                nodes: nodes.into_iter().filter(|&v| (v as usize) < m * n).collect(),
            },
            other => other,
        };
        let spec = RunSpec::new(
            TopologySpec::torus(kind, m, n),
            RuleSpec::parse(rule).unwrap(),
            seed,
        )
        .with_options(opts);

        let text = spec.to_text();
        let reparsed = RunSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(&reparsed, &spec, "text round-trip must be the identity\n{}", text);
        prop_assert_eq!(
            reparsed.canonical_key(),
            spec.canonical_key(),
            "canonical_key must be invariant under the text round-trip\n{}",
            text
        );

        let runner = Runner::with_threads(1);
        let a = runner.execute(&spec);
        let b = runner.execute(&reparsed);
        prop_assert_eq!(a.termination, b.termination);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(&a.final_coloring, &b.final_coloring);
        prop_assert_eq!(&a.recoloring_times, &b.recoloring_times);
        prop_assert_eq!(a.monotone, b.monotone);
        prop_assert_eq!(a.used_plane_lane, b.used_plane_lane);

        // The outcome itself round-trips through its text form, exactly —
        // the property the service RESULT verb depends on.
        let outcome_text = a.to_text();
        let rebuilt = RunOutcome::from_text(&outcome_text)
            .unwrap_or_else(|e| panic!("outcome reparse failed: {e}\n{outcome_text}"));
        prop_assert_eq!(rebuilt, a, "outcome text round-trip must be the identity");
    }

    /// `Runner::execute` ≡ hand-built `Simulator::run` on all three torus
    /// kinds: same termination, rounds, tracking output and final state.
    #[test]
    fn runner_matches_hand_built_simulator(
        kind in torus_kind(),
        m in 3usize..=8,
        n in 3usize..=8,
        density in 5u8..=70,
        config_seed in any::<u64>(),
        rule in rule_text(),
        track in any::<bool>(),
    ) {
        let torus = Torus::new(kind, m, n);
        let mut rng = StdRng::seed_from_u64(config_seed);
        let mut builder = ColoringBuilder::filled(&torus, Color::WHITE);
        for r in 0..m {
            for c in 0..n {
                if rng.gen_range(0..100u8) < density {
                    builder = builder.cell(r, c, Color::BLACK);
                }
            }
        }
        let coloring = builder.build();

        let options = if track {
            EngineOptions::for_dynamo(Color::BLACK)
        } else {
            EngineOptions::default()
        };
        let spec = RunSpec::new(
            TopologySpec::torus(kind, m, n),
            RuleSpec::parse(rule).unwrap(),
            SeedSpec::Explicit(coloring.clone()),
        )
        .with_options(options);
        let outcome = Runner::with_threads(1).execute(&spec);

        let config = RunConfig {
            max_rounds: 0,
            detect_cycles: true,
            track_times_for: track.then_some(Color::BLACK),
            check_monotone_for: track.then_some(Color::BLACK),
        };
        let mut sim = Simulator::new(&torus, registry::parse(rule).unwrap(), coloring);
        let report = sim.run(&config);

        prop_assert_eq!(outcome.termination, report.termination);
        prop_assert_eq!(outcome.rounds, report.rounds);
        prop_assert_eq!(outcome.recoloring_times, report.recoloring_times);
        prop_assert_eq!(outcome.monotone, report.monotone);
        prop_assert_eq!(outcome.final_target_count, report.final_target_count);
        prop_assert_eq!(outcome.final_coloring, sim.coloring());
        prop_assert_eq!(outcome.used_plane_lane, sim.uses_plane_lane());
    }
}

/// A spot check that the sweep path and the single-execute path agree (the
/// parallel batch introduces no nondeterminism).
#[test]
fn sweep_agrees_with_execute() {
    let grid: Vec<RunSpec> = TorusKind::ALL
        .into_iter()
        .flat_map(|kind| {
            [0.2f64, 0.5].into_iter().map(move |fraction| {
                RunSpec::new(
                    TopologySpec::torus(kind, 6, 6),
                    RuleSpec::parse("smp").unwrap(),
                    SeedSpec::Density {
                        color: Color::new(1),
                        palette: 4,
                        fraction,
                        rng_seed: 7,
                    },
                )
            })
        })
        .collect();
    // An explicit thread budget so the batch genuinely fans out even on
    // single-core machines.
    let parallel = Runner::with_threads(4).sweep(grid.clone());
    for (spec, outcome) in grid.iter().zip(&parallel) {
        let single = Runner::with_threads(1).execute(spec);
        assert_eq!(single.termination, outcome.termination);
        assert_eq!(single.rounds, outcome.rounds);
        assert_eq!(single.final_coloring, outcome.final_coloring);
    }
}
