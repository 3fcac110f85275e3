//! Cross-backend equivalence properties for the incremental engine.
//!
//! The simulator has three data paths that must be *exact* optimisations
//! of each other:
//!
//! * the bit-plane lane (auto-selected when a degree-4 torus run has at
//!   most 16 colours and the rule has a
//!   [`colored_tori::protocols::ColorCountRule`] form);
//! * the generic `Vec<Color>` backend with incremental frontier stepping;
//! * the generic backend with the exhaustive full sweep (the reference).
//!
//! These properties pin them together round for round on all three torus
//! kinds and every rule in the workspace, and pin the counter-based
//! `tss::diffusion::spread_on` to the synchronous re-scan reference
//! semantics.

use colored_tori::engine::{RunConfig, Simulator, Termination};
use colored_tori::prelude::*;
use colored_tori::protocols::{
    Irreversible, ReverseSimpleMajority, ReverseStrongMajority, SmpProtocol, ThresholdRule,
    TieBreak,
};
use colored_tori::topology::Graph;
use colored_tori::tss::diffusion::{spread, SpreadResult, Thresholds};
use colored_tori::tss::generators::{barabasi_albert, ring_lattice};
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

/// Every rule in the workspace, each with a counting form; boxed because
/// `Irreversible<SmpProtocol>` is its own type.
fn bicolor_rules() -> Vec<Box<dyn LocalRule>> {
    vec![
        Box::new(SmpProtocol),
        Box::new(ReverseSimpleMajority::new(TieBreak::PreferBlack)),
        Box::new(ReverseSimpleMajority::new(TieBreak::PreferCurrent)),
        Box::new(colored_tori::protocols::ReverseStrongMajority),
        Box::new(ThresholdRule::new(Color::BLACK, 2)),
        Box::new(Irreversible::new(SmpProtocol, Color::BLACK)),
    ]
}

/// A random white/black colouring with roughly `density`% black vertices.
fn bicolor_config(torus: &Torus, density: u8, seed: u64) -> Coloring {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = ColoringBuilder::filled(torus, Color::WHITE);
    for r in 0..torus.rows() {
        for c in 0..torus.cols() {
            if rng.gen_range(0..100usize) < density as usize {
                builder = builder.cell(r, c, Color::BLACK);
            }
        }
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plane lane ≡ generic frontier ≡ full sweep, round for round, for
    /// every rule on bi-coloured configurations of every torus kind.
    #[test]
    fn bicolor_plane_generic_and_full_sweep_agree_round_for_round(
        kind in torus_kind(),
        m in 3usize..=9,
        n in 3usize..=9,
        density in 5u8..=60,
        seed in any::<u64>(),
    ) {
        let torus = Torus::new(kind, m, n);
        let coloring = bicolor_config(&torus, density, seed);
        for rule in bicolor_rules() {
            let mut planes = Simulator::new(&torus, &*rule, coloring.clone());
            let mut generic =
                Simulator::new(&torus, &*rule, coloring.clone()).with_generic_lane();
            let mut sweep = Simulator::new(&torus, &*rule, coloring.clone())
                .with_generic_lane()
                .with_full_sweep();
            prop_assert!(
                planes.uses_plane_lane(),
                "{} did not select the plane lane", rule.name()
            );
            for round in 0..2 * (m + n) {
                let a = planes.step();
                let b = generic.step();
                let c = sweep.step();
                prop_assert_eq!(
                    a, b,
                    "planes vs generic reports diverge at round {} under {}", round, rule.name()
                );
                prop_assert_eq!(
                    b, c,
                    "generic vs full-sweep reports diverge at round {} under {}",
                    round, rule.name()
                );
                prop_assert_eq!(planes.snapshot(), generic.snapshot());
                prop_assert_eq!(generic.snapshot(), sweep.snapshot());
            }
        }
    }
}

/// A random colouring over palette `1..=k`.
fn multicolor_config(torus: &Torus, k: u16, seed: u64) -> Coloring {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = ColoringBuilder::filled(torus, Color::new(1));
    for r in 0..torus.rows() {
        for c in 0..torus.cols() {
            builder = builder.cell(r, c, Color::new(rng.gen_range(1..=k)));
        }
    }
    builder.build()
}

/// Every rule in the workspace with a per-colour counting form —
/// including the strong majority (the only `min_pair = 3` plurality),
/// prefer-current (plurality behind a tie-break enum) and prefer-black
/// (the tie mask), so all compiled plane-kernel decision arms are pinned.
fn counting_rules(k: u16) -> Vec<Box<dyn LocalRule>> {
    vec![
        Box::new(SmpProtocol),
        Box::new(ReverseSimpleMajority::prefer_current()),
        Box::new(ReverseSimpleMajority::prefer_black()),
        Box::new(ReverseStrongMajority),
        Box::new(ThresholdRule::new(Color::new(k), 2)),
        Box::new(Irreversible::new(SmpProtocol, Color::new(1))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Plane lane ≡ generic frontier ≡ full sweep, round for round, for
    /// every counting-capable rule on every torus kind and palettes of 2
    /// to 16 colours (one to four planes) — including column counts
    /// around the 64-bit word boundary, so wrap-edge tiles and tail words
    /// are exercised.
    #[test]
    fn plane_generic_and_full_sweep_agree_round_for_round(
        kind in torus_kind(),
        m in 3usize..=8,
        n in prop_oneof![3usize..=9, 60usize..=70],
        k in 2u16..=16,
        seed in any::<u64>(),
    ) {
        let torus = Torus::new(kind, m, n);
        let coloring = multicolor_config(&torus, k, seed);
        for rule in counting_rules(k) {
            let mut planes = Simulator::new(&torus, &*rule, coloring.clone());
            let mut generic =
                Simulator::new(&torus, &*rule, coloring.clone()).with_generic_lane();
            let mut sweep = Simulator::new(&torus, &*rule, coloring.clone())
                .with_generic_lane()
                .with_full_sweep();
            prop_assert!(
                planes.uses_plane_lane(),
                "{} did not select the plane lane", rule.name()
            );
            for round in 0..m + n {
                let a = planes.step();
                let b = generic.step();
                let c = sweep.step();
                prop_assert_eq!(
                    a, b,
                    "planes vs generic reports diverge at round {} under {}",
                    round, rule.name()
                );
                prop_assert_eq!(
                    b, c,
                    "generic vs full-sweep reports diverge at round {} under {}",
                    round, rule.name()
                );
                prop_assert_eq!(planes.snapshot(), generic.snapshot());
                prop_assert_eq!(generic.snapshot(), sweep.snapshot());
            }
        }
    }
}

/// Runs `rule` from `coloring` on the plane lane and the generic lane
/// and asserts identical reports and final states.  With `degenerate`
/// the plane lane's hash collides on every round, so only replay
/// verification separates repeats from collisions there.
fn assert_runs_agree(
    torus: &Torus,
    rule: &dyn LocalRule,
    coloring: &Coloring,
    config: &RunConfig,
    degenerate: bool,
) -> Termination {
    let name = rule.name();
    let mut planes = Simulator::new(torus, rule, coloring.clone());
    assert!(planes.uses_plane_lane(), "{name} left the plane lane");
    if degenerate {
        planes.force_degenerate_hash();
    }
    let a = planes.run(config);
    let mut generic = Simulator::new(torus, rule, coloring.clone()).with_generic_lane();
    let b = generic.run(config);
    let context = format!("{name} on {torus:?} (degenerate hash: {degenerate})");
    assert_eq!(a.termination, b.termination, "{context}");
    assert_eq!(a.rounds, b.rounds, "{context}");
    assert_eq!(a.monotone, b.monotone, "{context}");
    assert_eq!(a.recoloring_times, b.recoloring_times, "{context}");
    assert_eq!(a.final_target_count, b.final_target_count, "{context}");
    assert_eq!(planes.snapshot(), generic.snapshot(), "{context}");
    a.termination
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lanes also agree through `run` — same termination (limit-cycle
    /// periods included), same round count, same tracking output.  Every
    /// case first runs every rule on a two-colour torus 3 to 8 cells wide
    /// under the default round limit; it then runs every counting rule on
    /// a palette of 2 to 16 colours (one to four planes), on tori narrow
    /// enough to put several rows in a word or wide enough for fast, wrap
    /// and slow words.  This pins the plane lane's per-plane-word cycle
    /// hash against the generic lane's per-vertex one, its per-round
    /// monochromatic test from plane counts against the generic census,
    /// and the final target count it counts off its planes; a quarter of
    /// the cases rerun the plane lane with a degenerate hash.
    #[test]
    fn run_reports_agree_across_lanes(
        kind in torus_kind(),
        m in 3usize..=8,
        narrow in 3usize..=8,
        n in prop_oneof![3usize..=8, 60usize..=70],
        k in 2u16..=16,
        density in 5u8..=60,
        seed in any::<u64>(),
        degenerate in 0u8..4,
    ) {
        let torus = Torus::new(kind, m, narrow);
        let coloring = bicolor_config(&torus, density, seed);
        let config = RunConfig::for_dynamo(Color::BLACK);
        for rule in bicolor_rules() {
            assert_runs_agree(&torus, &*rule, &coloring, &config, false);
        }

        let torus = Torus::new(kind, m, n);
        // Two colours: a sparse seed spreading through a background, as
        // in the paper's dynamos; more colours: a uniform scatter.
        let coloring = if k == 2 {
            bicolor_config(&torus, density, seed)
        } else {
            multicolor_config(&torus, k, seed)
        };
        let config = RunConfig::for_dynamo(Color::new(k)).with_max_rounds(96);
        for rule in counting_rules(k) {
            assert_runs_agree(&torus, &*rule, &coloring, &config, false);
            if degenerate == 0 {
                assert_runs_agree(&torus, &*rule, &coloring, &config, true);
            }
        }
    }
}

/// Limit cycles end runs identically on both lanes, with the real and the
/// degenerate hash: a period-2 checkerboard blinker, alone and with a
/// block of a third colour cut into it (so the plane lane carries two
/// planes), on widths that give fast, wrap and slow words.
#[test]
fn cycle_periods_agree_across_lanes() {
    for (kind, m, n) in [
        (TorusKind::ToroidalMesh, 4, 64),
        (TorusKind::ToroidalMesh, 6, 66),
        (TorusKind::TorusCordalis, 8, 68),
    ] {
        let torus = Torus::new(kind, m, n);
        let board =
            colored_tori::coloring::patterns::checkerboard(&torus, Color::new(1), Color::new(2));
        let mut blocked = board.clone();
        for r in 0..2 {
            for c in 0..3 {
                blocked.set_at(r, c, Color::new(3));
            }
        }
        for coloring in [board, blocked] {
            for degenerate in [false, true] {
                let rule = SmpProtocol;
                let termination =
                    assert_runs_agree(&torus, &rule, &coloring, &RunConfig::default(), degenerate);
                assert!(
                    matches!(termination, Termination::Cycle { .. }),
                    "{kind:?} {m}x{n}: expected a limit cycle, got {termination:?}"
                );
            }
        }
    }
}

/// Mostly colour 1 with a noisy stripe and scattered noise: the run
/// starts dense and quiesces, so the per-band dense/sparse hybrid is
/// driven from full sweeps into sparse worklists over the run.
fn quiescing_config(torus: &Torus, k: u16, seed: u64) -> Coloring {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = ColoringBuilder::filled(torus, Color::new(1));
    let stripe = torus.rows() / 2;
    for r in 0..torus.rows() {
        for c in 0..torus.cols() {
            let noisy = r == stripe || r == (stripe + 1) % torus.rows();
            if noisy || rng.gen_range(0..100usize) < 5 {
                builder = builder.cell(r, c, Color::new(rng.gen_range(1..=k)));
            }
        }
    }
    builder.build()
}

/// Thread counts under test: the fixed spread plus whatever
/// `CTORI_TEST_THREADS` asks for (CI runs the suite once with 4).
fn thread_counts() -> impl Strategy<Value = usize> {
    let mut counts = vec![1usize, 2, 3, 8];
    if let Some(n) = std::env::var("CTORI_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        counts.push(n.max(1));
    }
    (0..counts.len()).prop_map(move |i| counts[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Band-parallel stepping is bit-identical to sequential stepping on
    /// every lane: the plane lane and the generic frontier agree with
    /// their single-threaded twins round for round at every thread count,
    /// across a run that crosses the dense→sparse hybrid handoff.
    #[test]
    fn parallel_stepping_matches_sequential_on_every_lane(
        kind in torus_kind(),
        m in 4usize..=8,
        n in 60usize..=70,
        k in prop_oneof![Just(2u16), Just(3), Just(5), Just(8)],
        threads in thread_counts(),
        seed in any::<u64>(),
    ) {
        let torus = Torus::new(kind, m, n);
        let coloring = quiescing_config(&torus, k, seed);
        let mut fast_seq = Simulator::new(&torus, SmpProtocol, coloring.clone());
        let mut fast_par =
            Simulator::new(&torus, SmpProtocol, coloring.clone()).with_step_threads(threads);
        let mut gen_seq =
            Simulator::new(&torus, SmpProtocol, coloring.clone()).with_generic_lane();
        let mut gen_par = Simulator::new(&torus, SmpProtocol, coloring)
            .with_generic_lane()
            .with_step_threads(threads);
        for round in 0..24 {
            let a = fast_seq.step();
            let b = fast_par.step();
            let c = gen_seq.step();
            let d = gen_par.step();
            prop_assert_eq!(
                a, b,
                "fast lane diverges with {} threads at round {} (k={})", threads, round, k
            );
            prop_assert_eq!(
                c, d,
                "generic lane diverges with {} threads at round {} (k={})", threads, round, k
            );
            prop_assert_eq!(a, c, "lanes diverge at round {} (k={})", round, k);
            prop_assert_eq!(fast_seq.snapshot(), fast_par.snapshot());
            prop_assert_eq!(gen_seq.snapshot(), gen_par.snapshot());
            prop_assert_eq!(fast_par.snapshot(), gen_par.snapshot());
            if a.changed == 0 {
                break;
            }
        }
    }
}

/// The runner resolves spec thread counts without ever changing a
/// result: same outcome, same canonical key, and the `round-stats:`
/// observability line round-trips through the text form (and is
/// tolerated when absent, for outcomes recorded before it existed).
#[test]
fn runner_honours_spec_thread_counts() {
    use colored_tori::engine::{
        EngineOptions, RuleSpec, RunOutcome, RunSpec, Runner, SeedSpec, TopologySpec,
    };
    let n: usize = std::env::var("CTORI_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let n = n.max(2);
    let base = RunSpec::new(
        TopologySpec::toroidal_mesh(12, 66),
        RuleSpec::parse("smp").unwrap(),
        SeedSpec::nodes(Color::new(1), Color::new(2), [3, 40, 200, 477]),
    );
    let threaded = base
        .clone()
        .with_options(EngineOptions::default().with_threads(n));
    assert_eq!(
        base.canonical_key(),
        threaded.canonical_key(),
        "threads are excluded from the canonical key"
    );
    let seq = Runner::with_threads(1).execute(&base);
    let par = Runner::with_threads(n).execute(&threaded);
    assert_eq!(seq, par, "outcomes are thread-count independent");
    let stats = par.round_stats.expect("fresh runs carry stats");
    assert_eq!(stats.threads as usize, n);
    assert_eq!(seq.round_stats.expect("fresh runs carry stats").threads, 1);
    let text = par.to_text();
    let parsed = RunOutcome::from_text(&text).unwrap();
    assert_eq!(parsed.round_stats, par.round_stats, "stats round-trip");
    let legacy: String = text
        .lines()
        .filter(|l| !l.starts_with("round-stats:"))
        .map(|l| format!("{l}\n"))
        .collect();
    let old = RunOutcome::from_text(&legacy).unwrap();
    assert!(old.round_stats.is_none(), "pre-stats outcomes still parse");
    assert_eq!(old, par, "stats never participate in outcome equality");
}

/// The synchronous re-scan reference implementation `spread_on` must agree
/// with, round for round (the pre-refactor hand-rolled frontier obeyed the
/// same contract).
fn spread_reference(graph: &Graph, thresholds: &Thresholds, seeds: &[NodeId]) -> SpreadResult {
    let n = graph.node_count();
    let mut active = vec![false; n];
    let mut activation_round = vec![None; n];
    for &s in seeds {
        active[s.index()] = true;
        activation_round[s.index()] = Some(0);
    }
    let mut round = 0usize;
    loop {
        let mut newly: Vec<usize> = Vec::new();
        for v in 0..n {
            if active[v] {
                continue;
            }
            let active_nbrs = graph
                .neighbors_slice(NodeId::new(v))
                .iter()
                .filter(|u| active[u.index()])
                .count();
            if active_nbrs >= thresholds[v] {
                newly.push(v);
            }
        }
        if newly.is_empty() {
            break;
        }
        round += 1;
        for v in newly {
            active[v] = true;
            activation_round[v] = Some(round);
        }
    }
    let activated_count = active.iter().filter(|&&a| a).count();
    SpreadResult {
        activated_count,
        rounds: round,
        complete: activated_count == n,
        activation_round,
    }
}

fn random_graph(family: u8, nodes: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 3 {
        0 => barabasi_albert(nodes.max(8), 3, &mut rng),
        1 => ring_lattice(nodes.max(8), 2),
        _ => {
            let nodes = nodes.max(8);
            let mut g = Graph::with_nodes(nodes);
            for v in 1..nodes {
                g.add_edge(NodeId::new(v - 1), NodeId::new(v));
            }
            for _ in 0..nodes {
                let u = rng.gen_range(0..nodes);
                let v = rng.gen_range(0..nodes);
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v));
                }
            }
            g
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine-lane `spread_on` is the synchronous re-scan process:
    /// identical activation sets, rounds and per-vertex activation rounds,
    /// including zero thresholds (self-activation in round 1).
    #[test]
    fn spread_on_matches_rescan_reference(
        family in 0u8..3,
        nodes in 8usize..60,
        seed in any::<u64>(),
        threshold in 0usize..4,
        seed_count in 0usize..6,
    ) {
        let graph = random_graph(family, nodes, seed);
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let seeds: Vec<NodeId> = (0..seed_count.min(n))
            .map(|_| NodeId::new(rng.gen_range(0..n)))
            .collect();
        let thresholds = vec![threshold; n];
        prop_assert_eq!(
            spread(&graph, &thresholds, &seeds),
            spread_reference(&graph, &thresholds, &seeds)
        );
    }
}
