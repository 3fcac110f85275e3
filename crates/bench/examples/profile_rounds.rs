//! Round-by-round hybrid-lane profile on two canned workloads.
//!
//! For each synchronous round this prints the flip count, the one
//! dense/sparse decision the hybrid plane lane made (from
//! [`ctori_engine::StepStats`] deltas), and the per-round time of the
//! plane lane versus the two static generic references (incremental
//! frontier = all-sparse, full sweep = all-dense).  Two workloads make
//! both regimes visible:
//!
//! * **scatter** — a dense uniform 3-colour scatter on 1024²: nearly
//!   every vertex flips every round, so the hybrid stays on full tiled
//!   sweeps;
//! * **quiescing** — a mostly-monochromatic 1024² grid with a noisy
//!   patch: the frontier collapses within a few rounds and the hybrid
//!   hands off from dense sweeps to sparse worklist evaluation.
//!
//! At the end the example *asserts* that the hybrid never loses more
//! than 10% to the best static reference on either workload — the
//! crossover must be a free lunch, not a trade.
//!
//! ```text
//! cargo run --release -p ctori-bench --example profile_rounds
//! ```

use ctori_bench::multicolor_scatter;
use ctori_coloring::{Color, Coloring, ColoringBuilder};
use ctori_engine::Simulator;
use ctori_protocols::ThresholdRule;
use ctori_topology::{Torus, TorusKind};
use std::time::Instant;

/// Mostly colour 1 with a checkerboard patch of the activation colour:
/// the patch fills in over the first rounds (dense activity in its
/// rows), then the system quiesces and the flips collapse to the patch
/// boundary.
fn quiescing_patch(torus: &Torus, k: u16) -> Coloring {
    let mut builder = ColoringBuilder::filled(torus, Color::new(1));
    for r in 100..140 {
        for c in 0..torus.cols() {
            if (r + c) % 2 == 0 {
                builder = builder.cell(r, c, Color::new(k));
            } else if c % 7 == 0 {
                builder = builder.cell(r, c, Color::new(2));
            }
        }
    }
    builder.build()
}

/// Profiles one workload; returns (hybrid_total_s, best_static_total_s).
fn profile(name: &str, torus: &Torus, k: u16, coloring: Coloring, rounds: usize) -> (f64, f64) {
    let rule = ThresholdRule::new(Color::new(k), 2);
    let mut hybrid = Simulator::new(torus, rule, coloring.clone());
    assert!(hybrid.uses_plane_lane());
    let mut sparse = Simulator::new(torus, rule, coloring.clone()).with_generic_lane();
    let mut dense = Simulator::new(torus, rule, coloring)
        .with_generic_lane()
        .with_full_sweep();
    println!("== {name} (k={k}) ==");
    println!(
        "{:>5} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "round", "flips", "decision", "hybrid_us", "sparse_us", "dense_us"
    );
    let (mut hybrid_total, mut sparse_total, mut dense_total) = (0.0f64, 0.0f64, 0.0f64);
    for round in 0..rounds {
        let before = hybrid.step_stats();
        let t = Instant::now();
        let flips = hybrid.step().changed;
        let hybrid_us = t.elapsed().as_secs_f64() * 1e6;
        let after = hybrid.step_stats();
        let t = Instant::now();
        let sparse_flips = sparse.step().changed;
        let sparse_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let dense_flips = dense.step().changed;
        let dense_us = t.elapsed().as_secs_f64() * 1e6;
        assert_eq!(
            flips, sparse_flips,
            "{name}: lanes diverged at round {round}"
        );
        assert_eq!(
            flips, dense_flips,
            "{name}: lanes diverged at round {round}"
        );
        let decision = if after.dense_rounds > before.dense_rounds {
            "dense"
        } else {
            "sparse"
        };
        println!(
            "{round:>5} {flips:>9} {decision:>12} {hybrid_us:>12.0} {sparse_us:>12.0} \
             {dense_us:>12.0}"
        );
        hybrid_total += hybrid_us;
        sparse_total += sparse_us;
        dense_total += dense_us;
    }
    assert_eq!(
        hybrid.snapshot(),
        sparse.snapshot(),
        "{name}: lanes must agree on the final configuration"
    );
    (hybrid_total / 1e6, sparse_total.min(dense_total) / 1e6)
}

fn main() {
    let torus = Torus::new(TorusKind::ToroidalMesh, 1024, 1024);
    let cells = 1024 * 1024u64;
    let workloads = [
        profile(
            "scatter",
            &torus,
            3,
            multicolor_scatter(&torus, 3, 0x6 + cells),
            12,
        ),
        profile("quiescing", &torus, 5, quiescing_patch(&torus, 5), 16),
    ];
    for (name, (hybrid_s, best_static_s)) in ["scatter", "quiescing"].iter().zip(workloads) {
        println!(
            "{name}: hybrid {hybrid_s:.3}s vs best static reference {best_static_s:.3}s \
             ({:.1}x)",
            best_static_s / hybrid_s
        );
        assert!(
            hybrid_s <= 1.1 * best_static_s,
            "{name}: the hybrid lost more than 10% to the best static lane \
             ({hybrid_s:.3}s vs {best_static_s:.3}s)"
        );
    }
}
