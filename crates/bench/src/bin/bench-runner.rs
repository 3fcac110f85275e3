//! The kernel-grid recorder: measures plane-lane and generic-frontier
//! throughput over a fixed (torus kind × size × palette) grid and writes
//! the result as `BENCH_<pr>.json`.
//!
//! Unlike the Criterion benches (interactive, statistical), this binary
//! produces one machine-readable artefact so kernel throughput history is
//! diffable.  Every grid point times both lanes on one thread, the only
//! way a run steps, and records the plane lane's speedup over the generic
//! frontier.  CI re-emits a quick-mode file on every push to catch silent
//! regressions (Mcell/s must stay positive and the grid complete;
//! absolute numbers are informational because runner hardware varies).
//!
//! ```text
//! bench-runner [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the grid to 128×128 with fewer rounds (CI smoke);
//! the default full grid is 1024² and 4096² so the cache-tiled traversal
//! is exercised on a torus that does not fit in L2.  Every measurement
//! checks lane equivalence (identical snapshots after the timed rounds)
//! before recording, so the artefact cannot contain numbers from a
//! diverged kernel.
//!
//! With `CTORI_BENCH_ASSERT_SPEEDUP=1` the run *asserts* the headline
//! ratio (≥ 8× over the generic frontier on 1024² k=8); without it, a
//! shortfall is a warning, because CI and laptop hardware vary.

use ctori_bench::multicolor_scatter;
use ctori_coloring::Color;
use ctori_engine::Simulator;
use ctori_protocols::ThresholdRule;
use ctori_topology::{Torus, TorusKind};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The PR number this artefact belongs to (the perf-trajectory index).
const PR: u32 = 10;

/// One measured grid point: the plane lane against the generic frontier
/// on the same workload.
struct Sample {
    kind: TorusKind,
    size: usize,
    palette: u16,
    planes_mcells: f64,
    generic_mcells: f64,
}

impl Sample {
    fn speedup_vs_generic(&self) -> f64 {
        self.planes_mcells / self.generic_mcells
    }
}

/// The registry name of a torus kind (`toroidal-mesh`, …).
fn kind_key(kind: TorusKind) -> &'static str {
    match kind {
        TorusKind::ToroidalMesh => "toroidal-mesh",
        TorusKind::TorusCordalis => "torus-cordalis",
        TorusKind::TorusSerpentinus => "torus-serpentinus",
        other => unreachable!("unknown torus kind {other:?}"),
    }
}

/// Times `rounds` synchronous rounds from the cold post-construction
/// state and returns Mcell/s.  No untimed warm round: each lane pays its
/// own first-round setup (frontier seeding, the plane lane's full first
/// sweep), so the figure is the end-to-end cost of advancing the workload
/// `rounds` rounds.
fn time_lane(mut sim: Simulator<ThresholdRule>, rounds: u32, cells: usize) -> (f64, Vec<Color>) {
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(sim.step());
    }
    let elapsed = start.elapsed();
    let mcells = cells as f64 * f64::from(rounds) / elapsed.as_secs_f64() / 1e6;
    (mcells, sim.snapshot())
}

/// Measures one (kind, size, palette) workload on both lanes.  An exact
/// equivalence check gates the recorded numbers.
fn measure(kind: TorusKind, size: usize, palette: u16, rounds: u32) -> Sample {
    let torus = Torus::new(kind, size, size);
    let cells = size * size;
    // Threshold-2 activation of the highest palette colour over a dense
    // uniform scatter: nearly every vertex stays a flip candidate for the
    // whole measurement, the same workload as `bench_planes`.
    let rule = ThresholdRule::new(Color::new(palette), 2);
    let coloring = multicolor_scatter(&torus, palette, 0x6 + cells as u64);

    let planes_sim = Simulator::new(&torus, rule, coloring.clone());
    assert!(
        planes_sim.uses_plane_lane(),
        "{} {size}x{size} k={palette}: plane lane not selected",
        kind_key(kind)
    );
    let (planes_mcells, planes_snap) = time_lane(planes_sim, rounds, cells);

    let generic_sim = Simulator::new(&torus, rule, coloring).with_generic_lane();
    let (generic_mcells, generic_snap) = time_lane(generic_sim, rounds, cells);

    assert_eq!(
        planes_snap,
        generic_snap,
        "{} {size}x{size} k={palette}: lanes diverged",
        kind_key(kind)
    );
    Sample {
        kind,
        size,
        palette,
        planes_mcells,
        generic_mcells,
    }
}

/// Renders the samples as the `BENCH_<pr>.json` document.
fn render(samples: &[Sample], mode: &str, rounds: u32) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"planes_vs_generic\",");
    let _ = writeln!(out, "  \"pr\": {PR},");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"rule\": \"threshold(palette,2)\",");
    let _ = writeln!(out, "  \"rounds\": {rounds},");
    let _ = writeln!(out, "  \"unit\": \"Mcell/s\",");
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kind\": \"{}\", \"size\": {}, \"palette\": {}, \
             \"planes_mcells\": {:.1}, \"generic_mcells\": {:.1}, \"speedup\": {:.1}}}",
            kind_key(s.kind),
            s.size,
            s.palette,
            s.planes_mcells,
            s.generic_mcells,
            s.speedup_vs_generic(),
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The headline gate: ≥ 8× over the generic frontier on 1024² k=8.  A
/// hard assertion only under `CTORI_BENCH_ASSERT_SPEEDUP`; a warning
/// otherwise.
fn check_headlines(samples: &[Sample]) {
    let assert_hard = std::env::var("CTORI_BENCH_ASSERT_SPEEDUP").is_ok();
    for s in samples {
        if s.size == 1024 && s.palette == 8 && s.speedup_vs_generic() < 8.0 {
            let complaint = format!(
                "{} 1024x1024 k=8: {:.1}x over generic < 8x",
                kind_key(s.kind),
                s.speedup_vs_generic()
            );
            if assert_hard {
                panic!("headline perf gate failed: {complaint}");
            }
            eprintln!("warning: {complaint}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{PR}.json"));

    let (sizes, rounds, mode): (&[usize], u32, &str) = if quick {
        (&[128], 4, "quick")
    } else {
        (&[1024, 4096], 8, "full")
    };
    let palettes: &[u16] = &[3, 8];

    let mut samples = Vec::new();
    for kind in TorusKind::ALL {
        for &size in sizes {
            for &palette in palettes {
                let sample = measure(kind, size, palette, rounds);
                eprintln!(
                    "{:<18} {size:>4}x{size:<4} k={palette} : planes {:>8.1} Mcell/s, \
                     generic {:>7.1} Mcell/s, {:>5.1}x vs generic",
                    kind_key(sample.kind),
                    sample.planes_mcells,
                    sample.generic_mcells,
                    sample.speedup_vs_generic(),
                );
                samples.push(sample);
            }
        }
    }

    check_headlines(&samples);
    let doc = render(&samples, mode, rounds);
    std::fs::write(&out_path, &doc).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path} ({} grid points)", samples.len());
}
