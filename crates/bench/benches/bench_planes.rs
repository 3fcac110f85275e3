//! Multi-colour bit-plane lane throughput versus the generic frontier.
//!
//! The workload is a dense uniform scatter over the palette: under a
//! threshold (or plurality) rule almost every vertex is a flip candidate
//! for many rounds, so both lanes do real per-round work and the
//! comparison measures evaluation throughput, not frontier bookkeeping.
//!
//! The direct ratio measurement at the end prints the PR's acceptance
//! line — plane-lane throughput ≥ 10× the generic frontier on the
//! 3-colour 1024×1024 threshold run — and only *asserts* it when
//! `CTORI_BENCH_ASSERT_SPEEDUP` is set, so an ordinary `cargo bench` run
//! stays measurement-only and cannot flake on a loaded machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctori_bench::multicolor_scatter;
use ctori_coloring::Color;
use ctori_engine::Simulator;
use ctori_protocols::{SmpProtocol, ThresholdRule};
use ctori_topology::{Torus, TorusKind};
use std::hint::black_box;
use std::time::Instant;

/// The acceptance workload: a 3-colour uniform scatter on a 1024×1024
/// toroidal mesh under threshold-2 activation of the highest colour.
fn acceptance_workload() -> (Torus, ThresholdRule) {
    let torus = Torus::new(TorusKind::ToroidalMesh, 1024, 1024);
    (torus, ThresholdRule::new(Color::new(3), 2))
}

fn bench_planes_vs_generic_threshold(c: &mut Criterion) {
    let (torus, rule) = acceptance_workload();
    let coloring = multicolor_scatter(&torus, 3, 0xC70);
    let rounds = 16u32;
    let cells = (torus.rows() * torus.cols()) as u64;

    let mut group = c.benchmark_group("engine/planes_vs_generic_threshold_1024x1024");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cells * u64::from(rounds)));
    // Each iteration rebuilds its simulator so both lanes time the same
    // `rounds` rounds from the same dense seed (reusing one stepped
    // simulator would leave later iterations measuring a saturated,
    // mostly-frozen state).
    group.bench_function("planes", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&torus, rule, coloring.clone());
            assert!(sim.uses_plane_lane());
            for _ in 0..rounds {
                black_box(sim.step());
            }
        });
    });
    group.bench_function("generic_frontier", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&torus, rule, coloring.clone()).with_generic_lane();
            for _ in 0..rounds {
                black_box(sim.step());
            }
        });
    });
    group.finish();

    // Direct ratio measurement with an equivalence check: both lanes
    // execute the same `rounds` synchronous rounds from the same seed.
    let mut planes = Simulator::new(&torus, rule, coloring.clone());
    assert!(
        planes.uses_plane_lane(),
        "3-colour threshold on a torus must select the plane lane"
    );
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(planes.step());
    }
    let planes_time = start.elapsed();

    let mut generic = Simulator::new(&torus, rule, coloring).with_generic_lane();
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(generic.step());
    }
    let generic_time = start.elapsed();

    assert_eq!(
        planes.snapshot(),
        generic.snapshot(),
        "the plane lane must reproduce the generic-frontier state exactly"
    );
    let speedup = generic_time.as_secs_f64() / planes_time.as_secs_f64();
    let rate = |t: std::time::Duration| cells as f64 * f64::from(rounds) / t.as_secs_f64() / 1e6;
    println!(
        "planes_vs_generic (1024x1024 toroidal mesh, 3 colours, threshold-2, {rounds} rounds): \
         planes {:.1} Mcell/s, generic {:.1} Mcell/s, speedup {speedup:.1}x",
        rate(planes_time),
        rate(generic_time),
    );
    // Opt-in acceptance gate: a timing assert inside a bench would fail
    // nondeterministically on loaded machines, so plain runs only warn.
    if std::env::var_os("CTORI_BENCH_ASSERT_SPEEDUP").is_some() {
        assert!(
            speedup >= 10.0,
            "plane lane must be >= 10x the generic frontier on the 3-colour \
             1024x1024 threshold run, got {speedup:.1}x"
        );
    } else if speedup < 10.0 {
        eprintln!(
            "warning: plane-lane speedup {speedup:.1}x is below the 10x acceptance target \
             (set CTORI_BENCH_ASSERT_SPEEDUP=1 to make this a hard failure)"
        );
    }
}

/// Measurement-only sweep of the plane lane across palettes and torus
/// kinds: SMP plurality on a 512×512 scatter, one group per palette size,
/// from one plane (2 colours) to four (16).  The plurality kernel compares
/// neighbour pairs, so its cost per cell follows the plane count (one word
/// per plane in each gather and pair compare), not the number of colours.
fn bench_planes_palette_sweep(c: &mut Criterion) {
    let size = 512usize;
    let rounds = 8u32;
    let cells = (size * size) as u64;
    let mut group = c.benchmark_group("engine/planes_smp_palette_512x512");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cells * u64::from(rounds)));
    for &palette in &[2u16, 3, 5, 8, 16] {
        for kind in TorusKind::ALL {
            let torus = Torus::new(kind, size, size);
            let coloring = multicolor_scatter(&torus, palette, u64::from(palette));
            group.bench_with_input(
                BenchmarkId::new(kind.name().replace(' ', "_"), palette),
                &palette,
                |b, _| {
                    b.iter(|| {
                        let mut sim = Simulator::new(&torus, SmpProtocol, coloring.clone());
                        assert!(sim.uses_plane_lane());
                        for _ in 0..rounds {
                            black_box(sim.step());
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

/// Measurement-only: big-grid's 2048² class through the kernel, 12 SMP
/// rounds on a palette-8 toroidal-mesh scatter (three planes).  The
/// group's time per iteration includes building the simulator; the line
/// printed after it times the 12 rounds alone, best of five.
fn bench_planes_smp_2048(c: &mut Criterion) {
    let torus = Torus::new(TorusKind::ToroidalMesh, 2048, 2048);
    let coloring = multicolor_scatter(&torus, 8, 8);
    let rounds = 12u32;
    let cells = (torus.rows() * torus.cols()) as u64;
    let mut group = c.benchmark_group("engine/planes_smp_2048x2048");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cells * u64::from(rounds)));
    group.bench_function("toroidal_mesh/8", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&torus, SmpProtocol, coloring.clone());
            assert!(sim.uses_plane_lane());
            for _ in 0..rounds {
                black_box(sim.step());
            }
        });
    });
    group.finish();

    let best = (0..5)
        .map(|_| {
            let mut sim = Simulator::new(&torus, SmpProtocol, coloring.clone());
            let start = Instant::now();
            for _ in 0..rounds {
                black_box(sim.step());
            }
            start.elapsed()
        })
        .min()
        .expect("five runs");
    println!(
        "planes_smp_2048 (2048x2048 toroidal mesh, palette 8, SMP, {rounds} rounds, best of 5): \
         {:.2} ms per round, {:.2} Gcell/s",
        best.as_secs_f64() * 1e3 / f64::from(rounds),
        cells as f64 * f64::from(rounds) / best.as_secs_f64() / 1e9,
    );
}

/// Criterion configuration shared by this file: shorter warm-up and
/// measurement windows so the full `cargo bench --workspace` sweep stays
/// within a few minutes while still producing stable estimates.
fn configured() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_planes_vs_generic_threshold, bench_planes_palette_sweep, bench_planes_smp_2048
}
criterion_main!(benches);
