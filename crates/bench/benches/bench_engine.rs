//! Engine throughput: cells updated per second per topology and per rule.
//!
//! Not a figure of the paper — this is the engineering baseline that tells
//! a user how large a torus the simulator handles comfortably.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctori_bench::{absorbing_patch, target_color};
use ctori_coloring::patterns::column_stripes;
use ctori_coloring::{Color, Coloring, ColoringBuilder};
use ctori_engine::naive::NaiveSimulator;
use ctori_engine::{RunConfig, Simulator};
use ctori_protocols::{ReverseSimpleMajority, ReverseStrongMajority, SmpProtocol, ThresholdRule};
use ctori_topology::{Torus, TorusKind};
use std::hint::black_box;
use std::time::Instant;

fn bench_single_round(c: &mut Criterion) {
    // Full-sweep mode on purpose: this group measures the raw per-vertex
    // evaluation throughput of the CSR kernel; the frontier benches below
    // measure the incremental scheduler.
    let mut group = c.benchmark_group("engine/single_round");
    for &size in &[32usize, 64, 128, 256] {
        for kind in TorusKind::ALL {
            let torus = Torus::new(kind, size, size);
            let coloring = absorbing_patch(&torus, size / 2);
            group.throughput(Throughput::Elements((size * size) as u64));
            group.bench_with_input(
                BenchmarkId::new(kind.name().replace(' ', "_"), size),
                &size,
                |b, _| {
                    let mut sim =
                        Simulator::new(&torus, SmpProtocol, coloring.clone()).with_full_sweep();
                    b.iter(|| black_box(sim.step()));
                },
            );
        }
    }
    group.finish();
}

fn bench_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/rules_single_round");
    let size = 128usize;
    let torus = Torus::new(TorusKind::ToroidalMesh, size, size);
    let coloring = column_stripes(&torus, &[Color::new(1), Color::new(2), Color::new(3)]);
    group.throughput(Throughput::Elements((size * size) as u64));

    group.bench_function("smp", |b| {
        let mut sim = Simulator::new(&torus, SmpProtocol, coloring.clone()).with_full_sweep();
        b.iter(|| black_box(sim.step()));
    });
    group.bench_function("reverse_simple_prefer_black", |b| {
        let mut sim = Simulator::new(
            &torus,
            ReverseSimpleMajority::prefer_black(),
            coloring.clone(),
        )
        .with_full_sweep();
        b.iter(|| black_box(sim.step()));
    });
    group.bench_function("reverse_strong", |b| {
        let mut sim =
            Simulator::new(&torus, ReverseStrongMajority, coloring.clone()).with_full_sweep();
        b.iter(|| black_box(sim.step()));
    });
    group.finish();
}

fn bench_run_to_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/run_to_convergence");
    group.sample_size(20);
    for &size in &[32usize, 64, 128] {
        let torus = Torus::new(TorusKind::ToroidalMesh, size, size);
        let coloring = absorbing_patch(&torus, size / 2);
        group.throughput(Throughput::Elements((size * size) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let mut sim = Simulator::new(&torus, SmpProtocol, coloring.clone());
                let report = sim.run(&RunConfig::default().without_cycle_detection());
                assert!(report.termination.is_monochromatic_in(target_color()));
                black_box(report.rounds)
            });
        });
    }
    group.finish();
}

/// The acceptance comparison for the shared CSR kernel: SMP round
/// throughput on a 256×256 toroidal mesh, the zero-allocation CSR stepper
/// versus the `Vec<NodeId>`-per-vertex baseline kept behind the engine's
/// bench-only `naive-baseline` feature.  Fails loudly if the CSR path is
/// not at least 2× faster, so a regression in the hot loop cannot hide
/// behind absolute numbers.
fn bench_csr_vs_naive_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/csr_vs_naive_smp_256x256");
    let size = 256usize;
    let torus = Torus::new(TorusKind::ToroidalMesh, size, size);
    let coloring = absorbing_patch(&torus, size / 2);
    let cells = size as u64 * size as u64;
    group.throughput(Throughput::Elements(cells));

    group.bench_function("csr", |b| {
        let mut sim = Simulator::new(&torus, SmpProtocol, coloring.clone()).with_full_sweep();
        b.iter(|| black_box(sim.step()));
    });
    group.bench_function("naive_vec_per_vertex", |b| {
        let mut sim = NaiveSimulator::new(&torus, SmpProtocol, coloring.cells().to_vec());
        b.iter(|| black_box(sim.step()));
    });
    group.finish();

    // Direct ratio measurement (independent of the harness bookkeeping).
    // 100 rounds per stepper keeps the timing windows long enough
    // (~0.1 s / ~0.3 s) that scheduler noise cannot push the observed
    // ratio across the 2x acceptance line.
    let rounds = 100u32;
    let time_rounds = |mut step: Box<dyn FnMut() -> usize>| {
        for _ in 0..5 {
            black_box(step());
        }
        let start = Instant::now();
        for _ in 0..rounds {
            black_box(step());
        }
        start.elapsed()
    };
    let mut csr = Simulator::new(&torus, SmpProtocol, coloring.clone()).with_full_sweep();
    let csr_time = time_rounds(Box::new(move || csr.step().changed));
    let mut naive = NaiveSimulator::new(&torus, SmpProtocol, coloring.cells().to_vec());
    let naive_time = time_rounds(Box::new(move || naive.step()));

    let speedup = naive_time.as_secs_f64() / csr_time.as_secs_f64();
    let rate = |t: std::time::Duration| cells as f64 * rounds as f64 / t.as_secs_f64() / 1e6;
    println!(
        "csr_vs_naive (256x256 toroidal mesh, SMP): csr {:.1} Mcell/s, naive {:.1} Mcell/s, speedup {speedup:.2}x",
        rate(csr_time),
        rate(naive_time),
    );
    assert!(
        speedup >= 2.0,
        "CSR hot loop must be >= 2x the naive Vec-per-vertex baseline, got {speedup:.2}x"
    );
}

/// A sparse bi-coloured SMP workload: `blocks` 2×2 black blocks plus
/// `singles` isolated black vertices scattered deterministically over a
/// white torus.  The seed density stays at or below 1% of the vertices.
/// Under two-colour SMP (flip on a strict 3-of-4 majority) the isolated
/// vertices are erased in round 1 and the blocks freeze, so after a short
/// transient almost every vertex is provably unchanged — exactly the
/// regime where the incremental frontier skips >99% of the full-sweep
/// work.
fn sparse_smp_seed(torus: &Torus, blocks: usize, singles: usize) -> Coloring {
    let (m, n) = (torus.rows(), torus.cols());
    let mut builder = ColoringBuilder::filled(torus, Color::WHITE);
    let mut placed = 0usize;
    let mut r = 3usize;
    let mut c = 5usize;
    while placed < blocks {
        builder = builder
            .cell(r % m, c % n, Color::BLACK)
            .cell(r % m, (c + 1) % n, Color::BLACK)
            .cell((r + 1) % m, c % n, Color::BLACK)
            .cell((r + 1) % m, (c + 1) % n, Color::BLACK);
        r = (r + 13) % m;
        c = (c + 29) % n;
        placed += 1;
    }
    let mut placed = 0usize;
    let (mut r, mut c) = (7usize, 11usize);
    while placed < singles {
        builder = builder.cell(r % m, c % n, Color::BLACK);
        r = (r + 17) % m;
        c = (c + 23) % n;
        placed += 1;
    }
    builder.build()
}

/// The frontier acceptance comparison: the bit-plane lane's word-granular
/// frontier versus the full-sweep CSR stepper on the generic lane, on a
/// 512×512 toroidal mesh under the SMP-Protocol seeded with <= 1% black
/// vertices.  Both steppers run the same number of rounds from the same
/// initial configuration and must end in the same state; the frontier
/// path must be at least 2× faster (in practice it is orders of magnitude
/// faster once the transient dies down).
fn bench_frontier_vs_full_sweep(c: &mut Criterion) {
    let size = 512usize;
    let cells = (size * size) as u64;
    let torus = Torus::new(TorusKind::ToroidalMesh, size, size);
    // 400 blocks (1600 vertices) + 800 singles = 2400 black <= 1% of 262144.
    let coloring = sparse_smp_seed(&torus, 400, 800);
    let seed_count = coloring.count(Color::BLACK);
    assert!(
        seed_count * 100 <= size * size,
        "seed density must stay at or below 1% ({seed_count} black vertices)"
    );
    let rounds = 64u32;

    let mut group = c.benchmark_group("engine/frontier_vs_full_sweep_smp_512x512");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cells * u64::from(rounds)));
    // Each iteration rebuilds its simulator so both benchmarks time the
    // same `rounds` rounds from the same seed (reusing one stepped
    // simulator would leave the frontier side measuring an already-frozen
    // state).
    group.bench_function("frontier_planes", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&torus, SmpProtocol, coloring.clone());
            assert!(sim.uses_plane_lane());
            for _ in 0..rounds {
                black_box(sim.step());
            }
        });
    });
    group.bench_function("full_sweep_csr", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&torus, SmpProtocol, coloring.clone())
                .with_generic_lane()
                .with_full_sweep();
            for _ in 0..rounds {
                black_box(sim.step());
            }
        });
    });
    group.finish();

    // Direct ratio measurement with an equivalence check: both steppers
    // execute the same `rounds` synchronous rounds from the same seed.
    let mut frontier = Simulator::new(&torus, SmpProtocol, coloring.clone());
    assert!(
        frontier.uses_plane_lane(),
        "SMP on two colours must take the plane lane"
    );
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(frontier.step());
    }
    let frontier_time = start.elapsed();

    let mut full = Simulator::new(&torus, SmpProtocol, coloring)
        .with_generic_lane()
        .with_full_sweep();
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(full.step());
    }
    let full_time = start.elapsed();

    assert_eq!(
        frontier.snapshot(),
        full.snapshot(),
        "the plane-lane frontier must reproduce the full-sweep state exactly"
    );
    let speedup = full_time.as_secs_f64() / frontier_time.as_secs_f64();
    println!(
        "frontier_vs_full_sweep (512x512 toroidal mesh, SMP, {seed_count} seeds, {rounds} rounds): \
         frontier+planes {:.2?}, full sweep {:.2?}, speedup {speedup:.1}x",
        frontier_time, full_time,
    );
    assert!(
        speedup >= 2.0,
        "frontier+planes stepper must be >= 2x the full-sweep CSR stepper, got {speedup:.2}x"
    );
}

/// A sustained-activity comparison: monotone threshold-2 growth from a
/// single 2×2 seed block keeps a moving wavefront alive for hundreds of
/// rounds, so this measures the frontier win during *active* dynamics
/// (the SMP comparison above measures the frozen regime).
fn bench_frontier_threshold_growth(c: &mut Criterion) {
    let size = 512usize;
    let torus = Torus::new(TorusKind::ToroidalMesh, size, size);
    let k = Color::new(2);
    let coloring = ColoringBuilder::filled(&torus, Color::new(1))
        .cell(255, 255, k)
        .cell(255, 256, k)
        .cell(256, 255, k)
        .cell(256, 256, k)
        .build();
    let rounds = 128u32;

    let mut group = c.benchmark_group("engine/frontier_vs_full_sweep_threshold_512x512");
    group.sample_size(10);
    group.bench_function("frontier_planes", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&torus, ThresholdRule::new(k, 2), coloring.clone());
            for _ in 0..rounds {
                black_box(sim.step());
            }
            black_box(sim.count_of(k))
        });
    });
    group.bench_function("full_sweep_csr", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&torus, ThresholdRule::new(k, 2), coloring.clone())
                .with_generic_lane()
                .with_full_sweep();
            for _ in 0..rounds {
                black_box(sim.step());
            }
            black_box(sim.count_of(k))
        });
    });
    group.finish();
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
    targets = bench_single_round, bench_rules, bench_run_to_convergence,
              bench_csr_vs_naive_baseline, bench_frontier_vs_full_sweep,
              bench_frontier_threshold_growth
}
criterion_main!(benches);
