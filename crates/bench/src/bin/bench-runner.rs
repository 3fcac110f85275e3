//! The perf-trajectory recorder: measures band-parallel plane-lane and
//! generic-frontier throughput over a fixed (threads × torus kind × size
//! × palette) grid and writes the result as `BENCH_<pr>.json`.
//!
//! Unlike the Criterion benches (interactive, statistical), this binary
//! produces one machine-readable artefact per PR so throughput history is
//! diffable: `BENCH_6.json` recorded the single-threaded three-lane
//! baseline, `BENCH_7.json` adds the threads axis — every grid point
//! is measured at `threads=1` and on the plane lane at
//! `threads=<cores>` (explicit bands; the artefact calls these rows
//! `auto`, though a spec's `threads=auto` steps on one thread), so the
//! artefact captures both the lane speedup over the generic frontier
//! and the intra-run thread scaling (`self_speedup`) — `BENCH_9.json` embeds
//! a `telemetry` object distilled from a short `LocalExecutor` workload:
//! queue-wait and run-time quantiles from the pool's latency histograms
//! plus the dense/sparse band ratio and cell throughput from the step
//! profile, so the artefact records latency alongside throughput — and
//! `BENCH_10.json` adds a `fleet` object: the same cache-cold sweep
//! timed through a one-backend and a three-backend [`FleetExecutor`]
//! (single-worker embedded servers, so backends are the only
//! parallelism), recording the fan-out speedup.  CI re-emits a
//! quick-mode file on every push to catch silent regressions (Mcell/s
//! must stay positive and the grid complete; absolute numbers are
//! informational because runner hardware varies).
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
//! ratios (≥ 3× self-speedup on 4096² k=3 with ≥ 8 effective threads;
//! ≥ 8× over the generic frontier on 1024² k=8 single-threaded; ≥ 2×
//! fleet fan-out with three backends on a ≥ 3-core machine); without
//! it, shortfalls are warnings, because CI and laptop hardware vary.

use ctori_bench::multicolor_scatter;
use ctori_coloring::Color;
use ctori_engine::{
    default_threads, Executor, LocalExecutor, LocalExecutorConfig, RuleSpec, RunSpec, SeedSpec,
    Simulator, SubmitOptions, TopologySpec,
};
use ctori_fleet::{FleetConfig, FleetExecutor};
use ctori_protocols::ThresholdRule;
use ctori_service::{SchedulerConfig, Server, ServiceClient, ServiceConfig};
use ctori_topology::{Torus, TorusKind};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The PR number this artefact belongs to (the perf-trajectory index).
const PR: u32 = 10;

/// One measured grid point: the plane lane at one thread setting against
/// the single-threaded generic frontier on the same workload.
struct Sample {
    kind: TorusKind,
    size: usize,
    palette: u16,
    /// `"1"` or `"auto"` — the spec-level thread setting.
    threads_mode: &'static str,
    /// The step-thread count the mode resolved to on this machine.
    effective_threads: usize,
    planes_mcells: f64,
    generic_mcells: f64,
    /// Plane lane at this thread setting vs plane lane at `threads=1`.
    self_speedup: f64,
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

/// Measures one (kind, size, palette) workload at both thread settings:
/// the generic frontier once (always sequential — the lane baseline),
/// the plane lane at `threads=1`, and the plane lane at
/// `threads=<cores>` (explicit bands).
/// Exact-equivalence checks gate every recorded number.
fn measure(kind: TorusKind, size: usize, palette: u16, rounds: u32) -> Vec<Sample> {
    let torus = Torus::new(kind, size, size);
    let cells = size * size;
    // Threshold-2 activation of the highest palette colour over a dense
    // uniform scatter: nearly every vertex stays a flip candidate for the
    // whole measurement, the same workload as `bench_planes`.
    let rule = ThresholdRule::new(Color::new(palette), 2);
    let coloring = multicolor_scatter(&torus, palette, 0x6 + cells as u64);
    let auto_threads = default_threads().max(1);

    let planes_sim = Simulator::new(&torus, rule, coloring.clone());
    assert!(
        planes_sim.uses_plane_lane(),
        "{} {size}x{size} k={palette}: plane lane not selected",
        kind_key(kind)
    );
    let (planes_seq_mcells, planes_snap) = time_lane(planes_sim, rounds, cells);

    let planes_auto =
        Simulator::new(&torus, rule, coloring.clone()).with_step_threads(auto_threads);
    let (planes_auto_mcells, auto_snap) = time_lane(planes_auto, rounds, cells);

    let generic_sim = Simulator::new(&torus, rule, coloring).with_generic_lane();
    let (generic_mcells, generic_snap) = time_lane(generic_sim, rounds, cells);

    assert_eq!(
        planes_snap,
        generic_snap,
        "{} {size}x{size} k={palette}: lanes diverged",
        kind_key(kind)
    );
    assert_eq!(
        auto_snap,
        planes_snap,
        "{} {size}x{size} k={palette}: band-parallel stepping diverged",
        kind_key(kind)
    );
    vec![
        Sample {
            kind,
            size,
            palette,
            threads_mode: "1",
            effective_threads: 1,
            planes_mcells: planes_seq_mcells,
            generic_mcells,
            self_speedup: 1.0,
        },
        Sample {
            kind,
            size,
            palette,
            threads_mode: "auto",
            effective_threads: auto_threads,
            planes_mcells: planes_auto_mcells,
            generic_mcells,
            self_speedup: planes_auto_mcells / planes_seq_mcells,
        },
    ]
}

/// Executor-level telemetry distilled from a short pool-driven workload
/// — the same instruments the wire `METRICS` verb exposes, sampled here
/// so the artefact records latency alongside throughput.
struct TelemetryProbe {
    jobs: u64,
    queue_wait_us_p50: u64,
    queue_wait_us_p99: u64,
    job_run_us_p50: u64,
    job_run_us_p99: u64,
    cells_per_sec: f64,
    dense_band_ratio: f64,
}

/// Runs a small threshold-growth sweep through a [`LocalExecutor`] and
/// reads the pool's telemetry registry plus the jobs' step profiles.
fn probe_telemetry(quick: bool) -> TelemetryProbe {
    let size = if quick { 48 } else { 256 };
    let jobs = 6usize;
    let pool = LocalExecutor::start(LocalExecutorConfig::default());
    let specs: Vec<RunSpec> = (0..jobs)
        .map(|n| {
            RunSpec::new(
                TopologySpec::toroidal_mesh(size, size),
                RuleSpec::parse("threshold(2,1)").expect("registry rule"),
                SeedSpec::nodes(Color::new(2), Color::new(1), [n]),
            )
        })
        .collect();
    let handles = pool
        .submit_sweep(&specs, SubmitOptions::default())
        .expect("pool admits the probe sweep");
    let (mut cells, mut nanos, mut dense, mut sparse) = (0u64, 0u64, 0u64, 0u64);
    for mut handle in handles {
        let outcome = handle.wait().expect("probe job finishes");
        let stats = outcome.round_stats.expect("fresh run records stats");
        cells += stats.cells_evaluated;
        nanos += stats.nanos;
        dense += stats.dense_bands;
        sparse += stats.sparse_bands;
    }
    let registry = pool.telemetry();
    pool.drain();
    let snapshot = registry.snapshot();
    let wait = snapshot
        .histogram("exec.queue.wait-us")
        .expect("queue-wait histogram")
        .clone();
    let run = snapshot
        .histogram("exec.job.run-us")
        .expect("run-time histogram")
        .clone();
    assert_eq!(wait.count, jobs as u64, "every job recorded a queue wait");
    TelemetryProbe {
        jobs: snapshot
            .counter("exec.jobs.submitted")
            .expect("submission counter"),
        queue_wait_us_p50: wait.quantile(0.5),
        queue_wait_us_p99: wait.quantile(0.99),
        job_run_us_p50: run.quantile(0.5),
        job_run_us_p99: run.quantile(0.99),
        cells_per_sec: if nanos == 0 {
            0.0
        } else {
            cells as f64 / (nanos as f64 / 1e9)
        },
        dense_band_ratio: if dense + sparse == 0 {
            0.0
        } else {
            dense as f64 / (dense + sparse) as f64
        },
    }
}

/// The fleet fan-out axis: one cache-cold sweep timed through a
/// one-backend and a three-backend fleet.
struct FleetProbe {
    jobs: u64,
    one_backend_secs: f64,
    three_backend_secs: f64,
    /// `one_backend_secs / three_backend_secs`.
    speedup: f64,
}

/// Times a cache-cold sweep of `specs` through a fleet of `backends`
/// embedded single-worker servers, so the backend count is the only
/// source of parallelism.  Fresh servers per arm keep every run cold.
fn run_fleet_arm(backends: usize, specs: &[RunSpec]) -> f64 {
    let mut addrs = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..backends {
        let server = Server::bind(ServiceConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                workers: 1,
                queue_capacity: specs.len().max(16),
                cache_capacity: specs.len().max(16),
                ..SchedulerConfig::default()
            },
        })
        .expect("bind embedded backend");
        addrs.push(server.local_addr().expect("local addr").to_string());
        servers.push(std::thread::spawn(move || server.serve()));
    }
    let fleet =
        FleetExecutor::connect(FleetConfig::new(addrs.iter().cloned())).expect("connect fleet");
    let start = Instant::now();
    let handles = fleet
        .submit_sweep(specs, SubmitOptions::default())
        .expect("fleet admits the sweep");
    for mut handle in handles {
        black_box(handle.wait().expect("fleet job finishes"));
    }
    let secs = start.elapsed().as_secs_f64();
    fleet.drain();
    for addr in &addrs {
        ServiceClient::connect(addr.as_str())
            .expect("connect for shutdown")
            .shutdown()
            .expect("backend shutdown");
    }
    for server in servers {
        server.join().expect("server thread").expect("server exit");
    }
    secs
}

/// Measures the fleet fan-out speedup on a sweep of distinct
/// threshold-growth runs (distinct seeds, so neither arm ever hits a
/// result cache).  The ≥ 2× gate is hard only under
/// `CTORI_BENCH_ASSERT_SPEEDUP` and only when the machine has the three
/// cores the backends need.
fn probe_fleet(quick: bool) -> FleetProbe {
    // Sized so one job runs for tens of milliseconds in release mode —
    // far above the fleet's 10ms completion-poll granularity, so the
    // measured ratio reflects fan-out, not polling overhead.
    let (size, jobs) = if quick { (768, 6) } else { (1024, 12) };
    let specs: Vec<RunSpec> = (0..jobs)
        .map(|n| {
            RunSpec::new(
                TopologySpec::toroidal_mesh(size, size),
                RuleSpec::parse("threshold(2,1)").expect("registry rule"),
                SeedSpec::nodes(Color::new(2), Color::new(1), [n]),
            )
            // One step thread per job: otherwise every job saturates the
            // machine on its own and backend fan-out only adds contention.
            .with_options(ctori_engine::EngineOptions::default().with_threads(1))
        })
        .collect();
    let one = run_fleet_arm(1, &specs);
    let three = run_fleet_arm(3, &specs);
    let speedup = one / three;
    if speedup < 2.0 {
        let complaint = format!(
            "fleet fan-out: {jobs} jobs {size}x{size}, 1 backend {one:.2}s vs \
             3 backends {three:.2}s = {speedup:.2}x < 2x"
        );
        if std::env::var("CTORI_BENCH_ASSERT_SPEEDUP").is_ok() && default_threads() >= 3 {
            panic!("headline perf gate failed: {complaint}");
        }
        eprintln!("warning: {complaint}");
    }
    FleetProbe {
        jobs: jobs as u64,
        one_backend_secs: one,
        three_backend_secs: three,
        speedup,
    }
}

/// Renders the samples as the `BENCH_<pr>.json` document.
fn render(
    samples: &[Sample],
    telemetry: &TelemetryProbe,
    fleet: &FleetProbe,
    mode: &str,
    rounds: u32,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"parallel_planes\",");
    let _ = writeln!(out, "  \"pr\": {PR},");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"rule\": \"threshold(palette,2)\",");
    let _ = writeln!(out, "  \"rounds\": {rounds},");
    let _ = writeln!(out, "  \"unit\": \"Mcell/s\",");
    out.push_str("  \"telemetry\": {\n");
    let _ = writeln!(out, "    \"jobs\": {},", telemetry.jobs);
    let _ = writeln!(
        out,
        "    \"queue_wait_us_p50\": {},",
        telemetry.queue_wait_us_p50
    );
    let _ = writeln!(
        out,
        "    \"queue_wait_us_p99\": {},",
        telemetry.queue_wait_us_p99
    );
    let _ = writeln!(out, "    \"job_run_us_p50\": {},", telemetry.job_run_us_p50);
    let _ = writeln!(out, "    \"job_run_us_p99\": {},", telemetry.job_run_us_p99);
    let _ = writeln!(
        out,
        "    \"cells_per_sec\": {:.0},",
        telemetry.cells_per_sec
    );
    let _ = writeln!(
        out,
        "    \"dense_band_ratio\": {:.3}",
        telemetry.dense_band_ratio
    );
    out.push_str("  },\n");
    out.push_str("  \"fleet\": {\n");
    let _ = writeln!(out, "    \"jobs\": {},", fleet.jobs);
    let _ = writeln!(
        out,
        "    \"one_backend_secs\": {:.3},",
        fleet.one_backend_secs
    );
    let _ = writeln!(
        out,
        "    \"three_backend_secs\": {:.3},",
        fleet.three_backend_secs
    );
    let _ = writeln!(out, "    \"speedup\": {:.2}", fleet.speedup);
    out.push_str("  },\n");
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kind\": \"{}\", \"size\": {}, \"palette\": {}, \
             \"threads\": \"{}\", \"effective_threads\": {}, \
             \"planes_mcells\": {:.1}, \"generic_mcells\": {:.1}, \
             \"speedup\": {:.1}, \"self_speedup\": {:.2}}}",
            kind_key(s.kind),
            s.size,
            s.palette,
            s.threads_mode,
            s.effective_threads,
            s.planes_mcells,
            s.generic_mcells,
            s.speedup_vs_generic(),
            s.self_speedup,
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The headline perf gates.  Hard assertions only under
/// `CTORI_BENCH_ASSERT_SPEEDUP` (and, for the scaling gate, only when
/// the machine actually has the threads); warnings otherwise.
fn check_headlines(samples: &[Sample]) {
    let assert_hard = std::env::var("CTORI_BENCH_ASSERT_SPEEDUP").is_ok();
    let mut complaints = Vec::new();
    for s in samples {
        // ≥ 3× self-speedup on the 4096² k=3 auto row, when ≥ 8 threads
        // were actually available to scale across.
        if s.size == 4096 && s.palette == 3 && s.threads_mode == "auto" {
            if s.effective_threads >= 8 && s.self_speedup < 3.0 {
                complaints.push(format!(
                    "{} 4096x4096 k=3: self-speedup {:.2}x < 3x at {} threads",
                    kind_key(s.kind),
                    s.self_speedup,
                    s.effective_threads
                ));
            } else if s.effective_threads < 8 {
                eprintln!(
                    "note: {} 4096x4096 k=3 scaling gate skipped \
                     ({} effective threads < 8 on this machine)",
                    kind_key(s.kind),
                    s.effective_threads
                );
            }
        }
        // ≥ 8× over the generic frontier on 1024² k=8, single-threaded —
        // the PR-6 plane-lane headline must not regress.
        if s.size == 1024 && s.palette == 8 && s.threads_mode == "1" && s.speedup_vs_generic() < 8.0
        {
            complaints.push(format!(
                "{} 1024x1024 k=8: {:.1}x over generic < 8x single-threaded",
                kind_key(s.kind),
                s.speedup_vs_generic()
            ));
        }
    }
    for complaint in &complaints {
        if assert_hard {
            panic!("headline perf gate failed: {complaint}");
        }
        eprintln!("warning: {complaint}");
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
                for sample in measure(kind, size, palette, rounds) {
                    eprintln!(
                        "{:<18} {size:>4}x{size:<4} k={palette} threads={:<4} (={}) : \
                         planes {:>8.1} Mcell/s, generic {:>7.1} Mcell/s, \
                         {:>5.1}x vs generic, {:>4.2}x self",
                        kind_key(sample.kind),
                        sample.threads_mode,
                        sample.effective_threads,
                        sample.planes_mcells,
                        sample.generic_mcells,
                        sample.speedup_vs_generic(),
                        sample.self_speedup,
                    );
                    samples.push(sample);
                }
            }
        }
    }

    check_headlines(&samples);
    let telemetry = probe_telemetry(quick);
    eprintln!(
        "telemetry probe: {} jobs, queue-wait p50/p99 {}us/{}us, \
         run p50/p99 {}us/{}us, {:.1} Mcell/s, dense ratio {:.3}",
        telemetry.jobs,
        telemetry.queue_wait_us_p50,
        telemetry.queue_wait_us_p99,
        telemetry.job_run_us_p50,
        telemetry.job_run_us_p99,
        telemetry.cells_per_sec / 1e6,
        telemetry.dense_band_ratio,
    );
    let fleet = probe_fleet(quick);
    eprintln!(
        "fleet probe: {} jobs, 1 backend {:.2}s, 3 backends {:.2}s, {:.2}x fan-out",
        fleet.jobs, fleet.one_backend_secs, fleet.three_backend_secs, fleet.speedup,
    );
    let doc = render(&samples, &telemetry, &fleet, mode, rounds);
    std::fs::write(&out_path, &doc).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path} ({} grid points)", samples.len());
}
