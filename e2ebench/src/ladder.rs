//! The traced run: a sample of the workload replayed down the executor
//! ladder — raw `Simulator::step` loop, `Runner::execute`,
//! `LocalExecutor`, `RemoteExecutor`, `FleetExecutor` — with a span
//! around every call the benchmark makes into a layer.  Adjacent rungs
//! run the same spec, so their difference attributes the cost of the
//! layer between them.

use crate::measure::{cell_rounds, parse_all, RunResult};
use crate::report::{Report, Samples, TAIL_SUPPORT};
use crate::spans::Tracer;
use crate::stack::{references, Backends};
use crate::workloads::{big_grid_pool, sweep_batch, Job, SmallStream, Workload};
use ctori_engine::{
    BuiltTopology, Executor, LocalExecutor, LocalExecutorConfig, RunOutcome, RunSpec, Runner,
    Simulator, SubmitOptions,
};
use ctori_service::RemoteExecutor;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// `served-small` jobs replayed: enough for ten samples beyond p99 of
/// the fleet overhead.
const SMALL_SAMPLE: usize = 1200;

/// The largest sweep the sweep rung submits (the local pool's default
/// queue bound is 1024).
const SWEEP_RUNG_MAX: usize = 256;

/// The sample of a workload the traced run replays.
fn sample(workload: Workload, seed: u64) -> Vec<Job> {
    match workload {
        Workload::ServedSmall => SmallStream::new(seed).take(SMALL_SAMPLE).collect(),
        // One 1024² and one 2048² spec for each k, over all three kinds.
        Workload::BigGrid => {
            let pool = big_grid_pool(seed);
            [0, 2, 13, 14, 24, 26]
                .into_iter()
                .map(|i| pool[i].clone())
                .collect()
        }
        Workload::ServedSweep => sweep_batch(seed),
    }
}

/// The executors of the served rungs.
struct Served {
    local: LocalExecutor,
    remote_stack: Backends,
    remote: RemoteExecutor,
    fleet_stack: Backends,
    fleet: ctori_fleet::FleetExecutor,
}

impl Served {
    fn start() -> Served {
        let remote_stack = Backends::start(1);
        let remote = remote_stack.remote();
        let fleet_stack = Backends::start(1);
        let fleet = fleet_stack.fleet();
        Served {
            local: LocalExecutor::start(LocalExecutorConfig {
                workers: 1,
                ..LocalExecutorConfig::default()
            }),
            remote_stack,
            remote,
            fleet_stack,
            fleet,
        }
    }

    fn stop(self) {
        self.local.shutdown();
        drop(self.remote);
        drop(self.fleet);
        self.remote_stack.stop();
        self.fleet_stack.stop();
    }
}

/// Submits and waits: a rung span with one child span per call.
fn submit_wait(
    tracer: &mut Tracer,
    executor: &dyn Executor,
    spec: &RunSpec,
    names: [&'static str; 3],
    job: u64,
) -> Result<RunOutcome, String> {
    let [whole, submit, wait] = names;
    let span = tracer.open(whole, job, None);
    let result = tracer
        .span(submit, job, Some(span), || {
            executor.submit(spec, SubmitOptions::default())
        })
        .and_then(|mut handle| tracer.span(wait, job, Some(span), || handle.wait()))
        .map(|outcome| (*outcome).clone())
        .map_err(|e| e.to_string());
    tracer.close(span);
    result
}

/// What the in-process rungs learned about one job.
struct InProcess {
    /// The `Runner::execute` outcome (with its step profile).
    outcome: RunOutcome,
    /// Whether every in-process rung reproduced the reference.
    matches: bool,
}

/// The in-process rungs of one job: spec parse, `Runner::execute`, the
/// outcome codec, and the same run taken apart — seed, build, and a raw
/// step loop at the runner's thread count and at one thread.
fn in_process(
    tracer: &mut Tracer,
    job: u64,
    text: &str,
    reference: &RunOutcome,
) -> Result<InProcess, String> {
    let root = tracer.open("job", job, None);
    let parent = Some(root);
    let spec = tracer
        .span("spec.parse", job, parent, || RunSpec::from_text(text))
        .map_err(|e| e.to_string())?;
    let outcome = tracer.span("runner.execute", job, parent, || {
        Runner::new().execute(&spec)
    });
    let decoded = tracer
        .span("spec.outcome_codec", job, parent, || {
            RunOutcome::from_text(&outcome.to_text())
        })
        .map_err(|e| e.to_string())?;

    let threads = outcome.round_stats.map_or(1, |s| s.threads as usize);
    let initial = tracer.span("runner.seed", job, parent, || spec.initial_coloring());
    let BuiltTopology::Torus(torus) = spec.topology.build() else {
        return Err("the ladder replays torus specs only".into());
    };
    let mut finals = Vec::with_capacity(2);
    for (step_threads, build, step) in [
        (threads, "runner.build", "simulator.step"),
        (1, "simulator.rebuild", "simulator.step_threads1"),
    ] {
        let mut sim = tracer.span(build, job, parent, || {
            Simulator::new(&torus, spec.rule.resolve(), initial.clone())
                .with_step_threads(step_threads)
        });
        tracer.span(step, job, parent, || {
            for _ in 0..outcome.rounds {
                black_box(sim.step());
            }
        });
        finals.push(sim.coloring());
    }

    tracer.close(root);
    let matches = outcome == *reference
        && decoded == *reference
        && finals.iter().all(|c| *c == reference.final_coloring);
    Ok(InProcess { outcome, matches })
}

/// Per-job facts kept for the metrics.
struct JobRow {
    id: u64,
    repeat: bool,
    cell_rounds: f64,
    cells_evaluated: u64,
    packed: bool,
    planes: bool,
}

/// Runs the traced ladder for one workload.
///
/// Rung-major: each rung replays the whole sample as a closed loop, as
/// the workload drives its own stack, so no backend sits idle between
/// two of its jobs while other rungs run.  Rungs are paired by job
/// afterwards.
pub fn run(workload: Workload, seed: u64) -> RunResult {
    let jobs = sample(workload, seed);
    let specs = parse_all(&jobs);
    let refs = references(&specs);
    let mut tracer = Tracer::new();
    // Whether every rung reproduced each job's reference.
    let mut ok = vec![true; jobs.len()];
    let id = |index: usize| index as u64 + 1;

    // In-process rungs, twice per job — traced and untraced, in
    // alternating order so neither side always finds warm caches — to
    // time the tracing overhead.
    let mut untraced = Tracer::disabled();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut rows = Vec::with_capacity(jobs.len());
    for (index, (job, reference)) in jobs.iter().zip(&refs).enumerate() {
        let mut untraced_ok = true;
        let mut untraced_pass = |untraced_s: &mut f64| {
            let started = Instant::now();
            let result = in_process(&mut untraced, id(index), &job.text, reference);
            *untraced_s += started.elapsed().as_secs_f64();
            untraced_ok = result.is_ok_and(|r| r.matches);
        };
        if index % 2 == 0 {
            untraced_pass(&mut untraced_s);
        }
        let started = Instant::now();
        let traced = in_process(&mut tracer, id(index), &job.text, reference);
        traced_s += started.elapsed().as_secs_f64();
        if index % 2 == 1 {
            untraced_pass(&mut untraced_s);
        }
        match traced {
            Ok(r) => {
                ok[index] &= r.matches && untraced_ok;
                let stats = r.outcome.round_stats.expect("fresh runs report stats");
                rows.push(JobRow {
                    id: id(index),
                    repeat: job.repeat,
                    cell_rounds: cell_rounds(reference),
                    cells_evaluated: stats.cells_evaluated,
                    packed: r.outcome.used_packed_lane,
                    planes: r.outcome.used_plane_lane,
                });
            }
            Err(_) => ok[index] = false,
        }
    }

    // Executor rungs.  The cache-hit rung resubmits each fresh spec right
    // after its cache-cold run on the same backend.
    let served = Served::start();
    let mut baseline_failures = Vec::new();
    let mut rung = |tracer: &mut Tracer, index: usize, executor: &dyn Executor, names| {
        let got = submit_wait(tracer, executor, &specs[index], names, id(index));
        let good = got.as_ref().is_ok_and(|o| *o == refs[index]);
        ok[index] &= good;
        got.ok().filter(|_| good)
    };
    for index in 0..jobs.len() {
        let Some(outcome) = rung(
            &mut tracer,
            index,
            &served.local,
            ["exec.local", "exec.submit", "exec.wait"],
        ) else {
            continue;
        };
        // The executor resolves `threads=auto` against its own pool, so
        // it may step at another thread count than `Runner::new`.  Its
        // layer cost is taken against a runner at the count it used.
        let threads = outcome.round_stats.map_or(1, |s| s.threads as usize);
        let baseline = tracer.span("exec.runner_baseline", id(index), None, || {
            Runner::with_threads(threads).execute(&specs[index])
        });
        if baseline != refs[index] {
            baseline_failures.push(index);
        }
    }
    for (index, job) in jobs.iter().enumerate() {
        rung(
            &mut tracer,
            index,
            &served.remote,
            ["service.remote", "service.submit", "service.wait"],
        );
        if !job.repeat {
            rung(
                &mut tracer,
                index,
                &served.remote,
                [
                    "service.cache_hit",
                    "service.hit_submit",
                    "service.hit_wait",
                ],
            );
        }
    }
    for index in 0..jobs.len() {
        rung(
            &mut tracer,
            index,
            &served.fleet,
            ["fleet.fleet1", "fleet.submit", "fleet.wait"],
        );
    }

    for index in baseline_failures {
        ok[index] = false;
    }
    let mut failed = 0;
    let mut problems = Vec::new();
    for (index, good) in ok.iter().enumerate() {
        if !good {
            failed += 1;
            if problems.len() < 8 {
                problems.push(format!(
                    "job {}: a rung's outcome differs from the reference",
                    id(index)
                ));
            }
        }
    }
    // The fleet rung replays the sample in order: only a repeat may hit.
    let cache = served.fleet_stack.stats(0).cache;
    let repeats = jobs.iter().filter(|j| j.repeat).count() as u64;
    if cache.hits != repeats {
        problems.push(format!(
            "fleet backend saw {} cache hits for {repeats} repeats",
            cache.hits
        ));
    }
    served.stop();

    let sweep_n = specs.len().min(SWEEP_RUNG_MAX);
    let sweep = sweep_rungs(&mut tracer, &specs[..sweep_n], &refs[..sweep_n]);
    if sweep.mismatches > 0 {
        problems.push(format!(
            "{} sweep-rung outcomes differ from the reference",
            sweep.mismatches
        ));
    }

    let trace_path = write_trace(&tracer, workload, seed);
    let good_rows: Vec<JobRow> = rows.into_iter().filter(|r| ok[r.id as usize - 1]).collect();
    let mut report = per_layer(&tracer, &good_rows, &sweep, (traced_s, untraced_s));
    report.add_note(
        "service.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
        format!(
            "fleet backend; generated repeat share {repeats}/{}",
            jobs.len()
        ),
    );
    report.add_note(
        "trace.spans",
        tracer.spans().len() as f64,
        "count",
        trace_path,
    );
    RunResult {
        report,
        attempted: jobs.len() as u64,
        failed,
        problems,
    }
}

/// What the sweep rungs measured.
struct SweepRungs {
    jobs: usize,
    mismatches: usize,
    steals: u64,
    reroutes: u64,
    routed: Vec<u64>,
}

/// The sample as one sweep through a two-worker `LocalExecutor`, then
/// through a fleet over two fresh backends.
fn sweep_rungs(tracer: &mut Tracer, specs: &[RunSpec], refs: &[RunOutcome]) -> SweepRungs {
    let mut mismatches = 0;
    let local = LocalExecutor::start(LocalExecutorConfig {
        workers: 2,
        ..LocalExecutorConfig::default()
    });
    match tracer.span("exec.submit_sweep", 0, None, || {
        local.submit_sweep(specs, SubmitOptions::default())
    }) {
        Ok(handles) => mismatches += wait_all(tracer, "exec.sweep_wait", handles, refs),
        Err(_) => mismatches += specs.len(),
    }
    local.shutdown();

    let stack = Backends::start(2);
    let fleet = stack.fleet();
    match tracer.span("fleet.submit_sweep", 0, None, || {
        fleet.submit_sweep(specs, SubmitOptions::default())
    }) {
        Ok(handles) => mismatches += wait_all(tracer, "fleet.sweep_wait", handles, refs),
        Err(_) => mismatches += specs.len(),
    }
    let local_counters = fleet.local();
    drop(fleet);
    stack.stop();
    SweepRungs {
        jobs: specs.len(),
        mismatches,
        steals: local_counters.steals,
        reroutes: local_counters.reroutes,
        routed: local_counters.jobs_routed,
    }
}

/// Waits on every handle in order; returns how many outcomes errored or
/// differ from their reference.
fn wait_all(
    tracer: &mut Tracer,
    name: &'static str,
    handles: Vec<ctori_engine::JobHandle>,
    refs: &[RunOutcome],
) -> usize {
    let mut mismatches = 0;
    for (mut handle, reference) in handles.into_iter().zip(refs) {
        let got = tracer.span(name, 0, None, || handle.wait());
        if !got.is_ok_and(|outcome| *outcome == *reference) {
            mismatches += 1;
        }
    }
    mismatches
}

/// Writes the spans next to the build output and returns the path.
fn write_trace(tracer: &Tracer, workload: Workload, seed: u64) -> String {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from)
        .join("e2ebench-traces");
    let path = dir.join(format!("trace-{}-seed{seed}.tsv", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_tsv())) {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written: {e}"),
    }
}

/// The per-layer metrics, from the spans and the per-job rows.
fn per_layer(
    tracer: &Tracer,
    rows: &[JobRow],
    sweep: &SweepRungs,
    (traced_s, untraced_s): (f64, f64),
) -> Report {
    let d = tracer.durations();
    let us = |job: u64, name: &str| d.get(&(job, name)).map(|&ns| ns as f64 / 1e3);
    // Exact samples of a per-job quantity, over the jobs that have it.
    let collect = |rows: &[&JobRow], f: &dyn Fn(u64) -> Option<f64>| {
        let mut samples = Samples::new();
        for row in rows {
            if let Some(v) = f(row.id) {
                samples.push(v);
            }
        }
        samples
    };
    let all: Vec<&JobRow> = rows.iter().collect();
    let fresh: Vec<&JobRow> = rows.iter().filter(|r| !r.repeat).collect();
    let mut report = Report::default();
    let median = |report: &mut Report, name, unit, scale: f64, mut s: Samples, base: &str| {
        let value = if s.is_empty() {
            f64::NAN
        } else {
            s.median() * scale
        };
        report.add(name, value, unit, format!("median of n={} {base}", s.len()));
    };

    median(
        &mut report,
        "spec.parse_us",
        "us",
        1.0,
        collect(&all, &|j| us(j, "spec.parse")),
        "RunSpec::from_text",
    );
    median(
        &mut report,
        "spec.outcome_codec_ms",
        "ms",
        1e-3,
        collect(&all, &|j| us(j, "spec.outcome_codec")),
        "to_text + from_text",
    );
    median(
        &mut report,
        "runner.seed_ms",
        "ms",
        1e-3,
        collect(&all, &|j| us(j, "runner.seed")),
        "initial_coloring",
    );
    median(
        &mut report,
        "runner.build_ms",
        "ms",
        1e-3,
        collect(&all, &|j| us(j, "runner.build")),
        "Simulator::new",
    );
    median(
        &mut report,
        "runner.overhead_us",
        "us",
        1.0,
        collect(&all, &|j| {
            Some(
                us(j, "runner.execute")?
                    - us(j, "runner.seed")?
                    - us(j, "runner.build")?
                    - us(j, "simulator.step")?,
            )
        }),
        "execute - (seed + build + step)",
    );

    let total = |name: &str| rows.iter().filter_map(|r| us(r.id, name)).sum::<f64>();
    let work: f64 = rows.iter().map(|r| r.cell_rounds).sum();
    let step_s = total("simulator.step") / 1e6;
    report.add(
        "simulator.step_gcells_per_s",
        work / step_s / 1e9,
        "Gcell/s",
        format!("{work:.4e} cell-rounds over {step_s:.4} s of raw step loop, auto lane"),
    );
    report.add(
        "simulator.threads_ratio",
        total("simulator.step_threads1") / total("simulator.step"),
        "ratio",
        "threads=auto over threads=1 step throughput".into(),
    );
    let evaluated: u64 = rows.iter().map(|r| r.cells_evaluated).sum();
    report.add(
        "simulator.cells_evaluated_ratio",
        evaluated as f64 / work,
        "ratio",
        format!("{evaluated} cells evaluated for {work:.4e} cell-rounds"),
    );
    let planes = rows.iter().filter(|r| r.planes).count();
    let packed = rows.iter().filter(|r| r.packed).count();
    report.add(
        "simulator.plane_lane_jobs",
        planes as f64,
        "count",
        format!("of {} jobs", rows.len()),
    );

    median(
        &mut report,
        "exec.overhead_us",
        "us",
        1.0,
        collect(&all, &|j| {
            Some(us(j, "exec.local")? - us(j, "exec.runner_baseline")?)
        }),
        "LocalExecutor - Runner::execute at the executor's thread count",
    );
    median(
        &mut report,
        "exec.submit_us",
        "us",
        1.0,
        collect(&all, &|j| us(j, "exec.submit")),
        "LocalExecutor::submit",
    );
    median(
        &mut report,
        "service.wire_us",
        "us",
        1.0,
        collect(&fresh, &|j| {
            Some(us(j, "service.remote")? - us(j, "exec.local")?)
        }),
        "cache-cold RemoteExecutor - LocalExecutor",
    );
    median(
        &mut report,
        "service.cache_hit_us",
        "us",
        1.0,
        collect(&fresh, &|j| us(j, "service.cache_hit")),
        "RemoteExecutor cache hits",
    );

    let mut fleet = collect(&all, &|j| {
        Some(us(j, "fleet.fleet1")? - us(j, "service.remote")?)
    });
    let n = fleet.len();
    let (p50, p99) = if n == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (fleet.median(), fleet.percentile(99.0))
    };
    let beyond = fleet.beyond(99.0);
    report.add(
        "fleet.overhead_p50_us",
        p50,
        "us",
        format!("FleetExecutor(1) - RemoteExecutor, n={n}"),
    );
    report.add(
        "fleet.overhead_p99_us",
        p99,
        "us",
        if beyond >= TAIL_SUPPORT {
            format!("n={n}, {beyond} samples beyond")
        } else {
            format!("n={n}, only {beyond} samples beyond: indicative only")
        },
    );
    // A fleet wait probes once, then sleeps 10 ms between probes: a wait
    // that long slept at least once.
    let fleet_waits: Vec<f64> = rows.iter().filter_map(|r| us(r.id, "fleet.wait")).collect();
    let slept = fleet_waits.iter().filter(|&&w| w >= 1e4).count();
    report.add_note(
        "fleet.poll_wait_share",
        slept as f64 / fleet_waits.len().max(1) as f64,
        "ratio",
        format!("{slept} of {} fleet waits lasted 10 ms or more", fleet_waits.len()),
    );
    let most = sweep.routed.iter().copied().max().unwrap_or(0);
    let least = sweep.routed.iter().copied().min().unwrap_or(0).max(1);
    report.add(
        "fleet.imbalance",
        most as f64 / least as f64,
        "ratio",
        format!(
            "max/min jobs routed per backend {:?}, sweep of {}",
            sweep.routed, sweep.jobs
        ),
    );
    report.add(
        "trace.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
        format!("in-process rungs: traced {traced_s:.4} s vs untraced {untraced_s:.4} s"),
    );

    report.add_note(
        "simulator.packed_lane_jobs",
        packed as f64,
        "count",
        format!("of {} jobs", rows.len()),
    );
    report.add_note(
        "simulator.generic_lane_jobs",
        (rows.len() - planes - packed) as f64,
        "count",
        format!("of {} jobs", rows.len()),
    );
    let sweep_submit = |name: &str| {
        tracer
            .spans()
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| s.nanos() as f64 / 1e3 / sweep.jobs as f64)
    };
    report.add_note(
        "exec.submit_sweep_us",
        sweep_submit("exec.submit_sweep"),
        "us",
        format!("per job, LocalExecutor sweep of {}", sweep.jobs),
    );
    report.add_note(
        "fleet.submit_sweep_us",
        sweep_submit("fleet.submit_sweep"),
        "us",
        format!("per job, two-backend fleet sweep of {}", sweep.jobs),
    );
    report.add_note(
        "fleet.steals",
        sweep.steals as f64,
        "count",
        "two-backend fleet sweep".into(),
    );
    report.add_note(
        "fleet.reroutes",
        sweep.reroutes as f64,
        "count",
        "two-backend fleet sweep".into(),
    );
    for (name, (count, self_ns)) in tracer.self_times() {
        report.add_note(
            format!("self.{name}_ms"),
            self_ns as f64 / 1e6,
            "ms",
            format!("self time summed over {count} spans"),
        );
    }
    report
}
