//! The untraced run: each workload driven through the public API for the
//! requested time, every outcome checked against its reference, and the
//! end-to-end metrics computed from exact samples.

use crate::report::{Report, Samples, TAIL_SUPPORT};
use crate::stack::{peak_rss_mib, reference, references, Backends};
use crate::workloads::{big_grid_pool, sweep_batch, Job, Rng, SmallStream, Workload};
use ctori_engine::{Executor, RunOutcome, RunSpec, Runner, SubmitOptions};
use std::time::{Duration, Instant};

/// What one run produced: its metrics and its correctness tally.
pub struct RunResult {
    /// The metrics, in report order.
    pub report: Report,
    /// Jobs attempted in the timed window.
    pub attempted: u64,
    /// Jobs that errored or whose outcome differed from the reference.
    pub failed: u64,
    /// Every correctness problem found, for the error output.
    pub problems: Vec<String>,
}

/// Set-ups timed per `served-small` run; their median is `setup_s`.
const SETUPS: usize = 9;

/// A `big-grid` run sets up again before every this many jobs.  Nine
/// set-ups back to back took a second and saw the host's load at one
/// moment only; their median moved by half between runs.
const BIG_SETUP_EVERY: usize = 3;

/// The `served-sweep` tail percentile: the highest with ten of the
/// hundred-odd batches of a run beyond it.
const SWEEP_TAIL: f64 = 90.0;

/// The `served-small` tail percentile behind `latency_tail_ms`.
const SERVED_TAIL: f64 = 99.0;

/// Small specs sent per block; references for a block are computed
/// before it, outside the timed window.
const SMALL_BLOCK: usize = 256;

/// A warm-up job run after set-up and before timing, with a shape no
/// workload generates, so it can never be a cache hit for them.
const WARM_SMALL: &str = "topology: toroidal-mesh 24x24\nrule: smp\n\
                          seed: density color=3 palette=3 fraction=0.4 rng=1\n";

/// The job that ends a `big-grid` set-up: one of the workload's sizes,
/// so set-up pays the run setup (simulator build, seeding, outcome text)
/// that every timed job pays, and its first run faults in the memory
/// later runs reuse.
const WARM_BIG: &str = "topology: toroidal-mesh 1024x1024\nrule: smp\n\
                        options: max-rounds=4 threads=auto\n\
                        seed: density color=3 palette=3 fraction=0.3 rng=1\n";

/// Runs one workload untraced.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let budget = Duration::from_secs(seconds);
    match workload {
        Workload::ServedSmall => served_small(seed, budget),
        Workload::BigGrid => big_grid(seed, budget),
        Workload::ServedSweep => served_sweep(seed, budget),
    }
}

/// Parses generated spec texts outside any timed window (for references).
pub fn parse_all(jobs: &[Job]) -> Vec<RunSpec> {
    jobs.iter()
        .map(|job| RunSpec::from_text(&job.text).expect("generated spec text parses"))
        .collect()
}

/// Cells × rounds of a finished run: the work the run stood for.
pub fn cell_rounds(outcome: &RunOutcome) -> f64 {
    let grid = &outcome.final_coloring;
    (grid.rows() * grid.cols()) as f64 * outcome.rounds as f64
}

/// Per-job accounting shared by every workload.
#[derive(Default)]
struct Tally {
    latency_ms: Samples,
    completed: u64,
    cell_rounds: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Completed work per second, as each workload measures it.
struct Throughput {
    jobs_per_s: f64,
    cell_rounds_per_s: f64,
    /// How the rates were taken, for people.
    note: String,
}

impl Throughput {
    /// `jobs` jobs and `cell_rounds` cell-rounds in `seconds`.
    fn over(jobs: f64, cell_rounds: f64, seconds: f64, how: &str) -> Throughput {
        Throughput {
            jobs_per_s: jobs / seconds,
            cell_rounds_per_s: cell_rounds / seconds,
            note: format!("{jobs} jobs, {cell_rounds:.4e} cell-rounds in {seconds:.4} s, {how}"),
        }
    }
}

impl Tally {
    /// Records one job: its latency and whether its outcome matched.
    fn record(
        &mut self,
        latency: Duration,
        got: Result<&RunOutcome, String>,
        reference: &RunOutcome,
    ) {
        let ok = self.check(got, reference);
        self.push_latency(latency, ok);
    }

    /// Counts one job and whether its outcome matched, without a latency.
    fn check(&mut self, got: Result<&RunOutcome, String>, reference: &RunOutcome) -> bool {
        self.attempted += 1;
        match got {
            Ok(outcome) if outcome == reference => {
                self.completed += 1;
                self.cell_rounds += cell_rounds(reference);
                true
            }
            other => {
                self.failed += 1;
                if self.problems.len() < 8 {
                    self.problems.push(match other {
                        Ok(_) => "outcome differs from its reference".into(),
                        Err(e) => format!("job failed: {e}"),
                    });
                }
                false
            }
        }
    }

    /// Adds one latency sample; a failed request misses every latency
    /// limit.
    fn push_latency(&mut self, latency: Duration, ok: bool) {
        self.latency_ms.push(if ok {
            latency.as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        });
    }

    /// Whether enough samples lie beyond the `tail` percentile to report
    /// it; every workload runs on past its time until they do.
    fn tail_supported(&self, tail: f64) -> bool {
        self.latency_ms.beyond(tail) >= TAIL_SUPPORT
    }

    /// The end-to-end metrics.  `tail` is the workload's fixed tail
    /// percentile.
    fn finish(mut self, setups: &mut Samples, tail: f64, throughput: Throughput) -> RunResult {
        let mut report = Report::default();
        let n = self.latency_ms.len();
        report.add(
            "setup_s",
            setups.median(),
            "s",
            format!(
                "median of {} set-ups, {:.4}–{:.4} s",
                setups.len(),
                setups.percentile(0.0),
                setups.percentile(100.0)
            ),
        );
        report.add(
            "latency_p50_ms",
            self.latency_ms.median(),
            "ms",
            format!("n={n}"),
        );
        let beyond = self.latency_ms.beyond(tail);
        let tail_ms = self.latency_ms.percentile(tail);
        report.add(
            "latency_tail_ms",
            tail_ms,
            "ms",
            format!("p{tail} of n={n}, {beyond} samples beyond"),
        );
        report.add("jobs_per_s", throughput.jobs_per_s, "1/s", throughput.note);
        report.add(
            "gcell_rounds_per_s",
            throughput.cell_rounds_per_s / 1e9,
            "Gcell/s",
            format!("{} jobs completed", self.completed),
        );
        report.add(
            "peak_rss_mib",
            peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
            "VmHWM of the benchmark process".into(),
        );
        report.add_note(
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            format!("{} of {} attempted", self.failed, self.attempted),
        );
        RunResult {
            report,
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
        }
    }
}

/// Times one set-up of `backends` backends plus the executor `connect`
/// puts in front of them.
fn timed_setup<E>(
    backends: usize,
    connect: impl Fn(&Backends) -> E,
    setups: &mut Samples,
) -> (Backends, E) {
    let started = Instant::now();
    let stack = Backends::start(backends);
    let executor = connect(&stack);
    setups.push(started.elapsed().as_secs_f64());
    (stack, executor)
}

/// `served-small` goes through a `RemoteExecutor`, whose wait blocks on
/// the server.  A `FleetExecutor` wait probes once and then sleeps out
/// its 10 ms poll, so whether a small job beat that first probe decided
/// its latency, and how often it did followed the load on the host: p50
/// and jobs/s moved by 2.6× between sets of runs of the same code.  The
/// fleet rung of the traced run still measures that poll.
fn served_small(seed: u64, budget: Duration) -> RunResult {
    // Set-up ends once the executor has served a first job, as a fleet
    // set-up ends with its first round trip to each backend.
    let connect = |stack: &Backends| {
        let remote = stack.remote();
        let warm = RunSpec::from_text(WARM_SMALL).expect("warm-up spec");
        remote
            .submit(&warm, SubmitOptions::default())
            .and_then(|mut h| h.wait())
            .expect("warm-up job");
        remote
    };
    let mut setups = Samples::new();
    for _ in 1..SETUPS {
        let (stack, remote) = timed_setup(1, connect, &mut setups);
        drop(remote);
        stack.stop();
    }
    let (stack, remote) = timed_setup(1, connect, &mut setups);
    let before = stack.stats(0).cache;

    let mut tally = Tally::default();
    let mut wall = Duration::ZERO;
    // Rates per block: load from outside the process comes in bursts,
    // which slow a few blocks, not most of them.
    let (mut job_rates, mut work_rates) = (Samples::new(), Samples::new());
    let mut stream = SmallStream::new(seed);
    let (mut repeats, mut fresh) = (0u64, 0u64);
    let mut done = false;
    while !done {
        let block: Vec<Job> = stream.by_ref().take(SMALL_BLOCK).collect();
        let refs = references(&parse_all(&block));
        let (jobs_before, work_before) = (tally.completed, tally.cell_rounds);
        let block_start = Instant::now();
        for (job, reference) in block.iter().zip(&refs) {
            let started = Instant::now();
            let result = RunSpec::from_text(&job.text)
                .map_err(|e| e.to_string())
                .and_then(|spec| {
                    remote
                        .submit(&spec, SubmitOptions::default())
                        .and_then(|mut handle| handle.wait())
                        .map_err(|e| e.to_string())
                });
            let latency = started.elapsed();
            tally.record(latency, result.as_deref().map_err(Clone::clone), reference);
            if job.repeat {
                repeats += 1;
            } else {
                fresh += 1;
            }
            if wall + block_start.elapsed() >= budget && tally.tail_supported(SERVED_TAIL) {
                done = true;
                break;
            }
        }
        let block_s = block_start.elapsed();
        wall += block_s;
        job_rates.push((tally.completed - jobs_before) as f64 / block_s.as_secs_f64());
        work_rates.push((tally.cell_rounds - work_before) / block_s.as_secs_f64());
    }

    // Every repeat, and only a repeat, must have been a cache hit.
    let after = stack.stats(0).cache;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    if hits != repeats || misses != fresh {
        tally.problems.push(format!(
            "cache saw {hits} hits / {misses} misses for {repeats} repeats / {fresh} fresh specs"
        ));
    }
    drop(remote);
    stack.stop();
    let throughput = Throughput {
        jobs_per_s: job_rates.median(),
        cell_rounds_per_s: work_rates.median(),
        note: format!(
            "median of {} blocks of up to {SMALL_BLOCK} jobs over {:.4} s, closed loop, one client",
            job_rates.len(),
            wall.as_secs_f64()
        ),
    };
    let mut result = tally.finish(&mut setups, SERVED_TAIL, throughput);
    result.report.add_note(
        "service.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        format!("generated repeat share {repeats}/{}", repeats + fresh),
    );
    result
}

fn big_grid(seed: u64, budget: Duration) -> RunResult {
    // The in-process stack is a runner; like a served set-up, which ends
    // with one round trip, set-up ends once the runner has served a job.
    let mut setups = Samples::new();
    let set_up = |setups: &mut Samples| {
        let started = Instant::now();
        let runner = Runner::new();
        run_text(&runner, WARM_BIG).expect("warm-up job");
        setups.push(started.elapsed().as_secs_f64());
        runner
    };
    let mut runner = set_up(&mut setups);
    let pool = big_grid_pool(seed);
    let specs = parse_all(&pool);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let mut rng = Rng::new(seed, 20);
    let mut tally = Tally::default();
    let mut job_s = vec![Samples::new(); pool.len()];
    let mut work = vec![0.0; pool.len()];
    let mut passes = 0;
    let measuring = Instant::now();
    // Whole passes only, so every run times the same mix of specs.
    while measuring.elapsed() < budget || !tally.tail_supported(75.0) {
        rng.shuffle(&mut order);
        for (n, &i) in order.iter().enumerate() {
            if n % BIG_SETUP_EVERY == BIG_SETUP_EVERY - 1 {
                runner = set_up(&mut setups);
            }
            // Each reference is computed just before its job, outside the
            // timed window, and dropped after the check: at most one is
            // resident, so the peak memory is the program's, not the
            // benchmark's store of references.
            let reference = reference(&specs[i]);
            work[i] = cell_rounds(&reference);
            let started = Instant::now();
            let result = run_text(&runner, &pool[i].text);
            let latency = started.elapsed();
            job_s[i].push(latency.as_secs_f64());
            tally.record(latency, result.as_ref().map_err(Clone::clone), &reference);
        }
        passes += 1;
    }
    // The rates are those of one pass at each spec's median job time:
    // load from outside the process comes in bursts of a second or two,
    // which slow a few jobs of a pass, not the same spec in most passes.
    let pass_s: f64 = job_s.iter_mut().map(Samples::median).sum();
    let throughput = Throughput::over(
        pool.len() as f64,
        work.iter().sum(),
        pass_s,
        &format!("one pass at each spec's median job time over {passes} passes"),
    );
    tally.finish(&mut setups, 75.0, throughput)
}

/// One in-process job: spec text in, `Runner::execute`, outcome text
/// out, parsed back.
fn run_text(runner: &Runner, text: &str) -> Result<RunOutcome, String> {
    let spec = RunSpec::from_text(text).map_err(|e| e.to_string())?;
    let outcome = runner.execute(&spec);
    RunOutcome::from_text(&outcome.to_text()).map_err(|e| e.to_string())
}

fn served_sweep(seed: u64, budget: Duration) -> RunResult {
    let batch = sweep_batch(seed);
    let refs = references(&parse_all(&batch));
    let mut setups = Samples::new();
    let mut tally = Tally::default();
    let mut wall = Duration::ZERO;
    // A sweep's latency is the caller's: `submit_sweep` until its last
    // outcome is in.  Fresh backends per batch keep every batch
    // cache-cold.
    while wall < budget || !tally.tail_supported(SWEEP_TAIL) {
        let (stack, fleet) = timed_setup(2, Backends::fleet, &mut setups);
        let started = Instant::now();
        let specs: Result<Vec<RunSpec>, String> = batch
            .iter()
            .map(|job| RunSpec::from_text(&job.text).map_err(|e| e.to_string()))
            .collect();
        match specs.and_then(|specs| {
            fleet
                .submit_sweep(&specs, SubmitOptions::default())
                .map_err(|e| e.to_string())
        }) {
            Ok(handles) => {
                let mut all_ok = true;
                for (mut handle, reference) in handles.into_iter().zip(&refs) {
                    let result = handle.wait().map_err(|e| e.to_string());
                    all_ok &= tally.check(result.as_deref().map_err(Clone::clone), reference);
                }
                tally.push_latency(started.elapsed(), all_ok);
            }
            Err(e) => {
                for reference in &refs {
                    tally.check(Err(e.clone()), reference);
                }
                tally.push_latency(started.elapsed(), false);
            }
        }
        wall += started.elapsed();
        drop(fleet);
        stack.stop();
    }
    // Every batch is the same work, so the median batch time gives rates
    // that a burst of load from outside the process does not move.
    let throughput = Throughput::over(
        batch.len() as f64,
        refs.iter().map(cell_rounds).sum(),
        tally.latency_ms.median() / 1e3,
        &format!("median batch of {}", tally.latency_ms.len()),
    );
    tally.finish(&mut setups, SWEEP_TAIL, throughput)
}
