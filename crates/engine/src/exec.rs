//! One execution API: submit a [`RunSpec`], hold a [`JobHandle`].
//!
//! The workspace used to have two disjoint ways to run the same spec —
//! the blocking [`crate::runner::Runner`] in-process, and the
//! verb-per-method service client over TCP — so moving a workload from a
//! laptop to a server meant rewriting the caller.  This module is the
//! backend-agnostic surface both sides now share:
//!
//! * [`Executor`] — `submit` / `submit_sweep` / `drain` over any backend;
//! * [`JobHandle`] — the caller's grip on one submitted job: `status()`,
//!   `wait()`, `try_outcome()`, `cancel()`, and a **polled stream** of
//!   typed [`RunEvent`]s (`started`, `progress`, `finished`, `failed`,
//!   `cancelled`), each with a `key: value` text round-trip like every
//!   other wire type in the workspace;
//! * [`LocalExecutor`] — the in-engine backend: a persistent worker pool
//!   with a bounded priority queue, queued-only cancellation and
//!   graceful drain (the `ctori-service` server drives it directly, with
//!   its result cache plugged in through [`OutcomeCache`]);
//! * `RemoteExecutor` (in `ctori-service`) — the same trait over a TCP
//!   connection, streaming progress through the `WATCH` protocol verb.
//!
//! The same caller code runs unchanged against either backend:
//!
//! ```
//! use ctori_engine::exec::{Executor, LocalExecutor, LocalExecutorConfig, SubmitOptions};
//! use ctori_engine::{RuleSpec, RunSpec, SeedSpec, TopologySpec};
//! use ctori_coloring::Color;
//!
//! fn converged_rounds(exec: &dyn Executor, spec: &RunSpec) -> usize {
//!     let mut handle = exec.submit(spec, SubmitOptions::default()).unwrap();
//!     handle.wait().unwrap().rounds
//! }
//!
//! let pool = LocalExecutor::start(LocalExecutorConfig::default());
//! let spec = RunSpec::new(
//!     TopologySpec::toroidal_mesh(8, 8),
//!     RuleSpec::parse("smp").unwrap(),
//!     SeedSpec::nodes(Color::new(1), Color::new(2), [0usize]),
//! );
//! assert!(converged_rounds(&pool, &spec) > 0);
//! pool.shutdown();
//! ```
//!
//! Each job keeps **one log**.  It holds the instants the job was queued
//! and claimed, and its events, each stamped when it was logged.  Progress
//! events are published by a **sampling observer**: while a job runs,
//! every `progress_every`-th round (an [`crate::EngineOptions`] knob;
//! `auto` = every round) is appended as a [`RunEvent::Progress`] carrying
//! the round number, the number of vertices that changed, and the colour
//! histogram.  Everything per-job reads this log:
//!
//! * handles poll it ([`JobHandle::poll_events`]), and the service
//!   serves it to remote watchers through `WATCH <id> [since-round]`
//!   ([`LocalExecutor::events_since`]);
//! * [`LocalExecutor::job_trace`] renders it as a [`JobTrace`] for the
//!   `TRACE <id>` verb (queued → claimed → progress… → terminal);
//! * the `exec.queue.wait-us` histogram takes claimed − queued from it.
//!
//! The log keeps the most recent [`PROGRESS_RETAIN`] progress events
//! while the job runs and [`TERMINAL_PROGRESS_RETAIN`] once it is
//! terminal, plus the started and terminal events always, so a
//! million-round job cannot grow server memory without bound.

use crate::metrics::ColorHistogram;
use crate::observe::{Observer, StepView};
use crate::runner::{RunOutcome, Runner};
use crate::simulator::Termination;
use crate::spec::{RunSpec, SpecKey};
use crate::sweep::default_threads;
use crate::telemetry::clock::monotonic_nanos;
use crate::telemetry::{Counter, Gauge, Histogram, JobTrace, Registry, SpanEvent, SpanKind};
use ctori_coloring::Color;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many [`RunEvent::Progress`] entries a job's log retains while the
/// job is **in flight**.  The started event and the terminal
/// event are kept in addition, so a watcher always sees the stream open
/// and close even after drops.
pub const PROGRESS_RETAIN: usize = 1024;

/// How many [`RunEvent::Progress`] entries a **terminal** job's log
/// keeps.  Once the terminal event is pushed the log is truncated to
/// this newest tail: live watchers have already drained the stream, and
/// keeping full logs for every record in the retention window would let
/// memory grow to `retain_jobs × PROGRESS_RETAIN` events.
pub const TERMINAL_PROGRESS_RETAIN: usize = 32;

/// How often [`JobHandle::wait_observed`] polls for fresh events.
const EVENT_POLL: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// Job identity: priority, lifecycle state, status snapshot
// ---------------------------------------------------------------------------

/// Scheduling priority of a submitted job.  Higher priorities are
/// dequeued first; within one priority, jobs run in submission order
/// (FIFO).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Background work: dequeued only when nothing else is waiting.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Jumps ahead of all queued normal/low jobs.
    High,
}

impl Priority {
    /// Parses the wire token produced by the `Display` impl.
    pub fn parse_token(s: &str) -> Option<Priority> {
        match s {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

/// Lifecycle state of a job, identical across backends:
///
/// ```text
/// queued ──▶ running ──▶ done
///    │           └─────▶ failed
///    └─────▶ cancelled
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Waiting in the submission queue.
    Queued,
    /// Claimed by a worker and executing.
    Running,
    /// Finished; the outcome is available.
    Done,
    /// The execution panicked or was otherwise aborted.
    Failed,
    /// Cancelled while still queued; it will never run.
    Cancelled,
}

impl JobState {
    /// Whether the state is final (`done`, `failed` or `cancelled`).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Parses the wire token produced by the `Display` impl.
    pub fn parse_token(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        })
    }
}

/// A point-in-time snapshot of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobStatus {
    /// Where the job is in its lifecycle.
    pub state: JobState,
    /// Whether a `done` outcome was served from a result cache instead of
    /// a fresh execution.
    pub from_cache: bool,
}

/// Per-submission options (everything scenario-independent; scenario
/// policy lives in [`crate::EngineOptions`] inside the spec).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Queue priority of the submission.
    pub priority: Priority,
}

impl SubmitOptions {
    /// Options at the given priority.
    pub fn at(priority: Priority) -> Self {
        SubmitOptions { priority }
    }
}

// ---------------------------------------------------------------------------
// RunEvent
// ---------------------------------------------------------------------------

/// One typed progress event of a running (or finished) job.
///
/// Events render to a single `event: …` line ([`RunEvent::to_text`]) and
/// parse back ([`RunEvent::from_text`]), so a stream of them travels in a
/// protocol payload block exactly like specs and outcomes do.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RunEvent {
    /// The job was claimed by a worker and its simulator is built.
    Started {
        /// Number of vertices in the materialised topology.
        nodes: usize,
    },
    /// A sampled synchronous round completed.
    Progress {
        /// The round that just completed (1-based, strictly increasing
        /// within one job's stream).
        round: usize,
        /// Number of vertices that changed colour this round.
        changed: usize,
        /// The colour populations after the round.
        histogram: ColorHistogram,
    },
    /// The run terminated normally; the outcome is available.
    Finished {
        /// Total rounds executed.
        rounds: usize,
        /// Why the run stopped.
        termination: Termination,
    },
    /// The execution failed (e.g. panicked).
    Failed {
        /// The failure message.
        message: String,
    },
    /// The job was cancelled while still queued.
    Cancelled,
}

impl RunEvent {
    /// Whether this event closes a job's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            RunEvent::Finished { .. } | RunEvent::Failed { .. } | RunEvent::Cancelled
        )
    }

    /// The round of a progress event (`None` for lifecycle events).
    pub fn progress_round(&self) -> Option<usize> {
        match self {
            RunEvent::Progress { round, .. } => Some(*round),
            _ => None,
        }
    }

    /// Renders the event as one `event: …` line (no trailing newline).
    pub fn to_text(&self) -> String {
        match self {
            RunEvent::Started { nodes } => format!("event: started nodes={nodes}"),
            RunEvent::Progress {
                round,
                changed,
                histogram,
            } => {
                let counts: Vec<String> = histogram
                    .counts
                    .iter()
                    .map(|(c, n)| format!("{}:{n}", c.index()))
                    .collect();
                format!(
                    "event: progress round={round} changed={changed} histogram={}",
                    if counts.is_empty() {
                        "-".to_string()
                    } else {
                        counts.join(",")
                    }
                )
            }
            RunEvent::Finished {
                rounds,
                termination,
            } => format!(
                "event: finished rounds={rounds} termination={}",
                termination_token(*termination)
            ),
            RunEvent::Failed { message } => {
                format!("event: failed message={}", message.replace('\n', "; "))
            }
            RunEvent::Cancelled => "event: cancelled".to_string(),
        }
    }

    /// Parses one `event: …` line produced by [`RunEvent::to_text`].
    pub fn from_text(line: &str) -> Result<RunEvent, EventParseError> {
        let bad = |detail: String| EventParseError { detail };
        let rest = line
            .trim()
            .strip_prefix("event:")
            .ok_or_else(|| bad(format!("expected `event: …`, got {line:?}")))?
            .trim_start();
        let head = rest.split_whitespace().next().unwrap_or("");
        let field = |key: &str| -> Result<&str, EventParseError> {
            rest.split_whitespace()
                .find_map(|token| token.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
                .ok_or_else(|| bad(format!("{head} event is missing `{key}=`")))
        };
        let number = |key: &str| -> Result<usize, EventParseError> {
            field(key)?
                .parse()
                .map_err(|_| bad(format!("{head} event has a malformed `{key}=`")))
        };
        match head {
            "started" => Ok(RunEvent::Started {
                nodes: number("nodes")?,
            }),
            "progress" => {
                let round = number("round")?;
                let mut counts = Vec::new();
                let histogram = field("histogram")?;
                if histogram != "-" {
                    for pair in histogram.split(',') {
                        let (color, count) = pair
                            .split_once(':')
                            .ok_or_else(|| bad(format!("malformed histogram entry {pair:?}")))?;
                        let index: u16 = color
                            .parse()
                            .ok()
                            .filter(|&i| i > 0)
                            .ok_or_else(|| bad(format!("{color:?} is not a colour index")))?;
                        let count: usize = count
                            .parse()
                            .map_err(|_| bad(format!("{count:?} is not a count")))?;
                        counts.push((Color::new(index), count));
                    }
                }
                Ok(RunEvent::Progress {
                    round,
                    changed: number("changed")?,
                    histogram: ColorHistogram { round, counts },
                })
            }
            "finished" => Ok(RunEvent::Finished {
                rounds: number("rounds")?,
                termination: termination_from_token(field("termination")?)
                    .ok_or_else(|| bad("finished event has a malformed termination".into()))?,
            }),
            "failed" => {
                let message = rest
                    .split_once("message=")
                    .ok_or_else(|| bad("failed event is missing `message=`".into()))?
                    .1;
                Ok(RunEvent::Failed {
                    message: message.to_string(),
                })
            }
            "cancelled" => Ok(RunEvent::Cancelled),
            other => Err(bad(format!("unknown event kind {other:?}"))),
        }
    }
}

/// Renders a stream of events, one `event: …` line each.
pub fn events_to_text(events: &[RunEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_text());
        out.push('\n');
    }
    out
}

/// Parses a stream of `event: …` lines (blank lines are skipped).
pub fn events_from_text(text: &str) -> Result<Vec<RunEvent>, EventParseError> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(RunEvent::from_text)
        .collect()
}

/// A space-free [`Termination`] token for event lines
/// (`monochromatic:2`, `cycle:4`, `fixed-point`, `round-limit`).
fn termination_token(termination: Termination) -> String {
    match termination {
        Termination::Monochromatic(c) => format!("monochromatic:{}", c.index()),
        Termination::FixedPoint => "fixed-point".into(),
        Termination::Cycle { period } => format!("cycle:{period}"),
        Termination::RoundLimit => "round-limit".into(),
    }
}

fn termination_from_token(token: &str) -> Option<Termination> {
    match token {
        "fixed-point" => return Some(Termination::FixedPoint),
        "round-limit" => return Some(Termination::RoundLimit),
        _ => {}
    }
    let (head, value) = token.split_once(':')?;
    match head {
        "monochromatic" => {
            let index: u16 = value.parse().ok().filter(|&i| i > 0)?;
            Some(Termination::Monochromatic(Color::new(index)))
        }
        "cycle" => Some(Termination::Cycle {
            period: value.parse().ok()?,
        }),
        _ => None,
    }
}

/// Error produced when parsing a [`RunEvent`] from its text form.
#[derive(Clone, Debug, PartialEq)]
pub struct EventParseError {
    /// What was wrong with the input.
    pub detail: String,
}

impl std::fmt::Display for EventParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad run event: {}", self.detail)
    }
}

impl std::error::Error for EventParseError {}

// ---------------------------------------------------------------------------
// ExecError
// ---------------------------------------------------------------------------

/// Anything that can go wrong between a submission and its outcome,
/// backend-agnostic.  Backends attach their own context (the local pool
/// knows states exactly; a remote backend rebuilds these from wire error
/// codes, so a service wrapper may re-attach ids and states).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// The submission queue is at capacity; retry later (`capacity` is
    /// `0` when the backend does not report its bound).
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The executor is draining and accepts no new submissions.
    ShuttingDown,
    /// The job is unknown here (never submitted, or already forgotten by
    /// the terminal-record retention window).
    UnknownJob,
    /// The job has not reached a terminal state yet.
    NotFinished,
    /// The job cannot be cancelled in its current state (only queued jobs
    /// can).
    NotCancellable,
    /// The job's execution failed.
    Failed {
        /// The failure message recorded by the worker.
        message: String,
    },
    /// The job was cancelled before it could run.
    Cancelled,
    /// A wait or a transport operation timed out.
    TimedOut,
    /// A backend-specific failure (transport I/O, protocol, …).
    Backend(String),
    /// The connection to a remote backend dropped mid-conversation.  The
    /// job may still be running (or finished) server-side; routers such as
    /// a fleet coordinator treat this as "evict the backend and resubmit
    /// elsewhere" rather than a job failure.
    BackendLost(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::QueueFull { capacity: 0 } => write!(f, "submission queue full"),
            ExecError::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} jobs)")
            }
            ExecError::ShuttingDown => write!(f, "executor is shutting down"),
            ExecError::UnknownJob => write!(f, "unknown job"),
            ExecError::NotFinished => write!(f, "job is not finished"),
            ExecError::NotCancellable => write!(f, "job is not cancellable"),
            ExecError::Failed { message } => write!(f, "job failed: {message}"),
            ExecError::Cancelled => write!(f, "job was cancelled"),
            ExecError::TimedOut => write!(f, "timed out"),
            ExecError::Backend(detail) => write!(f, "backend error: {detail}"),
            ExecError::BackendLost(detail) => write!(f, "backend connection lost: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

// ---------------------------------------------------------------------------
// Executor / JobHandle
// ---------------------------------------------------------------------------

/// A backend that executes [`RunSpec`]s asynchronously.
///
/// Implementations: [`LocalExecutor`] (in-engine worker pool) and the
/// service crate's `RemoteExecutor` (TCP).  The trait is object-safe so
/// the *same* caller code can be handed either backend as
/// `&dyn Executor`.
pub trait Executor {
    /// Submits one spec; the returned handle tracks the job.
    fn submit(&self, spec: &RunSpec, options: SubmitOptions) -> Result<JobHandle, ExecError>;

    /// Submits a whole sweep atomically (either every spec is queued, in
    /// order, under one priority — or none is).  Handles are in spec
    /// order.
    fn submit_sweep(
        &self,
        specs: &[RunSpec],
        options: SubmitOptions,
    ) -> Result<Vec<JobHandle>, ExecError>;

    /// Releases this executor's hold on its backend once no more
    /// submissions are coming; every already-admitted job still
    /// completes.  For the local pool this blocks until the queue is
    /// empty and the workers are joined; a remote backend merely
    /// detaches (a server is shared infrastructure — admitted jobs
    /// drain server-side, and actually stopping the server is an
    /// explicit, backend-specific operation like
    /// `RemoteExecutor::shutdown_server`).  Safe to call from portable
    /// `&dyn Executor` code against either backend.
    fn drain(&self);
}

/// The backend-specific half of a [`JobHandle`].
///
/// Backends implement this; callers use the handle's inherent methods.
/// All methods take `&mut self` because remote backends drive a
/// connection.
pub trait JobControl: Send {
    /// A short human-readable job label (e.g. the backend's job id).
    fn label(&self) -> String;

    /// The job's lifecycle snapshot.
    fn status(&mut self) -> Result<JobStatus, ExecError>;

    /// Blocks until the job terminates; `None` waits indefinitely.
    /// A timeout expiry surfaces as [`ExecError::NotFinished`].
    fn wait(&mut self, timeout: Option<Duration>) -> Result<Arc<RunOutcome>, ExecError>;

    /// Non-blocking probe: `Ok(None)` while queued or running,
    /// `Ok(Some(outcome))` when done, an error for failed/cancelled.
    fn try_outcome(&mut self) -> Result<Option<Arc<RunOutcome>>, ExecError>;

    /// Cancels the job if it is still queued.
    fn cancel(&mut self) -> Result<(), ExecError>;

    /// Drains the events published since the last poll (possibly empty;
    /// never blocks).
    fn poll_events(&mut self) -> Result<Vec<RunEvent>, ExecError>;
}

/// The caller's grip on one submitted job, backend-agnostic.
///
/// Obtained from [`Executor::submit`]; the same handle code works over
/// the local pool and over TCP.
pub struct JobHandle {
    control: Box<dyn JobControl>,
}

impl JobHandle {
    /// Wraps a backend's control object (used by backend implementations).
    pub fn new(control: Box<dyn JobControl>) -> JobHandle {
        JobHandle { control }
    }

    /// A short human-readable job label (e.g. the backend's job id).
    pub fn label(&self) -> String {
        self.control.label()
    }

    /// The job's lifecycle snapshot.
    pub fn status(&mut self) -> Result<JobStatus, ExecError> {
        self.control.status()
    }

    /// Blocks until the job terminates and returns its outcome.
    pub fn wait(&mut self) -> Result<Arc<RunOutcome>, ExecError> {
        self.control.wait(None)
    }

    /// As [`JobHandle::wait`], giving up after `timeout`
    /// ([`ExecError::NotFinished`] if the job is still pending then).
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Arc<RunOutcome>, ExecError> {
        self.control.wait(Some(timeout))
    }

    /// Non-blocking probe: `Ok(None)` while queued or running,
    /// `Ok(Some(outcome))` when done, an error for failed/cancelled.
    pub fn try_outcome(&mut self) -> Result<Option<Arc<RunOutcome>>, ExecError> {
        self.control.try_outcome()
    }

    /// Cancels the job if it is still queued.
    pub fn cancel(&mut self) -> Result<(), ExecError> {
        self.control.cancel()
    }

    /// Drains the events published since the last poll (possibly empty;
    /// never blocks).
    pub fn poll_events(&mut self) -> Result<Vec<RunEvent>, ExecError> {
        self.control.poll_events()
    }

    /// Waits for the outcome while feeding every event (including the
    /// terminal one) to `on_event` as it is observed — the convenience
    /// loop behind "print live progress" callers.
    pub fn wait_observed(
        &mut self,
        mut on_event: impl FnMut(&RunEvent),
    ) -> Result<Arc<RunOutcome>, ExecError> {
        loop {
            let events = self.poll_events()?;
            let terminal = events.iter().any(RunEvent::is_terminal);
            for event in &events {
                on_event(event);
            }
            if terminal {
                return self.control.wait(None);
            }
            // The handle's cursor may have consumed the terminal event in
            // an *earlier* poll (a prior poll_events call, or a previous
            // wait_observed) — then every further poll is empty and no
            // terminal will ever arrive, so fall back to a status probe
            // rather than spinning forever.
            if events.is_empty() && self.control.status()?.state.is_terminal() {
                return self.control.wait(None);
            }
            std::thread::sleep(EVENT_POLL);
        }
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("label", &self.label())
            .finish()
    }
}

/// The end of a bounded wait, for the timed `wait` of every backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// `timeout` from now.  No timeout is no bound, and so is one too
    /// large to be an instant (a wire request may ask for any number of
    /// milliseconds).
    // Deliberate timing code: wait bounds are wall-clock windows.
    #[allow(clippy::disallowed_methods)]
    pub fn after(timeout: Option<Duration>) -> Deadline {
        Deadline(timeout.and_then(|timeout| Instant::now().checked_add(timeout)))
    }

    /// What is left until the deadline (zero once it has passed), capped
    /// at `cap`; `None` when neither bounds the wait.
    // Deliberate timing code: wait bounds are wall-clock windows.
    #[allow(clippy::disallowed_methods)]
    pub fn left_within(self, cap: Option<Duration>) -> Option<Duration> {
        let left = self
            .0
            .map(|at| at.saturating_duration_since(Instant::now()));
        match (left, cap) {
            (Some(left), Some(cap)) => Some(left.min(cap)),
            (left, cap) => left.or(cap),
        }
    }

    /// Whether the deadline exists and has passed.
    pub fn passed(self) -> bool {
        self.left_within(None).is_some_and(|left| left.is_zero())
    }
}

// ---------------------------------------------------------------------------
// Outcome cache hook
// ---------------------------------------------------------------------------

/// A pluggable result store consulted by [`LocalExecutor`] workers.
///
/// Before executing, a worker probes the store under the spec's
/// [`SpecKey`]; a hit completes the job without touching the engine and
/// marks it [`JobStatus::from_cache`].  Fresh outcomes are published on
/// the way out.  The service layer plugs its content-addressed LRU cache
/// in here; the default is no cache at all.
///
/// Both methods are called from worker threads **outside** the pool's
/// state lock, so an implementation may block (e.g. on its own mutex or
/// on I/O) without stalling submissions or status queries — it only
/// delays the one worker doing the probe.  Implementations must not call
/// back into the pool that owns them.
pub trait OutcomeCache: Send + Sync {
    /// Looks up a memoized outcome for `key`.
    fn probe(&self, key: &SpecKey) -> Option<Arc<RunOutcome>>;

    /// Memoizes a freshly computed outcome.
    fn publish(&self, key: SpecKey, outcome: &Arc<RunOutcome>);
}

// ---------------------------------------------------------------------------
// LocalExecutor: the persistent in-engine worker pool
// ---------------------------------------------------------------------------

/// Sizing knobs of a [`LocalExecutor`].
#[derive(Clone, Copy, Debug)]
pub struct LocalExecutorConfig {
    /// Worker-pool size; `0` = automatic ([`default_threads`]).
    pub workers: usize,
    /// Bound on the number of *queued* jobs; submissions beyond it are
    /// rejected with [`ExecError::QueueFull`].
    pub queue_capacity: usize,
    /// How many **terminal** job records (done/failed/cancelled) to keep
    /// for later status/outcome/event queries.  Beyond the bound the
    /// oldest terminal records are forgotten — their handles then report
    /// [`ExecError::UnknownJob`] — which is what keeps a long-running
    /// pool's memory bounded no matter how many jobs it has run.
    pub retain_jobs: usize,
}

impl Default for LocalExecutorConfig {
    fn default() -> Self {
        LocalExecutorConfig {
            workers: 0,
            queue_capacity: 1024,
            retain_jobs: 4096,
        }
    }
}

/// Queue/job counters of a [`LocalExecutor`] pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Size of the persistent worker pool.
    pub workers: usize,
    /// Jobs currently waiting in the submission queue.
    pub queued: usize,
    /// Jobs currently executing on a worker.
    pub running: usize,
    /// Jobs that reached `done` (fresh executions and cache hits alike).
    pub done: u64,
    /// Jobs that reached `failed`.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs ever admitted to the queue (monotone, unlike `queued`).
    pub submitted: u64,
    /// The deepest the submission queue has ever been.
    pub queued_hwm: usize,
}

/// A queue reference: max-heap on priority, FIFO (smallest sequence
/// number first) within one priority.
#[derive(PartialEq, Eq)]
struct QueueRef {
    priority: Priority,
    seq: std::cmp::Reverse<u64>,
    id: u64,
}

impl Ord for QueueRef {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, self.seq).cmp(&(other.priority, other.seq))
    }
}

impl PartialOrd for QueueRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A cursor into one job's log (each handle owns one, so clones of a
/// stream drain independently).
#[derive(Clone, Copy, Debug, Default)]
struct EventCursor {
    seen_started: bool,
    /// Absolute index (counting dropped entries) of the next unseen
    /// progress event.
    next_progress: usize,
    seen_terminal: bool,
}

/// An event with the telemetry-clock instant it was logged at.
struct Stamped {
    event: RunEvent,
    at_nanos: u64,
}

/// One job's bounded log: the queued and claimed instants, the started
/// event, the most recent [`PROGRESS_RETAIN`] progress events, and the
/// terminal event.  See the [module docs](self) for its readers.
struct JobLog {
    queued_at: u64,
    claimed_at: Option<u64>,
    started: Option<Stamped>,
    progress: VecDeque<Stamped>,
    /// Progress events evicted by the retention bound (absolute index of
    /// `progress[0]` is exactly this).
    dropped: usize,
    terminal: Option<Stamped>,
}

impl JobLog {
    fn new(queued_at: u64) -> JobLog {
        JobLog {
            queued_at,
            claimed_at: None,
            started: None,
            progress: VecDeque::new(),
            dropped: 0,
            terminal: None,
        }
    }

    /// Stamps the claim; returns how long the job waited in the queue.
    fn claim(&mut self, at_nanos: u64) -> u64 {
        self.claimed_at = Some(at_nanos);
        at_nanos.saturating_sub(self.queued_at)
    }

    fn push(&mut self, event: RunEvent, at_nanos: u64) {
        let stamped = Stamped { event, at_nanos };
        match &stamped.event {
            RunEvent::Started { .. } => self.started = Some(stamped),
            RunEvent::Progress { .. } => {
                if self.progress.len() >= PROGRESS_RETAIN {
                    self.progress.pop_front();
                    self.dropped += 1;
                }
                self.progress.push_back(stamped);
            }
            _ => {
                self.terminal = Some(stamped);
                // The stream is closed: shrink to the terminal tail so a
                // full retention window of finished jobs stays small.
                while self.progress.len() > TERMINAL_PROGRESS_RETAIN {
                    self.progress.pop_front();
                    self.dropped += 1;
                }
            }
        }
    }

    /// The events a round-based watcher has not seen yet: everything when
    /// `after` is `None`, otherwise the progress events with `round >
    /// after` — plus the terminal event whenever one exists, so a
    /// stream's last reply always closes it.
    fn since_round(&self, after: Option<usize>) -> Vec<RunEvent> {
        let mut out = Vec::new();
        if after.is_none() {
            out.extend(self.started.as_ref().map(|s| s.event.clone()));
        }
        out.extend(
            self.progress
                .iter()
                .map(|s| &s.event)
                .filter(|e| after.is_none_or(|a| e.progress_round().is_some_and(|r| r > a)))
                .cloned(),
        );
        out.extend(self.terminal.as_ref().map(|s| s.event.clone()));
        out
    }

    /// The events a cursor-based poller has not seen yet, advancing the
    /// cursor.
    fn poll(&self, cursor: &mut EventCursor) -> Vec<RunEvent> {
        let mut out = Vec::new();
        if !cursor.seen_started {
            if let Some(started) = &self.started {
                out.push(started.event.clone());
                cursor.seen_started = true;
            }
        }
        let skip = cursor.next_progress.saturating_sub(self.dropped);
        out.extend(self.progress.iter().skip(skip).map(|s| s.event.clone()));
        cursor.next_progress = self.dropped + self.progress.len();
        if !cursor.seen_terminal {
            if let Some(terminal) = &self.terminal {
                out.push(terminal.event.clone());
                cursor.seen_terminal = true;
            }
        }
        out
    }

    /// The `TRACE` view: the queued and claimed instants, then one span
    /// per retained progress event and the terminal event.
    fn trace(&self) -> JobTrace {
        let span = |kind, at_nanos| SpanEvent { kind, at_nanos };
        let mut spans = vec![span(SpanKind::Queued, self.queued_at)];
        spans.extend(self.claimed_at.map(|at| span(SpanKind::Claimed, at)));
        for Stamped { event, at_nanos } in self.progress.iter().chain(&self.terminal) {
            let kind = match event {
                RunEvent::Progress { round, .. } => SpanKind::Progress {
                    round: *round as u64,
                },
                RunEvent::Finished { .. } => SpanKind::Done,
                RunEvent::Failed { .. } => SpanKind::Failed,
                RunEvent::Cancelled => SpanKind::Cancelled,
                RunEvent::Started { .. } => continue, // kept in `started`
            };
            spans.push(span(kind, *at_nanos));
        }
        JobTrace::new(spans, self.dropped as u64)
    }
}

struct JobRecord {
    spec: Option<RunSpec>, // taken by the worker that runs the job
    /// The cache address — computed at submission only when the pool
    /// actually has an [`OutcomeCache`], so a cacheless pool never pays
    /// for spec serialization + hashing.
    key: Option<SpecKey>,
    state: JobState,
    from_cache: bool,
    outcome: Option<Arc<RunOutcome>>,
    error: Option<String>,
    /// The job's log, behind its **own** lock: the in-flight publisher
    /// appends sampled progress through this `Arc` without ever touching
    /// the pool's state mutex, so per-round publishing never serializes
    /// the other workers or submitters.  Lock order where both are held
    /// is always pool state → job log.
    log: Arc<Mutex<JobLog>>,
}

#[derive(Default)]
struct Counters {
    done: u64,
    failed: u64,
    cancelled: u64,
}

struct PoolState {
    queue: BinaryHeap<QueueRef>,
    queued: usize, // queue entries that are still in state Queued
    running: usize,
    /// Extra pool slots lent to running jobs as step-threads: a job
    /// stepping with `T` threads counts as `T` slots (`1` in `running`,
    /// `T - 1` here), so band-parallel runs never oversubscribe the pool.
    borrowed: usize,
    jobs: HashMap<u64, JobRecord>,
    /// Terminal job ids, oldest first — the retention window.
    terminal_order: VecDeque<u64>,
    counters: Counters,
    next_id: u64,
    next_seq: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when work is queued or shutdown begins (workers wait).
    work_ready: Condvar,
    /// Signalled when any job reaches a terminal state (waiters wait).
    job_done: Condvar,
    queue_capacity: usize,
    retain_jobs: usize,
    workers: usize,
    cache: Option<Arc<dyn OutcomeCache>>,
    /// The pool's metrics registry; exposed through
    /// [`LocalExecutor::telemetry`] so embedding layers (the service's
    /// server) can add their own instruments to the same exposition.
    telemetry: Arc<Registry>,
    /// Handles pre-registered at pool start, so the submit/claim/finish
    /// hot paths never touch the registry's map lock.
    metrics: ExecMetrics,
}

/// The executor's pre-registered instruments (see [`Shared::metrics`]).
struct ExecMetrics {
    /// `exec.jobs.submitted`: jobs ever admitted to the queue.
    jobs_submitted: Arc<Counter>,
    /// `exec.queue.depth-hwm`: deepest the queue has ever been.
    queue_depth_hwm: Arc<Gauge>,
    /// `exec.queue.wait-us`: microseconds from admission to claim.
    queue_wait_us: Arc<Histogram>,
    /// `exec.job.run-us`: microseconds from claim to terminal state
    /// (cache hits included — they record their probe time).
    job_run_us: Arc<Histogram>,
}

impl ExecMetrics {
    fn register(registry: &Registry) -> ExecMetrics {
        ExecMetrics {
            jobs_submitted: registry.counter("exec.jobs.submitted"),
            queue_depth_hwm: registry.gauge("exec.queue.depth-hwm"),
            queue_wait_us: registry.histogram("exec.queue.wait-us"),
            job_run_us: registry.histogram("exec.job.run-us"),
        }
    }
}

/// Marks a job terminal and forgets the oldest terminal records beyond
/// the retention bound.
fn record_terminal(state: &mut PoolState, retain: usize, id: u64) {
    state.terminal_order.push_back(id);
    while state.terminal_order.len() > retain {
        if let Some(old) = state.terminal_order.pop_front() {
            state.jobs.remove(&old);
        }
    }
}

/// The in-engine [`Executor`] backend: a persistent worker pool over a
/// bounded priority queue.  See the [module docs](self).
///
/// The service's TCP server drives this pool directly, adding a result
/// cache and wire-protocol ids.  [`Runner::execute`] and
/// [`Runner::sweep`] remain as blocking conveniences for callers that do
/// not need handles.
pub struct LocalExecutor {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl LocalExecutor {
    /// Starts the worker pool (no result cache).
    pub fn start(config: LocalExecutorConfig) -> Self {
        LocalExecutor::start_with_cache(config, None)
    }

    /// Starts the worker pool with a pluggable result store; workers
    /// probe it before executing and publish fresh outcomes into it.
    pub fn start_with_cache(
        config: LocalExecutorConfig,
        cache: Option<Arc<dyn OutcomeCache>>,
    ) -> Self {
        let workers = if config.workers == 0 {
            default_threads()
        } else {
            config.workers
        };
        let telemetry = Arc::new(Registry::new());
        let metrics = ExecMetrics::register(&telemetry);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: BinaryHeap::new(),
                queued: 0,
                running: 0,
                borrowed: 0,
                jobs: HashMap::new(),
                terminal_order: VecDeque::new(),
                counters: Counters::default(),
                next_id: 1,
                next_seq: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            retain_jobs: config.retain_jobs.max(1),
            workers,
            cache,
            telemetry,
            metrics,
        });
        // The one place unscoped threads are created: the pool owns their
        // lifecycle and joins them on shutdown.
        #[allow(clippy::disallowed_methods)]
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        LocalExecutor {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Size of the worker pool.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Submits one spec; returns the pool-local job id (ids start at 1
    /// and increase in submission order).
    ///
    /// Fails with [`ExecError::QueueFull`] when the queue bound is
    /// reached and [`ExecError::ShuttingDown`] once a drain has begun.
    pub fn enqueue(&self, spec: RunSpec, priority: Priority) -> Result<u64, ExecError> {
        // The canonical key only addresses the result cache, so a
        // cacheless pool skips the serialize-and-digest work entirely.
        let key = self.shared.cache.as_ref().map(|_| spec.canonical_key());
        let mut state = self.lock();
        admit(&state, self.shared.queue_capacity, 1)?;
        let id = enqueue_locked(&mut state, &self.shared.metrics, spec, key, priority);
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// Submits a whole batch atomically: either every spec is queued (in
    /// order, under one priority) or none is.
    pub fn enqueue_batch(
        &self,
        specs: Vec<RunSpec>,
        priority: Priority,
    ) -> Result<Vec<u64>, ExecError> {
        if specs.is_empty() {
            return Err(ExecError::Backend("empty sweep".into()));
        }
        let keys: Vec<Option<SpecKey>> = specs
            .iter()
            .map(|spec| self.shared.cache.as_ref().map(|_| spec.canonical_key()))
            .collect();
        let mut state = self.lock();
        admit(&state, self.shared.queue_capacity, specs.len())?;
        let ids = specs
            .into_iter()
            .zip(keys)
            .map(|(spec, key)| {
                enqueue_locked(&mut state, &self.shared.metrics, spec, key, priority)
            })
            .collect();
        drop(state);
        self.shared.work_ready.notify_all();
        Ok(ids)
    }

    /// The current lifecycle snapshot of a job.
    pub fn job_status(&self, id: u64) -> Result<JobStatus, ExecError> {
        let state = self.lock();
        let record = state.jobs.get(&id).ok_or(ExecError::UnknownJob)?;
        Ok(JobStatus {
            state: record.state,
            from_cache: record.from_cache,
        })
    }

    /// The outcome of a `done` job without blocking.
    ///
    /// Fails with [`ExecError::NotFinished`] while the job is queued or
    /// running, [`ExecError::Failed`] / [`ExecError::Cancelled`] for the
    /// other terminal states.
    pub fn job_outcome(&self, id: u64) -> Result<Arc<RunOutcome>, ExecError> {
        outcome_of(&self.lock(), id)
    }

    /// Blocks until the job reaches a terminal state, then returns as
    /// [`LocalExecutor::job_outcome`].  `timeout` of `None` waits
    /// indefinitely (every admitted job terminates: workers drain the
    /// queue even during shutdown); an expired timeout surfaces as
    /// [`ExecError::NotFinished`].
    pub fn wait_job(
        &self,
        id: u64,
        timeout: Option<Duration>,
    ) -> Result<Arc<RunOutcome>, ExecError> {
        wait_on(&self.shared, id, timeout)
    }

    /// Cancels a job that is still queued.  Running and terminal jobs
    /// are not cancellable.
    pub fn cancel_job(&self, id: u64) -> Result<(), ExecError> {
        cancel_on(&self.shared, id)
    }

    /// The job's buffered events: everything when `after_round` is
    /// `None`, otherwise the progress events beyond that round — plus
    /// the terminal event whenever one exists.  This is the query behind
    /// the service's `WATCH <id> [since-round]` verb.
    pub fn events_since(
        &self,
        id: u64,
        after_round: Option<usize>,
    ) -> Result<Vec<RunEvent>, ExecError> {
        let log = log_of(&self.shared, id)?;
        let log = log.lock().expect("job log poisoned");
        Ok(log.since_round(after_round))
    }

    /// A snapshot of the queue and job counters.
    pub fn stats(&self) -> PoolStats {
        let state = self.lock();
        PoolStats {
            workers: self.shared.workers,
            queued: state.queued,
            running: state.running,
            done: state.counters.done,
            failed: state.counters.failed,
            cancelled: state.counters.cancelled,
            submitted: self.shared.metrics.jobs_submitted.value(),
            queued_hwm: self.shared.metrics.queue_depth_hwm.value() as usize,
        }
    }

    /// The pool's metrics registry.  The executor pre-registers its own
    /// instruments (`exec.jobs.submitted`, `exec.queue.depth-hwm`,
    /// `exec.queue.wait-us`, `exec.job.run-us`); embedding layers may add
    /// theirs to the same registry so one snapshot covers everything.
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// The job's lifecycle trace (queued → claimed → sampled progress →
    /// terminal), rendered from its log.  This is the query behind the
    /// service's `TRACE <id>` verb.
    pub fn job_trace(&self, id: u64) -> Result<JobTrace, ExecError> {
        let log = log_of(&self.shared, id)?;
        let log = log.lock().expect("job log poisoned");
        Ok(log.trace())
    }

    /// Drains the pool: rejects new submissions, lets every queued and
    /// running job finish, and joins the workers.  Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.lock();
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool poisoned"));
        for handle in handles {
            // lint: allow(panic) worker bodies catch_unwind job panics, so a
            // join failure is a pool-loop bug worth crashing shutdown loudly
            handle.join().expect("pool worker panicked");
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.shared.state.lock().expect("pool poisoned")
    }
}

impl Executor for LocalExecutor {
    fn submit(&self, spec: &RunSpec, options: SubmitOptions) -> Result<JobHandle, ExecError> {
        let id = self.enqueue(spec.clone(), options.priority)?;
        Ok(local_handle(&self.shared, id))
    }

    fn submit_sweep(
        &self,
        specs: &[RunSpec],
        options: SubmitOptions,
    ) -> Result<Vec<JobHandle>, ExecError> {
        let ids = self.enqueue_batch(specs.to_vec(), options.priority)?;
        Ok(ids
            .into_iter()
            .map(|id| local_handle(&self.shared, id))
            .collect())
    }

    fn drain(&self) {
        self.shutdown();
    }
}

impl Drop for LocalExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn local_handle(shared: &Arc<Shared>, id: u64) -> JobHandle {
    JobHandle::new(Box::new(LocalHandle {
        shared: Arc::clone(shared),
        id,
        cursor: EventCursor::default(),
    }))
}

/// Checks that `incoming` more jobs may be queued right now.
fn admit(state: &PoolState, capacity: usize, incoming: usize) -> Result<(), ExecError> {
    if state.shutdown {
        return Err(ExecError::ShuttingDown);
    }
    if state.queued + incoming > capacity {
        return Err(ExecError::QueueFull { capacity });
    }
    Ok(())
}

fn enqueue_locked(
    state: &mut PoolState,
    metrics: &ExecMetrics,
    spec: RunSpec,
    key: Option<SpecKey>,
    priority: Priority,
) -> u64 {
    let id = state.next_id;
    state.next_id += 1;
    let seq = state.next_seq;
    state.next_seq += 1;
    state.jobs.insert(
        id,
        JobRecord {
            spec: Some(spec),
            key,
            state: JobState::Queued,
            from_cache: false,
            outcome: None,
            error: None,
            log: Arc::new(Mutex::new(JobLog::new(monotonic_nanos()))),
        },
    );
    state.queue.push(QueueRef {
        priority,
        seq: std::cmp::Reverse(seq),
        id,
    });
    state.queued += 1;
    metrics.jobs_submitted.inc();
    metrics.queue_depth_hwm.record_max(state.queued as u64);
    id
}

/// Blocks until the job reaches a terminal state (shared by
/// [`LocalExecutor::wait_job`] and the handle's `wait`, which may
/// outlive the executor value and therefore works over `&Shared`).
fn wait_on(
    shared: &Shared,
    id: u64,
    timeout: Option<Duration>,
) -> Result<Arc<RunOutcome>, ExecError> {
    let deadline = Deadline::after(timeout);
    let mut state = shared.state.lock().expect("pool poisoned");
    loop {
        match state.jobs.get(&id) {
            None => return Err(ExecError::UnknownJob),
            Some(record) if record.state.is_terminal() => {
                return outcome_of(&state, id);
            }
            Some(_) => {}
        }
        state = match deadline.left_within(None) {
            None => shared.job_done.wait(state).expect("pool poisoned"),
            Some(left) if left.is_zero() => return Err(ExecError::NotFinished),
            Some(left) => {
                shared
                    .job_done
                    .wait_timeout(state, left)
                    .expect("pool poisoned")
                    .0
            }
        };
    }
}

/// Cancels a still-queued job (shared by [`LocalExecutor::cancel_job`]
/// and the handle's `cancel`).
fn cancel_on(shared: &Shared, id: u64) -> Result<(), ExecError> {
    let mut state = shared.state.lock().expect("pool poisoned");
    let record = state.jobs.get_mut(&id).ok_or(ExecError::UnknownJob)?;
    if record.state != JobState::Queued {
        return Err(ExecError::NotCancellable);
    }
    record.state = JobState::Cancelled;
    record.spec = None;
    push_event(&record.log, RunEvent::Cancelled, monotonic_nanos());
    state.queued -= 1;
    state.counters.cancelled += 1;
    record_terminal(&mut state, shared.retain_jobs, id);
    drop(state);
    shared.job_done.notify_all();
    Ok(())
}

fn push_event(log: &Mutex<JobLog>, event: RunEvent, at_nanos: u64) {
    log.lock().expect("job log poisoned").push(event, at_nanos);
}

/// The job's log handle, cloned under the pool lock so the caller reads
/// (and clones large event batches) outside it without stalling the
/// other pool users.
fn log_of(shared: &Shared, id: u64) -> Result<Arc<Mutex<JobLog>>, ExecError> {
    let state = shared.state.lock().expect("pool poisoned");
    let record = state.jobs.get(&id).ok_or(ExecError::UnknownJob)?;
    Ok(Arc::clone(&record.log))
}

fn outcome_of(state: &PoolState, id: u64) -> Result<Arc<RunOutcome>, ExecError> {
    let record = state.jobs.get(&id).ok_or(ExecError::UnknownJob)?;
    match record.state {
        // lint: allow(panic) JobState::Done is only ever set together with
        // the outcome, under the same state lock
        JobState::Done => Ok(record.outcome.clone().expect("done job has an outcome")),
        JobState::Failed => Err(ExecError::Failed {
            message: record.error.clone().unwrap_or_else(|| "unknown".into()),
        }),
        JobState::Cancelled => Err(ExecError::Cancelled),
        _ => Err(ExecError::NotFinished),
    }
}

/// The sampling observer a worker runs with: every `stride`-th round is
/// published into the job's log, where handles, the service's `WATCH`
/// verb and `TRACE` read it *while the run is still in flight*.
///
/// The publisher holds only the job's own log `Arc` — never the pool's
/// state lock — so per-round publishing contends with nothing but the
/// (rare) watcher of this very job.
struct EventPublisher {
    log: Arc<Mutex<JobLog>>,
    stride: usize,
}

impl Observer for EventPublisher {
    fn on_start(&mut self, view: &StepView<'_>) {
        let started = RunEvent::Started {
            nodes: view.node_count(),
        };
        push_event(&self.log, started, monotonic_nanos());
    }

    fn on_round(&mut self, view: &StepView<'_>) {
        if view.round().is_multiple_of(self.stride) {
            let progress = RunEvent::Progress {
                round: view.round(),
                changed: view.changed(),
                histogram: view.histogram(),
            };
            push_event(&self.log, progress, monotonic_nanos());
        }
    }
}

/// The persistent worker body: claim → cache probe → execute (publishing
/// sampled progress) → record.
fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("pool poisoned");
    loop {
        // Claim the next runnable job, skipping stale queue entries: a job
        // cancelled while queued leaves its heap entry behind, and the
        // terminal-retention window may have evicted its record entirely
        // by the time a worker pops the entry.  Neither case may panic —
        // that would poison the state lock and take the whole pool down —
        // so a missing or non-queued record is simply skipped.
        let claimed = loop {
            match state.queue.pop() {
                Some(entry) => {
                    let Some(record) = state.jobs.get_mut(&entry.id) else {
                        continue; // cancelled, then evicted from retention
                    };
                    if record.state != JobState::Queued {
                        continue; // cancelled while queued
                    }
                    // Claim the job before any foreign code runs: the
                    // cache probe happens OUTSIDE the state lock (it may
                    // block), and a Running job cannot be cancelled or
                    // evicted, so the record is guaranteed to survive
                    // until the worker reports back.
                    record.state = JobState::Running;
                    // lint: allow(panic) the spec is taken exactly once, on
                    // this Queued -> Running transition
                    let spec = record.spec.take().expect("queued job still has its spec");
                    let key = record.key;
                    let log = Arc::clone(&record.log);
                    let claimed_at = monotonic_nanos();
                    let waited = log.lock().expect("job log poisoned").claim(claimed_at);
                    shared.metrics.queue_wait_us.record(waited / 1_000);
                    state.queued -= 1;
                    state.running += 1;
                    // A job stepping with T threads counts as T pool
                    // slots: this worker is one, and up to T-1 extra are
                    // borrowed from idle capacity so band-parallel runs
                    // never oversubscribe the pool.  `threads=auto`
                    // resolves pool-aware — to 1 — because the pool is
                    // already saturated with whole jobs.
                    let requested = spec.options.threads;
                    let step_threads = if requested > 1 {
                        let idle = shared
                            .workers
                            .saturating_sub(state.running + state.borrowed);
                        let extra = (requested - 1).min(idle);
                        state.borrowed += extra;
                        1 + extra
                    } else {
                        1
                    };
                    break Some((entry.id, key, spec, log, claimed_at, step_threads));
                }
                None if state.shutdown => break None,
                None => {
                    state = shared.work_ready.wait(state).expect("pool poisoned");
                }
            }
        };
        let Some((id, key, spec, log, claimed_at, step_threads)) = claimed else {
            return; // drained and shutting down
        };
        drop(state);

        // Probe the result store under the canonical key — off the lock,
        // so a slow store stalls only this worker.  A hit completes the
        // job without ever executing.
        let cached = match (&shared.cache, key) {
            (Some(cache), Some(key)) => cache.probe(&key),
            _ => None,
        };
        if let Some(outcome) = cached {
            state = shared.state.lock().expect("pool poisoned");
            state.running -= 1;
            state.borrowed -= step_threads - 1;
            // lint: allow(panic) Running jobs are never cancelled or
            // evicted, so the record outlives the worker
            let record = state.jobs.get_mut(&id).expect("running job exists");
            record.state = JobState::Done;
            record.from_cache = true;
            // Terminal events are pushed under the state lock (nested
            // state → job-log order) so a watcher can never see the
            // stream close while the job still reports as running.
            let done_at = monotonic_nanos();
            let finished = RunEvent::Finished {
                rounds: outcome.rounds,
                termination: outcome.termination,
            };
            push_event(&log, finished, done_at);
            shared
                .metrics
                .job_run_us
                .record(done_at.saturating_sub(claimed_at) / 1_000);
            record.outcome = Some(outcome);
            state.counters.done += 1;
            record_terminal(&mut state, shared.retain_jobs, id);
            shared.job_done.notify_all();
            continue;
        }

        // Execute with the slots reserved at claim time (1 when the spec
        // did not explicitly ask for step-parallelism).  The publisher
        // touches only the job's own log, never the pool lock.
        let stride = spec.options.progress_stride();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut publisher = EventPublisher {
                log: Arc::clone(&log),
                stride,
            };
            Runner::with_threads(step_threads).execute_observed(&spec, &mut publisher)
        }));
        let result = match result {
            Ok(outcome) => {
                let outcome = Arc::new(outcome);
                // Memoize off the lock, before the job is reported done.
                if let (Some(cache), Some(key)) = (&shared.cache, key) {
                    cache.publish(key, &outcome);
                }
                Ok(outcome)
            }
            Err(panic) => Err(panic_message(panic.as_ref())),
        };

        state = shared.state.lock().expect("pool poisoned");
        state.running -= 1;
        state.borrowed -= step_threads - 1;
        // lint: allow(panic) Running jobs are never cancelled or evicted,
        // so the record outlives the worker
        let record = state.jobs.get_mut(&id).expect("running job exists");
        // Terminal events are pushed under the state lock (nested
        // state → job-log order) so a watcher can never see the stream
        // close while the job still reports as running.
        let finished_at = monotonic_nanos();
        shared
            .metrics
            .job_run_us
            .record(finished_at.saturating_sub(claimed_at) / 1_000);
        match result {
            Ok(outcome) => {
                record.state = JobState::Done;
                let finished = RunEvent::Finished {
                    rounds: outcome.rounds,
                    termination: outcome.termination,
                };
                push_event(&log, finished, finished_at);
                record.outcome = Some(outcome);
                state.counters.done += 1;
            }
            Err(message) => {
                record.state = JobState::Failed;
                let failed = RunEvent::Failed {
                    message: message.clone(),
                };
                push_event(&log, failed, finished_at);
                record.error = Some(message);
                state.counters.failed += 1;
            }
        }
        record_terminal(&mut state, shared.retain_jobs, id);
        shared.job_done.notify_all();
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "execution panicked".into()
    }
}

/// The local pool's [`JobControl`]: shares the pool state, owns its own
/// event cursor.
struct LocalHandle {
    shared: Arc<Shared>,
    id: u64,
    cursor: EventCursor,
}

impl JobControl for LocalHandle {
    fn label(&self) -> String {
        format!("local:{}", self.id)
    }

    fn status(&mut self) -> Result<JobStatus, ExecError> {
        let state = self.shared.state.lock().expect("pool poisoned");
        let record = state.jobs.get(&self.id).ok_or(ExecError::UnknownJob)?;
        Ok(JobStatus {
            state: record.state,
            from_cache: record.from_cache,
        })
    }

    fn wait(&mut self, timeout: Option<Duration>) -> Result<Arc<RunOutcome>, ExecError> {
        // The shared helper works over &Shared, so a handle outliving the
        // executor value still waits through the pool state.
        wait_on(&self.shared, self.id, timeout)
    }

    fn try_outcome(&mut self) -> Result<Option<Arc<RunOutcome>>, ExecError> {
        let state = self.shared.state.lock().expect("pool poisoned");
        match outcome_of(&state, self.id) {
            Ok(outcome) => Ok(Some(outcome)),
            Err(ExecError::NotFinished) => Ok(None),
            Err(other) => Err(other),
        }
    }

    fn cancel(&mut self) -> Result<(), ExecError> {
        cancel_on(&self.shared, self.id)
    }

    fn poll_events(&mut self) -> Result<Vec<RunEvent>, ExecError> {
        let log = log_of(&self.shared, self.id)?;
        let log = log.lock().expect("job log poisoned");
        Ok(log.poll(&mut self.cursor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EngineOptions, RuleSpec, SeedSpec, TopologySpec};

    fn spec(size: usize, node: usize) -> RunSpec {
        RunSpec::new(
            TopologySpec::toroidal_mesh(size, size),
            RuleSpec::parse("smp").unwrap(),
            SeedSpec::nodes(Color::new(1), Color::new(2), [node]),
        )
    }

    fn small_pool(workers: usize) -> LocalExecutor {
        LocalExecutor::start(LocalExecutorConfig {
            workers,
            queue_capacity: 64,
            retain_jobs: 4096,
        })
    }

    #[test]
    fn submit_wait_matches_runner() {
        let pool = small_pool(2);
        let spec = spec(6, 3);
        let mut handle = pool.submit(&spec, SubmitOptions::default()).unwrap();
        let outcome = handle.wait().unwrap();
        assert_eq!(*outcome, Runner::with_threads(1).execute(&spec));
        let status = handle.status().unwrap();
        assert_eq!(status.state, JobState::Done);
        assert!(!status.from_cache);
        assert!(handle.try_outcome().unwrap().is_some());
        assert!(handle.label().starts_with("local:"));
        pool.shutdown();
    }

    #[test]
    fn worker_panic_fails_the_job_and_leaves_the_pool_usable() {
        let pool = small_pool(1);
        // Seed node 100 does not fit a 6x6 torus: the runner panics
        // inside the worker, which must surface as a Failed job — not
        // poison the pool or kill the worker thread.
        let bad = spec(6, 100);
        let mut handle = pool.submit(&bad, SubmitOptions::default()).unwrap();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, ExecError::Failed { .. }), "{err:?}");
        assert_eq!(handle.status().unwrap().state, JobState::Failed);
        let events = handle.poll_events().unwrap();
        assert!(
            matches!(events.last(), Some(RunEvent::Failed { .. })),
            "{events:?}"
        );
        // The sole worker must pick up and finish the next job, and the
        // pool must still drain cleanly.
        let good = spec(6, 3);
        let outcome = pool
            .submit(&good, SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(*outcome, Runner::with_threads(1).execute(&good));
        pool.shutdown();
    }

    #[test]
    fn event_stream_opens_progresses_and_closes() {
        let pool = small_pool(1);
        let spec = spec(8, 0);
        let mut handle = pool.submit(&spec, SubmitOptions::default()).unwrap();
        handle.wait().unwrap();
        let events = handle.poll_events().unwrap();
        assert!(
            matches!(events.first(), Some(RunEvent::Started { nodes: 64 })),
            "{events:?}"
        );
        assert!(
            matches!(events.last(), Some(RunEvent::Finished { .. })),
            "{events:?}"
        );
        let rounds: Vec<usize> = events.iter().filter_map(RunEvent::progress_round).collect();
        assert!(!rounds.is_empty(), "auto stride samples every round");
        assert!(
            rounds.windows(2).all(|w| w[0] < w[1]),
            "progress rounds are strictly increasing: {rounds:?}"
        );
        // Histograms cover the whole vertex set.
        for event in &events {
            if let RunEvent::Progress { histogram, .. } = event {
                assert_eq!(histogram.total(), 64);
            }
        }
        // A fresh poll returns nothing (the cursor advanced past the
        // terminal event).
        assert!(handle.poll_events().unwrap().is_empty());
        pool.shutdown();
    }

    #[test]
    fn progress_stride_samples_every_nth_round() {
        let pool = small_pool(1);
        let strided = spec(8, 0).with_options(EngineOptions::default().with_progress_every(3));
        let mut handle = pool.submit(&strided, SubmitOptions::default()).unwrap();
        handle.wait().unwrap();
        let events = handle.poll_events().unwrap();
        let rounds: Vec<usize> = events.iter().filter_map(RunEvent::progress_round).collect();
        assert!(rounds.iter().all(|r| r.is_multiple_of(3)), "{rounds:?}");
        pool.shutdown();
    }

    #[test]
    fn wait_observed_feeds_every_event() {
        let pool = small_pool(2);
        let mut handle = pool.submit(&spec(10, 1), SubmitOptions::default()).unwrap();
        let mut seen = Vec::new();
        let outcome = handle.wait_observed(|e| seen.push(e.clone())).unwrap();
        assert!(
            matches!(seen.last(), Some(RunEvent::Finished { rounds, .. }) if *rounds == outcome.rounds)
        );
        assert!(seen.iter().any(|e| matches!(e, RunEvent::Started { .. })));
        pool.shutdown();
    }

    #[test]
    fn submit_sweep_is_ordered_and_atomic() {
        let pool = small_pool(4);
        let specs: Vec<RunSpec> = (0..6).map(|n| spec(5, n)).collect();
        let handles = pool.submit_sweep(&specs, SubmitOptions::default()).unwrap();
        assert_eq!(handles.len(), specs.len());
        for (mut handle, s) in handles.into_iter().zip(&specs) {
            assert_eq!(*handle.wait().unwrap(), Runner::with_threads(1).execute(s));
        }
        assert!(matches!(
            pool.submit_sweep(&[], SubmitOptions::default()),
            Err(ExecError::Backend(_))
        ));
        pool.shutdown();
    }

    #[test]
    fn explicit_step_threads_borrow_pool_slots_and_keep_outcomes() {
        // A 1-worker pool has no idle capacity to lend: a spec asking
        // for 8 step-threads still completes, stepping sequentially, and
        // the outcome matches the plain runner bit for bit.
        let pool = small_pool(1);
        let threaded = spec(7, 2).with_options(EngineOptions::default().with_threads(8));
        let mut handle = pool.submit(&threaded, SubmitOptions::default()).unwrap();
        let outcome = handle.wait().unwrap();
        assert_eq!(*outcome, Runner::with_threads(1).execute(&threaded));
        let stats = outcome.round_stats.expect("fresh runs carry stats");
        assert_eq!(stats.threads, 1, "no idle slots on a 1-worker pool");
        pool.shutdown();

        // With idle workers the job borrows them as step-threads (the
        // claiming worker plus three borrowed slots) and the outcome is
        // still identical.
        let pool = small_pool(4);
        let mut handle = pool.submit(&threaded, SubmitOptions::default()).unwrap();
        let outcome = handle.wait().unwrap();
        assert_eq!(*outcome, Runner::with_threads(1).execute(&threaded));
        let stats = outcome.round_stats.expect("fresh runs carry stats");
        assert_eq!(stats.threads, 4, "1 claimed + 3 borrowed of 4 workers");
        pool.shutdown();
    }

    #[test]
    fn queue_bound_rejects_overflow() {
        let pool = LocalExecutor::start(LocalExecutorConfig {
            workers: 1,
            queue_capacity: 2,
            retain_jobs: 4096,
        });
        let mut rejected = 0usize;
        for n in 0..64 {
            match pool.enqueue(spec(16, n), Priority::Normal) {
                Ok(_) => {}
                Err(ExecError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected > 0, "the bound must reject a burst of 64");
        pool.shutdown();
    }

    #[test]
    fn cancellation_only_while_queued_and_emits_event() {
        let pool = LocalExecutor::start(LocalExecutorConfig {
            workers: 1,
            queue_capacity: 64,
            retain_jobs: 4096,
        });
        let mut head = pool.submit(&spec(24, 0), SubmitOptions::default()).unwrap();
        let mut tail = pool.submit(&spec(24, 1), SubmitOptions::default()).unwrap();
        match tail.cancel() {
            Ok(()) => {
                assert_eq!(tail.status().unwrap().state, JobState::Cancelled);
                assert!(matches!(tail.wait(), Err(ExecError::Cancelled)));
                let events = tail.poll_events().unwrap();
                assert_eq!(events, vec![RunEvent::Cancelled]);
            }
            Err(ExecError::NotCancellable) => {
                // The worker was faster; that is a legal race.
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
        head.wait().unwrap();
        assert!(matches!(head.cancel(), Err(ExecError::NotCancellable)));
        pool.shutdown();
    }

    #[test]
    fn priority_orders_the_queue() {
        let entry = |priority, seq, id| QueueRef {
            priority,
            seq: std::cmp::Reverse(seq),
            id,
        };
        let mut heap = BinaryHeap::new();
        heap.push(entry(Priority::Normal, 0, 1));
        heap.push(entry(Priority::Low, 1, 2));
        heap.push(entry(Priority::High, 2, 3));
        heap.push(entry(Priority::High, 3, 4));
        heap.push(entry(Priority::Normal, 4, 5));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.id).collect();
        // High first (FIFO within high), then normal (FIFO), then low.
        assert_eq!(order, vec![3, 4, 1, 5, 2]);
    }

    #[test]
    fn drain_finishes_admitted_work_and_rejects_new() {
        let pool = small_pool(2);
        let ids: Vec<u64> = (0..8)
            .map(|n| pool.enqueue(spec(8, n), Priority::Normal).unwrap())
            .collect();
        pool.shutdown();
        for id in ids {
            assert_eq!(pool.job_status(id).unwrap().state, JobState::Done);
            assert!(pool.job_outcome(id).is_ok());
        }
        assert!(matches!(
            pool.enqueue(spec(4, 0), Priority::Normal),
            Err(ExecError::ShuttingDown)
        ));
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn terminal_records_are_bounded() {
        let pool = LocalExecutor::start(LocalExecutorConfig {
            workers: 1,
            queue_capacity: 64,
            retain_jobs: 4,
        });
        let ids: Vec<u64> = (0..8)
            .map(|n| pool.enqueue(spec(4, n), Priority::Normal).unwrap())
            .collect();
        pool.shutdown();
        assert_eq!(pool.job_status(ids[7]).unwrap().state, JobState::Done);
        assert!(matches!(
            pool.job_status(ids[0]),
            Err(ExecError::UnknownJob)
        ));
        assert!(matches!(
            pool.events_since(ids[0], None),
            Err(ExecError::UnknownJob)
        ));
    }

    #[test]
    fn stale_queue_entry_survives_record_eviction() {
        // A cancelled job's heap entry outlives its record when a tight
        // retention window evicts the record before a worker pops the
        // entry.  That pop must be skipped, not panic (a panic would
        // poison the pool lock and kill the whole pool).
        let pool = LocalExecutor::start(LocalExecutorConfig {
            workers: 1,
            queue_capacity: 64,
            retain_jobs: 1,
        });
        // With retain_jobs=1 a record may be evicted before wait_job
        // looks at it; that means the job already reached a terminal
        // state, so UnknownJob is as good as an outcome here.
        let wait_terminal = |id: u64| match pool.wait_job(id, None) {
            Ok(_) | Err(ExecError::UnknownJob) => {}
            Err(other) => panic!("unexpected error: {other}"),
        };
        // Head occupies the single worker; tail sits at low priority.
        let head = pool.enqueue(spec(32, 0), Priority::Normal).unwrap();
        let tail = pool.enqueue(spec(32, 1), Priority::Low).unwrap();
        match pool.cancel_job(tail) {
            // Normal-priority jobs now terminate ahead of the stale Low
            // entry; with retain_jobs=1 each completion evicts the
            // previous terminal record, including the cancelled tail's.
            Ok(()) => {}
            Err(ExecError::NotCancellable) => {
                // The worker was faster; the stale-entry scenario did not
                // arise this run, which is a legal race.
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
        wait_terminal(head);
        let filler: Vec<u64> = (0..3)
            .map(|n| pool.enqueue(spec(8, n), Priority::Normal).unwrap())
            .collect();
        for id in filler {
            wait_terminal(id);
        }
        // The worker has popped (and skipped) the stale tail entry by the
        // time the queue is empty again; the pool must still serve — a
        // panic on the stale entry would have poisoned the pool lock and
        // every call below would die on "pool poisoned".
        let probe = pool.enqueue(spec(8, 7), Priority::Normal).unwrap();
        wait_terminal(probe);
        assert_eq!(pool.stats().queued, 0);
        pool.shutdown();
    }

    #[test]
    fn wait_times_out_with_not_finished() {
        let pool = LocalExecutor::start(LocalExecutorConfig {
            workers: 1,
            queue_capacity: 64,
            retain_jobs: 4096,
        });
        let _head = pool.enqueue(spec(32, 0), Priority::Normal).unwrap();
        let tail = pool.enqueue(spec(32, 1), Priority::Normal).unwrap();
        match pool.wait_job(tail, Some(Duration::from_millis(1))) {
            Err(ExecError::NotFinished) => {}
            Ok(_) => {} // absurdly fast machine; still correct
            Err(other) => panic!("unexpected error: {other}"),
        }
        pool.shutdown();
    }

    #[test]
    fn cache_hook_completes_jobs_without_executing() {
        struct CountingCache {
            store: Mutex<HashMap<SpecKey, Arc<RunOutcome>>>,
            probes: Mutex<usize>,
        }
        impl OutcomeCache for CountingCache {
            fn probe(&self, key: &SpecKey) -> Option<Arc<RunOutcome>> {
                *self.probes.lock().unwrap() += 1;
                self.store.lock().unwrap().get(key).cloned()
            }
            fn publish(&self, key: SpecKey, outcome: &Arc<RunOutcome>) {
                self.store.lock().unwrap().insert(key, Arc::clone(outcome));
            }
        }
        let cache = Arc::new(CountingCache {
            store: Mutex::new(HashMap::new()),
            probes: Mutex::new(0),
        });
        let pool = LocalExecutor::start_with_cache(
            LocalExecutorConfig {
                workers: 1,
                ..LocalExecutorConfig::default()
            },
            Some(Arc::clone(&cache) as Arc<dyn OutcomeCache>),
        );
        let s = spec(6, 2);
        let mut first = pool.submit(&s, SubmitOptions::default()).unwrap();
        let a = first.wait().unwrap();
        let mut second = pool.submit(&s, SubmitOptions::default()).unwrap();
        let b = second.wait().unwrap();
        assert_eq!(a, b, "memoized outcome is byte-identical");
        assert!(second.status().unwrap().from_cache);
        assert!(!first.status().unwrap().from_cache);
        // A cache-hit stream still closes with a terminal event.
        let events = second.poll_events().unwrap();
        assert!(matches!(events.last(), Some(RunEvent::Finished { .. })));
        assert_eq!(*cache.probes.lock().unwrap(), 2);
        pool.shutdown();
    }

    /// A threshold-1 growth scenario: one seed floods the torus in ~size
    /// rounds, so the event stream has a long strictly-increasing body.
    fn growth_spec(size: usize) -> RunSpec {
        RunSpec::new(
            TopologySpec::toroidal_mesh(size, size),
            RuleSpec::parse("threshold(2,1)").unwrap(),
            SeedSpec::nodes(Color::new(2), Color::new(1), [0usize]),
        )
    }

    #[test]
    fn events_since_filters_by_round_and_always_closes() {
        let pool = small_pool(1);
        let id = pool.enqueue(growth_spec(8), Priority::Normal).unwrap();
        pool.wait_job(id, None).unwrap();
        let all = pool.events_since(id, None).unwrap();
        assert!(matches!(all.first(), Some(RunEvent::Started { .. })));
        assert!(matches!(all.last(), Some(RunEvent::Finished { .. })));
        let rounds: Vec<usize> = all.iter().filter_map(RunEvent::progress_round).collect();
        assert!(rounds.len() >= 2, "need at least two rounds: {rounds:?}");
        let mid = rounds[rounds.len() / 2];
        let later = pool.events_since(id, Some(mid)).unwrap();
        assert!(later
            .iter()
            .filter_map(RunEvent::progress_round)
            .all(|r| r > mid));
        assert!(
            matches!(later.last(), Some(RunEvent::Finished { .. })),
            "a watcher that has seen everything still sees the close"
        );
        assert!(!later.iter().any(|e| matches!(e, RunEvent::Started { .. })));
        pool.shutdown();
    }

    #[test]
    fn event_log_bounds_progress_retention() {
        let mut log = JobLog::new(0);
        log.push(RunEvent::Started { nodes: 9 }, 1);
        for round in 1..=(PROGRESS_RETAIN + 10) {
            let progress = RunEvent::Progress {
                round,
                changed: 1,
                histogram: ColorHistogram {
                    round,
                    counts: vec![],
                },
            };
            log.push(progress, round as u64 + 1);
        }
        // In flight: bounded at PROGRESS_RETAIN, oldest dropped.
        assert_eq!(log.progress.len(), PROGRESS_RETAIN);
        assert_eq!(log.dropped, 10);
        // The trace view follows the same retention.
        let trace = log.trace();
        assert_eq!(trace.len(), 1 + PROGRESS_RETAIN, "queued + progress");
        assert_eq!(trace.dropped(), 10);
        assert_eq!(trace.spans()[1].kind, SpanKind::Progress { round: 11 });
        // Terminal: the log shrinks to the newest tail.
        log.push(RunEvent::Cancelled, 1_000_000);
        assert_eq!(log.progress.len(), TERMINAL_PROGRESS_RETAIN);
        assert_eq!(log.dropped, PROGRESS_RETAIN + 10 - TERMINAL_PROGRESS_RETAIN);
        let all = log.since_round(None);
        assert!(matches!(all.first(), Some(RunEvent::Started { .. })));
        assert!(matches!(all.last(), Some(RunEvent::Cancelled)));
        assert_eq!(all.len(), TERMINAL_PROGRESS_RETAIN + 2);
        // The newest progress events are the ones kept.
        assert_eq!(
            all[1].progress_round(),
            Some(PROGRESS_RETAIN + 10 - TERMINAL_PROGRESS_RETAIN + 1)
        );
        // A cursor that saw the dropped prefix does not re-see survivors.
        let mut cursor = EventCursor {
            seen_started: true,
            next_progress: 5,
            seen_terminal: false,
        };
        let polled = log.poll(&mut cursor);
        assert_eq!(
            polled.len(),
            TERMINAL_PROGRESS_RETAIN + 1,
            "survivors + terminal"
        );
        assert!(log.poll(&mut cursor).is_empty());
        // So does the terminal trace: queued, the tail, the close.
        let trace = log.trace();
        assert_eq!(trace.len(), TERMINAL_PROGRESS_RETAIN + 2);
        assert_eq!(trace.dropped() as usize, log.dropped);
        assert_eq!(trace.terminal().map(|s| s.kind), Some(SpanKind::Cancelled));
        assert!(trace.is_monotone());
    }

    #[test]
    fn wait_observed_terminates_on_an_already_drained_stream() {
        let pool = small_pool(1);
        let mut handle = pool.submit(&spec(6, 1), SubmitOptions::default()).unwrap();
        // First wait_observed drains the stream including the terminal
        // event; a second call must still return (status fallback), not
        // spin on an empty stream forever.
        let first = handle.wait_observed(|_| {}).unwrap();
        let second = handle.wait_observed(|_| {}).unwrap();
        assert_eq!(first, second);
        // Same via a manual poll loop that consumed the terminal event.
        let mut other = pool.submit(&spec(6, 2), SubmitOptions::default()).unwrap();
        other.wait().unwrap();
        let drained = other.poll_events().unwrap();
        assert!(drained.iter().any(RunEvent::is_terminal));
        other.wait_observed(|_| {}).unwrap();
        pool.shutdown();
    }

    #[test]
    fn run_events_round_trip_as_text() {
        let events = vec![
            RunEvent::Started { nodes: 1024 },
            RunEvent::Progress {
                round: 7,
                changed: 31,
                histogram: ColorHistogram {
                    round: 7,
                    counts: vec![(Color::new(1), 1000), (Color::new(2), 24)],
                },
            },
            RunEvent::Progress {
                round: 8,
                changed: 0,
                histogram: ColorHistogram {
                    round: 8,
                    counts: vec![],
                },
            },
            RunEvent::Finished {
                rounds: 9,
                termination: Termination::Monochromatic(Color::new(2)),
            },
            RunEvent::Finished {
                rounds: 4,
                termination: Termination::Cycle { period: 2 },
            },
            RunEvent::Finished {
                rounds: 0,
                termination: Termination::FixedPoint,
            },
            RunEvent::Finished {
                rounds: 100,
                termination: Termination::RoundLimit,
            },
            RunEvent::Failed {
                message: "seed does not fit\nthe topology".into(),
            },
            RunEvent::Cancelled,
        ];
        for event in &events {
            let line = event.to_text();
            let rebuilt = RunEvent::from_text(&line)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n{line}"));
            // The failed message had its newline flattened; everything
            // else round-trips identically.
            if let RunEvent::Failed { .. } = event {
                assert!(matches!(rebuilt, RunEvent::Failed { ref message }
                    if message == "seed does not fit; the topology"));
            } else {
                assert_eq!(&rebuilt, event, "\n{line}");
            }
        }
        let block = events_to_text(&events[..3]);
        assert_eq!(events_from_text(&block).unwrap(), events[..3]);
        assert_eq!(events_from_text("").unwrap(), vec![]);
    }

    #[test]
    fn event_parse_errors_are_descriptive() {
        for bad in [
            "progress round=1",
            "event: levitated",
            "event: started",
            "event: started nodes=many",
            "event: progress round=1 changed=2 histogram=1;2",
            "event: progress round=1 changed=2 histogram=0:5",
            "event: progress round=1 histogram=-",
            "event: finished rounds=2 termination=vanished",
            "event: finished rounds=2 termination=monochromatic:0",
            "event: failed",
        ] {
            let err = RunEvent::from_text(bad).unwrap_err();
            assert!(!err.detail.is_empty(), "{bad}");
            let boxed: Box<dyn std::error::Error> = Box::new(err);
            assert!(boxed.to_string().contains("bad run event"));
        }
    }

    #[test]
    fn tokens_round_trip() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::parse_token(&p.to_string()), Some(p));
        }
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse_token(&s.to_string()), Some(s));
        }
        assert_eq!(Priority::parse_token("urgent"), None);
        assert_eq!(JobState::parse_token("gone"), None);
    }

    #[test]
    fn job_trace_records_the_full_lifecycle() {
        let pool = small_pool(1);
        let mut handle = pool.submit(&spec(8, 0), SubmitOptions::default()).unwrap();
        let id = 1;
        handle.wait().unwrap();
        let trace = pool.job_trace(id).unwrap();
        assert!(trace.is_monotone(), "{trace:?}");
        let kinds: Vec<SpanKind> = trace.spans().iter().map(|s| s.kind).collect();
        assert_eq!(kinds[..2], [SpanKind::Queued, SpanKind::Claimed]);
        assert_eq!(trace.terminal().map(|s| s.kind), Some(SpanKind::Done));
        assert!(
            kinds.iter().any(|k| matches!(k, SpanKind::Progress { .. })),
            "sampled rounds appear as progress spans: {kinds:?}"
        );
        let (queued, claimed, done) = (
            trace.spans()[0].at_nanos,
            trace.spans()[1].at_nanos,
            trace.spans()[kinds.len() - 1].at_nanos,
        );
        assert_eq!(trace.queue_wait_nanos(), Some(claimed - queued));
        assert_eq!(trace.run_nanos(), Some(done - claimed));
        assert!(matches!(pool.job_trace(999), Err(ExecError::UnknownJob)));

        // TRACE and WATCH read one log, so they agree on the progress
        // rounds — also once a long job's log shrank to its terminal tail.
        let id = pool.enqueue(growth_spec(48), Priority::Normal).unwrap();
        let outcome = pool.wait_job(id, None).unwrap();
        assert!(outcome.rounds > TERMINAL_PROGRESS_RETAIN, "{outcome:?}");
        let watched: Vec<u64> = pool
            .events_since(id, None)
            .unwrap()
            .iter()
            .filter_map(RunEvent::progress_round)
            .map(|round| round as u64)
            .collect();
        let trace = pool.job_trace(id).unwrap();
        let traced: Vec<u64> = trace
            .spans()
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::Progress { round } => Some(round),
                _ => None,
            })
            .collect();
        assert_eq!(traced, watched);
        assert_eq!(traced.len(), TERMINAL_PROGRESS_RETAIN);
        assert_eq!(
            trace.dropped() as usize,
            outcome.rounds - TERMINAL_PROGRESS_RETAIN
        );
        pool.shutdown();
    }

    #[test]
    fn cancelled_job_trace_ends_cancelled() {
        // Zero workers never claim, so the job stays cancellable.
        let pool = LocalExecutor::start(LocalExecutorConfig {
            workers: 1,
            queue_capacity: 64,
            retain_jobs: 64,
        });
        // Saturate the single worker with one long job, then cancel a
        // queued one behind it.
        let _busy = pool.submit(&spec(24, 0), SubmitOptions::default()).unwrap();
        let mut queued = pool.submit(&spec(24, 1), SubmitOptions::default()).unwrap();
        if queued.cancel().is_ok() {
            let trace = pool.job_trace(2).unwrap();
            assert_eq!(
                trace.terminal().map(|s| s.kind),
                Some(SpanKind::Cancelled),
                "{trace:?}"
            );
            assert!(trace.queue_wait_nanos().is_none(), "never claimed");
        }
        pool.shutdown();
    }

    #[test]
    fn telemetry_registry_tracks_submissions_and_latencies() {
        let pool = small_pool(2);
        for n in 0..4 {
            pool.submit(&spec(6, n), SubmitOptions::default())
                .unwrap()
                .wait()
                .unwrap();
        }
        let snapshot = pool.telemetry().snapshot();
        assert_eq!(snapshot.counter("exec.jobs.submitted"), Some(4));
        assert!(snapshot.gauge("exec.queue.depth-hwm").unwrap() >= 1);
        let wait = snapshot.histogram("exec.queue.wait-us").unwrap();
        assert_eq!(wait.count, 4);
        let run = snapshot.histogram("exec.job.run-us").unwrap();
        assert_eq!(run.count, 4);
        let stats = pool.stats();
        assert_eq!(stats.submitted, 4);
        assert!(stats.queued_hwm >= 1);
        pool.shutdown();
    }

    #[test]
    fn exec_errors_display() {
        assert!(ExecError::QueueFull { capacity: 8 }
            .to_string()
            .contains("8"));
        assert!(!ExecError::QueueFull { capacity: 0 }
            .to_string()
            .contains("0"));
        assert!(ExecError::Failed {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        let boxed: Box<dyn std::error::Error> = Box::new(ExecError::TimedOut);
        assert!(boxed.to_string().contains("timed out"));
    }
}
