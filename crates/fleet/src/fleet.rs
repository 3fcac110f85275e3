//! The fleet coordinator: [`FleetExecutor`] and its configuration.
//!
//! See the [crate docs](crate) for the routing / probing / stealing
//! semantics.  Lock discipline: the membership table (`members`) and the
//! probe-thread handle (`probe`) are independent mutexes that are never
//! held together; every counter is a plain atomic so the hot submit
//! path holds `members` only long enough to read the ring.

use crate::ring::HashRing;
use ctori_engine::exec::{
    Deadline, ExecError, Executor, JobControl, JobHandle, JobStatus, RunEvent, SubmitOptions,
};
use ctori_engine::telemetry::MetricValue;
use ctori_engine::{MetricsSnapshot, RunOutcome, RunSpec};
use ctori_service::{RemoteExecutor, ServiceClient, ServiceError, ServiceStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Static description of the fleet: where the backends are and how
/// aggressively to probe, evict, and steal.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Backend addresses (`host:port`), one `ctori-serve` each.
    pub addrs: Vec<String>,
    /// Ring points per backend; more points smooth the key split.
    pub virtual_nodes: usize,
    /// Pause between health-probe rounds.
    pub probe_interval: Duration,
    /// Connect + read deadline of one probe round trip.
    pub probe_timeout: Duration,
    /// Consecutive probe failures before a backend is evicted.
    pub failure_threshold: u32,
    /// How long a sweep handle waits on a busy backend before stealing
    /// capacity from an idle one.
    pub steal_patience: Duration,
    /// Connect deadline for the initial dial of each backend.
    pub connect_timeout: Duration,
    /// Read deadline on every backend round trip.  A handle's wait is
    /// cut into server-side waits (`RESULT <id> wait=<ms>`) of at most
    /// half this deadline, so a live backend always replies inside it,
    /// and a reply that out-waits it is a wedged or draining backend —
    /// the deadline is what turns such a zombie into a routable
    /// [`ExecError::TimedOut`] instead of a hang.
    pub request_timeout: Duration,
}

impl FleetConfig {
    /// A config over the given backend addresses with default tuning.
    pub fn new(addrs: impl IntoIterator<Item = impl Into<String>>) -> FleetConfig {
        FleetConfig {
            addrs: addrs.into_iter().map(Into::into).collect(),
            virtual_nodes: 64,
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            failure_threshold: 3,
            steal_patience: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(2),
        }
    }
}

/// One backend's seat in the membership table.
struct BackendSlot {
    addr: String,
    remote: Arc<RemoteExecutor>,
    healthy: bool,
    consecutive_failures: u32,
    /// Last probed idle capacity (`workers - running`, at least 1);
    /// drives the proportional sweep split.
    idle_hint: usize,
}

/// Membership table + the ring derived from its healthy rows.
struct Members {
    slots: Vec<BackendSlot>,
    ring: HashRing,
}

impl Members {
    fn rebuild_ring(&mut self, virtual_nodes: usize) {
        self.ring = HashRing::build(
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.healthy)
                .map(|(index, slot)| (index, slot.addr.as_str())),
            virtual_nodes,
        );
    }
}

/// Fleet-local counters (everything the backends cannot know).
struct Counters {
    routed: Vec<AtomicU64>,
    reroutes: AtomicU64,
    steals: AtomicU64,
    probe_failures: AtomicU64,
    evictions: AtomicU64,
    readds: AtomicU64,
}

impl Counters {
    fn new(backends: usize) -> Counters {
        Counters {
            routed: (0..backends).map(|_| AtomicU64::new(0)).collect(),
            reroutes: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            readds: AtomicU64::new(0),
        }
    }
}

/// State shared between the executor, its handles, and the probe thread.
struct Shared {
    members: Mutex<Members>,
    counters: Counters,
    /// Raised (and `stopping` notified) to end the probe thread.
    stop: Mutex<bool>,
    stopping: Condvar,
    config: FleetConfig,
}

impl Shared {
    /// Evicts a backend the moment a request path observed its
    /// connection die — no need to wait for the probe threshold; the
    /// probe loop re-adds it when it answers again.
    fn report_lost(&self, index: usize) {
        let mut members = self.members.lock().expect("fleet members poisoned");
        let slot = &mut members.slots[index];
        if slot.healthy {
            slot.healthy = false;
            slot.consecutive_failures = self.config.failure_threshold;
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            members.rebuild_ring(self.config.virtual_nodes);
        }
    }

    /// Routes a key on the current ring; `None` when no backend is
    /// healthy.
    fn route(&self, key: ctori_engine::SpecKey) -> Option<(usize, Arc<RemoteExecutor>)> {
        let members = self.members.lock().expect("fleet members poisoned");
        members
            .ring
            .route(key)
            .map(|index| (index, Arc::clone(&members.slots[index].remote)))
    }

    /// Submits one spec to its ring owner, evicting and re-routing past
    /// backends whose connection is gone.  Bounded by the fleet size, so
    /// a cascade of dead backends terminates in `no healthy backends`.
    fn dispatch(
        &self,
        spec: &RunSpec,
        options: SubmitOptions,
    ) -> Result<(usize, JobHandle), ExecError> {
        let key = spec.canonical_key();
        let attempts = self
            .members
            .lock()
            .expect("fleet members poisoned")
            .slots
            .len();
        for attempt in 0..=attempts {
            let Some((index, remote)) = self.route(key) else {
                break;
            };
            match remote.submit(spec, options) {
                Ok(handle) => {
                    if attempt > 0 {
                        self.counters.reroutes.fetch_add(1, Ordering::Relaxed);
                    }
                    self.counters.routed[index].fetch_add(1, Ordering::Relaxed);
                    return Ok((index, handle));
                }
                // A dead, wedged, or draining backend takes no new work:
                // evict it and let the loop route to the ring successor.
                Err(ExecError::BackendLost(_) | ExecError::TimedOut | ExecError::ShuttingDown) => {
                    self.report_lost(index)
                }
                Err(other) => return Err(other),
            }
        }
        Err(ExecError::Backend("no healthy backends".into()))
    }
}

/// A [`ctori_engine::Executor`] that shards jobs across many
/// `ctori-serve` backends.  See the [crate docs](crate).
///
/// Unlike the single-backend executors, a fleet sweep is **not** atomic
/// across the whole grid: each backend's chunk is admitted atomically,
/// but a failure mid-fan-out can leave earlier chunks admitted (their
/// handles are still returned inside the error-free case only; on error
/// the admitted jobs simply run to completion server-side and are
/// re-served from cache on resubmission).
pub struct FleetExecutor {
    shared: Arc<Shared>,
    probe: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl FleetExecutor {
    /// Dials every configured backend and starts the health-probe
    /// thread.  Fails if `addrs` is empty or any initial dial fails —
    /// a fleet that starts degraded is a config error, not a runtime
    /// condition.
    pub fn connect(config: FleetConfig) -> Result<FleetExecutor, ServiceError> {
        if config.addrs.is_empty() {
            return Err(ServiceError::Protocol(
                "fleet config lists no backend addresses".into(),
            ));
        }
        let mut slots = Vec::with_capacity(config.addrs.len());
        for addr in &config.addrs {
            let mut client = ServiceClient::connect_timeout(addr.as_str(), config.connect_timeout)?;
            client.set_read_timeout(Some(config.request_timeout))?;
            let remote = RemoteExecutor::new(client);
            let idle_hint = remote
                .stats()
                .map(|s| s.workers.saturating_sub(s.running))
                .unwrap_or(1)
                .max(1);
            slots.push(BackendSlot {
                addr: addr.clone(),
                remote: Arc::new(remote),
                healthy: true,
                consecutive_failures: 0,
                idle_hint,
            });
        }
        let mut members = Members {
            slots,
            ring: HashRing::default(),
        };
        members.rebuild_ring(config.virtual_nodes);
        let backends = config.addrs.len();
        let shared = Arc::new(Shared {
            members: Mutex::new(members),
            counters: Counters::new(backends),
            stop: Mutex::new(false),
            stopping: Condvar::new(),
            config,
        });
        let probe = spawn_probe(Arc::clone(&shared));
        Ok(FleetExecutor {
            shared,
            probe: Mutex::new(Some(probe)),
        })
    }

    /// Number of currently healthy backends.
    pub fn healthy_backends(&self) -> usize {
        let members = self.shared.members.lock().expect("fleet members poisoned");
        members.slots.iter().filter(|slot| slot.healthy).count()
    }

    /// Fleet-wide observability: per-backend [`ServiceStats`] (fetched
    /// live; `None` for unreachable backends), their aggregate, and the
    /// fleet-local counters.
    pub fn stats(&self) -> FleetStats {
        let snapshot: Vec<(String, bool, Arc<RemoteExecutor>)> = {
            let members = self.shared.members.lock().expect("fleet members poisoned");
            members
                .slots
                .iter()
                .map(|slot| (slot.addr.clone(), slot.healthy, Arc::clone(&slot.remote)))
                .collect()
        };
        let mut per_backend = Vec::with_capacity(snapshot.len());
        let mut aggregate = ServiceStats::default();
        for (addr, healthy, remote) in snapshot {
            let stats = remote.stats().ok();
            if let Some(s) = &stats {
                aggregate.workers += s.workers;
                aggregate.queued += s.queued;
                aggregate.running += s.running;
                aggregate.done += s.done;
                aggregate.failed += s.failed;
                aggregate.cancelled += s.cancelled;
                aggregate.jobs_submitted += s.jobs_submitted;
                aggregate.queue_depth_hwm = aggregate.queue_depth_hwm.max(s.queue_depth_hwm);
                aggregate.uptime_seconds = aggregate.uptime_seconds.max(s.uptime_seconds);
                aggregate.cache.hits += s.cache.hits;
                aggregate.cache.misses += s.cache.misses;
                aggregate.cache.evictions += s.cache.evictions;
                aggregate.cache.insertions += s.cache.insertions;
                aggregate.cache.entries += s.cache.entries;
                aggregate.cache.capacity += s.cache.capacity;
            }
            per_backend.push(BackendStats {
                addr,
                healthy,
                stats,
            });
        }
        FleetStats {
            per_backend,
            aggregate,
            local: self.local(),
        }
    }

    /// The fleet-local counters alone (no backend round trips).
    pub fn local(&self) -> FleetLocal {
        let c = &self.shared.counters;
        FleetLocal {
            jobs_routed: c.routed.iter().map(|n| n.load(Ordering::Relaxed)).collect(),
            reroutes: c.reroutes.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            probe_failures: c.probe_failures.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            readds: c.readds.load(Ordering::Relaxed),
        }
    }

    /// Merged telemetry of every reachable backend (the snapshots merge
    /// associatively: counters add, gauges max, histograms bucket-wise)
    /// plus the fleet's own counters under the `fleet.` namespace.
    pub fn metrics(&self) -> MetricsSnapshot {
        let remotes: Vec<Arc<RemoteExecutor>> = {
            let members = self.shared.members.lock().expect("fleet members poisoned");
            members
                .slots
                .iter()
                .map(|slot| Arc::clone(&slot.remote))
                .collect()
        };
        let mut merged = MetricsSnapshot::default();
        for remote in remotes {
            if let Ok(snapshot) = remote.metrics() {
                merged.merge(&snapshot);
            }
        }
        let local = self.local();
        merged.insert("fleet.reroutes", MetricValue::Counter(local.reroutes));
        merged.insert("fleet.steals", MetricValue::Counter(local.steals));
        merged.insert(
            "fleet.probe.failures",
            MetricValue::Counter(local.probe_failures),
        );
        merged.insert("fleet.evictions", MetricValue::Counter(local.evictions));
        merged.insert("fleet.readds", MetricValue::Counter(local.readds));
        merged.insert(
            "fleet.backends.healthy",
            MetricValue::Gauge(self.healthy_backends() as u64),
        );
        for (index, routed) in local.jobs_routed.iter().enumerate() {
            merged.insert(
                format!("fleet.routed.backend-{index}"),
                MetricValue::Counter(*routed),
            );
        }
        merged
    }
}

impl Executor for FleetExecutor {
    fn submit(&self, spec: &RunSpec, options: SubmitOptions) -> Result<JobHandle, ExecError> {
        let (backend, inner) = self.shared.dispatch(spec, options)?;
        Ok(JobHandle::new(Box::new(FleetJob::new(
            Arc::clone(&self.shared),
            spec.clone(),
            options,
            backend,
            inner,
            None,
        ))))
    }

    fn submit_sweep(
        &self,
        specs: &[RunSpec],
        options: SubmitOptions,
    ) -> Result<Vec<JobHandle>, ExecError> {
        if specs.is_empty() {
            return Err(ExecError::Backend("empty sweep".into()));
        }
        // Snapshot the healthy backends and their idle capacity; the
        // split is proportional to `idle_hint` so a busy backend gets a
        // smaller share of the grid up front (stealing mops up the rest).
        let plan: Vec<(usize, Arc<RemoteExecutor>, usize)> = {
            let members = self.shared.members.lock().expect("fleet members poisoned");
            members
                .slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.healthy)
                .map(|(index, slot)| (index, Arc::clone(&slot.remote), slot.idle_hint.max(1)))
                .collect()
        };
        if plan.is_empty() {
            return Err(ExecError::Backend("no healthy backends".into()));
        }
        let backends = self.shared.counters.routed.len();
        let total_idle: usize = plan.iter().map(|(_, _, idle)| idle).sum();
        let mut counts: Vec<usize> = plan
            .iter()
            .map(|(_, _, idle)| idle * specs.len() / total_idle)
            .collect();
        let assigned: usize = counts.iter().sum();
        let shares = counts.len();
        for extra in 0..specs.len() - assigned {
            counts[extra % shares] += 1;
        }
        let tracker = Arc::new(SweepTracker::new(backends));
        let mut placed: Vec<(RunSpec, usize, JobHandle)> = Vec::with_capacity(specs.len());
        let mut offset = 0;
        for ((index, remote, _), count) in plan.into_iter().zip(counts) {
            if count == 0 {
                continue;
            }
            let chunk = &specs[offset..offset + count];
            offset += count;
            match remote.submit_sweep(chunk, options) {
                Ok(handles) => {
                    tracker.add(index, count);
                    self.shared.counters.routed[index].fetch_add(count as u64, Ordering::Relaxed);
                    for (inner, spec) in handles.into_iter().zip(chunk) {
                        placed.push((spec.clone(), index, inner));
                    }
                }
                Err(ExecError::BackendLost(_) | ExecError::TimedOut | ExecError::ShuttingDown) => {
                    // The whole chunk moves: evict the backend and route
                    // each spec individually by its ring owner.
                    self.shared.report_lost(index);
                    for spec in chunk {
                        let (moved_to, inner) = self.shared.dispatch(spec, options)?;
                        self.shared
                            .counters
                            .reroutes
                            .fetch_add(1, Ordering::Relaxed);
                        tracker.add(moved_to, 1);
                        placed.push((spec.clone(), moved_to, inner));
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Ok(placed
            .into_iter()
            .map(|(spec, backend, inner)| {
                JobHandle::new(Box::new(FleetJob::new(
                    Arc::clone(&self.shared),
                    spec,
                    options,
                    backend,
                    inner,
                    Some(Arc::clone(&tracker)),
                )))
            })
            .collect())
    }

    fn drain(&self) {
        self.stop_probe();
        // Like `RemoteExecutor::drain`, this never shuts the backends
        // down — they are shared infrastructure and every admitted job
        // runs to completion server-side.
    }
}

impl FleetExecutor {
    fn stop_probe(&self) {
        *self.shared.stop.lock().expect("fleet stop poisoned") = true;
        // Ends the prober's pause at once.
        self.shared.stopping.notify_all();
        let handle = {
            let mut probe = self.probe.lock().expect("fleet probe poisoned");
            probe.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetExecutor {
    fn drop(&mut self) {
        self.stop_probe();
    }
}

// ---------------------------------------------------------------------------
// Health probing
// ---------------------------------------------------------------------------

// Deliberate thread: the prober is the fleet's background heartbeat,
// joined by `drain` via the stop flag.
#[allow(clippy::disallowed_methods)]
fn spawn_probe(shared: Arc<Shared>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || probe_loop(&shared))
}

/// Probes every backend once per `probe_interval`.  The pause between
/// rounds waits on the stop flag's condition variable, so a drain ends
/// it at once instead of waiting it out.
fn probe_loop(shared: &Shared) {
    loop {
        let stop = shared.stop.lock().expect("fleet stop poisoned");
        let (stop, _) = shared
            .stopping
            .wait_timeout_while(stop, shared.config.probe_interval, |stop| !*stop)
            .expect("fleet stop poisoned");
        if *stop {
            return;
        }
        drop(stop);
        let targets: Vec<(usize, String)> = {
            let members = shared.members.lock().expect("fleet members poisoned");
            members
                .slots
                .iter()
                .enumerate()
                .map(|(index, slot)| (index, slot.addr.clone()))
                .collect()
        };
        for (index, addr) in targets {
            let outcome = probe_once(&addr, shared.config.probe_timeout);
            let mut members = shared.members.lock().expect("fleet members poisoned");
            let slot = &mut members.slots[index];
            match outcome {
                Ok(stats) => {
                    slot.consecutive_failures = 0;
                    slot.idle_hint = stats.workers.saturating_sub(stats.running).max(1);
                    if !slot.healthy {
                        slot.healthy = true;
                        shared.counters.readds.fetch_add(1, Ordering::Relaxed);
                        members.rebuild_ring(shared.config.virtual_nodes);
                    }
                }
                Err(_) => {
                    shared
                        .counters
                        .probe_failures
                        .fetch_add(1, Ordering::Relaxed);
                    slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
                    if slot.healthy && slot.consecutive_failures >= shared.config.failure_threshold
                    {
                        slot.healthy = false;
                        shared.counters.evictions.fetch_add(1, Ordering::Relaxed);
                        members.rebuild_ring(shared.config.virtual_nodes);
                    }
                }
            }
        }
    }
}

/// One probe: a fresh connection (so a wedged shared client cannot make
/// a live backend look dead) driving a single bounded `STATS` round trip.
fn probe_once(addr: &str, timeout: Duration) -> Result<ServiceStats, ServiceError> {
    let mut client = ServiceClient::connect_timeout(addr, timeout)?;
    client.set_read_timeout(Some(timeout))?;
    client.stats()
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Per-sweep bookkeeping: how many grid points each backend still owes.
/// Drives stealing — a handle only steals toward a backend whose own
/// share is exhausted.
struct SweepTracker {
    pending: Vec<AtomicUsize>,
}

impl SweepTracker {
    fn new(backends: usize) -> SweepTracker {
        SweepTracker {
            pending: (0..backends).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    fn add(&self, index: usize, count: usize) {
        self.pending[index].fetch_add(count, Ordering::Relaxed);
    }

    fn pending(&self, index: usize) -> usize {
        self.pending[index].load(Ordering::Relaxed)
    }

    fn transfer(&self, from: usize, to: usize) {
        let _ = self.pending[from].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            Some(n.saturating_sub(1))
        });
        self.pending[to].fetch_add(1, Ordering::Relaxed);
    }

    fn complete(&self, index: usize) {
        let _ = self.pending[index].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            Some(n.saturating_sub(1))
        });
    }
}

/// The fleet [`JobControl`]: wraps the backend's own handle and owns the
/// spec, so the job can be resubmitted wholesale when its backend dies
/// (re-route) or lags (steal).  Correctness of both rests on jobs being
/// content-addressed: a duplicate execution converges to the same
/// outcome and usually costs one cache hit.
struct FleetJob {
    shared: Arc<Shared>,
    spec: RunSpec,
    options: SubmitOptions,
    backend: usize,
    inner: JobHandle,
    tracker: Option<Arc<SweepTracker>>,
    done: bool,
    dispatched: Instant,
}

impl FleetJob {
    // Deliberate timing code: the dispatch timestamp seeds the
    // steal-patience clock.
    #[allow(clippy::disallowed_methods)]
    fn new(
        shared: Arc<Shared>,
        spec: RunSpec,
        options: SubmitOptions,
        backend: usize,
        inner: JobHandle,
        tracker: Option<Arc<SweepTracker>>,
    ) -> FleetJob {
        FleetJob {
            shared,
            spec,
            options,
            backend,
            inner,
            tracker,
            done: false,
            dispatched: Instant::now(),
        }
    }

    /// Records completion exactly once toward the sweep tracker.
    fn mark_done(&mut self) {
        if !self.done {
            self.done = true;
            if let Some(tracker) = &self.tracker {
                tracker.complete(self.backend);
            }
        }
    }

    /// The backend died under this job: evict it and resubmit the spec
    /// to its new ring owner.
    // Deliberate timing code: a re-dispatch restarts the patience clock.
    #[allow(clippy::disallowed_methods)]
    fn reroute(&mut self) -> Result<(), ExecError> {
        self.shared.report_lost(self.backend);
        self.shared
            .counters
            .reroutes
            .fetch_add(1, Ordering::Relaxed);
        let (backend, inner) = self.shared.dispatch(&self.spec, self.options)?;
        if let Some(tracker) = &self.tracker {
            tracker.transfer(self.backend, backend);
        }
        self.backend = backend;
        self.inner = inner;
        self.dispatched = Instant::now();
        Ok(())
    }

    /// Re-dispatches a sweep job that out-waited the patience window to
    /// a healthy backend whose own share of the sweep is done.  The
    /// original submission keeps running — whichever copy finishes
    /// first wins, the other is a cache hit.
    // Deliberate timing code: patience is a wall-clock window.
    #[allow(clippy::disallowed_methods)]
    fn maybe_steal(&mut self) {
        let Some(tracker) = self.tracker.clone() else {
            return;
        };
        if self.dispatched.elapsed() < self.shared.config.steal_patience {
            return;
        }
        let target = {
            let members = self.shared.members.lock().expect("fleet members poisoned");
            members
                .slots
                .iter()
                .enumerate()
                .find(|(index, slot)| {
                    *index != self.backend && slot.healthy && tracker.pending(*index) == 0
                })
                .map(|(index, slot)| (index, Arc::clone(&slot.remote)))
        };
        let Some((index, remote)) = target else {
            self.dispatched = Instant::now();
            return;
        };
        if let Ok(inner) = remote.submit(&self.spec, self.options) {
            tracker.transfer(self.backend, index);
            self.backend = index;
            self.inner = inner;
            self.shared.counters.steals.fetch_add(1, Ordering::Relaxed);
            self.shared.counters.routed[index].fetch_add(1, Ordering::Relaxed);
        }
        self.dispatched = Instant::now();
    }

    /// One result probe against the current backend, rerouting (at most
    /// `attempts` times, naturally bounded by the fleet size inside
    /// `dispatch`) when the backend is gone.
    fn probe_outcome(&mut self) -> Result<Option<Arc<RunOutcome>>, ExecError> {
        match self.inner.try_outcome() {
            Err(ExecError::BackendLost(_) | ExecError::TimedOut) => {
                self.reroute()?;
                self.inner.try_outcome()
            }
            other => other,
        }
    }

    /// How long the next server-side wait may last: what is left until
    /// `deadline` and, for a sweep handle, of its steal patience, so the
    /// steal check runs between slices.  Single-job handles never steal
    /// and never restart the patience clock, so they take no patience
    /// cap (it would shrink to a zero-length loop).
    fn slice(&self, deadline: Deadline) -> Option<Duration> {
        let patience = self.tracker.as_ref().map(|_| {
            let waited = self.dispatched.elapsed();
            self.shared.config.steal_patience.saturating_sub(waited)
        });
        deadline.left_within(patience)
    }
}

impl JobControl for FleetJob {
    fn label(&self) -> String {
        format!("fleet[{}]:{}", self.backend, self.inner.label())
    }

    fn status(&mut self) -> Result<JobStatus, ExecError> {
        match self.inner.status() {
            Err(ExecError::BackendLost(_) | ExecError::TimedOut) => {
                self.reroute()?;
                self.inner.status()
            }
            other => other,
        }
    }

    fn wait(&mut self, timeout: Option<Duration>) -> Result<Arc<RunOutcome>, ExecError> {
        let deadline = Deadline::after(timeout);
        loop {
            // Server-side waits, which the backend's handle cuts further
            // to fit the fleet's request timeout.
            let waited = match self.slice(deadline) {
                None => self.inner.wait(),
                Some(slice) => self.inner.wait_timeout(slice),
            };
            let waited = match waited {
                Err(ExecError::NotFinished) => Ok(None),
                // The backend is gone: wait on the job's new owner next.
                Err(ExecError::BackendLost(_) | ExecError::TimedOut) => {
                    self.reroute().map(|()| None)
                }
                other => other.map(Some),
            };
            match waited {
                Ok(Some(outcome)) => {
                    self.mark_done();
                    return Ok(outcome);
                }
                Ok(None) => {}
                Err(terminal) => {
                    self.mark_done();
                    return Err(terminal);
                }
            }
            if deadline.passed() {
                return Err(ExecError::NotFinished);
            }
            self.maybe_steal();
        }
    }

    fn try_outcome(&mut self) -> Result<Option<Arc<RunOutcome>>, ExecError> {
        let outcome = self.probe_outcome()?;
        if outcome.is_some() {
            self.mark_done();
        }
        Ok(outcome)
    }

    fn cancel(&mut self) -> Result<(), ExecError> {
        self.inner.cancel()
    }

    fn poll_events(&mut self) -> Result<Vec<RunEvent>, ExecError> {
        match self.inner.poll_events() {
            Err(ExecError::BackendLost(_) | ExecError::TimedOut) => {
                // The stream restarts on the new backend; a replayed
                // `started` event is possible and harmless (observers
                // must already tolerate at-least-once delivery).
                self.reroute()?;
                self.inner.poll_events()
            }
            other => other,
        }
    }
}

// ---------------------------------------------------------------------------
// Observability payloads
// ---------------------------------------------------------------------------

/// One backend's row in [`FleetStats`].
#[derive(Clone, Debug)]
pub struct BackendStats {
    /// The backend's address.
    pub addr: String,
    /// Whether the ring currently includes it.
    pub healthy: bool,
    /// Its live [`ServiceStats`], `None` if it did not answer.
    pub stats: Option<ServiceStats>,
}

/// Fleet-local counters: everything the router knows that no single
/// backend can (also exposed as instruments by
/// [`FleetExecutor::metrics`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetLocal {
    /// Jobs routed to each backend, by slot index.
    pub jobs_routed: Vec<u64>,
    /// In-flight jobs resubmitted because their backend died.
    pub reroutes: u64,
    /// Sweep jobs re-dispatched from a lagging backend to an idle one.
    pub steals: u64,
    /// Individual probe round trips that failed.
    pub probe_failures: u64,
    /// Backends evicted from the ring (threshold or request-path loss).
    pub evictions: u64,
    /// Evicted backends re-added after answering a probe.
    pub readds: u64,
}

/// The full fleet observability snapshot.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// One row per configured backend, in slot order.
    pub per_backend: Vec<BackendStats>,
    /// Sum/max aggregation of every answering backend's stats.
    pub aggregate: ServiceStats,
    /// The router's own counters.
    pub local: FleetLocal,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_is_rejected() {
        let err = FleetExecutor::connect(FleetConfig::new(Vec::<String>::new()));
        assert!(err.is_err());
    }
}
