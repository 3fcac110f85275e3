//! The TCP backend of the engine's execution API.
//!
//! [`RemoteExecutor`] implements [`ctori_engine::Executor`] over one
//! [`ServiceClient`] connection, so the *same* caller code that drives a
//! [`ctori_engine::LocalExecutor`] drives a `ctori-serve` process
//! instead — submit returns a [`ctori_engine::JobHandle`] whose
//! `status`/`wait`/`try_outcome`/`cancel` map onto the protocol verbs
//! and whose polled event stream is fed by `WATCH <id> [since-round]`.
//!
//! The connection is shared behind a mutex: the protocol is strictly
//! request/reply, so every handle operation is one serialized round
//! trip.  `wait()` holds the connection for the duration of a
//! server-side `RESULT <id> wait`, which blocks the *other* handles of
//! the same executor — prefer `wait_observed` (event polling) when
//! several handles multiplex one connection; a bounded
//! [`JobHandle::wait_timeout`](ctori_engine::JobHandle::wait_timeout)
//! polls instead of blocking, so it never starves its siblings.
//!
//! ```no_run
//! use ctori_engine::{Executor, SubmitOptions};
//! use ctori_service::RemoteExecutor;
//! use ctori_engine::RunSpec;
//!
//! let remote = RemoteExecutor::connect("127.0.0.1:7171").unwrap();
//! let spec = RunSpec::from_text(
//!     "topology: toroidal-mesh 64x64\nrule: smp\nseed: checkerboard 1 2\n",
//! )
//! .unwrap();
//! let mut handle = remote.submit(&spec, SubmitOptions::default()).unwrap();
//! let outcome = handle
//!     .wait_observed(|event| println!("{}", event.to_text()))
//!     .unwrap();
//! println!("{} rounds", outcome.rounds);
//! ```

use crate::client::ServiceClient;
use crate::error::ServiceError;
use crate::job::JobId;
use crate::stats::ServiceStats;
use ctori_engine::exec::{
    ExecError, Executor, JobControl, JobHandle, JobStatus, RunEvent, SubmitOptions,
};
use ctori_engine::{JobTrace, MetricsSnapshot, RunOutcome, RunSpec};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often a bounded remote wait polls the server.
const REMOTE_POLL: Duration = Duration::from_millis(20);

/// A [`ctori_engine::Executor`] backed by a simulation server over TCP.
pub struct RemoteExecutor {
    client: Arc<Mutex<ServiceClient>>,
}

impl RemoteExecutor {
    /// Connects to a server.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, ServiceError> {
        Ok(RemoteExecutor::new(ServiceClient::connect(addr)?))
    }

    /// Connects with a deadline (see [`ServiceClient::connect_timeout`]).
    pub fn connect_timeout(
        addr: impl std::net::ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ServiceError> {
        Ok(RemoteExecutor::new(ServiceClient::connect_timeout(
            addr, timeout,
        )?))
    }

    /// Wraps an already-connected client.
    pub fn new(client: ServiceClient) -> Self {
        RemoteExecutor {
            client: Arc::new(Mutex::new(client)),
        }
    }

    /// The service counters (cache hits, queue depth, …) — the remote
    /// analogue of the local pool's stats snapshot.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        retry_lost(&self.client, |client| client.stats())
    }

    /// The server's full telemetry exposition — the remote analogue of
    /// [`ctori_engine::LocalExecutor::telemetry`], fetched as one
    /// [`MetricsSnapshot`] rather than live instrument handles.
    pub fn metrics(&self) -> Result<MetricsSnapshot, ServiceError> {
        retry_lost(&self.client, |client| client.metrics())
    }

    /// A job's lifecycle trace, fetched from the server — the
    /// remote analogue of [`ctori_engine::LocalExecutor::job_trace`].
    pub fn trace(&self, id: JobId) -> Result<JobTrace, ServiceError> {
        retry_lost(&self.client, |client| client.trace(id))
    }

    /// Asks the server to drain and exit (`SHUTDOWN`); the connection is
    /// spent afterwards.  This is deliberately **not** what
    /// [`Executor::drain`] does: a remote server is shared
    /// infrastructure, so killing it must be an explicit, named act —
    /// backend-agnostic caller code that drains its executor must stay
    /// safe to point at a server other clients are using.
    pub fn shutdown_server(&self) -> Result<(), ServiceError> {
        self.lock().request_shutdown()
    }

    fn lock(&self) -> MutexGuard<'_, ServiceClient> {
        self.client.lock().expect("remote client poisoned")
    }
}

impl Executor for RemoteExecutor {
    fn submit(&self, spec: &RunSpec, options: SubmitOptions) -> Result<JobHandle, ExecError> {
        // A retried SUBMIT may land twice when the reply (not the request)
        // was lost; that is safe — jobs are content-addressed by
        // `RunSpec::canonical_key()`, so the duplicate is a cache hit.
        let id = retry_lost(&self.client, |client| {
            client.submit_with_priority(spec, options.priority)
        })
        .map_err(lower)?;
        Ok(remote_handle(&self.client, id))
    }

    fn submit_sweep(
        &self,
        specs: &[RunSpec],
        options: SubmitOptions,
    ) -> Result<Vec<JobHandle>, ExecError> {
        let ids = retry_lost(&self.client, |client| {
            client.sweep_with_priority(specs, options.priority)
        })
        .map_err(lower)?;
        Ok(ids
            .into_iter()
            .map(|id| remote_handle(&self.client, id))
            .collect())
    }

    fn drain(&self) {
        // A client-side detach only.  Every job this executor submitted
        // is already admitted server-side and will run to completion
        // (the server drains its own queue on shutdown), so the local
        // half of the drain contract holds with no action; the remote
        // half belongs to the server's owner via
        // [`RemoteExecutor::shutdown_server`] — portable caller code
        // calling `drain()` must never kill a shared server.
    }
}

fn remote_handle(client: &Arc<Mutex<ServiceClient>>, id: JobId) -> JobHandle {
    JobHandle::new(Box::new(RemoteHandle {
        client: Arc::clone(client),
        id,
        last_round: None,
        stream_closed: false,
    }))
}

/// Runs one client operation under the shared-connection lock, dialing the
/// server again and retrying **exactly once** when the transport dropped
/// ([`ServiceError::ConnectionLost`]) or a read deadline fired mid-request
/// ([`ServiceError::TimedOut`] — the connection may hold a half-read reply,
/// so a fresh dial is the only safe recovery either way).  If the redial
/// itself fails the *original* error is returned, so a dead server still
/// surfaces as `ConnectionLost` rather than a connect failure.
fn retry_lost<T>(
    client: &Arc<Mutex<ServiceClient>>,
    mut op: impl FnMut(&mut ServiceClient) -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    let mut guard = client.lock().expect("remote client poisoned");
    match op(&mut guard) {
        Err(first @ (ServiceError::ConnectionLost | ServiceError::TimedOut)) => {
            if guard.reconnect().is_err() {
                return Err(first);
            }
            op(&mut guard)
        }
        other => other,
    }
}

/// Translates a wire-level failure into the backend-agnostic error the
/// execution API speaks.  Remote errors lose the context a local pool
/// has (the queue bound), so the nearest variant is used.
fn lower(error: ServiceError) -> ExecError {
    match error {
        ServiceError::Exec(error) => error,
        ServiceError::TimedOut => ExecError::TimedOut,
        ServiceError::ConnectionLost => {
            ExecError::BackendLost(ServiceError::ConnectionLost.to_string())
        }
        ServiceError::Remote { code, message } => match code.as_str() {
            "queue-full" => ExecError::QueueFull { capacity: 0 },
            "shutting-down" => ExecError::ShuttingDown,
            "unknown-job" => ExecError::UnknownJob,
            "not-done" => ExecError::NotFinished,
            "not-cancellable" => ExecError::NotCancellable,
            "job-failed" => ExecError::Failed { message },
            "job-cancelled" => ExecError::Cancelled,
            "timed-out" => ExecError::TimedOut,
            _ => ExecError::Backend(format!("[{code}] {message}")),
        },
        other => ExecError::Backend(other.to_string()),
    }
}

/// The remote [`JobControl`]: one protocol round trip per operation.
struct RemoteHandle {
    client: Arc<Mutex<ServiceClient>>,
    id: JobId,
    /// The highest progress round already delivered through
    /// [`JobControl::poll_events`]; the next `WATCH` resumes after it.
    last_round: Option<usize>,
    /// Whether a terminal event was already delivered (later polls
    /// return nothing, mirroring the local cursor semantics).
    stream_closed: bool,
}

impl JobControl for RemoteHandle {
    fn label(&self) -> String {
        format!("remote:{}", self.id)
    }

    fn status(&mut self) -> Result<JobStatus, ExecError> {
        let id = self.id;
        retry_lost(&self.client, |client| client.status(id)).map_err(lower)
    }

    // Deliberate timing code: the bounded wait polls against a deadline.
    #[allow(clippy::disallowed_methods)]
    fn wait(&mut self, timeout: Option<Duration>) -> Result<Arc<RunOutcome>, ExecError> {
        match timeout {
            // Unbounded: let the server block the reply until the job is
            // terminal (one round trip, no polling).
            None => {
                let id = self.id;
                retry_lost(&self.client, |client| client.result(id))
                    .map(Arc::new)
                    .map_err(lower)
            }
            // Bounded: poll with try_result so the shared connection is
            // released between probes and no half-read reply can be left
            // behind by a client-side read deadline.
            Some(timeout) => {
                let deadline = Instant::now() + timeout;
                loop {
                    if let Some(outcome) = self.try_outcome()? {
                        return Ok(outcome);
                    }
                    if Instant::now() >= deadline {
                        return Err(ExecError::NotFinished);
                    }
                    std::thread::sleep(REMOTE_POLL);
                }
            }
        }
    }

    fn try_outcome(&mut self) -> Result<Option<Arc<RunOutcome>>, ExecError> {
        let id = self.id;
        retry_lost(&self.client, |client| client.try_result(id))
            .map(|outcome| outcome.map(Arc::new))
            .map_err(lower)
    }

    fn cancel(&mut self) -> Result<(), ExecError> {
        let id = self.id;
        retry_lost(&self.client, |client| client.cancel(id)).map_err(lower)
    }

    fn poll_events(&mut self) -> Result<Vec<RunEvent>, ExecError> {
        if self.stream_closed {
            return Ok(Vec::new());
        }
        let (id, since) = (self.id, self.last_round);
        let events = retry_lost(&self.client, |client| client.watch(id, since)).map_err(lower)?;
        if let Some(round) = events.iter().filter_map(RunEvent::progress_round).max() {
            self.last_round = Some(round);
        } else if self.last_round.is_none() && events.iter().any(|e| !e.is_terminal()) {
            // A first poll that saw only the started event: later polls
            // must not replay it, so advance past "everything".
            self.last_round = Some(0);
        }
        if events.iter().any(RunEvent::is_terminal) {
            self.stream_closed = true;
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use std::mem::discriminant;

    #[test]
    fn wire_codes_lower_to_the_error_the_server_raised() {
        for raised in [
            ExecError::QueueFull { capacity: 8 },
            ExecError::ShuttingDown,
            ExecError::UnknownJob,
            ExecError::NotFinished,
            ExecError::NotCancellable,
            ExecError::Failed {
                message: "boom".into(),
            },
            ExecError::Cancelled,
            ExecError::TimedOut,
        ] {
            let Response::Error { code, message } =
                Response::from_error(&ServiceError::Exec(raised.clone()))
            else {
                panic!("{raised:?} must render as an ERR reply");
            };
            let lowered = lower(ServiceError::Remote { code, message });
            assert_eq!(discriminant(&lowered), discriminant(&raised), "{lowered:?}");
        }
    }
}
