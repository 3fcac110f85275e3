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
//! trip.  `wait()` and
//! [`JobHandle::wait_timeout`](ctori_engine::JobHandle::wait_timeout)
//! never poll on a timer: each is a series of **slices**, one `RESULT
//! <id> wait=<ms>` that the server holds until the job ends or the
//! slice does.  A slice lasts at most one second, at most half the
//! client's read timeout ([`ServiceClient::read_timeout`]), so the
//! reply lands well inside it, and no longer than what is left of the
//! caller's bound.  A held reply holds the connection, and operations
//! queue for it in a turnstile, so a waiting handle cannot take it
//! back for its next slice while a sibling is queued: **a sibling
//! handle on the same connection waits at most one slice** for its
//! turn.  `wait_observed` polls `WATCH` and releases the connection
//! between polls.
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
    Deadline, ExecError, Executor, JobControl, JobHandle, JobStatus, RunEvent, SubmitOptions,
};
use ctori_engine::{JobTrace, MetricsSnapshot, RunOutcome, RunSpec};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The longest one server-side wait may hold the shared connection.
const MAX_SLICE: Duration = Duration::from_secs(1);

/// A [`ctori_engine::Executor`] backed by a simulation server over TCP.
pub struct RemoteExecutor {
    connection: Arc<Connection>,
}

/// The one connection an executor's handles share.
struct Connection {
    /// Held from the moment an operation queues for `client` until it
    /// has it, so its holder is next.  A handle back for the next slice
    /// of a wait queues here behind a sibling that waited out the last
    /// slice, instead of retaking `client` before the sibling wakes.
    turnstile: Mutex<()>,
    client: Mutex<ServiceClient>,
}

impl Connection {
    fn lock(&self) -> MutexGuard<'_, ServiceClient> {
        let _next = self.turnstile.lock().expect("remote turnstile poisoned");
        self.client.lock().expect("remote client poisoned")
    }
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
            connection: Arc::new(Connection {
                turnstile: Mutex::new(()),
                client: Mutex::new(client),
            }),
        }
    }

    /// The service counters (cache hits, queue depth, …) — the remote
    /// analogue of the local pool's stats snapshot.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        retry_lost(&self.connection, |client| client.stats())
    }

    /// The server's full telemetry exposition — the remote analogue of
    /// [`ctori_engine::LocalExecutor::telemetry`], fetched as one
    /// [`MetricsSnapshot`] rather than live instrument handles.
    pub fn metrics(&self) -> Result<MetricsSnapshot, ServiceError> {
        retry_lost(&self.connection, |client| client.metrics())
    }

    /// A job's lifecycle trace, fetched from the server — the
    /// remote analogue of [`ctori_engine::LocalExecutor::job_trace`].
    pub fn trace(&self, id: JobId) -> Result<JobTrace, ServiceError> {
        retry_lost(&self.connection, |client| client.trace(id))
    }

    /// Asks the server to drain and exit (`SHUTDOWN`); the connection is
    /// spent afterwards.  This is deliberately **not** what
    /// [`Executor::drain`] does: a remote server is shared
    /// infrastructure, so killing it must be an explicit, named act —
    /// backend-agnostic caller code that drains its executor must stay
    /// safe to point at a server other clients are using.
    pub fn shutdown_server(&self) -> Result<(), ServiceError> {
        self.connection.lock().request_shutdown()
    }
}

impl Executor for RemoteExecutor {
    fn submit(&self, spec: &RunSpec, options: SubmitOptions) -> Result<JobHandle, ExecError> {
        // A retried SUBMIT may land twice when the reply (not the request)
        // was lost; that is safe — jobs are content-addressed by
        // `RunSpec::canonical_key()`, so the duplicate is a cache hit.
        let id = retry_lost(&self.connection, |client| {
            client.submit_with_priority(spec, options.priority)
        })
        .map_err(lower)?;
        Ok(remote_handle(&self.connection, id))
    }

    fn submit_sweep(
        &self,
        specs: &[RunSpec],
        options: SubmitOptions,
    ) -> Result<Vec<JobHandle>, ExecError> {
        let ids = retry_lost(&self.connection, |client| {
            client.sweep_with_priority(specs, options.priority)
        })
        .map_err(lower)?;
        Ok(ids
            .into_iter()
            .map(|id| remote_handle(&self.connection, id))
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

fn remote_handle(connection: &Arc<Connection>, id: JobId) -> JobHandle {
    JobHandle::new(Box::new(RemoteHandle {
        connection: Arc::clone(connection),
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
    connection: &Connection,
    mut op: impl FnMut(&mut ServiceClient) -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    let mut guard = connection.lock();
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

/// How long the next server-side wait may hold the connection: what is
/// left until `deadline`, at most [`MAX_SLICE`] and at most half the
/// client's read timeout.
fn slice(deadline: Deadline, read_timeout: Option<Duration>) -> Duration {
    let cap = read_timeout.map_or(MAX_SLICE, |timeout| MAX_SLICE.min(timeout / 2));
    deadline.left_within(Some(cap)).unwrap_or(cap)
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
    connection: Arc<Connection>,
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
        retry_lost(&self.connection, |client| client.status(id)).map_err(lower)
    }

    fn wait(&mut self, timeout: Option<Duration>) -> Result<Arc<RunOutcome>, ExecError> {
        let (id, deadline) = (self.id, Deadline::after(timeout));
        // One server-side wait per slice; the connection is free for the
        // other handles between slices.
        loop {
            let outcome = retry_lost(&self.connection, |client| {
                client.result_within(id, slice(deadline, client.read_timeout()))
            })
            .map_err(lower)?;
            if let Some(outcome) = outcome {
                return Ok(Arc::new(outcome));
            }
            if deadline.passed() {
                return Err(ExecError::NotFinished);
            }
        }
    }

    fn try_outcome(&mut self) -> Result<Option<Arc<RunOutcome>>, ExecError> {
        let id = self.id;
        retry_lost(&self.connection, |client| client.try_result(id))
            .map(|outcome| outcome.map(Arc::new))
            .map_err(lower)
    }

    fn cancel(&mut self) -> Result<(), ExecError> {
        let id = self.id;
        retry_lost(&self.connection, |client| client.cancel(id)).map_err(lower)
    }

    fn poll_events(&mut self) -> Result<Vec<RunEvent>, ExecError> {
        if self.stream_closed {
            return Ok(Vec::new());
        }
        let (id, since) = (self.id, self.last_round);
        let events =
            retry_lost(&self.connection, |client| client.watch(id, since)).map_err(lower)?;
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
