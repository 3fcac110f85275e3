//! A small blocking client for the service protocol.
//!
//! [`ServiceClient`] wraps one TCP connection and exposes the protocol
//! verbs as typed methods: specs go in as [`RunSpec`] values (serialized
//! through their canonical text form), outcomes come back as parsed
//! [`RunOutcome`]s.  Server-side failures surface as
//! [`ServiceError::Remote`] carrying the wire error code.
//!
//! ```no_run
//! use ctori_service::{Server, ServiceClient, ServiceConfig};
//! use ctori_engine::{RunSpec, RuleSpec, SeedSpec, TopologySpec};
//! use std::error::Error;
//!
//! fn main() -> Result<(), Box<dyn Error>> {
//!     let server = Server::bind(ServiceConfig::default())?;
//!     let addr = server.local_addr()?;
//!     std::thread::spawn(move || server.serve());
//!
//!     let mut client = ServiceClient::connect(addr)?;
//!     let spec = RunSpec::from_text(
//!         "topology: toroidal-mesh 8x8\nrule: smp\nseed: checkerboard 1 2\n",
//!     )?;
//!     let id = client.submit(&spec)?;
//!     let outcome = client.result(id)?;
//!     println!("{} rounds", outcome.rounds);
//!     client.shutdown()?;
//!     Ok(())
//! }
//! ```

use crate::error::ServiceError;
use crate::job::{JobId, JobStatus, Priority};
use crate::protocol::{self, Request, Response, Wait};
use crate::stats::ServiceStats;
use ctori_engine::exec::RunEvent;
use ctori_engine::{JobTrace, MetricsSnapshot, RunOutcome, RunSpec};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking connection to a simulation server.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The resolved peer endpoint, kept so [`ServiceClient::reconnect`]
    /// can dial the same server again after the transport drops.
    peer: SocketAddr,
    /// The configured reply-read cap, re-applied across reconnects.
    read_timeout: Option<Duration>,
}

impl ServiceClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        let writer = TcpStream::connect(addr)?;
        Self::from_stream(writer)
    }

    /// Connects with a per-address deadline, so an unreachable or
    /// wedged server cannot block the caller indefinitely.  A deadline
    /// expiry surfaces as [`ServiceError::TimedOut`].
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ServiceError> {
        let mut last: Option<std::io::Error> = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) if is_timeout(&e) => ServiceError::TimedOut,
            Some(e) => e.into(),
            None => ServiceError::Protocol("address resolved to no endpoints".into()),
        })
    }

    fn from_stream(writer: TcpStream) -> Result<Self, ServiceError> {
        let peer = writer.peer_addr()?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(ServiceClient {
            reader,
            writer,
            peer,
            read_timeout: None,
        })
    }

    /// The server endpoint this client is (or was) connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Drops the current connection and dials the same server again,
    /// re-applying the configured read timeout.  Use after
    /// [`ServiceError::ConnectionLost`] or a mid-request
    /// [`ServiceError::TimedOut`] left the old connection unusable; the
    /// server keeps job state across connections, so ids from before the
    /// drop remain valid.
    pub fn reconnect(&mut self) -> Result<(), ServiceError> {
        let writer = TcpStream::connect(self.peer)?;
        writer.set_read_timeout(self.read_timeout)?;
        self.reader = BufReader::new(writer.try_clone()?);
        self.writer = writer;
        Ok(())
    }

    /// Caps how long any single reply read may block (`None` removes the
    /// cap).  With a cap set, a hung server surfaces as
    /// [`ServiceError::TimedOut`] instead of blocking `result(wait)`
    /// forever.
    ///
    /// A timeout that fires **mid-reply** leaves the connection holding a
    /// half-read response; drop the client and reconnect rather than
    /// issuing further requests on it.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServiceError> {
        self.writer.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// The configured reply-read cap (`None`: reads block without
    /// bound).  A server-side wait must end well inside it.
    pub fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }

    /// Submits one spec at [`Priority::Normal`].
    pub fn submit(&mut self, spec: &RunSpec) -> Result<JobId, ServiceError> {
        self.submit_with_priority(spec, Priority::Normal)
    }

    /// Submits one spec at an explicit priority.
    pub fn submit_with_priority(
        &mut self,
        spec: &RunSpec,
        priority: Priority,
    ) -> Result<JobId, ServiceError> {
        match self.roundtrip(&Request::Submit {
            priority,
            spec_text: spec.to_text(),
        })? {
            Response::Job(id) => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Submits a whole sweep atomically; the returned ids are in spec
    /// order.
    pub fn sweep(&mut self, specs: &[RunSpec]) -> Result<Vec<JobId>, ServiceError> {
        self.sweep_with_priority(specs, Priority::Normal)
    }

    /// Submits a sweep at an explicit priority.
    pub fn sweep_with_priority(
        &mut self,
        specs: &[RunSpec],
        priority: Priority,
    ) -> Result<Vec<JobId>, ServiceError> {
        match self.roundtrip(&Request::Sweep {
            priority,
            spec_texts: specs.iter().map(RunSpec::to_text).collect(),
        })? {
            Response::Jobs(ids) => Ok(ids),
            other => Err(unexpected(other)),
        }
    }

    /// The job's lifecycle snapshot.
    pub fn status(&mut self, id: JobId) -> Result<JobStatus, ServiceError> {
        match self.roundtrip(&Request::Status { id })? {
            Response::Status(status) => Ok(status),
            other => Err(unexpected(other)),
        }
    }

    /// Blocks (server-side) until the job terminates and returns its
    /// outcome.
    pub fn result(&mut self, id: JobId) -> Result<RunOutcome, ServiceError> {
        self.fetch_result(id, Wait::Unbounded)
    }

    /// Non-blocking result probe: `Ok(None)` while the job is still
    /// queued or running.
    pub fn try_result(&mut self, id: JobId) -> Result<Option<RunOutcome>, ServiceError> {
        pending_as_none(self.fetch_result(id, Wait::No))
    }

    /// Blocks (server-side) at most `bound`, rounded up to whole
    /// milliseconds, for the job to terminate: `Ok(None)` if it is still
    /// queued or running then (`RESULT <id> wait=<ms>`).
    pub fn result_within(
        &mut self,
        id: JobId,
        bound: Duration,
    ) -> Result<Option<RunOutcome>, ServiceError> {
        pending_as_none(self.fetch_result(id, Wait::Millis(ceil_millis(bound))))
    }

    /// Polls a job's buffered progress events: everything with
    /// `since = None`, otherwise the progress beyond that round plus the
    /// terminal event once one exists.  Repeat with the last seen round
    /// until a terminal event arrives — that is the `WATCH` streaming
    /// loop (the `RemoteExecutor` handle does it for you).
    pub fn watch(
        &mut self,
        id: JobId,
        since: Option<usize>,
    ) -> Result<Vec<RunEvent>, ServiceError> {
        match self.roundtrip(&Request::Watch { id, since })? {
            Response::Events(events) => Ok(events),
            other => Err(unexpected(other)),
        }
    }

    /// Cancels a queued job.
    pub fn cancel(&mut self, id: JobId) -> Result<(), ServiceError> {
        match self.roundtrip(&Request::Cancel { id })? {
            Response::Cancelled => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// The service counters (including the cache hit/miss statistics).
    pub fn stats(&mut self) -> Result<ServiceStats, ServiceError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// The full telemetry exposition: the executor's instruments
    /// (queue-wait and run-time histograms, submission counters) plus
    /// the server's wire-layer ones (per-verb request counts, bytes
    /// in/out, connection lifetimes, framing errors).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ServiceError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected(other)),
        }
    }

    /// A job's lifecycle trace: queued → claimed → sampled progress →
    /// terminal, with monotonic timestamps.
    pub fn trace(&mut self, id: JobId) -> Result<JobTrace, ServiceError> {
        match self.roundtrip(&Request::Trace { id })? {
            Response::Trace(trace) => Ok(trace),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to drain and exit, consuming the connection.
    pub fn shutdown(mut self) -> Result<(), ServiceError> {
        self.request_shutdown()
    }

    /// As [`ServiceClient::shutdown`], but keeps the client value alive
    /// (the connection is spent either way — the server closes it after
    /// `OK bye`).  This is what lets a shared client behind a lock
    /// forward a drain request.
    pub fn request_shutdown(&mut self) -> Result<(), ServiceError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    fn fetch_result(&mut self, id: JobId, wait: Wait) -> Result<RunOutcome, ServiceError> {
        match self.roundtrip(&Request::Result { id, wait })? {
            Response::Result(text) => Ok(RunOutcome::from_text(&text)?),
            other => Err(unexpected(other)),
        }
    }

    /// Writes one request and reads one reply; `ERR` replies become
    /// [`ServiceError::Remote`], expired read deadlines
    /// [`ServiceError::TimedOut`].
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ServiceError> {
        self.writer
            .write_all(request.wire().as_bytes())
            .map_err(|e| lift_lost(e.into()))?;
        self.writer.flush().map_err(|e| lift_lost(e.into()))?;
        let header = protocol::read_line(&mut self.reader)
            .map_err(lift_timeout)
            .map_err(lift_lost)?
            .ok_or(ServiceError::ConnectionLost)?;
        let payload = if Response::header_needs_payload(&header) {
            Some(
                protocol::read_block(&mut self.reader)
                    .map_err(lift_timeout)
                    .map_err(lift_lost)?,
            )
        } else {
            None
        };
        Response::from_parts(&header, payload.as_deref())?.into_result()
    }
}

fn unexpected(response: Response) -> ServiceError {
    ServiceError::Protocol(format!("unexpected reply {response:?}"))
}

/// Maps the server's `ERR not-done` to `Ok(None)`.
fn pending_as_none(
    result: Result<RunOutcome, ServiceError>,
) -> Result<Option<RunOutcome>, ServiceError> {
    match result {
        Ok(outcome) => Ok(Some(outcome)),
        Err(ServiceError::Remote { code, .. }) if code == "not-done" => Ok(None),
        Err(other) => Err(other),
    }
}

/// A wire `wait=<ms>` bound that is never shorter than `bound`.
fn ceil_millis(bound: Duration) -> u64 {
    u64::try_from(bound.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Rewrites an expired read deadline as [`ServiceError::TimedOut`].
fn lift_timeout(e: ServiceError) -> ServiceError {
    match e {
        ServiceError::Io(ref io) if is_timeout(io) => ServiceError::TimedOut,
        other => other,
    }
}

/// Rewrites a dropped-transport I/O failure as
/// [`ServiceError::ConnectionLost`], so callers can tell "the pipe broke,
/// reconnect and retry" apart from unrecoverable I/O (a refused dial stays
/// [`ServiceError::Io`]).
fn lift_lost(e: ServiceError) -> ServiceError {
    match e {
        ServiceError::Io(ref io)
            if matches!(
                io.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::NotConnected
                    | std::io::ErrorKind::UnexpectedEof
            ) =>
        {
            ServiceError::ConnectionLost
        }
        other => other,
    }
}
