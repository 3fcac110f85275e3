//! The TCP front-end over `std::net`.
//!
//! [`Server::bind`] opens a listener (bind to port `0` for an ephemeral
//! loopback port) and starts the server's [`LocalExecutor`] worker pool,
//! with the content-addressed result cache plugged into it;
//! [`Server::serve`] runs the accept loop until a client issues
//! `SHUTDOWN`.  Each connection gets a lightweight **I/O handler** thread
//! that only parses requests, calls the pool, and writes replies — all
//! simulation work runs on the persistent worker pool, so a thousand idle
//! connections cost no simulation threads.  Handlers poll a
//! shared shutdown flag on a short read timeout, which is what lets a
//! drain initiated on one connection close every other one.  An
//! **acceptor** thread blocks in `accept` and hands each new connection
//! to [`Server::serve`] over a channel, so a fresh client is served the
//! moment it connects, with no accept poll to wait out.
//!
//! `RESULT … wait` replies are held server-side (long polling, RFC
//! 6202): the handler blocks on the pool until the outcome exists, or
//! the request's `wait=<ms>` bound expires.  Every admitted job
//! terminates, also during a drain, so a held reply always ends.
//!
//! Incoming data is bounded: a single request line is capped at
//! [`MAX_LINE_BYTES`] and a payload block at [`MAX_PAYLOAD_BYTES`], so a
//! client that streams data without ever terminating a line or block
//! cannot grow server memory without limit.  The server sends one
//! best-effort `ERR bad-request` reply (briefly draining the offending
//! input so the reply usually survives the close instead of being
//! destroyed by an abortive reset) and closes the connection.  A sweep
//! whose combined spec text would exceed the payload bound can always be
//! split into several `SWEEP`/`SUBMIT` requests — the pool's queue
//! bound, not the framing bound, is the admission limit.
//!
//! Shutdown sequence: the handler that reads `SHUTDOWN` raises the flag,
//! replies `OK bye` and sends a shutdown message down the acceptor's
//! channel, so [`Server::serve`] stops taking connections without
//! waiting on the acceptor.  The handler then pokes the listener with a
//! throwaway connection to the address its own client reached, which
//! wakes the acceptor to see the flag and exit.  The poke is best
//! effort: if it fails, the acceptor exits on the next connection
//! instead, and `serve()` returns all the same.  The remaining handlers
//! finish their in-flight request and close, and finally the pool
//! drains (every admitted job still executes) before
//! [`Server::serve`] returns the final counters.

use crate::cache::SharedCache;
use crate::error::ServiceError;
use crate::job::JobId;
use crate::protocol::{self, BlockLine, Request, Response, Wait};
use crate::stats::ServiceStats;
use ctori_engine::telemetry::{monotonic_nanos, Counter, Histogram};
use ctori_engine::{LocalExecutor, LocalExecutorConfig, OutcomeCache, Registry, RunSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::Duration;

/// How often idle connection handlers check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// The pause before the acceptor retries an `accept` that failed in a
/// way that may persist (the process is out of file descriptors, say),
/// so such a failure cannot spin a core.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Upper bound on one request line (a header or one payload line).
pub const MAX_LINE_BYTES: usize = 1 << 20; // 1 MiB

/// Upper bound on one request payload block (a spec or sweep text).
pub const MAX_PAYLOAD_BYTES: usize = 8 << 20; // 8 MiB

/// Sizing of a [`Server`]'s worker pool and result cache.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker-pool size; `0` = automatic
    /// ([`ctori_engine::default_threads`] — the same knob
    /// [`ctori_engine::EngineOptions::threads`] resolves through).
    pub workers: usize,
    /// Bound on the number of *queued* jobs; submissions beyond it are
    /// rejected with [`ctori_engine::ExecError::QueueFull`].
    pub queue_capacity: usize,
    /// Capacity of the content-addressed result cache (`0` disables it).
    pub cache_capacity: usize,
    /// How many **terminal** job records (done/failed/cancelled) to keep
    /// for `STATUS`/`RESULT`/`WATCH` queries.  Beyond the bound the
    /// oldest terminal records are forgotten — their ids then report
    /// [`ctori_engine::ExecError::UnknownJob`] — which is what keeps a
    /// long-running server's memory bounded no matter how many jobs it
    /// has served.
    pub retain_jobs: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 0,
            queue_capacity: 1024,
            cache_capacity: 256,
            retain_jobs: 4096,
        }
    }
}

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The listen address.  CI and tests stay on the loopback interface;
    /// `127.0.0.1:0` (the default) picks an ephemeral port.
    pub addr: String,
    /// Pool and cache sizing (worker pool, queue bound, cache capacity).
    pub scheduler: SchedulerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// The wire-layer instruments, pre-registered into the pool's registry
/// at bind time so the per-request path never takes the
/// registry's map lock.  Everything lands in the same exposition the
/// `METRICS` verb serves.
struct WireMetrics {
    /// `server.requests.<VERB>`, one counter per protocol verb.
    requests: Vec<(&'static str, Arc<Counter>)>,
    /// `server.bytes.in`: request bytes framed (headers and payloads).
    bytes_in: Arc<Counter>,
    /// `server.bytes.out`: reply bytes written.
    bytes_out: Arc<Counter>,
    /// `server.connections`: connections accepted.
    connections: Arc<Counter>,
    /// `server.connection.lifetime-ms`: accept-to-close durations.
    connection_lifetime_ms: Arc<Histogram>,
    /// `server.framing-errors`: connections dropped on unframeable input.
    framing_errors: Arc<Counter>,
}

/// Every protocol verb, for per-verb counter pre-registration.  Kept in
/// lockstep with [`Request::verb`] (the `metrics_cover_every_verb` test
/// breaks if one side drifts).
const VERBS: [&str; 10] = [
    "SUBMIT", "SWEEP", "STATUS", "RESULT", "WATCH", "CANCEL", "STATS", "METRICS", "TRACE",
    "SHUTDOWN",
];

impl WireMetrics {
    fn register(registry: &Registry) -> WireMetrics {
        WireMetrics {
            requests: VERBS
                .iter()
                .map(|verb| (*verb, registry.counter(&format!("server.requests.{verb}"))))
                .collect(),
            bytes_in: registry.counter("server.bytes.in"),
            bytes_out: registry.counter("server.bytes.out"),
            connections: registry.counter("server.connections"),
            connection_lifetime_ms: registry.histogram("server.connection.lifetime-ms"),
            framing_errors: registry.counter("server.framing-errors"),
        }
    }

    /// The counter for one verb (pre-registered, so this is a ten-entry
    /// scan, not a map lookup).
    fn verb_counter(&self, verb: &str) -> Option<&Counter> {
        self.requests
            .iter()
            .find(|(name, _)| *name == verb)
            .map(|(_, counter)| &**counter)
    }
}

/// A bound, not-yet-serving simulation server.
pub struct Server {
    listener: TcpListener,
    /// The worker pool every request runs against.
    pool: LocalExecutor,
    /// The result cache plugged into the pool, kept for its STATS
    /// counters.
    cache: Arc<SharedCache>,
    /// Monotonic start instant, for the STATS uptime report.
    started_nanos: u64,
    /// Raised by `SHUTDOWN`; shared with the acceptor thread.
    shutdown: Arc<AtomicBool>,
    metrics: WireMetrics,
}

/// What the acceptor hands [`Server::serve`].
enum Accepted {
    /// A new connection.
    Stream(TcpStream),
    /// A handler read `SHUTDOWN`: stop taking connections.
    Shutdown,
}

impl Server {
    /// Binds the listener and starts the worker pool.
    pub fn bind(config: ServiceConfig) -> std::io::Result<Server> {
        let sizing = config.scheduler;
        let cache = Arc::new(SharedCache::new(sizing.cache_capacity));
        // With the cache disabled, hand the pool no cache at all: the
        // pool then skips canonical-key hashing at submission and the
        // guaranteed-miss probe per job.  The SharedCache value is kept
        // only so STATS reports zeroed counters with capacity 0.
        let pool_cache =
            (sizing.cache_capacity > 0).then(|| Arc::clone(&cache) as Arc<dyn OutcomeCache>);
        let pool = LocalExecutor::start_with_cache(
            LocalExecutorConfig {
                workers: sizing.workers,
                queue_capacity: sizing.queue_capacity,
                retain_jobs: sizing.retain_jobs,
            },
            pool_cache,
        );
        let metrics = WireMetrics::register(&pool.telemetry());
        Ok(Server {
            listener: TcpListener::bind(&config.addr)?,
            pool,
            cache,
            started_nanos: monotonic_nanos(),
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics,
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client issues `SHUTDOWN`, then drains
    /// the pool and returns the final counters.
    pub fn serve(self) -> std::io::Result<ServiceStats> {
        let (accepted, incoming) = mpsc::channel();
        let listener = self.listener.try_clone()?;
        let shutdown = Arc::clone(&self.shutdown);
        let to_serve = accepted.clone();
        // Not scoped: `serve()` must be able to return while the acceptor
        // is still blocked in `accept` (see the module docs).
        std::thread::Builder::new()
            .name("ctori-accept".into())
            .spawn(move || accept_loop(&listener, &to_serve, &shutdown))?;
        std::thread::scope(|scope| {
            for next in &incoming {
                let Accepted::Stream(stream) = next else {
                    break;
                };
                let (server, accepted) = (&self, accepted.clone());
                scope.spawn(move || {
                    server.metrics.connections.inc();
                    let opened = monotonic_nanos();
                    handle_connection(stream, server, &accepted);
                    server
                        .metrics
                        .connection_lifetime_ms
                        .record(monotonic_nanos().saturating_sub(opened) / 1_000_000);
                });
            }
        });
        self.pool.shutdown();
        Ok(self.stats())
    }

    /// The `STATS` snapshot: pool counters, cache counters and uptime.
    fn stats(&self) -> ServiceStats {
        let pool = self.pool.stats();
        ServiceStats {
            workers: pool.workers,
            queued: pool.queued,
            running: pool.running,
            done: pool.done,
            failed: pool.failed,
            cancelled: pool.cancelled,
            jobs_submitted: pool.submitted,
            queue_depth_hwm: pool.queued_hwm,
            uptime_seconds: monotonic_nanos().saturating_sub(self.started_nanos) / 1_000_000_000,
            cache: self.cache.stats(),
        }
    }
}

/// The acceptor thread's body: blocks in `accept` and hands each
/// connection to `serve()` until the shutdown flag is up or `serve()` has
/// returned.  A connection accepted after `SHUTDOWN` (the handler's poke,
/// or a late client) is dropped unserved.
fn accept_loop(listener: &TcpListener, accepted: &Sender<Accepted>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst)
                    || accepted.send(Accepted::Stream(stream)).is_err()
                {
                    return;
                }
            }
            // Failures of one connection, not of the listener.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                ) => {}
            // A plain pause: nothing unparks the acceptor.
            Err(_) => std::thread::park_timeout(ACCEPT_RETRY),
        }
    }
}

/// Wakes an acceptor blocked in `accept` so it sees the shutdown flag:
/// one throwaway connection to `addr`, the local end of the connection
/// that carried `SHUTDOWN`.  That address just took a connection from
/// the client, so it reaches the listener even when the listener is
/// bound to an unspecified address such as `0.0.0.0`.  Best effort.
fn poke_listener(addr: std::io::Result<SocketAddr>) {
    if let Ok(addr) = addr {
        let _ = TcpStream::connect_timeout(&addr, POLL_INTERVAL);
    }
}

/// What a bounded framed read produced.
enum Framed {
    /// A complete line or payload block.
    Data(String),
    /// EOF, or the shutdown flag was raised while idle.
    Closed,
    /// Unframeable input — a size bound was exceeded, or a line is not
    /// valid UTF-8.  The caller should reply `ERR bad-request` with this
    /// detail and drop the connection.
    Malformed(String),
}

/// Reads one full line, polling the shutdown flag on read timeouts.
/// `buf` persists partial reads across timeouts so no bytes are lost.
/// The line is capped at [`MAX_LINE_BYTES`]: each read is `take`-limited
/// to the remaining allowance, so a client that never sends the `\n`
/// terminator cannot grow the buffer past the bound.  Framing is done on
/// **bytes** and converted to UTF-8 only once a line is complete — the
/// allowance boundary may split a multi-byte codepoint, which must not
/// surface as an I/O error.
fn next_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<Framed> {
    loop {
        let allowance = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
        match reader.by_ref().take(allowance).read_until(b'\n', buf) {
            Ok(_) => {
                if buf.ends_with(b"\n") {
                    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return Ok(match String::from_utf8(std::mem::take(buf)) {
                        Ok(line) => Framed::Data(line),
                        Err(_) => Framed::Malformed("line is not valid utf-8".into()),
                    });
                }
                if buf.len() > MAX_LINE_BYTES {
                    return Ok(Framed::Malformed(format!(
                        "line exceeds the {MAX_LINE_BYTES}-byte bound"
                    )));
                }
                // No newline and under the bound: EOF (clean, or in the
                // middle of a line — the fragment is dropped).
                return Ok(Framed::Closed);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(Framed::Closed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads a payload block with the same polling semantics, capped at
/// [`MAX_PAYLOAD_BYTES`] in total.
fn next_block(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<Framed> {
    let mut payload = String::new();
    loop {
        match next_line(reader, buf, shutdown)? {
            Framed::Closed => return Ok(Framed::Closed),
            malformed @ Framed::Malformed(_) => return Ok(malformed),
            Framed::Data(line) => match protocol::decode_block_line(&line) {
                BlockLine::End => return Ok(Framed::Data(payload)),
                BlockLine::Data(data) => {
                    if payload.len() + data.len() > MAX_PAYLOAD_BYTES {
                        return Ok(Framed::Malformed(format!(
                            "payload block exceeds the {MAX_PAYLOAD_BYTES}-byte bound"
                        )));
                    }
                    payload.push_str(&data);
                    payload.push('\n');
                }
            },
        }
    }
}

/// Replies `ERR bad-request` for unframeable input, then makes a best
/// effort to deliver it: the write side is shut down and the read side
/// briefly drained, so a client that has stopped sending gets the reply
/// and a clean FIN instead of an abortive reset (closing with unread
/// bytes in the receive queue would send RST and destroy the reply in
/// flight).  A client that keeps streaming past the drain window still
/// gets reset — delivery stays best-effort, the caller drops the
/// connection either way.
// Deliberate timing code: the drain window is wall-clock bounded.
#[allow(clippy::disallowed_methods)]
fn reply_bad_request(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, detail: String) {
    let error = ServiceError::Protocol(detail);
    let _ = writer.write_all(Response::from_error(&error).wire().as_bytes());
    let _ = writer.flush();
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 8192];
    let deadline = std::time::Instant::now() + 2 * POLL_INTERVAL;
    while std::time::Instant::now() < deadline {
        match reader.get_mut().read(&mut scratch) {
            Ok(0) => break, // client closed its side: FIN both ways
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
}

/// One connection's request/reply loop.  `accepted` is the channel to
/// `serve()`, used only to pass `SHUTDOWN` on.
fn handle_connection(stream: TcpStream, server: &Server, accepted: &Sender<Accepted>) {
    let (shutdown, metrics) = (&server.shutdown, &server.metrics);
    // The timeout is only a poll interval for the shutdown flag; requests
    // themselves can sit idle indefinitely.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();

    loop {
        // Checked before every request, not just on idle timeouts: a
        // connection kept busy by a fast client must still close once a
        // drain begins, or serve() would never get past its handler join
        // and the pool would keep admitting work after SHUTDOWN.
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let header = match next_line(&mut reader, &mut buf, shutdown) {
            Ok(Framed::Data(line)) => line,
            Ok(Framed::Malformed(detail)) => {
                metrics.framing_errors.inc();
                return reply_bad_request(&mut reader, &mut writer, detail);
            }
            Ok(Framed::Closed) | Err(_) => return,
        };
        if header.trim().is_empty() {
            continue;
        }
        metrics.bytes_in.add(header.len() as u64 + 1);
        let payload = if Request::header_needs_payload(&header) {
            match next_block(&mut reader, &mut buf, shutdown) {
                Ok(Framed::Data(payload)) => {
                    metrics.bytes_in.add(payload.len() as u64);
                    Some(payload)
                }
                Ok(Framed::Malformed(detail)) => {
                    metrics.framing_errors.inc();
                    return reply_bad_request(&mut reader, &mut writer, detail);
                }
                Ok(Framed::Closed) | Err(_) => return,
            }
        } else {
            None
        };
        let (response, bye) = match Request::from_parts(&header, payload.as_deref()) {
            Ok(request) => {
                if let Some(counter) = metrics.verb_counter(request.verb()) {
                    counter.inc();
                }
                let bye = request == Request::Shutdown;
                let response = dispatch(request, server);
                (response.unwrap_or_else(|e| Response::from_error(&e)), bye)
            }
            Err(error) => (Response::from_error(&error), false),
        };
        let reply = response.wire();
        metrics.bytes_out.add(reply.len() as u64);
        let delivered = writer.write_all(reply.as_bytes()).is_ok() && writer.flush().is_ok();
        if bye {
            let _ = accepted.send(Accepted::Shutdown);
            return poke_listener(writer.local_addr());
        }
        if !delivered {
            return;
        }
    }
}

/// Executes one request against the pool.
fn dispatch(request: Request, server: &Server) -> Result<Response, ServiceError> {
    let pool = &server.pool;
    // Specs are validated inside `RunSpec::from_text`, so an admitted
    // job can never panic the engine on shape errors.
    Ok(match request {
        Request::Submit {
            priority,
            spec_text,
        } => Response::Job(JobId::new(
            pool.enqueue(RunSpec::from_text(&spec_text)?, priority)?,
        )),
        Request::Sweep {
            priority,
            spec_texts,
        } => {
            let specs = spec_texts
                .iter()
                .map(|text| RunSpec::from_text(text))
                .collect::<Result<_, _>>()?;
            let ids = pool.enqueue_batch(specs, priority)?;
            Response::Jobs(ids.into_iter().map(JobId::new).collect())
        }
        Request::Status { id } => Response::Status(pool.job_status(id.as_u64())?),
        // A long poll: the handler blocks here, on the pool, for as long
        // as `wait` allows.
        Request::Result { id, wait } => {
            let id = id.as_u64();
            let outcome = match wait {
                Wait::No => pool.job_outcome(id),
                Wait::Unbounded => pool.wait_job(id, None),
                Wait::Millis(ms) => pool.wait_job(id, Some(Duration::from_millis(ms))),
            }?;
            Response::Result(outcome.to_text())
        }
        Request::Watch { id, since } => Response::Events(pool.events_since(id.as_u64(), since)?),
        Request::Cancel { id } => {
            pool.cancel_job(id.as_u64())?;
            Response::Cancelled
        }
        Request::Stats => Response::Stats(server.stats()),
        Request::Metrics => Response::Metrics(pool.telemetry().snapshot()),
        Request::Trace { id } => Response::Trace(pool.job_trace(id.as_u64())?),
        Request::Shutdown => {
            // Raised before the reply, the channel message and the poke
            // (see `handle_connection`), so the acceptor sees it as soon
            // as the poke wakes it, and every other handler by its next
            // read timeout.
            server.shutdown.store(true, Ordering::SeqCst);
            Response::Bye
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, Priority};

    #[test]
    fn metrics_cover_every_verb() {
        let registry = Registry::new();
        let metrics = WireMetrics::register(&registry);
        let requests = [
            Request::Submit {
                priority: Priority::Normal,
                spec_text: String::new(),
            },
            Request::Sweep {
                priority: Priority::Normal,
                spec_texts: Vec::new(),
            },
            Request::Status { id: JobId::new(1) },
            Request::Result {
                id: JobId::new(1),
                wait: Wait::No,
            },
            Request::Watch {
                id: JobId::new(1),
                since: None,
            },
            Request::Cancel { id: JobId::new(1) },
            Request::Stats,
            Request::Metrics,
            Request::Trace { id: JobId::new(1) },
            Request::Shutdown,
        ];
        assert_eq!(requests.len(), VERBS.len());
        for request in &requests {
            let counter = metrics
                .verb_counter(request.verb())
                .unwrap_or_else(|| panic!("no counter for {}", request.verb()));
            counter.inc();
        }
        let snapshot = registry.snapshot();
        for verb in VERBS {
            assert_eq!(
                snapshot.counter(&format!("server.requests.{verb}")),
                Some(1),
                "{verb}"
            );
        }
    }
}
