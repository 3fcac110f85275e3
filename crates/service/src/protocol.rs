//! The line-framed TCP wire protocol.
//!
//! Every request is one ASCII **header line**; requests that carry a
//! payload (spec or outcome text — the existing
//! [`ctori_engine::RunSpec::to_text`] / [`ctori_engine::RunOutcome::to_text`]
//! forms) follow it with a **block**: the payload lines, dot-stuffed
//! SMTP-style (a payload line starting with `.` is sent with an extra
//! leading `.`), terminated by a line holding a single `.`.
//!
//! | request | payload | success reply |
//! |---------|---------|---------------|
//! | `SUBMIT [priority=P]` | one spec | `OK job <id>` |
//! | `SWEEP [priority=P]` | specs separated by `--` lines | `OK jobs <id>…` |
//! | `STATUS <id>` | — | `OK status <state> [cached]` |
//! | `RESULT <id> [wait \| wait=<ms>]` | — | `OK result` + outcome block |
//! | `WATCH <id> [since-round]` | — | `OK events` + event block |
//! | `CANCEL <id>` | — | `OK cancelled` |
//! | `STATS` | — | `OK stats` + stats block |
//! | `METRICS` | — | `OK metrics` + metrics block |
//! | `TRACE <id>` | — | `OK trace` + span block |
//! | `SHUTDOWN` | — | `OK bye`, then the server drains and exits |
//!
//! `WATCH` is the **polled progress stream** of the execution API: the
//! reply block holds the job's buffered
//! [`ctori_engine::RunEvent`]s — all of them without `since-round`,
//! otherwise the progress events beyond that round plus the terminal
//! event once one exists.  A client repeats `WATCH <id> <last-seen-round>`
//! until a terminal event arrives; progress rounds are strictly
//! increasing across the polls.
//!
//! `RESULT`'s trailing flag makes it a **long poll** (RFC 6202): the
//! server holds the reply until the job is terminal, so a waiting
//! client sends one request per outcome instead of one per timer tick.
//! `RESULT <id> wait` holds it without bound, and `RESULT <id>
//! wait=<ms>` at most `<ms>` milliseconds, replying `ERR not-done` if
//! the job is still pending then.  Without the flag it answers at once.
//!
//! Failures reply `ERR <code> <message>` on one line (e.g. `queue-full`,
//! `unknown-job`, `not-done`, `job-failed`, `bad-spec`, `bad-request`).
//! Both sides are symmetric: [`Request`] and [`Response`] render with
//! `wire()` and rebuild with `from_parts(header, payload)`, so the
//! protocol round-trips and is testable without a socket.

use crate::error::ServiceError;
use crate::job::{parse_job_state, parse_priority, JobId, JobStatus, Priority};
use crate::stats::ServiceStats;
use ctori_engine::exec::{events_from_text, events_to_text, ExecError, RunEvent};
use ctori_engine::{JobTrace, MetricsSnapshot};
use std::io::BufRead;

/// The line separating two specs inside a `SWEEP` payload.
pub const SWEEP_SEPARATOR: &str = "--";

/// The line terminating a payload block.
pub const END_OF_BLOCK: &str = ".";

// ---------------------------------------------------------------------------
// Block framing
// ---------------------------------------------------------------------------

/// Renders a payload as a dot-stuffed, dot-terminated block.
pub fn encode_block(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 8);
    for line in payload.lines() {
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(END_OF_BLOCK);
    out.push('\n');
    out
}

/// One decoded line of an incoming block.
pub enum BlockLine {
    /// A payload line (already un-stuffed).
    Data(String),
    /// The `.` terminator.
    End,
}

/// Decodes one raw line of an incoming block.
pub fn decode_block_line(line: &str) -> BlockLine {
    if line == END_OF_BLOCK {
        BlockLine::End
    } else if let Some(stuffed) = line.strip_prefix('.') {
        BlockLine::Data(stuffed.to_string())
    } else {
        BlockLine::Data(line.to_string())
    }
}

/// Reads one `\n`-terminated line, trimming the terminator (and a
/// preceding `\r`).  Returns `None` at a clean EOF.
pub fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ServiceError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Reads a whole block (used by the blocking client, which sets no read
/// timeout).  Errors if the stream ends before the terminator.
pub fn read_block(reader: &mut impl BufRead) -> Result<String, ServiceError> {
    let mut payload = String::new();
    loop {
        let line = read_line(reader)?
            .ok_or_else(|| ServiceError::Protocol("connection closed inside a block".into()))?;
        match decode_block_line(&line) {
            BlockLine::End => return Ok(payload),
            BlockLine::Data(data) => {
                payload.push_str(&data);
                payload.push('\n');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// How long a `RESULT` request lets the server hold its reply: the
/// optional trailing `wait` / `wait=<ms>` flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// No flag: reply at once.
    No,
    /// `wait`: hold the reply until the job is terminal.
    Unbounded,
    /// `wait=<ms>`: hold the reply at most this many milliseconds.
    Millis(u64),
}

impl Wait {
    /// The flag as a header suffix: empty, ` wait` or ` wait=<ms>`.
    fn suffix(self) -> String {
        match self {
            Wait::No => String::new(),
            Wait::Unbounded => " wait".into(),
            Wait::Millis(ms) => format!(" wait={ms}"),
        }
    }

    /// Parses a flag token.
    fn parse(token: &str) -> Result<Wait, ServiceError> {
        if token == "wait" {
            return Ok(Wait::Unbounded);
        }
        // Digits only: `u64::from_str` would also take a leading `+`.
        match token.strip_prefix("wait=") {
            Some(ms) if !ms.is_empty() && ms.bytes().all(|b| b.is_ascii_digit()) => ms
                .parse()
                .map(Wait::Millis)
                .map_err(|_| ServiceError::Protocol(format!("wait bound {ms:?} overflows"))),
            _ => Err(ServiceError::Protocol(format!(
                "unknown RESULT flag {token:?}"
            ))),
        }
    }
}

/// A client request, as structured data.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Submit one spec for execution.
    Submit {
        /// Queue priority.
        priority: Priority,
        /// The spec in [`ctori_engine::RunSpec::to_text`] form.
        spec_text: String,
    },
    /// Submit a batch of specs atomically under one priority.
    Sweep {
        /// Queue priority shared by the whole batch.
        priority: Priority,
        /// The specs, each in text form.
        spec_texts: Vec<String>,
    },
    /// Query a job's lifecycle state.
    Status {
        /// The job.
        id: JobId,
    },
    /// Fetch a job's outcome, holding the reply while it is pending as
    /// `wait` allows.
    Result {
        /// The job.
        id: JobId,
        /// How long the server may hold the reply for the job to end.
        wait: Wait,
    },
    /// Poll a job's buffered progress events.
    Watch {
        /// The job.
        id: JobId,
        /// Only report progress beyond this round (`None` = everything,
        /// including the `started` event).
        since: Option<usize>,
    },
    /// Cancel a queued job.
    Cancel {
        /// The job.
        id: JobId,
    },
    /// Fetch the service counters.
    Stats,
    /// Fetch the full telemetry exposition (the metrics registry in
    /// [`ctori_engine::MetricsSnapshot::to_text`] form).
    Metrics,
    /// Fetch a job's lifecycle trace (the
    /// [`ctori_engine::JobTrace::to_text`] form).
    Trace {
        /// The job.
        id: JobId,
    },
    /// Begin a graceful drain: the reply is `OK bye`, then the server
    /// finishes every admitted job and exits.
    Shutdown,
}

impl Request {
    /// Renders the full wire form (header line plus payload block, when
    /// the verb carries one).
    pub fn wire(&self) -> String {
        match self {
            Request::Submit {
                priority,
                spec_text,
            } => format!("SUBMIT priority={priority}\n{}", encode_block(spec_text)),
            Request::Sweep {
                priority,
                spec_texts,
            } => {
                let mut payload = String::new();
                for (i, text) in spec_texts.iter().enumerate() {
                    if i > 0 {
                        payload.push_str(SWEEP_SEPARATOR);
                        payload.push('\n');
                    }
                    payload.push_str(text);
                    if !text.ends_with('\n') {
                        payload.push('\n');
                    }
                }
                format!("SWEEP priority={priority}\n{}", encode_block(&payload))
            }
            Request::Status { id } => format!("STATUS {id}\n"),
            Request::Result { id, wait } => format!("RESULT {id}{}\n", wait.suffix()),
            Request::Watch { id, since } => match since {
                Some(round) => format!("WATCH {id} {round}\n"),
                None => format!("WATCH {id}\n"),
            },
            Request::Cancel { id } => format!("CANCEL {id}\n"),
            Request::Stats => "STATS\n".into(),
            Request::Metrics => "METRICS\n".into(),
            Request::Trace { id } => format!("TRACE {id}\n"),
            Request::Shutdown => "SHUTDOWN\n".into(),
        }
    }

    /// The request's verb token, as it appears on the wire — the label
    /// the server's per-verb request counters are keyed by.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "SUBMIT",
            Request::Sweep { .. } => "SWEEP",
            Request::Status { .. } => "STATUS",
            Request::Result { .. } => "RESULT",
            Request::Watch { .. } => "WATCH",
            Request::Cancel { .. } => "CANCEL",
            Request::Stats => "STATS",
            Request::Metrics => "METRICS",
            Request::Trace { .. } => "TRACE",
            Request::Shutdown => "SHUTDOWN",
        }
    }

    /// Whether a request header announces a payload block.
    pub fn header_needs_payload(header: &str) -> bool {
        matches!(
            header.split_whitespace().next(),
            Some("SUBMIT") | Some("SWEEP")
        )
    }

    /// Rebuilds a request from a header line and its payload block.
    pub fn from_parts(header: &str, payload: Option<&str>) -> Result<Request, ServiceError> {
        let tokens: Vec<&str> = header.split_whitespace().collect();
        let arity = |expected: std::ops::RangeInclusive<usize>| -> Result<(), ServiceError> {
            if expected.contains(&tokens.len()) {
                Ok(())
            } else {
                Err(ServiceError::Protocol(format!(
                    "malformed request header {header:?}"
                )))
            }
        };
        let priority_of = |token: Option<&&str>| -> Result<Priority, ServiceError> {
            match token {
                None => Ok(Priority::Normal),
                Some(token) => match token.split_once('=') {
                    Some(("priority", value)) => parse_priority(value),
                    _ => Err(ServiceError::Protocol(format!(
                        "expected priority=..., got {token:?}"
                    ))),
                },
            }
        };
        let payload_of = || -> Result<&str, ServiceError> {
            payload.ok_or_else(|| ServiceError::Protocol(format!("{header:?} needs a payload")))
        };
        match tokens.first().copied() {
            Some("SUBMIT") => {
                arity(1..=2)?;
                Ok(Request::Submit {
                    priority: priority_of(tokens.get(1))?,
                    spec_text: payload_of()?.to_string(),
                })
            }
            Some("SWEEP") => {
                arity(1..=2)?;
                let priority = priority_of(tokens.get(1))?;
                let mut spec_texts = Vec::new();
                let mut current = String::new();
                for line in payload_of()?.lines() {
                    if line == SWEEP_SEPARATOR {
                        spec_texts.push(std::mem::take(&mut current));
                    } else {
                        current.push_str(line);
                        current.push('\n');
                    }
                }
                // A trailing all-whitespace segment is dropped — and so
                // is an entirely empty payload, so `spec_texts: []` wires
                // round-trip to `[]` and the pool (not a bad-spec
                // parse of "") reports the empty sweep.
                if !current.trim().is_empty() {
                    spec_texts.push(current);
                }
                Ok(Request::Sweep {
                    priority,
                    spec_texts,
                })
            }
            Some("STATUS") => {
                arity(2..=2)?;
                Ok(Request::Status {
                    id: tokens[1].parse()?,
                })
            }
            Some("RESULT") => {
                arity(2..=3)?;
                let wait = match tokens.get(2) {
                    None => Wait::No,
                    Some(token) => Wait::parse(token)?,
                };
                Ok(Request::Result {
                    id: tokens[1].parse()?,
                    wait,
                })
            }
            Some("WATCH") => {
                arity(2..=3)?;
                let since = match tokens.get(2) {
                    None => None,
                    Some(raw) => Some(raw.parse().map_err(|_| {
                        ServiceError::Protocol(format!("{raw:?} is not a round number"))
                    })?),
                };
                Ok(Request::Watch {
                    id: tokens[1].parse()?,
                    since,
                })
            }
            Some("CANCEL") => {
                arity(2..=2)?;
                Ok(Request::Cancel {
                    id: tokens[1].parse()?,
                })
            }
            Some("STATS") => {
                arity(1..=1)?;
                Ok(Request::Stats)
            }
            Some("METRICS") => {
                arity(1..=1)?;
                Ok(Request::Metrics)
            }
            Some("TRACE") => {
                arity(2..=2)?;
                Ok(Request::Trace {
                    id: tokens[1].parse()?,
                })
            }
            Some("SHUTDOWN") => {
                arity(1..=1)?;
                Ok(Request::Shutdown)
            }
            Some(other) => Err(ServiceError::Protocol(format!("unknown command {other:?}"))),
            None => Err(ServiceError::Protocol("empty request".into())),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A server reply, as structured data.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// `SUBMIT` accepted.
    Job(JobId),
    /// `SWEEP` accepted.
    Jobs(Vec<JobId>),
    /// `STATUS` snapshot.
    Status(JobStatus),
    /// `RESULT` payload: the outcome in
    /// [`ctori_engine::RunOutcome::to_text`] form.
    Result(String),
    /// `WATCH` payload: the buffered events, in submission order
    /// (possibly empty while a job is queued or between samples).
    Events(Vec<RunEvent>),
    /// `CANCEL` succeeded.
    Cancelled,
    /// `STATS` payload.
    Stats(ServiceStats),
    /// `METRICS` payload: the full registry exposition.
    Metrics(MetricsSnapshot),
    /// `TRACE` payload: one job's lifecycle trace.
    Trace(JobTrace),
    /// `SHUTDOWN` acknowledged.
    Bye,
    /// Any failure.
    Error {
        /// Machine-readable code (e.g. `queue-full`).
        code: String,
        /// Human-readable message (single line).
        message: String,
    },
}

impl Response {
    /// Renders the full wire form.
    pub fn wire(&self) -> String {
        match self {
            Response::Job(id) => format!("OK job {id}\n"),
            Response::Jobs(ids) => {
                let mut out = String::from("OK jobs");
                for id in ids {
                    out.push(' ');
                    out.push_str(&id.to_string());
                }
                out.push('\n');
                out
            }
            Response::Status(status) => format!(
                "OK status {}{}\n",
                status.state,
                if status.from_cache { " cached" } else { "" }
            ),
            Response::Result(outcome_text) => {
                format!("OK result\n{}", encode_block(outcome_text))
            }
            Response::Events(events) => {
                format!("OK events\n{}", encode_block(&events_to_text(events)))
            }
            Response::Cancelled => "OK cancelled\n".into(),
            Response::Stats(stats) => format!("OK stats\n{}", encode_block(&stats.to_text())),
            Response::Metrics(snapshot) => {
                format!("OK metrics\n{}", encode_block(&snapshot.to_text()))
            }
            Response::Trace(trace) => format!("OK trace\n{}", encode_block(&trace.to_text())),
            Response::Bye => "OK bye\n".into(),
            Response::Error { code, message } => {
                format!("ERR {code} {}\n", message.replace('\n', "; "))
            }
        }
    }

    /// Whether a response header announces a payload block.
    pub fn header_needs_payload(header: &str) -> bool {
        header == "OK result"
            || header == "OK stats"
            || header == "OK events"
            || header == "OK metrics"
            || header == "OK trace"
    }

    /// Rebuilds a response from a header line and its payload block.
    pub fn from_parts(header: &str, payload: Option<&str>) -> Result<Response, ServiceError> {
        if let Some(rest) = header.strip_prefix("ERR ") {
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            return Ok(Response::Error {
                code: code.to_string(),
                message: message.to_string(),
            });
        }
        let tokens: Vec<&str> = header.split_whitespace().collect();
        let malformed = || ServiceError::Protocol(format!("malformed response header {header:?}"));
        if tokens.first() != Some(&"OK") {
            return Err(malformed());
        }
        match tokens.get(1).copied() {
            Some("job") if tokens.len() == 3 => Ok(Response::Job(tokens[2].parse()?)),
            Some("jobs") => Ok(Response::Jobs(
                tokens[2..]
                    .iter()
                    .map(|t| t.parse())
                    .collect::<Result<_, _>>()?,
            )),
            Some("status") if (3..=4).contains(&tokens.len()) => {
                let state = parse_job_state(tokens[2])?;
                let from_cache = match tokens.get(3) {
                    None => false,
                    Some(&"cached") => true,
                    Some(_) => return Err(malformed()),
                };
                Ok(Response::Status(JobStatus { state, from_cache }))
            }
            Some("result") if tokens.len() == 2 => Ok(Response::Result(
                payload
                    .ok_or_else(|| ServiceError::Protocol("result without payload".into()))?
                    .to_string(),
            )),
            Some("events") if tokens.len() == 2 => Ok(Response::Events(
                events_from_text(
                    payload
                        .ok_or_else(|| ServiceError::Protocol("events without payload".into()))?,
                )
                .map_err(|e| ServiceError::Protocol(e.to_string()))?,
            )),
            Some("cancelled") if tokens.len() == 2 => Ok(Response::Cancelled),
            Some("stats") if tokens.len() == 2 => Ok(Response::Stats(ServiceStats::from_text(
                payload.ok_or_else(|| ServiceError::Protocol("stats without payload".into()))?,
            )?)),
            Some("metrics") if tokens.len() == 2 => Ok(Response::Metrics(
                MetricsSnapshot::from_text(
                    payload
                        .ok_or_else(|| ServiceError::Protocol("metrics without payload".into()))?,
                )
                .map_err(|e| ServiceError::Protocol(e.to_string()))?,
            )),
            Some("trace") if tokens.len() == 2 => Ok(Response::Trace(
                JobTrace::from_text(
                    payload
                        .ok_or_else(|| ServiceError::Protocol("trace without payload".into()))?,
                )
                .map_err(|e| ServiceError::Protocol(e.to_string()))?,
            )),
            Some("bye") if tokens.len() == 2 => Ok(Response::Bye),
            _ => Err(malformed()),
        }
    }

    /// The `ERR` reply for a server-side failure.
    pub fn from_error(error: &ServiceError) -> Response {
        let code = match error {
            ServiceError::Io(_) => "io",
            ServiceError::Exec(error) => match error {
                ExecError::QueueFull { .. } => "queue-full",
                ExecError::ShuttingDown => "shutting-down",
                ExecError::UnknownJob => "unknown-job",
                ExecError::NotFinished => "not-done",
                ExecError::NotCancellable => "not-cancellable",
                ExecError::Failed { .. } => "job-failed",
                ExecError::Cancelled => "job-cancelled",
                ExecError::TimedOut => "timed-out",
                // `Backend` detail (an empty sweep) is the request's fault.
                _ => "bad-request",
            },
            ServiceError::TimedOut => "timed-out",
            // A lost connection is never reported *over* the connection; the
            // arm exists only to keep this match exhaustive.
            ServiceError::ConnectionLost => "io",
            ServiceError::BadSpec(_) => "bad-spec",
            ServiceError::BadOutcome(_) => "bad-outcome",
            ServiceError::Protocol(_) => "bad-request",
            ServiceError::Remote { code, .. } => code.as_str(),
        };
        Response::Error {
            code: code.to_string(),
            message: error.to_string(),
        }
    }

    /// Converts an `ERR` reply into the error a local call would raise.
    pub fn into_result(self) -> Result<Response, ServiceError> {
        match self {
            Response::Error { code, message } => Err(ServiceError::Remote { code, message }),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use std::io::BufReader;

    fn round_trip_request(request: Request) {
        let wire = request.wire();
        let mut reader = BufReader::new(wire.as_bytes());
        let header = read_line(&mut reader).unwrap().unwrap();
        let payload = if Request::header_needs_payload(&header) {
            Some(read_block(&mut reader).unwrap())
        } else {
            None
        };
        let rebuilt = Request::from_parts(&header, payload.as_deref()).unwrap();
        assert_eq!(rebuilt, request, "\n{wire}");
    }

    fn round_trip_response(response: Response) {
        let wire = response.wire();
        let mut reader = BufReader::new(wire.as_bytes());
        let header = read_line(&mut reader).unwrap().unwrap();
        let payload = if Response::header_needs_payload(&header) {
            Some(read_block(&mut reader).unwrap())
        } else {
            None
        };
        let rebuilt = Response::from_parts(&header, payload.as_deref()).unwrap();
        assert_eq!(rebuilt, response, "\n{wire}");
    }

    #[test]
    fn requests_round_trip() {
        let spec = "topology: toroidal-mesh 4x4\nrule: smp\nseed: uniform 1\n";
        round_trip_request(Request::Submit {
            priority: Priority::High,
            spec_text: spec.to_string(),
        });
        round_trip_request(Request::Sweep {
            priority: Priority::Low,
            spec_texts: vec![spec.to_string(), spec.to_string(), spec.to_string()],
        });
        // An empty sweep round-trips to [] (not [""]), so the pool
        // reports "empty sweep" instead of a bad-spec parse of "".
        round_trip_request(Request::Sweep {
            priority: Priority::Normal,
            spec_texts: Vec::new(),
        });
        round_trip_request(Request::Status { id: JobId::new(7) });
        round_trip_request(Request::Result {
            id: JobId::new(8),
            wait: Wait::Unbounded,
        });
        round_trip_request(Request::Result {
            id: JobId::new(9),
            wait: Wait::No,
        });
        round_trip_request(Request::Watch {
            id: JobId::new(4),
            since: None,
        });
        round_trip_request(Request::Watch {
            id: JobId::new(4),
            since: Some(17),
        });
        // The long-poll flags, and the exact headers they render as.
        for (request, header) in [
            (
                Request::Result {
                    id: JobId::new(7),
                    wait: Wait::Millis(0),
                },
                "RESULT 7 wait=0",
            ),
            (
                Request::Result {
                    id: JobId::new(7),
                    wait: Wait::Millis(250),
                },
                "RESULT 7 wait=250",
            ),
        ] {
            assert_eq!(request.wire(), format!("{header}\n"));
            round_trip_request(request);
        }
        // Today's forms keep their exact wire text.
        let result = |wait| Request::Result {
            id: JobId::new(3),
            wait,
        };
        assert_eq!(result(Wait::No).wire(), "RESULT 3\n");
        assert_eq!(result(Wait::Unbounded).wire(), "RESULT 3 wait\n");
        round_trip_request(Request::Cancel { id: JobId::new(3) });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Trace { id: JobId::new(5) });
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn verb_tokens_match_the_wire_headers() {
        let spec = "topology: toroidal-mesh 4x4\nrule: smp\nseed: uniform 1\n";
        for request in [
            Request::Submit {
                priority: Priority::Normal,
                spec_text: spec.to_string(),
            },
            Request::Sweep {
                priority: Priority::Normal,
                spec_texts: vec![spec.to_string()],
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
        ] {
            assert!(
                request.wire().starts_with(request.verb()),
                "{:?}",
                request.verb()
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Job(JobId::new(12)));
        round_trip_response(Response::Jobs(vec![
            JobId::new(1),
            JobId::new(2),
            JobId::new(3),
        ]));
        round_trip_response(Response::Status(JobStatus {
            state: JobState::Done,
            from_cache: true,
        }));
        round_trip_response(Response::Status(JobStatus {
            state: JobState::Queued,
            from_cache: false,
        }));
        round_trip_response(Response::Result("rule: smp\nrounds: 3\n".into()));
        round_trip_response(Response::Events(vec![
            RunEvent::Started { nodes: 64 },
            RunEvent::Progress {
                round: 3,
                changed: 5,
                histogram: ctori_engine::ColorHistogram {
                    round: 3,
                    counts: vec![
                        (ctori_coloring::Color::new(1), 59),
                        (ctori_coloring::Color::new(2), 5),
                    ],
                },
            },
            RunEvent::Cancelled,
        ]));
        round_trip_response(Response::Events(Vec::new()));
        round_trip_response(Response::Cancelled);
        round_trip_response(Response::Stats(ServiceStats::default()));
        let mut snapshot = MetricsSnapshot::new();
        snapshot.insert(
            "server.requests.METRICS",
            ctori_engine::telemetry::MetricValue::Counter(3),
        );
        snapshot.insert(
            "exec.queue.depth-hwm",
            ctori_engine::telemetry::MetricValue::Gauge(7),
        );
        let mut hist = ctori_engine::HistogramSnapshot::new();
        hist.buckets[4] = 2;
        hist.count = 2;
        hist.sum = 20;
        hist.max = 12;
        snapshot.insert(
            "exec.queue.wait-us",
            ctori_engine::telemetry::MetricValue::Histogram(Box::new(hist)),
        );
        round_trip_response(Response::Metrics(snapshot));
        round_trip_response(Response::Metrics(MetricsSnapshot::new()));
        let span = |kind, at_nanos| ctori_engine::SpanEvent { kind, at_nanos };
        let trace = JobTrace::new(
            vec![
                span(ctori_engine::SpanKind::Queued, 10),
                span(ctori_engine::SpanKind::Claimed, 40),
                span(ctori_engine::SpanKind::Progress { round: 1 }, 55),
                span(ctori_engine::SpanKind::Done, 90),
            ],
            0,
        );
        round_trip_response(Response::Trace(trace));
        round_trip_response(Response::Bye);
        round_trip_response(Response::Error {
            code: "queue-full".into(),
            message: "submission queue full (8 jobs)".into(),
        });
    }

    #[test]
    fn blocks_dot_stuff_and_unstuff() {
        let payload = "plain\n.starts-with-dot\n..double\n";
        let block = encode_block(payload);
        assert!(block.contains("\n..starts-with-dot\n"), "{block}");
        assert!(block.ends_with("\n.\n"));
        let mut reader = BufReader::new(block.as_bytes());
        assert_eq!(read_block(&mut reader).unwrap(), payload);
        // A lone-dot payload line never terminates the block early.
        let tricky = ".\n";
        let encoded = encode_block(tricky);
        let mut reader = BufReader::new(encoded.as_bytes());
        assert_eq!(read_block(&mut reader).unwrap(), tricky);
    }

    #[test]
    fn malformed_wire_data_is_rejected() {
        assert!(Request::from_parts("LAUNCH 1", None).is_err());
        assert!(Request::from_parts("", None).is_err());
        assert!(Request::from_parts("SUBMIT", None).is_err(), "no payload");
        assert!(Request::from_parts("STATUS", None).is_err(), "no id");
        assert!(Request::from_parts("STATUS x", None).is_err());
        assert!(Request::from_parts("RESULT 1 now", None).is_err());
        assert!(Request::from_parts("WATCH", None).is_err(), "no id");
        assert!(Request::from_parts("WATCH 1 soon", None).is_err());
        // Malformed long-poll flags, a token past the flag, and WATCH,
        // which takes no flag.
        let overflow = format!("wait={}0", u64::MAX);
        for flag in [
            "wait=", "wait=x", "wait=-1", "wait=+5", "waiting", &overflow,
        ] {
            let header = format!("RESULT 7 {flag}");
            assert!(Request::from_parts(&header, None).is_err(), "{header}");
        }
        assert!(Request::from_parts("RESULT 7 wait=5 x", None).is_err());
        assert!(Request::from_parts("RESULT 7 wait wait", None).is_err());
        assert!(Request::from_parts("WATCH 7 wait", None).is_err());
        assert!(Request::from_parts("WATCH 7 12 wait=250", None).is_err());
        assert!(Request::from_parts("METRICS now", None).is_err());
        assert!(Request::from_parts("TRACE", None).is_err(), "no id");
        assert!(Request::from_parts("TRACE x", None).is_err());
        assert!(
            Response::from_parts("OK metrics", None).is_err(),
            "no payload"
        );
        assert!(Response::from_parts("OK metrics", Some("key: rocket 1")).is_err());
        assert!(
            Response::from_parts("OK trace", None).is_err(),
            "no payload"
        );
        assert!(Response::from_parts("OK trace", Some("span: levitated 1")).is_err());
        assert!(Request::from_parts("SUBMIT urgency=high", Some("x")).is_err());
        assert!(
            Response::from_parts("OK events", None).is_err(),
            "no payload"
        );
        assert!(Response::from_parts("OK events", Some("event: levitated")).is_err());
        assert!(Response::from_parts("MAYBE ok", None).is_err());
        assert!(Response::from_parts("OK job", None).is_err());
        assert!(
            Response::from_parts("OK result", None).is_err(),
            "no payload"
        );
        // ERR replies surface as Remote errors through into_result.
        let err = Response::from_parts("ERR queue-full the queue is full", None)
            .unwrap()
            .into_result()
            .unwrap_err();
        match err {
            ServiceError::Remote { code, message } => {
                assert_eq!(code, "queue-full");
                assert_eq!(message, "the queue is full");
            }
            other => panic!("expected Remote, got {other}"),
        }
        // Unexpected EOF inside a block.
        let mut reader = BufReader::new("line-one\n".as_bytes());
        assert!(read_block(&mut reader).is_err());
    }

    #[test]
    fn error_codes_cover_the_service_errors() {
        let failed = ExecError::Failed {
            message: "boom".into(),
        };
        let cases = [
            (ExecError::QueueFull { capacity: 4 }.into(), "queue-full"),
            (ExecError::ShuttingDown.into(), "shutting-down"),
            (ExecError::UnknownJob.into(), "unknown-job"),
            (ExecError::NotFinished.into(), "not-done"),
            (ExecError::NotCancellable.into(), "not-cancellable"),
            (failed.into(), "job-failed"),
            (ExecError::Cancelled.into(), "job-cancelled"),
            (ExecError::TimedOut.into(), "timed-out"),
            (
                ExecError::Backend("empty sweep".into()).into(),
                "bad-request",
            ),
            (ExecError::BackendLost("reset".into()).into(), "bad-request"),
            (ServiceError::Protocol("x".into()), "bad-request"),
            (ServiceError::TimedOut, "timed-out"),
        ];
        for (error, expected) in cases {
            match Response::from_error(&error) {
                Response::Error { code, message } => {
                    assert_eq!(code, expected, "{error:?}");
                    assert_eq!(message, error.to_string());
                }
                other => panic!("expected Error, got {other:?}"),
            }
        }
    }
}
