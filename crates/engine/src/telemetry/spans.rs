//! The job-lifecycle trace model.
//!
//! A [`JobTrace`] is the `TRACE` view of one job: typed,
//! monotonically-timestamped [`SpanEvent`]s covering its life:
//!
//! ```text
//! queued → claimed → progress… → done
//!    │                         → failed
//!    └───────────────────────→ cancelled
//! ```
//!
//! [`crate::LocalExecutor::job_trace`] renders this view on demand from
//! the job's one log, the same log `WATCH` reads.  Progress spans
//! therefore follow that log's retention (the newest
//! [`crate::exec::PROGRESS_RETAIN`] while the job runs, the newest
//! [`crate::exec::TERMINAL_PROGRESS_RETAIN`] once it is terminal), and
//! [`JobTrace::dropped`] counts the progress events evicted before them.
//! Timestamps come from the telemetry clock
//! ([`super::clock::monotonic_nanos`]).  The queue-wait and run-time
//! durations a TRACE consumer wants are derived
//! ([`JobTrace::queue_wait_nanos`] / [`JobTrace::run_nanos`]) rather
//! than stored.
//!
//! Like every wire type in the workspace, a trace has a line-oriented
//! text round-trip ([`JobTrace::to_text`] / [`JobTrace::from_text`]) —
//! the payload of the service's `TRACE <id>` verb.

/// What happened at one point of a job's life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpanKind {
    /// The job entered the priority queue.
    Queued,
    /// A worker popped the job off the queue and began executing it.
    Claimed,
    /// A sampled synchronous round completed.
    Progress {
        /// The 1-based round that completed.
        round: u64,
    },
    /// The run finished and its outcome is available.
    Done,
    /// The execution failed.
    Failed,
    /// The job was cancelled while still queued.
    Cancelled,
}

impl SpanKind {
    /// Whether this span closes the job's trace.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SpanKind::Done | SpanKind::Failed | SpanKind::Cancelled
        )
    }

    /// The space-free wire token (`progress:<round>` for progress).
    fn token(self) -> String {
        match self {
            SpanKind::Queued => "queued".into(),
            SpanKind::Claimed => "claimed".into(),
            SpanKind::Progress { round } => format!("progress:{round}"),
            SpanKind::Done => "done".into(),
            SpanKind::Failed => "failed".into(),
            SpanKind::Cancelled => "cancelled".into(),
        }
    }

    /// Parses the token produced by [`SpanKind::token`].
    fn from_token(token: &str) -> Option<SpanKind> {
        match token {
            "queued" => Some(SpanKind::Queued),
            "claimed" => Some(SpanKind::Claimed),
            "done" => Some(SpanKind::Done),
            "failed" => Some(SpanKind::Failed),
            "cancelled" => Some(SpanKind::Cancelled),
            other => {
                let round = other.strip_prefix("progress:")?.parse().ok()?;
                Some(SpanKind::Progress { round })
            }
        }
    }
}

/// One timestamped point in a job's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// What happened.
    pub kind: SpanKind,
    /// When, in nanoseconds on the recording process's telemetry clock.
    pub at_nanos: u64,
}

/// One job's ordered span trace.  See the [module docs](self).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobTrace {
    spans: Vec<SpanEvent>,
    dropped: u64,
}

impl JobTrace {
    /// A trace of `spans`, oldest first, after `dropped` evicted
    /// `Progress` spans.
    pub fn new(spans: Vec<SpanEvent>, dropped: u64) -> JobTrace {
        JobTrace { spans, dropped }
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// How many `Progress` spans the retention bound evicted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace holds no spans yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The timestamp of the first span of the kind `pred` accepts.
    fn first_at(&self, pred: impl Fn(SpanKind) -> bool) -> Option<u64> {
        self.spans.iter().find(|s| pred(s.kind)).map(|s| s.at_nanos)
    }

    /// The terminal span, once one was recorded.
    pub fn terminal(&self) -> Option<SpanEvent> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.kind.is_terminal())
            .copied()
    }

    /// Nanoseconds the job spent waiting in the queue: first `Queued`
    /// span to first `Claimed` span.  `None` until both exist (a
    /// cancelled job never gets claimed).
    pub fn queue_wait_nanos(&self) -> Option<u64> {
        let queued = self.first_at(|k| k == SpanKind::Queued)?;
        let claimed = self.first_at(|k| k == SpanKind::Claimed)?;
        Some(claimed.saturating_sub(queued))
    }

    /// Nanoseconds the job spent executing: first `Claimed` span to the
    /// terminal span.  `None` until both exist.
    pub fn run_nanos(&self) -> Option<u64> {
        let claimed = self.first_at(|k| k == SpanKind::Claimed)?;
        let terminal = self.terminal()?;
        Some(terminal.at_nanos.saturating_sub(claimed))
    }

    /// Whether the timestamps never decrease (true for the executor's
    /// traces, whose spans are stamped in happens-before order on the
    /// monotonic telemetry clock; a parsed trace from a foreign producer
    /// is validated by callers through this).
    pub fn is_monotone(&self) -> bool {
        self.spans
            .windows(2)
            .all(|w| w[0].at_nanos <= w[1].at_nanos)
    }

    /// Renders the trace: a `dropped:` line, then one `span:` line per
    /// retained span, oldest first.  Parses back with
    /// [`JobTrace::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = format!("dropped: {}\n", self.dropped);
        for span in &self.spans {
            out.push_str(&format!("span: {} {}\n", span.kind.token(), span.at_nanos));
        }
        out
    }

    /// Parses a trace produced by [`JobTrace::to_text`].
    pub fn from_text(text: &str) -> Result<JobTrace, TraceParseError> {
        let bad = |detail: String| TraceParseError { detail };
        let mut trace = JobTrace::default();
        let mut saw_dropped = false;
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(value) = line.strip_prefix("dropped:") {
                if saw_dropped {
                    return Err(bad("duplicate `dropped:` line".into()));
                }
                trace.dropped = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("{value:?} is not a drop count")))?;
                saw_dropped = true;
            } else if let Some(rest) = line.strip_prefix("span:") {
                let mut tokens = rest.split_whitespace();
                let kind = tokens
                    .next()
                    .and_then(SpanKind::from_token)
                    .ok_or_else(|| bad(format!("bad span kind in {line:?}")))?;
                let at_nanos = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(format!("bad span timestamp in {line:?}")))?;
                if tokens.next().is_some() {
                    return Err(bad(format!("trailing tokens in {line:?}")));
                }
                trace.spans.push(SpanEvent { kind, at_nanos });
            } else {
                return Err(bad(format!("expected `dropped:` or `span:`, got {line:?}")));
            }
        }
        if !saw_dropped {
            return Err(bad("missing `dropped:` line".into()));
        }
        Ok(trace)
    }
}

/// Error produced when parsing a [`JobTrace`] from text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// What was wrong with the input.
    pub detail: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad job trace: {}", self.detail)
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, at_nanos: u64) -> SpanEvent {
        SpanEvent { kind, at_nanos }
    }

    fn full_trace() -> JobTrace {
        JobTrace::new(
            vec![
                span(SpanKind::Queued, 10),
                span(SpanKind::Claimed, 45),
                span(SpanKind::Progress { round: 8 }, 60),
                span(SpanKind::Progress { round: 16 }, 80),
                span(SpanKind::Done, 145),
            ],
            0,
        )
    }

    #[test]
    fn durations_derive_from_the_spans() {
        let trace = full_trace();
        assert_eq!(trace.queue_wait_nanos(), Some(35));
        assert_eq!(trace.run_nanos(), Some(100));
        assert_eq!(trace.terminal().map(|s| s.kind), Some(SpanKind::Done));
        assert!(trace.is_monotone());
        // A cancelled job has a queue but no claim and no run.
        let cancelled = JobTrace::new(
            vec![span(SpanKind::Queued, 5), span(SpanKind::Cancelled, 9)],
            0,
        );
        assert_eq!(cancelled.queue_wait_nanos(), None);
        assert_eq!(cancelled.run_nanos(), None);
        assert_eq!(
            cancelled.terminal().map(|s| s.kind),
            Some(SpanKind::Cancelled)
        );
        // A foreign trace that runs backwards is reported, not trusted.
        let backwards = JobTrace::new(
            vec![span(SpanKind::Queued, 100), span(SpanKind::Claimed, 90)],
            0,
        );
        assert!(!backwards.is_monotone());
        assert_eq!(backwards.queue_wait_nanos(), Some(0));
    }

    #[test]
    fn trace_text_round_trips() {
        let trace = full_trace();
        let text = trace.to_text();
        assert_eq!(JobTrace::from_text(&text).unwrap(), trace, "\n{text}");
        assert!(text.starts_with("dropped: 0\n"));
        assert!(text.contains("span: progress:8 60"));
        // An empty trace still renders its dropped line.
        let empty = JobTrace::default();
        assert_eq!(JobTrace::from_text(&empty.to_text()).unwrap(), empty);
        let dropped = JobTrace::new(vec![span(SpanKind::Progress { round: 40 }, 7)], 39);
        assert_eq!(JobTrace::from_text(&dropped.to_text()).unwrap(), dropped);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        for bad in [
            "",
            "span: done 4\n",
            "dropped: x\n",
            "dropped: 0\ndropped: 0\n",
            "dropped: 0\nspan: warp 4\n",
            "dropped: 0\nspan: done\n",
            "dropped: 0\nspan: done 4 5\n",
            "dropped: 0\nnonsense\n",
            "dropped: 0\nspan: progress:x 4\n",
            "dropped: 0\nspan: submitted 4\n",
            "dropped: 0\nspan: running 4\n",
        ] {
            assert!(JobTrace::from_text(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
