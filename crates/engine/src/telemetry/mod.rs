//! Std-only telemetry: the observability spine of the workspace.
//!
//! Every earlier layer reports *what* it computed; this module is how the
//! workspace reports *how* it ran.  Four pieces compose, all dependency-
//! free and lock-free on their hot paths:
//!
//! * [`clock`] — the monotonic nanosecond source behind every timestamp.
//!   The workspace bans `Instant::now` via `clippy.toml`; the annotated
//!   sites live **only** here, and everything else consumes the
//!   [`clock::Clock`] abstraction or [`clock::monotonic_nanos`].
//! * [`counters`] — sharded atomic [`Counter`]s (per-thread shard
//!   selection, so concurrent increments do not bounce one cache line)
//!   and [`Gauge`]s with a `fetch_max` high-water form.
//! * [`histogram`] — fixed-bucket log2 latency [`Histogram`]s: 64
//!   power-of-two buckets cover the full `u64` range, recording is two
//!   relaxed atomic adds, and snapshots answer p50/p99 quantile queries.
//! * [`registry`] — a named [`Registry`] of the above.  Handles are
//!   `Arc`s resolved once at registration; the registry mutex guards
//!   only registration and snapshotting, never a metric update.
//!   [`MetricsSnapshot`]s are plain data with a `key: value` text
//!   round-trip (like `ServiceStats`) and an associative, commutative
//!   [`MetricsSnapshot::merge`] for multi-process aggregation.
//! * [`spans`] — the job-lifecycle trace model: typed,
//!   monotonically-timestamped [`SpanEvent`]s
//!   (queued → claimed → progress… → terminal) with derived queue-wait
//!   and run-time durations and a text round-trip for the `TRACE`
//!   protocol verb.  A [`JobTrace`] is a view, not a store: the executor
//!   renders it on demand from the job's one log.
//!
//! The [`crate::LocalExecutor`] owns a registry and keeps one log per
//! job, the source of both its event stream and its trace;
//! `ctori-service` serves them over the wire as the `METRICS` and
//! `TRACE` verbs and folds its own per-verb traffic counters into the
//! same registry.

pub mod clock;
pub mod counters;
pub mod histogram;
pub mod registry;
pub mod spans;

pub use clock::{monotonic_nanos, Clock, ManualClock, MonotonicClock};
pub use counters::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{MetricValue, MetricsParseError, MetricsSnapshot, Registry};
pub use spans::{JobTrace, SpanEvent, SpanKind, TraceParseError};
