//! # ctori-service
//!
//! A batch simulation **service** over the declarative execution API of
//! [`ctori_engine`]: long-running, multi-client, std-only (loopback TCP —
//! no dependencies beyond the workspace).
//!
//! The paper's dynamics are fully described by plain-data
//! [`ctori_engine::RunSpec`]s with a canonical text form, which makes them
//! natural *service payloads*: a client ships the spec text, the service
//! schedules it, and the memoizable result is the equally text-serialisable
//! [`ctori_engine::RunOutcome`].  The layers compose:
//!
//! * [`server`] — a line-framed TCP front-end over `std::net` that owns
//!   the engine's [`ctori_engine::LocalExecutor`] worker pool (bounded
//!   priority queue, job states `queued → running → done/failed`,
//!   cancellation, graceful drain-on-shutdown) and calls it directly for
//!   every request, tagging the pool's ids as wire-protocol [`JobId`]s;
//! * [`cache`] — a content-addressed result cache keyed by
//!   [`ctori_engine::RunSpec::canonical_key`], plugged into the pool, so
//!   identical specs across clients and sweeps return one memoized
//!   outcome; bounded with LRU eviction and observable
//!   hit/miss/eviction counters;
//! * [`protocol`] / [`client`] — the wire verbs
//!   (`SUBMIT`/`SWEEP`/`STATUS`/`RESULT`/`WATCH`/`CANCEL`/`STATS`/
//!   `METRICS`/`TRACE`/`SHUTDOWN`) whose payloads are exactly the
//!   engine's spec, outcome, event and trace text forms, a blocking
//!   [`ServiceClient`], and the `ctori-serve` binary;
//! * [`error`] — one error type, [`ServiceError`]; the pool's
//!   [`ctori_engine::ExecError`]s arrive wrapped as
//!   [`ServiceError::Exec`], each with its own wire code;
//! * [`remote`] — [`RemoteExecutor`], the TCP backend of the engine's
//!   backend-agnostic [`ctori_engine::Executor`] API: the same caller
//!   code that drives the in-process pool drives a `ctori-serve`
//!   process, with live progress streamed through the `WATCH` verb.
//!
//! ## Quickstart
//!
//! Serve (the binary accepts `--addr`, `--workers`, `--queue`,
//! `--cache`):
//!
//! ```text
//! cargo run --release -p ctori-service --bin ctori-serve -- --addr 127.0.0.1:7171
//! ```
//!
//! Talk to it:
//!
//! ```no_run
//! use ctori_engine::RunSpec;
//! use ctori_service::ServiceClient;
//!
//! let mut client = ServiceClient::connect("127.0.0.1:7171").unwrap();
//! let spec = RunSpec::from_text(
//!     "topology: toroidal-mesh 32x32\nrule: smp\nseed: density color=1 palette=4 fraction=0.4 rng=7\n",
//! ).unwrap();
//! let id = client.submit(&spec).unwrap();
//! let outcome = client.result(id).unwrap(); // blocks until done
//! assert!(outcome.rounds > 0);
//! let stats = client.stats().unwrap();      // cache hits/misses, queue depth …
//! assert_eq!(stats.done, 1);
//! ```
//!
//! Or embed the whole service in-process with [`Server::bind`] +
//! [`Server::serve`] on an ephemeral loopback port — that is how the
//! integration tests and `examples/service_roundtrip.rs` run without any
//! fixed port.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod cache;
pub mod client;
pub mod error;
pub mod job;
pub mod protocol;
pub mod remote;
pub mod server;
pub mod stats;

pub use cache::ResultCache;
pub use client::ServiceClient;
pub use error::ServiceError;
pub use job::{JobId, JobState, JobStatus, Priority};
pub use protocol::{Request, Response, Wait};
pub use remote::RemoteExecutor;
pub use server::{SchedulerConfig, Server, ServiceConfig};
pub use stats::{CacheStats, ServiceStats};
