//! Sharded multi-backend coordinator for the simulation service.
//!
//! One `ctori-serve` process is a hard ceiling on throughput and cache
//! capacity.  This crate scales horizontally: [`FleetExecutor`]
//! implements [`ctori_engine::Executor`] over **N** backends, so the
//! same caller code that drives a `LocalExecutor` or a single
//! `RemoteExecutor` drives a whole fleet.
//!
//! The three load-bearing mechanisms:
//!
//! - **Consistent-hash routing** ([`ring::HashRing`]): jobs are routed
//!   by `RunSpec::canonical_key()` over a hash ring with virtual nodes,
//!   so each backend's LRU result cache stays hot and disjoint, and a
//!   membership change only re-routes the keys that lived on the
//!   departed backend.
//! - **Health probing**: a background thread pings every backend with a
//!   lightweight `STATS` round trip; a failure-threshold run of misses
//!   evicts the backend from the ring, a later successful probe re-adds
//!   it.  In-flight jobs on a dead backend are resubmitted to the ring
//!   successor — resubmission is idempotent because jobs are
//!   content-addressed by spec key (a duplicate completion is a cache
//!   hit, not a bug).
//! - **Sweep fan-out with work stealing**: `submit_sweep` splits the
//!   grid across healthy backends proportional to their idle capacity,
//!   and handles that out-wait the configured patience re-dispatch
//!   their spec to a backend that has finished its own share.
//!
//! A handle's `wait` never sleeps on a timer: it is a series of
//! server-side waits (`RESULT <id> wait=<ms>`), each at most half the
//! request timeout and, for a sweep handle, at most the rest of its
//! steal patience, so reroute and steal checks run between them.
//!
//! ```no_run
//! use ctori_engine::{Executor, RunSpec, SubmitOptions};
//! use ctori_fleet::{FleetConfig, FleetExecutor};
//!
//! let fleet = FleetExecutor::connect(FleetConfig::new([
//!     "127.0.0.1:7171",
//!     "127.0.0.1:7172",
//!     "127.0.0.1:7173",
//! ]))
//! .unwrap();
//! let spec = RunSpec::from_text(
//!     "topology: toroidal-mesh 64x64\nrule: smp\nseed: checkerboard 1 2\n",
//! )
//! .unwrap();
//! let mut handle = fleet.submit(&spec, SubmitOptions::default()).unwrap();
//! println!("{} rounds", handle.wait().unwrap().rounds);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
pub mod ring;

pub use fleet::{BackendStats, FleetConfig, FleetExecutor, FleetLocal, FleetStats};
pub use ring::HashRing;
