//! Job identities, priorities and lifecycle states.
//!
//! A **job** is one queued [`ctori_engine::RunSpec`] execution.  The
//! lifecycle machinery — [`JobState`], [`Priority`], the [`JobStatus`]
//! snapshot — is shared with the engine's execution API
//! ([`ctori_engine::exec`]): the service's server drives the engine's
//! [`ctori_engine::LocalExecutor`] pool directly, so both layers speak
//! the exact same state machine
//!
//! ```text
//! queued ──▶ running ──▶ done
//!    │           └─────▶ failed
//!    └─────▶ cancelled
//! ```
//!
//! What stays service-local is [`JobId`]: the wire-protocol identity a
//! client holds across `STATUS`/`RESULT`/`WATCH`/`CANCEL` requests.  All
//! identity types render to single tokens (and parse back) so they can
//! travel on the protocol's header lines.

use crate::error::ServiceError;

pub use ctori_engine::exec::{JobState, JobStatus, Priority};

/// Identifier of a submitted job, unique within one server instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Wraps a raw id (used by the server and the wire protocol).
    pub(crate) fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for JobId {
    type Err = ServiceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse()
            .map(JobId)
            .map_err(|_| ServiceError::Protocol(format!("{s:?} is not a job id")))
    }
}

/// Parses a [`Priority`] wire token, as a [`ServiceError`].
pub(crate) fn parse_priority(s: &str) -> Result<Priority, ServiceError> {
    Priority::parse_token(s)
        .ok_or_else(|| ServiceError::Protocol(format!("{s:?} is not a priority (low/normal/high)")))
}

/// Parses a [`JobState`] wire token, as a [`ServiceError`].
pub(crate) fn parse_job_state(s: &str) -> Result<JobState, ServiceError> {
    JobState::parse_token(s)
        .ok_or_else(|| ServiceError::Protocol(format!("{s:?} is not a job state")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_round_trip_as_tokens() {
        let id = JobId::new(42);
        assert_eq!(id.to_string().parse::<JobId>().unwrap(), id);
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(parse_priority(&p.to_string()).unwrap(), p);
        }
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(parse_job_state(&s.to_string()).unwrap(), s);
        }
        assert!(parse_priority("urgent").is_err());
        assert!(parse_job_state("gone").is_err());
        assert!("x1".parse::<JobId>().is_err());
    }

    #[test]
    fn priorities_order_and_states_terminate() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }
}
