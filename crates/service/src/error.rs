//! The service error type.
//!
//! One enum covers the whole stack — job admission and lifecycle (the
//! engine's [`ExecError`], wrapped as [`ServiceError::Exec`]),
//! wire-protocol framing, and transport I/O — and implements
//! [`std::error::Error`] with `source()` chaining, so binaries compose it
//! with `Box<dyn Error>` and `?` throughout.  Server-side errors cross
//! the wire as `ERR <code> <message>` lines and are rebuilt on the client
//! as [`ServiceError::Remote`].

use ctori_engine::{ExecError, OutcomeParseError, SpecParseError};

/// Anything that can go wrong between a client call and its outcome.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// A transport-level I/O failure.
    Io(std::io::Error),
    /// A job admission or lifecycle failure raised by the server's
    /// worker pool (queue full, unknown job, job failed, …).
    Exec(ExecError),
    /// A client-side connect or read deadline expired before the server
    /// replied.  After a mid-request timeout the connection may hold a
    /// half-read reply and should be dropped, not reused.
    TimedOut,
    /// The transport dropped mid-conversation (broken pipe, reset, or an
    /// unexpected EOF where a reply was due).  Unlike [`ServiceError::Io`],
    /// this is a *reconnectable* condition: the peer address is still
    /// valid, the connection is not.  See [`crate::ServiceClient::reconnect`].
    ConnectionLost,
    /// A submitted spec failed to parse or validate.
    BadSpec(SpecParseError),
    /// An outcome payload failed to parse.
    BadOutcome(OutcomeParseError),
    /// Malformed wire data (unknown command, bad framing, bad token).
    Protocol(String),
    /// An `ERR` reply from the server, rebuilt client-side.
    Remote {
        /// The machine-readable error code.
        code: String,
        /// The human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Exec(e) => write!(f, "{e}"),
            ServiceError::TimedOut => write!(f, "timed out waiting for the server"),
            ServiceError::ConnectionLost => {
                write!(f, "connection to the server was lost mid-conversation")
            }
            ServiceError::BadSpec(e) => write!(f, "bad run spec: {e}"),
            ServiceError::BadOutcome(e) => write!(f, "bad run outcome: {e}"),
            ServiceError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ServiceError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Exec(e) => Some(e),
            ServiceError::BadSpec(e) => Some(e),
            ServiceError::BadOutcome(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

impl From<SpecParseError> for ServiceError {
    fn from(e: SpecParseError) -> Self {
        ServiceError::BadSpec(e)
    }
}

impl From<OutcomeParseError> for ServiceError {
    fn from(e: OutcomeParseError) -> Self {
        ServiceError::BadOutcome(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn errors_display_and_chain() {
        let e: ServiceError = ExecError::QueueFull { capacity: 8 }.into();
        assert!(e.to_string().contains("8"));
        assert!(e.source().is_some(), "pool errors chain through source()");
        let e: ServiceError = ctori_engine::RunSpec::from_text("junk").unwrap_err().into();
        assert!(e.source().is_some(), "spec errors chain through source()");
        let boxed: Box<dyn Error> = Box::new(e);
        assert!(boxed.to_string().contains("bad run spec"));
        let e: ServiceError = ctori_engine::RunOutcome::from_text("junk")
            .unwrap_err()
            .into();
        assert!(e.source().is_some());
        let io: ServiceError = std::io::Error::other("boom").into();
        assert!(io.source().is_some());
    }
}
