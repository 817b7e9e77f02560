//! Typed errors of the serving layer.
//!
//! The write and compact paths never panic on expected failures: a full
//! admission gate, a dead or failing write-ahead log, and a lock poisoned
//! by a panicking writer all surface as [`ServiceError`] variants the
//! caller can match on. An errored write is **not acknowledged** — the
//! in-memory state is left exactly as it was.

use repose_durability::WalError;

/// Why a service operation was refused.
#[derive(Debug)]
pub enum ServiceError {
    /// The admission gate is full: the query was shed to protect the
    /// latency of those already running. Retry after back-off.
    Overloaded {
        /// Queries in flight when this one arrived.
        in_flight: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// The durability layer failed (or fail-stopped earlier); the write
    /// was not acknowledged and the in-memory state is unchanged. Recover
    /// from the durability directory to resume.
    Durability(WalError),
    /// A lock was poisoned by a panicking writer — the in-memory state
    /// can no longer be trusted for mutation.
    StatePoisoned,
    /// [`crate::ReposeService::recover`] was called with a config whose
    /// `durability` is `None`.
    DurabilityNotConfigured,
    /// A query or an inserted trajectory contains a non-finite coordinate
    /// (NaN or ±∞). The distance kernels' exactness contract holds for
    /// finite input only, so the request is refused before it can reach
    /// them (or the log). Names what was refused.
    InvalidInput(&'static str),
    /// A replicated record arrived out of order: applying it would leave a
    /// hole in the operation sequence, so the replica refuses (and does
    /// not acknowledge) rather than silently diverge from its leader.
    ReplicationGap {
        /// The next sequence this replica can accept.
        expected: u64,
        /// The sequence that actually arrived.
        got: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { in_flight, limit } => write!(
                f,
                "query shed: {in_flight} queries in flight at the admission limit of {limit}"
            ),
            ServiceError::Durability(e) => write!(f, "durability failure: {e}"),
            ServiceError::StatePoisoned => {
                write!(f, "service state lock poisoned by a panicking writer")
            }
            ServiceError::DurabilityNotConfigured => {
                write!(f, "recovery requires a durability configuration")
            }
            ServiceError::InvalidInput(what) => {
                write!(f, "{what} contains a non-finite coordinate")
            }
            ServiceError::ReplicationGap { expected, got } => write!(
                f,
                "replicated record out of order: expected sequence {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Durability(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for ServiceError {
    fn from(e: WalError) -> Self {
        ServiceError::Durability(e)
    }
}
