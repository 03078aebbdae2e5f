//! Error type shared across WattDB subsystems.

use std::fmt;

use crate::ids::{NodeId, PageId, PartitionId, RecordId, SegmentId, TxnId};
use crate::key::Key;

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the WattDB engine.
///
/// Kept as a single enum (rather than per-crate errors) because the layers
/// are tightly co-designed and callers almost always handle them uniformly:
/// abort the transaction or fail the experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A page slot did not contain a record.
    RecordNotFound(RecordId),
    /// A key lookup found nothing.
    KeyNotFound(Key),
    /// Insert of a key that already exists in a unique index.
    DuplicateKey(Key),
    /// Page has insufficient free space for the requested insert.
    PageFull(PageId),
    /// A segment id was not known to the storage layer.
    UnknownSegment(SegmentId),
    /// A partition id was not known to the catalog.
    UnknownPartition(PartitionId),
    /// A node id was not part of the cluster or is powered off.
    NodeUnavailable(NodeId),
    /// Transaction was aborted (deadlock victim, write-write conflict, ...).
    TxnAborted {
        /// The aborted transaction.
        txn: TxnId,
        /// Human-readable cause.
        reason: AbortReason,
    },
    /// The buffer pool could not evict a frame (all pinned).
    BufferExhausted,
    /// A disk ran out of capacity.
    DiskFull(NodeId),
    /// Operation is invalid in the current state (protocol misuse).
    InvalidState(&'static str),
    /// Corrupted on-page data was encountered.
    Corruption(&'static str),
}

/// Why a transaction was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Chosen as a deadlock victim by the lock manager.
    Deadlock,
    /// First-updater-wins conflict under MVCC.
    WriteConflict,
    /// Lock wait exceeded the configured timeout.
    LockTimeout,
    /// Explicit user/system abort.
    Requested,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Deadlock => "deadlock victim",
            AbortReason::WriteConflict => "write-write conflict",
            AbortReason::LockTimeout => "lock timeout",
            AbortReason::Requested => "requested",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::RecordNotFound(rid) => write!(f, "record not found at {rid}"),
            Error::KeyNotFound(k) => write!(f, "key {k} not found"),
            Error::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            Error::PageFull(p) => write!(f, "page {p} is full"),
            Error::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            Error::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            Error::NodeUnavailable(n) => write!(f, "node {n} unavailable"),
            Error::TxnAborted { txn, reason } => write!(f, "{txn} aborted: {reason}"),
            Error::BufferExhausted => write!(f, "buffer pool exhausted (all frames pinned)"),
            Error::DiskFull(n) => write!(f, "disk full on node {n}"),
            Error::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            Error::Corruption(msg) => write!(f, "data corruption: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::TxnAborted {
            txn: TxnId(7),
            reason: AbortReason::Deadlock,
        };
        assert_eq!(e.to_string(), "txn7 aborted: deadlock victim");
        assert_eq!(Error::KeyNotFound(Key(9)).to_string(), "key k9 not found");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(Error::BufferExhausted);
        assert!(e.to_string().contains("buffer pool"));
    }
}
