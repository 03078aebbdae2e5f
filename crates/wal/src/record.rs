//! Write-ahead log records.
//!
//! WattDB logs logically at record granularity ("physiological" logging in
//! the classic sense: logical within a segment): each data change carries
//! the key, segment, and before/after images needed for REDO and UNDO.
//! Segment moves appear as bracketing records — the move itself needs no
//! per-record logging because it read-locks the partition and acts as a
//! checkpoint (§4.3, *Logging*).

use wattdb_common::{Lsn, SegmentId, TxnId};

/// Fixed per-record header overhead counted toward log volume (LSN, txn,
/// kind tag, lengths).
pub const LOG_HEADER_BYTES: usize = 32;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction began.
    Begin,
    /// Transaction committed.
    Commit,
    /// Transaction aborted (undo completed).
    Abort,
    /// A key was inserted: after-image bytes.
    Insert {
        /// Segment holding the key.
        segment: SegmentId,
        /// Encoded after-image ([`wattdb_storage::Record`] bytes).
        after: Vec<u8>,
    },
    /// A key was updated: before and after images.
    Update {
        /// Segment holding the key.
        segment: SegmentId,
        /// Encoded before-image.
        before: Vec<u8>,
        /// Encoded after-image.
        after: Vec<u8>,
    },
    /// A key was deleted: before image.
    Delete {
        /// Segment holding the key.
        segment: SegmentId,
        /// Encoded before-image.
        before: Vec<u8>,
    },
    /// A data change logged for its volume alone. The cluster's executor
    /// models what a change costs the log — flush I/O, shipping bytes — and
    /// never replays it, so it records how many image bytes a redoable
    /// record would carry instead of the images. Recovery rejects it.
    Change {
        /// Segment holding the key.
        segment: SegmentId,
        /// Combined encoded size of the before/after images.
        image_bytes: u32,
    },
    /// A segment move started (source side). Acts as a checkpoint for the
    /// segment: all prior changes are committed and flushed.
    SegmentMoveStart {
        /// Moving segment.
        segment: SegmentId,
        /// Destination node (raw id; the WAL layer is node-agnostic).
        to_node: u16,
    },
    /// A segment move finished; the old copy may be dropped.
    SegmentMoveEnd {
        /// Moved segment.
        segment: SegmentId,
    },
    /// Fuzzy checkpoint: transactions live at checkpoint time.
    Checkpoint {
        /// Transactions in flight.
        active: Vec<TxnId>,
    },
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Sequence number (unique, dense, per node).
    pub lsn: Lsn,
    /// Owning transaction ([`TxnId::NONE`] for checkpoints/moves).
    pub txn: TxnId,
    /// The change.
    pub payload: LogPayload,
}

impl LogRecord {
    /// Bytes this record contributes to the log (header + images); drives
    /// flush I/O and log-shipping network volume.
    pub fn encoded_len(&self) -> usize {
        LOG_HEADER_BYTES
            + match &self.payload {
                LogPayload::Begin | LogPayload::Commit | LogPayload::Abort => 0,
                LogPayload::Insert { after, .. } => after.len(),
                LogPayload::Update { before, after, .. } => before.len() + after.len(),
                LogPayload::Delete { before, .. } => before.len(),
                LogPayload::Change { image_bytes, .. } => *image_bytes as usize,
                LogPayload::SegmentMoveStart { .. } | LogPayload::SegmentMoveEnd { .. } => 16,
                LogPayload::Checkpoint { active } => 8 * active.len(),
            }
    }

    /// True for records that change data (need redo/undo).
    pub fn is_data_change(&self) -> bool {
        matches!(
            self.payload,
            LogPayload::Insert { .. }
                | LogPayload::Update { .. }
                | LogPayload::Delete { .. }
                | LogPayload::Change { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_len_scales_with_images() {
        let small = LogRecord {
            lsn: Lsn(1),
            txn: TxnId(1),
            payload: LogPayload::Commit,
        };
        let big = LogRecord {
            lsn: Lsn(2),
            txn: TxnId(1),
            payload: LogPayload::Update {
                segment: SegmentId(1),
                before: vec![0; 100],
                after: vec![0; 120],
            },
        };
        let sized = LogRecord {
            lsn: Lsn(3),
            txn: TxnId(1),
            payload: LogPayload::Change {
                segment: SegmentId(1),
                image_bytes: 220,
            },
        };
        assert_eq!(small.encoded_len(), LOG_HEADER_BYTES);
        assert_eq!(big.encoded_len(), LOG_HEADER_BYTES + 220);
        assert_eq!(sized.encoded_len(), big.encoded_len());
    }

    #[test]
    fn data_change_classification() {
        let mk = |p| LogRecord {
            lsn: Lsn(1),
            txn: TxnId(1),
            payload: p,
        };
        assert!(mk(LogPayload::Insert {
            segment: SegmentId(1),
            after: vec![]
        })
        .is_data_change());
        assert!(!mk(LogPayload::Begin).is_data_change());
        assert!(!mk(LogPayload::Checkpoint { active: vec![] }).is_data_change());
        assert!(!mk(LogPayload::SegmentMoveEnd {
            segment: SegmentId(1)
        })
        .is_data_change());
    }
}
