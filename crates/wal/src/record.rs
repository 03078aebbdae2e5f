//! Write-ahead log records: a byte ledger.
//!
//! The paper prices the log by its volume — the flush I/O of Fig. 7's
//! logging share and the wire bytes of Fig. 8's log shipping — and no
//! figure measures a restart. The failure story is replication, not
//! restart: followers receive the log and a dead leader's segments are
//! promoted. So a record only has to know how many bytes it adds to the
//! log ([`LogPayload::encoded_len`]); a data change records the size its
//! before/after images would have, not the images. Segment moves appear
//! as bracketing records — the move itself needs no per-record logging
//! because it read-locks the partition and acts as a checkpoint (§4.3,
//! *Logging*).

use wattdb_common::SegmentId;

/// Fixed per-record header overhead counted toward log volume (LSN, txn,
/// kind tag, lengths).
pub const LOG_HEADER_BYTES: usize = 32;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction committed.
    Commit,
    /// A key was updated: before and after images. Nothing in the engine
    /// logs it; the benchmark's `wal.append_ns` probe
    /// (`benchmark/src/probe.rs`, frozen with the benchmark) does.
    Update {
        /// Segment holding the key.
        segment: SegmentId,
        /// Encoded before-image.
        before: Vec<u8>,
        /// Encoded after-image.
        after: Vec<u8>,
    },
    /// A data change logged for its volume alone: how many image bytes a
    /// redoable record would carry, instead of the images.
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
}

impl LogPayload {
    /// Bytes this record contributes to the log (header + images); drives
    /// flush I/O and log-shipping network volume.
    pub fn encoded_len(&self) -> usize {
        LOG_HEADER_BYTES
            + match self {
                LogPayload::Commit => 0,
                LogPayload::Update { before, after, .. } => before.len() + after.len(),
                LogPayload::Change { image_bytes, .. } => *image_bytes as usize,
                LogPayload::SegmentMoveStart { .. } | LogPayload::SegmentMoveEnd { .. } => 16,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_len_scales_with_images() {
        let big = LogPayload::Update {
            segment: SegmentId(1),
            before: vec![0; 100],
            after: vec![0; 120],
        };
        let sized = LogPayload::Change {
            segment: SegmentId(1),
            image_bytes: 220,
        };
        assert_eq!(LogPayload::Commit.encoded_len(), LOG_HEADER_BYTES);
        assert_eq!(big.encoded_len(), LOG_HEADER_BYTES + 220);
        assert_eq!(sized.encoded_len(), big.encoded_len());
    }
}
