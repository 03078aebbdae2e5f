//! Per-node log manager with group commit.
//!
//! "For durability reasons, write-ahead logs must be maintained at all
//! times. When repartitioning, although record ownership changes, log files
//! remain on the original node" (§4.3). Each node therefore owns one
//! [`LogManager`]; a moved partition starts logging into the *new* node's
//! manager after the move completes.
//!
//! The manager is a byte ledger. It buffers appended records' lengths; the
//! cluster layer charges the disk (or network, under log shipping) cost of
//! a flush from them ([`LogManager::bytes_after`]) and then confirms it
//! with [`LogManager::mark_durable`]. Nothing replays the log — a failed node's
//! segments are promoted from their followers, which received the log — so
//! a retained record is read for its LSN and its encoded length only, and
//! the length is all the manager keeps of it.
//!
//! **Commit rule** (the cluster layer's `executor::schedule_pending_flushes`):
//! a commit that finds its node's log with no flush in flight flushes at
//! once; one that arrives while a flush is on the disk (or the helper's
//! wire) waits a fixed 2 ms window, and every commit queued by then rides
//! in the next flush.
//!
//! **Retention rule:** a record stays in memory until it is both durable
//! and shipped to every replica follower — after each flush the cluster
//! layer calls [`LogManager::truncate_through`] with the lower of the
//! durable LSN and the slowest follower's cursor — so the retained tail is
//! bounded by the flush and shipping backlog, not by the age of the run.

use std::collections::VecDeque;

use wattdb_common::{Lsn, TxnId};

use crate::record::LogPayload;

/// Append-only log for one node.
#[derive(Debug)]
pub struct LogManager {
    /// Encoded length of each retained record. LSNs are dense, so the
    /// record with LSN `l` sits at index `l - first`, `first` being the
    /// lowest retained LSN.
    lens: VecDeque<u32>,
    next_lsn: u64,
    /// All records with `lsn <= durable` are on stable storage.
    durable: Lsn,
    /// Total bytes ever flushed (diagnostics / Fig. 7 logging share).
    flushed_bytes: u64,
    flushes: u64,
}

impl Default for LogManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LogManager {
    /// Empty log.
    pub fn new() -> Self {
        Self {
            lens: VecDeque::new(),
            next_lsn: 1,
            durable: Lsn::ZERO,
            flushed_bytes: 0,
            flushes: 0,
        }
    }

    /// Append a record; returns its LSN. The record is *not* durable until
    /// a flush covers it. The ledger keeps no owner: `_txn` stays because
    /// the benchmark's frozen `wal.append_ns` probe calls this signature.
    pub fn append(&mut self, _txn: TxnId, payload: LogPayload) -> Lsn {
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        let len = payload.encoded_len().try_into();
        self.lens.push_back(len.expect("log record below 4 GiB"));
        lsn
    }

    /// Highest LSN handed out.
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.next_lsn - 1)
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable
    }

    /// Index in `lens` of the first record with an LSN above `lsn`.
    fn index_after(&self, lsn: Lsn) -> usize {
        let first = self.next_lsn - self.lens.len() as u64;
        ((lsn.raw() + 1).saturating_sub(first) as usize).min(self.lens.len())
    }

    /// Mark everything up to `lsn` durable (after the flush I/O completed).
    /// Group commit: one flush typically covers many commits. Costs the
    /// newly durable records only: truncation never passes the durable
    /// LSN, so they are all still retained.
    pub fn mark_durable(&mut self, lsn: Lsn) {
        let lsn = lsn.min(self.last_lsn());
        if lsn <= self.durable {
            return;
        }
        let lo = self.index_after(self.durable);
        self.durable = lsn;
        let hi = self.index_after(lsn);
        let newly: u64 = self.lens.range(lo..hi).map(|&l| u64::from(l)).sum();
        self.flushed_bytes += newly;
        self.flushes += 1;
    }

    /// Total bytes flushed over the log's lifetime.
    pub fn flushed_bytes(&self) -> u64 {
        self.flushed_bytes
    }

    /// Number of flushes performed.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Total bytes of the retained records after `from` (exclusive) — what
    /// shipping the tail past a cursor at `from` puts on the wire. `None`
    /// when no retained record lies past it.
    pub fn bytes_after(&self, from: Lsn) -> Option<usize> {
        let i = self.index_after(from);
        (i < self.lens.len()).then(|| self.lens.range(i..).map(|&l| l as usize).sum())
    }

    /// Drop records at or below `lsn` (post-checkpoint truncation; §4.3:
    /// "the old copies and the old log file are no longer required").
    /// Costs the dropped records only.
    pub fn truncate_through(&mut self, lsn: Lsn) {
        assert!(lsn <= self.durable, "cannot truncate undurable log records");
        let n = self.index_after(lsn);
        self.lens.drain(..n);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True if the retained log is empty.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LOG_HEADER_BYTES;
    use wattdb_common::SegmentId;

    #[test]
    fn append_assigns_dense_lsns() {
        let mut log = LogManager::new();
        let a = log.append(TxnId(1), LogPayload::Commit);
        let b = log.append(TxnId(1), LogPayload::Commit);
        assert_eq!(a, Lsn(1));
        assert_eq!(b, Lsn(2));
        assert_eq!(log.last_lsn(), Lsn(2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn durability_tracking() {
        let mut log = LogManager::new();
        let l1 = log.append(TxnId(1), LogPayload::Commit);
        let l2 = log.append(
            TxnId(1),
            LogPayload::Change {
                segment: SegmentId(1),
                image_bytes: 50,
            },
        );
        assert!(log.durable_lsn() < l1);
        assert!(log.bytes_after(log.durable_lsn()) > Some(50));
        log.mark_durable(l2);
        assert_eq!(log.durable_lsn(), l2);
        assert_eq!(log.bytes_after(log.durable_lsn()), None);
        assert_eq!(log.flush_count(), 1);
    }

    #[test]
    fn group_commit_covers_multiple_txns() {
        let mut log = LogManager::new();
        for t in 1..=5u64 {
            log.append(TxnId(t), LogPayload::Commit);
        }
        log.mark_durable(log.last_lsn());
        assert_eq!(log.flush_count(), 1, "one flush, five commits");
        assert_eq!(log.bytes_after(log.durable_lsn()), None);
    }

    #[test]
    fn mark_durable_is_monotonic_and_idempotent() {
        let mut log = LogManager::new();
        log.append(TxnId(1), LogPayload::Commit);
        log.append(TxnId(1), LogPayload::Commit);
        log.mark_durable(Lsn(2));
        let flushed = log.flushed_bytes();
        log.mark_durable(Lsn(1)); // regress: no-op
        log.mark_durable(Lsn(2)); // repeat: no-op
        assert_eq!(log.flushed_bytes(), flushed);
        // Beyond the end clamps.
        log.append(TxnId(2), LogPayload::Commit);
        log.mark_durable(Lsn(99));
        assert_eq!(log.durable_lsn(), Lsn(3));
    }

    #[test]
    fn shipping_window() {
        let mut log = LogManager::new();
        for t in 1..=4u64 {
            log.append(TxnId(t), LogPayload::Commit);
        }
        assert_eq!(log.bytes_after(Lsn(2)), Some(2 * LOG_HEADER_BYTES));
        assert_eq!(log.bytes_after(Lsn(4)), None);
        assert_eq!(log.bytes_after(Lsn::ZERO), Some(4 * LOG_HEADER_BYTES));
    }

    #[test]
    fn truncation_after_checkpoint() {
        let mut log = LogManager::new();
        for t in 1..=4u64 {
            log.append(TxnId(t), LogPayload::Commit);
        }
        log.mark_durable(Lsn(4));
        log.truncate_through(Lsn(2));
        assert_eq!(log.len(), 2);
        // Only LSNs 3 and 4 are left to ship, from any cursor below them.
        assert_eq!(log.bytes_after(Lsn::ZERO), Some(2 * LOG_HEADER_BYTES));
        // New appends continue the LSN sequence.
        assert_eq!(log.append(TxnId(9), LogPayload::Commit), Lsn(5));
    }

    #[test]
    #[should_panic(expected = "undurable")]
    fn cannot_truncate_volatile_tail() {
        let mut log = LogManager::new();
        log.append(TxnId(1), LogPayload::Commit);
        log.truncate_through(Lsn(1));
    }
}
