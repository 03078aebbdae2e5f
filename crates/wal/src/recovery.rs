//! Crash recovery: analysis / redo / undo over the logical log.
//!
//! "In case of DB failures, the log file is needed to reconstruct
//! partitions and to perform appropriate UNDO and REDO operations" (§4.3).
//!
//! The recovery model matches the logging model: recovery starts from the
//! last checkpoint image of the data (segments + indexes as of the durable
//! checkpoint) and replays the retained log exactly once —
//!
//! 1. **Analysis**: scan for `Commit` records → the winner set.
//! 2. **Redo**: re-apply every data change of winning transactions in LSN
//!    order.
//! 3. **Undo**: data changes of losers were never applied to the checkpoint
//!    image, so there is nothing to roll back physically; losers simply
//!    vanish. (In-flight changes only ever exist in volatile memory in this
//!    engine: dirty pages are flushed no earlier than their commit record —
//!    a strict WAL discipline enforced by the cluster layer.)

use std::collections::HashSet;

use wattdb_common::{Error, Result, TxnId};
use wattdb_index::SegmentIndex;
use wattdb_storage::{PageStore, Record};
use wattdb_txn::IndexMap;

use crate::record::{LogPayload, LogRecord};

/// Outcome summary of a recovery pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions found.
    pub winners: usize,
    /// Uncommitted transactions discarded.
    pub losers: usize,
    /// Data-change records re-applied.
    pub redone: usize,
}

/// Replay `log` onto the checkpoint image in `indexes`/`store`.
///
/// `indexes` must contain an entry for every segment referenced by winning
/// records (the checkpointed segment set).
pub fn recover(
    log: &[LogRecord],
    indexes: &mut IndexMap,
    store: &mut PageStore,
) -> Result<RecoveryReport> {
    // Analysis.
    let mut begun: HashSet<TxnId> = HashSet::new();
    let mut winners: HashSet<TxnId> = HashSet::new();
    for rec in log {
        match rec.payload {
            LogPayload::Begin => {
                begun.insert(rec.txn);
            }
            LogPayload::Commit => {
                winners.insert(rec.txn);
            }
            _ => {}
        }
    }
    let losers = begun.iter().filter(|t| !winners.contains(t)).count();

    // Redo winners in LSN order.
    let mut redone = 0;
    for rec in log {
        if !rec.is_data_change() || !winners.contains(&rec.txn) {
            continue;
        }
        match &rec.payload {
            LogPayload::Insert { segment, after } => {
                let image = Record::decode(after, *segment)?;
                let idx = indexes
                    .get_mut(segment)
                    .ok_or(Error::UnknownSegment(*segment))?;
                let (rid, _) = store.insert_record(*segment, &image, u32::MAX)?;
                idx.insert(image.key, rid);
            }
            LogPayload::Update { segment, after, .. } => {
                let image = Record::decode(after, *segment)?;
                let idx = indexes
                    .get_mut(segment)
                    .ok_or(Error::UnknownSegment(*segment))?;
                let (rid, _) = idx.get(image.key);
                match rid {
                    Some(rid) => store.write_record(rid, &image)?,
                    None => {
                        // Key absent in the checkpoint image (created and
                        // checkpoint-truncated edge): insert the image.
                        let (rid, _) = store.insert_record(*segment, &image, u32::MAX)?;
                        idx.insert(image.key, rid);
                    }
                }
            }
            LogPayload::Delete { segment, before } => {
                let image = Record::decode(before, *segment)?;
                let idx = indexes
                    .get_mut(segment)
                    .ok_or(Error::UnknownSegment(*segment))?;
                if let (Some(rid), _) = idx.get(image.key) {
                    store.delete_record(rid)?;
                    idx.remove(image.key);
                }
            }
            LogPayload::Change { .. } => {
                return Err(Error::Corruption("log record carries no images to redo"));
            }
            _ => unreachable!("is_data_change filtered"),
        }
        redone += 1;
    }

    Ok(RecoveryReport {
        winners: winners.len(),
        losers,
        redone,
    })
}

/// Build the log images for a data change (helpers for the cluster layer).
/// An image is the version as `segment` stores it — chain pointer
/// segment-local — and is decoded with the segment its payload names.
pub fn insert_payload(segment: wattdb_common::SegmentId, after: &Record) -> LogPayload {
    LogPayload::Insert {
        segment,
        after: after.encode(segment),
    }
}

/// Update payload from before/after images.
pub fn update_payload(
    segment: wattdb_common::SegmentId,
    before: &Record,
    after: &Record,
) -> LogPayload {
    LogPayload::Update {
        segment,
        before: before.encode(segment),
        after: after.encode(segment),
    }
}

/// Delete payload from the before image.
pub fn delete_payload(segment: wattdb_common::SegmentId, before: &Record) -> LogPayload {
    LogPayload::Delete {
        segment,
        before: before.encode(segment),
    }
}

/// Verify a segment's index and pages agree (post-recovery consistency
/// check): every indexed key resolves, every stored head is indexed.
pub fn check_consistency(index: &SegmentIndex, store: &PageStore) -> Result<()> {
    for (key, rid) in index.entries() {
        let rec = store.read_record(rid)?;
        if rec.key != key {
            return Err(Error::Corruption("index points at wrong record"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogManager;
    use wattdb_common::{Key, KeyRange, SegmentId};

    fn fresh(seg: SegmentId) -> (IndexMap, PageStore) {
        let mut store = PageStore::new();
        store.add_segment(seg);
        let mut map = IndexMap::default();
        map.insert(seg, SegmentIndex::new(seg, KeyRange::all()));
        (map, store)
    }

    fn rec(key: u64, val: u8) -> Record {
        Record::new(Key(key), 10, 64, vec![val])
    }

    #[test]
    fn committed_work_survives() {
        let seg = SegmentId(1);
        let mut log = LogManager::new();
        log.append(TxnId(1), LogPayload::Begin);
        log.append(TxnId(1), insert_payload(seg, &rec(1, 7)));
        log.append(TxnId(1), LogPayload::Commit);
        // Crash: recover onto an empty checkpoint image.
        let (mut indexes, mut store) = fresh(seg);
        let report = recover(log.records(), &mut indexes, &mut store).unwrap();
        assert_eq!(report.winners, 1);
        assert_eq!(report.redone, 1);
        let idx = &indexes[&seg];
        let (rid, _) = idx.get(Key(1));
        let r = store.read_record(rid.unwrap()).unwrap();
        assert_eq!(r.payload, vec![7]);
        check_consistency(idx, &store).unwrap();
    }

    #[test]
    fn uncommitted_work_vanishes() {
        let seg = SegmentId(1);
        let mut log = LogManager::new();
        log.append(TxnId(1), LogPayload::Begin);
        log.append(TxnId(1), insert_payload(seg, &rec(1, 7)));
        // no commit — loser
        log.append(TxnId(2), LogPayload::Begin);
        log.append(TxnId(2), insert_payload(seg, &rec(2, 9)));
        log.append(TxnId(2), LogPayload::Commit);
        let (mut indexes, mut store) = fresh(seg);
        let report = recover(log.records(), &mut indexes, &mut store).unwrap();
        assert_eq!(report.winners, 1);
        assert_eq!(report.losers, 1);
        let idx = &indexes[&seg];
        assert_eq!(idx.get(Key(1)).0, None, "loser's insert discarded");
        assert!(idx.get(Key(2)).0.is_some());
    }

    #[test]
    fn update_and_delete_replay_in_order() {
        let seg = SegmentId(1);
        let mut log = LogManager::new();
        let v1 = rec(1, 1);
        let mut v2 = rec(1, 2);
        v2.begin = 20;
        log.append(TxnId(1), LogPayload::Begin);
        log.append(TxnId(1), insert_payload(seg, &v1));
        log.append(TxnId(1), LogPayload::Commit);
        log.append(TxnId(2), LogPayload::Begin);
        log.append(TxnId(2), update_payload(seg, &v1, &v2));
        log.append(TxnId(2), LogPayload::Commit);
        log.append(TxnId(3), LogPayload::Begin);
        log.append(TxnId(3), insert_payload(seg, &rec(5, 5)));
        log.append(TxnId(3), delete_payload(seg, &v2));
        log.append(TxnId(3), LogPayload::Commit);
        let (mut indexes, mut store) = fresh(seg);
        let report = recover(log.records(), &mut indexes, &mut store).unwrap();
        assert_eq!(report.redone, 4);
        let idx = &indexes[&seg];
        assert_eq!(idx.get(Key(1)).0, None, "deleted at the end");
        let (rid, _) = idx.get(Key(5));
        assert_eq!(store.read_record(rid.unwrap()).unwrap().payload, vec![5]);
    }

    #[test]
    fn recovery_is_deterministic() {
        let seg = SegmentId(1);
        let mut log = LogManager::new();
        for t in 1..=20u64 {
            log.append(TxnId(t), LogPayload::Begin);
            log.append(TxnId(t), insert_payload(seg, &rec(t, t as u8)));
            if t % 3 != 0 {
                log.append(TxnId(t), LogPayload::Commit);
            }
        }
        let (mut i1, mut s1) = fresh(seg);
        let (mut i2, mut s2) = fresh(seg);
        let r1 = recover(log.records(), &mut i1, &mut s1).unwrap();
        let r2 = recover(log.records(), &mut i2, &mut s2).unwrap();
        assert_eq!(r1, r2);
        let keys1: Vec<_> = i1[&seg].entries();
        let keys2: Vec<_> = i2[&seg].entries();
        assert_eq!(keys1, keys2);
        // 20 txns, every third (6 of them) lost.
        assert_eq!(r1.winners, 14);
        assert_eq!(r1.losers, 6);
    }

    #[test]
    fn unknown_segment_is_an_error() {
        let seg = SegmentId(1);
        let other = SegmentId(99);
        let mut log = LogManager::new();
        log.append(TxnId(1), LogPayload::Begin);
        log.append(TxnId(1), insert_payload(other, &rec(1, 1)));
        log.append(TxnId(1), LogPayload::Commit);
        let (mut indexes, mut store) = fresh(seg);
        assert!(recover(log.records(), &mut indexes, &mut store).is_err());
    }
}
