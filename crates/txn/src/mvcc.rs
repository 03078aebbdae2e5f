//! Multiversion concurrency control over the storage layer.
//!
//! §3.5: "Multiversion Concurrency Control allows multiple versions of DB
//! objects to exist; modifying a record creates a new version of it without
//! deleting the old one immediately. Hence, readers can still access old
//! versions [...] This property is especially useful for dynamic
//! partitioning techniques, where records are frequently moved."
//!
//! Versions live in pages as [`Record`]s chained newest-first through their
//! `prev` pointers; the segment's PK index always points at the newest
//! version. A chain stays in the segment of the index that heads it: every
//! `prev` written here is an address that index just handed out, which is
//! what lets the stored pointer be segment-local. A version is its header:
//! the writes below store no row bytes, only the header with the row's
//! logical width ([`PageStore::insert_version`]). Every walk and check
//! looks at headers only ([`PageStore::peek`]); [`read`] hands out the
//! version it finds as an owned [`Record`]. Uncommitted timestamps are
//! *provisional*: the creating transaction's id with the high bit set.
//! Commit stamps them with the commit timestamp; abort unlinks the
//! provisional version.
//!
//! A write descends its segment's index once: it finds the entry of its
//! key, checks the version the entry points at, stores the new version and
//! re-points the entry ([`SegmentIndex::upsert_with`] for a key that may be
//! new, [`SegmentIndex::repoint`] for one that must exist).
//!
//! Write-write conflicts: a transaction that finds the newest version
//! provisionally owned by another in-flight transaction aborts
//! (first-updater-wins between concurrent writers). Writes against versions
//! committed *after* the writer's snapshot are allowed once the record's X
//! lock is held — read-committed write semantics, the standard engine
//! behaviour that keeps TPC-C's hot counter rows (W_YTD, D_NEXT_O_ID) from
//! aborting every concurrent increment. Snapshot reads are unaffected.

use wattdb_common::{Error, Key, Result, SegmentId, TxnId};
use wattdb_index::SegmentIndex;
use wattdb_storage::{PageStore, Record, RecordHeader, TS_INFINITY};

/// High bit marking a provisional (uncommitted) timestamp.
pub const TXN_MARK: u64 = 1 << 63;

/// Provisional timestamp for `txn`.
pub fn provisional(txn: TxnId) -> u64 {
    TXN_MARK | txn.raw()
}

/// True for provisional timestamps (excluding the `TS_INFINITY` sentinel).
pub fn is_provisional(ts: u64) -> bool {
    ts >= TXN_MARK && ts != TS_INFINITY
}

/// Owner of a provisional timestamp.
pub fn owner(ts: u64) -> TxnId {
    debug_assert!(is_provisional(ts));
    TxnId(ts & !TXN_MARK)
}

/// A transaction's view: its start timestamp plus its own id (own
/// uncommitted writes are visible to itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Sees versions committed at or before this timestamp.
    pub ts: u64,
    /// Owning transaction.
    pub txn: TxnId,
}

/// Is the version with header `rec` visible to `snap`?
pub fn visible(rec: &RecordHeader, snap: Snapshot) -> bool {
    let begin_ok = if is_provisional(rec.begin) {
        owner(rec.begin) == snap.txn
    } else {
        rec.begin <= snap.ts
    };
    let end_ok = if rec.end == TS_INFINITY {
        true
    } else if is_provisional(rec.end) {
        // Superseded only provisionally: still visible to everyone except
        // the superseding transaction itself.
        owner(rec.end) != snap.txn
    } else {
        rec.end > snap.ts
    };
    begin_ok && end_ok
}

/// One entry of a transaction's write set, needed to stamp or undo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOp {
    /// Segment the key lives in.
    pub segment: SegmentId,
    /// The key written.
    pub key: Key,
    /// The provisional new version.
    pub new_rid: wattdb_common::RecordId,
    /// The superseded version, if the key existed.
    pub old_rid: Option<wattdb_common::RecordId>,
}

/// A version as it lies in its page: header, and the payload borrowed.
pub type Stored<'a> = (RecordHeader, &'a [u8]);

/// Find the newest version of `key` visible to `snap` without copying
/// anything out: its header and its payload, borrowed from the page — or
/// `None` for unknown keys and for keys whose visible version is a
/// tombstone. Also reports the number of versions inspected (cost model).
pub fn find<'a>(
    index: &SegmentIndex,
    store: &'a PageStore,
    key: Key,
    snap: Snapshot,
) -> Result<(Option<Stored<'a>>, usize)> {
    let (rid, _) = index.get(key);
    let Some(mut rid) = rid else {
        return Ok((None, 0));
    };
    let mut inspected = 0;
    loop {
        let (rec, payload) = store.peek_payload(rid)?;
        inspected += 1;
        if visible(&rec, snap) {
            let live = (!rec.is_tombstone()).then_some((rec, payload));
            return Ok((live, inspected));
        }
        match rec.prev {
            Some(prev) => rid = prev,
            None => return Ok((None, inspected)),
        }
    }
}

/// Read the newest version of `key` visible to `snap`: [`find`], plus the
/// one copy that makes the version found an owned [`Record`].
pub fn read(
    index: &SegmentIndex,
    store: &PageStore,
    key: Key,
    snap: Snapshot,
) -> Result<(Option<Record>, usize)> {
    let (hit, inspected) = find(index, store, key, snap)?;
    let rec = hit.map(|(header, payload)| header.with_payload(payload.to_vec()));
    Ok((rec, inspected))
}

fn check_write_conflict(newest: &RecordHeader, snap: Snapshot) -> Result<()> {
    // Another transaction's uncommitted version heads the chain.
    if is_provisional(newest.begin) && owner(newest.begin) != snap.txn {
        return Err(Error::TxnAborted {
            txn: snap.txn,
            reason: wattdb_common::error::AbortReason::WriteConflict,
        });
    }
    // Another transaction provisionally superseded it.
    if is_provisional(newest.end) && newest.end != TS_INFINITY && owner(newest.end) != snap.txn {
        return Err(Error::TxnAborted {
            txn: snap.txn,
            reason: wattdb_common::error::AbortReason::WriteConflict,
        });
    }
    Ok(())
}

/// Insert a new key. Fails with [`Error::DuplicateKey`] if a visible
/// version exists.
pub fn insert(
    index: &mut SegmentIndex,
    store: &mut PageStore,
    max_pages: u32,
    key: Key,
    logical_width: u32,
    snap: Snapshot,
) -> Result<WriteOp> {
    let segment = index.segment();
    let mut new_rid = None;
    let old_rid = index.upsert_with(key, |existing| {
        if let Some(rid) = existing {
            let newest = store.peek(rid)?;
            check_write_conflict(&newest, snap)?;
            if !newest.is_tombstone() {
                return Err(Error::DuplicateKey(key));
            }
            // Re-insert over a tombstone: chain through it.
        }
        let header = RecordHeader {
            prev: existing,
            ..RecordHeader::new(key, provisional(snap.txn), logical_width)
        };
        let (rid, _) = store.insert_version(segment, &header, max_pages)?;
        if let Some(old_rid) = existing {
            store.stamp_end(old_rid, provisional(snap.txn))?;
        }
        new_rid = Some(rid);
        Ok(rid)
    })?;
    Ok(WriteOp {
        segment,
        key,
        new_rid: new_rid.expect("upsert stored a version"),
        old_rid,
    })
}

/// Update an existing key (creates a version of `logical_width`).
pub fn update(
    index: &mut SegmentIndex,
    store: &mut PageStore,
    max_pages: u32,
    key: Key,
    logical_width: u32,
    snap: Snapshot,
) -> Result<WriteOp> {
    let header = RecordHeader::new(key, provisional(snap.txn), logical_width);
    write_version(index, store, max_pages, snap, header)
}

/// Delete an existing key (creates a tombstone version).
pub fn delete(
    index: &mut SegmentIndex,
    store: &mut PageStore,
    max_pages: u32,
    key: Key,
    snap: Snapshot,
) -> Result<WriteOp> {
    let header = RecordHeader::tombstone(key, provisional(snap.txn));
    write_version(index, store, max_pages, snap, header)
}

/// Chain the version `header` on top of its key's current one.
fn write_version(
    index: &mut SegmentIndex,
    store: &mut PageStore,
    max_pages: u32,
    snap: Snapshot,
    mut header: RecordHeader,
) -> Result<WriteOp> {
    let key = header.key;
    let segment = index.segment();
    let mut new_rid = None;
    let old_rid = index
        .repoint(key, |old_rid| {
            let newest = store.peek(old_rid)?;
            check_write_conflict(&newest, snap)?;
            if newest.is_tombstone() {
                return Err(Error::KeyNotFound(key));
            }
            header.prev = Some(old_rid);
            let (rid, _) = store.insert_version(segment, &header, max_pages)?;
            store.stamp_end(old_rid, provisional(snap.txn))?;
            new_rid = Some(rid);
            Ok(rid)
        })?
        .ok_or(Error::KeyNotFound(key))?;
    Ok(WriteOp {
        segment,
        key,
        new_rid: new_rid.expect("repoint stored a version"),
        old_rid: Some(old_rid),
    })
}

/// Stamp a transaction's write set at commit time: the provisional
/// timestamps become `commit_ts`, patched in place in the stored versions.
pub fn commit_writes(store: &mut PageStore, writes: &[WriteOp], commit_ts: u64) -> Result<()> {
    for w in writes {
        store.restamp_begin(w.new_rid, commit_ts, is_provisional)?;
        if let Some(old_rid) = w.old_rid {
            store.restamp_end(old_rid, commit_ts, is_provisional)?;
        }
    }
    Ok(())
}

/// Undo a transaction's write set at abort: unlink provisional versions and
/// restore index pointers and end timestamps.
pub fn abort_writes(
    index: &mut SegmentIndex,
    store: &mut PageStore,
    writes: &[WriteOp],
) -> Result<()> {
    // Undo in reverse so repeated writes to one key restore correctly.
    for w in writes.iter().rev() {
        store.delete_record(w.new_rid)?;
        match w.old_rid {
            Some(old_rid) => {
                store.restamp_end(old_rid, TS_INFINITY, is_provisional)?;
                index.insert(w.key, old_rid);
            }
            None => {
                index.remove(w.key);
            }
        }
    }
    Ok(())
}

/// Garbage-collect versions no snapshot at or after `horizon` can see:
/// committed versions with `end <= horizon`, plus tombstone heads older
/// than the horizon. Returns versions reclaimed.
pub fn vacuum(index: &mut SegmentIndex, store: &mut PageStore, horizon: u64) -> Result<usize> {
    let mut reclaimed = 0;
    for (key, head_rid) in index.entries() {
        // Walk the chain, keeping the head; cut the first link whose target
        // is invisible to every active snapshot.
        let mut cur_rid = head_rid;
        while let Some(prev_rid) = store.peek(cur_rid)?.prev {
            let prev = store.peek(prev_rid)?;
            if !is_provisional(prev.end) && prev.end != TS_INFINITY && prev.end <= horizon {
                // Unlink and reclaim the whole tail from prev down.
                store.unlink_prev(cur_rid)?;
                let mut tail = Some(prev_rid);
                while let Some(rid) = tail {
                    tail = store.peek(rid)?.prev;
                    store.delete_record(rid)?;
                    reclaimed += 1;
                }
                break;
            }
            cur_rid = prev_rid;
        }
        // Drop fully-dead tombstone heads (no chain, committed, old).
        let head = store.peek(head_rid)?;
        if head.is_tombstone()
            && head.prev.is_none()
            && !is_provisional(head.begin)
            && head.begin <= horizon
        {
            store.delete_record(head_rid)?;
            index.remove(key);
            reclaimed += 1;
        }
    }
    Ok(reclaimed)
}

/// Count stored versions per live key: (versions, live keys). The paper's
/// Fig. 3 storage-space line is `versions / live keys`.
pub fn version_stats(index: &SegmentIndex, store: &PageStore) -> Result<(usize, usize)> {
    let mut versions = 0;
    let live = index.len();
    for (_, head) in index.entries() {
        let mut rid = Some(head);
        while let Some(r) = rid {
            versions += 1;
            rid = store.peek(r)?.prev;
        }
    }
    Ok((versions, live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::KeyRange;

    const MAX_PAGES: u32 = 1024;

    fn setup() -> (SegmentIndex, PageStore) {
        let seg = SegmentId(1);
        let mut store = PageStore::new();
        store.add_segment(seg);
        let index = SegmentIndex::new(seg, KeyRange::all());
        (index, store)
    }

    fn snap(ts: u64, txn: u64) -> Snapshot {
        Snapshot {
            ts,
            txn: TxnId(txn),
        }
    }

    /// Versions are told apart by their logical width: version `tag` of
    /// a key is `64 + tag` wide.
    fn tagged(tag: u32) -> u32 {
        64 + tag
    }

    fn commit(store: &mut PageStore, writes: &[WriteOp], ts: u64) {
        commit_writes(store, writes, ts).unwrap();
    }

    #[test]
    fn insert_commit_read() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(7), snap(10, 1)).unwrap();
        // Own uncommitted write is visible to self, invisible to others.
        assert!(read(&idx, &st, Key(1), snap(10, 1)).unwrap().0.is_some());
        assert!(read(&idx, &st, Key(1), snap(10, 2)).unwrap().0.is_none());
        commit(&mut st, &[w], 20);
        // Visible to snapshots at/after 20, invisible before.
        assert!(read(&idx, &st, Key(1), snap(20, 2)).unwrap().0.is_some());
        assert!(read(&idx, &st, Key(1), snap(19, 2)).unwrap().0.is_none());
    }

    #[test]
    fn update_preserves_old_version_for_readers() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[w], 10);
        // Updater at ts 20.
        let w2 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(2), snap(20, 2)).unwrap();
        commit(&mut st, &[w2], 30);
        // A reader whose snapshot predates the update still sees v1 —
        // the paper's key property while records are on the move.
        let old = read(&idx, &st, Key(1), snap(25, 3)).unwrap().0.unwrap();
        assert_eq!(old.logical_width, tagged(1));
        let new = read(&idx, &st, Key(1), snap(30, 3)).unwrap().0.unwrap();
        assert_eq!(new.logical_width, tagged(2));
    }

    #[test]
    fn delete_leaves_tombstone_until_vacuum() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[w], 10);
        let w2 = delete(&mut idx, &mut st, MAX_PAGES, Key(1), snap(15, 2)).unwrap();
        commit(&mut st, &[w2], 20);
        assert!(read(&idx, &st, Key(1), snap(15, 3)).unwrap().0.is_some());
        assert!(read(&idx, &st, Key(1), snap(20, 3)).unwrap().0.is_none());
        // Vacuum past the tombstone: key disappears entirely.
        let reclaimed = vacuum(&mut idx, &mut st, 50).unwrap();
        assert!(reclaimed >= 2, "old version + tombstone, got {reclaimed}");
        assert_eq!(idx.get(Key(1)).0, None);
    }

    #[test]
    fn write_write_conflict_aborts_second_writer() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[w], 10);
        let _w1 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(2), snap(20, 2)).unwrap();
        // Txn 3 tries to update the same record while txn 2 is in flight.
        let err = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(3), snap(20, 3));
        assert!(matches!(err, Err(Error::TxnAborted { .. })));
    }

    #[test]
    fn read_committed_writes_chain_after_commit() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[w], 10);
        // Txn 2 and 3 both start at ts 20. Txn 2 updates and commits at 30.
        let w2 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(2), snap(20, 2)).unwrap();
        commit(&mut st, &[w2], 30);
        // Txn 3's snapshot (20) predates that commit, but with the record's
        // X lock serializing writers, its update applies on top of txn 2's
        // committed version (read-committed write semantics) instead of
        // aborting — hot TPC-C counters depend on this.
        let w3 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(3), snap(20, 3)).unwrap();
        commit(&mut st, &[w3], 40);
        let r = read(&idx, &st, Key(1), snap(40, 9)).unwrap().0.unwrap();
        assert_eq!(r.logical_width, tagged(3));
        // An old snapshot still sees the pre-churn version.
        let r = read(&idx, &st, Key(1), snap(15, 9)).unwrap().0.unwrap();
        assert_eq!(r.logical_width, tagged(1));
    }

    #[test]
    fn abort_restores_previous_state() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[w], 10);
        let w2 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(2), snap(20, 2)).unwrap();
        abort_writes(&mut idx, &mut st, &[w2]).unwrap();
        let r = read(&idx, &st, Key(1), snap(20, 3)).unwrap().0.unwrap();
        assert_eq!(r.logical_width, tagged(1));
        assert_eq!(r.end, TS_INFINITY);
        // A fresh insert that aborts leaves no key behind.
        let w3 = insert(&mut idx, &mut st, MAX_PAGES, Key(9), tagged(9), snap(20, 4)).unwrap();
        abort_writes(&mut idx, &mut st, &[w3]).unwrap();
        assert_eq!(idx.get(Key(9)).0, None);
    }

    #[test]
    fn duplicate_insert_rejected_reinsert_over_tombstone_ok() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[w], 10);
        assert!(matches!(
            insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(2), snap(20, 2)),
            Err(Error::DuplicateKey(_))
        ));
        let w2 = delete(&mut idx, &mut st, MAX_PAGES, Key(1), snap(20, 2)).unwrap();
        commit(&mut st, &[w2], 30);
        let w3 = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(3), snap(40, 3)).unwrap();
        commit(&mut st, &[w3], 50);
        let r = read(&idx, &st, Key(1), snap(50, 4)).unwrap().0.unwrap();
        assert_eq!(r.logical_width, tagged(3));
    }

    #[test]
    fn vacuum_respects_active_snapshots() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[w], 10);
        let w2 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(2), snap(20, 2)).unwrap();
        commit(&mut st, &[w2], 30);
        // Horizon 25: the old version (end=30) may still be needed.
        assert_eq!(vacuum(&mut idx, &mut st, 25).unwrap(), 0);
        let (versions, live) = version_stats(&idx, &st).unwrap();
        assert_eq!((versions, live), (2, 1));
        // Horizon 30: old version reclaimable.
        assert_eq!(vacuum(&mut idx, &mut st, 30).unwrap(), 1);
        let (versions, live) = version_stats(&idx, &st).unwrap();
        assert_eq!((versions, live), (1, 1));
        // Reader at a current snapshot still sees v2.
        let r = read(&idx, &st, Key(1), snap(40, 9)).unwrap().0.unwrap();
        assert_eq!(r.logical_width, tagged(2));
    }

    #[test]
    fn vacuum_cuts_a_chain_without_writing_an_image() {
        let (mut idx, mut st) = setup();
        // v1 of key 1 on page 0, which the other keys then fill, so that
        // v2 and v3 land on page 1.
        let v1 = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[v1], 10);
        let mut k = 2;
        while st.page_count(SegmentId(1)) == 1 {
            let fill = insert(&mut idx, &mut st, MAX_PAGES, Key(k), tagged(0), snap(0, 1)).unwrap();
            commit(&mut st, &[fill], 10);
            k += 1;
        }
        let v2 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(2), snap(20, 2)).unwrap();
        commit(&mut st, &[v2], 30);
        let v3 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(3), snap(40, 3)).unwrap();
        commit(&mut st, &[v3], 50);
        let page = v2.new_rid.page;
        assert_eq!((v3.new_rid.page, v1.new_rid.page.page_no), (page, 0));
        assert_eq!(page.page_no, 1);

        // A horizon that reclaims v1 alone cuts at v2: a version that
        // stays, on a page where nothing dies, and only loses a pointer.
        let mut expected = st.page(page).unwrap().clone();
        Record::unlink_prev(expected.get_mut(v2.new_rid.slot).unwrap()).unwrap();
        assert_eq!(vacuum(&mut idx, &mut st, 30).unwrap(), 1);
        assert_eq!(
            st.page(page).unwrap(),
            &expected,
            "only the pointer changed"
        );
        assert_eq!(st.peek(v2.new_rid).unwrap().prev, None);
        assert_eq!(st.peek(v3.new_rid).unwrap().prev, Some(v2.new_rid));
        assert!(st.peek(v1.new_rid).is_err(), "v1 reclaimed");
        let r = read(&idx, &st, Key(1), snap(35, 9)).unwrap().0.unwrap();
        assert_eq!(r.logical_width, tagged(2));
    }

    #[test]
    fn own_double_update_chains() {
        let (mut idx, mut st) = setup();
        let w = insert(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(1), snap(0, 1)).unwrap();
        commit(&mut st, &[w], 10);
        let w1 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(2), snap(20, 2)).unwrap();
        let w2 = update(&mut idx, &mut st, MAX_PAGES, Key(1), tagged(3), snap(20, 2)).unwrap();
        // Own snapshot sees the latest own write.
        let r = read(&idx, &st, Key(1), snap(20, 2)).unwrap().0.unwrap();
        assert_eq!(r.logical_width, tagged(3));
        commit(&mut st, &[w1, w2], 30);
        let r = read(&idx, &st, Key(1), snap(30, 5)).unwrap().0.unwrap();
        assert_eq!(r.logical_width, tagged(3));
    }
}
