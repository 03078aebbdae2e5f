//! Property test: the one-descent MVCC writes against the two-descent
//! bodies they replaced.
//!
//! `mvcc::{insert, update, delete}` used to look a key up, work on the
//! store, and then insert into the index — two root-to-leaf walks — and
//! `commit_writes` / `abort_writes` used to peek a version and then stamp
//! it. Those bodies live on here as the model ([`model`]), written against
//! the same public `SegmentIndex` / `PageStore` calls. Random schedules of
//! a few interleaved transactions over a dozen keys — plain inserts,
//! re-inserts over tombstones, duplicate keys, write conflicts between
//! in-flight writers, commits, and aborts that must put the index pointer
//! back — drive both; every call must return the same `WriteOp` or the
//! same error, and index, version chains and page accounting must come out
//! identical.
//!
//! A stored version names its predecessor by page and slot alone, so a
//! chain must never leave the segment of the index that heads it.
//! `chains_stay_in_their_segment` runs two segments over one store through
//! random inserts, updates, deletes, commits, aborts and vacuums: every
//! link of every chain must resolve, in its own segment, to a version of
//! the same key, and the chains of the two indexes must account for every
//! live record in the store — nothing dangling, nothing crossed, nothing
//! orphaned.

use proptest::prelude::*;
use wattdb_common::{Error, Key, KeyRange, PageId, Result, SegmentId, TxnId};
use wattdb_index::SegmentIndex;
use wattdb_storage::{PageStore, RecordHeader, TS_INFINITY};
use wattdb_txn::mvcc::{self, WriteOp};
use wattdb_txn::{is_provisional, owner, provisional, Snapshot};

/// The write path as it was before the index learned `upsert_with` and
/// `repoint`, and the store `restamp_*`.
mod model {
    use super::*;

    fn check_write_conflict(newest: &RecordHeader, snap: Snapshot) -> Result<()> {
        let foreign = |ts: u64| is_provisional(ts) && owner(ts) != snap.txn;
        if foreign(newest.begin) || foreign(newest.end) {
            return Err(Error::TxnAborted {
                txn: snap.txn,
                reason: wattdb_common::error::AbortReason::WriteConflict,
            });
        }
        Ok(())
    }

    pub fn insert(
        index: &mut SegmentIndex,
        store: &mut PageStore,
        key: Key,
        width: u32,
        snap: Snapshot,
    ) -> Result<WriteOp> {
        let (existing_rid, _) = index.get(key);
        let prev = match existing_rid {
            Some(rid) => {
                let newest = store.peek(rid)?;
                check_write_conflict(&newest, snap)?;
                if !newest.is_tombstone() {
                    return Err(Error::DuplicateKey(key));
                }
                Some(rid)
            }
            None => None,
        };
        let header = RecordHeader {
            prev,
            ..RecordHeader::new(key, provisional(snap.txn), width)
        };
        let segment = index.segment();
        let (new_rid, _) = store.insert_version(segment, &header, u32::MAX)?;
        if let Some(old_rid) = prev {
            store.stamp_end(old_rid, provisional(snap.txn))?;
        }
        index.insert(key, new_rid);
        Ok(WriteOp {
            segment,
            key,
            new_rid,
            old_rid: prev,
        })
    }

    pub fn write_version(
        index: &mut SegmentIndex,
        store: &mut PageStore,
        snap: Snapshot,
        mut header: RecordHeader,
    ) -> Result<WriteOp> {
        let key = header.key;
        let (rid, _) = index.get(key);
        let old_rid = rid.ok_or(Error::KeyNotFound(key))?;
        let newest = store.peek(old_rid)?;
        check_write_conflict(&newest, snap)?;
        if newest.is_tombstone() {
            return Err(Error::KeyNotFound(key));
        }
        let segment = index.segment();
        header.prev = Some(old_rid);
        let (new_rid, _) = store.insert_version(segment, &header, u32::MAX)?;
        store.stamp_end(old_rid, provisional(snap.txn))?;
        index.insert(key, new_rid);
        Ok(WriteOp {
            segment,
            key,
            new_rid,
            old_rid: Some(old_rid),
        })
    }

    pub fn commit_writes(store: &mut PageStore, writes: &[WriteOp], commit_ts: u64) -> Result<()> {
        for w in writes {
            if is_provisional(store.peek(w.new_rid)?.begin) {
                store.stamp_begin(w.new_rid, commit_ts)?;
            }
            if let Some(old_rid) = w.old_rid {
                if is_provisional(store.peek(old_rid)?.end) {
                    store.stamp_end(old_rid, commit_ts)?;
                }
            }
        }
        Ok(())
    }

    pub fn abort_writes(
        index: &mut SegmentIndex,
        store: &mut PageStore,
        writes: &[WriteOp],
    ) -> Result<()> {
        for w in writes.iter().rev() {
            store.delete_record(w.new_rid)?;
            match w.old_rid {
                Some(old_rid) => {
                    if is_provisional(store.peek(old_rid)?.end) {
                        store.stamp_end(old_rid, TS_INFINITY)?;
                    }
                    index.insert(w.key, old_rid);
                }
                None => {
                    index.remove(w.key);
                }
            }
        }
        Ok(())
    }
}

const SEG: SegmentId = SegmentId(1);
const TXNS: usize = 4;
const WIDTH: u32 = 700; // ~11 versions a page: runs span several pages

/// The logical width of a version written with tag `b`: tags tell versions
/// of one key apart in the chains compared.
fn width(b: u8) -> u32 {
    WIDTH + u32::from(b)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, u64, u8),
    Update(usize, u64, u8),
    Delete(usize, u64),
    Commit(usize),
    Abort(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let (slot, key) = (0..TXNS, 0u64..12);
    prop_oneof![
        4 => (slot.clone(), key.clone(), any::<u8>()).prop_map(|(t, k, b)| Op::Insert(t, k, b)),
        4 => (slot.clone(), key.clone(), any::<u8>()).prop_map(|(t, k, b)| Op::Update(t, k, b)),
        2 => (slot.clone(), key).prop_map(|(t, k)| Op::Delete(t, k)),
        2 => slot.clone().prop_map(Op::Commit),
        1 => slot.prop_map(Op::Abort),
    ]
}

fn fresh() -> (SegmentIndex, PageStore) {
    let mut store = PageStore::new();
    store.add_segment(SEG);
    (SegmentIndex::new(SEG, KeyRange::all()), store)
}

/// Every version reachable from the index, newest first per key.
fn chains(index: &SegmentIndex, store: &PageStore) -> Vec<(Key, Vec<wattdb_storage::Record>)> {
    let walk = |head| {
        let mut chain = Vec::new();
        let mut next = Some(head);
        while let Some(rid) = next {
            let rec = store.read_record(rid).expect("chained version is stored");
            next = rec.prev;
            chain.push(rec);
        }
        chain
    };
    let entries = index.entries().into_iter();
    entries.map(|(key, head)| (key, walk(head))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn one_descent_writes_match_the_two_descent_model(
        ops in proptest::collection::vec(op_strategy(), 1..250)
    ) {
        let (mut idx, mut st) = fresh();
        let (mut m_idx, mut m_st) = fresh();
        // Slot → (snapshot, writes so far, the model's writes so far).
        let mut clock = 1u64;
        let mut next_txn = 1u64;
        let mut begin = |clock: u64| {
            next_txn += 1;
            (Snapshot { ts: clock, txn: TxnId(next_txn) }, Vec::new(), Vec::new())
        };
        let mut live: Vec<(Snapshot, Vec<WriteOp>, Vec<WriteOp>)> =
            (0..TXNS).map(|_| begin(clock)).collect();

        for op in ops {
            match op {
                Op::Insert(t, k, b) | Op::Update(t, k, b) => {
                    let (snap, writes, m_writes) = &mut live[t];
                    let (key, width) = (Key(k), width(b));
                    let (got, want) = if matches!(op, Op::Insert(..)) {
                        (
                            mvcc::insert(&mut idx, &mut st, u32::MAX, key, width, *snap),
                            model::insert(&mut m_idx, &mut m_st, key, width, *snap),
                        )
                    } else {
                        let header = RecordHeader::new(key, provisional(snap.txn), width);
                        (
                            mvcc::update(&mut idx, &mut st, u32::MAX, key, width, *snap),
                            model::write_version(&mut m_idx, &mut m_st, *snap, header),
                        )
                    };
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{:?}", op);
                    writes.extend(got.ok());
                    m_writes.extend(want.ok());
                }
                Op::Delete(t, k) => {
                    let (snap, writes, m_writes) = &mut live[t];
                    let header = RecordHeader::tombstone(Key(k), provisional(snap.txn));
                    let got = mvcc::delete(&mut idx, &mut st, u32::MAX, Key(k), *snap);
                    let want = model::write_version(&mut m_idx, &mut m_st, *snap, header);
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{:?}", op);
                    writes.extend(got.ok());
                    m_writes.extend(want.ok());
                }
                Op::Commit(t) => {
                    clock += 1;
                    let (_, writes, m_writes) = std::mem::replace(&mut live[t], begin(clock));
                    mvcc::commit_writes(&mut st, &writes, clock).unwrap();
                    model::commit_writes(&mut m_st, &m_writes, clock).unwrap();
                }
                Op::Abort(t) => {
                    let (_, writes, m_writes) = std::mem::replace(&mut live[t], begin(clock));
                    mvcc::abort_writes(&mut idx, &mut st, &writes).unwrap();
                    model::abort_writes(&mut m_idx, &mut m_st, &m_writes).unwrap();
                }
            }
            prop_assert_eq!(idx.entries(), m_idx.entries());
            prop_assert_eq!(idx.height(), m_idx.height());
        }

        idx.check_invariants();
        prop_assert_eq!(chains(&idx, &st), chains(&m_idx, &m_st));
        prop_assert_eq!(st.page_count(SEG), m_st.page_count(SEG));
        prop_assert_eq!(st.logical_bytes(SEG).unwrap(), m_st.logical_bytes(SEG).unwrap());
    }

    #[test]
    fn chains_stay_in_their_segment(
        ops in proptest::collection::vec((0usize..2, op_strategy(), any::<bool>()), 1..250)
    ) {
        const SEGS: [SegmentId; 2] = [SegmentId(1), SegmentId(2)];
        let mut store = PageStore::new();
        let mut indexes = SEGS.map(|seg| {
            store.add_segment(seg);
            SegmentIndex::new(seg, KeyRange::all())
        });
        let mut clock = 1u64;
        let mut next_txn = 1u64;
        let mut begin = |clock: u64| {
            next_txn += 1;
            (Snapshot { ts: clock, txn: TxnId(next_txn) }, Vec::new())
        };
        let mut live: Vec<(Snapshot, Vec<WriteOp>)> = (0..TXNS).map(|_| begin(clock)).collect();

        for (s, op, vacuum) in ops {
            let idx = &mut indexes[s];
            match op {
                Op::Insert(t, k, b) => {
                    let (snap, writes) = &mut live[t];
                    writes.extend(mvcc::insert(idx, &mut store, u32::MAX, Key(k), width(b), *snap).ok());
                }
                Op::Update(t, k, b) => {
                    let (snap, writes) = &mut live[t];
                    writes.extend(mvcc::update(idx, &mut store, u32::MAX, Key(k), width(b), *snap).ok());
                }
                Op::Delete(t, k) => {
                    let (snap, writes) = &mut live[t];
                    writes.extend(mvcc::delete(idx, &mut store, u32::MAX, Key(k), *snap).ok());
                }
                Op::Commit(t) => {
                    clock += 1;
                    let (_, writes) = std::mem::replace(&mut live[t], begin(clock));
                    mvcc::commit_writes(&mut store, &writes, clock).unwrap();
                }
                Op::Abort(t) => {
                    let (_, writes) = std::mem::replace(&mut live[t], begin(clock));
                    // Newest first, each write against its own segment's index.
                    for w in writes.iter().rev() {
                        let idx = &mut indexes[w.segment.raw() as usize - 1];
                        mvcc::abort_writes(idx, &mut store, std::slice::from_ref(w)).unwrap();
                    }
                }
            }
            if vacuum {
                let horizon = live.iter().map(|(snap, _)| snap.ts).min().expect("live slots");
                mvcc::vacuum(&mut indexes[s], &mut store, horizon).unwrap();
            }

            let mut chained = 0;
            for idx in &indexes {
                for (key, head) in idx.entries() {
                    let mut next = Some(head);
                    while let Some(rid) = next {
                        prop_assert_eq!(rid.page.segment, idx.segment(), "{} of {}", rid, key);
                        let version = store.peek(rid);
                        prop_assert!(version.is_ok(), "{} of {} dangles", rid, key);
                        let version = version.unwrap();
                        prop_assert_eq!(version.key, key, "{} crossed chains", rid);
                        chained += 1;
                        next = version.prev;
                    }
                }
            }
            let stored: usize = SEGS
                .iter()
                .flat_map(|&seg| (0..store.page_count(seg)).map(move |p| PageId::new(seg, p as u32)))
                .map(|page| store.page(page).unwrap().live_records())
                .sum();
            prop_assert_eq!(chained, stored, "every stored version is on a chain");
        }
    }
}
