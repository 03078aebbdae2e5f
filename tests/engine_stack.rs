//! Integration: the storage/index/txn stack working together without the
//! cluster layer — the embedded-engine view of WattDB.

use wattdb_common::{Key, KeyRange, SegmentId, TxnId};
use wattdb_index::SegmentIndex;
use wattdb_storage::PageStore;
use wattdb_txn::{CcMode, IndexMap, LockAcquire, LockMode, LockTarget, TxnKind, TxnManager};

fn setup() -> (SegmentId, IndexMap, PageStore) {
    let seg = SegmentId(1);
    let mut store = PageStore::new();
    store.add_segment(seg);
    let mut indexes = IndexMap::default();
    indexes.insert(seg, SegmentIndex::new(seg, KeyRange::all()));
    (seg, indexes, store)
}

#[test]
fn mgl_blocks_writer_during_segment_read_lock() {
    // The §4.3 move protocol's locking story at engine level: the mover's
    // S lock on the segment lets readers through and parks writers.
    let mut tm = TxnManager::new(CcMode::Mvcc);
    let seg = SegmentId(7);
    let mover = tm.begin(TxnKind::System);
    assert_eq!(
        tm.locks
            .acquire(mover, LockTarget::Segment(seg), LockMode::S),
        LockAcquire::Granted
    );
    // Reader intent: compatible.
    let reader = tm.begin(TxnKind::User);
    assert_eq!(
        tm.locks
            .acquire(reader, LockTarget::Segment(seg), LockMode::IS),
        LockAcquire::Granted
    );
    // Writer intent: must wait.
    let writer = tm.begin(TxnKind::User);
    assert_eq!(
        tm.locks
            .acquire(writer, LockTarget::Segment(seg), LockMode::IX),
        LockAcquire::Waiting
    );
    // Mover done: the writer is granted.
    let grants = tm.locks.release_all(mover);
    assert!(grants.iter().any(|(t, _, _)| *t == writer));
}

#[test]
fn snapshot_readers_survive_concurrent_version_churn() {
    let (seg, mut indexes, mut store) = setup();
    let mut tm = TxnManager::new(CcMode::Mvcc);
    // Base version.
    let t0 = tm.begin(TxnKind::User);
    {
        let idx = indexes.get_mut(&seg).unwrap();
        tm.insert(t0, idx, &mut store, u32::MAX, Key(1), 64)
            .unwrap();
    }
    tm.commit(t0, &mut store).unwrap();
    // Long reader pins its snapshot.
    let reader = tm.begin(TxnKind::User);
    // 20 writers churn versions on top; version `v` is `64 + v` wide.
    for v in 1..=20 {
        let t = tm.begin(TxnKind::User);
        let idx = indexes.get_mut(&seg).unwrap();
        tm.update(t, idx, &mut store, u32::MAX, Key(1), 64 + v)
            .unwrap();
        tm.commit(t, &mut store).unwrap();
    }
    // The reader still sees version 0.
    let idx = &indexes[&seg];
    let seen = tm.read(reader, idx, &store, Key(1)).unwrap().unwrap();
    assert_eq!(seen.logical_width, 64);
    // A fresh reader sees version 20.
    let fresh = tm.begin(TxnKind::User);
    let seen = tm.read(fresh, idx, &store, Key(1)).unwrap().unwrap();
    assert_eq!(seen.logical_width, 84);
    // Vacuum respects the old reader: only versions newer than its
    // snapshot may go.
    let horizon = tm.gc_horizon();
    let idx = indexes.get_mut(&seg).unwrap();
    wattdb_txn::mvcc::vacuum(idx, &mut store, horizon).unwrap();
    let idx = &indexes[&seg];
    let seen = tm.read(reader, idx, &store, Key(1)).unwrap().unwrap();
    assert_eq!(seen.logical_width, 64, "old snapshot intact after vacuum");
}

#[test]
fn locking_mode_reader_writer_interaction() {
    let (seg, mut indexes, mut store) = setup();
    let mut tm = TxnManager::new(CcMode::LockingRx);
    let t0 = tm.begin(TxnKind::User);
    {
        let idx = indexes.get_mut(&seg).unwrap();
        tm.insert(t0, idx, &mut store, u32::MAX, Key(1), 64)
            .unwrap();
    }
    tm.commit(t0, &mut store).unwrap();
    // Reader takes S; writer's X must wait (the MGL-RX cost Fig. 3 shows).
    let reader = tm.begin(TxnKind::User);
    let tgt = LockTarget::Record(wattdb_common::TableId(1), Key(1));
    assert_eq!(
        tm.locks.acquire(reader, tgt, LockMode::S),
        LockAcquire::Granted
    );
    let writer = tm.begin(TxnKind::User);
    assert_eq!(
        tm.locks.acquire(writer, tgt, LockMode::X),
        LockAcquire::Waiting
    );
    let grants = tm.locks.release_all(reader);
    assert_eq!(grants.len(), 1);
}

#[test]
fn version_stats_reflect_update_volume() {
    let (seg, mut indexes, mut store) = setup();
    let mut tm = TxnManager::new(CcMode::Mvcc);
    for i in 0..50u64 {
        let t = tm.begin(TxnKind::User);
        let idx = indexes.get_mut(&seg).unwrap();
        tm.insert(t, idx, &mut store, u32::MAX, Key(i), 64).unwrap();
        tm.commit(t, &mut store).unwrap();
    }
    let idx = &indexes[&seg];
    let (v1, l1) = wattdb_txn::mvcc::version_stats(idx, &store).unwrap();
    assert_eq!((v1, l1), (50, 50));
    // A reader open across the updates keeps every version it can see,
    // and every version above those.
    let reader = tm.begin(TxnKind::User);
    // Update half the keys twice.
    for i in 0..25u64 {
        for v in 1..=2 {
            let t = tm.begin(TxnKind::User);
            let idx = indexes.get_mut(&seg).unwrap();
            tm.update(t, idx, &mut store, u32::MAX, Key(i), 64 + v)
                .unwrap();
            tm.commit(t, &mut store).unwrap();
        }
    }
    let idx = &indexes[&seg];
    let (v2, l2) = wattdb_txn::mvcc::version_stats(idx, &store).unwrap();
    assert_eq!(l2, 50);
    assert_eq!(v2, 100, "50 base + 50 extra versions");
    // The reader ends: the next write over key 0 cuts both versions below
    // the head it supersedes.
    tm.commit(reader, &mut store).unwrap();
    let t = tm.begin(TxnKind::User);
    let idx = indexes.get_mut(&seg).unwrap();
    tm.update(t, idx, &mut store, u32::MAX, Key(0), 67).unwrap();
    tm.commit(t, &mut store).unwrap();
    let idx = &indexes[&seg];
    let head = idx.get(Key(0)).0.unwrap();
    assert_eq!(wattdb_txn::mvcc::chain_len(&store, head).unwrap(), 2);
    let (v3, _) = wattdb_txn::mvcc::version_stats(idx, &store).unwrap();
    assert_eq!(v3, 99, "two versions cut, one written");
}

#[test]
fn system_txn_id_spaces_shared_with_users() {
    let mut tm = TxnManager::new(CcMode::Mvcc);
    let a = tm.begin(TxnKind::User);
    let b = tm.begin(TxnKind::System);
    let c = tm.begin(TxnKind::User);
    assert!(a < b && b < c);
    assert_ne!(TxnId::NONE, a);
}
