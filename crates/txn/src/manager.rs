//! Transaction manager: lifecycle, snapshots, and the two concurrency
//! control modes the paper compares (Fig. 3).
//!
//! * [`CcMode::Mvcc`] — snapshot reads over version chains; writers take X
//!   record locks (write-write serialization) but never block readers.
//! * [`CcMode::LockingRx`] — classical MGL-RX: readers take S record locks,
//!   writers X, updates rewrite the version header in place with
//!   before-images retained for undo. The before-image list is the
//!   "additional storage space to hold a list of pending changes" the paper
//!   attributes to the locking variant.
//!
//! The manager also mints *system transactions* (§3.5) used by the
//! migration engine to serialize record movement against user work.
//!
//! It keeps the MVCC GC horizon, the oldest live snapshot, and hands it to
//! every write: a write onto a version committed at or before the horizon
//! reclaims the versions below it (the rule is in [`crate::mvcc`]). Begins
//! queue in snapshot order and ends pop the queue's ended front, so the
//! horizon is read in O(1) and kept in amortized O(1) per transaction.

use std::collections::VecDeque;

use wattdb_common::{DenseMap, Error, IdMap, Key, Result, SegmentId, TxnId};
use wattdb_index::SegmentIndex;
use wattdb_storage::{PageStore, Record, RecordHeader, TS_INFINITY};

use crate::locks::{Grant, LockManager};
use crate::mvcc::{self, Snapshot, WriteOp};

/// The canonical container for a node's segment indexes, as consumed by
/// [`TxnManager::abort`]: undo must touch every segment a transaction
/// wrote, so the caller lends the whole map. Construct with `default()`.
/// Indexed by segment id; iterates in id order.
pub type IndexMap = DenseMap<SegmentId, SegmentIndex>;

const UNKNOWN_TXN: Error = Error::InvalidState("unknown or finished transaction");

/// Concurrency-control mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// Multiversion concurrency control.
    Mvcc,
    /// Multi-granularity locking with R/X record locks, in-place updates.
    LockingRx,
}

/// Why this transaction exists (user work vs. internal movement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// Client transaction.
    User,
    /// System transaction protecting record/segment movement.
    System,
}

/// A before-image retained by the locking mode for undo.
#[derive(Debug, Clone)]
struct BeforeImage {
    segment: SegmentId,
    key: Key,
    rid: wattdb_common::RecordId,
    /// `None` for inserts (undo = delete).
    prior: Option<Record>,
}

/// Live transaction state.
#[derive(Debug)]
pub struct TxnState {
    /// Transaction id.
    pub id: TxnId,
    /// Snapshot (MVCC mode).
    pub snapshot: Snapshot,
    /// Kind (user/system).
    pub kind: TxnKind,
    writes: Vec<WriteOp>,
    before_images: Vec<BeforeImage>,
}

impl TxnState {
    /// Append to the write set, which borrows a recycled list from `spare`
    /// with its first entry — a transaction that has written nothing holds
    /// none.
    fn log_write(&mut self, spare: &mut Vec<Vec<WriteOp>>, w: WriteOp) {
        if self.writes.capacity() == 0 {
            self.writes = spare.pop().unwrap_or_default();
        }
        self.writes.push(w);
    }
}

/// The transaction manager.
#[derive(Debug)]
pub struct TxnManager {
    mode: CcMode,
    next_txn: u64,
    /// Logical commit clock; begins hand out the current value, commits
    /// increment it.
    clock: u64,
    active: IdMap<TxnId, TxnState>,
    /// `(snapshot ts, txn)` of begun transactions in begin order, hence
    /// in `ts` order; the front one is live, and holds the GC horizon.
    /// Ended transactions leave from the front, or all at once when they
    /// outnumber the live ones.
    begun: VecDeque<(u64, TxnId)>,
    /// Emptied write sets of committed transactions, handed to the next
    /// transaction that writes so a steady state allocates none.
    spare_writes: Vec<Vec<WriteOp>>,
    /// Grant lists handed back through [`TxnManager::recycle_grants`],
    /// for the next commit or abort to fill. A stack, not one buffer: the
    /// caller resuming one list's grants may commit again before it hands
    /// that list back.
    spare_grants: Vec<Vec<Grant>>,
    /// The lock manager (shared by both modes).
    pub locks: LockManager,
    commits: u64,
    aborts: u64,
}

impl TxnManager {
    /// Manager in the given CC mode.
    pub fn new(mode: CcMode) -> Self {
        Self {
            mode,
            next_txn: 1,
            clock: 1,
            active: IdMap::default(),
            begun: VecDeque::new(),
            spare_writes: Vec::new(),
            spare_grants: Vec::new(),
            locks: LockManager::new(),
            commits: 0,
            aborts: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> CcMode {
        self.mode
    }

    /// Commits so far.
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Begin a transaction.
    pub fn begin(&mut self, kind: TxnKind) -> TxnId {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let snapshot = Snapshot {
            ts: self.clock,
            txn: id,
        };
        self.begun.push_back((snapshot.ts, id));
        self.active.insert(
            id,
            TxnState {
                id,
                snapshot,
                kind,
                writes: Vec::new(),
                before_images: Vec::new(),
            },
        );
        id
    }

    /// Access a live transaction.
    pub fn state(&self, txn: TxnId) -> Result<&TxnState> {
        self.active.get(&txn).ok_or(UNKNOWN_TXN)
    }

    /// The snapshot of a live transaction.
    pub fn snapshot(&self, txn: TxnId) -> Result<Snapshot> {
        Ok(self.state(txn)?.snapshot)
    }

    /// Oldest snapshot timestamp among live transactions (the GC
    /// horizon); the current clock when idle. O(1).
    pub fn gc_horizon(&self) -> u64 {
        self.begun.front().map_or(self.clock, |&(ts, _)| ts)
    }

    /// Drop ended transactions from `begun`: off its front, so that the
    /// front is live again, and everywhere once they outnumber the live
    /// ones, so that a long-lived snapshot does not hold every later
    /// begin. Each entry leaves once: amortized O(1).
    fn retire_ended(&mut self) {
        let active = &self.active;
        let live = |(_, t): &(u64, TxnId)| active.contains_key(t);
        while self.begun.front().is_some_and(|b| !live(b)) {
            self.begun.pop_front();
        }
        if self.begun.len() > 2 * active.len() + 64 {
            self.begun.retain(live);
        }
    }

    /// Read `key`. MVCC: snapshot read, no lock needed (caller acquires S
    /// only in LockingRx mode). Locking: reads the in-place current record.
    pub fn read(
        &self,
        txn: TxnId,
        index: &SegmentIndex,
        store: &PageStore,
        key: Key,
    ) -> Result<Option<Record>> {
        let st = self.state(txn)?;
        match self.mode {
            CcMode::Mvcc => Ok(mvcc::read(index, store, key, st.snapshot)?.0),
            CcMode::LockingRx => {
                let (rid, _) = index.get(key);
                match rid {
                    None => Ok(None),
                    Some(rid) => {
                        let r = store.read_record(rid)?;
                        Ok(if r.is_tombstone() { None } else { Some(r) })
                    }
                }
            }
        }
    }

    /// Does `txn` see a live version of `key`? [`TxnManager::read`] without
    /// the copy: only version headers are looked at.
    pub fn sees(
        &self,
        txn: TxnId,
        index: &SegmentIndex,
        store: &PageStore,
        key: Key,
    ) -> Result<bool> {
        let st = self.state(txn)?;
        match self.mode {
            CcMode::Mvcc => Ok(mvcc::find(index, store, key, st.snapshot)?.0.is_some()),
            CcMode::LockingRx => match index.get(key).0 {
                None => Ok(false),
                Some(rid) => Ok(!store.peek(rid)?.is_tombstone()),
            },
        }
    }

    /// Insert `key`: a header-only version of `logical_width`.
    pub fn insert(
        &mut self,
        txn: TxnId,
        index: &mut SegmentIndex,
        store: &mut PageStore,
        max_pages: u32,
        key: Key,
        logical_width: u32,
    ) -> Result<()> {
        // One probe of `active`: the state gives the snapshot before the
        // write and takes the undo entry after it.
        let horizon = self.gc_horizon();
        let st = self.active.get_mut(&txn).ok_or(UNKNOWN_TXN)?;
        match self.mode {
            CcMode::Mvcc => {
                let snap = st.snapshot;
                let w = mvcc::insert(index, store, max_pages, key, logical_width, snap, horizon)?;
                st.log_write(&mut self.spare_writes, w);
            }
            CcMode::LockingRx => {
                if index.get(key).0.is_some() {
                    return Err(Error::DuplicateKey(key));
                }
                let header = RecordHeader::new(key, self.clock, logical_width);
                let (rid, _) = store.insert_version(index.segment(), &header, max_pages)?;
                index.insert(key, rid);
                st.before_images.push(BeforeImage {
                    segment: index.segment(),
                    key,
                    rid,
                    prior: None,
                });
            }
        }
        Ok(())
    }

    /// Update `key` to `logical_width`: a new version (MVCC), or the
    /// header rewritten in place (locking).
    pub fn update(
        &mut self,
        txn: TxnId,
        index: &mut SegmentIndex,
        store: &mut PageStore,
        max_pages: u32,
        key: Key,
        logical_width: u32,
    ) -> Result<()> {
        let horizon = self.gc_horizon();
        let st = self.active.get_mut(&txn).ok_or(UNKNOWN_TXN)?;
        match self.mode {
            CcMode::Mvcc => {
                let snap = st.snapshot;
                let w = mvcc::update(index, store, max_pages, key, logical_width, snap, horizon)?;
                st.log_write(&mut self.spare_writes, w);
            }
            CcMode::LockingRx => {
                let (rid, _) = index.get(key);
                let rid = rid.ok_or(Error::KeyNotFound(key))?;
                let prior = store.read_record(rid)?;
                if prior.is_tombstone() {
                    return Err(Error::KeyNotFound(key));
                }
                let header = RecordHeader {
                    logical_width,
                    ..prior.header()
                };
                store.write_header(rid, &header)?;
                st.before_images.push(BeforeImage {
                    segment: index.segment(),
                    key,
                    rid,
                    prior: Some(prior),
                });
            }
        }
        Ok(())
    }

    /// Delete `key`.
    pub fn delete(
        &mut self,
        txn: TxnId,
        index: &mut SegmentIndex,
        store: &mut PageStore,
        max_pages: u32,
        key: Key,
    ) -> Result<()> {
        let horizon = self.gc_horizon();
        let st = self.active.get_mut(&txn).ok_or(UNKNOWN_TXN)?;
        match self.mode {
            CcMode::Mvcc => {
                let w = mvcc::delete(index, store, max_pages, key, st.snapshot, horizon)?;
                st.log_write(&mut self.spare_writes, w);
            }
            CcMode::LockingRx => {
                let (rid, _) = index.get(key);
                let rid = rid.ok_or(Error::KeyNotFound(key))?;
                let prior = store.read_record(rid)?;
                store.delete_record(rid)?;
                index.remove(key);
                st.before_images.push(BeforeImage {
                    segment: index.segment(),
                    key,
                    rid,
                    prior: Some(prior),
                });
            }
        }
        Ok(())
    }

    /// Commit: stamps MVCC versions (or drops before-images), bumps the
    /// clock, releases locks. Returns `(commit_ts, lock grants to resume)`;
    /// the grant list is a recycled one, to be handed back through
    /// [`TxnManager::recycle_grants`] once its grants are resumed.
    pub fn commit(&mut self, txn: TxnId, store: &mut PageStore) -> Result<(u64, Vec<Grant>)> {
        let mut st = self
            .active
            .remove(&txn)
            .ok_or(Error::InvalidState("commit of unknown transaction"))?;
        self.retire_ended();
        self.clock += 1;
        let commit_ts = self.clock;
        if self.mode == CcMode::Mvcc {
            mvcc::commit_writes(store, &st.writes, commit_ts)?;
        }
        if st.writes.capacity() > 0 {
            st.writes.clear();
            self.spare_writes.push(st.writes);
        }
        self.commits += 1;
        Ok((commit_ts, self.release(txn)))
    }

    /// Abort: undoes writes and releases locks. Returns lock grants, in a
    /// recycled list like [`TxnManager::commit`]'s.
    pub fn abort(
        &mut self,
        txn: TxnId,
        indexes: &mut IndexMap,
        store: &mut PageStore,
    ) -> Result<Vec<Grant>> {
        let st = self
            .active
            .remove(&txn)
            .ok_or(Error::InvalidState("abort of unknown transaction"))?;
        self.retire_ended();
        match self.mode {
            CcMode::Mvcc => {
                // Newest first, so repeated writes to one key restore
                // correctly; resolving a segment's index is an array index.
                for w in st.writes.iter().rev() {
                    let idx = indexes
                        .get_mut(&w.segment)
                        .ok_or(Error::UnknownSegment(w.segment))?;
                    mvcc::abort_writes(idx, store, std::slice::from_ref(w))?;
                }
            }
            CcMode::LockingRx => {
                for b in st.before_images.into_iter().rev() {
                    let idx = indexes
                        .get_mut(&b.segment)
                        .ok_or(Error::UnknownSegment(b.segment))?;
                    match b.prior {
                        Some(prior) => {
                            if store.read_record(b.rid).is_ok() {
                                store.write_header(b.rid, &prior.header())?;
                            } else {
                                // Undo of a delete: re-insert the image.
                                let (rid, _) = store.insert_record(b.segment, &prior, u32::MAX)?;
                                idx.insert(b.key, rid);
                            }
                        }
                        None => {
                            store.delete_record(b.rid)?;
                            idx.remove(b.key);
                        }
                    }
                }
            }
        }
        self.aborts += 1;
        Ok(self.release(txn))
    }

    /// Release `txn`'s locks into a spare grant list.
    fn release(&mut self, txn: TxnId) -> Vec<Grant> {
        let mut granted = self.spare_grants.pop().unwrap_or_default();
        self.locks.release_all_into(txn, &mut granted);
        granted
    }

    /// Take back a grant list [`TxnManager::commit`] or
    /// [`TxnManager::abort`] returned, once its grants are resumed.
    pub fn recycle_grants(&mut self, mut granted: Vec<Grant>) {
        if granted.capacity() > 0 {
            granted.clear();
            self.spare_grants.push(granted);
        }
    }

    /// Row images held for undo across live user transactions — one per
    /// updated or deleted row; an insert's undo entry holds none. The
    /// locking mode's storage overhead (Fig. 3), in the unit MVCC's is
    /// counted in: stored images of a row beside the live one. A system
    /// transaction's do not count: the rows it deletes it has re-created
    /// at their new home, which is where they are reached.
    pub fn pending_changes(&self) -> usize {
        let user = self.active.values().filter(|t| t.kind == TxnKind::User);
        let undo = user.flat_map(|t| &t.before_images);
        undo.filter(|b| b.prior.is_some()).count()
    }
}

/// End timestamp sentinel re-export for convenience.
pub const INFINITY: u64 = TS_INFINITY;

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::KeyRange;

    /// Versions are told apart by their logical width: version `tag` of
    /// a key is `64 + tag` wide.
    fn tagged(tag: u32) -> u32 {
        64 + tag
    }

    fn setup() -> (SegmentIndex, PageStore) {
        let seg = SegmentId(1);
        let mut store = PageStore::new();
        store.add_segment(seg);
        (SegmentIndex::new(seg, KeyRange::all()), store)
    }

    #[test]
    fn mvcc_commit_visibility_lifecycle() {
        let (mut idx, mut st) = setup();
        let mut tm = TxnManager::new(CcMode::Mvcc);
        let t1 = tm.begin(TxnKind::User);
        tm.insert(t1, &mut idx, &mut st, 64, Key(1), tagged(1))
            .unwrap();
        // Another txn doesn't see it yet.
        let t2 = tm.begin(TxnKind::User);
        assert!(tm.read(t2, &idx, &st, Key(1)).unwrap().is_none());
        tm.commit(t1, &mut st).unwrap();
        // t2's snapshot predates the commit.
        assert!(tm.read(t2, &idx, &st, Key(1)).unwrap().is_none());
        let t3 = tm.begin(TxnKind::User);
        assert!(tm.read(t3, &idx, &st, Key(1)).unwrap().is_some());
        assert_eq!(tm.commit_count(), 1);
    }

    #[test]
    fn mvcc_abort_via_manager() {
        let (mut idx, mut st) = setup();
        let mut tm = TxnManager::new(CcMode::Mvcc);
        let t1 = tm.begin(TxnKind::User);
        tm.insert(t1, &mut idx, &mut st, 64, Key(1), tagged(1))
            .unwrap();
        let mut map = IndexMap::default();
        map.insert(idx.segment(), idx);
        tm.abort(t1, &mut map, &mut st).unwrap();
        let idx = map.remove(&SegmentId(1)).unwrap();
        let t2 = tm.begin(TxnKind::User);
        assert!(tm.read(t2, &idx, &st, Key(1)).unwrap().is_none());
        assert_eq!(tm.aborts, 1);
    }

    #[test]
    fn locking_mode_updates_in_place_with_undo() {
        let (mut idx, mut st) = setup();
        let mut tm = TxnManager::new(CcMode::LockingRx);
        let t1 = tm.begin(TxnKind::User);
        tm.insert(t1, &mut idx, &mut st, 64, Key(1), tagged(1))
            .unwrap();
        tm.commit(t1, &mut st).unwrap();
        let t2 = tm.begin(TxnKind::User);
        tm.update(t2, &mut idx, &mut st, 64, Key(1), tagged(2))
            .unwrap();
        // In-place: even an unrelated reader sees the new value (that's why
        // locking mode needs the S/X protocol).
        let t3 = tm.begin(TxnKind::User);
        assert_eq!(
            tm.read(t3, &idx, &st, Key(1))
                .unwrap()
                .unwrap()
                .logical_width,
            tagged(2)
        );
        assert_eq!(tm.pending_changes(), 1, "before-image retained");
        // Abort restores the old image.
        let mut map = IndexMap::default();
        map.insert(idx.segment(), idx);
        tm.abort(t2, &mut map, &mut st).unwrap();
        let idx = map.remove(&SegmentId(1)).unwrap();
        assert_eq!(
            tm.read(t3, &idx, &st, Key(1))
                .unwrap()
                .unwrap()
                .logical_width,
            tagged(1)
        );
    }

    #[test]
    fn locking_mode_delete_undo() {
        let (mut idx, mut st) = setup();
        let mut tm = TxnManager::new(CcMode::LockingRx);
        let t1 = tm.begin(TxnKind::User);
        tm.insert(t1, &mut idx, &mut st, 64, Key(1), tagged(1))
            .unwrap();
        tm.commit(t1, &mut st).unwrap();
        let t2 = tm.begin(TxnKind::User);
        tm.delete(t2, &mut idx, &mut st, 64, Key(1)).unwrap();
        assert!(tm.read(t2, &idx, &st, Key(1)).unwrap().is_none());
        let mut map = IndexMap::default();
        map.insert(idx.segment(), idx);
        tm.abort(t2, &mut map, &mut st).unwrap();
        let idx = map.remove(&SegmentId(1)).unwrap();
        let t3 = tm.begin(TxnKind::User);
        assert_eq!(
            tm.read(t3, &idx, &st, Key(1))
                .unwrap()
                .unwrap()
                .logical_width,
            tagged(1)
        );
    }

    #[test]
    fn gc_horizon_tracks_oldest_snapshot() {
        let (mut idx, mut st) = setup();
        let mut tm = TxnManager::new(CcMode::Mvcc);
        let t1 = tm.begin(TxnKind::User);
        let h1 = tm.gc_horizon();
        tm.insert(t1, &mut idx, &mut st, 64, Key(1), tagged(1))
            .unwrap();
        tm.commit(t1, &mut st).unwrap();
        // Idle: horizon advances with the clock.
        assert!(tm.gc_horizon() > h1);
        let _t2 = tm.begin(TxnKind::User);
        let held = tm.gc_horizon();
        let t3 = tm.begin(TxnKind::User);
        tm.insert(t3, &mut idx, &mut st, 64, Key(2), tagged(2))
            .unwrap();
        tm.commit(t3, &mut st).unwrap();
        // Horizon pinned by t2's snapshot.
        assert_eq!(tm.gc_horizon(), held);
    }

    #[test]
    fn the_horizon_queue_stays_small_behind_a_long_reader() {
        let (_, mut st) = setup();
        let mut tm = TxnManager::new(CcMode::Mvcc);
        let reader = tm.begin(TxnKind::User);
        let held = tm.gc_horizon();
        for _ in 0..1_000 {
            let (a, b) = (tm.begin(TxnKind::User), tm.begin(TxnKind::User));
            tm.commit(b, &mut st).unwrap();
            tm.commit(a, &mut st).unwrap();
            assert_eq!(tm.gc_horizon(), held, "pinned by the reader");
        }
        assert!(tm.begun.len() <= 2 * tm.active.len() + 65, "compacted");
        let late = tm.begin(TxnKind::User);
        tm.commit(reader, &mut st).unwrap();
        assert_eq!(tm.gc_horizon(), tm.snapshot(late).unwrap().ts);
        tm.commit(late, &mut st).unwrap();
        assert_eq!((tm.gc_horizon(), tm.begun.len()), (tm.clock, 0), "idle");
    }

    #[test]
    fn grant_lists_come_back_for_the_next_release() {
        use crate::locks::{LockMode, LockTarget};
        use wattdb_common::TableId;
        let (_, mut st) = setup();
        let mut tm = TxnManager::new(CcMode::Mvcc);
        let (a, b) = (tm.begin(TxnKind::User), tm.begin(TxnKind::User));
        let target = LockTarget::Record(TableId(1), Key(1));
        tm.locks.acquire(a, target, LockMode::X);
        tm.locks.acquire(b, target, LockMode::X);
        let (_, granted) = tm.commit(a, &mut st).unwrap();
        assert_eq!(granted, vec![(b, target, LockMode::X)]);
        let room = granted.capacity();
        tm.recycle_grants(granted);
        let (_, granted) = tm.commit(b, &mut st).unwrap();
        assert!(granted.is_empty(), "cleared when handed back");
        assert_eq!(granted.capacity(), room, "the same list, not a new one");
    }

    #[test]
    fn system_transactions_tracked() {
        let mut tm = TxnManager::new(CcMode::Mvcc);
        let t = tm.begin(TxnKind::System);
        assert_eq!(tm.state(t).unwrap().kind, TxnKind::System);
        assert_eq!(tm.active.len(), 1);
    }
}
