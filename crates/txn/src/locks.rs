//! Multi-granularity locking (MGL) with deadlock detection.
//!
//! The baseline concurrency control the paper benchmarks MVCC against
//! (Fig. 3) is "classical Multi-Granularity Locking with RX lock modes
//! (MGL-RX)". This manager implements the full MGL lattice — IS, IX, S,
//! SIX, X — over the hierarchy Table → Partition → Segment → Record; the
//! RX protocol is the subset using S/X on records with intention modes
//! above.
//!
//! The manager is written for the event-driven engine: conflicting
//! requests queue, and `release_all` reports which queued requests become
//! granted so the caller can resume them. Deadlocks are detected by
//! wait-for-graph cycle search at request time; the requester is chosen
//! as the victim.
//!
//! # Cost
//!
//! The host cost of a request is bounded by what the request itself
//! touches, not by how many transactions are in flight:
//!
//! * **Compatibility is O(1).** Every target keeps a census of its
//!   holders per mode, so "may this request be granted" is five counter
//!   tests (the requester's own mode subtracted), never a walk over the
//!   holders — a `Table` or `Segment` carries hundreds of `IX` holders.
//!   A target's first holder is stored inline; the hash table is needed
//!   only for a second one, so a record `X` lock allocates nothing — and
//!   a target that goes idle hands its emptied table to the lock table's
//!   spare list, where the next second holder anywhere finds it, so in a
//!   steady state a second holder allocates nothing either.
//! * **A wait costs O(wait-states reached + their queues + conflicting
//!   holders).** The manager indexes what every queued transaction waits
//!   for, so the cycle search follows edges instead of scanning the lock
//!   table. All waiters of one `(target, mode)` wait-state have the same
//!   blockers, so each state is expanded once, and its holders are walked
//!   only when the census says one of them conflicts. The search buffers
//!   live in the manager: a wait allocates nothing.
//! * **Release is O(own targets).** A queue is only filtered when the
//!   index says the transaction is in it, and the per-transaction
//!   bookkeeping vectors are recycled.
//!
//! # Which levels hash
//!
//! Three of the four levels are keyed by an id the engine mints from a
//! counter — `Table`, `Partition`, `Segment` — and every write takes an
//! intent lock on each, so those levels are [`DenseMap`]s: the three
//! intent locks of a write are three array indexes. Only `Record` targets
//! are sparse (a table id and a primary key), and only they hash: once to
//! acquire, once to release (the entry found is the entry pruned). The
//! per-transaction lists live in a slab behind a `TxnId → slot` table that
//! remembers who asked last, so the requests one transaction makes in a
//! row — an operation's four locks, the operations of one executor step —
//! hash its id once.
//!
//! # Wait-for edges
//!
//! A request for `(target, mode)` waits for every holder of `target` in
//! an incompatible mode and for every incompatible request in `target`'s
//! queue — the **whole** queue, also the part behind it. That is
//! conservative: a request further back cannot actually delay one ahead
//! of it under FIFO grants, so a cycle through such an edge is reported
//! (and a victim aborted) although it would have resolved itself. The
//! rule is kept because grant order, the `waits`/`deadlocks` counters and
//! with them every modeled result depend on the verdict; narrowing it to
//! the requests ahead is a behaviour change of its own.
//!
//! # What a holder table's iteration order reaches
//!
//! The order the cycle search *visits* transactions in, and nothing else.
//! `would_deadlock` answers whether the requester is
//! reachable from its blockers along the waits-for index; `seen` and
//! `expanded` only skip what was already reached, so they prune nothing
//! reachable, and a reachability verdict does not depend on the order the
//! stack was filled in. Grants come from the FIFO queues, never from a
//! holder table. That is why a recycled table — whose capacity, and with
//! it its iteration order, differs from a fresh one's — changes no
//! verdict, grant or counter.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use wattdb_common::{
    DenseKey, DenseMap, IdMap, IdSet, Key, PartitionId, SegmentId, TableId, TxnId,
};

/// A lockable resource in the granularity hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockTarget {
    /// Whole table.
    Table(TableId),
    /// One partition.
    Partition(PartitionId),
    /// One segment (physiological mini-partition).
    Segment(SegmentId),
    /// One record by primary key (per-table key spaces are disjoint by
    /// construction: keys embed the table).
    Record(TableId, Key),
}

/// MGL lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockMode {
    /// Intention shared.
    IS,
    /// Intention exclusive.
    IX,
    /// Shared ("R" in the paper's MGL-RX).
    S,
    /// Shared + intention exclusive.
    SIX,
    /// Exclusive ("X").
    X,
}

impl LockMode {
    /// Every mode, in census order (`mode as usize` indexes it).
    const ALL: [LockMode; 5] = [
        LockMode::IS,
        LockMode::IX,
        LockMode::S,
        LockMode::SIX,
        LockMode::X,
    ];

    /// Standard MGL compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IS, IS)
                | (IS, IX)
                | (IS, S)
                | (IS, SIX)
                | (IX, IS)
                | (IX, IX)
                | (S, IS)
                | (S, S)
                | (SIX, IS)
        )
    }

    /// The least mode covering both (lock conversion lattice).
    pub fn combine(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (X, _) | (_, X) => X,
            (SIX, _) | (_, SIX) => SIX,
            (S, IX) | (IX, S) => SIX,
            (S, IS) | (IS, S) => S,
            (IX, IS) | (IS, IX) => IX,
            _ => unreachable!("combine covers the 5x5 lattice"),
        }
    }

    /// True if `self` already covers `other` (no conversion needed).
    pub fn covers(self, other: LockMode) -> bool {
        self.combine(other) == self
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockAcquire {
    /// Granted (or already held in a covering mode).
    Granted,
    /// Queued behind conflicting holders; a later release grants it.
    Waiting,
    /// Granting would deadlock; the requester must abort.
    Deadlock,
}

#[derive(Debug, Default)]
struct LockState {
    /// The first holder, inline: a target with one holder (every record
    /// `X` lock) never builds the hash table.
    first: Option<(TxnId, LockMode)>,
    /// Every further holder and its (combined) mode.
    rest: Holders,
    /// Mode census: holders per mode, indexed by `mode as usize`.
    counts: [u32; 5],
    /// FIFO wait queue (conversions re-queue at the front).
    queue: VecDeque<(TxnId, LockMode)>,
}

impl LockState {
    fn held(&self, txn: TxnId) -> Option<LockMode> {
        match self.first {
            Some((t, m)) if t == txn => Some(m),
            _ => self.rest.get(&txn).copied(),
        }
    }

    fn holders(&self) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        self.first
            .into_iter()
            .chain(self.rest.iter().map(|(t, m)| (*t, *m)))
    }

    /// Does a holder other than the requester (who holds `own`) hold a
    /// mode incompatible with `mode`? Five counter tests.
    fn conflicts(&self, mode: LockMode, own: Option<LockMode>) -> bool {
        LockMode::ALL
            .iter()
            .any(|&m| !m.compatible(mode) && self.counts[m as usize] > u32::from(own == Some(m)))
    }

    /// Make `txn`, which holds `held`, a holder in `mode`. A second
    /// holder's table comes from `spare` if there is one.
    fn grant(
        &mut self,
        txn: TxnId,
        held: Option<LockMode>,
        mode: LockMode,
        spare: &mut Vec<Holders>,
    ) {
        if let Some(h) = held {
            self.counts[h as usize] -= 1;
        }
        self.counts[mode as usize] += 1;
        match &mut self.first {
            Some((t, m)) if *t == txn => *m = mode,
            None if held.is_none() => self.first = Some((txn, mode)),
            _ => {
                if self.rest.capacity() == 0 {
                    self.rest = spare.pop().unwrap_or_default();
                }
                self.rest.insert(txn, mode);
            }
        }
    }

    fn release(&mut self, txn: TxnId) {
        let held = match self.first {
            Some((t, m)) if t == txn => {
                self.first = None;
                Some(m)
            }
            _ => self.rest.remove(&txn),
        };
        if let Some(m) = held {
            self.counts[m as usize] -= 1;
        }
    }

    fn is_idle(&self) -> bool {
        self.first.is_none() && self.rest.is_empty() && self.queue.is_empty()
    }

    /// True if the state is idle and may be dropped; its holder table, if
    /// it built one, has then gone to `spare`.
    fn retire(&mut self, spare: &mut Vec<Holders>) -> bool {
        let idle = self.is_idle();
        if idle && self.rest.capacity() > 0 {
            spare.push(std::mem::take(&mut self.rest));
        }
        idle
    }

    /// Push everyone a request for `mode` waits for: the incompatible
    /// holders and the incompatible requests of the whole queue (module
    /// docs, "Wait-for edges"), `except` the requester itself.
    fn push_blockers(&self, mode: LockMode, except: Option<TxnId>, out: &mut Vec<TxnId>) {
        let blocks = |t: TxnId, m: LockMode| Some(t) != except && !m.compatible(mode);
        if self.conflicts(mode, None) {
            out.extend(
                self.holders()
                    .filter(|&(t, m)| blocks(t, m))
                    .map(|(t, _)| t),
            );
        }
        out.extend(
            self.queue
                .iter()
                .filter(|&&(t, m)| blocks(t, m))
                .map(|&(t, _)| t),
        );
    }
}

/// Second-holder tables ([`LockState::rest`]).
type Holders = IdMap<TxnId, LockMode>;

/// The lock table: one map per level of the hierarchy (module docs,
/// "Which levels hash").
#[derive(Debug, Default)]
struct LockTable {
    tables: DenseMap<TableId, LockState>,
    partitions: DenseMap<PartitionId, LockState>,
    segments: DenseMap<SegmentId, LockState>,
    records: IdMap<(TableId, Key), LockState>,
    /// Emptied holder tables of targets that went idle, for the next
    /// target that gets a second holder.
    spare: Vec<Holders>,
}

/// [`LockTable::update`] on a dense level.
fn update_dense<K: DenseKey>(
    level: &mut DenseMap<K, LockState>,
    id: K,
    spare: &mut Vec<Holders>,
    change: impl FnOnce(&mut LockState, &mut Vec<Holders>),
) {
    if let Some(state) = level.get_mut(&id) {
        change(state, spare);
        if state.retire(spare) {
            level.remove(&id);
        }
    }
}

impl LockTable {
    fn len(&self) -> usize {
        self.tables.len() + self.partitions.len() + self.segments.len() + self.records.len()
    }

    fn get(&self, target: LockTarget) -> Option<&LockState> {
        match target {
            LockTarget::Table(t) => self.tables.get(&t),
            LockTarget::Partition(p) => self.partitions.get(&p),
            LockTarget::Segment(s) => self.segments.get(&s),
            LockTarget::Record(t, k) => self.records.get(&(t, k)),
        }
    }

    /// The state of a target a request is known to sit on.
    fn state(&self, target: LockTarget) -> &LockState {
        self.get(target).expect("requested target has state")
    }

    /// `target`'s state, created if it has none, and the spare list a
    /// grant on it may draw from.
    fn get_or_default(&mut self, target: LockTarget) -> (&mut LockState, &mut Vec<Holders>) {
        let state = match target {
            LockTarget::Table(t) => self.tables.get_or_insert_with(t, LockState::default),
            LockTarget::Partition(p) => self.partitions.get_or_insert_with(p, LockState::default),
            LockTarget::Segment(s) => self.segments.get_or_insert_with(s, LockState::default),
            LockTarget::Record(t, k) => self.records.entry((t, k)).or_default(),
        };
        (state, &mut self.spare)
    }

    /// Apply `change` to `target`'s state, if it has one, and drop the
    /// state if that left it idle — one probe of the record table.
    fn update(
        &mut self,
        target: LockTarget,
        change: impl FnOnce(&mut LockState, &mut Vec<Holders>),
    ) {
        let spare = &mut self.spare;
        match target {
            LockTarget::Table(t) => update_dense(&mut self.tables, t, spare, change),
            LockTarget::Partition(p) => update_dense(&mut self.partitions, p, spare, change),
            LockTarget::Segment(s) => update_dense(&mut self.segments, s, spare, change),
            LockTarget::Record(t, k) => {
                if let Entry::Occupied(mut entry) = self.records.entry((t, k)) {
                    change(entry.get_mut(), spare);
                    if entry.get_mut().retire(spare) {
                        entry.remove();
                    }
                }
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (LockTarget, &LockState)> + '_ {
        let tables = self.tables.iter().map(|(t, s)| (LockTarget::Table(t), s));
        let partitions = self.partitions.iter();
        let segments = self.segments.iter();
        let records = self.records.iter();
        tables
            .chain(partitions.map(|(p, s)| (LockTarget::Partition(p), s)))
            .chain(segments.map(|(g, s)| (LockTarget::Segment(g), s)))
            .chain(records.map(|(&(t, k), s)| (LockTarget::Record(t, k), s)))
    }
}

/// What one transaction has in the lock table.
#[derive(Debug, Default)]
struct TxnLocks {
    /// Targets it holds or waits on (for release_all).
    touched: Vec<LockTarget>,
    /// Its queued requests — the waits-for index. Multi-valued: nothing
    /// stops a queued transaction from requesting again.
    waits: Vec<(LockTarget, LockMode)>,
}

/// Every transaction's [`TxnLocks`], in a slab. A released transaction's
/// slot keeps its emptied vectors for the next tenant.
#[derive(Debug, Default)]
struct TxnTable {
    slot_of: IdMap<TxnId, u32>,
    slots: Vec<TxnLocks>,
    free: Vec<u32>,
    /// The transaction [`TxnTable::own`] was last asked for and its slot.
    last: Option<(TxnId, u32)>,
}

impl TxnTable {
    /// `txn`'s lists, created on first use. Asking for the same
    /// transaction again does not hash.
    fn own(&mut self, txn: TxnId) -> &mut TxnLocks {
        let slot = match self.last {
            Some((t, slot)) if t == txn => slot,
            _ => {
                let TxnTable {
                    slot_of,
                    slots,
                    free,
                    ..
                } = self;
                let slot = *slot_of.entry(txn).or_insert_with(|| {
                    free.pop().unwrap_or_else(|| {
                        slots.push(TxnLocks::default());
                        (slots.len() - 1) as u32
                    })
                });
                self.last = Some((txn, slot));
                slot
            }
        };
        &mut self.slots[slot as usize]
    }

    fn get(&self, txn: TxnId) -> Option<&TxnLocks> {
        Some(&self.slots[*self.slot_of.get(&txn)? as usize])
    }

    /// The lists of a transaction that is queued somewhere.
    fn get_mut(&mut self, txn: TxnId) -> &mut TxnLocks {
        &mut self.slots[self.slot_of[&txn] as usize]
    }

    /// Forget `txn`, handing out its lists for the release to walk;
    /// [`TxnTable::recycle`] takes them back.
    fn remove(&mut self, txn: TxnId) -> Option<(u32, TxnLocks)> {
        let slot = self.slot_of.remove(&txn)?;
        if self.last.is_some_and(|(t, _)| t == txn) {
            self.last = None;
        }
        Some((slot, std::mem::take(&mut self.slots[slot as usize])))
    }

    fn recycle(&mut self, slot: u32, mut own: TxnLocks) {
        own.touched.clear();
        own.waits.clear();
        self.slots[slot as usize] = own;
        self.free.push(slot);
    }

    fn iter(&self) -> impl Iterator<Item = (TxnId, &TxnLocks)> + '_ {
        self.slot_of
            .iter()
            .map(|(&t, &slot)| (t, &self.slots[slot as usize]))
    }
}

/// Buffers of the cycle search, kept so that a wait allocates nothing.
#[derive(Debug, Default)]
struct Search {
    stack: Vec<TxnId>,
    seen: IdSet<TxnId>,
    expanded: IdSet<(LockTarget, LockMode)>,
}

/// The lock manager.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: LockTable,
    txns: TxnTable,
    search: Search,
    waits: u64,
    deadlocks: u64,
}

impl LockManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times a request had to wait.
    pub fn wait_count(&self) -> u64 {
        self.waits
    }

    /// Deadlocks detected.
    pub fn deadlock_count(&self) -> u64 {
        self.deadlocks
    }

    /// Number of targets with active lock state.
    pub fn active_targets(&self) -> usize {
        self.locks.len()
    }

    /// Number of queued requests in the waits-for index.
    pub fn queued_requests(&self) -> usize {
        self.txns.iter().map(|(_, own)| own.waits.len()).sum()
    }

    /// Mode `txn` currently holds on `target`, if any.
    pub fn held_mode(&self, txn: TxnId, target: LockTarget) -> Option<LockMode> {
        self.locks.get(target)?.held(txn)
    }

    /// Request `target` in `mode` for `txn`.
    pub fn acquire(&mut self, txn: TxnId, target: LockTarget, mode: LockMode) -> LockAcquire {
        let (state, spare) = self.locks.get_or_default(target);
        let held = state.held(txn);
        let effective = match held {
            Some(held) if held.covers(mode) => return LockAcquire::Granted,
            Some(held) => held.combine(mode),
            None => mode,
        };
        // Conversions may jump a non-empty queue if compatible with holders
        // (standard treatment, avoids instant self-deadlock).
        if !state.conflicts(effective, held) && (held.is_some() || state.queue.is_empty()) {
            state.grant(txn, held, effective, spare);
            if held.is_none() {
                self.txns.own(txn).touched.push(target);
            }
            return LockAcquire::Granted;
        }
        // Would wait: check for a deadlock cycle first.
        if self.would_deadlock(txn, target, effective) {
            self.deadlocks += 1;
            return LockAcquire::Deadlock;
        }
        let (state, _) = self.locks.get_or_default(target); // the state found above
        if held.is_some() {
            // Conversion waits at the front.
            state.queue.push_front((txn, effective));
        } else {
            state.queue.push_back((txn, effective));
        }
        let own = self.txns.own(txn);
        own.touched.push(target);
        own.waits.push((target, effective));
        self.waits += 1;
        LockAcquire::Waiting
    }

    /// Would queueing `txn` for `(target, mode)` close a cycle? Depth-first
    /// search from the request's blockers along the waits-for index. Every
    /// waiter of one `(target, mode)` state has the same blockers (bar
    /// itself, and it is already `seen`), so a state is expanded once. The
    /// request's own state is expanded with the requester excluded and not
    /// marked: reaching it again through another waiter puts the requester
    /// among the blockers, which is a cycle.
    fn would_deadlock(&mut self, txn: TxnId, target: LockTarget, mode: LockMode) -> bool {
        let Search {
            stack,
            seen,
            expanded,
        } = &mut self.search;
        stack.clear();
        seen.clear();
        expanded.clear();
        self.locks
            .state(target)
            .push_blockers(mode, Some(txn), stack);
        while let Some(t) = stack.pop() {
            if t == txn {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            // Everything t waits on (a holder or queuer always has an entry).
            let own = self.txns.get(t).expect("holder or queuer is indexed");
            for &(tgt, wmode) in &own.waits {
                if expanded.insert((tgt, wmode)) {
                    self.locks.state(tgt).push_blockers(wmode, None, stack);
                }
            }
        }
        false
    }

    /// Release everything `txn` holds or waits for. Returns newly granted
    /// `(txn, target, mode)` requests for the caller to resume, in grant
    /// order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, LockTarget, LockMode)> {
        let mut granted_now = Vec::new();
        let Some((slot, own)) = self.txns.remove(txn) else {
            return granted_now;
        };
        for &target in &own.touched {
            self.locks.update(target, |state, spare| {
                state.release(txn);
                if own.waits.iter().any(|(t, _)| *t == target) {
                    state.queue.retain(|(t, _)| *t != txn);
                }
                // Promote from the queue head while compatible.
                while let Some((t, m)) = state.queue.front().copied() {
                    let held = state.held(t);
                    let eff = held.map_or(m, |held| held.combine(m));
                    if state.conflicts(eff, held) {
                        break;
                    }
                    state.queue.pop_front();
                    state.grant(t, held, eff, spare);
                    let waits = &mut self.txns.get_mut(t).waits;
                    let at = waits.iter().position(|w| *w == (target, m));
                    waits.swap_remove(at.expect("queued request is indexed"));
                    granted_now.push((t, target, eff));
                }
            });
        }
        self.txns.recycle(slot, own);
        granted_now
    }

    /// Recount what the manager keeps incrementally (diagnostics/tests):
    /// each census against its holders, the waits-for index against the
    /// queues, `touched` against both, and the recycling of holder tables
    /// — a spare one is empty, and no idle state sits on one.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(map) = self.locks.spare.iter().find(|map| !map.is_empty()) {
            return Err(format!("spare holder table still holds {map:?}"));
        }
        let mut queued = Vec::new();
        for (target, state) in self.locks.iter() {
            let target = &target;
            if state.is_idle() {
                // And whatever holder table it built is lost to the spares.
                return Err(format!("idle state kept for {target:?}"));
            }
            if let Some((t, _)) = state.first.filter(|(t, _)| state.rest.contains_key(t)) {
                return Err(format!("{t:?} holds {target:?} twice"));
            }
            let mut recount = [0u32; 5];
            for (_, m) in state.holders() {
                recount[m as usize] += 1;
            }
            if recount != state.counts {
                return Err(format!(
                    "census of {target:?} is {:?}, holders say {recount:?}",
                    state.counts
                ));
            }
            queued.extend(state.queue.iter().map(|&(t, m)| (t, *target, m)));
            for t in state
                .holders()
                .map(|(t, _)| t)
                .chain(state.queue.iter().map(|q| q.0))
            {
                let own = self.txns.get(t);
                if !own.is_some_and(|own| own.touched.contains(target)) {
                    return Err(format!("{t:?} is on {target:?} but has not touched it"));
                }
            }
        }
        let mut indexed: Vec<(TxnId, LockTarget, LockMode)> = self
            .txns
            .iter()
            .flat_map(|(t, own)| own.waits.iter().map(move |&(tgt, m)| (t, tgt, m)))
            .collect();
        queued.sort_unstable();
        indexed.sort_unstable();
        if queued != indexed {
            return Err(format!("queues hold {queued:?}, the index {indexed:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    fn rec(k: u64) -> LockTarget {
        LockTarget::Record(TableId(1), Key(k))
    }

    #[test]
    fn compatibility_matrix() {
        // Spot-check the canonical matrix.
        assert!(IS.compatible(IX));
        assert!(IX.compatible(IX));
        assert!(!IX.compatible(S));
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(SIX.compatible(IS));
        assert!(!SIX.compatible(SIX));
        assert!(!X.compatible(IS));
        for m in [IS, IX, S, SIX, X] {
            assert!(!X.compatible(m));
            assert!(!m.compatible(X));
        }
    }

    #[test]
    fn combine_lattice() {
        assert_eq!(S.combine(IX), SIX);
        assert_eq!(IS.combine(IX), IX);
        assert_eq!(S.combine(S), S);
        assert_eq!(SIX.combine(S), SIX);
        assert_eq!(X.combine(IS), X);
        assert!(X.covers(S));
        assert!(!S.covers(IX));
    }

    #[test]
    fn shared_coexist_exclusive_waits() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), rec(5), S), LockAcquire::Granted);
        assert_eq!(lm.acquire(TxnId(2), rec(5), S), LockAcquire::Granted);
        assert_eq!(lm.acquire(TxnId(3), rec(5), X), LockAcquire::Waiting);
        // Release one reader: writer still blocked by the other.
        assert!(lm.release_all(TxnId(1)).is_empty());
        let granted = lm.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(3), rec(5), X)]);
    }

    #[test]
    fn intention_locks_on_hierarchy() {
        let mut lm = LockManager::new();
        let tbl = LockTarget::Table(TableId(1));
        // Txn 1 scans (S on table), txn 2 wants to update a record (IX on
        // table) — classic MGL conflict at the table level.
        assert_eq!(lm.acquire(TxnId(1), tbl, S), LockAcquire::Granted);
        assert_eq!(lm.acquire(TxnId(2), tbl, IX), LockAcquire::Waiting);
        let granted = lm.release_all(TxnId(1));
        assert_eq!(granted, vec![(TxnId(2), tbl, IX)]);
        // IS and IX coexist.
        assert_eq!(lm.acquire(TxnId(3), tbl, IS), LockAcquire::Granted);
    }

    #[test]
    fn upgrade_s_to_x() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), rec(1), S), LockAcquire::Granted);
        // Sole holder upgrades immediately.
        assert_eq!(lm.acquire(TxnId(1), rec(1), X), LockAcquire::Granted);
        assert_eq!(lm.held_mode(TxnId(1), rec(1)), Some(X));
        // Re-request of a covered mode is a no-op grant.
        assert_eq!(lm.acquire(TxnId(1), rec(1), S), LockAcquire::Granted);
    }

    #[test]
    fn upgrade_deadlock_detected() {
        let mut lm = LockManager::new();
        // Two readers both try to upgrade: the second must see the cycle.
        assert_eq!(lm.acquire(TxnId(1), rec(1), S), LockAcquire::Granted);
        assert_eq!(lm.acquire(TxnId(2), rec(1), S), LockAcquire::Granted);
        assert_eq!(lm.acquire(TxnId(1), rec(1), X), LockAcquire::Waiting);
        assert_eq!(lm.acquire(TxnId(2), rec(1), X), LockAcquire::Deadlock);
        assert_eq!(lm.deadlock_count(), 1);
    }

    #[test]
    fn two_txn_cycle_detected() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), rec(1), X), LockAcquire::Granted);
        assert_eq!(lm.acquire(TxnId(2), rec(2), X), LockAcquire::Granted);
        assert_eq!(lm.acquire(TxnId(1), rec(2), X), LockAcquire::Waiting);
        // 2 → 1 → 2 closes the cycle.
        assert_eq!(lm.acquire(TxnId(2), rec(1), X), LockAcquire::Deadlock);
    }

    #[test]
    fn victim_abort_unblocks_waiter() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), rec(1), X);
        lm.acquire(TxnId(2), rec(2), X);
        lm.acquire(TxnId(1), rec(2), X);
        assert_eq!(lm.acquire(TxnId(2), rec(1), X), LockAcquire::Deadlock);
        // Victim (txn 2) aborts, releasing rec(2); txn 1 proceeds.
        let granted = lm.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(1), rec(2), X)]);
        assert_eq!(lm.held_mode(TxnId(1), rec(1)), Some(X));
        assert_eq!(lm.held_mode(TxnId(1), rec(2)), Some(X));
    }

    #[test]
    fn fifo_no_barging() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), rec(1), X);
        assert_eq!(lm.acquire(TxnId(2), rec(1), S), LockAcquire::Waiting);
        // A later S request queues behind the waiting S (queue non-empty).
        assert_eq!(lm.acquire(TxnId(3), rec(1), S), LockAcquire::Waiting);
        let granted = lm.release_all(TxnId(1));
        // Both shared requests granted together, in order.
        assert_eq!(granted, vec![(TxnId(2), rec(1), S), (TxnId(3), rec(1), S)]);
    }

    #[test]
    fn release_cleans_state() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), rec(1), S);
        lm.acquire(TxnId(1), LockTarget::Table(TableId(1)), IS);
        assert_eq!(lm.active_targets(), 2);
        lm.release_all(TxnId(1));
        assert_eq!(lm.active_targets(), 0);
        assert_eq!(lm.held_mode(TxnId(1), rec(1)), None);
    }

    #[test]
    fn segment_and_partition_targets_are_distinct() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(TxnId(1), LockTarget::Segment(SegmentId(1)), X),
            LockAcquire::Granted
        );
        assert_eq!(
            lm.acquire(TxnId(2), LockTarget::Partition(PartitionId(1)), X),
            LockAcquire::Granted
        );
    }
}
