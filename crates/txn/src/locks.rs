//! Multi-granularity locking (MGL) with deadlock detection.
//!
//! The baseline concurrency control the paper benchmarks MVCC against
//! (Fig. 3) is "classical Multi-Granularity Locking with RX lock modes
//! (MGL-RX)". This manager implements the full MGL lattice — IS, IX, S,
//! SIX, X — over the hierarchy Table → Partition → Segment → Record; the
//! RX protocol is the subset using S/X on records with intention modes
//! above.
//!
//! Like the latch table, the manager is written for the event-driven
//! engine: conflicting requests queue, and `release_all` reports which
//! queued requests become granted so the caller can resume them. Deadlocks
//! are detected by wait-for-graph cycle search at request time; the
//! requester is chosen as the victim.

use std::collections::VecDeque;

use wattdb_common::{IdMap, Key, PartitionId, SegmentId, TableId, TxnId};

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
    /// Granted transactions and their (combined) modes.
    granted: IdMap<TxnId, LockMode>,
    /// FIFO wait queue (conversions re-queue at the front).
    queue: VecDeque<(TxnId, LockMode)>,
}

impl LockState {
    fn grant_compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        self.granted
            .iter()
            .all(|(t, m)| *t == txn || m.compatible(mode))
    }
}

/// The lock manager.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: IdMap<LockTarget, LockState>,
    /// Targets each txn holds or waits on (for release_all).
    touched: IdMap<TxnId, Vec<LockTarget>>,
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

    /// Mode `txn` currently holds on `target`, if any.
    pub fn held_mode(&self, txn: TxnId, target: LockTarget) -> Option<LockMode> {
        self.locks.get(&target)?.granted.get(&txn).copied()
    }

    /// Request `target` in `mode` for `txn`.
    pub fn acquire(&mut self, txn: TxnId, target: LockTarget, mode: LockMode) -> LockAcquire {
        let state = self.locks.entry(target).or_default();
        let effective = match state.granted.get(&txn) {
            Some(held) if held.covers(mode) => return LockAcquire::Granted,
            Some(held) => held.combine(mode),
            None => mode,
        };
        if state.grant_compatible(txn, effective) && state.queue.is_empty() {
            state.granted.insert(txn, effective);
            self.touched.entry(txn).or_default().push(target);
            return LockAcquire::Granted;
        }
        // Conversions may jump a non-empty queue if compatible with holders
        // (standard treatment, avoids instant self-deadlock).
        if state.granted.contains_key(&txn) && state.grant_compatible(txn, effective) {
            state.granted.insert(txn, effective);
            return LockAcquire::Granted;
        }
        // Would wait: check for a deadlock cycle first.
        if self.would_deadlock(txn, target, effective) {
            self.deadlocks += 1;
            return LockAcquire::Deadlock;
        }
        let state = self.locks.get_mut(&target).expect("entry exists");
        if state.granted.contains_key(&txn) {
            // Conversion waits at the front.
            state.queue.push_front((txn, effective));
        } else {
            state.queue.push_back((txn, effective));
        }
        self.touched.entry(txn).or_default().push(target);
        self.waits += 1;
        LockAcquire::Waiting
    }

    /// Wait-for edges from `txn` if it queued for (target, mode): the
    /// conflicting holders plus queued requests ahead of it. Cycle search
    /// via DFS over current wait relationships.
    fn would_deadlock(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> bool {
        let mut stack: Vec<TxnId> = self.blockers(txn, target, mode);
        let mut seen: Vec<TxnId> = Vec::new();
        while let Some(t) = stack.pop() {
            if t == txn {
                return true;
            }
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            // Everything t waits on.
            for (tgt, st) in &self.locks {
                for (waiter, wmode) in &st.queue {
                    if *waiter == t {
                        stack.extend(self.blockers(t, *tgt, *wmode));
                    }
                }
            }
        }
        false
    }

    fn blockers(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> Vec<TxnId> {
        let Some(st) = self.locks.get(&target) else {
            return Vec::new();
        };
        let mut out: Vec<TxnId> = st
            .granted
            .iter()
            .filter(|(t, m)| **t != txn && !m.compatible(mode))
            .map(|(t, _)| *t)
            .collect();
        // Queued requests ahead also block (FIFO fairness).
        for (t, m) in &st.queue {
            if *t != txn && !m.compatible(mode) {
                out.push(*t);
            }
        }
        out
    }

    /// Release everything `txn` holds or waits for. Returns newly granted
    /// `(txn, target, mode)` requests for the caller to resume, in grant
    /// order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, LockTarget, LockMode)> {
        let mut granted_now = Vec::new();
        let Some(targets) = self.touched.remove(&txn) else {
            return granted_now;
        };
        for target in targets {
            let Some(state) = self.locks.get_mut(&target) else {
                continue;
            };
            state.granted.remove(&txn);
            state.queue.retain(|(t, _)| *t != txn);
            // Promote from the queue head while compatible.
            while let Some((t, m)) = state.queue.front().copied() {
                let eff = match state.granted.get(&t) {
                    Some(held) => held.combine(m),
                    None => m,
                };
                if !state.grant_compatible(t, eff) {
                    break;
                }
                state.queue.pop_front();
                state.granted.insert(t, eff);
                granted_now.push((t, target, eff));
            }
            if state.granted.is_empty() && state.queue.is_empty() {
                self.locks.remove(&target);
            }
        }
        granted_now
    }

    /// Locks held by `txn` (diagnostics/tests).
    pub fn holdings(&self, txn: TxnId) -> Vec<(LockTarget, LockMode)> {
        let mut v: Vec<(LockTarget, LockMode)> = self
            .locks
            .iter()
            .filter_map(|(tgt, st)| st.granted.get(&txn).map(|m| (*tgt, *m)))
            .collect();
        v.sort_unstable();
        v
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
        assert_eq!(lm.holdings(TxnId(1)).len(), 2);
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
        assert!(lm.holdings(TxnId(1)).is_empty());
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
