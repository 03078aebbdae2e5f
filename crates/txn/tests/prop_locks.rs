//! Property tests: the lock manager against a reference model.
//!
//! [`Model`] is the manager's straightforward algorithm — compatibility by
//! walking the holders, cycle search by scanning the whole lock table for
//! what each transaction waits on. The manager answers the same questions
//! from a per-target mode census and a waits-for index; random schedules
//! drive both and must see
//!
//! 1. the same `LockAcquire` for every request and the same grant vector,
//!    order included, from every `release_all`;
//! 2. the same `held_mode`, `wait_count`, `deadlock_count` and
//!    `active_targets` after every step, holders pairwise compatible;
//! 3. census and index equal to a recount (`check_invariants`) after every
//!    step, and both empty once every transaction has released.
//!
//! Every schedule runs twice on one manager with a full drain in between:
//! the second pass finds the holder tables the first one built in the
//! manager's spare list, with whatever capacity and iteration order they
//! ended up with, and must match the model all the same — a table's order
//! reaches the cycle search's visit order and no verdict.
//!
//! The same schedules run a second time over targets whose ids straddle
//! [`DENSE_BOUND`] — the last id the manager's dense levels index, the
//! first they spill, and `MAX` — where the levels must still behave as one
//! table. Separately, a lone transaction's re-acquisitions never deadlock.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use wattdb_common::{Key, PartitionId, SegmentId, TableId, TxnId, DENSE_BOUND};
use wattdb_txn::{LockAcquire, LockManager, LockMode, LockTarget};

type Grants = Vec<(TxnId, LockTarget, LockMode)>;

#[derive(Default)]
struct ModelState {
    granted: BTreeMap<TxnId, LockMode>,
    queue: VecDeque<(TxnId, LockMode)>,
}

impl ModelState {
    fn grant_compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        self.granted
            .iter()
            .all(|(t, m)| *t == txn || m.compatible(mode))
    }
}

#[derive(Default)]
struct Model {
    locks: BTreeMap<LockTarget, ModelState>,
    touched: BTreeMap<TxnId, Vec<LockTarget>>,
    waits: u64,
    deadlocks: u64,
}

impl Model {
    fn acquire(&mut self, txn: TxnId, target: LockTarget, mode: LockMode) -> LockAcquire {
        let state = self.locks.entry(target).or_default();
        let held = state.granted.get(&txn).copied();
        let effective = match held {
            Some(held) if held.covers(mode) => return LockAcquire::Granted,
            Some(held) => held.combine(mode),
            None => mode,
        };
        if state.grant_compatible(txn, effective) && state.queue.is_empty() {
            state.granted.insert(txn, effective);
            self.touched.entry(txn).or_default().push(target);
            return LockAcquire::Granted;
        }
        // A conversion jumps a non-empty queue if compatible with holders.
        if held.is_some() && state.grant_compatible(txn, effective) {
            state.granted.insert(txn, effective);
            return LockAcquire::Granted;
        }
        if self.would_deadlock(txn, target, effective) {
            self.deadlocks += 1;
            return LockAcquire::Deadlock;
        }
        let state = self.locks.get_mut(&target).unwrap();
        if held.is_some() {
            state.queue.push_front((txn, effective));
        } else {
            state.queue.push_back((txn, effective));
        }
        self.touched.entry(txn).or_default().push(target);
        self.waits += 1;
        LockAcquire::Waiting
    }

    fn would_deadlock(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> bool {
        let mut stack = self.blockers(txn, target, mode);
        let mut seen = Vec::new();
        while let Some(t) = stack.pop() {
            if t == txn {
                return true;
            }
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
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

    /// Incompatible holders plus incompatible requests anywhere in the
    /// queue, `txn` itself excepted.
    fn blockers(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> Vec<TxnId> {
        let st = &self.locks[&target];
        let holders = st.granted.iter().map(|(t, m)| (*t, *m));
        holders
            .chain(st.queue.iter().copied())
            .filter(|(t, m)| *t != txn && !m.compatible(mode))
            .map(|(t, _)| t)
            .collect()
    }

    fn release_all(&mut self, txn: TxnId) -> Grants {
        let mut granted_now = Vec::new();
        for target in self.touched.remove(&txn).unwrap_or_default() {
            let Some(state) = self.locks.get_mut(&target) else {
                continue;
            };
            state.granted.remove(&txn);
            state.queue.retain(|(t, _)| *t != txn);
            while let Some((t, m)) = state.queue.front().copied() {
                let eff = state.granted.get(&t).map_or(m, |held| held.combine(m));
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
}

const TXNS: u64 = 24;

/// One table, two partitions, three segments, six records.
fn targets() -> Vec<LockTarget> {
    let mut v = vec![LockTarget::Table(TableId(1))];
    v.extend((1..=2).map(|p| LockTarget::Partition(PartitionId(p))));
    v.extend((1..=3).map(|s| LockTarget::Segment(SegmentId(s))));
    v.extend((0..6).map(|k| LockTarget::Record(TableId(1), Key(k))));
    v
}

/// As many targets as [`targets`], on ids around the bound between the
/// manager's dense vectors and their spill maps.
fn straddling_targets() -> Vec<LockTarget> {
    let bound = DENSE_BOUND as u64;
    let mut v = vec![
        LockTarget::Table(TableId(0)),
        LockTarget::Table(TableId(bound as u32)),
        LockTarget::Table(TableId(u32::MAX)),
    ];
    v.extend([bound - 1, bound, u64::MAX].map(|p| LockTarget::Partition(PartitionId(p))));
    v.extend([0, bound - 1, bound, u64::MAX].map(|s| LockTarget::Segment(SegmentId(s))));
    v.extend([0, u64::MAX].map(|k| LockTarget::Record(TableId(u32::MAX), Key(k))));
    v
}

fn mode_strategy() -> impl Strategy<Value = LockMode> {
    prop_oneof![
        Just(LockMode::IS),
        Just(LockMode::IX),
        Just(LockMode::S),
        Just(LockMode::SIX),
        Just(LockMode::X),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// Request by any transaction, queued ones included; a deadlock
    /// victim releases everything when `abort` is set.
    Acquire {
        txn: u64,
        target: usize,
        mode: LockMode,
        abort: bool,
    },
    ReleaseAll {
        txn: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (1..=TXNS, 0usize..12, mode_strategy(), 0u8..4).prop_map(
            |(txn, target, mode, abort)| Op::Acquire { txn, target, mode, abort: abort > 0 }
        ),
        1 => (1..=TXNS).prop_map(|txn| Op::ReleaseAll { txn }),
    ]
}

fn release_both(lm: &mut LockManager, model: &mut Model, txn: TxnId) {
    assert_eq!(
        lm.release_all(txn),
        model.release_all(txn),
        "grants of {txn:?}"
    );
}

/// Drive one manager and the model through `ops` over `targets` twice,
/// comparing them after every step and draining both after each pass.
fn run_schedule(targets: &[LockTarget], ops: &[Op]) {
    let mut lm = LockManager::new();
    let mut model = Model::default();
    // The first pass builds holder tables; the second one is handed them
    // back from the spare list.
    for _ in 0..2 {
        run_pass(&mut lm, &mut model, targets, ops);
    }
}

fn run_pass(lm: &mut LockManager, model: &mut Model, targets: &[LockTarget], ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Acquire {
                txn,
                target,
                mode,
                abort,
            } => {
                let (txn, target) = (TxnId(txn), targets[target]);
                let got = lm.acquire(txn, target, mode);
                assert_eq!(got, model.acquire(txn, target, mode), "{op:?}");
                if got == LockAcquire::Deadlock && abort {
                    release_both(lm, model, txn);
                }
            }
            Op::ReleaseAll { txn } => release_both(lm, model, TxnId(txn)),
        }
        assert_eq!(lm.check_invariants(), Ok(()));
        assert_eq!(lm.wait_count(), model.waits);
        assert_eq!(lm.deadlock_count(), model.deadlocks);
        assert_eq!(lm.active_targets(), model.locks.len());
        let queued: usize = model.locks.values().map(|st| st.queue.len()).sum();
        assert_eq!(lm.queued_requests(), queued);
        for &target in targets {
            let holders: Vec<(TxnId, LockMode)> = model
                .locks
                .get(&target)
                .map(|st| st.granted.iter().map(|(t, m)| (*t, *m)).collect())
                .unwrap_or_default();
            for txn in (1..=TXNS).map(TxnId) {
                let expect = holders.iter().find(|h| h.0 == txn).map(|h| h.1);
                assert_eq!(lm.held_mode(txn, target), expect);
            }
            for (i, &(ta, ma)) in holders.iter().enumerate() {
                for &(tb, mb) in &holders[i + 1..] {
                    assert!(
                        ma.compatible(mb),
                        "incompatible co-holders {ta:?}:{ma:?} vs {tb:?}:{mb:?} on {target:?}"
                    );
                }
            }
        }
    }
    for txn in (1..=TXNS).map(TxnId) {
        release_both(lm, model, txn);
    }
    assert_eq!(lm.active_targets(), 0, "lock state leaked");
    assert_eq!(lm.queued_requests(), 0, "waits-for index leaked");
    assert_eq!(lm.check_invariants(), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn manager_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        run_schedule(&targets(), &ops);
    }

    #[test]
    fn self_reacquisition_never_deadlocks(
        modes in proptest::collection::vec(mode_strategy(), 1..20)
    ) {
        let mut lm = LockManager::new();
        let t = LockTarget::Record(TableId(1), Key(1));
        for m in modes {
            let r = lm.acquire(TxnId(1), t, m);
            prop_assert_eq!(r, LockAcquire::Granted, "sole txn must always get {:?}", m);
        }
        lm.release_all(TxnId(1));
        prop_assert_eq!(lm.active_targets(), 0);
    }
}

proptest! {
    // Few cases: the recount after every step walks dense levels that are
    // `DENSE_BOUND` slots long here.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn manager_matches_the_model_across_the_dense_bound(
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        let targets = straddling_targets();
        prop_assert_eq!(targets.len(), 12, "one target per index `op_strategy` draws");
        run_schedule(&targets, &ops);
    }
}
