//! The lock manager's cost does not depend on how many transactions are
//! in flight.
//!
//! One scenario, no clock: 5 000 transactions hold `IX` on a table while
//! 5 000 writers park on one record behind a single holder and are then
//! released one by one. With a holder walk per compatibility test and a
//! lock-table scan per node of the cycle search this is O(q²)–O(q³) work
//! and does not finish inside a test run; with the mode census and the
//! waits-for index it is O(q) per wait. Afterwards, still under the 5 000
//! table holders, an uncontended acquire-and-release cycle must perform
//! **zero** heap allocations: the first holder of a target is inline, the
//! per-transaction vectors are recycled.
//!
//! Lives in its own test binary because a global allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wattdb_common::{Key, PartitionId, SegmentId, TableId, TxnId};
use wattdb_txn::{LockAcquire, LockManager, LockMode, LockTarget};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TABLE: LockTarget = LockTarget::Table(TableId(1));
const HOT: LockTarget = LockTarget::Record(TableId(1), Key(0));
const N: u64 = 5_000;

/// The four requests of one write operation, coarse to fine.
fn write_op(lm: &mut LockManager, txn: TxnId, key: u64) {
    for (target, mode) in [
        (TABLE, LockMode::IX),
        (LockTarget::Partition(PartitionId(1)), LockMode::IX),
        (LockTarget::Segment(SegmentId(1)), LockMode::IX),
        (LockTarget::Record(TableId(1), Key(key)), LockMode::X),
    ] {
        assert_eq!(lm.acquire(txn, target, mode), LockAcquire::Granted);
    }
}

#[test]
fn deep_queue_under_many_holders_stays_cheap_and_allocation_free() {
    let mut lm = LockManager::new();
    let readers = 1..=N;
    let holder = TxnId(N + 1);
    let writers = N + 2..=2 * N + 1;
    for r in readers.clone() {
        assert_eq!(
            lm.acquire(TxnId(r), TABLE, LockMode::IX),
            LockAcquire::Granted
        );
    }
    assert_eq!(
        lm.acquire(holder, TABLE, LockMode::IX),
        LockAcquire::Granted
    );
    assert_eq!(lm.acquire(holder, HOT, LockMode::X), LockAcquire::Granted);
    for w in writers.clone() {
        assert_eq!(
            lm.acquire(TxnId(w), TABLE, LockMode::IX),
            LockAcquire::Granted
        );
        assert_eq!(lm.acquire(TxnId(w), HOT, LockMode::X), LockAcquire::Waiting);
    }
    assert_eq!(lm.wait_count(), N);
    assert_eq!(lm.queued_requests(), N as usize);
    // Each release hands the record to exactly the next writer in line.
    let mut releasing = holder;
    for w in writers {
        assert_eq!(
            lm.release_all(releasing),
            vec![(TxnId(w), HOT, LockMode::X)]
        );
        releasing = TxnId(w);
    }
    assert!(lm.release_all(releasing).is_empty());
    assert_eq!(lm.deadlock_count(), 0);
    assert_eq!(lm.queued_requests(), 0);
    assert_eq!(lm.active_targets(), 1, "only the table is still held");

    let cycle = |lm: &mut LockManager, i: u64| {
        let txn = TxnId(3 * N + i);
        write_op(lm, txn, 1 + i % 1000);
        assert!(lm.release_all(txn).is_empty());
    };
    for i in 0..1_000 {
        cycle(&mut lm, i);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 1_000..11_000 {
        cycle(&mut lm, i);
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "10 000 uncontended cycles allocated {allocated} times"
    );

    for r in readers {
        lm.release_all(TxnId(r));
    }
    assert_eq!(lm.active_targets(), 0);
    assert_eq!(lm.check_invariants(), Ok(()));
}
