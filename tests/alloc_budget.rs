//! The engine's allocation budget per committed transaction, and its live
//! heap.
//!
//! The `oltp-steady` shape of `BENCHMARK.json`, built through the public
//! builder — 6 nodes, 3 holding data, 8 warehouses at density 0.05, 1 000
//! per-client clients thinking 10 s, seed 11 — runs 10 sim-s of warm-up and
//! then 30 sim-s under a counting `#[global_allocator]`. Heap calls
//! (`alloc` + `alloc_zeroed` + `realloc`, counted like the benchmark's
//! `allocs_per_txn`) per committed transaction must stay within
//! [`BUDGET`]: the machine-independent regression gate on the typed event
//! core, the borrowed record path, the index nodes that never outgrow
//! their fan-out, the pages allocated once at their final size and the
//! recycled lock-holder tables. The count is deterministic, the same in
//! debug and release; it is printed so a change can see where it stands:
//!
//! | heap calls / commit | live heap, MB | as of |
//! |---|---|---|
//! | 1.68 | 18.9 | now: holder tables recycled, 33-byte version header, split halves sized to what they hold |
//! | 3.53 | 26.2 | pages sized when created, 8-byte slots and index entries |
//! | 6.80 | 44.8 | index nodes reserving their fan-out; 16-byte slots, 24-byte index entries, page bodies doubling their way up |
//! | 7.55 | | typed event core, borrowed record path |
//! | 89 | | before the typed event core |
//!
//! The allocator also keeps the bytes currently allocated, and the live
//! heap at the end of the 40 sim-s — the loaded population plus one stored
//! version per write, in pages, slots and index entries — must stay within
//! [`LIVE_HEAP_MB`]: the same kind of gate on what a stored version costs.
//! Deterministic like the count: it sums requested sizes, which no
//! allocator or build profile changes.
//!
//! Lives in its own test binary because a global allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::cluster::Scheme;
use wattdb_core::{ClientBatching, WattDb};

struct CountingAlloc;

static HEAP_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested and not yet freed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The gate on `allocs_per_txn` for the `oltp-steady` shape — what is
/// known of the hot path (the module docs' count) plus headroom for a
/// change that adds one or two calls knowingly, not tens.
const BUDGET: f64 = 2.5;

/// The gate on the live heap after the 40 sim-s, in MB (2^20 bytes): the
/// module docs' figure plus 11 % of headroom.
const LIVE_HEAP_MB: f64 = 21.0;

#[test]
fn oltp_steady_stays_within_its_allocation_budget() {
    let mut db = WattDb::builder()
        .scheme(Scheme::Physiological)
        .nodes(6)
        .warehouses(8)
        .density(0.05)
        .segment_pages(16)
        .seed(11)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .client_batching(ClientBatching::PerClient)
        .monitoring(SimDuration::from_secs(5))
        .telemetry(true)
        .build();
    db.start_oltp(1_000, SimDuration::from_secs(10));
    db.run_for(SimDuration::from_secs(10));

    let (calls, committed) = (HEAP_CALLS.load(Ordering::Relaxed), db.completed());
    db.run_for(SimDuration::from_secs(30));
    let calls = HEAP_CALLS.load(Ordering::Relaxed) - calls;
    let committed = db.completed() - committed;

    assert!(committed > 2_000, "the workload ran ({committed} commits)");
    assert_eq!(db.aborted(), 0, "an uncontended run");
    let per_txn = calls as f64 / committed as f64;
    println!("heap calls per committed transaction: {per_txn:.2} ({calls} / {committed})");
    assert!(
        per_txn <= BUDGET,
        "{per_txn:.2} heap calls per committed transaction, budget {BUDGET}"
    );

    let live_mb = LIVE_BYTES.load(Ordering::Relaxed) as f64 / f64::from(1 << 20);
    println!("live heap after 40 sim-s: {live_mb:.1} MB");
    assert!(
        live_mb <= LIVE_HEAP_MB,
        "{live_mb:.1} MB live on the heap, bound {LIVE_HEAP_MB}"
    );
}
