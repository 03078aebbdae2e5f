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
//! recycled lock-holder tables, wait queues and grant lists. The count is
//! deterministic, the same in debug and release; it is printed so a change
//! can see where it stands:
//!
//! | heap calls / commit | live heap, MB | as of |
//! |---|---|---|
//! | 0.73 | 13.8 | now: an index node is one heap block, and so is a page (body and slot directory) |
//! | 1.41 | 14.7 | a write reclaims the versions no live snapshot can see; a flush behind a flush bills only its own bytes |
//! | 1.60 | 15.0 | header-only versions, one record length per page, 2-byte slots |
//! | 1.60 | 18.7 | wait queues and grant lists recycled too |
//! | 1.68 | 18.9 | holder tables recycled, 33-byte version header, split halves sized to what they hold |
//! | 3.53 | 26.2 | pages sized when created, 8-byte slots and index entries |
//! | 6.80 | 44.8 | index nodes reserving their fan-out; 16-byte slots, 24-byte index entries, page bodies doubling their way up |
//! | 7.55 | | typed event core, borrowed record path |
//! | 89 | | before the typed event core |
//!
//! The allocator also keeps the bytes currently allocated, and the live
//! heap at the end of the 40 sim-s — the loaded population plus what the
//! writes leave, in pages, slots and index entries: a version per inserted
//! row, and per updated row its head and the version that head superseded
//! (a write reclaims the versions no live snapshot can see) — must stay
//! within [`LIVE_HEAP_MB`]: the same kind of gate on what a stored version
//! costs.
//! Deterministic like the count: it sums requested sizes, which no
//! allocator or build profile changes. Nor may the heap rise more than
//! [`SPIKE_MB`] above that end value during the 30 sim-s.
//!
//! `alloc_budget_replicated.rs` holds the same gates for the
//! `rebalance-replicated` shape. Each lives in its own test binary
//! because a global allocator is process-wide.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::cluster::Scheme;
use wattdb_core::{ClientBatching, WattDb};

use counting_alloc::{heap_calls, live_mb, peak_mb, reset_peak};

/// The gate on `allocs_per_txn` for the `oltp-steady` shape — what is
/// known of the hot path (the module docs' count) plus 10 % of headroom:
/// room for a change that knowingly adds a call every dozen commits, not
/// one per commit.
const BUDGET: f64 = 0.81;

/// The gate on the live heap after the 40 sim-s, in MB (2^20 bytes): the
/// module docs' figure plus 10 % of headroom.
const LIVE_HEAP_MB: f64 = 15.2;

/// How far the live heap may rise above its end value during the
/// measured window, in MB: nothing the engine does transiently holds
/// more.
const SPIKE_MB: f64 = 0.5;

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

    let (calls, committed) = (heap_calls(), db.completed());
    reset_peak();
    db.run_for(SimDuration::from_secs(30));
    let calls = heap_calls() - calls;
    let committed = db.completed() - committed;

    assert!(committed > 2_000, "the workload ran ({committed} commits)");
    assert_eq!(db.aborted(), 0, "an uncontended run");
    let per_txn = calls as f64 / committed as f64;
    println!("heap calls per committed transaction: {per_txn:.2} ({calls} / {committed})");
    assert!(
        per_txn <= BUDGET,
        "{per_txn:.2} heap calls per committed transaction, budget {BUDGET}"
    );

    let (live_mb, peak_mb) = (live_mb(), peak_mb());
    println!("live heap after 40 sim-s: {live_mb:.1} MB (high-water {peak_mb:.1} MB)");
    assert!(
        live_mb <= LIVE_HEAP_MB,
        "{live_mb:.1} MB live on the heap, bound {LIVE_HEAP_MB}"
    );
    assert!(
        peak_mb <= live_mb + SPIKE_MB,
        "the heap peaked at {peak_mb:.2} MB, {live_mb:.2} MB at the end"
    );
}
