//! The allocation budget of the `rebalance-replicated` shape: writes,
//! replica shipping, a rebalance and analytic scans in one window.
//!
//! Built like that workload of `BENCHMARK.json` through the public
//! builder — 10 nodes, 2 holding data, 8 warehouses at density 0.05,
//! `replication(1)`, ×40 operation CPU, 80 clients thinking 50 ms, seed 11
//! — it runs 20 sim-s of warm-up and then a 50 sim-s window that opens
//! with a heat-planned scale-out onto two more nodes and dispatches an
//! `OrderLine` `Sum` scan over four warehouses every 5 sim-s. Heap calls
//! per committed transaction in the window must stay within [`BUDGET`],
//! and the live heap must never rise more than [`SPIKE_MB`] above where
//! it ends the window: a scan walks each segment's index in place and
//! holds nothing in proportion to the rows it reads. Both readings are
//! deterministic and printed (`tests/support/counting_alloc.rs` says how
//! they are taken):
//!
//! | heap calls / commit | live-heap peak over the window's end, MB | as of |
//! |---|---|---|
//! | 0.71 | 0.00 | now: chunked transfers, trace replays and segment copies continue as data, a scan runs one plan over its segments (6 326 heap calls; live heap 19.00 MB at the window's end) |
//! | 1.36 | 0.00 | a replica's acknowledgement is booked at send, a scan's last stage posts its `done` directly (12 226 heap calls; live heap 18.99 MB) |
//! | 1.52 | 0.00 | a segment's caught-up copies take plain turns serving its reads (13 430 heap calls; live heap 19.01 MB at the window's end) |
//! | 1.51 | 0.01 | an index node is one heap block, and so is a page (13 529 heap calls; live heap 19.10 MB at the window's end) |
//! | 2.09 | 0.00 | a write reclaims the versions no live snapshot can see (18 705 heap calls; live heap 20.18 MB at the window's end, was 22.10); a flush behind a flush bills only its own bytes |
//! | 2.50 | 0.00 | header-only versions, one record length per page (22 211 heap calls, 9 more) |
//! | 2.49 | 0.00 | streamed scans, recycled grant lists and wait queues, in-place cursor sync and segment cleaning |
//! | 4.03 | 2.08 | scans that listed every covered segment's keys, then its rows |
//!
//! Lives in its own test binary because a global allocator is
//! process-wide.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use wattdb_common::{CostParams, NodeId, SimDuration};
use wattdb_core::cluster::Scheme;
use wattdb_core::WattDb;
use wattdb_query::AggFunc;
use wattdb_tpcc::{warehouse_range, TpccTable};

use counting_alloc::{heap_calls, live_mb, peak_mb, reset_peak};

/// The gate on heap calls per commit: the module docs' count plus 10 %,
/// the headroom `alloc_budget.rs` gives its live heap.
const BUDGET: f64 = 0.78;

/// How far the live heap may rise above its end value during the window,
/// in MB.
const SPIKE_MB: f64 = 0.5;

#[test]
fn rebalance_replicated_stays_within_its_allocation_budget() {
    let mut db = WattDb::builder()
        .scheme(Scheme::Physiological)
        .nodes(10)
        .warehouses(8)
        .density(0.05)
        .segment_pages(16)
        .io_scale(400)
        .costs(CostParams::scaled(40))
        .seed(11)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .replication(1)
        .monitoring(SimDuration::from_secs(5))
        .bucket(SimDuration::from_secs(5))
        .telemetry(true)
        .build();
    db.start_oltp(80, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(20));

    let (calls, committed) = (heap_calls(), db.completed());
    reset_peak();
    let (sources, targets) = ([NodeId(0), NodeId(1)], [NodeId(2), NodeId(3)]);
    let plan = db.plan_scale_out(&sources, &targets);
    db.rebalance_planned(&plan, &targets);
    let mut scanned = 0;
    for _ in 0..10 {
        let table = TpccTable::OrderLine.table_id();
        let scan = db.scan(table, warehouse_range(0, 4), Some(AggFunc::Sum));
        scanned += scan.rows;
        db.run_for(SimDuration::from_secs(5));
    }
    let calls = heap_calls() - calls;
    let committed = db.completed() - committed;

    assert!(committed > 5_000, "the workload ran ({committed} commits)");
    assert!(scanned > 0, "the scans covered rows");
    let moved = db.last_rebalance().map_or(0, |r| r.segments_moved);
    assert!(moved > 0, "the scale-out moved segments");
    let per_txn = calls as f64 / committed as f64;
    println!("heap calls per committed transaction: {per_txn:.2} ({calls} / {committed})");
    assert!(
        per_txn <= BUDGET,
        "{per_txn:.2} heap calls per committed transaction, budget {BUDGET}"
    );

    let (live_mb, peak_mb) = (live_mb(), peak_mb());
    println!("live heap: {live_mb:.2} MB at the end of the window, {peak_mb:.2} MB at most");
    assert!(
        peak_mb <= live_mb + SPIKE_MB,
        "the heap peaked at {peak_mb:.2} MB, {live_mb:.2} MB at the end"
    );
}
