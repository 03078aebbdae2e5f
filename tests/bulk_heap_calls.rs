//! The bulk paths continue as data: once their recycled slots are warm, a
//! chunked transfer, a trace replay and a scan's per-segment work make no
//! heap call.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! `alloc`, `alloc_zeroed` and `realloc` calls per thread, the way the
//! benchmark's `allocs_per_txn` does. Pinned, each after one warm-up run
//! of the same shape: a 10-chunk network message and a 3-chunk disk
//! transfer cost nothing (a chunk waits for its predecessor in the
//! kernel's pool, not in a boxed closure); a replayed trace that reads,
//! computes, ships, sorts and spills costs nothing (its cursor sits in a
//! slot of the cluster's replays); and a scan costs the same whether it
//! covers one segment or every segment of its table (one plan for all,
//! stages in a recycled slot, groups in one reused vector).
//!
//! Lives in its own test binary because a global allocator is
//! process-wide; the count is per thread, so the tests (one thread each)
//! do not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use wattdb_common::{
    ByteSize, CostParams, DiskId, DiskSpec, Key, KeyRange, NetworkSpec, NodeId, SimDuration,
    SimTime,
};
use wattdb_core::cluster::Scheme;
use wattdb_core::replay::replay_trace;
use wattdb_core::{Cluster, ClusterConfig, WattDb};
use wattdb_net::network::CHUNK as NET_CHUNK;
use wattdb_net::Network;
use wattdb_query::{execute, AggFunc, CostTrace, ExecConfig, PlanNode, SyntheticTable};
use wattdb_sim::{Completion, Signal, Sim};
use wattdb_storage::disk::CHUNK as DISK_CHUNK;
use wattdb_storage::SimDisk;
use wattdb_tpcc::TpccTable;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap calls `f` makes on this thread.
fn calls(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A simulator whose handler counts the signals delivered to it.
fn counting_sim() -> (Sim, Rc<Cell<u64>>) {
    let (mut sim, delivered) = (Sim::new(), Rc::new(Cell::new(0)));
    let seen = delivered.clone();
    sim.set_handler(move |_, _| seen.set(seen.get() + 1));
    (sim, delivered)
}

#[test]
fn a_warm_chunked_transfer_makes_no_heap_call() {
    let (mut sim, delivered) = counting_sim();
    let net = Network::new(3, NetworkSpec::default());
    let mut disk = SimDisk::new(DiskId::new(NodeId(1), 1), DiskSpec::ssd());
    let message = ByteSize::bytes(10 * NET_CHUNK);
    let transfer = ByteSize::bytes(3 * DISK_CHUNK - 1);
    let done = || Completion::from(Signal::Retry { job: 0 });
    let mut both = |sim: &mut Sim| {
        // Two at once on the same links and drive, so their chunks
        // interleave and both wait in the pool.
        for _ in 0..2 {
            net.send(sim, NodeId(0), NodeId(2), message, done());
            disk.bulk_transfer(sim, transfer, done());
        }
        sim.run_to_completion();
    };
    both(&mut sim);
    assert_eq!(delivered.get(), 4, "warm-up: every transfer lands");
    let before = sim.events_executed();
    assert_eq!(calls(|| both(&mut sim)), 0, "a warm chunked transfer");
    assert_eq!(delivered.get(), 8);
    // One event per chunk: 10 per message, 3 per transfer.
    assert_eq!(sim.events_executed() - before, 2 * (10 + 3));
}

/// A cluster of three idle nodes, its handler installed.
fn idle_cluster() -> (wattdb_core::ClusterRc, Sim) {
    let cfg = ClusterConfig {
        nodes: 3,
        buffer_pages: 128,
        ..Default::default()
    };
    let cl = Cluster::new(cfg, &[NodeId(0), NodeId(1), NodeId(2)]);
    let mut sim = Sim::new();
    wattdb_core::executor::install(&cl, &mut sim);
    (cl, sim)
}

/// A trace that reads and computes on node 1, ships to node 2 and sorts
/// there.
fn remote_sort(rows: u64) -> CostTrace {
    let plan = PlanNode::Sort {
        input: Box::new(PlanNode::Scan {
            source: Box::new(SyntheticTable::new(rows, 100, 80)),
            on: NodeId(1),
        }),
        on: NodeId(2),
    };
    execute(&plan, &CostParams::default(), &ExecConfig::default()).1
}

#[test]
fn a_warm_trace_replay_makes_no_heap_call() {
    let (cl, mut sim) = idle_cluster();
    // The second of two concurrent sorts spills.
    cl.borrow_mut().replays.broker.set_limit(NodeId(2), 150_000);
    let traces: Vec<CostTrace> = (0..4).map(|_| remote_sort(1_000)).collect();
    assert!(traces[0].stages.len() >= 5, "{:?}", traces[0].stages);
    let mut traces = traces.into_iter();
    let mut pair = |sim: &mut Sim| {
        for trace in traces.by_ref().take(2) {
            replay_trace(&cl, sim, trace, Completion::Detached);
        }
        sim.run_to_completion();
    };
    pair(&mut sim);
    let (spills, at) = (cl.borrow().replays.broker.spills, sim.now());
    assert_eq!(spills, 1, "warm-up: one of the two sorts spills");
    assert_eq!(calls(|| pair(&mut sim)), 0, "a warm replay");
    assert_eq!(cl.borrow().replays.broker.spills, 2, "and it spilled again");
    assert!(sim.now() > at, "the replay ran");
}

#[test]
fn a_scan_makes_as_many_heap_calls_over_one_segment_as_over_all() {
    let mut db = WattDb::builder()
        .scheme(Scheme::Physiological)
        .nodes(3)
        .warehouses(2)
        .density(0.05)
        .segment_pages(16)
        .seed(11)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .build();
    let table = TpccTable::OrderLine.table_id();
    let all = KeyRange::new(Key(0), Key(u64::MAX));
    let first = db.with_cluster(|c| {
        let mut segments = c.seg_dir.of_table(table);
        segments
            .next()
            .and_then(|m| m.key_range)
            .expect("a loaded segment")
    });
    let mut scan = |range: KeyRange| {
        let mut segments = 0;
        let heap = calls(|| {
            segments = db.scan(table, range, Some(AggFunc::Sum)).segments;
            db.run_for(SimDuration::from_secs(60));
        });
        (segments, heap)
    };
    scan(all);
    let (one, one_calls) = scan(first);
    let (many, many_calls) = scan(all);
    assert_eq!(one, 1);
    assert!(many > 10, "the table spans {many} segments");
    assert_eq!(many_calls, one_calls, "{one} segment vs {many}");
    assert!(db.now() > SimTime::ZERO);
}
