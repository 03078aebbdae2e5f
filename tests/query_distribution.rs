//! Integration: distributed query processing over the cluster — operator
//! placement, pruning, and the §3.3 offloading behaviour end to end.

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{CostParams, Key, KeyRange, NodeId, SimDuration};
use wattdb_core::replay::{replay_trace, SortMemoryBroker};
use wattdb_core::{Cluster, ClusterConfig};
use wattdb_query::{execute, AggFunc, ExecConfig, PlanNode, SyntheticTable};
use wattdb_sim::{Completion, Sim};

fn cluster(nodes: u16) -> wattdb_core::ClusterRc {
    let active: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    Cluster::new(
        ClusterConfig {
            nodes,
            buffer_pages: 1024,
            ..Default::default()
        },
        &active,
    )
}

fn timed(plan: &PlanNode, cl: &wattdb_core::ClusterRc, sim: &mut Sim) -> SimDuration {
    let (_, trace) = execute(plan, &CostParams::default(), &ExecConfig::default());
    let broker = Rc::new(RefCell::new(SortMemoryBroker::default()));
    let out: Rc<RefCell<Option<SimDuration>>> = Rc::new(RefCell::new(None));
    let (o, started) = (out.clone(), sim.now());
    let done = Completion::call(move |sim| *o.borrow_mut() = Some(sim.now().since(started)));
    replay_trace(cl, sim, trace, broker, done);
    sim.run_to_completion();
    let d = out.borrow().expect("completed");
    d
}

#[test]
fn placement_pipeline_local_blocking_offloaded() {
    // A hot data node n1: the (pipelining) filter stays with its scan, the
    // aggregation runs on the cool n2, and a buffering operator hides the
    // shipping between them.
    let plan = PlanNode::GroupAgg {
        input: Box::new(PlanNode::Buffer {
            input: Box::new(PlanNode::Filter {
                input: Box::new(PlanNode::Scan {
                    source: Box::new(SyntheticTable::new(5_000, 100, 80)),
                    on: NodeId(1),
                }),
                threshold: i64::MIN,
                on: NodeId(1),
            }),
        }),
        func: AggFunc::Count,
        on: NodeId(2),
    };
    // The offloaded plan computes the right answer through the cluster.
    let cl = cluster(3);
    let mut sim = Sim::new();
    let (rows, _) = execute(&plan, &CostParams::default(), &ExecConfig::default());
    assert_eq!(rows.len(), 16, "16 groups");
    assert!(rows.iter().all(|t| t.values[0] > 0));
    let d = timed(&plan, &cl, &mut sim);
    assert!(d > SimDuration::ZERO);
}

#[test]
fn pruned_scan_reads_fewer_pages_and_finishes_faster() {
    let cl = cluster(2);
    let full = PlanNode::Scan {
        source: Box::new(SyntheticTable::new(50_000, 100, 80)),
        on: NodeId(1),
    };
    let pruned = PlanNode::Scan {
        source: Box::new(
            SyntheticTable::new(50_000, 100, 80)
                .with_range(KeyRange::new(Key(10_000), Key(15_000))),
        ),
        on: NodeId(1),
    };
    let mut sim = Sim::new();
    let t_full = timed(&full, &cl, &mut sim);
    // A cluster of its own: resources book time on one simulator's clock.
    let cl = cluster(2);
    let mut sim = Sim::new();
    let t_pruned = timed(&pruned, &cl, &mut sim);
    assert!(
        t_pruned.as_micros() * 5 < t_full.as_micros(),
        "segment pruning pays: {t_pruned} vs {t_full}"
    );
}

#[test]
fn concurrent_queries_contend_on_shared_cpu() {
    // One query alone vs. eight concurrent ones on the same node: the
    // shared-resource replay must show queueing delay.
    let cl = cluster(2);
    let plan = || PlanNode::Sort {
        input: Box::new(PlanNode::Scan {
            source: Box::new(SyntheticTable::new(2_000, 100, 80)),
            on: NodeId(1),
        }),
        on: NodeId(1),
    };
    let mut sim = Sim::new();
    let solo = timed(&plan(), &cl, &mut sim);
    let cl = cluster(2);
    let mut sim = Sim::new();
    let broker = Rc::new(RefCell::new(SortMemoryBroker::default()));
    let latencies: Rc<RefCell<Vec<SimDuration>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..8 {
        let (_, trace) = execute(&plan(), &CostParams::default(), &ExecConfig::default());
        let (l, started) = (latencies.clone(), sim.now());
        let done = Completion::call(move |sim| l.borrow_mut().push(sim.now().since(started)));
        replay_trace(&cl, &mut sim, trace, broker.clone(), done);
    }
    sim.run_to_completion();
    let worst = latencies.borrow().iter().copied().max().unwrap();
    assert!(
        worst.as_micros() > solo.as_micros() * 3,
        "contention stretches the tail: solo {solo}, worst of 8 {worst}"
    );
}

#[test]
fn projection_before_shipping_reduces_wire_time() {
    let cl = cluster(3);
    // Sort remotely, shipping wide (2 KB) vs. projected-narrow tuples.
    let wide = PlanNode::Sort {
        input: Box::new(PlanNode::Scan {
            source: Box::new(SyntheticTable::new(20_000, 2000, 4)),
            on: NodeId(1),
        }),
        on: NodeId(2),
    };
    let narrow = PlanNode::Sort {
        input: Box::new(PlanNode::Project {
            input: Box::new(PlanNode::Scan {
                source: Box::new(SyntheticTable::new(20_000, 2000, 4)),
                on: NodeId(1),
            }),
            keep_width: 16,
            on: NodeId(1),
        }),
        on: NodeId(2),
    };
    let mut sim = Sim::new();
    let t_wide = timed(&wide, &cl, &mut sim);
    // A cluster of its own: resources book time on one simulator's clock.
    let cl = cluster(3);
    let mut sim = Sim::new();
    let t_narrow = timed(&narrow, &cl, &mut sim);
    assert!(
        t_narrow < t_wide,
        "early projection wins: {t_narrow} vs {t_wide}"
    );
}
