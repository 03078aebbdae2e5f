//! The push-pipeline executor against the executor it replaced.
//!
//! `reference/exec_parent.rs` is the materialize-everything executor: each
//! operator built its whole output before its parent ran. For random plan
//! trees over every operator — Scan, Filter, Project, Sort, GroupAgg,
//! Buffer and Limit — with random placements, so that local and remote
//! boundaries, buffered and unbuffered, occur at every level, and at batch
//! sizes 1 and 128, [`wattdb_query::execute`] must return the same rows
//! and a cost trace `==` to the reference's: same stages, same order, same
//! numbers. The engine charges heat from that trace and replays it in
//! virtual time, so a difference anywhere is a modelled change.
//!
//! Cases come from a fixed seed, so a failure reproduces; the failing
//! case's seed is in the message.

#[path = "reference/exec_parent.rs"]
mod reference;

use wattdb_common::{CostParams, DetRng, Key, KeyRange, NodeId};
use wattdb_query::{
    execute, execute_into, AggFunc, ExecConfig, PlanNode, StageKind, SyntheticTable,
};

/// Plans per batch size.
const CASES: u64 = 400;

fn node(rng: &mut DetRng) -> NodeId {
    NodeId(rng.uniform(0, 2) as u16)
}

fn scan(rng: &mut DetRng) -> PlanNode<'static> {
    let rows = rng.uniform(0, 300);
    let mut table = SyntheticTable::new(rows, rng.uniform(1, 200) as u32, rng.uniform(1, 64));
    if rng.chance(0.3) {
        let lo = rng.uniform(0, rows + 10);
        table = table.with_range(KeyRange::new(Key(lo), Key(lo + rng.uniform(0, 200))));
    }
    PlanNode::Scan {
        source: Box::new(table),
        on: node(rng),
    }
}

/// A random tree of at most `depth` operators above a scan.
fn plan(rng: &mut DetRng, depth: u32) -> PlanNode<'static> {
    if depth == 0 || rng.chance(0.2) {
        return scan(rng);
    }
    let input = Box::new(plan(rng, depth - 1));
    match rng.uniform(0, 5) {
        0 => PlanNode::Filter {
            input,
            threshold: rng.uniform(0, 1000) as i64,
            on: node(rng),
        },
        1 => PlanNode::Project {
            input,
            keep_width: rng.uniform(1, 120) as u32,
            on: node(rng),
        },
        2 => PlanNode::Sort {
            input,
            on: node(rng),
        },
        3 => PlanNode::GroupAgg {
            input,
            func: if rng.chance(0.5) {
                AggFunc::Count
            } else {
                AggFunc::Sum
            },
            on: node(rng),
        },
        4 => PlanNode::Buffer { input },
        _ => PlanNode::Limit {
            input,
            n: rng.uniform(0, 50),
        },
    }
}

#[test]
fn push_pipeline_matches_the_materializing_executor() {
    let params = CostParams::default();
    for batch_size in [1, 128] {
        for case in 0..CASES {
            let seed = batch_size * 1_000_003 + case;
            let mut rng = DetRng::new(seed);
            let cfg = ExecConfig {
                batch_size,
                message_overhead: rng.uniform(0, 128),
            };
            let plan = plan(&mut rng, 5);
            let (rows, trace) = execute(&plan, &params, &cfg);
            let (want_rows, want_trace) = reference::execute(&plan, &params, &cfg);
            assert_eq!(rows, want_rows, "rows of case {seed}");
            assert_eq!(trace, want_trace, "trace of case {seed}");
            let mut pushed = 0;
            let sunk = execute_into(&plan, &params, &cfg, &mut |_| pushed += 1);
            assert_eq!(sunk, want_trace, "sink trace of case {seed}");
            assert_eq!(pushed, want_rows.len(), "rows sunk in case {seed}");
        }
    }
}

/// Limit passes `n` rows on but drains its input: the producer below it
/// is charged for every row it makes, as when it ran to completion first.
#[test]
fn limit_drains_its_input() {
    let plan = PlanNode::Limit {
        input: Box::new(PlanNode::Filter {
            input: Box::new(PlanNode::Buffer {
                input: Box::new(PlanNode::Scan {
                    source: Box::new(SyntheticTable::new(1_000, 64, 10)),
                    on: NodeId(1),
                }),
            }),
            threshold: 100,
            on: NodeId(2),
        }),
        n: 5,
    };
    let (params, cfg) = (CostParams::default(), ExecConfig::default());
    let mut passed = 0;
    let trace = execute_into(&plan, &params, &cfg, &mut |_| passed += 1);
    assert_eq!(passed, 5);
    let scan_cpu = trace.stages[1].kind;
    assert_eq!(
        scan_cpu,
        StageKind::Cpu {
            dur: params.scan_per_record * 1_000
        }
    );
    assert_eq!(trace, reference::execute(&plan, &params, &cfg).1);
}
