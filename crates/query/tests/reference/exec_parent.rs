//! The executor as it was before it became a push pipeline: every
//! operator built its whole output as a `Vec` and handed it to its
//! parent. Test-only reference, cut down to `execute`; the one change is
//! that the scan collects its source through `push_rows`, the only way a
//! [`RowSource`] gives up its rows now. The executor in `src/exec.rs` must
//! return the same rows and an `==` cost trace for every plan, because the
//! engine charges heat from that trace and replays it in virtual time.

use wattdb_common::{CostParams, NodeId};
use wattdb_query::{AggFunc, CostTrace, ExecConfig, PlanNode, Stage, StageKind, Tuple, Values};

/// Run a plan: returns the result tuples and the cost trace.
pub fn execute(plan: &PlanNode, params: &CostParams, cfg: &ExecConfig) -> (Vec<Tuple>, CostTrace) {
    let mut trace = CostTrace::default();
    let rows = run(plan, params, cfg, &mut trace, plan.placement(), false);
    (rows, trace)
}

fn run(
    node: &PlanNode,
    params: &CostParams,
    cfg: &ExecConfig,
    trace: &mut CostTrace,
    consumer_on: NodeId,
    buffered: bool,
) -> Vec<Tuple> {
    match node {
        PlanNode::Scan { source, on } => {
            let mut rows = Vec::new();
            source.push_rows(&mut |t| rows.push(t));
            trace.stages.push(Stage {
                on: *on,
                kind: StageKind::PageReads {
                    pages: source.page_count(),
                },
            });
            trace.stages.push(Stage {
                on: *on,
                kind: StageKind::Cpu {
                    dur: params.scan_per_record * rows.len() as u64,
                },
            });
            ship_if_remote(&rows, *on, consumer_on, cfg, params, trace, buffered);
            rows
        }
        PlanNode::Filter {
            input,
            threshold,
            on,
        } => {
            let rows = run(input, params, cfg, trace, *on, false);
            let calls = calls_for(rows.len() as u64, cfg);
            let out: Vec<Tuple> = rows
                .into_iter()
                .filter(|t| t.values.first().copied().unwrap_or(0) >= *threshold)
                .collect();
            trace.stages.push(Stage {
                on: *on,
                kind: StageKind::Cpu {
                    dur: params.project_per_record * out.len() as u64
                        + params.call_overhead * calls,
                },
            });
            ship_if_remote(&out, *on, consumer_on, cfg, params, trace, buffered);
            out
        }
        PlanNode::Project {
            input,
            keep_width,
            on,
        } => {
            let rows = run(input, params, cfg, trace, *on, false);
            let calls = calls_for(rows.len() as u64, cfg);
            let out: Vec<Tuple> = rows
                .into_iter()
                .map(|mut t| {
                    t.width = t.width.min(*keep_width);
                    t.values.truncate(1);
                    t
                })
                .collect();
            trace.stages.push(Stage {
                on: *on,
                kind: StageKind::Cpu {
                    dur: params.project_per_record * out.len() as u64
                        + params.call_overhead * calls,
                },
            });
            ship_if_remote(&out, *on, consumer_on, cfg, params, trace, buffered);
            out
        }
        PlanNode::Sort { input, on } => {
            let mut rows = run(input, params, cfg, trace, *on, false);
            rows.sort_by_key(|t| t.key);
            let n = rows.len() as u64;
            let levels = 64 - n.max(1).leading_zeros() as u64;
            let bytes: u64 = rows.iter().map(|t| t.width as u64).sum();
            trace.stages.push(Stage {
                on: *on,
                kind: StageKind::SortWorkspace {
                    bytes,
                    cpu: params.sort_per_record_level * n * levels,
                },
            });
            ship_if_remote(&rows, *on, consumer_on, cfg, params, trace, buffered);
            rows
        }
        PlanNode::GroupAgg { input, func, on } => {
            let rows = run(input, params, cfg, trace, *on, false);
            let n = rows.len() as u64;
            let mut groups: std::collections::BTreeMap<i64, i64> =
                std::collections::BTreeMap::new();
            for t in &rows {
                let g = t.values.get(1).copied().unwrap_or(0);
                let v = t.values.first().copied().unwrap_or(0);
                let slot = groups.entry(g).or_insert(0);
                match func {
                    AggFunc::Count => *slot += 1,
                    AggFunc::Sum => *slot += v,
                }
            }
            let out: Vec<Tuple> = groups
                .into_iter()
                .enumerate()
                .map(|(i, (g, v))| Tuple {
                    key: wattdb_common::Key(i as u64),
                    values: Values::from([v, g]),
                    width: 16,
                })
                .collect();
            trace.stages.push(Stage {
                on: *on,
                kind: StageKind::Cpu {
                    dur: params.agg_per_record * n,
                },
            });
            ship_if_remote(&out, *on, consumer_on, cfg, params, trace, buffered);
            out
        }
        PlanNode::Buffer { input } => run(input, params, cfg, trace, consumer_on, true),
        PlanNode::Limit { input, n } => {
            let mut rows = run(input, params, cfg, trace, consumer_on, buffered);
            rows.truncate(*n as usize);
            rows
        }
    }
}

fn calls_for(rows: u64, cfg: &ExecConfig) -> u64 {
    rows.div_ceil(cfg.batch_size.max(1)).max(1)
}

fn ship_if_remote(
    rows: &[Tuple],
    from: NodeId,
    to: NodeId,
    cfg: &ExecConfig,
    params: &CostParams,
    trace: &mut CostTrace,
    overlapped: bool,
) {
    if from == to {
        return;
    }
    let calls = calls_for(rows.len() as u64, cfg);
    let bytes: u64 =
        rows.iter().map(|t| t.width as u64).sum::<u64>() + calls * cfg.message_overhead;
    trace.stages.push(Stage {
        on: from,
        kind: StageKind::NetTransfer {
            from,
            to,
            bytes,
            calls,
            overlapped,
        },
    });
    trace.stages.push(Stage {
        on: to,
        kind: StageKind::Cpu {
            dur: params.call_overhead * calls * 2,
        },
    });
}
