//! The volcano executor: functional evaluation plus cost traces.
//!
//! Execution is *real* — scans produce tuples, sorts sort, aggregations
//! aggregate — and alongside the data the executor emits a [`CostTrace`]:
//! the ordered hardware demands (CPU slices, page reads, network transfers,
//! sort workspaces) that the simulation replays through the shared node
//! resources to obtain virtual-time latency and contention.
//!
//! Operator modes (§3.3):
//! * **single-record volcano** — every `next()` ships one record; a remote
//!   boundary costs one round trip per record (the Fig. 1 cliff);
//! * **vectorized** — `next()` ships a batch of records, dividing the
//!   per-call overhead by the batch size;
//! * **buffering operator** — a prefetch proxy on the producer's node that
//!   overlaps shipping with production, hiding transfer time behind
//!   upstream work.
//!
//! **Pipelining is literal.** A scan pushes each tuple into its consumer
//! as its [`RowSource`](crate::plan::RowSource) yields it, and Filter,
//! Project, Buffer and Limit pass it on, counting rows and widths as they
//! go; only the blocking operators hold anything — Sort its input,
//! GroupAgg its groups. [`execute_into`] hands the root's tuples to a
//! sink, so a caller that keeps only the trace (a segment scan charging
//! heat) builds no row list at all. Each operator pushes its stages when
//! its input ends, so the trace is in post-order with the numbers a
//! materialize-everything evaluation gives.

use wattdb_common::{CostParams, CostVector, NodeId, SimDuration};

use crate::plan::{AggFunc, PlanNode, Tuple, Values};

/// One hardware demand in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Compute on the stage's node.
    Cpu {
        /// Core time.
        dur: SimDuration,
    },
    /// Page accesses through the node's buffer pool (misses go to disk).
    PageReads {
        /// Pages touched.
        pages: u64,
    },
    /// Record shipping across the interconnect.
    NetTransfer {
        /// Producer node.
        from: NodeId,
        /// Consumer node.
        to: NodeId,
        /// Payload bytes.
        bytes: u64,
        /// `next()` calls (each pays a round trip when not overlapped).
        calls: u64,
        /// True if a buffering operator prefetches: transfer time hides
        /// behind production and only the residual is charged.
        overlapped: bool,
    },
    /// Blocking sort workspace; the replay spills to disk if the node's
    /// sort memory is oversubscribed.
    SortWorkspace {
        /// Workspace bytes (input size).
        bytes: u64,
        /// Comparison work.
        cpu: SimDuration,
    },
}

/// A stage bound to the node executing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Executing node.
    pub on: NodeId,
    /// The demand.
    pub kind: StageKind,
}

/// Ordered hardware demands of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostTrace {
    /// Stages in execution (pull) order.
    pub stages: Vec<Stage>,
}

impl CostTrace {
    fn sum(&self, of: impl Fn(StageKind) -> u64) -> u64 {
        self.stages.iter().map(|s| of(s.kind)).sum()
    }

    /// Total CPU time across stages (unloaded lower bound).
    pub fn total_cpu(&self) -> SimDuration {
        SimDuration::from_micros(self.sum(|k| match k {
            StageKind::Cpu { dur } => dur.as_micros(),
            StageKind::SortWorkspace { cpu, .. } => cpu.as_micros(),
            _ => 0,
        }))
    }

    /// Total bytes shipped.
    pub fn total_net_bytes(&self) -> u64 {
        self.sum(|k| match k {
            StageKind::NetTransfer { bytes, .. } => bytes,
            _ => 0,
        })
    }

    /// Total pages read.
    pub fn total_pages(&self) -> u64 {
        self.sum(|k| match k {
            StageKind::PageReads { pages } => pages,
            _ => 0,
        })
    }

    /// Collapse the trace into the common [`CostVector`] currency — the
    /// bridge between operator-level cost traces and the per-segment
    /// cost-heat accounting (`CostModel` scalarizes this into heat).
    pub fn cost_vector(&self) -> CostVector {
        CostVector {
            cpu: self.total_cpu(),
            pages: self.total_pages(),
            net_bytes: self.total_net_bytes(),
        }
    }
}

/// Execution settings.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Records per `next()` call; 1 = classic volcano single-record mode.
    pub batch_size: u64,
    /// Per-message envelope bytes added to each shipped batch.
    pub message_overhead: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            batch_size: 128,
            message_overhead: 64,
        }
    }
}

/// Run a plan: returns the result tuples and the cost trace.
pub fn execute(
    plan: &PlanNode<'_>,
    params: &CostParams,
    cfg: &ExecConfig,
) -> (Vec<Tuple>, CostTrace) {
    let (mut rows, mut trace) = (Vec::new(), CostTrace::default());
    let sink = &mut |t| rows.push(t);
    execute_into(plan, params, cfg, &mut trace, &mut Vec::new(), sink);
    (rows, trace)
}

/// Run a plan, appending its stages to `trace` and pushing each result
/// tuple into `sink` as the root emits it: a sink that drops the rows
/// leaves only the blocking operators' state held. A caller that keeps
/// `trace` and `groups` (GroupAgg's groups, handed back empty)
/// across plans evaluates a warm plan with no allocation.
pub fn execute_into(
    plan: &PlanNode<'_>,
    params: &CostParams,
    cfg: &ExecConfig,
    trace: &mut CostTrace,
    groups: &mut Vec<(i64, i64)>,
    sink: &mut dyn FnMut(Tuple),
) {
    let mut run = Run {
        params,
        cfg,
        trace,
        groups,
    };
    run.node(plan, plan.placement(), false, sink);
}

/// Rows and logical bytes an operator has emitted: what shipping them
/// costs.
#[derive(Default)]
struct Flow {
    rows: u64,
    bytes: u64,
}

impl Flow {
    fn count(&mut self, t: &Tuple) {
        self.rows += 1;
        self.bytes += t.width as u64;
    }
}

/// One evaluation: its settings, the trace it writes, GroupAgg's scratch.
struct Run<'p> {
    params: &'p CostParams,
    cfg: &'p ExecConfig,
    trace: &'p mut CostTrace,
    groups: &'p mut Vec<(i64, i64)>,
}

impl Run<'_> {
    /// Evaluate `node`, pushing its output into `out`. `consumer_on` is
    /// the node `out` runs on; `buffered` is true when a Buffer proxy sits
    /// between this producer and the consumer. An operator pushes its
    /// stages once its input has ended, after its input's own: the trace
    /// comes out in post-order, the order the stages are demanded in.
    fn node(
        &mut self,
        node: &PlanNode<'_>,
        consumer_on: NodeId,
        buffered: bool,
        out: &mut dyn FnMut(Tuple),
    ) {
        let params = self.params;
        match node {
            PlanNode::Scan { source, on } => {
                let mut flow = Flow::default();
                source.push_rows(&mut |t| {
                    flow.count(&t);
                    out(t);
                });
                let pages = source.page_count();
                self.stage(*on, StageKind::PageReads { pages });
                let dur = params.scan_per_record * flow.rows;
                self.stage(*on, StageKind::Cpu { dur });
                self.ship(&flow, *on, consumer_on, buffered);
            }
            PlanNode::Filter {
                input,
                threshold,
                on,
            } => {
                let (mut seen, mut flow) = (0, Flow::default());
                self.node(input, *on, false, &mut |t| {
                    seen += 1;
                    if t.values.first().copied().unwrap_or(0) >= *threshold {
                        flow.count(&t);
                        out(t);
                    }
                });
                self.pipelined(*on, seen, &flow);
                self.ship(&flow, *on, consumer_on, buffered);
            }
            PlanNode::Project {
                input,
                keep_width,
                on,
            } => {
                let mut flow = Flow::default();
                self.node(input, *on, false, &mut |mut t| {
                    t.width = t.width.min(*keep_width);
                    t.values.truncate(1);
                    flow.count(&t);
                    out(t);
                });
                self.pipelined(*on, flow.rows, &flow);
                self.ship(&flow, *on, consumer_on, buffered);
            }
            PlanNode::Sort { input, on } => {
                let mut rows = Vec::new();
                self.node(input, *on, false, &mut |t| rows.push(t));
                rows.sort_by_key(|t| t.key);
                let mut flow = Flow::default();
                rows.iter().for_each(|t| flow.count(t));
                let levels = 64 - flow.rows.max(1).leading_zeros() as u64;
                let cpu = params.sort_per_record_level * flow.rows * levels;
                let bytes = flow.bytes;
                self.stage(*on, StageKind::SortWorkspace { bytes, cpu });
                self.ship(&flow, *on, consumer_on, buffered);
                rows.into_iter().for_each(out);
            }
            PlanNode::GroupAgg { input, func, on } => {
                // A GroupAgg below this one finds the scratch taken.
                let (mut n, mut groups) = (0, std::mem::take(self.groups));
                self.node(input, *on, false, &mut |t| {
                    n += 1;
                    let g = t.values.get(1).copied().unwrap_or(0);
                    let v = t.values.first().copied().unwrap_or(0);
                    let v = if *func == AggFunc::Count { 1 } else { v };
                    match groups.iter().position(|&(k, _)| k == g) {
                        Some(at) => groups[at].1 += v,
                        None => groups.push((g, v)),
                    }
                });
                groups.sort_unstable_by_key(|&(g, _)| g);
                let dur = params.agg_per_record * n;
                self.stage(*on, StageKind::Cpu { dur });
                let (width, rows) = (16, groups.len() as u64);
                let flow = Flow {
                    rows,
                    bytes: rows * width as u64,
                };
                self.ship(&flow, *on, consumer_on, buffered);
                for (i, (g, v)) in groups.drain(..).enumerate() {
                    out(Tuple {
                        key: wattdb_common::Key(i as u64),
                        values: Values::from([v, g]),
                        width,
                    });
                }
                *self.groups = groups;
            }
            PlanNode::Buffer { input } => {
                // The proxy sits on the producer's node; it marks the producer's
                // shipment to the consumer as overlapped.
                self.node(input, consumer_on, true, out)
            }
            PlanNode::Limit { input, n } => {
                // Drains its input all the same: the producer is charged for
                // every row it makes, as when it ran to completion first.
                let mut left = *n;
                self.node(input, consumer_on, buffered, &mut |t| {
                    if left > 0 {
                        left -= 1;
                        out(t);
                    }
                });
            }
        }
    }

    fn stage(&mut self, on: NodeId, kind: StageKind) {
        self.trace.stages.push(Stage { on, kind });
    }

    /// A pipelining operator's CPU: per row it emitted, plus one call
    /// overhead per batch of the `seen` rows it was handed.
    fn pipelined(&mut self, on: NodeId, seen: u64, flow: &Flow) {
        let calls = calls_for(seen, self.cfg);
        let dur = self.params.project_per_record * flow.rows + self.params.call_overhead * calls;
        self.stage(on, StageKind::Cpu { dur });
    }

    fn ship(&mut self, flow: &Flow, from: NodeId, to: NodeId, overlapped: bool) {
        if from == to {
            return;
        }
        let calls = calls_for(flow.rows, self.cfg);
        let bytes = flow.bytes + calls * self.cfg.message_overhead;
        self.stage(
            from,
            StageKind::NetTransfer {
                from,
                to,
                bytes,
                calls,
                overlapped,
            },
        );
        // Marshalling CPU for both endpoints, charged at the receiver: a
        // separate sender-side stage would convoy behind the sender's queued
        // scans in the FIFO replay and serialize the whole pipeline.
        let dur = self.params.call_overhead * calls * 2;
        self.stage(to, StageKind::Cpu { dur });
    }
}

fn calls_for(rows: u64, cfg: &ExecConfig) -> u64 {
    rows.div_ceil(cfg.batch_size.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SyntheticTable;
    use wattdb_common::Key;

    fn params() -> CostParams {
        CostParams::default()
    }

    fn scan(n: u64, on: u16) -> PlanNode<'static> {
        PlanNode::Scan {
            source: Box::new(SyntheticTable::new(n, 100, 50)),
            on: NodeId(on),
        }
    }

    #[test]
    fn local_scan_produces_rows_and_cpu() {
        let plan = scan(1000, 1);
        let (rows, trace) = execute(&plan, &params(), &ExecConfig::default());
        assert_eq!(rows.len(), 1000);
        assert_eq!(trace.total_net_bytes(), 0, "local: no shipping");
        assert_eq!(trace.total_pages(), 20);
        assert!(trace.total_cpu() >= SimDuration::from_micros(21 * 1000));
    }

    #[test]
    fn sort_actually_sorts() {
        let plan = PlanNode::Sort {
            input: Box::new(scan(500, 1)),
            on: NodeId(1),
        };
        let (rows, trace) = execute(&plan, &params(), &ExecConfig::default());
        assert!(rows.windows(2).all(|w| w[0].key <= w[1].key));
        assert!(trace
            .stages
            .iter()
            .any(|s| matches!(s.kind, StageKind::SortWorkspace { .. })));
    }

    #[test]
    fn group_agg_counts() {
        let plan = PlanNode::GroupAgg {
            input: Box::new(scan(160, 1)),
            func: AggFunc::Count,
            on: NodeId(1),
        };
        let (rows, _) = execute(&plan, &params(), &ExecConfig::default());
        // 16 groups (key % 16), 10 each.
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|t| t.values[0] == 10));
    }

    #[test]
    fn filter_applies_predicate() {
        let plan = PlanNode::Filter {
            input: Box::new(scan(1000, 1)),
            threshold: 500,
            on: NodeId(1),
        };
        let (rows, _) = execute(&plan, &params(), &ExecConfig::default());
        assert!(!rows.is_empty());
        assert!(rows.len() < 1000);
        assert!(rows.iter().all(|t| t.values[0] >= 500));
    }

    #[test]
    fn remote_single_record_pays_per_call() {
        let remote_single = PlanNode::Project {
            input: Box::new(scan(1000, 1)),
            keep_width: 50,
            on: NodeId(2),
        };
        let cfg1 = ExecConfig {
            batch_size: 1,
            ..Default::default()
        };
        let (_, t1) = execute(&remote_single, &params(), &cfg1);
        let cfg128 = ExecConfig {
            batch_size: 128,
            ..Default::default()
        };
        let (_, t128) = execute(&remote_single, &params(), &cfg128);
        let calls = |t: &CostTrace| {
            t.stages
                .iter()
                .filter_map(|s| match s.kind {
                    StageKind::NetTransfer { calls, .. } => Some(calls),
                    _ => None,
                })
                .sum::<u64>()
        };
        assert_eq!(calls(&t1), 1000);
        assert_eq!(calls(&t128), 8);
        assert!(
            t1.total_net_bytes() > t128.total_net_bytes(),
            "more envelopes"
        );
    }

    #[test]
    fn projection_narrows_shipped_bytes() {
        // Project before shipping: cheaper transfer.
        let narrow_then_ship = PlanNode::Sort {
            input: Box::new(PlanNode::Project {
                input: Box::new(scan(1000, 1)),
                keep_width: 10,
                on: NodeId(1),
            }),
            on: NodeId(2),
        };
        let ship_then_wide = PlanNode::Sort {
            input: Box::new(scan(1000, 1)),
            on: NodeId(2),
        };
        let (_, a) = execute(&narrow_then_ship, &params(), &ExecConfig::default());
        let (_, b) = execute(&ship_then_wide, &params(), &ExecConfig::default());
        assert!(a.total_net_bytes() < b.total_net_bytes());
    }

    #[test]
    fn buffer_marks_transfer_overlapped() {
        let plan = PlanNode::Project {
            input: Box::new(PlanNode::Buffer {
                input: Box::new(scan(1000, 1)),
            }),
            keep_width: 50,
            on: NodeId(2),
        };
        let (rows, trace) = execute(&plan, &params(), &ExecConfig::default());
        assert_eq!(rows.len(), 1000);
        let overlapped = trace.stages.iter().any(|s| {
            matches!(
                s.kind,
                StageKind::NetTransfer {
                    overlapped: true,
                    ..
                }
            )
        });
        assert!(overlapped);
    }

    #[test]
    fn limit_truncates() {
        let plan = PlanNode::Limit {
            input: Box::new(scan(1000, 1)),
            n: 7,
        };
        let (rows, _) = execute(&plan, &params(), &ExecConfig::default());
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].key, Key(0));
    }

    #[test]
    fn trace_stage_order_is_pull_order() {
        let plan = PlanNode::Sort {
            input: Box::new(scan(100, 1)),
            on: NodeId(2),
        };
        let (_, trace) = execute(&plan, &params(), &ExecConfig::default());
        // Scan stages (pages, cpu) precede the transfer, which precedes the
        // sort workspace.
        let kinds: Vec<&str> = trace
            .stages
            .iter()
            .map(|s| match s.kind {
                StageKind::PageReads { .. } => "pages",
                StageKind::Cpu { .. } => "cpu",
                StageKind::NetTransfer { .. } => "net",
                StageKind::SortWorkspace { .. } => "sort",
            })
            .collect();
        let pages_at = kinds.iter().position(|k| *k == "pages").unwrap();
        let net_at = kinds.iter().position(|k| *k == "net").unwrap();
        let sort_at = kinds.iter().position(|k| *k == "sort").unwrap();
        assert!(pages_at < net_at && net_at < sort_at);
    }
}
