//! Analytic scans over live segments, costed by the query engine.
//!
//! The OLTP executor prices point operations; this module is the bridge
//! for the *other* half of the workload: table/range scans (optionally
//! with an aggregation) that run through `wattdb_query`'s volcano
//! executor against the cluster's real segments. Each covered segment
//! becomes one per-segment plan; [`wattdb_query::execute`] evaluates it
//! and emits the [`wattdb_query::CostTrace`] whose stages are replayed
//! through the shared node resources — so scans contend with OLTP for
//! the CPUs the monitor watches — and whose collapsed
//! [`wattdb_common::CostVector`] is charged to the segment's heat.
//!
//! This is where cost-based heat earns its keep: under the cost model a
//! 2 000-record scan with an aggregation charges its full CPU/page bill
//! to the segment, so a scan-heavy segment with a handful of accesses
//! out-weighs a point-read-hot one and the planner ships the *work*. With
//! cost tracing off the same scan is a single access (one `read_weight`),
//! which is all the legacy count signal could see.
//!
//! Heat is charged at **dispatch time** from the trace — i.e. from the
//! optimizer's cost estimate, exactly the signal Arsov et al. plan on —
//! while the hardware demand is replayed in virtual time.

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{Key, KeyRange, NodeId, RecordId, SegmentId, TableId};
use wattdb_query::{execute, AggFunc, ExecConfig, PlanNode, RowSource, Tuple, Values};

use crate::cluster::{Cluster, ClusterRc};
use crate::replay::{replay_trace, SortMemoryBroker};

/// A snapshot of one segment's live keys, adapted to the query engine's
/// [`RowSource`]. Taking it under the cluster borrow keeps `execute` pure
/// (it runs with no engine access); the tuples are built once, when the
/// scan operator pulls them, and own no heap memory of their own.
struct SegmentSource {
    entries: Vec<(Key, RecordId)>,
    pages: u64,
}

impl RowSource for SegmentSource {
    fn row_count(&self) -> u64 {
        self.entries.len() as u64
    }

    fn page_count(&self) -> u64 {
        self.pages
    }

    fn rows(&self) -> Vec<Tuple> {
        let rows = self.entries.iter().map(|(k, _)| Tuple {
            key: *k,
            // Deterministic pseudo-columns: a value and a group column
            // derived from the key, enough for filter/agg operators.
            values: Values::from([(k.raw() % 1000) as i64, (k.raw() % 16) as i64]),
            // Logical row image shipped between operators (compact column
            // subset; the stored width only matters for disk footprints).
            width: 64,
        });
        rows.collect()
    }
}

/// One segment's scan assignment: the plan input plus where it lives.
struct SegmentScan {
    seg: SegmentId,
    node: NodeId,
    source: SegmentSource,
}

/// Collect the scan assignments for every segment of `table` intersecting
/// `range`, in segment order.
fn covered_segments(c: &Cluster, table: TableId, range: KeyRange) -> Vec<SegmentScan> {
    let mut scans = Vec::new();
    let mut metas: Vec<_> = c
        .seg_dir
        .iter()
        .filter(|m| m.table == table)
        .filter(|m| match m.key_range {
            Some(r) => r.start < range.end && range.start < r.end,
            None => false,
        })
        .collect();
    metas.sort_by_key(|m| m.id);
    for m in metas {
        let Some(idx) = c.indexes.get(&m.id) else {
            continue;
        };
        let entries = idx.range_scan(range);
        if entries.is_empty() {
            continue;
        }
        scans.push(SegmentScan {
            seg: m.id,
            node: m.node,
            source: SegmentSource {
                entries,
                pages: (c.store.page_count(m.id) as u64).max(1),
            },
        });
    }
    scans
}

/// Outcome of one dispatched scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanReport {
    /// Segments the scan covered.
    pub segments: usize,
    /// Rows produced across all per-segment plans (pre-aggregation).
    pub rows: u64,
    /// Heat charged across the covered segments (cost-scalarized, or one
    /// `read_weight` per segment under the count fallback).
    pub heat_charged: f64,
}

/// Dispatch a range scan of `table` over `range`, optionally topped by a
/// [`AggFunc`] group-aggregation on the storage node (the CPU-heavy
/// shape). Per covered segment: evaluate the plan, charge the trace's
/// cost to the segment's heat at the current virtual time, and replay the
/// hardware demands through the cluster's shared resources. Returns the
/// dispatch-time report; the demands drain asynchronously in virtual
/// time.
pub fn submit_scan(
    cl: &ClusterRc,
    sim: &mut wattdb_sim::Sim,
    table: TableId,
    range: KeyRange,
    agg: Option<AggFunc>,
) -> ScanReport {
    let mut report = ScanReport::default();
    let broker = Rc::new(RefCell::new(SortMemoryBroker::default()));
    let jobs = {
        let mut c = cl.borrow_mut();
        let scans = covered_segments(&c, table, range);
        let params = c.cfg.costs;
        let cfg = ExecConfig::default();
        let now = sim.now();
        let mut jobs = Vec::with_capacity(scans.len());
        for scan in scans {
            let on = scan.node;
            let scanned = scan.source.row_count();
            let mut plan = PlanNode::Scan {
                source: Box::new(scan.source),
                on,
            };
            if let Some(func) = agg {
                plan = PlanNode::GroupAgg {
                    input: Box::new(plan),
                    func,
                    on,
                };
            }
            let (_, trace) = execute(&plan, &params, &cfg);
            let cost = trace.cost_vector();
            let before = c.heat.heat_of(scan.seg, now).value();
            c.heat.record_scan(scan.seg, now, cost);
            report.heat_charged += c.heat.heat_of(scan.seg, now).value() - before;
            report.segments += 1;
            report.rows += scanned;
            jobs.push(trace);
        }
        jobs
    };
    for trace in jobs {
        replay_trace(cl, sim, trace, broker.clone(), |_, _| {});
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::WattDb;
    use wattdb_common::{Key, NodeId, SimDuration};
    use wattdb_tpcc::TpccTable;

    fn db() -> WattDb {
        WattDb::builder()
            .nodes(2)
            .warehouses(2)
            .density(0.02)
            .segment_pages(8)
            .seed(9)
            .initial_data_nodes(&[NodeId(0)])
            .build()
    }

    #[test]
    fn scan_charges_cost_heat_to_the_covered_segments() {
        let mut db = db();
        let table = TpccTable::Stock.table_id();
        let range = wattdb_tpcc::warehouse_range(0, 2);
        let report =
            db.with_runtime(|cl, sim| submit_scan(cl, sim, table, range, Some(AggFunc::Count)));
        assert!(report.segments > 0, "stock segments covered");
        assert!(report.rows > 0, "rows scanned");
        assert!(
            report.heat_charged > 10.0,
            "a scan charges operator cost, not one access: {report:?}"
        );
        let scanned: Vec<_> = db.with_cluster(|c| {
            (c.seg_dir.iter())
                .filter_map(|m| c.heat.stats(m.id).copied())
                .filter(|s| s.scans > 0)
                .collect()
        });
        assert_eq!(scanned.len(), report.segments);
        assert!(scanned.iter().all(|s| s.cost.cpu.as_micros() > 0));
        // The replayed demands occupy the storage node's resources.
        db.run_for(SimDuration::from_secs(5));
    }

    #[test]
    fn count_fallback_charges_one_access_per_segment() {
        let mut db = WattDb::builder()
            .nodes(2)
            .warehouses(2)
            .density(0.02)
            .segment_pages(8)
            .seed(9)
            .initial_data_nodes(&[NodeId(0)])
            .cost_model(None)
            .build();
        let table = TpccTable::Stock.table_id();
        let range = wattdb_tpcc::warehouse_range(0, 2);
        let report =
            db.with_runtime(|cl, sim| submit_scan(cl, sim, table, range, Some(AggFunc::Count)));
        assert!(report.segments > 0);
        let per_seg = report.heat_charged / report.segments as f64;
        let read_weight = db.with_cluster(|c| c.cfg.heat.read_weight);
        assert!(
            (per_seg - read_weight).abs() < 1e-9,
            "count fallback sees one access per segment: {per_seg}"
        );
    }

    #[test]
    fn scan_outside_any_segment_is_a_noop() {
        let mut db = db();
        let table = TpccTable::Stock.table_id();
        let range = KeyRange::new(Key(u64::MAX - 10), Key(u64::MAX - 1));
        let report = db.with_runtime(|cl, sim| submit_scan(cl, sim, table, range, None));
        assert_eq!(report.segments, 0);
        assert_eq!(report.heat_charged, 0.0);
    }
}
