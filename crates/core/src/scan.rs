//! Analytic scans over live segments, costed by the query engine.
//!
//! The OLTP executor prices point operations; this module is the bridge
//! for the *other* half of the workload: table/range scans (optionally
//! with an aggregation) that run through `wattdb_query`'s volcano
//! executor against the cluster's real segments. Each covered segment
//! becomes one per-segment plan; [`wattdb_query::execute_into`] evaluates
//! it and emits the [`wattdb_query::CostTrace`] whose stages are replayed
//! through the shared node resources — so scans contend with OLTP for
//! the CPUs the monitor watches — and whose collapsed
//! [`wattdb_common::CostVector`] is charged to the segment's heat.
//!
//! This is where cost-based heat earns its keep: under the cost model a
//! 2 000-record scan with an aggregation charges its full CPU/page bill
//! to the segment, so a scan-heavy segment with a handful of accesses
//! out-weighs a point-read-hot one and the planner ships the *work*. With
//! cost tracing off the same scan is a single access (one
//! [`crate::heat::READ_WEIGHT`]), which is all the legacy count signal
//! could see.
//!
//! Heat is charged at **dispatch time** from the trace — i.e. from the
//! optimizer's cost estimate, exactly the signal Arsov et al. plan on —
//! while the hardware demand is replayed in virtual time.
//!
//! # Cost
//!
//! Segments are planned one at a time, and the plan's scan reads the
//! segment's index in place ([`SegmentIndex::visit_range`]): the range is
//! walked once to count it (an empty segment gets no plan, no heat and no
//! trace) and once by the scan, whose tuples the executor pushes through
//! the aggregation and drops at the root. No key list, range list or row
//! list is built, so a scan's heap is the same whatever its row count —
//! per segment, the two plan boxes, the aggregation's groups and the
//! trace the replay takes over.

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{KeyRange, TableId};
use wattdb_index::SegmentIndex;
use wattdb_query::{execute_into, AggFunc, ExecConfig, PlanNode, RowSource, Tuple, Values};
use wattdb_sim::Completion;

use crate::cluster::ClusterRc;
use crate::replay::{replay_trace, SortMemoryBroker};

/// One segment's keys in the scanned range, adapted to the query engine's
/// [`RowSource`]: it borrows the segment's index under the cluster borrow
/// and walks the range in place when the scan operator pulls, so no key
/// list is built and each tuple, owning no heap memory, goes straight to
/// the operator above.
struct SegmentSource<'a> {
    index: &'a SegmentIndex,
    range: KeyRange,
    pages: u64,
}

impl RowSource for SegmentSource<'_> {
    fn page_count(&self) -> u64 {
        self.pages
    }

    fn push_rows(&self, out: &mut dyn FnMut(Tuple)) {
        self.index.visit_range(self.range, |k, _| {
            out(Tuple {
                key: k,
                // Deterministic pseudo-columns: a value and a group column
                // derived from the key, enough for filter/agg operators.
                values: Values::from([(k.raw() % 1000) as i64, (k.raw() % 16) as i64]),
                // Logical row image shipped between operators (compact column
                // subset; the stored width only matters for disk footprints).
                width: 64,
            })
        });
    }
}

/// Outcome of one dispatched scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanReport {
    /// Segments the scan covered.
    pub segments: usize,
    /// Rows produced across all per-segment plans (pre-aggregation).
    pub rows: u64,
    /// Heat charged across the covered segments (cost-scalarized, or one
    /// [`crate::heat::READ_WEIGHT`] per segment under the count fallback).
    pub heat_charged: f64,
}

/// Dispatch a range scan of `table` over `range`, optionally topped by a
/// [`AggFunc`] group-aggregation on the storage node (the CPU-heavy
/// shape). Per covered segment, in id order — a segment with no key in
/// `range` is not covered: plan it, evaluate the plan with the rows
/// dropped at the root, charge the trace's cost to the segment's heat at
/// the current virtual time, and replay the hardware demands through the
/// cluster's shared resources. Returns the dispatch-time report; the
/// demands drain asynchronously in virtual time.
pub fn submit_scan(
    cl: &ClusterRc,
    sim: &mut wattdb_sim::Sim,
    table: TableId,
    range: KeyRange,
    agg: Option<AggFunc>,
) -> ScanReport {
    let mut report = ScanReport::default();
    let broker = Rc::new(RefCell::new(SortMemoryBroker::default()));
    let mut jobs = Vec::new();
    {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let (params, cfg, now) = (c.cfg.costs, ExecConfig::default(), sim.now());
        let overlapping = |r: KeyRange| r.start < range.end && range.start < r.end;
        for m in c.seg_dir.of_table(table) {
            if !m.key_range.is_some_and(overlapping) {
                continue;
            }
            let Some(index) = c.indexes.get(&m.id) else {
                continue;
            };
            let mut rows = 0;
            index.visit_range(range, |_, _| rows += 1);
            if rows == 0 {
                continue;
            }
            let source = SegmentSource {
                index,
                range,
                pages: (c.store.page_count(m.id) as u64).max(1),
            };
            let on = m.node;
            let mut plan = PlanNode::Scan {
                source: Box::new(source),
                on,
            };
            if let Some(func) = agg {
                plan = PlanNode::GroupAgg {
                    input: Box::new(plan),
                    func,
                    on,
                };
            }
            let trace = execute_into(&plan, &params, &cfg, &mut |_| {});
            let cost = trace.cost_vector();
            let before = c.heat.heat_of(m.id, now).value();
            c.heat.record_scan(m.id, now, cost);
            report.heat_charged += c.heat.heat_of(m.id, now).value() - before;
            report.segments += 1;
            report.rows += rows;
            jobs.push(trace);
        }
    }
    for trace in jobs {
        replay_trace(cl, sim, trace, broker.clone(), Completion::Detached);
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
        assert!(
            (per_seg - crate::heat::READ_WEIGHT).abs() < 1e-9,
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
