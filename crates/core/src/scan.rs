//! Analytic scans over live segments, costed by the query engine.
//!
//! The OLTP executor prices point operations; this module is the bridge
//! for the *other* half of the workload: range scans (optionally with an
//! aggregation) that run through `wattdb_query`'s executor against the
//! cluster's real segments. Each covered segment's evaluation emits a
//! [`wattdb_query::CostTrace`] whose stages are replayed through the
//! shared node resources — so scans contend with OLTP for the CPUs the
//! monitor watches — and whose [`wattdb_common::CostVector`] is charged
//! to the segment's heat at **dispatch time** (the optimizer's estimate,
//! the signal Arsov et al. plan on). Under the cost model a scan with an
//! aggregation charges its full CPU/page bill, so a scan-heavy segment
//! out-weighs a point-read-hot one; with cost tracing off it is a single
//! access ([`crate::heat::READ_WEIGHT`]).
//!
//! # Cost
//!
//! One plan serves every covered segment, reading the one set on its
//! source in place ([`SegmentIndex::visit_range`]): a range is walked once
//! to count it (an empty segment gets no run, heat or replay) and once by
//! the scan, whose tuples are dropped at the root. The stages go into a
//! recycled replay slot ([`crate::replay`]) and the groups into one reused
//! vector, so a warm scan's heap calls are its plan's two boxes, whatever
//! its rows and segments.

use std::cell::Cell;

use wattdb_common::{KeyRange, NodeId, TableId};
use wattdb_index::SegmentIndex;
use wattdb_query::{execute_into, AggFunc, ExecConfig, PlanNode, RowSource, Tuple, Values};
use wattdb_sim::Completion;

use crate::cluster::ClusterRc;
use crate::replay::step;

/// The scanned range of the segment being planned, adapted to the query
/// engine's [`RowSource`]: it borrows the segment's index under the
/// cluster borrow and walks the range in place when the scan operator
/// pulls, so no key list is built and each tuple, owning no heap memory,
/// goes straight to the operator above.
struct SegmentSource<'a> {
    /// The segment's index and page count.
    segment: Cell<Option<(&'a SegmentIndex, u64)>>,
    range: KeyRange,
}

impl RowSource for &SegmentSource<'_> {
    fn page_count(&self) -> u64 {
        self.segment.get().map_or(0, |(_, pages)| pages)
    }

    fn push_rows(&self, out: &mut dyn FnMut(Tuple)) {
        let Some((index, _)) = self.segment.get() else {
            return;
        };
        index.visit_range(self.range, |k, _| {
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
/// shape). Per covered segment (one with a key in `range`), in id order:
/// evaluate the plan on the segment's node, charge the trace's cost to
/// its heat now and start replaying the hardware demands. Returns the
/// dispatch-time report; the demands drain in virtual time.
pub fn submit_scan(
    cl: &ClusterRc,
    sim: &mut wattdb_sim::Sim,
    table: TableId,
    range: KeyRange,
    agg: Option<AggFunc>,
) -> ScanReport {
    let mut report = ScanReport::default();
    let mut c = cl.borrow_mut();
    let c = &mut *c;
    let (params, cfg, now) = (c.cfg.costs, ExecConfig::default(), sim.now());
    let source = SegmentSource {
        segment: Cell::new(None),
        range,
    };
    let on = NodeId::MASTER;
    let mut plan = PlanNode::Scan {
        source: Box::new(&source),
        on,
    };
    if let Some(func) = agg {
        let input = Box::new(plan);
        plan = PlanNode::GroupAgg { input, func, on };
    }
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
        let pages = (c.store.page_count(m.id) as u64).max(1);
        source.segment.set(Some((index, pages)));
        let (slot, trace, groups) = c.replays.open(Completion::Detached);
        execute_into(&plan, &params, &cfg, trace, groups, &mut |_| {});
        // The plan runs on one node, so its trace is the same on any.
        trace.stages.iter_mut().for_each(|s| s.on = m.node);
        let cost = trace.cost_vector();
        let before = c.heat.heat_of(m.id, now).value();
        c.heat.record_scan(m.id, now, cost);
        report.heat_charged += c.heat.heat_of(m.id, now).value() - before;
        report.segments += 1;
        report.rows += rows;
        // A scan's `done` is detached: there is nothing to complete.
        step((&mut c.replays, &mut c.nodes, &c.net), sim, slot, 0);
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
