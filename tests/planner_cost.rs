//! Integration: cost-based heat end-to-end — the acceptance scenario for
//! the unified query-cost/heat signal.
//!
//! A point-read-hot warehouse (many cheap accesses) coexists with a
//! scan/aggregation-heavy range (few, expensive accesses). Under
//! cost-based heat the planner must ship the scan segments — the *work* —
//! and leave the point-read segments alone; under the count-based
//! fallback the very same workload inverts: the point-read segments are
//! the count-hottest and move, while the scanned segments (a handful of
//! accesses) stay.
//!
//! Also locks in the back-compat guarantee: with cost tracing disabled
//! the heat table reduces exactly to the legacy weighted-count behaviour,
//! asserted as identical heat trajectories across same-seed runs *and*
//! as exact weighted-counter arithmetic with decay off.

use wattdb_common::{HeatConfig, NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_query::AggFunc;
use wattdb_tpcc::TpccTable;

const SEED: u64 = 31;

fn builder(cost_based: bool) -> wattdb_core::WattDbBuilder {
    let b = WattDb::builder()
        .nodes(3)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(16)
        .seed(SEED)
        .initial_data_nodes(&[NodeId(0)]);
    if cost_based {
        b // cost model is the default
    } else {
        b.cost_model(None)
    }
}

/// Drive the mixed workload: every client hammers warehouse 0 with point
/// operations while Stock in warehouses 2..4 takes frequent
/// scan+aggregation queries — few accesses, heavy operators.
fn drive_mixed(db: &mut WattDb) {
    db.start_oltp_skewed(8, SimDuration::from_millis(50), 1.0, 1);
    let stock = TpccTable::Stock.table_id();
    let scan_range = wattdb_tpcc::warehouse_range(2, 4);
    for _ in 0..16 {
        db.run_for(SimDuration::from_secs(2));
        let report = db.scan(stock, scan_range, Some(AggFunc::Sum));
        assert!(report.segments > 0, "scan range covered: {report:?}");
    }
    db.stop_clients();
    for _ in 0..100 {
        db.run_for(SimDuration::from_millis(500));
        if db.with_cluster(|c| c.jobs.is_empty()) {
            break;
        }
    }
}

/// Per-segment heat snapshot, hottest first.
fn heat(db: &WattDb) -> Vec<wattdb_core::SegmentHeatStat> {
    let now = db.now();
    db.with_cluster(|c| c.heat.snapshot(&c.seg_dir, now))
}

/// The count-hottest pure point segment (most accesses, never scanned).
fn hottest_point_segment(db: &WattDb) -> wattdb_common::SegmentId {
    heat(db)
        .iter()
        .filter(|s| s.scans == 0)
        .max_by_key(|s| s.reads + s.writes)
        .map(|s| s.seg)
        .expect("point-read segments exist")
}

#[test]
fn cost_heat_ships_the_scan_segments_and_spares_the_point_hotspot() {
    let mut db = builder(true).build();
    drive_mixed(&mut db);

    let snap = heat(&db);
    let scanned: Vec<_> = snap.iter().filter(|s| s.scans > 0).collect();
    assert!(!scanned.is_empty(), "scans recorded");
    // The signal itself: a scanned segment with a handful of accesses
    // out-weighs the point-read segment with orders of magnitude more.
    let hot_point = hottest_point_segment(&db);
    let point_row = snap.iter().find(|s| s.seg == hot_point).unwrap();
    let top_scan = scanned
        .iter()
        .max_by(|a, b| a.heat.partial_cmp(&b.heat).unwrap())
        .unwrap();
    assert!(
        top_scan.reads + top_scan.writes + top_scan.scans
            < (point_row.reads + point_row.writes) / 4,
        "scan segment has far fewer accesses: {} vs {}",
        top_scan.reads + top_scan.writes + top_scan.scans,
        point_row.reads + point_row.writes
    );
    assert!(
        top_scan.heat > point_row.heat,
        "but more cost-heat: scan {} vs point {}",
        top_scan.heat,
        point_row.heat
    );
    assert!(
        top_scan.cost.cpu.as_micros() > 0 && top_scan.cost.pages > 0,
        "cost components exposed: {:?}",
        top_scan.cost
    );

    // The planner ships the work.
    let plan = db.plan_scale_out(&[NodeId(0)], &[NodeId(1)]);
    assert!(!plan.is_empty(), "the scan load produces a plan");
    let moved: Vec<_> = plan.moves.iter().map(|m| m.seg).collect();
    assert!(
        moved.iter().any(|s| scanned.iter().any(|r| r.seg == *s)),
        "cost-based plan ships scan segments: {moved:?}"
    );
    assert!(
        !moved.contains(&hot_point),
        "the point-read hotspot stays home under cost heat: {moved:?}"
    );
    // Majority of relocated heat comes from the scanned segments.
    let scanned_heat: f64 = plan
        .moves
        .iter()
        .filter(|m| scanned.iter().any(|r| r.seg == m.seg))
        .map(|m| snap.iter().find(|s| s.seg == m.seg).unwrap().heat)
        .sum();
    assert!(
        scanned_heat > plan.heat_planned * 0.5,
        "scan segments carry the plan: {scanned_heat} of {}",
        plan.heat_planned
    );
}

#[test]
fn count_heat_inverts_the_plan_on_the_same_workload() {
    let mut db = builder(false).build();
    drive_mixed(&mut db);

    let snap = heat(&db);
    let scanned: Vec<_> = snap.iter().filter(|s| s.scans > 0).map(|s| s.seg).collect();
    assert!(!scanned.is_empty());
    let hot_point = hottest_point_segment(&db);

    let plan = db.plan_scale_out(&[NodeId(0)], &[NodeId(1)]);
    assert!(!plan.is_empty(), "the point hotspot produces a plan");
    let moved: Vec<_> = plan.moves.iter().map(|m| m.seg).collect();
    assert!(
        moved.contains(&hot_point),
        "count-based plan ships the point-read hotspot: {moved:?}"
    );
    assert!(
        moved.iter().all(|s| !scanned.contains(s)),
        "the scan segments (a handful of accesses) stay home: {moved:?}"
    );
}

// ------------------------------------------------------------ back-compat

/// One segment's `(id, heat, reads, writes, remote_fetches)` at a
/// checkpoint.
type HeatRow = (u64, f64, u64, u64, u64);

/// Snapshot the per-segment heat trajectory at every checkpoint of a
/// count-based run.
fn count_based_trajectory() -> Vec<Vec<HeatRow>> {
    let mut db = builder(false)
        // Decay off: heat must reduce to a plain weighted counter.
        .heat_tracking(HeatConfig {
            half_life: SimDuration::ZERO,
            ..Default::default()
        })
        .build();
    db.start_oltp_skewed(16, SimDuration::from_millis(30), 0.85, 1);
    let stock = TpccTable::Stock.table_id();
    let mut checkpoints = Vec::new();
    for i in 0..6 {
        db.run_for(SimDuration::from_secs(5));
        if i % 2 == 1 {
            db.scan(stock, wattdb_tpcc::warehouse_range(2, 4), None);
        }
        checkpoints.push(
            heat(&db)
                .into_iter()
                .map(|s| (s.seg.raw(), s.heat, s.reads, s.writes, s.remote_fetches))
                .collect(),
        );
    }
    db.stop_clients();
    checkpoints
}

#[test]
fn count_fallback_reduces_exactly_to_weighted_counts() {
    // Identical trajectories on a fixed seed: the fallback path is
    // deterministic and unchanged run-to-run.
    let a = count_based_trajectory();
    let b = count_based_trajectory();
    assert_eq!(a.len(), b.len());
    for (wa, wb) in a.iter().zip(b.iter()) {
        assert_eq!(wa.len(), wb.len(), "same segment population");
        for (ra, rb) in wa.iter().zip(wb.iter()) {
            assert_eq!(ra.0, rb.0, "same segment order");
            assert!(
                (ra.1 - rb.1).abs() < 1e-12,
                "identical heat trajectory for segment {}: {} vs {}",
                ra.0,
                ra.1,
                rb.1
            );
            assert_eq!((ra.2, ra.3, ra.4), (rb.2, rb.3, rb.4), "identical counters");
        }
    }
    // And the values are exactly the legacy weighted counts: with decay
    // off, heat ≡ reads·rw + writes·ww + remote·mw + scans·rw.
    let mut db = builder(false)
        .heat_tracking(HeatConfig {
            half_life: SimDuration::ZERO,
            ..Default::default()
        })
        .build();
    db.start_oltp_skewed(16, SimDuration::from_millis(30), 0.85, 1);
    db.run_for(SimDuration::from_secs(20));
    db.scan(
        TpccTable::Stock.table_id(),
        wattdb_tpcc::warehouse_range(2, 4),
        Some(AggFunc::Count),
    );
    db.stop_clients();
    for _ in 0..100 {
        db.run_for(SimDuration::from_millis(500));
        if db.with_cluster(|c| c.jobs.is_empty()) {
            break;
        }
    }
    let cfg = db.with_cluster(|c| c.cfg.heat);
    let mut touched = 0;
    for s in heat(&db) {
        let expected = s.reads as f64 * cfg.read_weight
            + s.writes as f64 * cfg.write_weight
            + s.remote_fetches as f64 * cfg.remote_weight
            + s.scans as f64 * cfg.read_weight;
        assert!(
            (s.heat - expected).abs() < 1e-6,
            "segment {:?}: heat {} != weighted counts {expected}",
            s.seg,
            s.heat
        );
        assert!(s.cost.is_zero(), "no cost accumulates when tracing is off");
        if expected > 0.0 {
            touched += 1;
        }
    }
    assert!(touched > 5, "a real workload touched many segments");
    // The facade reports which signal is in force.
    assert_eq!(db.status().heat_signal, "count");
    assert!(db.with_cluster(|c| c.heat.cost_model().is_none()));
    assert_eq!(builder(true).build().status().heat_signal, "cost");
}
