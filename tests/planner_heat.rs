//! Integration: the heat-aware planner under a skewed (hot-range) TPC-C
//! workload — the acceptance scenario for the heat/planner subsystem.
//!
//! Most clients hammer warehouse 0, which sits at the *bottom* of node
//! 0's key space. The fraction heuristic — `wattdb_planner::plan_fraction`,
//! the one a scripted `db.rebalance` runs — shaves the *top* half of
//! the key-ordered segments, so it ships cold data and leaves the hotspot
//! in place; the heat-aware planner must (a) predict a strictly lower
//! post-rebalance max-node heat, (b) ship no more bytes, and (c) actually
//! deliver that balance when the plan executes.

use wattdb_common::{CostParams, NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::heat::segment_stats;
use wattdb_core::Planner;
use wattdb_tpcc::TenantSpec;

fn skewed_db() -> WattDb {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(16)
        .costs(CostParams::scaled(40))
        .seed(3)
        .initial_data_nodes(&[NodeId(0)])
        .build();
    // 85 % of the clients live on warehouse 0: a hot range at the bottom
    // of node 0's key space.
    let tenant = TenantSpec {
        hot_fraction: 0.85,
        ..TenantSpec::default()
    };
    db.start_tenant(32, SimDuration::from_millis(30), tenant);
    db.run_for(SimDuration::from_secs(60));
    db.stop_clients();
    // Drain in-flight work so footprints and heat are stable.
    for _ in 0..100 {
        db.run_for(SimDuration::from_millis(500));
        if db.with_cluster(|c| c.jobs.is_empty()) {
            break;
        }
    }
    db
}

#[test]
fn heat_aware_beats_fraction_on_skewed_load_and_executes() {
    let mut db = skewed_db();

    // The workload left a visible hotspot on node 0, readable through the
    // public surface.
    let status = db.status();
    assert!(status.nodes[0].heat > 0.0, "hotspot visible in status()");
    // Plan both ways over the identical cluster state.
    let stats =
        db.with_runtime(|cl, sim| segment_stats(&cl.borrow(), sim.now(), SimDuration::ZERO));
    assert!(!stats.is_empty(), "per-segment stats exposed");
    let hottest = (stats.iter())
        .max_by(|a, b| a.heat.total_cmp(&b.heat))
        .unwrap();
    let counts = db.with_cluster(|c| *c.heat.stats(hottest.seg).unwrap());
    assert!(
        counts.reads + counts.writes > 0,
        "access counters recorded: {counts:?}"
    );
    let heat_plan = db.plan_scale_out(&[NodeId(0)], &[NodeId(2)]);
    let frac_plan = wattdb_planner::plan_fraction(&stats, 0.5, &[NodeId(0)], &[NodeId(2)]);

    assert!(!heat_plan.is_empty(), "the hotspot produces a plan");
    assert!(
        heat_plan.predicted_max_heat() < frac_plan.predicted_max_heat(),
        "heat-aware strictly lower predicted max heat: {} vs {}",
        heat_plan.predicted_max_heat(),
        frac_plan.predicted_max_heat()
    );
    assert!(
        heat_plan.bytes_planned <= frac_plan.bytes_planned,
        "no more bytes shipped: {} vs {}",
        heat_plan.bytes_planned,
        frac_plan.bytes_planned
    );

    // Execute the heat plan and let it run out.
    let pre_max_share = {
        let nodes = db.status().nodes;
        nodes[0].heat / nodes.iter().map(|n| n.heat).sum::<f64>()
    };
    assert!(pre_max_share > 0.99, "all heat starts on node 0");
    let planned_moves = heat_plan.moves.len() as u64;
    db.rebalance_planned(&heat_plan, &[NodeId(2)]);
    for _ in 0..120 {
        db.run_for(SimDuration::from_secs(5));
        if !db.rebalancing() {
            break;
        }
    }
    assert!(!db.rebalancing(), "planned rebalance terminates");

    let report = db.last_rebalance().expect("report recorded");
    assert_eq!(report.planner, Planner::HeatAware);
    assert_eq!(report.segments_moved, planned_moves);
    assert!(
        report.heat_planned > 0.0,
        "planned heat recorded: {report:?}"
    );
    assert!(report.heat_moved > 0.0, "moved heat recorded: {report:?}");
    assert_eq!(
        db.with_cluster(|c| c.metrics.rebalances.len()),
        1,
        "history records the run"
    );

    // The hot segments genuinely arrived: heat shares (decay-invariant,
    // since every segment decays by the same factor) are now spread.
    let nodes = db.status().nodes;
    let total: f64 = nodes.iter().map(|n| n.heat).sum();
    assert!(total > 0.0);
    let n0 = nodes[0].heat / total;
    let n2 = nodes[2].heat / total;
    assert!(n2 > 0.0, "heat arrived on the target");
    let max_share = n0.max(n2);
    assert!(
        max_share < pre_max_share,
        "post-rebalance hotspot reduced: {max_share} vs {pre_max_share}"
    );
}

#[test]
fn fraction_planner_ships_cold_segments_on_the_same_skew() {
    // Control experiment: on the identical skewed state, the fraction
    // heuristic relocates less heat per byte than the heat-aware plan —
    // the imbalance the tentpole exists to fix.
    let mut db = skewed_db();
    let stats =
        db.with_runtime(|cl, sim| segment_stats(&cl.borrow(), sim.now(), SimDuration::ZERO));
    let heat_plan = db.plan_scale_out(&[NodeId(0)], &[NodeId(2)]);
    let frac_plan = wattdb_planner::plan_fraction(&stats, 0.5, &[NodeId(0)], &[NodeId(2)]);
    let heat_eff = heat_plan.heat_planned / heat_plan.bytes_planned.max(1) as f64;
    let frac_eff = frac_plan.heat_planned / frac_plan.bytes_planned.max(1) as f64;
    assert!(
        heat_eff > frac_eff,
        "heat moved per byte shipped: heat-aware {heat_eff} vs fraction {frac_eff}"
    );
}

#[test]
fn empty_planned_rebalance_is_a_noop() {
    // No workload ran, so no heat exists and the plan is empty; executing
    // it must not install a mover (which would pin `rebalancing()` true
    // forever) nor power the target on.
    let mut db = WattDb::builder()
        .nodes(4)
        .warehouses(2)
        .density(0.01)
        .segment_pages(8)
        .seed(5)
        .initial_data_nodes(&[NodeId(0)])
        .build();
    let plan = db.plan_scale_out(&[NodeId(0)], &[NodeId(2)]);
    assert!(plan.is_empty(), "no heat, nothing to move");
    db.rebalance_planned(&plan, &[NodeId(2)]);
    assert!(!db.rebalancing(), "empty plan installs no mover");
    // Neither does a fraction rebalance with no target to move onto.
    db.rebalance(0.5, &[NodeId(0)], &[]);
    assert!(!db.rebalancing(), "targetless rebalance installs no mover");
    db.run_for(SimDuration::from_secs(10));
    assert!(!db.rebalancing());
    let status = db.status();
    assert_eq!(
        status.nodes[2].state,
        wattdb_energy::NodeState::Standby,
        "target not powered for a no-op plan"
    );
}

#[test]
fn windowed_probes_report_per_window_nic_utilization() {
    // The NIC monitoring probe is persisted per node, so a busy first
    // window followed by an idle one reports ~zero utilization in the idle
    // window (a per-sample probe would report the cumulative-since-t=0
    // average instead).
    let mut db = WattDb::builder()
        .nodes(2)
        .warehouses(2)
        .density(0.01)
        .segment_pages(8)
        .seed(5)
        .initial_data_nodes(&[NodeId(0)])
        .build();
    // Saturate the n0 → n1 wire for ~2 s (1 GbE moves ~117 MB/s).
    db.with_runtime(|cl, sim| {
        let c = cl.borrow();
        c.net.send(
            sim,
            NodeId(0),
            NodeId(1),
            wattdb_common::ByteSize::mib(220),
            wattdb_sim::Completion::Detached,
        );
    });
    db.run_for(SimDuration::from_secs(2));
    let busy = db.with_runtime(|cl, sim| {
        let mut c = cl.borrow_mut();
        wattdb_core::monitor::sample_node(&mut c, NodeId(0), sim.now())
    });
    assert!(busy.net_tx > 0.2, "busy window shows NIC load: {busy:?}");
    // An idle window afterwards must read (near) zero, not the cumulative
    // average.
    db.run_for(SimDuration::from_secs(10));
    let idle = db.with_runtime(|cl, sim| {
        let mut c = cl.borrow_mut();
        wattdb_core::monitor::sample_node(&mut c, NodeId(0), sim.now())
    });
    assert!(
        idle.net_tx < 0.05,
        "idle window reads ~0 NIC, got {}",
        idle.net_tx
    );
}
