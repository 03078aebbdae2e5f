//! Integration: the full §3.4 elasticity round trip, driven purely by the
//! autopilot — no manual `rebalance()` calls anywhere.
//!
//! One node starts hot under a heavy client load; the controller must
//! notice the 80 % CPU breach, power a standby node on, and repartition
//! onto it (scale-out). Then the load stops; the controller must notice
//! the idle cluster, drain the extra node, and power it back down to
//! standby (scale-in + suspension).

use wattdb_common::{CostParams, NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::autopilot::Outcome;
use wattdb_core::cluster::Scheme;
use wattdb_core::policy::{Decision, PolicyConfig};
use wattdb_energy::NodeState;

/// Heavier per-operation CPU (the full SQL-layer work on wimpy Atom
/// cores) so a single node saturates under this client load.
fn heavy_costs() -> CostParams {
    let mut costs = CostParams::default();
    costs.index_node_visit = costs.index_node_visit * 40;
    costs.record_read = costs.record_read * 40;
    costs.record_write = costs.record_write * 40;
    costs.log_append = costs.log_append * 40;
    costs.buffer_hit = costs.buffer_hit * 40;
    costs
}

#[test]
fn autopilot_scales_out_under_load_and_back_in_when_idle() {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(16)
        .costs(heavy_costs())
        .seed(1)
        .initial_data_nodes(&[NodeId(0)])
        .policy(PolicyConfig {
            cpu_high: 0.8,
            cpu_low: 0.2,
            patience: 2,
            move_fraction: 0.5,
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true)
        .build();

    // ---- Phase 1: hot node 0 forces an automatic scale-out.
    db.start_oltp(48, SimDuration::from_millis(30));
    let mut scaled_out = false;
    for _ in 0..60 {
        db.run_for(SimDuration::from_secs(5));
        let spread = db
            .active_nodes()
            .iter()
            .filter(|&&n| db.with_cluster(|c| c.seg_dir.on_node(n).count()) > 0)
            .count();
        if spread > 1 && !db.rebalancing() {
            scaled_out = true;
            break;
        }
    }
    assert!(scaled_out, "autopilot never scaled out: {:?}", db.events());

    let events = db.events();
    let scale_out = events
        .iter()
        .find(|e| matches!(e.decision, Decision::ScaleOut { .. }))
        .expect("scale-out decision logged");
    assert_eq!(scale_out.outcome, Outcome::Applied);
    assert!(
        scale_out.view.max_cpu > 0.8,
        "scale-out was driven by a CPU breach: {:?}",
        scale_out.view
    );
    let target = match &scale_out.decision {
        Decision::ScaleOut { targets, .. } => targets[0],
        _ => unreachable!(),
    };
    assert!(
        db.with_cluster(|c| c.seg_dir.on_node(target).count()) > 0,
        "segments arrived on the powered-on node {target}"
    );
    // The default planner is heat-aware; the event log and the rebalance
    // report both record it, along with the heat it relocated.
    assert_eq!(scale_out.planner, wattdb_core::Planner::HeatAware);
    let report = db.last_rebalance().expect("rebalance completed");
    assert_eq!(report.planner, wattdb_core::Planner::HeatAware);
    assert!(
        report.heat_planned > 0.0 && report.heat_moved > 0.0,
        "planned/moved heat recorded: {report:?}"
    );

    // ---- Phase 2: the load stops; the idle cluster must shrink again.
    db.stop_clients();
    // Let in-flight transactions drain, then freeze the record population
    // (the scale-in itself fires only after `patience` idle windows, well
    // after quiescence).
    for _ in 0..100 {
        db.run_for(SimDuration::from_millis(500));
        if db.with_cluster(|c| c.jobs.is_empty()) {
            break;
        }
    }
    db.with_runtime(|cl, _| cl.borrow_mut().vacuum_all());
    let records_at_rest = db.live_records();
    let mut suspended: Option<Vec<NodeId>> = None;
    for _ in 0..120 {
        db.run_for(SimDuration::from_secs(5));
        if let Some(nodes) = db.events().iter().find_map(|e| match &e.outcome {
            Outcome::Suspended { nodes } if !nodes.is_empty() => Some(nodes.clone()),
            _ => None,
        }) {
            suspended = Some(nodes);
            break;
        }
    }
    let suspended =
        suspended.unwrap_or_else(|| panic!("autopilot never scaled back in: {:?}", db.events()));

    let events = db.events();
    let scale_in = events
        .iter()
        .find(|e| matches!(e.decision, Decision::ScaleIn { .. }) && e.outcome == Outcome::Applied)
        .expect("scale-in decision logged");
    assert!(
        scale_in.view.mean_active_cpu < 0.2,
        "scale-in was driven by idleness: {:?}",
        scale_in.view
    );

    // The drained node is empty and back in standby, drawing 2.5 W.
    for &n in &suspended {
        assert_eq!(
            db.with_cluster(|c| c.seg_dir.on_node(n).count()),
            0,
            "{n} drained before suspension"
        );
    }
    let status = db.status();
    for &n in &suspended {
        assert_eq!(status.nodes[n.raw() as usize].state, NodeState::Standby);
    }
    // Nothing was lost across the scale-in drain.
    db.with_runtime(|cl, _| cl.borrow_mut().vacuum_all());
    assert_eq!(db.live_records(), records_at_rest, "population intact");
    // And the cluster still holds data on at least one active node.
    let holders = db
        .active_nodes()
        .iter()
        .filter(|&&n| db.with_cluster(|c| c.seg_dir.on_node(n).count()) > 0)
        .count();
    assert!(holders >= 1, "survivors still serve the dataset");
}
