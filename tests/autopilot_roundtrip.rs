//! Integration: the full §3.4 elasticity round trip, driven purely by the
//! autopilot — no manual `rebalance()` calls anywhere.
//!
//! One node starts hot under a heavy client load; the controller must
//! notice the 80 % CPU breach, power a standby node on, and repartition
//! onto it (scale-out). Then the load stops; the controller must notice
//! the idle cluster, drain the extra node, and power it back down to
//! standby (scale-in + suspension).
//!
//! A deployment runs one monitoring window: engaging the autopilot on a
//! running deployment puts the policy into that window, whichever way it
//! was armed, and the policy decides at the same windows either way.

use wattdb_common::{CostParams, HeatConfig, NodeId, SimDuration};
use wattdb_core::api::{WattDb, WattDbBuilder};
use wattdb_core::autopilot::{ControlEvent, Outcome};
use wattdb_core::cluster::Scheme;
use wattdb_core::policy::{Decision, PolicyConfig};
use wattdb_energy::NodeState;

/// Four nodes, all data on n0, heavy per-operation CPU, 5 s windows.
fn hot_node_builder() -> WattDbBuilder {
    WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(16)
        .costs(CostParams::scaled(40))
        .seed(1)
        .initial_data_nodes(&[NodeId(0)])
        .monitoring(SimDuration::from_secs(5))
}

/// Scale out after two windows above 80 % CPU; scale in below 20 %.
fn round_trip_policy() -> PolicyConfig {
    PolicyConfig {
        cpu_high: 0.8,
        cpu_low: 0.2,
        patience: 2,
        ..Default::default()
    }
}

#[test]
fn autopilot_scales_out_under_load_and_back_in_when_idle() {
    let mut db = hot_node_builder()
        .policy(round_trip_policy())
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
        scale_out.signals.max_cpu > 0.8,
        "scale-out was driven by a CPU breach: {:?}",
        scale_out.signals
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
    db.with_runtime(|cl, _| cl.borrow_mut().vacuum_all())
        .unwrap();
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
        scale_in.signals.mean_active_cpu < 0.2,
        "scale-in was driven by idleness: {:?}",
        scale_in.signals
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
    db.with_runtime(|cl, _| cl.borrow_mut().vacuum_all())
        .unwrap();
    assert_eq!(db.live_records(), records_at_rest, "population intact");
    // And the cluster still holds data on at least one active node.
    let holders = db
        .active_nodes()
        .iter()
        .filter(|&&n| db.with_cluster(|c| c.seg_dir.on_node(n).count()) > 0)
        .count();
    assert!(holders >= 1, "survivors still serve the dataset");
}

/// 48 clients on the hot node for 90 sim-s, with [`round_trip_policy`]
/// engaged on the running deployment at t = 10 s. `build` finishes
/// [`hot_node_builder`], deciding how (and whether) the build arms the
/// monitoring window. Returns the decision log and the number of
/// telemetry windows recorded.
///
/// The planner plans on historical heat: a window armed at build has
/// measured heat velocity for longer than one armed at the engage, and
/// projected plans would differ for that reason alone.
fn engaged_at_10s(build: impl FnOnce(WattDbBuilder) -> WattDb) -> (Vec<ControlEvent>, u64) {
    let historical = HeatConfig {
        horizon: SimDuration::ZERO,
        ..Default::default()
    };
    let mut db = build(hot_node_builder().heat_tracking(historical));
    db.start_oltp(48, SimDuration::from_millis(30));
    db.run_for(SimDuration::from_secs(10));
    db.engage_autopilot(round_trip_policy());
    db.run_for(SimDuration::from_secs(80));
    let windows = db.with_cluster(|c| c.telemetry.registry.windows());
    (db.events(), windows)
}

/// When the log's scale-outs were decided, in sim seconds.
fn scale_outs(events: &[ControlEvent]) -> Vec<f64> {
    (events.iter())
        .filter(|e| matches!(e.decision, Decision::ScaleOut { .. }))
        .map(|e| e.at.as_secs_f64())
        .collect()
}

/// Every logged decision: when, on which trigger, and what came of it.
fn decisions(events: &[ControlEvent]) -> Vec<(f64, &'static str, Outcome)> {
    (events.iter())
        .map(|e| (e.at.as_secs_f64(), e.trigger, e.outcome.clone()))
        .collect()
}

#[test]
fn telemetry_built_deployment_scales_out_like_an_unmonitored_one() {
    let (plain, plain_windows) = engaged_at_10s(|b| b.build());
    let (sampled, windows) = engaged_at_10s(|b| b.telemetry(true).build());
    assert!(
        !scale_outs(&plain).is_empty(),
        "the hot node forces a scale-out: {plain:?}"
    );
    assert_eq!(
        scale_outs(&sampled),
        scale_outs(&plain),
        "the policy reads the one window's CPU samples: {sampled:?}"
    );
    assert_eq!(windows, 18, "one registry window per 5 s over 90 s");
    assert_eq!(plain_windows, 16, "armed by the engage at 10 s");
}

#[test]
fn reengaging_an_autopilot_built_deployment_keeps_its_windows() {
    let (plain, _) = engaged_at_10s(|b| b.build());
    // Built with a policy that never fires, then swapped for the real one.
    let hold = PolicyConfig {
        cpu_high: 1.1,
        cpu_low: 0.0,
        ..Default::default()
    };
    let (reengaged, windows) = engaged_at_10s(|b| b.policy(hold).autopilot(true).build());
    assert!(!scale_outs(&plain).is_empty(), "{plain:?}");
    assert_eq!(
        decisions(&reengaged),
        decisions(&plain),
        "the new policy's first window is the next window"
    );
    assert_eq!(windows, 18, "one registry window per 5 s over 90 s");
}
