//! Integration: the §3.4 scale-in protocol — "the master will distribute
//! the data (processing) to fewer nodes and shutdown the nodes currently
//! not needed".

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::{Lifecycle, Scheme};
use wattdb_core::migration::ControlPlan;
use wattdb_core::policy::{Decision, PolicyConfig};
use wattdb_energy::NodeState;

fn build() -> WattDb {
    WattDb::builder()
        .nodes(6)
        .scheme(Scheme::Physiological)
        .warehouses(6)
        .density(0.01)
        .segment_pages(8)
        .seed(9)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .build()
}

fn apply(db: &mut WattDb, decision: &Decision, fraction: f64) {
    let cfg = PolicyConfig {
        move_fraction: fraction,
        ..Default::default()
    };
    db.with_runtime(|cl, sim| wattdb_core::policy::apply(cl, sim, decision, &cfg).ok());
}

/// Close a finished drain as the autopilot's window would; returns the
/// nodes suspended.
fn settle(db: &mut WattDb) -> Vec<NodeId> {
    db.with_runtime(|cl, sim| wattdb_core::migration::settle(cl, sim))
        .map(|drain| drain.suspended)
        .unwrap_or_default()
}

fn node_state(db: &WattDb, node: NodeId) -> NodeState {
    db.with_cluster(|c| c.life(node).power())
}

#[test]
fn draining_a_node_moves_everything_and_powers_it_down() {
    let mut db = build();
    let before_keys = db.live_records();
    // The policy decided node 2 should drain (e.g. after a quiet period).
    let decision = Decision::ScaleIn {
        drain: vec![NodeId(2)],
    };
    apply(&mut db, &decision, 1.0);
    for _ in 0..120 {
        db.run_for(SimDuration::from_secs(5));
        if !db.rebalancing() {
            break;
        }
    }
    assert!(!db.rebalancing(), "drain finished");
    db.with_runtime(|cl, _| cl.borrow_mut().vacuum_all());
    assert_eq!(
        db.status().nodes[2].segments,
        0,
        "node 2 holds no segments after draining"
    );
    assert_eq!(
        db.live_records(),
        before_keys,
        "population preserved across drain"
    );
    // Now the empty node can be suspended.
    let off = settle(&mut db);
    assert!(off.contains(&NodeId(2)), "drained node suspended: {off:?}");
    assert_eq!(node_state(&db, NodeId(2)), NodeState::Standby);
    // The survivors still serve: every warehouse's keys route somewhere.
    db.with_cluster(|c| {
        for w in 0..6u32 {
            let key = wattdb_tpcc::keys::warehouse(w);
            let r = c
                .router
                .route(wattdb_tpcc::TpccTable::Warehouse.table_id(), key)
                .unwrap();
            assert_ne!(
                r.primary.node,
                NodeId(2),
                "nothing routes to the drained node"
            );
        }
    });
}

#[test]
fn suspend_refuses_nodes_that_still_hold_data() {
    let mut db = build();
    // A drain episode that moved nothing: nodes 1 and 2 are marked
    // draining but still hold their data when the episode closes.
    db.run(ControlPlan {
        drain: vec![NodeId(1), NodeId(2)],
        ..Default::default()
    });
    let off = settle(&mut db);
    // Only emptied nodes may suspend (none here); the rest rejoin the
    // plannable pool. The master (node 0) is never suspended.
    assert_eq!(off, vec![], "data holders stay up");
    assert_eq!(
        node_state(&db, NodeId(0)),
        NodeState::Active,
        "master stays up"
    );
    db.with_cluster(|c| {
        assert_eq!(c.life(NodeId(1)), Lifecycle::Active);
        assert_eq!(c.life(NodeId(2)), Lifecycle::Active);
        assert_eq!(c.powerdown_span, None, "the episode closed");
    });
}

#[test]
fn scale_in_lowers_cluster_power() {
    let mut db = build();
    // `status()` reports power over the window since the previous call:
    // five idle seconds at three active nodes before, two idle seconds
    // after the drained node reached standby.
    db.run_for(SimDuration::from_secs(5));
    let p_before = db.status().total_power.0;
    apply(
        &mut db,
        &Decision::ScaleIn {
            drain: vec![NodeId(2)],
        },
        1.0,
    );
    for _ in 0..120 {
        db.run_for(SimDuration::from_secs(5));
        if !db.rebalancing() {
            break;
        }
    }
    settle(&mut db);
    db.status(); // the drain's copy work stays out of the "after" window
    db.run_for(SimDuration::from_secs(2));
    let p_after = db.status().total_power.0;
    // One node from active (~22 W + drives ~9 W) to standby (2.5 W).
    assert!(
        p_before - p_after > 20.0,
        "power drop after scale-in: {p_before} -> {p_after}"
    );
}
