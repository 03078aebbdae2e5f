//! Property tests over whole-cluster runs: random rebalance plans never
//! lose records, and no sequence of scale/rebalance/failover decisions
//! ever corrupts the replica map.

use proptest::prelude::*;
use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::{Lifecycle, Scheme};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_rebalance_preserves_the_key_population(
        seed in 0u64..1000,
        scheme_pick in 0u8..3,
        fraction in 0.2f64..0.8,
        targets_n in 1usize..3,
    ) {
        let scheme = match scheme_pick {
            0 => Scheme::Physical,
            1 => Scheme::Logical,
            _ => Scheme::Physiological,
        };
        let mut db = WattDb::builder()
            .nodes(6)
            .scheme(scheme)
            .warehouses(2)
            .density(0.005)
            .segment_pages(8)
            .seed(seed)
            .initial_data_nodes(&[NodeId(0), NodeId(1)])
            .build();
        let before = db.live_records();
        let targets: Vec<NodeId> = (2..2 + targets_n as u16).map(NodeId).collect();
        db.rebalance(fraction, &[NodeId(0), NodeId(1)], &targets);
        for _ in 0..120 {
            db.run_for(SimDuration::from_secs(5));
            if !db.rebalancing() {
                break;
            }
        }
        prop_assert!(!db.rebalancing(), "move must terminate");
        // Logical moves tombstone their sources; vacuum reclaims them
        // before comparing populations.
        db.with_runtime(|cl, _| cl.borrow_mut().vacuum_all());
        prop_assert_eq!(db.live_records(), before, "population preserved");
        // Routing still resolves a sample of keys for every table.
        db.with_cluster(|c| {
            for t in wattdb_tpcc::TpccTable::ALL {
                for w in 0..2u32 {
                    let key = wattdb_tpcc::keys::district(w, 3);
                    let r = c.router.route(t.table_id(), key);
                    assert!(r.is_ok(), "{t:?} w{w} unroutable after move");
                }
            }
        });
    }

    /// A replicated autopilot cluster driven through a random sequence of
    /// manual rebalances, node failures, and idle stretches (during which
    /// the controller scales in, drains, repairs, and suspends on its
    /// own). After every step — and after everything settles — the
    /// replica map must hold its invariants: no leader in its own
    /// follower set, no reference to a suspended node, no follower on a
    /// draining node. With enough surviving hosts, the replication factor
    /// must also end fully restored.
    #[test]
    fn replica_map_survives_any_decision_sequence(
        seed in 0u64..1000,
        ops in proptest::collection::vec(0u8..3, 4..8),
    ) {
        let policy = wattdb_core::PolicyConfig {
            cpu_high: 1.1, // scale-out out of reach: drains and failover dominate
            cpu_low: 0.5,  // the idle cluster scales in at every opportunity
            patience: 2,
            skew_threshold: 0.0,
            ..Default::default()
        };
        let mut db = WattDb::builder()
            .nodes(6)
            .scheme(Scheme::Physiological)
            .warehouses(6)
            .density(0.05)
            .segment_pages(8)
            .seed(seed)
            .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
            .replication(1)
            .policy(policy)
            .monitoring(SimDuration::from_secs(5))
            .autopilot(true)
            .build();
        let mut kills = 0usize;
        for &op in &ops {
            match op {
                // Manual rebalance onto a standby node, if none in flight.
                1 if !db.rebalancing() => {
                    let (src, dst) = db.with_cluster(|c| {
                        let src = c.seg_dir.iter().map(|m| m.node).max();
                        let dst = c
                            .nodes
                            .iter()
                            .find(|n| n.life == Lifecycle::Standby)
                            .map(|n| n.id);
                        (src, dst)
                    });
                    if let (Some(src), Some(dst)) = (src, dst) {
                        db.rebalance(0.4, &[src], &[dst]);
                    }
                }
                // Kill the highest-id active data node (never the master,
                // at most once per run so the cluster survives).
                2 if kills == 0 => {
                    let victim = db.with_cluster(|c| {
                        c.nodes
                            .iter()
                            .filter(|n| {
                                n.id != NodeId(0)
                                    && n.life.is_up()
                                    && c.seg_dir.on_node(n.id).next().is_some()
                            })
                            .map(|n| n.id)
                            .max()
                    });
                    if let Some(v) = victim {
                        db.fail_node(v);
                        kills += 1;
                    }
                }
                // Idle: the autopilot decides on its own.
                _ => {}
            }
            db.run_for(SimDuration::from_secs(15));
            let violation = db.with_cluster(|c| c.check_replica_invariants());
            prop_assert!(violation.is_none(), "after op {}: {:?}", op, violation);
        }
        // Let everything in flight land: migrations, failover promotion,
        // re-replication backfills, post-drain suspensions.
        for _ in 0..80 {
            db.run_for(SimDuration::from_secs(5));
            let busy =
                db.rebalancing() || db.with_cluster(|c| c.rereplication_inflight > 0);
            if !busy {
                break;
            }
        }
        let violation = db.with_cluster(|c| c.check_replica_invariants());
        prop_assert!(violation.is_none(), "after settling: {:?}", violation);
        let (active_hosts, under) = db.with_cluster(|c| {
            let active_hosts = c
                .nodes
                .iter()
                .filter(|n| n.life.is_up())
                .count();
            (
                active_hosts,
                c.replicas.under_replicated(c.cfg.replication.factor),
            )
        });
        if active_hosts >= 2 {
            prop_assert!(under.is_empty(), "factor not restored: {:?}", under);
        }
    }
}
