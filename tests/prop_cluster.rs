//! Property tests over whole-cluster runs: random rebalance plans never
//! lose records, and no sequence of scale/rebalance/failover decisions
//! ever corrupts the replica map.

use proptest::prelude::*;
use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::{Cluster, Lifecycle, Scheme};
use wattdb_core::migration::{ControlPlan, FollowerCopy, HelperAttach, Pending};

/// Scripted Fig. 8 helpers — one standby per source — for the rebalance in
/// flight, or for a fresh one off the fullest node when only follower
/// copies (or nothing) are moving. Returns the helpers attached.
fn attach_helpers(db: &mut WattDb) -> Vec<NodeId> {
    let now = db.now();
    let plan = db.with_cluster(|c| {
        let standby = c.nodes.iter().filter(|n| n.life == Lifecycle::Standby);
        let standby: Vec<NodeId> = standby.map(|n| n.id).collect();
        let (sources, rebalance) = match &c.mover {
            Some(m) if m.report.is_some() => {
                let sources = m.chains.iter().map(|ch| ch.source);
                (sources.filter(|&s| c.life(s).is_up()).collect(), None)
            }
            Some(_) => return None,
            None => {
                let src = c.seg_dir.iter().map(|m| m.node).max()?;
                let dst = *standby.first()?;
                (
                    vec![src],
                    Some(ControlPlan::fraction(c, now, 0.4, &[src], &[dst])),
                )
            }
        };
        // A fresh rebalance's target powers on with it: not a helper.
        let skip = rebalance.as_ref().map_or(0, |r| r.power_up.len());
        let helpers: Vec<NodeId> = standby.into_iter().skip(skip).take(sources.len()).collect();
        (!helpers.is_empty() && !sources.is_empty()).then(|| ControlPlan {
            attach: Some(HelperAttach::manual(&sources, &helpers)),
            ..rebalance.unwrap_or_default()
        })
    });
    let Some(plan) = plan else {
        return Vec::new();
    };
    let helpers = plan
        .attach
        .as_ref()
        .map(|a| a.helpers.clone())
        .unwrap_or_default();
    db.run(plan);
    helpers
}

/// The follower copies in flight on the mover's chains.
fn copies_in_flight(c: &Cluster) -> impl Iterator<Item = FollowerCopy> + '_ {
    let chains = c.mover.iter().flat_map(|m| &m.chains);
    chains.filter_map(|ch| match ch.step {
        Some(Pending::Copy(cp)) => Some(cp),
        _ => None,
    })
}

/// A segment move queued or in flight on a chain that does not leave its
/// segment's catalog node. Copies and range moves are exempt, and so is a
/// step whose source died mid-copy: its apply voids it.
fn stray_segment_move(c: &Cluster) -> Option<wattdb_planner::PlannedMove> {
    let chains = c.mover.iter().flat_map(|m| &m.chains);
    let mut segments = chains.flat_map(|ch| ch.moves()).filter_map(|p| match p {
        Pending::Segment(mv) if !c.is_failed(mv.from) => Some(mv),
        _ => None,
    });
    segments.find(|mv| c.seg_dir.get(mv.seg).map(|m| m.node).ok() != Some(mv.from))
}

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
        db.with_runtime(|cl, _| cl.borrow_mut().vacuum_all()).unwrap();
        prop_assert_eq!(db.live_records(), before, "population preserved");
        // And every key is found where it routes: a key stranded at its
        // source still counts in the population.
        let reachable = db.with_cluster(|c| c.check_reachable());
        prop_assert_eq!(reachable, Ok(()), "every key is where it routes");
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
    /// manual rebalances, scripted helper attaches, node failures — a data
    /// node, the host of a follower copy still on a chain, or an attached
    /// helper — and idle stretches (during which the controller scales in,
    /// drains, repairs, and suspends on its own). After every step — and
    /// after everything settles — the replica map must hold its
    /// invariants: no leader in its own follower set, no reference to a
    /// suspended node, no follower on a draining node; and so must the
    /// helper deployment (no wire to a dead or detached helper, no remote
    /// tier without a wire), and every segment move on a chain must leave
    /// its segment's catalog node. With enough surviving hosts, the replication
    /// factor must also end fully restored, and every key must be where
    /// it routes.
    #[test]
    fn replica_map_survives_any_decision_sequence(
        seed in 0u64..1000,
        ops in proptest::collection::vec(0u8..6, 4..8),
    ) {
        let policy = wattdb_core::PolicyConfig {
            cpu_high: 1.1, // scale-out out of reach: drains and failover dominate
            cpu_low: 0.5,  // the idle cluster scales in at every opportunity
            patience: 2,
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
                // Kill the host of the first follower copy in flight within
                // 30 s (never the master; at most two kills per run): when
                // the copy lands, its dead host must not join the map.
                3 if kills < 2 => {
                    let until = db.now() + SimDuration::from_secs(30);
                    let pick = |c: &Cluster| copies_in_flight(c).find(|cp| cp.to != NodeId(0));
                    let mut copy = None;
                    while copy.is_none() && db.now() < until && db.with_runtime(|_, s| s.step()) {
                        copy = db.with_cluster(pick);
                    }
                    if let Some(cp) = copy {
                        db.fail_node(cp.to);
                        kills += 1;
                        let same = |x: FollowerCopy| (x.seg, x.to) == (cp.seg, cp.to);
                        let landing = |c: &Cluster| copies_in_flight(c).any(same);
                        while db.with_cluster(landing) && db.with_runtime(|_, s| s.step()) {}
                        let followers = |c: &Cluster| c.replication.followers_of(cp.seg).to_vec();
                        let joined = db.with_cluster(followers).contains(&cp.to);
                        prop_assert!(!joined, "{:?} joined on its dead host", cp);
                    }
                }
                // Scripted helpers for the rebalance in flight (or a
                // fresh one).
                4 => {
                    attach_helpers(&mut db);
                }
                // Kill an attached helper mid-duty (attaching one first if
                // none is): it stops serving at once, and the response
                // closes with the deployment's last helper.
                5 if kills < 2 => {
                    let mut attached = db.with_cluster(|c| c.helpers.nodes());
                    if attached.is_empty() {
                        attached = attach_helpers(&mut db);
                    }
                    if let Some(&h) = attached.first() {
                        db.fail_node(h);
                        kills += 1;
                        let (member, span) = db.with_cluster(|c| (c.helpers.contains(h), c.helpers.span()));
                        prop_assert!(!member, "dead helper {} still attached", h);
                        let last = attached.len() == 1;
                        prop_assert!(!last || span.is_none(), "response open past its last helper");
                    }
                }
                // Idle: the autopilot decides on its own.
                _ => {}
            }
            let violation = db.with_cluster(|c| c.helpers.check_invariants(&c.nodes));
            prop_assert!(violation.is_none(), "helpers right after op {}: {:?}", op, violation);
            let stray = db.with_cluster(stray_segment_move);
            prop_assert!(stray.is_none(), "right after op {}: {:?} leaves off its segment", op, stray);
            db.run_for(SimDuration::from_secs(15));
            let violation = db.with_cluster(|c| {
                (wattdb_core::replication::check_invariants(c)).or_else(|| c.helpers.check_invariants(&c.nodes))
            });
            prop_assert!(violation.is_none(), "after op {}: {:?}", op, violation);
            let stray = db.with_cluster(stray_segment_move);
            prop_assert!(stray.is_none(), "after op {}: {:?} leaves off its segment", op, stray);
        }
        // Let everything in flight land: migrations, failover promotion,
        // re-replication backfills, post-drain suspensions.
        for _ in 0..80 {
            db.run_for(SimDuration::from_secs(5));
            if !db.rebalancing() {
                break;
            }
        }
        let violation = db.with_cluster(|c| {
            (wattdb_core::replication::check_invariants(c)).or_else(|| c.helpers.check_invariants(&c.nodes))
        });
        prop_assert!(violation.is_none(), "after settling: {:?}", violation);
        let reachable = db.with_cluster(|c| c.check_reachable());
        prop_assert_eq!(reachable, Ok(()), "every key is where it routes");
        let (active_hosts, under) = db.with_cluster(|c| {
            let active_hosts = c
                .nodes
                .iter()
                .filter(|n| n.life.is_up())
                .count();
            (
                active_hosts,
                c.replication.under_replicated(),
            )
        });
        if active_hosts >= 2 {
            prop_assert!(under.is_empty(), "factor not restored: {:?}", under);
        }
    }
}
