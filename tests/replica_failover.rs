//! Replication subsystem invariants: follower placement, heat-aware read
//! fan-out, and failover promotion — the three contracts the replica map
//! was built to property-test.
//!
//! * **Promotion** always picks the most-caught-up follower (highest
//!   acknowledged LSN on the dead leader's shipping cursors), ties broken
//!   by lowest node id.
//! * **Placement** never co-locates a follower with its segment's leader,
//!   and a segment's followers are pairwise distinct.
//! * **Routing** never reads past-acknowledged state: a follower is
//!   eligible to serve a segment's reads only when its acknowledged
//!   shipping LSN has reached the segment's last write, so every
//!   committed write is visible from any node a read lands on.
//!
//! The proptests exercise the pure layers (`wattdb_replica`,
//! `wattdb_planner`, `wattdb_wal::LogShipper`); the deterministic tests
//! drive the full facade end to end.

use proptest::prelude::*;
use wattdb_common::{Lsn, NodeId, SegmentId, SimDuration, TxnId};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_planner::{plan_replicas, NodeLoadStat, ReplicaNeed};
use wattdb_replica::pick_promotion;
use wattdb_wal::{LogManager, LogPayload, LogShipper};

// ------------------------------------------------------------ end to end

fn replicated_db(factor: usize, initial: &[NodeId]) -> WattDb {
    WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(47)
        .initial_data_nodes(initial)
        .replication(factor)
        .build()
}

#[test]
fn bootstrap_places_followers_off_leader() {
    let db = replicated_db(1, &[NodeId(0), NodeId(1), NodeId(2)]);
    let map = db.with_cluster(|c| c.replicas.clone());
    assert!(!map.is_empty(), "every segment tracked");
    db.with_cluster(|c| {
        assert_eq!(map.len(), c.seg_dir.len(), "full coverage");
        for (seg, set) in map.iter() {
            assert_eq!(set.followers.len(), 1, "{seg} at factor");
            assert!(
                !set.followers.contains(&set.leader),
                "{seg}: follower co-located with leader {}",
                set.leader
            );
            assert_eq!(
                c.seg_dir.get(seg).unwrap().node,
                set.leader,
                "{seg}: map leader is the storing node"
            );
        }
        // Every leader ships to exactly its segments' union of followers.
        for n in &c.nodes {
            let wanted: std::collections::BTreeSet<NodeId> = map
                .iter()
                .filter(|(_, s)| s.leader == n.id)
                .flat_map(|(_, s)| s.followers.iter().copied())
                .collect();
            let have: std::collections::BTreeSet<NodeId> =
                n.replica_shipper.followers().into_iter().collect();
            assert_eq!(have, wanted, "node {} shipping cursors", n.id);
        }
    });
}

#[test]
fn hot_reads_fan_out_to_followers() {
    let mut db = replicated_db(1, &[NodeId(0), NodeId(1)]);
    db.start_oltp(8, SimDuration::from_millis(40));
    db.run_for(SimDuration::from_secs(30));
    assert!(db.completed() > 0);
    assert!(
        db.with_cluster(|c| c.replica_reads) > 0,
        "caught-up followers must serve part of the read load"
    );
    assert!(
        db.with_cluster(|c| c.replica_shipped_bytes()) > 0,
        "the write load must have shipped WAL to the followers"
    );
    // Staleness accounting never regresses: every cursor has
    // acked ≤ shipped ≤ the leader's log end.
    db.with_cluster(|c| {
        for n in &c.nodes {
            for (f, shipped, acked) in n.replica_shipper.cursors() {
                assert!(acked <= shipped, "{f}: acked past shipped");
                assert!(shipped <= n.log.last_lsn(), "{f}: shipped past the log");
            }
        }
    });
}

#[test]
fn read_routing_weights_favor_cold_hosts() {
    // Heat-weighted rotation: every fan-out decision records an integer
    // weight in 1..=4 per pool member (colder host → bigger share), and
    // the router counts every decision so the telemetry read-share gauge
    // has a denominator.
    let mut db = replicated_db(1, &[NodeId(0), NodeId(1)]);
    db.start_oltp(8, SimDuration::from_millis(40));
    db.run_for(SimDuration::from_secs(30));
    assert!(db.with_cluster(|c| c.replica_reads) > 0);
    db.with_cluster(|c| {
        assert!(c.replica_read_total > 0, "router decisions counted");
        assert!(
            c.replica_read_total >= c.replica_reads,
            "every follower-served read went through the router"
        );
        assert!(!c.replica_route_weights.is_empty(), "weights recorded");
        for (&n, &w) in &c.replica_route_weights {
            assert!((1..=4).contains(&w), "{n}: weight {w} out of range");
        }
    });
}

#[test]
fn planned_rebalance_onto_a_follower_evicts_and_backfills() {
    // Aim a planned migration straight at one of the segment's own
    // follower hosts. Landing leadership there must evict that host from
    // the follower set (a leader never follows itself) *and* schedule a
    // replacement copy, so the replication factor ends where it started
    // instead of silently dropping to zero.
    let mut db = replicated_db(1, &[NodeId(0), NodeId(1), NodeId(2)]);
    let (seg, leader, follower) = db.with_cluster(|c| {
        let (seg, set) = c.replicas.iter().next().expect("replicated segment");
        (seg, set.leader, set.followers[0])
    });
    assert_eq!(
        db.with_cluster(|c| c.replicas.followers_of(seg).len()),
        1,
        "{seg} at factor before the move"
    );
    let plan = db.with_cluster(|c| {
        let meta = c.seg_dir.get(seg).unwrap();
        wattdb_planner::Plan {
            planner: wattdb_planner::Planner::HeatAware,
            moves: vec![wattdb_planner::PlannedMove {
                seg,
                table: meta.table,
                range: meta.key_range.expect("physiological segments are ranged"),
                from: leader,
                to: follower,
            }],
            bytes_planned: 0,
            heat_planned: 0.0,
            predicted: Default::default(),
            initial_max_heat: 0.0,
        }
    });
    db.rebalance_planned(&plan, &[follower]);
    for _ in 0..120 {
        db.run_for(SimDuration::from_secs(5));
        if !db.rebalancing() {
            break;
        }
    }
    assert!(!db.rebalancing(), "planned move ran out");
    // Let the backfill copy land.
    db.run_for(SimDuration::from_secs(60));
    let map = db.with_cluster(|c| c.replicas.clone());
    let set = map.get(seg).expect("segment still tracked");
    assert_eq!(set.leader, follower, "{seg}: leadership moved as planned");
    assert!(
        !set.followers.contains(&follower),
        "{seg}: new leader still listed as its own follower"
    );
    assert_eq!(
        set.followers.len(),
        1,
        "{seg}: factor restored by the backfill copy"
    );
    assert!(
        map.under_replicated(1).is_empty(),
        "no segment left under the factor: {:?}",
        map.under_replicated(1)
    );
    db.with_cluster(|c| {
        assert_eq!(
            c.check_replica_invariants(),
            None,
            "replica map consistent after evict + backfill"
        );
    });
}

#[test]
fn leader_kill_promotes_and_keeps_serving() {
    let mut db = replicated_db(1, &[NodeId(0), NodeId(1), NodeId(2)]);
    db.engage_autopilot(wattdb_core::AutoPilotConfig {
        policy: wattdb_core::PolicyConfig {
            cpu_high: 1.1,
            cpu_low: 0.0,
            skew_threshold: 0.0,
            net_high: 2.0, // NIC trigger off: only failover decisions fire
            ..Default::default()
        },
        period: SimDuration::from_secs(5),
    });
    db.start_oltp(6, SimDuration::from_millis(40));
    db.run_for(SimDuration::from_secs(20));
    let records = db.live_records();
    let committed = db.completed();
    // Four warehouses spread over the first two data nodes: node 1 is
    // the populated victim (node 2 hosts only follower copies).
    let victim = NodeId(1);
    let led = db.with_cluster(|c| c.replicas.led_by(victim));
    assert!(!led.is_empty());
    db.fail_node(victim);
    db.run_for(SimDuration::from_secs(120));
    let map = db.with_cluster(|c| c.replicas.clone());
    assert!(!map.references(victim), "corpse erased from the map");
    for seg in led {
        let leader = map.leader_of(seg).expect("still tracked");
        assert_ne!(leader, victim);
    }
    // The workload keeps inserting, so the population may grow — but
    // nothing committed before the failure may be lost.
    assert!(db.live_records() >= records, "committed records lost");
    assert!(db.completed() > committed, "cluster wedged after failover");
    assert_eq!(
        db.with_cluster(|c| c.failed_nodes().collect::<Vec<_>>()),
        vec![victim]
    );
}

/// The log keeps what is not yet flushed or shipped, whatever the run's
/// age — and cutting it costs replication nothing: cursors stay ordered
/// and a dead leader's followers still get promoted.
#[test]
fn log_tail_stays_bounded_under_replication() {
    const TAIL_BOUND: usize = 200;
    let mut db = replicated_db(1, &[NodeId(0), NodeId(1), NodeId(2)]);
    db.engage_autopilot(wattdb_core::AutoPilotConfig {
        policy: wattdb_core::PolicyConfig {
            cpu_high: 1.1,
            cpu_low: 0.0,
            skew_threshold: 0.0,
            net_high: 2.0, // only failover decisions fire
            ..Default::default()
        },
        period: SimDuration::from_secs(5),
    });
    db.start_oltp(6, SimDuration::from_millis(40));
    for window in 1..=12 {
        db.run_for(SimDuration::from_secs(5));
        db.with_cluster(|c| {
            for n in &c.nodes {
                assert!(
                    n.log.len() <= TAIL_BOUND,
                    "window {window}: {} retains {} of {} records",
                    n.id,
                    n.log.len(),
                    n.log.last_lsn()
                );
                for (f, shipped, acked) in n.replica_shipper.cursors() {
                    assert!(acked <= shipped, "{f}: acked past shipped");
                    assert!(shipped <= n.log.last_lsn(), "{f}: shipped past the log");
                    let lag = n.replica_shipper.lag(f, &n.log).expect("attached");
                    assert_eq!(lag, n.log.last_lsn().raw() - acked.raw());
                }
            }
        });
    }
    let appended = db.with_cluster(|c| c.nodes.iter().map(|n| n.log.last_lsn().raw()).max());
    assert!(
        appended.unwrap() > 100 * TAIL_BOUND as u64,
        "run too short for the bound to mean anything: {appended:?} records"
    );
    let victim = NodeId(1);
    let led = db.with_cluster(|c| c.replicas.led_by(victim));
    assert!(!led.is_empty());
    let committed = db.completed();
    db.fail_node(victim);
    db.run_for(SimDuration::from_secs(60));
    let map = db.with_cluster(|c| c.replicas.clone());
    assert!(!map.references(victim), "corpse erased from the map");
    for seg in led {
        assert_ne!(map.leader_of(seg).expect("still tracked"), victim);
    }
    assert!(db.completed() > committed, "cluster wedged after failover");
}

// -------------------------------------------------------------- proptests

proptest! {
    /// Promotion picks the follower with the highest acknowledged LSN;
    /// ties break toward the lowest node id.
    #[test]
    fn promotion_picks_the_most_caught_up_follower(
        candidates in proptest::collection::vec((0u16..32, 0u64..1000), 0..16)
    ) {
        // One cursor per follower: a node appears at most once.
        let mut seen = std::collections::BTreeSet::new();
        let candidates: Vec<(NodeId, Lsn)> = candidates
            .into_iter()
            .filter(|&(n, _)| seen.insert(n))
            .map(|(n, l)| (NodeId(n), Lsn(l)))
            .collect();
        match pick_promotion(&candidates) {
            None => prop_assert!(candidates.is_empty()),
            Some(winner) => {
                let max = candidates.iter().map(|&(_, l)| l).max().unwrap();
                let won = candidates
                    .iter()
                    .find(|&&(n, _)| n == winner)
                    .expect("winner is a candidate");
                prop_assert_eq!(won.1, max, "winner is maximally caught up");
                prop_assert!(
                    candidates
                        .iter()
                        .filter(|&&(_, l)| l == max)
                        .all(|&(n, _)| winner <= n),
                    "ties break toward the lowest id"
                );
            }
        }
    }

    /// Planned follower placement never co-locates a follower with its
    /// segment's leader, never duplicates a follower, and never
    /// re-assigns a surviving existing follower.
    #[test]
    fn placement_never_co_locates_with_the_leader(
        needs in proptest::collection::vec((0u64..64, 0u16..8, proptest::collection::vec(0u16..8, 0..3)), 1..12),
        hosts in proptest::collection::vec((0u16..8, 0.0f64..100.0, 0.0f64..1.0), 1..8),
        factor in 1usize..4,
    ) {
        // One need per segment, and a follower listed at most once —
        // the shape the replica map hands the planner.
        let mut seen = std::collections::BTreeSet::new();
        let needs: Vec<ReplicaNeed> = needs
            .into_iter()
            .filter(|&(s, _, _)| seen.insert(s))
            .map(|(s, leader, existing)| {
                let mut existing: Vec<NodeId> =
                    existing.into_iter().map(NodeId).collect();
                existing.sort_unstable();
                existing.dedup();
                ReplicaNeed {
                    seg: SegmentId(s),
                    leader: NodeId(leader),
                    existing,
                }
            })
            .collect();
        let hosts: Vec<NodeLoadStat> = hosts
            .into_iter()
            .map(|(n, heat, net)| NodeLoadStat {
                node: NodeId(n),
                heat,
                net_heat: net,
            })
            .collect();
        let plan = plan_replicas(&needs, &hosts, factor);
        for p in &plan.placements {
            let need = needs.iter().find(|n| n.seg == p.seg).expect("planned need");
            prop_assert!(
                !p.followers.contains(&p.leader),
                "{}: follower on the leader", p.seg
            );
            let mut uniq = p.followers.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), p.followers.len(), "duplicate follower");
            for f in &p.followers {
                prop_assert!(
                    !need.existing.contains(f),
                    "{}: {} already a follower", p.seg, f
                );
            }
            prop_assert!(
                need.existing.len() + p.followers.len() <= factor,
                "{}: planned past the factor", p.seg
            );
        }
    }

    /// Read routing never serves past-acknowledged state: under an
    /// arbitrary interleaving of appends, shipping batches, and partial
    /// acknowledgements, a follower passing the eligibility predicate
    /// (acked ≥ the segment's last write) has acknowledged — hence
    /// persisted — every committed write; and the cursor watermarks never
    /// run ahead of each other or the log.
    #[test]
    fn routing_never_reads_past_acknowledged_state(
        steps in proptest::collection::vec((0u8..3, 0u16..3, 0u64..100), 1..64)
    ) {
        let mut log = LogManager::new();
        let mut shipper = LogShipper::new();
        let followers = [NodeId(10), NodeId(11), NodeId(12)];
        for f in followers {
            shipper.attach(f, &log);
        }
        // The segment's last committed write — the routing floor.
        let mut floor = log.last_lsn();
        let mut txn = 0u64;
        for (op, who, arg) in steps {
            let f = followers[who as usize];
            match op {
                0 => {
                    // A committed write appends and raises the floor.
                    txn += 1;
                    floor = log.append(TxnId(txn), LogPayload::Commit);
                }
                1 => {
                    // A flush ships the tail to one follower.
                    shipper.take_batch(f, &log);
                }
                _ => {
                    // A delivery acknowledges some prefix of what was
                    // shipped (never more — the wire cannot invent
                    // records).
                    if let Some(shipped) = shipper.shipped_lsn(f) {
                        let lsn = Lsn(arg.min(shipped.raw()));
                        shipper.acknowledge(f, lsn);
                    }
                }
            }
            for f in followers {
                let shipped = shipper.shipped_lsn(f).expect("attached");
                let acked = shipper.acked_lsn(f).expect("attached");
                prop_assert!(acked <= shipped, "acked ran past shipped");
                prop_assert!(shipped <= log.last_lsn(), "shipped ran past the log");
                // The executor's eligibility predicate.
                let eligible = acked >= floor;
                if eligible {
                    // An eligible follower has persisted every record up
                    // to and including the last write: nothing the leader
                    // committed can be missing from the copy it reads.
                    prop_assert!(acked >= floor && floor <= shipped);
                } else {
                    // An ineligible follower is genuinely behind.
                    prop_assert!(acked < floor, "caught-up follower refused");
                }
            }
        }
    }
}
