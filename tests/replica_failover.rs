//! Replication subsystem invariants: follower placement, read fan-out to
//! caught-up followers, and failover promotion — the three contracts the
//! replica map was built to property-test.
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
//! The proptests exercise the pure layers
//! (`wattdb_core::replication::pick_promotion`, `wattdb_planner`,
//! `wattdb_wal::LogShipper`); the deterministic tests
//! drive the full facade end to end.

use proptest::prelude::*;
use wattdb_common::{Lsn, NodeId, Rank, SegmentId, SimDuration, SimTime, TxnId};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::replication::{self, pick_promotion};
use wattdb_planner::{plan_replicas, HostRow, ReplicaSite};
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
    db.with_cluster(|c| {
        // A segment's leader is its catalog node, the storing node.
        let sites: Vec<_> = replication::sites(c).collect();
        assert!(!sites.is_empty(), "every segment tracked");
        assert_eq!(sites.len(), c.seg_dir.len(), "full coverage");
        for &(seg, leader, followers) in &sites {
            assert_eq!(followers.len(), 1, "{seg} at factor");
            assert!(
                !followers.contains(&leader),
                "{seg}: follower co-located with leader {leader}"
            );
        }
        // Every leader ships to exactly its segments' union of followers.
        for n in &c.nodes {
            let wanted: std::collections::BTreeSet<NodeId> = sites
                .iter()
                .filter(|&&(_, leader, _)| leader == n.id)
                .flat_map(|&(.., f)| f.iter().copied())
                .collect();
            let have: std::collections::BTreeSet<NodeId> = c
                .replication
                .shipper(n.id)
                .followers()
                .into_iter()
                .collect();
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
        db.with_cluster(|c| c.replication.reads()) > 0,
        "caught-up followers must serve part of the read load"
    );
    assert!(
        db.with_cluster(|c| c.replication.routed_reads >= c.replication.reads()),
        "every follower-served read went through the router"
    );
    assert!(
        db.with_cluster(|c| c.replication.shipped_bytes()) > 0,
        "the write load must have shipped WAL to the followers"
    );
    // Staleness accounting never regresses: every cursor has
    // acked ≤ shipped ≤ the leader's log end.
    db.with_cluster(|c| {
        for n in &c.nodes {
            let shipper = c.replication.shipper(n.id);
            for f in shipper.followers() {
                let (shipped, acked) = (shipper.shipped_lsn(f), shipper.acked_lsn(f));
                assert!(acked <= shipped, "{f}: acked past shipped");
                assert!(
                    shipped <= Some(n.log.last_lsn()),
                    "{f}: shipped past the log"
                );
            }
        }
    });
}

/// A follower's acknowledgement is booked when its batch is sent, not
/// fired as an event: a replicated run's event counts by kind name no
/// acknowledgement and sum to every event it executed, while the
/// acknowledgements still land (caught-up followers serve reads).
#[test]
fn a_replicated_run_lands_acknowledgements_without_events() {
    let mut db = replicated_db(2, &[NodeId(0), NodeId(1)]);
    db.start_oltp(8, SimDuration::from_millis(40));
    db.run_for(SimDuration::from_secs(10));
    let (by_kind, executed) =
        db.with_runtime(|_, sim| (sim.events_by_kind(), sim.events_executed()));
    assert!(
        by_kind.iter().all(|&(kind, _)| kind != "ship_ack"),
        "{by_kind:?}"
    );
    assert_eq!(by_kind.iter().map(|&(_, n)| n).sum::<u64>(), executed);
    assert!(
        db.with_cluster(|c| c.replication.reads()) > 0,
        "no follower caught up"
    );
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
        let (seg, leader, followers) = replication::sites(c).next().expect("replicated segment");
        (seg, leader, followers[0])
    });
    assert_eq!(
        db.with_cluster(|c| c.replication.followers_of(seg).len()),
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
    // Event by event: the backfill rides the mover's chains, so the
    // factor is back the moment the mover reads idle.
    while db.rebalancing() {
        assert!(db.with_runtime(|_, sim| sim.step()), "planned move ran out");
    }
    assert_eq!(
        db.with_cluster(|c| c.replication.under_replicated()),
        vec![],
        "{seg}: backfilled before the mover went idle"
    );
    // Let the backfill copy land.
    db.run_for(SimDuration::from_secs(60));
    let followers = db.with_cluster(|c| c.replication.followers(seg).map(<[_]>::to_vec));
    let followers = followers.expect("segment still tracked");
    let owner = db.with_cluster(|c| c.seg_dir.get(seg).unwrap().node);
    assert_eq!(owner, follower, "{seg}: leadership moved as planned");
    assert!(
        !followers.contains(&follower),
        "{seg}: new leader still listed as its own follower"
    );
    assert_eq!(
        followers.len(),
        1,
        "{seg}: factor restored by the backfill copy"
    );
    let under = db.with_cluster(|c| c.replication.under_replicated());
    assert!(
        under.is_empty(),
        "no segment left under the factor: {under:?}"
    );
    db.with_cluster(|c| {
        assert_eq!(
            replication::check_invariants(c),
            None,
            "replica map consistent after evict + backfill"
        );
    });
}

/// Re-replication copies like a segment move: each copy is read off its
/// leader's data disk while it crosses the wire, so after a leader kill
/// the survivors' bulk reads grow by at least the bytes re-replicated.
#[test]
fn rereplication_reads_the_leaders_data_disks() {
    let mut db = replicated_db(1, &[NodeId(0), NodeId(1), NodeId(2)]);
    db.engage_autopilot(wattdb_core::PolicyConfig {
        cpu_high: 1.1, // only failover decisions fire
        cpu_low: 0.0,
        ..Default::default()
    });
    db.start_oltp(6, SimDuration::from_millis(40));
    db.run_for(SimDuration::from_secs(20));
    let victim = NodeId(1);
    // Disk 0 carries the WAL; the SSDs after it hold the data.
    let counters = |db: &WattDb| {
        db.with_cluster(|c| {
            let survivors = c.nodes.iter().filter(|n| n.id != victim);
            let disks = survivors.flat_map(|n| &n.disks[1..]);
            let read: u64 = disks.map(|d| d.bulk_bytes()).sum();
            (read, c.replication.rereplicated_bytes)
        })
    };
    let (read_before, copied_before) = counters(&db);
    db.fail_node(victim);
    db.run_for(SimDuration::from_secs(120));
    let (read, copied) = counters(&db);
    let copied = copied - copied_before;
    assert!(copied > 0, "the kill re-replicated nothing");
    assert_eq!(
        db.with_cluster(|c| c.replication.under_replicated()),
        vec![]
    );
    assert!(
        read - read_before >= copied,
        "{} B read off the leaders' data disks for {copied} B re-replicated",
        read - read_before
    );
}

#[test]
fn leader_kill_promotes_and_keeps_serving() {
    let mut db = replicated_db(1, &[NodeId(0), NodeId(1), NodeId(2)]);
    db.engage_autopilot(wattdb_core::PolicyConfig {
        cpu_high: 1.1, // only failover decisions fire
        cpu_low: 0.0,
        ..Default::default()
    });
    db.start_oltp(6, SimDuration::from_millis(40));
    db.run_for(SimDuration::from_secs(20));
    let records = db.live_records();
    let committed = db.completed();
    // Four warehouses spread over the first two data nodes: node 1 is
    // the populated victim (node 2 hosts only follower copies).
    let victim = NodeId(1);
    let led = db.with_cluster(|c| replication::orphans(c, victim));
    assert!(!led.is_empty());
    db.fail_node(victim);
    db.run_for(SimDuration::from_secs(120));
    db.with_cluster(|c| {
        let erased = !replication::references(c, victim);
        assert!(erased, "corpse erased from the map and the catalog");
        for &seg in &led {
            assert!(c.replication.followers(seg).is_some(), "still tracked");
            assert_ne!(c.seg_dir.get(seg).unwrap().node, victim);
        }
    });
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
    db.engage_autopilot(wattdb_core::PolicyConfig {
        cpu_high: 1.1, // only failover decisions fire
        cpu_low: 0.0,
        ..Default::default()
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
                let shipper = c.replication.shipper(n.id);
                for f in shipper.followers() {
                    let shipped = shipper.shipped_lsn(f).expect("attached");
                    let acked = shipper.acked_lsn(f).expect("attached");
                    assert!(acked <= shipped, "{f}: acked past shipped");
                    assert!(shipped <= n.log.last_lsn(), "{f}: shipped past the log");
                    let lag = shipper.lag(f, &n.log).expect("attached");
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
    let led = db.with_cluster(|c| replication::orphans(c, victim));
    assert!(!led.is_empty());
    let committed = db.completed();
    db.fail_node(victim);
    db.run_for(SimDuration::from_secs(60));
    db.with_cluster(|c| {
        let erased = !replication::references(c, victim);
        assert!(erased, "corpse erased from the map and the catalog");
        for &seg in &led {
            assert!(c.replication.followers(seg).is_some(), "still tracked");
            assert_ne!(c.seg_dir.get(seg).unwrap().node, victim);
        }
    });
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
        match pick_promotion(candidates.iter().copied()) {
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
        hosts in proptest::collection::vec((0u16..8, 0.0f64..100.0), 1..8),
        factor in 1usize..4,
    ) {
        // One need per segment, and a follower listed at most once —
        // the shape the replica map hands the planner.
        let mut seen = std::collections::BTreeSet::new();
        let needs: Vec<ReplicaSite> = needs
            .into_iter()
            .filter(|&(s, _, _)| seen.insert(s))
            .map(|(s, leader, existing)| {
                let mut followers: Vec<NodeId> =
                    existing.into_iter().map(NodeId).collect();
                followers.sort_unstable();
                followers.dedup();
                ReplicaSite {
                    seg: SegmentId(s),
                    leader: NodeId(leader),
                    followers,
                }
            })
            .collect();
        let hosts: Vec<HostRow> = hosts
            .into_iter()
            .map(|(n, heat)| HostRow {
                node: NodeId(n),
                heat,
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
                    !need.followers.contains(f),
                    "{}: {} already a follower", p.seg, f
                );
            }
            prop_assert!(
                need.followers.len() + p.followers.len() <= factor,
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
                        let landed = Rank::end_of(SimTime::ZERO);
                        shipper.book_ack(f, lsn, landed);
                        shipper.settle(landed);
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
