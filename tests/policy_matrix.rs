//! Deterministic scenario matrix for the threshold elasticity policy: the
//! full autopilot driven over a grid of workload shapes (uniform,
//! stationary hot range, advancing hot range, bimodal, idle-then-burst,
//! scale-in, failover) from fixed seeds, asserting per-scenario
//! invariants:
//!
//! * heat skew alone — uniform, bimodal or one stationary hot range on an
//!   unsaturated cluster — never moves data or powers a node on;
//! * scale-in always drains the coldest node — and refuses a node that is
//!   entangled in an in-flight migration;
//! * every decision event logs the threshold that triggered it;
//! * on the advancing-hotspot scenario, projected-heat planning realizes
//!   a strictly lower post-rebalance max node heat than historical-heat
//!   planning for no more bytes shipped.
//!
//! Synthetic scenarios inject access heat directly into the heat table on
//! the monitoring cadence — the drift tracker and planner then run
//! exactly as they would under a live workload, but every run is
//! bit-identical and fast. The idle-then-burst scenario drives real TPC-C
//! clients to exercise the CPU path end to end.

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{CostParams, NodeId, SegmentId, SimDuration, TableId};
use wattdb_core::api::WattDb;
use wattdb_core::autopilot::Outcome;
use wattdb_core::cluster::{Cluster, Scheme};
use wattdb_core::heat;
use wattdb_core::migration::{self, ControlPlan};
use wattdb_core::policy::{Decision, PolicyConfig};
use wattdb_core::replication;
use wattdb_core::ControlEvent;

const WINDOW_SECS: u64 = 5;

// ---------------------------------------------------------------- configs

/// The default controller with a shorter patience, for test runtimes.
fn thresholds() -> PolicyConfig {
    PolicyConfig {
        patience: 2,
        ..Default::default()
    }
}

/// Both CPU bounds out of reach (utilization cannot exceed 1.0, nor fall
/// below 0.0): the controller can only hold.
fn unreachable() -> PolicyConfig {
    PolicyConfig {
        cpu_high: 1.1,
        cpu_low: 0.0,
        patience: 2,
        ..Default::default()
    }
}

// ---------------------------------------------------------------- harness

fn build(policy: PolicyConfig, seed: u64, data_nodes: &[NodeId], horizon_secs: u64) -> WattDb {
    WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(seed)
        .initial_data_nodes(data_nodes)
        .policy(policy)
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .heat_tracking(wattdb_common::HeatConfig {
            horizon: SimDuration::from_secs(horizon_secs),
            ..Default::default()
        })
        .autopilot(true)
        .build()
}

/// Node-0 segments of the table holding the most of them, in key order —
/// the track an advancing hotspot walks along.
fn node0_track(db: &WattDb) -> Vec<SegmentId> {
    db.with_cluster(|c| {
        let mut by_table: std::collections::HashMap<TableId, Vec<_>> =
            std::collections::HashMap::new();
        for m in c.seg_dir.iter().filter(|m| m.node == NodeId(0)) {
            by_table
                .entry(m.table)
                .or_default()
                .push((m.key_range.map(|r| r.start), m.id));
        }
        let mut best = by_table
            .into_values()
            .max_by_key(|v| v.len())
            .expect("node 0 holds segments");
        best.sort();
        best.into_iter().map(|(_, id)| id).collect()
    })
}

/// All segments on `node`, any table.
fn segments_on(db: &WattDb, node: NodeId) -> Vec<SegmentId> {
    db.with_cluster(|c| {
        c.seg_dir
            .iter()
            .filter(|m| m.node == node)
            .map(|m| m.id)
            .collect()
    })
}

/// Total decayed heat of `node`'s segments, now.
fn node_heat(db: &WattDb, node: NodeId) -> f64 {
    let now = db.now();
    db.with_cluster(|c| c.heat.node_heat(&c.seg_dir, node, now).value())
}

/// Every completed rebalance of the run, in completion order.
fn rebalance_history(db: &WattDb) -> Vec<wattdb_core::RebalanceReport> {
    db.with_cluster(|c| c.metrics.rebalances.clone())
}

/// Charge `n` unit reads to a segment.
fn bump(c: &mut Cluster, seg: SegmentId, now: wattdb_common::SimTime, n: u32) {
    for _ in 0..n {
        c.heat.record_read(seg, now);
    }
}

/// Run `windows` monitoring windows, invoking `inject(window, cluster,
/// now)` once per window on the monitoring cadence.
fn drive(
    db: &mut WattDb,
    windows: u64,
    mut inject: impl FnMut(u64, &mut Cluster, wattdb_common::SimTime) + 'static,
) {
    let counter = Rc::new(RefCell::new(0u64));
    db.with_runtime(|cl, sim| {
        let handle = cl.clone();
        let counter = counter.clone();
        sim.every(SimDuration::from_secs(WINDOW_SECS), move |sim| {
            let w = {
                let mut c = counter.borrow_mut();
                let w = *c;
                *c += 1;
                w
            };
            if w >= windows {
                return false;
            }
            inject(w, &mut handle.borrow_mut(), sim.now());
            true
        });
    });
    db.run_for(SimDuration::from_secs(WINDOW_SECS * (windows + 2)));
}

/// Every decision event must name its trigger; suspension bookkeeping
/// entries carry none.
fn assert_triggers_logged(events: &[ControlEvent]) {
    for e in events {
        match (&e.outcome, &e.decision) {
            (Outcome::Suspended { .. }, _) => assert_eq!(e.trigger, "", "suspension entry: {e:?}"),
            (_, Decision::ScaleOut { .. }) => assert_eq!(e.trigger, "cpu-high", "{e:?}"),
            (_, Decision::ScaleIn { .. }) => assert_eq!(e.trigger, "cpu-low", "{e:?}"),
            (_, Decision::Promote { .. }) => assert_eq!(e.trigger, "failover", "{e:?}"),
            (_, Decision::Hold) => panic!("hold decisions are never logged: {e:?}"),
        }
    }
}

fn scale_out_events(events: &[ControlEvent]) -> Vec<&ControlEvent> {
    events
        .iter()
        .filter(|e| matches!(e.decision, Decision::ScaleOut { .. }))
        .collect()
}

// -------------------------------------------------------------- scenarios

#[test]
fn uniform_load_never_trips_the_skew_trigger() {
    for (label, policy) in [("unreachable", unreachable()), ("thresholds", thresholds())] {
        let db = build(policy, 11, &[NodeId(0), NodeId(1)], 10);
        let segs: Vec<SegmentId> = db.with_cluster(|c| c.seg_dir.iter().map(|m| m.id).collect());
        let mut db2 = db; // move into drive
        drive(&mut db2, 24, move |_, c, now| {
            for &s in &segs {
                bump(c, s, now, 4);
            }
        });
        let events = db2.events();
        assert_triggers_logged(&events);
        assert!(
            scale_out_events(&events).is_empty(),
            "[{label}] uniform heat on idle CPUs must not scale out: {events:?}"
        );
        if policy.cpu_low == 0.0 {
            // Bounds out of reach: nothing can fire at all.
            assert!(
                events.is_empty(),
                "[{label}] no decisions expected: {events:?}"
            );
        }
        println!("[uniform/{label}] events={} (no scale-out)", events.len());
    }
}

#[test]
fn bimodal_load_balanced_across_nodes_stays_quiet() {
    // Two hot ranges of equal intensity, one per data node: heavily
    // skewed *within* each node's key space, balanced *across* nodes, and
    // the CPUs idle — nothing may fire.
    let mut db = build(unreachable(), 13, &[NodeId(0), NodeId(1)], 10);
    let hot0: Vec<SegmentId> = segments_on(&db, NodeId(0)).into_iter().take(3).collect();
    let hot1: Vec<SegmentId> = segments_on(&db, NodeId(1)).into_iter().take(3).collect();
    drive(&mut db, 24, move |_, c, now| {
        for &s in hot0.iter().chain(hot1.iter()) {
            bump(c, s, now, 40);
        }
    });
    let events = db.events();
    assert_triggers_logged(&events);
    assert!(
        events.is_empty(),
        "bimodal-but-balanced load fired the policy: {events:?}"
    );
    println!(
        "[bimodal/unreachable] node heats: {:.1} vs {:.1}, no events",
        node_heat(&db, NodeId(0)),
        node_heat(&db, NodeId(1))
    );
}

#[test]
fn cpu_only_config_ignores_skew() {
    // A stationary hot range pinned to node 0's bottom segments under the
    // default controller: heats are wildly skewed but CPUs idle, so
    // nothing moves towards the cold node and nothing powers on — the
    // only permissible decisions are idle scale-ins.
    let mut db = build(thresholds(), 17, &[NodeId(0), NodeId(1)], 10);
    let track = node0_track(&db);
    let hot: Vec<SegmentId> = track.iter().copied().take(4).collect();
    drive(&mut db, 20, move |_, c, now| {
        for &s in &hot {
            bump(c, s, now, 40);
        }
    });
    let events = db.events();
    assert_triggers_logged(&events);
    assert!(
        scale_out_events(&events).is_empty(),
        "idle CPUs cannot scale out: {events:?}"
    );
    assert!(
        events
            .iter()
            .all(|e| matches!(e.decision, Decision::ScaleIn { .. })),
        "only idle scale-ins: {events:?}"
    );
}

// -------------------------------------------------- scale-in: coldest node

#[test]
fn scale_in_always_drains_the_coldest_node() {
    // Three data nodes with clearly ordered heat (node 1 hottest, node 2
    // coldest), everyone idle on CPU: successive scale-ins must drain the
    // coldest non-master node each time — node 2 first, then node 1.
    // Six warehouses split evenly across the three nodes.
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(6)
        .density(0.05)
        .segment_pages(8)
        .seed(19)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .policy(thresholds())
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    assert!(
        !segments_on(&db, NodeId(2)).is_empty(),
        "warehouse split covers node 2"
    );
    let s0 = segments_on(&db, NodeId(0));
    let s1 = segments_on(&db, NodeId(1));
    let s2 = segments_on(&db, NodeId(2));
    drive(&mut db, 40, move |w, c, now| {
        if w >= 2 {
            return; // heat injected early, then the cluster idles
        }
        for &s in &s0 {
            bump(c, s, now, 20);
        }
        for &s in &s1 {
            bump(c, s, now, 60);
        }
        for &s in &s2 {
            bump(c, s, now, 2);
        }
    });
    let events = db.events();
    assert_triggers_logged(&events);
    let drains: Vec<Vec<NodeId>> = events
        .iter()
        .filter(|e| e.outcome == Outcome::Applied)
        .filter_map(|e| match &e.decision {
            Decision::ScaleIn { drain } => Some(drain.clone()),
            _ => None,
        })
        .collect();
    assert!(!drains.is_empty(), "idle cluster must scale in: {events:?}");
    assert_eq!(
        drains[0],
        vec![NodeId(2)],
        "first drain takes the coldest node: {events:?}"
    );
    if drains.len() > 1 {
        assert_eq!(
            drains[1],
            vec![NodeId(1)],
            "second drain takes the remaining non-master: {events:?}"
        );
    }
    // The drained node was powered down once empty.
    let suspended: Vec<NodeId> = events
        .iter()
        .filter_map(|e| match &e.outcome {
            Outcome::Suspended { nodes } => Some(nodes.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(
        suspended.contains(&NodeId(2)),
        "coldest node suspended after its drain: {events:?}"
    );
    println!("[scale-in/cpu-only] drains={drains:?} suspended={suspended:?}");
}

#[test]
fn scale_in_refuses_a_node_inside_an_active_migration() {
    // A long-running manual rebalance is filling node 2 while the cluster
    // idles below the scale-in bound. The policy will pick node 2 (the
    // coldest data node) — and the controller must refuse the drain with
    // a dedicated reason while the migration is still touching it.
    let policy = PolicyConfig {
        cpu_high: 1.1, // scale-out out of reach
        cpu_low: 0.5,  // idle cluster breaches immediately
        patience: 2,
        ..Default::default()
    };
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .io_scale(4000) // segment copies take minutes: the drain decision lands mid-flight
        .seed(23)
        .initial_data_nodes(&[NodeId(0)])
        .policy(policy)
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    db.rebalance(0.5, &[NodeId(0)], &[NodeId(2)]);
    let mut refused = None;
    for _ in 0..200 {
        db.run_for(SimDuration::from_secs(WINDOW_SECS));
        refused = db.events().into_iter().find(|e| {
            matches!(e.decision, Decision::ScaleIn { ref drain } if drain.contains(&NodeId(2)))
                && matches!(
                    e.outcome,
                    Outcome::Deferred { reason } if reason.contains("active migration")
                )
        });
        if refused.is_some() {
            break;
        }
    }
    let refused = refused.unwrap_or_else(|| {
        panic!(
            "drain of the migration target was never refused: {:?}",
            db.events()
        )
    });
    assert_eq!(refused.trigger, "cpu-low");
    // The refusal is a deferral, not a cancellation: no second rebalance
    // ever started while the first was in flight.
    assert!(rebalance_history(&db).len() <= 1, "one rebalance at a time");
}

// ------------------------------------ scale-in under replication

#[test]
fn scale_in_with_replication_rehomes_followers_before_suspension() {
    // Three replicated data nodes idle below the low bound. The drained
    // node hosts follower copies for the survivors' segments: the drain
    // must re-home those copies in the same decision, the node must still
    // suspend, and once the backfill copies land not a single segment may
    // sit under the replication factor or reference the suspended node.
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(6)
        .density(0.05)
        .segment_pages(8)
        .seed(43)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .replication(1)
        .policy(thresholds())
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    let s0 = segments_on(&db, NodeId(0));
    let s1 = segments_on(&db, NodeId(1));
    let s2 = segments_on(&db, NodeId(2));
    drive(&mut db, 60, move |w, c, now| {
        if w >= 2 {
            return; // heat injected early, then the cluster idles
        }
        for &s in &s0 {
            bump(c, s, now, 20);
        }
        for &s in &s1 {
            bump(c, s, now, 60);
        }
        for &s in &s2 {
            bump(c, s, now, 2);
        }
    });
    let events = db.events();
    assert_triggers_logged(&events);
    let applied_drains: Vec<Vec<NodeId>> = events
        .iter()
        .filter(|e| e.outcome == Outcome::Applied)
        .filter_map(|e| match &e.decision {
            Decision::ScaleIn { drain } => Some(drain.clone()),
            _ => None,
        })
        .collect();
    assert!(
        !applied_drains.is_empty(),
        "idle replicated cluster must still scale in: {events:?}"
    );
    let suspended: Vec<NodeId> = events
        .iter()
        .filter_map(|e| match &e.outcome {
            Outcome::Suspended { nodes } => Some(nodes.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(
        suspended.contains(&NodeId(2)),
        "replica copies must not pin the coldest node on: {events:?}"
    );
    db.with_cluster(|c| {
        assert_eq!(
            replication::check_invariants(c),
            None,
            "replica map consistent after the drain"
        );
        assert!(
            c.replication.under_replicated().is_empty(),
            "drain orphaned follower copies: {:?}",
            c.replication.under_replicated()
        );
        for &n in &suspended {
            assert!(
                !replication::references(c, n),
                "suspended node {n} still referenced by the replica map"
            );
        }
    });
    println!("[scale-in/replicated] drains={applied_drains:?} suspended={suspended:?}");
}

#[test]
fn scale_in_refuses_a_drain_that_would_strand_follower_copies() {
    // Two data nodes at factor 1: every segment's single follower lives
    // on the *other* node, so draining either one leaves no surviving
    // host for its copies. The controller must refuse the drain with the
    // dedicated reason — and keep refusing it — rather than power off a
    // node and silently drop the factor to zero.
    let policy = PolicyConfig {
        cpu_high: 1.1, // scale-out out of reach
        cpu_low: 0.5,  // idle cluster breaches immediately
        patience: 2,
        ..Default::default()
    };
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(53)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .replication(1)
        .policy(policy)
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    let active_before = db.active_nodes();
    db.run_for(SimDuration::from_secs(WINDOW_SECS * 30));
    let events = db.events();
    assert_triggers_logged(&events);
    let refused = events
        .iter()
        .find(|e| {
            matches!(e.decision, Decision::ScaleIn { .. })
                && matches!(
                    e.outcome,
                    Outcome::Deferred { reason } if reason.contains("follower replicas")
                )
        })
        .unwrap_or_else(|| panic!("stranding drain was never refused: {events:?}"));
    assert_eq!(refused.trigger, "cpu-low");
    // The refusal held: nothing was applied, nothing suspended, and the
    // replica map never lost a copy.
    assert!(
        !events.iter().any(
            |e| matches!(e.decision, Decision::ScaleIn { .. }) && e.outcome == Outcome::Applied
        ),
        "a stranding drain was applied: {events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.outcome, Outcome::Suspended { .. })),
        "a data node was suspended: {events:?}"
    );
    assert_eq!(db.active_nodes(), active_before, "node count unchanged");
    db.with_cluster(|c| {
        assert_eq!(replication::check_invariants(c), None);
        assert!(
            c.replication.under_replicated().is_empty(),
            "refused drain still lost copies: {:?}",
            c.replication.under_replicated()
        );
    });
}

// ------------------------------------------------- failure: promotion path

/// A policy with every elasticity trigger out of reach: only failover
/// decisions can appear in the log.
fn failover_only() -> PolicyConfig {
    PolicyConfig {
        cpu_high: 1.1,
        cpu_low: 0.0,
        patience: 2,
        ..Default::default()
    }
}

#[test]
fn kill_active_mid_migration_promotes_and_recovers() {
    // Two data nodes under replication factor 1: each node's segments keep
    // a log-shipped follower copy on the other. A slow migration is
    // draining the victim when it dies mid-copy. The autopilot must
    // detect the loss within a monitoring window, promote the follower
    // for every orphaned segment, re-cover the key space, and restore
    // the replication factor — with every committed write still readable.
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .io_scale(400) // segment copies take ~15s of wire time: the kill
        // lands mid-flight, yet re-replicating the whole key space (the
        // victim was one of only two data nodes) still fits the horizon
        .seed(37)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .replication(1)
        .policy(failover_only())
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    // Committed writes land on both nodes before anything goes wrong.
    db.start_oltp(8, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(20));
    let committed_before = db.completed();
    let records_before = db.live_records();
    assert!(committed_before > 0, "writes committed before the failure");
    let victim = NodeId(1);
    let led_before = db.with_cluster(|c| replication::orphans(c, victim));
    assert!(!led_before.is_empty(), "victim leads segments");
    let followers_before: Vec<Vec<NodeId>> = db.with_cluster(|c| {
        (led_before.iter())
            .map(|&seg| c.replication.followers_of(seg).to_vec())
            .collect()
    });
    // The migration is mid-flight off the victim when it dies.
    db.rebalance(0.5, &[victim], &[NodeId(2)]);
    db.run_for(SimDuration::from_secs(2));
    assert!(db.rebalancing(), "migration in flight at the kill");
    db.fail_node(victim);
    db.run_for(SimDuration::from_secs(WINDOW_SECS * 40));
    let events = db.events();
    assert_triggers_logged(&events);
    // The failover decision was detected, logged, and applied.
    let promote = events
        .iter()
        .find(|e| matches!(e.decision, Decision::Promote { .. }))
        .unwrap_or_else(|| panic!("no failover decision logged: {events:?}"));
    assert_eq!(promote.trigger, "failover");
    assert_eq!(promote.outcome, Outcome::Applied);
    let Decision::Promote {
        failed,
        ref orphaned,
    } = promote.decision
    else {
        unreachable!()
    };
    assert_eq!(failed, victim);
    assert!(!orphaned.is_empty(), "orphaned segments named: {promote:?}");
    // Promotion correctness: every segment the victim led is now led by a
    // node that was its follower before the failure (factor 1: the single
    // follower IS the most-caught-up one), unless a completed migration
    // already moved it off the victim.
    db.with_cluster(|c| {
        for (&seg, followers_before) in led_before.iter().zip(&followers_before) {
            assert!(
                c.replication.followers(seg).is_some(),
                "{seg} vanished from the replica map"
            );
            let leader = c.seg_dir.get(seg).unwrap().node;
            assert_ne!(leader, victim, "{seg} still led by the corpse");
            // A move that landed before the kill put it on the target.
            assert!(
                followers_before.contains(&leader) || leader == NodeId(2),
                "{seg}: new leader {leader} was neither a follower nor the move's target"
            );
        }
        // The key space is re-covered: nothing is stored on the dead node.
        assert!(
            c.seg_dir.iter().all(|m| m.node != victim),
            "segments still placed on the dead node"
        );
        // Replication factor restored by re-replication.
        assert!(
            c.replication.under_replicated().is_empty(),
            "factor not restored: {:?}",
            c.replication.under_replicated()
        );
    });
    assert!(
        !db.with_cluster(|c| replication::references(c, victim)),
        "dead node erased from the map"
    );
    assert!(
        db.with_cluster(|c| c.replication.rereplicated_bytes) > 0,
        "re-replication shipped bytes"
    );
    // No committed write was lost: the workload keeps inserting, so the
    // population may grow — but never shrink past what was committed
    // before the failure — and the surviving cluster keeps serving the
    // whole key space.
    assert!(
        db.live_records() >= records_before,
        "committed records lost"
    );
    assert!(
        db.completed() > committed_before,
        "transactions keep completing after failover"
    );
    println!(
        "[failover/mid-migration] orphaned={} rereplicated={}B completed {}→{}",
        orphaned.len(),
        db.with_cluster(|c| c.replication.rereplicated_bytes),
        committed_before,
        db.completed()
    );
}

#[test]
fn kill_follower_rereplicates_to_restore_the_factor() {
    // Three data nodes, factor 1. The victim is a *follower* for other
    // nodes' segments (besides leading its own): after the kill, every
    // segment that lost its follower must get a fresh one on a surviving
    // node — never co-located with its leader.
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(6)
        .density(0.05)
        .segment_pages(8)
        .seed(41)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .replication(1)
        .policy(failover_only())
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    db.start_oltp(6, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(15));
    let victim = NodeId(2);
    let followed = db.with_cluster(|c| c.replication.followed_by(victim));
    assert!(!followed.is_empty(), "victim follows other nodes' segments");
    db.fail_node(victim);
    db.run_for(SimDuration::from_secs(WINDOW_SECS * 30));
    let events = db.events();
    assert_triggers_logged(&events);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.decision, Decision::Promote { failed, .. } if failed == victim)),
        "failover logged: {events:?}"
    );
    let erased = db.with_cluster(|c| !replication::references(c, victim));
    assert!(erased, "dead follower erased everywhere");
    db.with_cluster(|c| {
        assert!(
            c.replication.under_replicated().is_empty(),
            "factor not restored: {:?}",
            c.replication.under_replicated()
        );
    });
    // The restored copies were shipped over the wire, and none of the
    // segments the victim followed ended up with a co-located follower.
    assert!(
        db.with_cluster(|c| c.replication.rereplicated_bytes) > 0,
        "re-replication shipped bytes"
    );
    db.with_cluster(|c| {
        for seg in followed {
            let leader = c.seg_dir.get(seg).unwrap().node;
            assert!(
                !c.replication.followers_of(seg).contains(&leader),
                "{seg}: follower co-located with leader"
            );
        }
        println!(
            "[failover/follower-kill] rereplicated={}B map segments={}",
            c.replication.rereplicated_bytes,
            replication::sites(c).count()
        );
    });
}

// ------------------------------------------------------- idle-then-burst

#[test]
fn idle_then_burst_scales_out_on_cpu() {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(16)
        .costs(CostParams::scaled(40))
        .seed(1)
        .initial_data_nodes(&[NodeId(0)])
        .policy(thresholds())
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    // Idle phase: one data node, no load — the controller must hold.
    db.run_for(SimDuration::from_secs(60));
    assert!(
        db.events().is_empty(),
        "idle phase decided: {:?}",
        db.events()
    );
    // Burst: saturate node 0.
    db.start_oltp(48, SimDuration::from_millis(30));
    let mut scaled_out = false;
    for _ in 0..60 {
        db.run_for(SimDuration::from_secs(WINDOW_SECS));
        let spread = db
            .active_nodes()
            .iter()
            .filter(|&&n| !segments_on(&db, n).is_empty())
            .count();
        if spread > 1 && !db.rebalancing() {
            scaled_out = true;
            break;
        }
    }
    assert!(scaled_out, "burst never scaled out: {:?}", db.events());
    let events = db.events();
    assert_triggers_logged(&events);
    let scale_out = events
        .iter()
        .find(|e| matches!(e.decision, Decision::ScaleOut { .. }))
        .expect("scale-out logged");
    assert_eq!(scale_out.trigger, "cpu-high");
    assert_eq!(scale_out.outcome, Outcome::Applied);
    assert!(scale_out.signals.max_cpu > 0.8, "driven by a CPU breach");
}

// ------------------------------------- advancing hotspot: drift pays off

struct AdvancingOutcome {
    rebalances: usize,
    bytes: u64,
    max_heat: f64,
    heats: Vec<f64>,
}

/// Window at which [`run_advancing`] rebalances: by then the hotspot has
/// advanced for several windows, the trail exists, and the velocity
/// estimates have matured.
const ADVANCING_FIRE: u64 = 11;

/// Drive an advancing hot window along node 0's key-ordered segments and
/// rebalance it onto node 1 once, at window [`ADVANCING_FIRE`], with the
/// heat-aware planner at the given drift horizon (0 = historical heat).
/// Returns the realized state at a fixed end time.
///
/// The shape is the TPC-C insert-front regime: a *narrow* hot window
/// advancing slowly, leaving a trail of recently-hot, now-cooling
/// segments whose accumulated heat still rivals the active window's.
/// Historical planning cannot tell the trail from the front; projected
/// planning discounts the cooling trail and boosts the warming entrants.
fn run_advancing(horizon_secs: u64) -> AdvancingOutcome {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(29)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .policy(unreachable())
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .heat_tracking(wattdb_common::HeatConfig {
            // Adapt fast: a segment the front just reached earns a strong
            // velocity estimate within a window or two.
            velocity_half_life: SimDuration::from_secs(3),
            horizon: SimDuration::from_secs(horizon_secs),
            ..Default::default()
        })
        .autopilot(true)
        .build();
    let track = node0_track(&db);
    assert!(
        track.len() >= 10,
        "advancing scenario needs a long track, got {}",
        track.len()
    );
    let width = 3usize;
    // Three windows per one-segment advance. The hotspot keeps advancing
    // a few windows past the rebalance so the *realized* balance —
    // measured while the front overlaps the segments each plan chose —
    // separates the planners.
    let dwell = 3u64;
    let windows = 14u64;
    let track_len = track.len();
    // The rebalance runs inside the window, after the monitoring window
    // has folded its velocities in and before the window's heat lands.
    db.with_runtime(|cl, sim| {
        let handle = cl.clone();
        let mut w = 0u64;
        sim.every(SimDuration::from_secs(WINDOW_SECS), move |sim| {
            if w >= windows {
                return false;
            }
            if w == ADVANCING_FIRE {
                let (sources, targets) = ([NodeId(0)], [NodeId(1)]);
                let plan = heat::plan_scale_out(&handle.borrow(), sim.now(), &sources, &targets);
                assert!(!plan.moves.is_empty(), "the hot range is movable");
                migration::run(&handle, sim, ControlPlan::planned(&plan, &targets));
            }
            let f = (w / dwell) as usize;
            let c = &mut *handle.borrow_mut();
            for &seg in track.iter().take((f + width).min(track.len())).skip(f) {
                bump(c, seg, sim.now(), 40);
            }
            w += 1;
            true
        });
    });
    db.run_for(SimDuration::from_secs(WINDOW_SECS * (windows + 2)));
    let heats: Vec<f64> = (0..4).map(|n| node_heat(&db, NodeId(n))).collect();
    let history = rebalance_history(&db);
    println!(
        "[advancing] horizon={horizon_secs}s track={track_len} fired_at={:?} segments_moved={:?} heat planned/moved={:.1}/{:.1}",
        history.first().map(|r| r.started),
        history.first().map(|r| r.segments_moved),
        history.first().map(|r| r.heat_planned).unwrap_or(0.0),
        history.first().map(|r| r.heat_moved).unwrap_or(0.0),
    );
    AdvancingOutcome {
        rebalances: rebalance_history(&db).len(),
        bytes: rebalance_history(&db).iter().map(|r| r.bytes_moved).sum(),
        max_heat: heats.iter().copied().fold(0.0, f64::max),
        heats,
    }
}

#[test]
fn advancing_hotspot_projected_planning_beats_historical() {
    let historical = run_advancing(0);
    let projected = run_advancing(10);
    println!(
        "[advancing] historical: rebalances={} bytes={} max_heat={:.1} heats={:?}",
        historical.rebalances, historical.bytes, historical.max_heat, historical.heats
    );
    println!(
        "[advancing] projected:  rebalances={} bytes={} max_heat={:.1} heats={:?}",
        projected.rebalances, projected.bytes, projected.max_heat, projected.heats
    );
    assert_eq!(historical.rebalances, 1, "one rebalance per run");
    assert_eq!(projected.rebalances, 1, "one rebalance per run");
    // The acceptance criterion: planning against where heat is *going*
    // realizes a strictly lower post-rebalance max node heat, for no more
    // bytes shipped.
    assert!(
        projected.max_heat < historical.max_heat,
        "projected {:.1} must beat historical {:.1}",
        projected.max_heat,
        historical.max_heat
    );
    assert!(
        projected.bytes <= historical.bytes,
        "projected bytes {} must not exceed historical {}",
        projected.bytes,
        historical.bytes
    );
}
