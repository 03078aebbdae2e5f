//! Planner-driven helper placement (Fig. 8 helpers as a planned
//! elasticity response).
//!
//! * The helper planner targets the **net/remote-heavy** sources: under
//!   the cost signal a node whose heat is interconnect traffic outranks a
//!   hotter node burning pure CPU (a helper relieves the wire and the
//!   log, not the ALU), with the count signal falling back to total heat.
//! * A helper is never a node entangled in the in-flight migration, never
//!   one already helping, and never the master while an alternative
//!   exists.
//! * Property tests: helper choice is invariant under node renumbering,
//!   and a plan never exceeds `max_helpers` nor assigns a source or a
//!   duplicate as a helper.
//! * The manual path regression: an explicit helper list still produces
//!   the exact legacy attach/detach trace (`sources[i]` paired with
//!   `helpers[i % len]`, all listed helpers powered, everything released
//!   when the rebalance completes), bit-identical across fixed-seed runs.
//! * A helper killed mid-rebalance stops serving at once, and the
//!   response closes with its last helper.

use wattdb_common::{CostVector, HelperPolicyConfig, NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::heat::AccessKind;
use wattdb_core::migration::{ControlPlan, HelperAttach};
use wattdb_planner::HelperPlan;
use wattdb_telemetry::{AttrValue, Span};

fn builder(nodes: u16, data: &[NodeId]) -> wattdb_core::WattDbBuilder {
    WattDb::builder()
        .nodes(nodes)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(8)
        .seed(47)
        .initial_data_nodes(data)
}

/// Charge cost-based heat to the first segment of `node`: `net` bytes of
/// interconnect traffic and `cpu_us` of CPU, so the segment's (and the
/// node's) net share is exactly what the test dictates.
fn charge(db: &mut WattDb, node: NodeId, cpu_us: u64, net: u64, times: u32) {
    let now = db.now();
    db.with_runtime(|cl, _| {
        let mut c = cl.borrow_mut();
        let seg = c
            .seg_dir
            .on_node(node)
            .next()
            .expect("node holds a segment")
            .id;
        for _ in 0..times {
            c.heat.record_access(
                seg,
                now,
                AccessKind::Read,
                CostVector {
                    cpu: SimDuration::from_micros(cpu_us),
                    pages: 1,
                    net_bytes: net,
                },
                net > 0,
            );
        }
    });
}

/// The helper plan the policy in force would attach for `sources`
/// ([`wattdb_core::heat::plan_helpers`] under `cfg`).
fn plan_helpers(db: &WattDb, cfg: &HelperPolicyConfig, sources: &[NodeId]) -> HelperPlan {
    let now = db.now();
    db.with_cluster(|c| wattdb_core::heat::plan_helpers(c, now, cfg, sources))
}

/// A scripted attachment: released when the next rebalance completes, or
/// by [`detach_helpers`].
fn attach_helpers(db: &mut WattDb, plan: &HelperPlan) {
    db.run(ControlPlan {
        attach: Some(HelperAttach::planned(plan, true)),
        ..Default::default()
    });
}

fn helpers_active(db: &WattDb) -> Vec<NodeId> {
    db.with_cluster(|c| c.helpers.nodes())
}

fn detach_helpers(db: &mut WattDb) {
    db.run(ControlPlan {
        detach: helpers_active(db),
        ..Default::default()
    });
}

#[test]
fn planner_targets_the_net_heaviest_source_under_cost_heat() {
    let mut db = builder(4, &[NodeId(0), NodeId(1)]).build();
    // Node 0 (the master here) burns pure CPU; node 1 runs half as much
    // heat but almost all of it is remote traffic. Node 1 ranks first —
    // its pain is exactly what a helper relieves.
    charge(&mut db, NodeId(0), 200, 0, 400);
    charge(&mut db, NodeId(1), 0, 8192, 200);
    let plan = plan_helpers(&db, &HelperPolicyConfig::default(), &[NodeId(0), NodeId(1)]);
    assert_eq!(plan.assignments.len(), 2, "{plan:?}");
    assert_eq!(
        plan.assignments[0].source,
        NodeId(1),
        "net-heavy outranks hotter-but-local: {plan:?}"
    );
    assert!(plan.predicted_relief > 0.0);
    // Helpers come from the standby pool, never a source.
    for a in &plan.assignments {
        assert!(a.helper == NodeId(2) || a.helper == NodeId(3), "{plan:?}");
    }
}

#[test]
fn net_heat_floor_drops_cpu_pure_sources() {
    // With a positive net-heat floor, the CPU-pure node gets no helper at
    // all — its pain is not remote traffic.
    let mut db = builder(4, &[NodeId(0), NodeId(1)]).build();
    charge(&mut db, NodeId(0), 200, 0, 400);
    charge(&mut db, NodeId(1), 0, 8192, 200);
    let floor = HelperPolicyConfig {
        min_net_heat: 1.0,
        ..Default::default()
    };
    let plan = plan_helpers(&db, &floor, &[NodeId(0), NodeId(1)]);
    assert_eq!(plan.assignments.len(), 1, "{plan:?}");
    assert_eq!(plan.assignments[0].source, NodeId(1));
}

#[test]
fn count_signal_falls_back_to_total_heat() {
    let mut db = builder(4, &[NodeId(0), NodeId(1)]).cost_model(None).build();
    // Pure access counts: the hotter node wins, components are invisible.
    let now = db.now();
    db.with_runtime(|cl, _| {
        let mut c = cl.borrow_mut();
        let s0 = c.seg_dir.on_node(NodeId(0)).next().unwrap().id;
        let s1 = c.seg_dir.on_node(NodeId(1)).next().unwrap().id;
        for _ in 0..50 {
            c.heat.record_read(s0, now);
        }
        for _ in 0..300 {
            c.heat.record_read(s1, now);
        }
    });
    let plan = plan_helpers(&db, &HelperPolicyConfig::default(), &[NodeId(0), NodeId(1)]);
    assert!(!plan.is_empty());
    assert_eq!(
        plan.assignments[0].source,
        NodeId(1),
        "count fallback ranks by total heat: {plan:?}"
    );
}

#[test]
fn planner_never_picks_migration_nodes_or_attached_helpers() {
    // A slow rebalance 0 → 2 is in flight; node 1 is the hot source.
    // Eligible helpers exclude node 0 and node 2 (migration source and
    // target) — only standby node 3 remains. Once node 3 is attached,
    // the pool is empty and the plan must come back empty rather than
    // double-book a helper.
    let mut db = builder(4, &[NodeId(0), NodeId(1)]).io_scale(4000).build();
    charge(&mut db, NodeId(1), 10, 8192, 200);
    db.rebalance(0.5, &[NodeId(0)], &[NodeId(2)]);
    db.run_for(SimDuration::from_secs(8));
    assert!(db.rebalancing(), "migration still in flight");
    let plan = plan_helpers(&db, &HelperPolicyConfig::default(), &[NodeId(1)]);
    assert_eq!(plan.assignments.len(), 1, "{plan:?}");
    assert_eq!(
        plan.assignments[0].helper,
        NodeId(3),
        "only the uninvolved standby may help: {plan:?}"
    );
    attach_helpers(&mut db, &plan);
    assert_eq!(helpers_active(&db), vec![NodeId(3)]);
    let second = plan_helpers(&db, &HelperPolicyConfig::default(), &[NodeId(1)]);
    assert!(
        second.is_empty(),
        "every candidate is entangled or already helping: {second:?}"
    );
    detach_helpers(&mut db);
    assert!(helpers_active(&db).is_empty());
}

#[test]
fn facade_attached_helpers_survive_the_autopilot() {
    // A facade attachment is scripted: it releases when the next
    // rebalance completes or on an explicit `detach_helpers`, never
    // because the autopilot's skew happens to be subsided. Balanced heat
    // keeps the skew below the rearm band the whole run — the policy's
    // subsidence detach must not tear the user's helpers down.
    let mut db = builder(4, &[NodeId(0), NodeId(1)])
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 1.1, // neither CPU bound reachable: skew-only policy
            cpu_low: 0.0,
            ..Default::default()
        })
        .autopilot(true)
        .build();
    charge(&mut db, NodeId(0), 10, 8192, 200);
    charge(&mut db, NodeId(1), 10, 8192, 200);
    let plan = plan_helpers(&db, &HelperPolicyConfig::default(), &[NodeId(1)]);
    attach_helpers(&mut db, &plan);
    let attached = helpers_active(&db);
    assert!(!attached.is_empty());
    db.run_for(SimDuration::from_secs(60)); // a dozen monitoring windows
    assert_eq!(
        helpers_active(&db),
        attached,
        "the policy must not detach a scripted attachment: {:?}",
        db.events()
    );
    assert!(
        db.events()
            .iter()
            .all(|e| !matches!(e.decision, wattdb_core::Decision::DetachHelpers { .. })),
        "no policy-side detach decision: {:?}",
        db.events()
    );
    // The explicit facade release still works.
    detach_helpers(&mut db);
    assert!(helpers_active(&db).is_empty());
}

#[test]
fn planned_rebalance_never_enlists_its_own_targets_as_helpers() {
    // A helper set planned for a rebalance already started: the
    // rebalance's own targets are migration-entangled and must be off
    // the candidate pool (hence rebalance first, plan second). Data on
    // 0/1, standbys 2/3, shipping 0 → 2: were the exclusion missing, the
    // planner would happily take standby 2 — a node about to receive
    // shipped segments — as node 0's log-shipping/buffer helper.
    let mut db = builder(4, &[NodeId(0), NodeId(1)]).build();
    charge(&mut db, NodeId(0), 10, 8192, 200);
    db.rebalance(0.5, &[NodeId(0)], &[NodeId(2)]);
    assert!(db.rebalancing(), "rebalance started");
    let plan = plan_helpers(&db, &HelperPolicyConfig::default(), &[NodeId(0)]);
    attach_helpers(&mut db, &plan);
    assert_eq!(
        helpers_active(&db),
        vec![NodeId(3)],
        "the rebalance target must not moonlight as a helper"
    );
    db.run_for(SimDuration::from_secs(300));
    assert!(!db.rebalancing(), "rebalance completed");
    assert!(
        helpers_active(&db).is_empty(),
        "planned helpers on a scripted rebalance release with its completion"
    );
}

#[test]
fn master_helps_only_when_no_alternative_exists() {
    // Data on nodes 1 and 2, both hot sources; the candidate pool is the
    // master (node 0) and standby node 3. The first plan takes the
    // standby and spares the master; once the standby is attached, the
    // master is the only node left — and only then does it help.
    let mut db = builder(4, &[NodeId(1), NodeId(2)]).build();
    charge(&mut db, NodeId(1), 10, 8192, 200);
    charge(&mut db, NodeId(2), 10, 8192, 100);
    let plan = plan_helpers(&db, &HelperPolicyConfig::default(), &[NodeId(1), NodeId(2)]);
    assert_eq!(
        plan.assignments.len(),
        1,
        "one candidate pool spot: {plan:?}"
    );
    assert_eq!(plan.assignments[0].source, NodeId(1), "net-heaviest first");
    assert_eq!(
        plan.assignments[0].helper,
        NodeId(3),
        "master spared while standby 3 exists: {plan:?}"
    );
    // Attach the standby; node 2 still wants help and only the master is
    // left. (Node 1, already helped, is dropped from the plan.)
    attach_helpers(&mut db, &plan);
    let last_resort = plan_helpers(&db, &HelperPolicyConfig::default(), &[NodeId(1), NodeId(2)]);
    assert_eq!(
        last_resort
            .assignments
            .iter()
            .map(|a| (a.source, a.helper))
            .collect::<Vec<_>>(),
        vec![(NodeId(2), NodeId(0))],
        "master is the pool of last resort: {last_resort:?}"
    );
}

// --------------------------------------------------- manual-path regression

/// The attach-time wiring snapshot of the legacy manual path.
#[derive(Debug, PartialEq)]
struct AttachTrace {
    helper_of: Vec<(u16, Option<u16>)>,
    helpers_active: Vec<NodeId>,
    active_states: Vec<bool>,
}

/// The Fig. 8 shape: n0 and n1 rebalance half their data onto n2 and n3
/// under OLTP load, with n4 and n5 as their scripted helpers.
fn fig8_run(io_scale: u64) -> WattDb {
    let mut db = WattDb::builder()
        .nodes(6)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(8)
        .seed(101)
        .io_scale(io_scale)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .build();
    db.start_oltp(4, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(5));
    let sources = [NodeId(0), NodeId(1)];
    let targets = [NodeId(2), NodeId(3)];
    let plan = db.with_cluster(|c| ControlPlan::fraction(c, 0.5, &sources, &targets));
    db.run(ControlPlan {
        attach: Some(HelperAttach::manual(&sources, &[NodeId(4), NodeId(5)])),
        ..plan
    });
    db
}

/// The last closed `helpers` span: the record of a finished response.
fn closed_response(db: &WattDb) -> Option<Span> {
    db.with_cluster(|c| {
        let closed = c.telemetry.spans.closed();
        closed.filter(|s| s.name == "helpers").last().cloned()
    })
}

fn manual_run() -> (AttachTrace, AttachTrace, wattdb_core::RebalanceReport, Span) {
    let mut db = fig8_run(1);
    let snapshot = |db: &WattDb| {
        db.with_cluster(|c| AttachTrace {
            helper_of: c
                .nodes
                .iter()
                .map(|n| (n.id.raw(), c.helpers.helper_of(n.id).map(|h| h.raw())))
                .collect(),
            helpers_active: c.helpers.nodes(),
            active_states: c.nodes.iter().map(|n| n.life.is_up()).collect(),
        })
    };
    let during = snapshot(&db);
    db.run_for(SimDuration::from_secs(180));
    assert!(!db.rebalancing(), "rebalance completed");
    let after = snapshot(&db);
    let report = db.last_rebalance().expect("report recorded");
    let relief = closed_response(&db).expect("helper response recorded");
    (during, after, report, relief)
}

#[test]
fn manual_helper_list_keeps_the_legacy_attach_detach_trace() {
    let (during, after, report, relief) = manual_run();
    // Legacy pairing: sources[i] → helpers[i % len]; both helpers listed
    // and powered for the duration.
    assert_eq!(during.helper_of[0], (0, Some(4)));
    assert_eq!(during.helper_of[1], (1, Some(5)));
    assert_eq!(during.helpers_active, vec![NodeId(4), NodeId(5)]);
    assert!(during.active_states[4] && during.active_states[5]);
    // Legacy detach: the rebalance's completion releases everything and
    // powers the helpers back down.
    assert!(after.helpers_active.is_empty());
    assert!(after.helper_of.iter().all(|(_, h)| h.is_none()));
    assert!(!after.active_states[4] && !after.active_states[5]);
    assert!(report.segments_moved > 0);
    // While attached, every flush of a source's log went to its helper,
    // and the helper's cursor — and the realized relief — moved with it.
    let released = AttrValue::StrList(vec!["n4".into(), "n5".into()]);
    assert_eq!(relief.attr("helpers"), Some(&released));
    let shipped = relief.attr_f64("shipped_bytes").expect("shipped bytes");
    assert!(shipped > 0.0, "helpers shipped nothing");
    // And the whole trace is a fixed-seed invariant: a second identical
    // run reproduces it bit for bit.
    let (during2, after2, report2, relief2) = manual_run();
    assert_eq!(during, during2);
    assert_eq!(after, after2);
    assert_eq!(report.segments_moved, report2.segments_moved);
    assert_eq!(report.bytes_moved, report2.bytes_moved);
    assert_eq!(report.started, report2.started);
    assert_eq!(relief, relief2);
}

#[test]
fn a_killed_helper_stops_serving_and_closes_the_response() {
    // Both helpers die 7 s into a rebalance that runs on well past that
    // at this I/O scale.
    let mut db = fig8_run(200);
    db.run_for(SimDuration::from_secs(7));
    assert!(db.rebalancing(), "the rebalance outlives its helpers");
    let remote_hits = |db: &WattDb| {
        let hits =
            |c: &wattdb_core::Cluster| c.nodes.iter().map(|n| n.buffer.stats().remote_hits).sum();
        db.with_cluster(hits)
    };
    let killed_at = db.now();
    db.fail_node(NodeId(4));
    db.fail_node(NodeId(5));
    // The response closes with its last helper's death and names it.
    let response = closed_response(&db).expect("the response closed at the kill");
    assert_eq!(response.end, Some(killed_at));
    let last = AttrValue::StrList(vec!["n5".into()]);
    assert_eq!(response.attr("helpers"), Some(&last));
    // The sources lost their remote buffer tier with their helpers: no
    // page is fetched from a dead node's DRAM (or bounced back at the
    // source itself) from here on.
    let at_kill: u64 = remote_hits(&db);
    assert!(at_kill > 0, "the helpers served reads while alive");
    db.run_for(SimDuration::from_secs(60));
    assert_eq!(
        remote_hits(&db),
        at_kill,
        "remote hits after the helpers died"
    );
}

// ------------------------------------------------------------- properties

mod props {
    use proptest::prelude::*;
    use wattdb_common::HelperPolicyConfig;
    use wattdb_common::NodeId;
    use wattdb_planner::{plan_helpers, HelperCandidate, NodeLoadStat};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Renumbering the nodes must renumber — not change — the helper
        /// assignment: the same physical sources pair with the same
        /// physical helpers whatever ids they carry.
        #[test]
        fn helper_choice_is_invariant_under_renumbering(
            src_heats in proptest::collection::vec(1.0f64..100.0, 1..4),
            cand_heats in proptest::collection::vec(0.0f64..50.0, 1..5),
            rot in 1usize..7,
            max_helpers in 1usize..4,
        ) {
            // Distinct signals (perturbed by index) on nodes 1..; node 0
            // is the master and stays fixed under renumbering.
            let n_src = src_heats.len();
            let n = n_src + cand_heats.len();
            let sources: Vec<NodeLoadStat> = src_heats
                .iter()
                .enumerate()
                .map(|(i, &h)| NodeLoadStat {
                    node: NodeId(i as u16 + 1),
                    heat: h + i as f64 * 1e-3,
                    net_heat: h + i as f64 * 1e-3,
                })
                .collect();
            let candidates: Vec<HelperCandidate> = cand_heats
                .iter()
                .enumerate()
                .map(|(i, &h)| HelperCandidate {
                    node: NodeId((n_src + i) as u16 + 1),
                    heat: h + i as f64 * 1e-3,
                    net: h * 0.25,
                    standby: h == 0.0,
                })
                .collect();
            let cfg = HelperPolicyConfig { max_helpers, min_net_heat: 0.0, ..Default::default() };
            let plan_a = plan_helpers(&sources, &candidates, &[], &cfg);

            let perm = |id: NodeId| {
                if id == NodeId(0) {
                    NodeId(0)
                } else {
                    NodeId(((id.raw() as usize - 1 + rot) % n) as u16 + 1)
                }
            };
            let sources_b: Vec<NodeLoadStat> = sources
                .iter()
                .map(|s| NodeLoadStat { node: perm(s.node), ..*s })
                .collect();
            let candidates_b: Vec<HelperCandidate> = candidates
                .iter()
                .map(|c| HelperCandidate { node: perm(c.node), ..*c })
                .collect();
            let plan_b = plan_helpers(&sources_b, &candidates_b, &[], &cfg);

            let mapped: Vec<(NodeId, NodeId)> = plan_a
                .assignments
                .iter()
                .map(|a| (perm(a.source), perm(a.helper)))
                .collect();
            let got: Vec<(NodeId, NodeId)> = plan_b
                .assignments
                .iter()
                .map(|a| (a.source, a.helper))
                .collect();
            prop_assert_eq!(mapped, got, "renumbering changed the physical pairing");
        }

        /// Structural invariants: the plan never exceeds `max_helpers`,
        /// never assigns a source (or an excluded node) as a helper,
        /// never reuses a helper, and its relief is the sum of the helped
        /// sources' net heat.
        #[test]
        fn helper_plan_respects_its_bounds(
            src_heats in proptest::collection::vec(0.0f64..100.0, 0..5),
            cand_heats in proptest::collection::vec(0.0f64..50.0, 0..6),
            max_helpers in 0usize..4,
            floor in 0.0f64..30.0,
            exclude_first in 0u8..2,
        ) {
            let exclude_first = exclude_first == 1;
            let n_src = src_heats.len();
            let sources: Vec<NodeLoadStat> = src_heats
                .iter()
                .enumerate()
                .map(|(i, &h)| NodeLoadStat {
                    node: NodeId(i as u16 + 1),
                    heat: h,
                    net_heat: h * 0.7,
                })
                .collect();
            let candidates: Vec<HelperCandidate> = cand_heats
                .iter()
                .enumerate()
                .map(|(i, &h)| HelperCandidate {
                    node: NodeId((n_src + i) as u16 + 1),
                    heat: h,
                    net: h * 0.5,
                    standby: i % 2 == 0,
                })
                .collect();
            let excluded: Vec<NodeId> = if exclude_first && !candidates.is_empty() {
                vec![candidates[0].node]
            } else {
                Vec::new()
            };
            let cfg = HelperPolicyConfig { max_helpers, min_net_heat: floor, ..Default::default() };
            let plan = plan_helpers(&sources, &candidates, &excluded, &cfg);
            prop_assert!(plan.assignments.len() <= max_helpers);
            let mut seen = std::collections::BTreeSet::new();
            let mut relief = 0.0;
            for a in &plan.assignments {
                prop_assert!(seen.insert(a.helper), "helper reused: {:?}", plan);
                prop_assert!(
                    !sources.iter().any(|s| s.node == a.helper),
                    "a source helps itself: {:?}", plan
                );
                prop_assert!(!excluded.contains(&a.helper), "excluded helper: {:?}", plan);
                prop_assert!(a.net_heat >= floor, "floor violated: {:?}", plan);
                relief += a.net_heat;
            }
            prop_assert!((plan.predicted_relief - relief).abs() < 1e-9);
        }
    }
}
