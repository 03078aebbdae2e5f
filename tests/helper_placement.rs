//! Fig. 8 helper nodes, scripted next to the rebalance they serve.
//!
//! * The manual path regression: an explicit helper list still produces
//!   the exact legacy attach/detach trace (`sources[i]` paired with
//!   `helpers[i % len]`, all listed helpers powered, everything released
//!   when the rebalance completes), bit-identical across fixed-seed runs.
//! * The autopilot never releases an attachment: helpers leave with a
//!   rebalance's completion or an explicit detach.
//! * A helper killed mid-rebalance stops serving at once, and the
//!   response closes with its last helper.

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::migration::{ControlPlan, HelperAttach};
use wattdb_telemetry::{AttrValue, Span};

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
fn facade_attached_helpers_survive_the_autopilot() {
    // A facade attachment releases when the next rebalance completes or
    // on an explicit detach, never because the autopilot ran a window.
    // Neither CPU bound is reachable, so no rebalance starts.
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(8)
        .seed(47)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 1.1,
            cpu_low: 0.0,
            ..Default::default()
        })
        .autopilot(true)
        .build();
    db.run(ControlPlan {
        attach: Some(HelperAttach::manual(&[NodeId(1)], &[NodeId(3)])),
        ..Default::default()
    });
    let attached = helpers_active(&db);
    assert_eq!(attached, vec![NodeId(3)]);
    db.run_for(SimDuration::from_secs(60)); // a dozen monitoring windows
    assert_eq!(
        helpers_active(&db),
        attached,
        "the autopilot must not detach a scripted attachment: {:?}",
        db.events()
    );
    assert!(db.events().is_empty(), "no decision: {:?}", db.events());
    // The explicit facade release still works.
    detach_helpers(&mut db);
    assert!(helpers_active(&db).is_empty());
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
    let plan = db.with_runtime(|cl, sim| {
        ControlPlan::fraction(&cl.borrow(), sim.now(), 0.5, &sources, &targets)
    });
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
