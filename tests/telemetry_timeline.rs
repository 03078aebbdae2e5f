//! The telemetry subsystem's end-to-end contract, exercised through the
//! facade over policy-matrix-style scenarios:
//!
//! * **Determinism** — a fixed-seed run exports a byte-identical JSONL
//!   timeline every time; there is no wall-clock anywhere in the
//!   recorder.
//! * **Explainability from the export alone** — the explainable timeline
//!   is "parse the exported timeline, render it": every decision
//!   the autopilot took (holds included) must be reproducible — trigger,
//!   signal values, predicted-vs-realized outcome — purely from the
//!   file, with no access to live cluster state.
//! * **Span structure** — a CPU-burst scale-out opens a `rebalance` span
//!   whose `power-up` child sits inside the parent's bounds, and the
//!   window sample stream carries throughput and Wh-per-committed-txn.

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{CostParams, NodeId, SegmentId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::{Cluster, Scheme};
use wattdb_core::policy::PolicyConfig;
use wattdb_core::{decision_label, outcome_label};
use wattdb_telemetry::parse_jsonl;
use wattdb_tpcc::TenantSpec;

const WINDOW_SECS: u64 = 5;

/// A CPU-threshold scale-out on [`stationary_run`]'s client load: node 0
/// reads about 0.03 CPU before any scale-out and below 0.02 after, the
/// other nodes below 0.01, so a 0.023 ceiling scales out node 0 alone and
/// every other window is a hold.
fn cpu_scale_out() -> PolicyConfig {
    PolicyConfig {
        cpu_high: 0.023,
        cpu_low: 0.0,
        patience: 2,
        ..Default::default()
    }
}

fn build(policy: PolicyConfig, seed: u64, data_nodes: &[NodeId]) -> WattDb {
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
        .autopilot(true)
        .build()
}

/// Node-0 segments of the table holding the most of them, in key order.
fn node0_track(db: &WattDb) -> Vec<SegmentId> {
    db.with_cluster(|c| {
        let mut by_table: std::collections::HashMap<wattdb_common::TableId, Vec<_>> =
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

fn bump(c: &mut Cluster, seg: SegmentId, now: wattdb_common::SimTime, n: u32) {
    for _ in 0..n {
        c.heat.record_read(seg, now);
    }
}

/// Run `windows` monitoring windows, injecting heat on the cadence.
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

/// A hot range pinned to node 0's bottom segments, under the skewed
/// per-client load of the determinism pin (24 clients, 85 % of them on
/// warehouse 0): the CPU ceiling scales node 0 out onto the standbys, and
/// the heat-aware plan ships the hot range.
fn stationary_run() -> WattDb {
    let mut db = build(cpu_scale_out(), 17, &[NodeId(0), NodeId(1)]);
    let tenant = TenantSpec {
        hot_fraction: 0.85,
        ..TenantSpec::default()
    };
    db.start_tenant(24, SimDuration::from_millis(40), tenant);
    let track = node0_track(&db);
    let hot: Vec<SegmentId> = track.iter().copied().take(4).collect();
    drive(&mut db, 30, move |_, c, now| {
        for &s in &hot {
            bump(c, s, now, 40);
        }
    });
    db
}

#[test]
fn fixed_seed_exports_are_byte_identical() {
    let a = stationary_run().export_timeline_string();
    let b = stationary_run().export_timeline_string();
    assert!(!a.is_empty());
    assert_eq!(a, b, "two fixed-seed runs must export identical timelines");
}

#[test]
fn explain_reproduces_every_decision_from_the_export_alone() {
    let db = stationary_run();
    let text = db.export_timeline_string();
    let parsed = parse_jsonl(&text).expect("facade export is schema-valid");

    // The live recorder and the parsed file render the same account, so
    // nothing in `explain()` depends on state outside the export.
    assert_eq!(db.with_cluster(|c| c.telemetry.explain()), parsed.explain());

    // One record per monitoring window, holds included, contiguously
    // numbered from window 0.
    assert!(parsed.decisions.len() >= 30, "a record per window");
    for (i, r) in parsed.decisions.iter().enumerate() {
        assert_eq!(r.window, i as u64, "windows contiguous from 0");
    }
    assert!(
        parsed
            .decisions
            .iter()
            .any(|r| r.trigger.is_empty() && r.outcome == "hold"),
        "hold windows are recorded too"
    );

    // The facade's decision log is the export's non-hold records, in
    // order and field for field: each decision is stored once, and the
    // export renders that one record.
    let logged: Vec<_> = parsed
        .decisions
        .iter()
        .filter(|r| r.outcome != "hold")
        .collect();
    let events = db.events();
    assert!(!events.is_empty(), "the stationary scenario decides");
    assert_eq!(events.len(), logged.len(), "one event per non-hold record");
    for (e, r) in events.iter().zip(logged) {
        assert_eq!(r.window, e.window);
        assert_eq!(r.at, e.at);
        assert_eq!(r.trigger, e.trigger);
        assert_eq!(r.decision, decision_label(&e.decision));
        assert_eq!(r.outcome, outcome_label(&e.outcome));
        assert_eq!(r.predicted, e.predicted);
        assert_eq!(r.span, e.span.map(|s| s.0));
    }

    // The applied scale-out carries its prediction and links to a closed
    // span whose realized attributes the explain line reports.
    let rebalance = parsed
        .decisions
        .iter()
        .find(|r| r.trigger == "cpu-high" && r.outcome == "applied")
        .expect("the stationary scenario scales out");
    assert!(rebalance.predicted.is_some(), "planned heat recorded");
    let span = parsed
        .span(rebalance.span.expect("applied decision links its span"))
        .expect("linked span exported");
    assert_eq!(span.name, "rebalance");
    assert!(span.end.is_some(), "the move completed");
    for attr in ["bytes_moved", "heat_moved", "segments_moved"] {
        assert!(span.attr_f64(attr).is_some(), "realized attr {attr} set");
    }
    let line = &parsed.explain()[rebalance.window as usize];
    for needle in [
        "cpu",
        "ScaleOut",
        "applied",
        "predicted",
        "heat moved",
        "took",
    ] {
        assert!(needle_in(line, needle), "{needle:?} missing from {line:?}");
    }

    // Signal values in the record are the ones the renderer prints.
    assert!(
        needle_in(
            line,
            &format!("cpu {:.2}", rebalance.signals.mean_active_cpu)
        ),
        "rendered cpu matches the recorded signal: {line:?}"
    );

    // The sample stream covers the decision windows.
    assert!(!parsed.samples.is_empty());
    let sampled: std::collections::BTreeSet<u64> =
        parsed.samples.iter().map(|s| s.window).collect();
    for r in &parsed.decisions {
        assert!(sampled.contains(&r.window), "window {} unsampled", r.window);
    }
}

fn needle_in(hay: &str, needle: &str) -> bool {
    hay.contains(needle)
}

#[test]
fn burst_scale_out_span_nests_its_power_up_child() {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(16)
        .costs(CostParams::scaled(40))
        .seed(1)
        .initial_data_nodes(&[NodeId(0)])
        .policy(PolicyConfig {
            patience: 2,
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    db.start_oltp(48, SimDuration::from_millis(30));
    for _ in 0..60 {
        db.run_for(SimDuration::from_secs(WINDOW_SECS));
        if db.last_rebalance().is_some() && !db.rebalancing() {
            break;
        }
    }
    let parsed = parse_jsonl(&db.export_timeline_string()).expect("schema-valid");

    // The scale-out's rebalance span powered a standby on: the power-up
    // child sits inside its parent's bounds.
    let child = parsed
        .spans
        .iter()
        .find(|s| s.name == "power-up")
        .expect("scale-out from one data node powers a target on");
    let parent = parsed
        .span(child.parent.expect("power-up is a child").0)
        .expect("parent exported");
    assert_eq!(parent.name, "rebalance");
    assert!(
        child.start >= parent.start,
        "child starts inside the parent"
    );
    let (child_end, parent_end) = (child.end.unwrap(), parent.end.unwrap());
    assert!(child_end <= parent_end, "child ends inside the parent");

    // A live OLTP run fills the throughput and energy samples.
    let last = parsed.samples.last().expect("windows sampled");
    assert!(last.value("txn.throughput").is_some());
    assert!(
        last.value("energy.wh_per_txn").unwrap_or(0.0) > 0.0,
        "Wh-per-committed-txn sampled once transactions complete"
    );

    // And the scale-out decision explains itself with the CPU clause.
    let line = parsed
        .explain()
        .into_iter()
        .find(|l| l.contains("ScaleOut") && l.contains("applied"))
        .expect("scale-out decision rendered");
    assert!(line.contains("cpu"), "CPU clause rendered: {line:?}");
}
