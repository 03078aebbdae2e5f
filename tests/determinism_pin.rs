//! Export pins: the byte-level contract of every behaviour-preserving
//! refactor.
//!
//! Each scenario below is a fixed-seed run pinned twice against
//! **committed constants**:
//!
//! * the **model pin** — its exported telemetry timeline (spans, span
//!   events, per-window samples, decision records) hashed with FNV-1a,
//!   with the values of the two engine-cost gauges, `engine.events` and
//!   `engine.events_per_sec`, blanked. A refactor that changes what the
//!   modelled cluster does — a different decision, a span opened in a
//!   different order, a copy voided that used to land — changes the hash
//!   and fails tier-1, even when it changes two in-process runs
//!   identically;
//! * the **engine pin** — the kernel events the run executed
//!   (`events_executed()`), a count of what the simulator spent, not of
//!   what it modelled.
//!
//! So a kernel-only change (an event saved, the modelled order kept)
//! moves only the engine pins, and a behaviour change moves a model pin.
//! Both are the same in debug and release builds.
//!
//! The first four scenarios cover the per-client executor path, a
//! fraction rebalance under load, a pooled run and a traced autopilot
//! run; the other five reach the control paths those do not: the
//! physical and logical schemes (Fig. 6's other two arms), the scripted
//! helper path (Fig. 7/8), a replicated scale-out → scale-in round trip
//! with follower re-homes and a refused drain, and a failover with
//! promotion and re-replication.
//!
//! When a model pin fails on purpose (a deliberate modeled-behaviour
//! change), the failure message carries the new hash and the export's
//! length; diff the export against the parent's
//! (`db.export_timeline_string()`) before re-pinning. An engine pin that
//! moves with every model pin holding is a kernel cost change: re-pin it
//! and say by how much it moved.

use wattdb_common::{CostParams, NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::migration::{ControlPlan, HelperAttach};
use wattdb_core::policy::PolicyConfig;
use wattdb_core::ClientBatching;
use wattdb_tpcc::{DiurnalConfig, LoadTrace, TenantSpec};

const WINDOW_SECS: u64 = 5;

fn windows(n: u64) -> SimDuration {
    SimDuration::from_secs(WINDOW_SECS * n)
}

/// A CPU-threshold scale-out on [`oltp_run`]'s load: node 0 reads
/// 0.027–0.033 CPU before any scale-out and at most 0.019 after, the
/// other nodes at most 0.008, so a 0.023 ceiling scales out node 0 alone.
fn cpu_scale_out() -> PolicyConfig {
    PolicyConfig {
        cpu_high: 0.023,
        cpu_low: 0.0,
        patience: 2,
        ..Default::default()
    }
}

/// Skewed scenario driven by real OLTP clients (per-client mode): the
/// load hammers warehouse 0 on node 0 until the autopilot scales out.
fn oltp_run() -> WattDb {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(17)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .policy(cpu_scale_out())
        .monitoring(windows(1))
        .autopilot(true)
        .build();
    let tenant = TenantSpec {
        hot_fraction: 0.85,
        ..TenantSpec::default()
    };
    db.start_tenant(24, SimDuration::from_millis(40), tenant);
    db.run_for(windows(24));
    db.stop_clients();
    db.run_for(windows(1));
    db
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Trace-driven pooled scenario under the autopilot: a small diurnal
/// day over a 4-node deployment. The trace machinery (carrier groups,
/// breakpoint resizes, the `workload.target_clients` gauge) must be as
/// deterministic as the per-client path.
fn traced_run() -> WattDb {
    let trace = LoadTrace::diurnal(DiurnalConfig {
        min_clients: 50,
        max_clients: 500,
        period: SimDuration::from_secs(60),
        phase: 0.0,
        step: SimDuration::from_secs(5),
        horizon: SimDuration::from_secs(120),
        tenant: TenantSpec::default(),
    });
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(17)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .client_batching(ClientBatching::Pooled)
        .monitoring(windows(1))
        .autopilot(true)
        .build();
    db.start_traced_oltp(trace, SimDuration::from_millis(400));
    db.run_for(SimDuration::from_secs(125));
    db.stop_clients();
    db.run_for(windows(1));
    db
}

/// How a [`fixed_rebalance`] scenario triggers its 50 % rebalance.
enum Trigger {
    Plain,
    WithHelpers,
}

/// A fixed 50 % rebalance from n0, n1 onto n2, n3 under per-client load,
/// then `after` windows. The fraction planner walks the partitions of
/// each source; the order it meets them in decides which segments move
/// first and so what every later transaction waits on.
fn fixed_rebalance(
    nodes: u16,
    scheme: Scheme,
    io_scale: u64,
    trigger: Trigger,
    after: u64,
) -> WattDb {
    let mut db = WattDb::builder()
        .nodes(nodes)
        .scheme(scheme)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .io_scale(io_scale)
        .seed(17)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .monitoring(windows(1))
        .telemetry(true)
        .build();
    db.start_oltp(24, SimDuration::from_millis(40));
    db.run_for(windows(2));
    let (sources, targets) = ([NodeId(0), NodeId(1)], [NodeId(2), NodeId(3)]);
    match trigger {
        Trigger::Plain => db.rebalance(0.5, &sources, &targets),
        Trigger::WithHelpers => {
            let plan = db.with_runtime(|cl, sim| {
                ControlPlan::fraction(&cl.borrow(), sim.now(), 0.5, &sources, &targets)
            });
            db.run(ControlPlan {
                attach: Some(HelperAttach::manual(&sources, &[NodeId(4), NodeId(5)])),
                ..plan
            });
        }
    }
    db.run_for(windows(after));
    db.stop_clients();
    db.run_for(windows(1));
    db
}

fn rebalance_run() -> WattDb {
    let db = fixed_rebalance(4, Scheme::Physiological, 1, Trigger::Plain, 12);
    assert!(db.last_rebalance().is_some(), "rebalance completed");
    db
}

/// Fig. 6's other two arms: the same rebalance under §4.1 and §4.2.
fn physical_run() -> WattDb {
    fixed_rebalance(6, Scheme::Physical, 1, Trigger::Plain, 14)
}

fn logical_run() -> WattDb {
    fixed_rebalance(6, Scheme::Logical, 1, Trigger::Plain, 14)
}

/// Fig. 7/8's scripted path: helpers n4, n5 attach for the rebalance and
/// detach with its completion.
fn helpers_run() -> WattDb {
    fixed_rebalance(6, Scheme::Physiological, 50, Trigger::WithHelpers, 14)
}

/// Replicated elasticity round trip: load forces a scale-out onto all
/// three standbys, then the clients stop and the autopilot drains node
/// after node — leader moves plus follower re-homes, suspensions — until
/// a drain is refused because its follower copies have nowhere to go.
fn replicated_elastic_run() -> WattDb {
    let mut db = WattDb::builder()
        .nodes(6)
        .warehouses(6)
        .density(0.02)
        .segment_pages(16)
        .costs(CostParams::scaled(40))
        .seed(3)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .replication(1)
        .policy(PolicyConfig {
            patience: 2,
            ..Default::default()
        })
        .monitoring(windows(1))
        .autopilot(true)
        .build();
    db.start_oltp(96, SimDuration::from_millis(20));
    db.run_for(windows(16));
    db.stop_clients();
    db.run_for(windows(30));
    db
}

/// A leader dies under load: failover span, promotion of the
/// most-caught-up followers, re-replication back to the factor.
fn failover_run() -> WattDb {
    let mut db = WattDb::builder()
        .nodes(6)
        .warehouses(6)
        .density(0.05)
        .segment_pages(8)
        .seed(17)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .replication(1)
        .policy(PolicyConfig {
            cpu_high: 1.1,
            cpu_low: 0.0,
            ..Default::default()
        })
        .monitoring(windows(1))
        .autopilot(true)
        .build();
    db.start_oltp(48, SimDuration::from_millis(40));
    db.run_for(windows(3));
    db.fail_node(NodeId(2));
    db.run_for(windows(10));
    db.stop_clients();
    db.run_for(windows(1));
    db
}

/// A static pooled run: 20 000 modeled clients as weighted carriers.
fn pooled_run() -> WattDb {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(17)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .client_batching(ClientBatching::Pooled)
        .monitoring(windows(1))
        .telemetry(true)
        .build();
    db.start_oltp(20_000, SimDuration::from_secs(10));
    db.run_for(windows(6));
    db.stop_clients();
    db.run_for(windows(1));
    db
}

/// The export with the values of the engine-cost gauges blanked: what is
/// left is the modelled run.
fn model_only(export: &str) -> String {
    let mut out = String::with_capacity(export.len());
    let mut rest = export;
    while let Some(at) = ["\"engine.events\": ", "\"engine.events_per_sec\": "]
        .iter()
        .filter_map(|key| rest.find(key).map(|i| i + key.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit() || ".eE+-".contains(c));
    }
    out.push_str(rest);
    out
}

/// Run `scenario` once and hold its export against the committed model
/// hash and its kernel event count against the committed engine count;
/// returns the export.
fn pinned(label: &str, expected: u64, events: u64, scenario: fn() -> WattDb) -> String {
    let db = scenario();
    let export = db.export_timeline_string();
    assert!(!export.is_empty());
    let got = fnv1a(model_only(&export).as_bytes());
    assert_eq!(
        got,
        expected,
        "model pin ({label}) moved: expected fnv1a={expected:016x}, got fnv1a={got:016x} \
         len={} — diff the export against the parent commit's",
        export.len()
    );
    assert_eq!(
        db.events_executed(),
        events,
        "engine pin ({label}) moved: the modelled run held, the kernel's event count did not"
    );
    export
}

#[test]
fn per_client_export_is_byte_stable_across_runs() {
    pinned("per-client", 0x0ade_9cd5_78d7_7e4e, 492_183, oltp_run);
}

#[test]
fn traced_export_is_byte_stable_across_runs() {
    let a = pinned("traced", 0x1a56_4ba1_b803_1fe5, 292_190, traced_run);
    // The traced run actually exercises the trace machinery: the offered
    // load gauge is present and moves along the schedule.
    assert!(
        a.contains("\"workload.target_clients\""),
        "traced export carries the offered-load gauge"
    );
}

#[test]
fn fraction_rebalance_under_load_is_byte_stable_across_runs() {
    let a = pinned("rebalance", 0x2519_4e75_ef3c_5bc2, 316_581, rebalance_run);
    assert!(a.contains("\"rebalance\""), "export carries the rebalance");
}

#[test]
fn pooled_export_is_byte_stable_across_runs() {
    pinned("pooled", 0xaaa8_d9f2_bc30_c305, 69_429, pooled_run);
}

#[test]
fn physical_rebalance_export_is_pinned() {
    let a = pinned("physical", 0x1ead_7bdd_e677_1e61, 397_781, physical_run);
    assert!(a.contains("\"Physical\""), "export names the scheme");
}

#[test]
fn logical_rebalance_export_is_pinned() {
    let a = pinned("logical", 0x25f9_e0dd_da95_736d, 369_720, logical_run);
    assert!(a.contains("\"Logical\""), "export names the scheme");
}

#[test]
fn scripted_helpers_export_is_pinned() {
    let a = pinned("helpers", 0x874a_72e2_8ad5_4dfc, 379_846, helpers_run);
    assert!(a.contains("\"helpers\""), "export carries the helper span");
    assert!(a.contains("\"detach\""), "helpers detached with completion");
}

#[test]
fn replicated_elastic_export_is_pinned() {
    let a = pinned(
        "replicated-elastic",
        0x29df_7741_d380_8acf,
        456_338,
        replicated_elastic_run,
    );
    // The paths this pin exists for all ran.
    for needle in [
        "\"re-home\"",
        "\"power-down\"",
        "suspended",
        "drain node hosts follower replicas",
    ] {
        assert!(a.contains(needle), "export carries {needle}");
    }
}

#[test]
fn failover_export_is_pinned() {
    let a = pinned("failover", 0x22f7_c011_b268_49db, 701_179, failover_run);
    for needle in ["\"failover\"", "\"promote\"", "\"re-replicate\""] {
        assert!(a.contains(needle), "export carries {needle}");
    }
}
