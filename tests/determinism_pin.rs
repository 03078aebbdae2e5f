//! Export pins: the byte-level contract of every behaviour-preserving
//! refactor.
//!
//! Each scenario below is a fixed-seed run whose exported telemetry
//! timeline (spans, span events, per-window samples, decision records)
//! is hashed with FNV-1a and compared against a **committed constant**.
//! A refactor that changes what the engine does — a different decision,
//! a span opened in a different order, a copy voided that used to land —
//! changes the hash and fails tier-1, even when it changes two
//! in-process runs identically. The hashes are the same in debug and
//! release builds.
//!
//! The first four scenarios cover the per-client executor path, a
//! fraction rebalance under load, a pooled run and a traced autopilot
//! run; the other five reach the control paths those do not: the
//! physical and logical schemes (Fig. 6's other two arms), the scripted
//! helper path (Fig. 7/8), a replicated scale-out → scale-in round trip
//! with follower re-homes and a refused drain, and a failover with
//! promotion and re-replication.
//!
//! When a pin fails on purpose (a deliberate modeled-behaviour change),
//! the failure message carries the new hash and the export's length;
//! diff the export against the parent's
//! (`db.export_timeline_string()`) before re-pinning.

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

fn skew_only() -> PolicyConfig {
    PolicyConfig {
        cpu_high: 1.1,
        cpu_low: 0.0,
        patience: 2,
        skew_threshold: 1.5,
        skew_min_heat: 1.0,
        skew_cooldown: 4,
        ..Default::default()
    }
}

/// Policy-matrix-style stationary scenario driven by real OLTP clients
/// (per-client mode): skewed load hammers warehouse 0 on node 0.
fn oltp_run() -> WattDb {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(17)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .policy(skew_only())
        .monitoring(windows(1))
        .autopilot(true)
        .build();
    db.start_oltp_skewed(24, SimDuration::from_millis(40), 0.85, 1);
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
            let plan = db.with_cluster(|c| ControlPlan::fraction(c, 0.5, &sources, &targets));
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

/// `policy_matrix`'s CPU-heavy calibration: a handful of clients can
/// saturate a node.
fn heavy_costs() -> CostParams {
    let mut costs = CostParams::default();
    costs.index_node_visit = costs.index_node_visit * 40;
    costs.record_read = costs.record_read * 40;
    costs.record_write = costs.record_write * 40;
    costs.log_append = costs.log_append * 40;
    costs.buffer_hit = costs.buffer_hit * 40;
    costs
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
        .costs(heavy_costs())
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

/// Run `scenario` once and hold its export against the committed hash;
/// returns the export.
fn pinned(label: &str, expected: u64, scenario: fn() -> WattDb) -> String {
    let export = scenario().export_timeline_string();
    assert!(!export.is_empty());
    let got = fnv1a(export.as_bytes());
    assert_eq!(
        got,
        expected,
        "export pin ({label}) moved: expected fnv1a={expected:016x}, got fnv1a={got:016x} \
         len={} — diff the export against the parent commit's",
        export.len()
    );
    export
}

#[test]
fn per_client_export_is_byte_stable_across_runs() {
    pinned("per-client", 0x2ee2_774b_55d1_1515, oltp_run);
}

#[test]
fn traced_export_is_byte_stable_across_runs() {
    let a = pinned("traced", 0x86ae_f615_484b_94ee, traced_run);
    // The traced run actually exercises the trace machinery: the offered
    // load gauge is present and moves along the schedule.
    assert!(
        a.contains("\"workload.target_clients\""),
        "traced export carries the offered-load gauge"
    );
}

#[test]
fn fraction_rebalance_under_load_is_byte_stable_across_runs() {
    let a = pinned("rebalance", 0xea3c_8349_c0fd_cf17, rebalance_run);
    assert!(a.contains("\"rebalance\""), "export carries the rebalance");
}

#[test]
fn pooled_export_is_byte_stable_across_runs() {
    pinned("pooled", 0xb7e1_e0fb_57e6_2741, pooled_run);
}

#[test]
fn physical_rebalance_export_is_pinned() {
    let a = pinned("physical", 0xd17a_8940_7aa1_5be1, physical_run);
    assert!(a.contains("\"Physical\""), "export names the scheme");
}

#[test]
fn logical_rebalance_export_is_pinned() {
    let a = pinned("logical", 0x19ce_ce0d_f19b_3ff5, logical_run);
    assert!(a.contains("\"Logical\""), "export names the scheme");
}

#[test]
fn scripted_helpers_export_is_pinned() {
    let a = pinned("helpers", 0x5a90_ad27_0db6_651b, helpers_run);
    assert!(a.contains("\"helpers\""), "export carries the helper span");
    assert!(a.contains("\"detach\""), "helpers detached with completion");
}

#[test]
fn replicated_elastic_export_is_pinned() {
    let a = pinned(
        "replicated-elastic",
        0x81f6_b409_3bac_fc9d,
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
    let a = pinned("failover", 0x6476_c638_f3cf_a75f, failover_run);
    for needle in ["\"failover\"", "\"promote\"", "\"re-replicate\""] {
        assert!(a.contains(needle), "export carries {needle}");
    }
}
