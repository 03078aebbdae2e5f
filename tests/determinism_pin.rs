//! Determinism pin across engine-speed refactors.
//!
//! The timer-wheel kernel and the lazy heat decay are pure performance
//! work: a fixed-seed per-client run must export the exact same
//! telemetry timeline bytes as before. These tests pin that surface —
//! two in-process runs must agree byte-for-byte, and the FNV-1a hash of
//! the export is printed so a refactor can be checked against the
//! previous build's output (`cargo test -q --test determinism_pin --
//! --nocapture`).
//!
//! The same two-run equality is held for the paths that used to walk a
//! randomly-seeded `HashMap` on their way to a decision: a fraction
//! rebalance under load (the planner walks the partitions), a pooled run,
//! and the traced autopilot run.

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::policy::PolicyConfig;
use wattdb_core::ClientBatching;
use wattdb_tpcc::{DiurnalConfig, LoadTrace, TenantSpec};

const WINDOW_SECS: u64 = 5;

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
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    db.start_oltp_skewed(24, SimDuration::from_millis(40), 0.85, 1);
    db.run_for(SimDuration::from_secs(WINDOW_SECS * 24));
    db.stop_clients();
    db.run_for(SimDuration::from_secs(WINDOW_SECS));
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
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .autopilot(true)
        .build();
    db.start_traced_oltp(trace, SimDuration::from_millis(400));
    db.run_for(SimDuration::from_secs(125));
    db.stop_clients();
    db.run_for(SimDuration::from_secs(WINDOW_SECS));
    db
}

/// A fixed 50 % rebalance under per-client load. The fraction planner
/// walks the partitions of each source; the order it meets them in
/// decides which segments move first and so what every later
/// transaction waits on.
fn rebalance_run() -> WattDb {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.05)
        .segment_pages(8)
        .seed(17)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .telemetry(true)
        .build();
    db.start_oltp(24, SimDuration::from_millis(40));
    db.run_for(SimDuration::from_secs(WINDOW_SECS * 2));
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    db.run_for(SimDuration::from_secs(WINDOW_SECS * 12));
    assert!(db.last_rebalance().is_some(), "rebalance completed");
    db.stop_clients();
    db.run_for(SimDuration::from_secs(WINDOW_SECS));
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
        .monitoring(SimDuration::from_secs(WINDOW_SECS))
        .telemetry(true)
        .build();
    db.start_oltp(20_000, SimDuration::from_secs(10));
    db.run_for(SimDuration::from_secs(WINDOW_SECS * 6));
    db.stop_clients();
    db.run_for(SimDuration::from_secs(WINDOW_SECS));
    db
}

/// Two runs of `scenario` must export the same bytes; returns them.
fn byte_stable(label: &str, scenario: fn() -> WattDb) -> String {
    let a = scenario().export_timeline_string();
    let b = scenario().export_timeline_string();
    assert!(!a.is_empty());
    assert_eq!(a, b, "fixed-seed {label} exports must be byte-identical");
    println!(
        "determinism pin ({label}): fnv1a={:016x} len={}",
        fnv1a(a.as_bytes()),
        a.len()
    );
    a
}

#[test]
fn per_client_export_is_byte_stable_across_runs() {
    byte_stable("per-client", oltp_run);
}

#[test]
fn traced_export_is_byte_stable_across_runs() {
    let a = byte_stable("traced", traced_run);
    // The traced run actually exercises the trace machinery: the offered
    // load gauge is present and moves along the schedule.
    assert!(
        a.contains("\"workload.target_clients\""),
        "traced export carries the offered-load gauge"
    );
}

#[test]
fn fraction_rebalance_under_load_is_byte_stable_across_runs() {
    let a = byte_stable("rebalance", rebalance_run);
    assert!(a.contains("\"rebalance\""), "export carries the rebalance");
}

#[test]
fn pooled_export_is_byte_stable_across_runs() {
    byte_stable("pooled", pooled_run);
}
