//! Statistical equivalence of the pooled arrival process (satellite of
//! the hot-path batching PR).
//!
//! Pooled mode replaces per-client think timers with one aggregated
//! arrival repeater over carrier clients. It is an *approximation* — the
//! determinism pin does not apply — but the workload it offers must be
//! statistically the same: the TPC-C transaction mix, the warehouse skew
//! shares, the per-modeled-client throughput, and (on a stationary
//! scenario) the autopilot's decision sequence.

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::policy::PolicyConfig;
use wattdb_core::ClientBatching;
use wattdb_tpcc::{DiurnalConfig, LoadTrace, TenantSpec};

const WINDOW_SECS: u64 = 5;
const CLIENTS: u32 = 96;
const HOT_FRACTION: f64 = 0.85;

fn skew_only() -> PolicyConfig {
    PolicyConfig {
        cpu_high: 1.1,
        cpu_low: 0.0,
        patience: 2,
        skew_threshold: 1.5,
        skew_cooldown: 4,
        ..Default::default()
    }
}

/// The determinism pin's stationary skewed scenario, with the client
/// batching mode forced either way.
fn oltp_run(batching: ClientBatching) -> WattDb {
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
        .client_batching(batching)
        .build();
    let tenant = TenantSpec {
        hot_fraction: HOT_FRACTION,
        ..TenantSpec::default()
    };
    db.start_tenant(CLIENTS, SimDuration::from_millis(160), tenant);
    db.run_for(SimDuration::from_secs(WINDOW_SECS * 24));
    db.stop_clients();
    db.run_for(SimDuration::from_secs(WINDOW_SECS));
    db
}

/// Share of the modeled completions per TPC-C profile, by profile name.
fn mix_shares(db: &WattDb) -> Vec<(String, f64)> {
    let mut mix: Vec<(String, u64)> = db.with_cluster(|c| {
        (c.metrics.mix.iter())
            .map(|(p, n)| (format!("{p:?}"), *n))
            .collect()
    });
    mix.sort();
    let total: u64 = mix.iter().map(|(_, n)| n).sum();
    mix.into_iter()
        .map(|(p, n)| (p, n as f64 / total.max(1) as f64))
        .collect()
}

/// Share of the modeled completions homed on warehouse 0.
fn hot_share(db: &WattDb) -> f64 {
    db.with_cluster(|c| {
        let total: u64 = c.clients.iter().map(|cl| cl.completed()).sum();
        let hot = c.clients.iter().filter(|cl| cl.home_warehouse == 0);
        hot.map(|cl| cl.completed()).sum::<u64>() as f64 / total.max(1) as f64
    })
}

/// Is the client workload running pooled (aggregated arrivals over
/// carrier clients) rather than one think timer per client?
fn pooled_clients(db: &WattDb) -> bool {
    db.with_cluster(|c| c.pool.is_some())
}

#[test]
fn pooled_matches_per_client_statistics() {
    let per_client = oltp_run(ClientBatching::PerClient);
    let pooled = oltp_run(ClientBatching::Pooled);
    assert!(!pooled_clients(&per_client));
    assert!(pooled_clients(&pooled));

    // Throughput: the closed loop's offered load is set by clients and
    // think time, so modeled completions must agree within a few percent.
    let (a, b) = (per_client.completed() as f64, pooled.completed() as f64);
    assert!(a > 0.0 && b > 0.0);
    let ratio = b / a;
    assert!(
        (0.92..=1.08).contains(&ratio),
        "pooled/per-client completed ratio {ratio:.3} ({b} vs {a})"
    );

    // Transaction mix: per-profile shares within ±2 percentage points.
    // Carriers draw from the same per-client RNG streams, so the drawn
    // mix distribution is identical by construction; this checks the
    // *completed* mix end to end.
    let ma = mix_shares(&per_client);
    let mb = mix_shares(&pooled);
    for (name, share_a) in &ma {
        let share_b = mb
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(0.0);
        assert!(
            (share_a - share_b).abs() <= 0.02,
            "{name}: per-client {share_a:.4} vs pooled {share_b:.4}"
        );
    }

    // Warehouse skew: the hot warehouse's completion share survives the
    // pooling (same hot-fraction homing rule over the carriers).
    let (ha, hb) = (hot_share(&per_client), hot_share(&pooled));
    assert!(
        (ha - hb).abs() <= 0.05,
        "hot-warehouse share: per-client {ha:.3} vs pooled {hb:.3}"
    );

    // Autopilot: the stationary skew scenario must elicit the same
    // decision sequence from the elasticity policy in both modes.
    let decisions = |db: &WattDb| -> Vec<String> {
        db.events()
            .iter()
            .map(|e| format!("{:?}", e.decision))
            .collect()
    };
    assert_eq!(
        decisions(&per_client),
        decisions(&pooled),
        "autopilot decision sequences diverge between client modes"
    );
}

#[test]
fn auto_mode_pools_large_populations_only() {
    // Auto stays per-client at small n; forcing Pooled overrides it even
    // at tiny populations (this is what the bench matrix relies on).
    let mut small = WattDb::builder()
        .nodes(2)
        .warehouses(2)
        .density(0.02)
        .segment_pages(8)
        .seed(3)
        .initial_data_nodes(&[NodeId(0)])
        .build();
    small.start_oltp(8, SimDuration::from_millis(100));
    assert!(!pooled_clients(&small));

    let mut forced = WattDb::builder()
        .nodes(2)
        .warehouses(2)
        .density(0.02)
        .segment_pages(8)
        .seed(3)
        .initial_data_nodes(&[NodeId(0)])
        .client_batching(ClientBatching::Pooled)
        .build();
    forced.start_oltp(8, SimDuration::from_millis(100));
    assert!(pooled_clients(&forced));
    forced.run_for(SimDuration::from_secs(10));
    assert!(forced.completed() > 0, "pooled arrivals drive transactions");
}

#[test]
fn a_flat_one_tenant_trace_runs_as_start_oltp() {
    // One spawn path: a trace whose one tenant holds at `CLIENTS` builds
    // the same carriers, homes, weights and pool target as `start_oltp`.
    // The trace has one breakpoint, so it schedules no retarget events
    // and the exports' kernel event gauges agree too.
    let think = SimDuration::from_millis(160);
    let run = SimDuration::from_secs(WINDOW_SECS * 6);
    let build = || {
        WattDb::builder()
            .nodes(4)
            .warehouses(4)
            .density(0.05)
            .segment_pages(8)
            .seed(17)
            .initial_data_nodes(&[NodeId(0), NodeId(1)])
            .monitoring(SimDuration::from_secs(WINDOW_SECS))
            .telemetry(true)
            .client_batching(ClientBatching::Pooled)
            .build()
    };
    let mut oltp = build();
    oltp.start_oltp(CLIENTS, think);
    let mut traced = build();
    traced.start_traced_oltp(
        LoadTrace::diurnal(DiurnalConfig {
            min_clients: CLIENTS as u64,
            max_clients: CLIENTS as u64,
            step: run,
            horizon: run,
            ..Default::default()
        }),
        think,
    );
    for db in [&mut oltp, &mut traced] {
        db.run_for(run);
    }
    assert!(oltp.completed() > 0);
    assert_eq!(oltp.completed(), traced.completed());
    assert_eq!(
        oltp.export_timeline_string(),
        traced.export_timeline_string()
    );
}
