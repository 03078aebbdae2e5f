//! Planner shootout — fraction vs. heat-aware rebalance planning under a
//! skewed (hot-range) TPC-C workload, an advancing-hotspot phase
//! comparing historical-heat against drift-projected planning, and a
//! mixed-operator phase comparing count-based against cost-based heat.
//!
//! Stationary phase: 85 % of the clients hammer warehouse 0, which
//! occupies the *bottom* of the single data node's key space. The legacy
//! fraction heuristic shaves the *top* half of the key-ordered segments,
//! shipping cold data while the hotspot stays put; the heat-aware planner
//! moves the segments the workload actually touches.
//!
//! Advancing phase: the hot client population warms warehouse 0, then
//! re-homes to warehouse 1 just before the thresholds arm (TPC-C's
//! insert-advancing front). Historical heat points at the warehouse the
//! front already left; projection carries each segment's heat along its
//! velocity so the planner ships where the heat is *going*.
//!
//! Mixed-operator phase: point-read-hot clients on warehouse 0 share the
//! node with periodic scan+aggregation queries over another warehouse.
//! Count-based heat sees only access frequency and ships the point
//! segments, leaving every scan cycle burning on the source; cost-based
//! heat prices the operators and ships the scan *work*, so the CPU load
//! genuinely splits. Compared: bytes shipped, heat relocated,
//! post-rebalance max node CPU, and the hottest node's share of heat.
//!
//! The full summary is also written to `BENCH_planner.json` so CI can
//! upload the perf trajectory as a machine-readable artifact.

use wattdb_bench::{
    run_drain_under_replication, run_drift_shootout, run_failover_recovery, run_failover_shootout,
    run_mixed_shootout, run_planner_shootout, run_timeline_capture, shootout_json, BenchJsonRow,
    FailoverShootoutRow, PlannerShootoutRow, MIXED_SCAN_WAREHOUSES,
};
use wattdb_common::SimDuration;
use wattdb_core::Planner;

fn row(label: &str, r: &PlannerShootoutRow) {
    println!(
        "{label:>12} {:>6} {:>10} {:>12.1} {:>11.1} {:>13.1}% {:>15.1}%",
        r.segments_moved,
        r.bytes_moved,
        r.heat_planned,
        r.heat_moved,
        r.post_max_cpu * 100.0,
        r.post_max_heat_share * 100.0,
    );
}

fn header(first_col: &str) {
    println!(
        "{first_col:>12} {:>6} {:>10} {:>12} {:>11} {:>14} {:>16}",
        "segs", "bytes", "heat planned", "heat moved", "post max cpu", "post heat share"
    );
}

/// The extra keys of a read-scaling row.
fn replica_extra(r: &FailoverShootoutRow) -> String {
    format!(
        ", \"replica_reads\": {}, \"replica_shipped_bytes\": {}, \"completed\": {}",
        r.replica_reads, r.replica_shipped_bytes, r.completed
    )
}

fn main() {
    let mut json = Vec::new();
    let mut push = |phase, variant, row, extra| {
        json.push(BenchJsonRow {
            phase,
            variant,
            row,
            extra,
        })
    };

    println!("Planner shootout — skewed (hot-range) TPC-C, autopilot scale-out");
    header("planner");
    let frac = run_planner_shootout(Planner::Fraction);
    row(frac.planner.label(), &frac);
    let heat = run_planner_shootout(Planner::HeatAware);
    row(heat.planner.label(), &heat);
    push("stationary", "fraction", frac, String::new());
    push("stationary", "heat-aware", heat, String::new());

    let verdict = if heat.post_max_cpu < frac.post_max_cpu && heat.bytes_moved <= frac.bytes_moved {
        "heat-aware wins: lower post-rebalance max CPU for no more bytes"
    } else if heat.post_max_heat_share < frac.post_max_heat_share {
        "heat-aware wins on heat balance"
    } else {
        "no separation at this configuration"
    };
    println!("\n{verdict}");

    println!("\nAdvancing hotspot — the hot warehouse just moved on, heat-aware planner");
    header("heat input");
    let historical = run_drift_shootout(SimDuration::ZERO);
    row("historical", &historical);
    let projected = run_drift_shootout(SimDuration::from_secs(15));
    row("projected", &projected);
    push("advancing", "historical", historical, String::new());
    push("advancing", "projected", projected, String::new());
    let verdict = if projected.post_max_cpu < historical.post_max_cpu
        && projected.bytes_moved <= historical.bytes_moved
    {
        "projected wins: lower post-rebalance max CPU for no more bytes"
    } else if projected.post_max_heat_share < historical.post_max_heat_share {
        "projected wins on heat balance"
    } else {
        "no separation at this configuration"
    };
    println!("\n{verdict}");

    println!(
        "\nMixed operators — point reads on warehouse 0, scans on warehouses {:?}",
        MIXED_SCAN_WAREHOUSES
    );
    header("heat signal");
    let count = run_mixed_shootout(false);
    row("count-heat", &count);
    let cost = run_mixed_shootout(true);
    row("cost-heat", &cost);
    push("mixed", "count-heat", count, String::new());
    push("mixed", "cost-heat", cost, String::new());

    println!("\nReplication — hot reads fanned out across follower copies");
    header("replicas");
    let base = run_failover_shootout(0);
    row("off", &base.row);
    let rep = run_failover_shootout(1);
    row("factor-1", &rep.row);
    push("failover", "no-replicas", base.row, replica_extra(&base));
    push("failover", "replicated", rep.row, replica_extra(&rep));
    let recovery = run_failover_recovery();
    println!(
        "\nNode kill: {} orphaned segments re-led and factor restored in {:.1}s \
         ({} B re-replicated)",
        recovery.orphaned, recovery.recovery_secs, recovery.rereplication_bytes,
    );
    push(
        "failover",
        "node-kill",
        PlannerShootoutRow::shipped(
            recovery.recovered,
            recovery.rereplication_bytes,
            recovery.orphaned as u64,
        ),
        format!(
            ", \"recovery_secs\": {:.1}, \"rereplication_bytes\": {}, \"orphaned\": {}",
            recovery.recovery_secs, recovery.rereplication_bytes, recovery.orphaned
        ),
    );
    let drain = run_drain_under_replication();
    println!(
        "Replica-aware drain: node suspended in {:.1}s, {} follower copies re-homed \
         ({} B shipped), {} segments under-replicated after settle",
        drain.drain_secs, drain.rehomed_copies, drain.rereplication_bytes, drain.under_replicated,
    );
    push(
        "failover",
        "drain-under-replication",
        PlannerShootoutRow::shipped(
            drain.drained,
            drain.rereplication_bytes,
            drain.rehomed_copies as u64,
        ),
        format!(
            ", \"drain_secs\": {:.1}, \"rehomed_copies\": {}, \"under_replicated\": {}, \
             \"invariants_ok\": {}",
            drain.drain_secs, drain.rehomed_copies, drain.under_replicated, drain.invariants_ok
        ),
    );

    // Write the artifact BEFORE the acceptance gates, and land it at the
    // repository root whatever CWD cargo ran the bench with: a failing
    // gate is exactly the run whose numbers CI must still upload.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_planner.json");
    let json_text = shootout_json(&json);
    std::fs::write(&path, &json_text).expect("write BENCH_planner.json");
    println!("\nwrote {}", path.display());

    // Acceptance gates for the replica-aware drain: the node powered
    // down, not a single segment was left under the replication factor,
    // and the replica map held its invariants throughout.
    assert!(
        drain.drained,
        "autopilot never drained the idle replicated node"
    );
    assert_eq!(
        drain.under_replicated, 0,
        "drain left segments under the replication factor"
    );
    assert!(
        drain.invariants_ok,
        "replica-map invariants violated after the drain"
    );

    // Telemetry capture: re-run the stationary scale-out with replication
    // and export the full control-plane timeline (spans, window samples,
    // decision records) as the second machine-readable artifact. The
    // schema gate lives in `wattdb-telemetry`'s `schema_validate` test,
    // which parses this file line for line when present.
    let timeline = run_timeline_capture();
    let timeline_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_timeline.jsonl");
    std::fs::write(&timeline_path, &timeline).expect("write BENCH_timeline.jsonl");
    println!("wrote {}", timeline_path.display());
    assert!(
        timeline.contains("\"kind\": \"sample\"") && timeline.contains("energy.wh_per_txn"),
        "the timeline must carry window samples with Wh-per-committed-txn"
    );
    assert!(
        timeline.contains("\"kind\": \"decision\"") && timeline.contains("\"kind\": \"span\""),
        "the timeline must carry decision records and closed spans"
    );

    // Acceptance gates, most fundamental first.
    assert!(
        frac.rebalanced && heat.rebalanced,
        "both stationary runs must rebalance"
    );
    assert!(
        historical.rebalanced && projected.rebalanced,
        "both drift runs must rebalance"
    );
    assert!(
        count.rebalanced && cost.rebalanced,
        "both mixed runs must rebalance"
    );
    // The tentpole's acceptance criterion: pricing the operators realizes
    // a strictly better post-rebalance CPU balance for no extra bytes.
    assert!(
        cost.post_max_cpu < count.post_max_cpu,
        "cost-based heat must realize lower post-rebalance max CPU: {:.1}% vs {:.1}%",
        cost.post_max_cpu * 100.0,
        count.post_max_cpu * 100.0
    );
    assert!(
        cost.bytes_moved <= count.bytes_moved,
        "cost-based heat must not ship more bytes: {} vs {}",
        cost.bytes_moved,
        count.bytes_moved
    );
    println!("\ncost-heat wins: lower post-rebalance max CPU for no more bytes");

    // Replication phase: fanning the hot reads over a follower must
    // realize a strictly lower max CPU, for a wire cost bounded by the
    // WAL itself (each flushed record ships at most once per follower).
    assert!(
        rep.replica_reads > 0,
        "the replicated run must serve reads from followers"
    );
    assert!(
        rep.row.post_max_cpu < base.row.post_max_cpu,
        "read fan-out must lower the hot node's CPU: {:.1}% vs {:.1}%",
        rep.row.post_max_cpu * 100.0,
        base.row.post_max_cpu * 100.0
    );
    assert!(
        rep.replica_shipped_bytes > 0 && rep.replica_shipped_bytes <= rep.wal_flushed_bytes,
        "replica shipping must stay within the WAL bound: {} B shipped, {} B flushed",
        rep.replica_shipped_bytes,
        rep.wal_flushed_bytes
    );
    assert!(
        recovery.recovered,
        "the node kill must recover inside the horizon ({} orphaned)",
        recovery.orphaned
    );
    assert!(
        recovery.orphaned > 0 && recovery.rereplication_bytes > 0,
        "recovery must promote orphans and re-replicate"
    );
    println!(
        "\nreplicas win the read fan-out: {:.1}% vs {:.1}% max CPU for {} B of WAL shipping \
         ({} follower reads); node kill recovered in {:.1}s",
        rep.row.post_max_cpu * 100.0,
        base.row.post_max_cpu * 100.0,
        rep.replica_shipped_bytes,
        rep.replica_reads,
        recovery.recovery_secs,
    );
}
