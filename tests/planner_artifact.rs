//! Schema validation and gate re-check for the `planner_shootout` bench
//! artifact.
//!
//! CI runs this after `cargo bench --bench planner_shootout` has written
//! `BENCH_planner.json` at the repo root: the artifact must carry exactly
//! the ten (phase, variant) rows with well-typed fields, the failover
//! rows their extra keys, and every bench gate whose inputs the file
//! carries must hold on the shipped numbers. When the artifact is absent
//! (plain `cargo test` before any bench run) the schema contract is still
//! exercised against an inline exemplar.

use std::path::{Path, PathBuf};

use wattdb_telemetry::json::{parse, JsonValue};

fn artifact_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_planner.json")
}

/// The type a row field must parse as.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Bool,
    Count,
    Num,
}

/// Field names with their types.
type Fields = &'static [(&'static str, Kind)];

/// The fields every row carries beside its phase and variant.
const STANDARD: Fields = &[
    ("rebalanced", Kind::Bool),
    ("segments_moved", Kind::Count),
    ("bytes_moved", Kind::Count),
    ("heat_planned", Kind::Num),
    ("heat_moved", Kind::Num),
    ("post_max_cpu", Kind::Num),
    ("post_max_heat_share", Kind::Num),
];

const READ_SCALING: Fields = &[
    ("replica_reads", Kind::Count),
    ("replica_shipped_bytes", Kind::Count),
    ("completed", Kind::Count),
];

/// Every row in the order the bench writes them, with its extra keys.
const ROWS: &[(&str, &str, Fields)] = &[
    ("stationary", "fraction", &[]),
    ("stationary", "heat-aware", &[]),
    ("advancing", "historical", &[]),
    ("advancing", "projected", &[]),
    ("mixed", "count-heat", &[]),
    ("mixed", "cost-heat", &[]),
    ("failover", "no-replicas", READ_SCALING),
    ("failover", "replicated", READ_SCALING),
    (
        "failover",
        "node-kill",
        &[
            ("recovery_secs", Kind::Num),
            ("rereplication_bytes", Kind::Count),
            ("orphaned", Kind::Count),
        ],
    ),
    (
        "failover",
        "drain-under-replication",
        &[
            ("drain_secs", Kind::Num),
            ("rehomed_copies", Kind::Count),
            ("under_replicated", Kind::Count),
            ("invariants_ok", Kind::Bool),
        ],
    ),
];

fn row<'a>(rows: &'a [JsonValue], phase: &str, variant: &str) -> &'a JsonValue {
    rows.iter()
        .find(|r| {
            r.get("phase").and_then(|v| v.as_str()) == Some(phase)
                && r.get("variant").and_then(|v| v.as_str()) == Some(variant)
        })
        .unwrap_or_else(|| panic!("missing row {phase}/{variant}"))
}

fn check_field(r: &JsonValue, phase: &str, variant: &str, field: &str, kind: Kind) {
    let v = r
        .get(field)
        .unwrap_or_else(|| panic!("row {phase}/{variant} missing {field}"));
    let ok = match kind {
        Kind::Bool => v.as_bool().is_some(),
        Kind::Count => v.as_u64().is_some(),
        Kind::Num => v.as_f64().is_some_and(|x| x.is_finite() && x >= 0.0),
    };
    assert!(ok, "row {phase}/{variant} field {field} is not a {kind:?}");
}

/// Validate the document shape and re-check the gates.
fn validate(doc: &JsonValue) {
    assert_eq!(
        doc.get("bench").and_then(|v| v.as_str()),
        Some("planner_shootout"),
        "artifact must identify itself"
    );
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_arr())
        .expect("rows array");
    assert_eq!(rows.len(), ROWS.len(), "exactly the shootout's rows");
    for (phase, variant, extra) in ROWS {
        let r = row(rows, phase, variant);
        for (field, kind) in STANDARD.iter().chain(extra.iter()) {
            check_field(r, phase, variant, field, *kind);
        }
    }

    // The bench's gates, re-checked from the shipped numbers.
    let num = |phase: &str, variant: &str, k: &str| {
        row(rows, phase, variant)
            .get(k)
            .and_then(|v| v.as_f64())
            .unwrap()
    };
    let count = |phase: &str, variant: &str, k: &str| {
        row(rows, phase, variant)
            .get(k)
            .and_then(|v| v.as_u64())
            .unwrap()
    };
    let flag = |phase: &str, variant: &str, k: &str| {
        row(rows, phase, variant)
            .get(k)
            .and_then(|v| v.as_bool())
            .unwrap()
    };
    // Every planner run rebalances: the rows before the read-scaling
    // ones.
    for (phase, variant, _) in &ROWS[..6] {
        assert!(
            flag(phase, variant, "rebalanced"),
            "{phase}/{variant} must rebalance"
        );
    }
    assert!(
        num("mixed", "cost-heat", "post_max_cpu") < num("mixed", "count-heat", "post_max_cpu"),
        "cost-based heat must realize lower post-rebalance max CPU"
    );
    assert!(
        count("mixed", "cost-heat", "bytes_moved") <= count("mixed", "count-heat", "bytes_moved"),
        "cost-based heat must not ship more bytes"
    );
    assert!(
        count("failover", "replicated", "replica_reads") > 0,
        "the replicated run must serve reads from followers"
    );
    assert!(
        num("failover", "replicated", "post_max_cpu")
            < num("failover", "no-replicas", "post_max_cpu"),
        "read fan-out must lower the hot node's CPU"
    );
    assert!(
        count("failover", "replicated", "replica_shipped_bytes") > 0,
        "the replicated run must ship WAL to its followers"
    );
    assert!(
        flag("failover", "node-kill", "rebalanced"),
        "the node kill must recover inside the horizon"
    );
    assert!(
        count("failover", "node-kill", "orphaned") > 0
            && count("failover", "node-kill", "rereplication_bytes") > 0,
        "recovery must promote orphans and re-replicate"
    );
    let drain = "drain-under-replication";
    assert!(
        flag("failover", drain, "rebalanced"),
        "autopilot never drained the idle replicated node"
    );
    assert_eq!(
        count("failover", drain, "under_replicated"),
        0,
        "drain left segments under the replication factor"
    );
    assert!(
        flag("failover", drain, "invariants_ok"),
        "replica-map invariants violated after the drain"
    );
}

#[test]
fn bench_planner_artifact_is_schema_valid_when_present() {
    let path = artifact_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!(
            "note: {} not present, skipping artifact pass",
            path.display()
        );
        return;
    };
    let doc = parse(&text)
        .unwrap_or_else(|e| panic!("{} failed schema validation: {e:?}", path.display()));
    validate(&doc);
}

/// The schema contract itself, exercised even when no artifact exists.
#[test]
fn inline_exemplar_round_trips_the_schema() {
    let exemplar = r#"{
  "bench": "planner_shootout",
  "rows": [
    {"phase": "stationary", "variant": "fraction", "rebalanced": true, "segments_moved": 30, "bytes_moved": 39000000, "heat_planned": 417000.0, "heat_moved": 581000.0, "post_max_cpu": 0.96, "post_max_heat_share": 0.72},
    {"phase": "stationary", "variant": "heat-aware", "rebalanced": true, "segments_moved": 7, "bytes_moved": 7100000, "heat_planned": 680000.0, "heat_moved": 1050000.0, "post_max_cpu": 0.80, "post_max_heat_share": 0.51},
    {"phase": "advancing", "variant": "historical", "rebalanced": true, "segments_moved": 12, "bytes_moved": 14000000, "heat_planned": 2070000.0, "heat_moved": 2310000.0, "post_max_cpu": 0.88, "post_max_heat_share": 0.50},
    {"phase": "advancing", "variant": "projected", "rebalanced": true, "segments_moved": 11, "bytes_moved": 12700000, "heat_planned": 1930000.0, "heat_moved": 2190000.0, "post_max_cpu": 0.89, "post_max_heat_share": 0.51},
    {"phase": "mixed", "variant": "count-heat", "rebalanced": true, "segments_moved": 5, "bytes_moved": 4300000, "heat_planned": 7600.0, "heat_moved": 750.0, "post_max_cpu": 1.0, "post_max_heat_share": 0.61},
    {"phase": "mixed", "variant": "cost-heat", "rebalanced": true, "segments_moved": 3, "bytes_moved": 4100000, "heat_planned": 1090000.0, "heat_moved": 1570000.0, "post_max_cpu": 0.65, "post_max_heat_share": 0.53},
    {"phase": "failover", "variant": "no-replicas", "rebalanced": false, "segments_moved": 0, "bytes_moved": 0, "heat_planned": 0.000, "heat_moved": 0.000, "post_max_cpu": 0.47, "post_max_heat_share": 0.88, "replica_reads": 0, "replica_shipped_bytes": 0, "completed": 16800},
    {"phase": "failover", "variant": "replicated", "rebalanced": false, "segments_moved": 0, "bytes_moved": 3400000, "heat_planned": 0.000, "heat_moved": 0.000, "post_max_cpu": 0.44, "post_max_heat_share": 0.88, "replica_reads": 179000, "replica_shipped_bytes": 3400000, "completed": 16800},
    {"phase": "failover", "variant": "node-kill", "rebalanced": true, "segments_moved": 34, "bytes_moved": 87000000, "heat_planned": 0.000, "heat_moved": 0.000, "post_max_cpu": 0.0000, "post_max_heat_share": 0.0000, "recovery_secs": 6.0, "rereplication_bytes": 87000000, "orphaned": 34},
    {"phase": "failover", "variant": "drain-under-replication", "rebalanced": true, "segments_moved": 26, "bytes_moved": 32000000, "heat_planned": 0.000, "heat_moved": 0.000, "post_max_cpu": 0.0000, "post_max_heat_share": 0.0000, "drain_secs": 20.0, "rehomed_copies": 26, "under_replicated": 0, "invariants_ok": true}
  ]
}
"#;
    let doc = parse(exemplar).expect("exemplar parses");
    validate(&doc);
}
