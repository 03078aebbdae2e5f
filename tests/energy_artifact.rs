//! Schema validation and acceptance-gate re-check for the
//! `energy_scorecard` bench artifact.
//!
//! CI runs this after `cargo bench --bench energy_scorecard` has written
//! `BENCH_energy.json` at the repo root: the artifact must carry every
//! cell of the {diurnal, flash-crowd, tenant-mix} × {autopilot, static}
//! matrix with well-typed fields, both proportionality indices inside
//! [0,1], and the headline gates must hold — the autopilot strictly
//! beats static provisioning on the diurnal trace at a p95 penalty
//! within the artifact's own documented bound. When the artifact is
//! absent (plain `cargo test` before any bench run) the schema contract
//! is still exercised against an inline exemplar.

use std::path::{Path, PathBuf};

use wattdb_telemetry::json::{parse, JsonValue};

fn artifact_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_energy.json")
}

/// Every numeric field a cell must carry.
const CELL_NUMS: &[&str] = &[
    "windows",
    "proportionality_rated",
    "mean_watts",
    "peak_watts",
    "rated_watts",
    "committed_txns",
    "wh_per_txn",
    "p95_ceiling_ms",
];

/// The full matrix: (trace, policy) pairs that must all be present.
const MATRIX: &[(&str, &str)] = &[
    ("diurnal", "autopilot"),
    ("diurnal", "static"),
    ("flash-crowd", "autopilot"),
    ("flash-crowd", "static"),
    ("tenant-mix", "autopilot"),
    ("tenant-mix", "static"),
];

fn cell<'a>(cells: &'a [JsonValue], trace: &str, policy: &str) -> &'a JsonValue {
    cells
        .iter()
        .find(|c| {
            c.get("trace").and_then(|v| v.as_str()) == Some(trace)
                && c.get("policy").and_then(|v| v.as_str()) == Some(policy)
        })
        .unwrap_or_else(|| panic!("missing cell {trace}/{policy}"))
}

/// Validate the document shape and re-check the acceptance gates.
fn validate(doc: &JsonValue) {
    assert_eq!(
        doc.get("bench").and_then(|v| v.as_str()),
        Some("energy_scorecard"),
        "artifact must identify itself"
    );
    assert!(
        doc.get("seed").and_then(|v| v.as_u64()).is_some(),
        "artifact records the shared seed"
    );
    let p95_bound = doc
        .get("p95_bound")
        .and_then(|v| v.as_f64())
        .expect("artifact documents its p95 bound");
    assert!(p95_bound >= 1.0, "p95 bound must allow at least parity");
    let cells = doc
        .get("cells")
        .and_then(|v| v.as_arr())
        .expect("cells array");
    assert_eq!(cells.len(), MATRIX.len(), "all matrix cells present");
    for (trace, policy) in MATRIX {
        let c = cell(cells, trace, policy);
        for field in CELL_NUMS {
            let v = c
                .get(field)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("cell {trace}/{policy} missing numeric {field}"));
            assert!(
                v.is_finite() && v >= 0.0,
                "cell {trace}/{policy} field {field} must be finite and non-negative"
            );
        }
        let rated = c
            .get("proportionality_rated")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(
            (0.0..=1.0).contains(&rated),
            "cell {trace}/{policy} proportionality_rated {rated} out of [0,1]"
        );
        assert!(
            c.get("committed_txns").and_then(|v| v.as_u64()).unwrap() > 0,
            "cell {trace}/{policy} committed no work"
        );
        // nodes_powered: non-empty histogram of [active_nodes, windows].
        let hist = c
            .get("nodes_powered")
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("cell {trace}/{policy} missing nodes_powered"));
        assert!(!hist.is_empty(), "cell {trace}/{policy} empty histogram");
        for entry in hist {
            let pair = entry.as_arr().expect("histogram entry is a pair");
            assert_eq!(pair.len(), 2, "histogram entry is [nodes, windows]");
            assert!(pair.iter().all(|v| v.as_u64().is_some()));
        }
        // phases: every slice typed, labels non-empty.
        let phases = c
            .get("phases")
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("cell {trace}/{policy} missing phases"));
        assert!(!phases.is_empty(), "cell {trace}/{policy} has no phases");
        for p in phases {
            assert!(
                !p.get("label")
                    .and_then(|v| v.as_str())
                    .expect("phase label")
                    .is_empty(),
                "phase label empty"
            );
            for field in ["windows", "mean_watts", "committed_txns", "wh_per_txn"] {
                let v = p
                    .get(field)
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("phase missing numeric {field}"));
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }
    // The headline gates, re-checked from the shipped numbers.
    let auto = cell(cells, "diurnal", "autopilot");
    let stat = cell(cells, "diurnal", "static");
    let num = |c: &JsonValue, k: &str| c.get(k).and_then(|v| v.as_f64()).unwrap();
    assert!(
        num(auto, "proportionality_rated") > num(stat, "proportionality_rated"),
        "autopilot must strictly beat static proportionality on the diurnal trace"
    );
    assert!(
        num(auto, "p95_ceiling_ms") <= p95_bound * num(stat, "p95_ceiling_ms").max(1.0),
        "autopilot p95 ceiling exceeds the documented bound"
    );
    // And elasticity must actually save energy on the swinging trace.
    assert!(
        num(auto, "mean_watts") < num(stat, "mean_watts"),
        "autopilot must draw less mean power than static provisioning"
    );
}

#[test]
fn bench_energy_artifact_is_schema_valid_when_present() {
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
  "bench": "energy_scorecard",
  "seed": 42,
  "p95_bound": 4.0,
  "cells": [
    {"trace": "diurnal", "policy": "autopilot", "windows": 49, "proportionality_rated": 0.91, "mean_watts": 61.0, "peak_watts": 110.0, "rated_watts": 150.0, "committed_txns": 29000, "wh_per_txn": 0.00013, "p95_ceiling_ms": 260.0, "nodes_powered": [[1, 20], [2, 19], [3, 10]], "phases": [{"label": "trough", "windows": 16, "mean_watts": 36.0, "committed_txns": 3000, "wh_per_txn": 0.0002}, {"label": "shoulder", "windows": 17, "mean_watts": 60.0, "committed_txns": 10000, "wh_per_txn": 0.00014}, {"label": "peak", "windows": 16, "mean_watts": 95.0, "committed_txns": 16000, "wh_per_txn": 0.0001}]},
    {"trace": "diurnal", "policy": "static", "windows": 49, "proportionality_rated": 0.62, "mean_watts": 144.0, "peak_watts": 145.0, "rated_watts": 150.0, "committed_txns": 31000, "wh_per_txn": 0.00027, "p95_ceiling_ms": 130.0, "nodes_powered": [[4, 49]], "phases": [{"label": "trough", "windows": 16, "mean_watts": 143.0, "committed_txns": 3200, "wh_per_txn": 0.0008}, {"label": "shoulder", "windows": 17, "mean_watts": 144.0, "committed_txns": 11000, "wh_per_txn": 0.00026}, {"label": "peak", "windows": 16, "mean_watts": 145.0, "committed_txns": 16800, "wh_per_txn": 0.00017}]},
    {"trace": "flash-crowd", "policy": "autopilot", "windows": 49, "proportionality_rated": 0.88, "mean_watts": 58.0, "peak_watts": 112.0, "rated_watts": 150.0, "committed_txns": 21000, "wh_per_txn": 0.00016, "p95_ceiling_ms": 520.0, "nodes_powered": [[1, 28], [3, 21]], "phases": [{"label": "baseline", "windows": 25, "mean_watts": 38.0, "committed_txns": 5000, "wh_per_txn": 0.00021}, {"label": "ramp", "windows": 4, "mean_watts": 70.0, "committed_txns": 2000, "wh_per_txn": 0.00018}, {"label": "burst", "windows": 12, "mean_watts": 108.0, "committed_txns": 11000, "wh_per_txn": 0.00013}, {"label": "decay", "windows": 8, "mean_watts": 66.0, "committed_txns": 3000, "wh_per_txn": 0.00019}]},
    {"trace": "flash-crowd", "policy": "static", "windows": 49, "proportionality_rated": 0.55, "mean_watts": 144.0, "peak_watts": 145.0, "rated_watts": 150.0, "committed_txns": 22000, "wh_per_txn": 0.00037, "p95_ceiling_ms": 130.0, "nodes_powered": [[4, 49]], "phases": [{"label": "baseline", "windows": 25, "mean_watts": 144.0, "committed_txns": 5200, "wh_per_txn": 0.00096}, {"label": "ramp", "windows": 4, "mean_watts": 144.0, "committed_txns": 2100, "wh_per_txn": 0.00038}, {"label": "burst", "windows": 12, "mean_watts": 145.0, "committed_txns": 11400, "wh_per_txn": 0.00021}, {"label": "decay", "windows": 8, "mean_watts": 144.0, "committed_txns": 3300, "wh_per_txn": 0.00048}]},
    {"trace": "tenant-mix", "policy": "autopilot", "windows": 49, "proportionality_rated": 0.83, "mean_watts": 66.0, "peak_watts": 90.0, "rated_watts": 150.0, "committed_txns": 33000, "wh_per_txn": 0.00011, "p95_ceiling_ms": 260.0, "nodes_powered": [[2, 40], [3, 9]], "phases": [{"label": "shoulder", "windows": 49, "mean_watts": 66.0, "committed_txns": 33000, "wh_per_txn": 0.00011}]},
    {"trace": "tenant-mix", "policy": "static", "windows": 49, "proportionality_rated": 0.58, "mean_watts": 144.0, "peak_watts": 145.0, "rated_watts": 150.0, "committed_txns": 35000, "wh_per_txn": 0.00023, "p95_ceiling_ms": 130.0, "nodes_powered": [[4, 49]], "phases": [{"label": "shoulder", "windows": 49, "mean_watts": 144.0, "committed_txns": 35000, "wh_per_txn": 0.00023}]}
  ]
}
"#;
    let doc = parse(exemplar).expect("exemplar parses");
    validate(&doc);
}
