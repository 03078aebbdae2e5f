//! Schema validation and regression smoke threshold for the
//! `engine_throughput` bench artifact.
//!
//! CI runs this after `cargo bench --bench engine_throughput` has
//! written `BENCH_throughput.json` at the repo root: the artifact must
//! carry every cell of the {1×, 10×, 100×} × {per-client, pooled}
//! matrix with well-typed fields and the two saturation-fidelity
//! ratios; per-client@10× may cost at most 40× the wall-clock of
//! per-client@1× per simulated second (a ratio of two cells of one run,
//! so machine-independent); and the pooled 100× cell's
//! wall-clock-per-sim-second must not regress to ≥2× the committed
//! baseline (`crates/bench/baseline/engine_throughput.json`). When the
//! artifact is absent (plain `cargo test` before any bench run) the
//! schema contract is still exercised against an inline exemplar.

use std::path::{Path, PathBuf};

use wattdb_telemetry::json::{parse, JsonValue};

fn artifact_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json")
}

fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../crates/bench/baseline/engine_throughput.json")
}

/// Every numeric field a cell must carry.
const CELL_NUMS: &[&str] = &[
    "modeled_clients",
    "carriers",
    "weight",
    "sim_secs",
    "wall_secs",
    "events",
    "committed_txns",
    "events_per_wall_sec",
    "committed_txns_per_wall_sec",
    "wall_per_sim_sec",
];

/// The full matrix: (scale, mode) pairs that must all be present.
const MATRIX: &[(&str, &str)] = &[
    ("1x", "per-client"),
    ("1x", "pooled"),
    ("10x", "per-client"),
    ("10x", "pooled"),
    ("100x", "per-client"),
    ("100x", "pooled"),
];

/// Validate the document shape and return the pooled 100× cell's
/// wall-clock-per-sim-second.
fn validate(doc: &JsonValue) -> f64 {
    assert_eq!(
        doc.get("bench").and_then(|v| v.as_str()),
        Some("engine_throughput"),
        "artifact must identify itself"
    );
    let cells = doc
        .get("cells")
        .and_then(|v| v.as_arr())
        .expect("cells array");
    assert_eq!(cells.len(), MATRIX.len(), "all matrix cells present");
    let find = |scale: &str, mode: &str| {
        cells
            .iter()
            .find(|c| {
                c.get("scale").and_then(|v| v.as_str()) == Some(scale)
                    && c.get("mode").and_then(|v| v.as_str()) == Some(mode)
            })
            .unwrap_or_else(|| panic!("missing cell {scale}/{mode}"))
    };
    for (scale, mode) in MATRIX {
        let cell = find(scale, mode);
        for field in CELL_NUMS {
            let v = cell
                .get(field)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("cell {scale}/{mode} missing numeric {field}"));
            assert!(
                v.is_finite() && v >= 0.0,
                "cell {scale}/{mode} field {field} must be finite and non-negative"
            );
        }
        let committed = cell.get("committed_txns").and_then(|v| v.as_u64()).unwrap();
        assert!(committed > 0, "cell {scale}/{mode} committed no work");
    }
    let wall_per_sim = |scale: &str, mode: &str| {
        find(scale, mode)
            .get("wall_per_sim_sec")
            .and_then(|v| v.as_f64())
            .unwrap()
    };
    let scaling = wall_per_sim("10x", "per-client") / wall_per_sim("1x", "per-client");
    assert!(
        scaling <= 40.0,
        "per-client@10x must cost <=40x the wall-s/sim-s of per-client@1x, got {scaling:.1}x"
    );
    for field in ["saturation_fidelity_10x", "saturation_fidelity_100x"] {
        let v = doc
            .get(field)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("missing numeric {field}"));
        assert!(
            v.is_finite() && v > 0.0 && v <= 1.5,
            "{field} must be a ratio in (0, 1.5], got {v}"
        );
    }
    let speedup = doc
        .get("speedup_pooled100x_vs_perclient10x_txns_per_wall_sec")
        .and_then(|v| v.as_f64())
        .expect("speedup summary field");
    assert!(
        speedup >= 10.0,
        "pooled@100x must hold >=10x committed txns/wall-sec over per-client@10x, got {speedup}"
    );
    wall_per_sim("100x", "pooled")
}

#[test]
fn bench_throughput_artifact_is_schema_valid_when_present() {
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

/// The regression smoke threshold: a fresh pooled 100× run must not
/// cost ≥2× the committed baseline's wall-clock-per-sim-second. The 2×
/// margin absorbs machine-to-machine variance while still catching a
/// hot-path regression that undoes the batching work.
#[test]
fn pooled_100x_wall_clock_within_2x_of_committed_baseline() {
    let path = artifact_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!(
            "note: {} not present, skipping smoke threshold",
            path.display()
        );
        return;
    };
    let doc = parse(&text).expect("artifact parses");
    let measured = validate(&doc);
    let baseline_text =
        std::fs::read_to_string(baseline_path()).expect("committed baseline must exist");
    let baseline = parse(&baseline_text).expect("baseline parses");
    let allowed = baseline
        .get("pooled_100x_wall_per_sim_sec")
        .and_then(|v| v.as_f64())
        .expect("baseline pooled_100x_wall_per_sim_sec");
    assert!(
        measured < 2.0 * allowed,
        "pooled 100x wall-clock-per-sim-second regressed: measured {measured:.5}, \
         committed baseline {allowed:.5} (threshold {:.5})",
        2.0 * allowed
    );
}

/// The schema contract itself, exercised even when no artifact exists.
#[test]
fn inline_exemplar_round_trips_the_schema() {
    let exemplar = r#"{
  "bench": "engine_throughput",
  "cells": [
    {"scale": "1x", "mode": "per-client", "modeled_clients": 1000, "carriers": 1000, "weight": 1, "sim_secs": 30.0, "wall_secs": 0.08, "events": 65000, "committed_txns": 3000, "events_per_wall_sec": 812500.0, "committed_txns_per_wall_sec": 37500.0, "wall_per_sim_sec": 0.00267},
    {"scale": "1x", "mode": "pooled", "modeled_clients": 1000, "carriers": 1000, "weight": 1, "sim_secs": 30.0, "wall_secs": 0.084, "events": 63000, "committed_txns": 2900, "events_per_wall_sec": 750000.0, "committed_txns_per_wall_sec": 34500.0, "wall_per_sim_sec": 0.0028},
    {"scale": "10x", "mode": "per-client", "modeled_clients": 10000, "carriers": 10000, "weight": 1, "sim_secs": 30.0, "wall_secs": 0.93, "events": 374000, "committed_txns": 14000, "events_per_wall_sec": 402000.0, "committed_txns_per_wall_sec": 15100.0, "wall_per_sim_sec": 0.031},
    {"scale": "10x", "mode": "pooled", "modeled_clients": 10000, "carriers": 2000, "weight": 5, "sim_secs": 30.0, "wall_secs": 0.166, "events": 192000, "committed_txns": 29000, "events_per_wall_sec": 1157000.0, "committed_txns_per_wall_sec": 175000.0, "wall_per_sim_sec": 0.0055},
    {"scale": "100x", "mode": "per-client", "modeled_clients": 100000, "carriers": 100000, "weight": 1, "sim_secs": 30.0, "wall_secs": 19.4, "events": 772000, "committed_txns": 18500, "events_per_wall_sec": 39800.0, "committed_txns_per_wall_sec": 954.0, "wall_per_sim_sec": 0.645},
    {"scale": "100x", "mode": "pooled", "modeled_clients": 100000, "carriers": 2041, "weight": 49, "sim_secs": 30.0, "wall_secs": 0.215, "events": 193000, "committed_txns": 289000, "events_per_wall_sec": 898000.0, "committed_txns_per_wall_sec": 1344000.0, "wall_per_sim_sec": 0.0072}
  ],
  "speedup_pooled100x_vs_perclient10x_txns_per_wall_sec": 89.0,
  "saturation_fidelity_10x": 0.4828,
  "saturation_fidelity_100x": 0.064
}
"#;
    let doc = parse(exemplar).expect("exemplar parses");
    let wall_per_sim = validate(&doc);
    assert!(wall_per_sim > 0.0);
}
