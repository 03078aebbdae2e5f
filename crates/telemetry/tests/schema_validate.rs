//! Schema validation for the exported timeline artifact.
//!
//! CI runs this after the planner shootout has written
//! `BENCH_timeline.jsonl` at the repo root: every line of the shipped
//! artifact must parse back into the typed span/sample/decision structs.
//! When the artifact is absent (plain `cargo test` before any bench
//! run), the test still validates a freshly generated export, so the
//! schema contract is always exercised.

use std::path::Path;

use wattdb_common::SimTime;
use wattdb_telemetry::{parse_jsonl, AttrValue, DecisionRecord, SignalVector, Telemetry};

fn artifact_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_timeline.jsonl")
}

#[test]
fn bench_timeline_artifact_is_schema_valid_when_present() {
    let path = artifact_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!(
            "note: {} not present, skipping artifact pass",
            path.display()
        );
        return;
    };
    let parsed = parse_jsonl(&text)
        .unwrap_or_else(|e| panic!("{} failed schema validation: {e}", path.display()));
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    let objects = 1 + parsed.spans.len() + parsed.samples.len() + parsed.decisions.len();
    assert_eq!(lines, objects, "every line decodes into a typed struct");
    assert!(
        !parsed.samples.is_empty(),
        "the shootout timeline must carry window samples"
    );
    assert!(
        parsed
            .samples
            .iter()
            .any(|s| s.value("energy.wh_per_txn").is_some()),
        "samples must include Wh-per-committed-txn"
    );
}

#[test]
fn generated_export_round_trips_line_for_line() {
    let mut t = Telemetry::<DecisionRecord>::new();
    let span = t.start_span(
        "rebalance",
        SimTime::from_secs(5),
        vec![
            ("trigger".into(), AttrValue::Str("cpu-high".into())),
            ("planned_heat".into(), AttrValue::F64(0.61)),
        ],
    );
    t.spans.add_event(
        span,
        SimTime::from_secs(10),
        "boot",
        vec![("nodes".into(), AttrValue::U64(2))],
    );
    t.spans.end(span, SimTime::from_secs(30));
    t.registry.set_gauge("energy.wh_per_txn", 0.0021);
    t.registry.inc_counter("txn.completed", 420);
    t.registry.sample_window(SimTime::from_secs(5));
    t.timeline.push(DecisionRecord {
        window: 0,
        at: SimTime::from_secs(5),
        decision: "ScaleOut".into(),
        trigger: "cpu-high".into(),
        outcome: "applied".into(),
        signals: SignalVector::default(),
        predicted: Some(0.61),
        span: Some(span.0),
    });
    let text = t.export_jsonl();
    let parsed = parse_jsonl(&text).expect("generated export must be schema-valid");
    let lines = text.lines().count();
    let objects = 1 + parsed.spans.len() + parsed.samples.len() + parsed.decisions.len();
    assert_eq!(lines, objects);
    assert_eq!(parsed.explain(), t.explain());
}
