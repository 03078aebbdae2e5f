//! JSONL export and re-import of the telemetry state.
//!
//! One line per object, four kinds: a `meta` header, then every span
//! (closed first, in close order, then still-open spans in id order),
//! then the window samples, then the decision records. All virtual
//! times serialize as integer microseconds and every map is
//! `BTreeMap`-ordered, so a fixed-seed run exports a **byte-identical**
//! file every time — that property is under test.
//!
//! [`parse_jsonl`] takes every line back into the typed structs, which
//! is what the CI schema-validation step runs against the shipped
//! `BENCH_timeline.jsonl` artifact.

use wattdb_common::SimTime;

use crate::json::{self, JsonValue};
use crate::registry::WindowSample;
use crate::span::{AttrValue, Span, SpanEvent, SpanId};
use crate::timeline::{DecisionRecord, SignalVector};

/// Schema version stamped into the `meta` line.
pub const SCHEMA_VERSION: u64 = 3;

/// The `meta` header line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExportMeta {
    /// Schema version of the file.
    pub version: u64,
    /// Spans evicted from the ring before export.
    pub spans_dropped: u64,
    /// Samples evicted before export.
    pub samples_dropped: u64,
    /// Decision records evicted before export.
    pub decisions_dropped: u64,
}

/// A fully parsed timeline file.
#[derive(Debug, Clone, Default)]
pub struct TimelineExport {
    /// The header.
    pub meta: ExportMeta,
    /// Every span in the file (closed then open).
    pub spans: Vec<Span>,
    /// Every window sample.
    pub samples: Vec<WindowSample>,
    /// Every decision record.
    pub decisions: Vec<DecisionRecord>,
}

impl TimelineExport {
    /// Span lookup by raw id.
    pub fn span(&self, id: u64) -> Option<&Span> {
        self.spans.iter().find(|s| s.id.0 == id)
    }

    /// Render the explainable timeline purely from the parsed file.
    pub fn explain(&self) -> Vec<String> {
        crate::timeline::render_explain(self.decisions.iter(), |id| self.span(id))
    }
}

fn write_attrs(out: &mut String, attrs: &[(String, AttrValue)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(out, k);
        out.push_str(": ");
        match v {
            AttrValue::Str(s) => json::write_str(out, s),
            AttrValue::F64(f) => json::write_f64(out, *f),
            AttrValue::U64(u) => out.push_str(&u.to_string()),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            AttrValue::StrList(items) => {
                out.push('[');
                for (j, item) in items.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    json::write_str(out, item);
                }
                out.push(']');
            }
        }
    }
    out.push('}');
}

/// Serialize one span as a JSONL line (no trailing newline).
pub fn span_line(span: &Span) -> String {
    let mut out = String::from("{\"kind\": \"span\", \"id\": ");
    out.push_str(&span.id.0.to_string());
    out.push_str(", \"parent\": ");
    match span.parent {
        Some(p) => out.push_str(&p.0.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(", \"name\": ");
    json::write_str(&mut out, &span.name);
    out.push_str(&format!(", \"start\": {}", span.start.as_micros()));
    out.push_str(", \"end\": ");
    match span.end {
        Some(end) => out.push_str(&end.as_micros().to_string()),
        None => out.push_str("null"),
    }
    out.push_str(", \"attrs\": ");
    write_attrs(&mut out, &span.attrs);
    out.push_str(", \"events\": [");
    for (i, ev) in span.events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"at\": {}, \"name\": ", ev.at.as_micros()));
        json::write_str(&mut out, &ev.name);
        out.push_str(", \"attrs\": ");
        write_attrs(&mut out, &ev.attrs);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Serialize one window sample as a JSONL line.
pub fn sample_line(sample: &WindowSample) -> String {
    let mut out = format!(
        "{{\"kind\": \"sample\", \"window\": {}, \"at\": {}, \"values\": {{",
        sample.window,
        sample.at.as_micros()
    );
    for (i, (k, v)) in sample.values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(&mut out, k);
        out.push_str(": ");
        json::write_f64(&mut out, *v);
    }
    out.push_str("}}");
    out
}

/// Serialize one decision record as a JSONL line.
pub fn decision_line(record: &DecisionRecord) -> String {
    let s = &record.signals;
    let mut out = format!(
        "{{\"kind\": \"decision\", \"window\": {}, \"at\": {}, \"decision\": ",
        record.window,
        record.at.as_micros()
    );
    json::write_str(&mut out, &record.decision);
    out.push_str(", \"trigger\": ");
    json::write_str(&mut out, &record.trigger);
    out.push_str(", \"outcome\": ");
    json::write_str(&mut out, &record.outcome);
    out.push_str(", \"predicted\": ");
    match record.predicted {
        Some(p) => json::write_f64(&mut out, p),
        None => out.push_str("null"),
    }
    out.push_str(", \"span\": ");
    match record.span {
        Some(id) => out.push_str(&id.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(", \"signals\": {");
    let mut first = true;
    let mut field = |out: &mut String, name: &str, render: &str| {
        if !first {
            out.push_str(", ");
        }
        first = false;
        json::write_str(out, name);
        out.push_str(": ");
        out.push_str(render);
    };
    for (name, v) in [
        ("mean_active_cpu", s.mean_active_cpu),
        ("max_cpu", s.max_cpu),
    ] {
        let mut buf = String::new();
        json::write_f64(&mut buf, v);
        field(&mut out, name, &buf);
    }
    for (name, v) in [
        ("active_nodes", s.active_nodes),
        ("standby_nodes", s.standby_nodes),
        ("high_streak", s.high_streak),
        ("low_streak", s.low_streak),
    ] {
        field(&mut out, name, &v.to_string());
    }
    out.push_str("}}");
    out
}

/// Serialize the `meta` header line.
pub fn meta_line(meta: &ExportMeta) -> String {
    format!(
        concat!(
            "{{\"kind\": \"meta\", \"version\": {}, \"spans_dropped\": {}, ",
            "\"samples_dropped\": {}, \"decisions_dropped\": {}}}"
        ),
        meta.version, meta.spans_dropped, meta.samples_dropped, meta.decisions_dropped
    )
}

/// Error taking a line back apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

fn need<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn need_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

fn need_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

fn need_str(v: &JsonValue, key: &str) -> Result<String, String> {
    Ok(need(v, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))?
        .to_string())
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match need(v, key)? {
        JsonValue::Null => Ok(None),
        other => other
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' is neither null nor unsigned")),
    }
}

fn decode_attrs(v: &JsonValue, key: &str) -> Result<Vec<(String, AttrValue)>, String> {
    let obj = need(v, key)?
        .as_obj()
        .ok_or_else(|| format!("field '{key}' is not an object"))?;
    let mut out = Vec::with_capacity(obj.len());
    for (k, val) in obj {
        let decoded = match val {
            JsonValue::Str(s) => AttrValue::Str(s.clone()),
            JsonValue::Bool(b) => AttrValue::Bool(*b),
            JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                AttrValue::U64(*n as u64)
            }
            JsonValue::Num(n) => AttrValue::F64(*n),
            JsonValue::Arr(items) => {
                let mut list = Vec::with_capacity(items.len());
                for item in items {
                    list.push(
                        item.as_str()
                            .ok_or_else(|| format!("attr '{k}': list item is not a string"))?
                            .to_string(),
                    );
                }
                AttrValue::StrList(list)
            }
            JsonValue::Null => AttrValue::F64(f64::NAN),
            JsonValue::Obj(_) => return Err(format!("attr '{k}': nested objects unsupported")),
        };
        out.push((k.clone(), decoded));
    }
    Ok(out)
}

fn decode_span(v: &JsonValue) -> Result<Span, String> {
    let events_json = need(v, "events")?
        .as_arr()
        .ok_or_else(|| "field 'events' is not an array".to_string())?;
    let mut events = Vec::with_capacity(events_json.len());
    for ev in events_json {
        events.push(SpanEvent {
            at: SimTime::from_micros(need_u64(ev, "at")?),
            name: need_str(ev, "name")?,
            attrs: decode_attrs(ev, "attrs")?,
        });
    }
    Ok(Span {
        id: SpanId(need_u64(v, "id")?),
        parent: opt_u64(v, "parent")?.map(SpanId),
        name: need_str(v, "name")?,
        start: SimTime::from_micros(need_u64(v, "start")?),
        end: opt_u64(v, "end")?.map(SimTime::from_micros),
        attrs: decode_attrs(v, "attrs")?,
        events,
    })
}

fn decode_sample(v: &JsonValue) -> Result<WindowSample, String> {
    let values = need(v, "values")?
        .as_num_map()
        .ok_or_else(|| "field 'values' is not a numeric object".to_string())?;
    Ok(WindowSample {
        at: SimTime::from_micros(need_u64(v, "at")?),
        window: need_u64(v, "window")?,
        values: values.into_iter().map(|(k, v)| (k.into(), v)).collect(),
    })
}

fn decode_decision(v: &JsonValue) -> Result<DecisionRecord, String> {
    let sig = need(v, "signals")?;
    let signals = SignalVector {
        mean_active_cpu: need_f64(sig, "mean_active_cpu")?,
        max_cpu: need_f64(sig, "max_cpu")?,
        active_nodes: need_u64(sig, "active_nodes")?,
        standby_nodes: need_u64(sig, "standby_nodes")?,
        high_streak: need_u64(sig, "high_streak")?,
        low_streak: need_u64(sig, "low_streak")?,
    };
    let predicted = match need(v, "predicted")? {
        JsonValue::Null => None,
        other => Some(
            other
                .as_f64()
                .ok_or_else(|| "field 'predicted' is neither null nor a number".to_string())?,
        ),
    };
    Ok(DecisionRecord {
        window: need_u64(v, "window")?,
        at: SimTime::from_micros(need_u64(v, "at")?),
        decision: need_str(v, "decision")?,
        trigger: need_str(v, "trigger")?,
        outcome: need_str(v, "outcome")?,
        signals,
        predicted,
        span: opt_u64(v, "span")?,
    })
}

/// Parse a whole JSONL export back into typed structs. Every line must
/// parse as JSON **and** decode into its declared kind; blank lines are
/// ignored. Unknown kinds are an error — the schema is closed.
pub fn parse_jsonl(text: &str) -> Result<TimelineExport, SchemaError> {
    let mut out = TimelineExport::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fail = |msg: String| SchemaError { line: i + 1, msg };
        let v = json::parse(line).map_err(|e| fail(e.to_string()))?;
        let kind = need_str(&v, "kind").map_err(fail)?;
        match kind.as_str() {
            "meta" => {
                out.meta = ExportMeta {
                    version: need_u64(&v, "version").map_err(fail)?,
                    spans_dropped: need_u64(&v, "spans_dropped").map_err(fail)?,
                    samples_dropped: need_u64(&v, "samples_dropped").map_err(fail)?,
                    decisions_dropped: need_u64(&v, "decisions_dropped").map_err(fail)?,
                };
            }
            "span" => out.spans.push(decode_span(&v).map_err(fail)?),
            "sample" => out.samples.push(decode_sample(&v).map_err(fail)?),
            "decision" => out.decisions.push(decode_decision(&v).map_err(fail)?),
            other => return Err(fail(format!("unknown kind '{other}'"))),
        }
    }
    if out.meta.version != SCHEMA_VERSION {
        return Err(SchemaError {
            line: 1,
            msg: format!(
                "schema version {} (expected {SCHEMA_VERSION}) — missing meta line?",
                out.meta.version
            ),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn span_line_round_trips() {
        let span = Span {
            id: SpanId(3),
            parent: Some(SpanId(1)),
            name: "rebalance".into(),
            start: SimTime::from_secs(5),
            end: Some(SimTime::from_secs(25)),
            attrs: vec![
                ("trigger".into(), AttrValue::Str("cpu-high".into())),
                ("bytes_moved".into(), AttrValue::U64(1024)),
                ("heat_moved".into(), AttrValue::F64(0.75)),
                ("escalated".into(), AttrValue::Bool(false)),
                (
                    "ranking".into(),
                    AttrValue::StrList(vec!["n4".into(), "n2".into()]),
                ),
            ],
            events: vec![SpanEvent {
                at: SimTime::from_secs(10),
                name: "boot".into(),
                attrs: vec![("nodes".into(), AttrValue::U64(2))],
            }],
        };
        let text = format!(
            "{}\n{}\n",
            meta_line(&ExportMeta {
                version: SCHEMA_VERSION,
                ..Default::default()
            }),
            span_line(&span)
        );
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.spans[0], span);
    }

    #[test]
    fn decision_and_sample_lines_round_trip() {
        let record = DecisionRecord {
            window: 7,
            at: SimTime::from_secs(40),
            decision: "ScaleOut".into(),
            trigger: "cpu-high".into(),
            outcome: "applied".into(),
            signals: SignalVector {
                mean_active_cpu: 0.93,
                max_cpu: 0.99,
                high_streak: 2,
                active_nodes: 3,
                ..SignalVector::default()
            },
            predicted: Some(0.6),
            span: Some(9),
        };
        let sample = WindowSample {
            at: SimTime::from_secs(40),
            window: 7,
            values: BTreeMap::from([
                ("txn.throughput".into(), 210.5),
                ("power.watts".into(), 87.0),
            ]),
        };
        let text = format!(
            "{}\n{}\n{}\n",
            meta_line(&ExportMeta {
                version: SCHEMA_VERSION,
                ..Default::default()
            }),
            decision_line(&record),
            sample_line(&sample),
        );
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.decisions, vec![record]);
        assert_eq!(parsed.samples, vec![sample]);
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let err = parse_jsonl("{\"kind\": \"meta\", \"version\": 3, \"spans_dropped\": 0, \"samples_dropped\": 0, \"decisions_dropped\": 0}\n{\"kind\": \"span\"}\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_jsonl("{\"kind\": \"mystery\"}\n").is_err());
        assert!(parse_jsonl("not json\n").is_err());
    }

    #[test]
    fn a_version_1_export_is_refused() {
        // Each older version's decision line carries the signal fields it
        // had: version 1 the skew trigger's four and the NIC and heat-skew
        // three, version 2 the three. Both parse line by line; the file is
        // refused by its version, whatever its lines hold.
        let v2_signals = concat!(
            "\"mean_active_cpu\": 0.5, \"max_cpu\": 0.5, \"max_net\": 0.0, ",
            "\"heat_skew\": 1.0, \"mean_heat\": 2.0, \"active_nodes\": 2, ",
            "\"standby_nodes\": 2, \"high_streak\": 0, \"low_streak\": 0",
        );
        let v1_signals = format!(
            "{v2_signals}, \"skew_streak\": 0, \"cooldown_left\": 0, \
             \"skew_fires\": 0, \"subsided\": false"
        );
        for (version, signals) in [(1, v1_signals.as_str()), (2, v2_signals)] {
            let text = format!(
                "{{\"kind\": \"meta\", \"version\": {version}, \"spans_dropped\": 0, \
                 \"samples_dropped\": 0, \"decisions_dropped\": 0}}\n\
                 {{\"kind\": \"decision\", \"window\": 0, \"at\": 5000000, \
                 \"decision\": \"Hold\", \"trigger\": \"\", \"outcome\": \"hold\", \
                 \"predicted\": null, \"span\": null, \"signals\": {{{signals}}}}}\n"
            );
            let err = parse_jsonl(&text).unwrap_err();
            assert_eq!(err.line, 1, "version {version}");
            let expected = format!("schema version {version} (expected 3)");
            assert!(err.msg.starts_with(&expected), "{err:?}");
        }
    }
}
