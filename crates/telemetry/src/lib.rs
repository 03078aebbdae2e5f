//! # WattDB-RS telemetry: the control plane's flight recorder
//!
//! The control machinery — rebalancing, helper nodes, elasticity,
//! failover — reports through this crate: the durable, machine-readable
//! layer that every policy change is judged through:
//!
//! * **Tracing spans** ([`span`]): sim-time-stamped, id-linked spans for
//!   every long-running operation, with structured attributes (planned
//!   vs. realized heat/bytes, realized helper relief) and child events,
//!   kept in a bounded ring.
//! * **Metrics registry** ([`registry`]): named counters and gauges
//!   frozen once per monitoring window into a deterministic time-series
//!   snapshot.
//! * **Decision timeline** ([`timeline`]): one record per monitoring
//!   window — `Hold` included — carrying the full signal vector the
//!   policy saw, linked to the span its decision started, rendered by
//!   `explain()` as "window 42 [t=210s]: cpu 0.91 (max 0.97), streak 2 →
//!   ScaleOut(n0→n2) (applied), predicted 3.40 [span s7, heat moved
//!   3.10, took 20.0s]".
//! * **JSONL export** ([`export`]): hand-rolled writer *and* parser (the
//!   build is offline — no serde); a fixed-seed run exports a
//!   byte-identical file, and CI re-parses every shipped line back into
//!   the typed structs.
//!
//! The crate depends only on `wattdb-common`: it knows about virtual
//! time and metric names, not about clusters. The core crate owns the
//! vocabulary of *what* gets recorded; this crate guarantees *how* —
//! bounded memory, deterministic serialization, and instrumentation
//! that can never crash the system it observes.

pub mod export;
pub mod json;
pub mod registry;
pub mod span;
pub mod timeline;

pub use export::{parse_jsonl, ExportMeta, SchemaError, TimelineExport, SCHEMA_VERSION};
pub use registry::{MetricName, MetricsRegistry, WindowSample};
pub use span::{AttrValue, Span, SpanCollector, SpanEvent, SpanId};
pub use timeline::{
    render_explain, render_record, DecisionRecord, DecisionTimeline, SignalVector, ToRecord,
};

use wattdb_common::SimTime;

/// Default bound on retained closed spans.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;
/// Default bound on retained window samples.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 8192;
/// Default bound on retained decision records.
pub const DEFAULT_DECISION_CAPACITY: usize = 8192;

/// The assembled flight recorder: spans + registry + decision timeline.
///
/// Embedded in the cluster and always on; the bounded rings make the
/// steady-state memory cost constant regardless of run length. `R` is
/// the decision type the timeline stores, rendered as a
/// [`DecisionRecord`] only by [`Telemetry::export_jsonl`] and
/// [`Telemetry::explain`].
#[derive(Debug)]
pub struct Telemetry<R> {
    /// Tracing spans for long-running operations.
    pub spans: SpanCollector,
    /// Per-window metrics registry.
    pub registry: MetricsRegistry,
    /// The autopilot decision timeline.
    pub timeline: DecisionTimeline<R>,
}

impl<R: ToRecord> Default for Telemetry<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: ToRecord> Telemetry<R> {
    /// Recorder with the default ring bounds.
    pub fn new() -> Self {
        Self {
            spans: SpanCollector::new(DEFAULT_SPAN_CAPACITY),
            registry: MetricsRegistry::new(DEFAULT_SAMPLE_CAPACITY),
            timeline: DecisionTimeline::new(DEFAULT_DECISION_CAPACITY),
        }
    }

    /// Serialize the full recorder state as JSONL (meta line, spans —
    /// closed then open — samples, then decisions).
    pub fn export_jsonl(&self) -> String {
        let meta = ExportMeta {
            version: SCHEMA_VERSION,
            spans_dropped: self.spans.dropped,
            samples_dropped: self.registry.dropped,
            decisions_dropped: self.timeline.dropped,
        };
        let mut out = export::meta_line(&meta);
        out.push('\n');
        for span in self.spans.closed() {
            out.push_str(&export::span_line(span));
            out.push('\n');
        }
        for span in self.spans.open() {
            out.push_str(&export::span_line(span));
            out.push('\n');
        }
        for sample in self.registry.samples() {
            out.push_str(&export::sample_line(sample));
            out.push('\n');
        }
        for record in self.timeline.records() {
            out.push_str(&export::decision_line(&record.to_record()));
            out.push('\n');
        }
        out
    }

    /// Render the explainable timeline from live state (same renderer
    /// the parsed export uses).
    pub fn explain(&self) -> Vec<String> {
        render_explain(self.timeline.records(), |id| self.spans.get(SpanId(id)))
    }

    /// Convenience: open a span with initial attributes.
    pub fn start_span(
        &mut self,
        name: &str,
        at: SimTime,
        attrs: Vec<(String, AttrValue)>,
    ) -> SpanId {
        let id = self.spans.start(name, at);
        for (k, v) in attrs {
            self.spans.set_attr(id, &k, v);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_parses_back_and_explains_identically() {
        let mut t = Telemetry::<DecisionRecord>::new();
        let span = t.start_span(
            "rebalance",
            SimTime::from_secs(10),
            vec![("heat_planned".into(), 1.2.into())],
        );
        t.spans.set_attr(span, "heat_moved", AttrValue::F64(0.9));
        t.spans.end(span, SimTime::from_secs(60));
        t.registry.set_gauge("power.watts", 91.5);
        t.registry.sample_window(SimTime::from_secs(5));
        t.timeline.push(DecisionRecord {
            window: 0,
            at: SimTime::from_secs(5),
            decision: "ScaleOut(n0→n2)".into(),
            trigger: "cpu-high".into(),
            outcome: "applied".into(),
            signals: SignalVector::default(),
            predicted: Some(1.2),
            span: Some(span.0),
        });
        let text = t.export_jsonl();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.samples.len(), 1);
        assert_eq!(parsed.decisions.len(), 1);
        // The live explain and the export-derived explain agree exactly.
        assert_eq!(t.explain(), parsed.explain());
        // And a second export is byte-identical.
        assert_eq!(text, t.export_jsonl());
    }
}
