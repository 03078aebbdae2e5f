//! The explainable autopilot timeline.
//!
//! Every monitoring window produces exactly one [`DecisionRecord`] —
//! including the windows where the policy held still — carrying the full
//! [`SignalVector`] that produced the decision (utilization, skew,
//! streak counters, cooldown state). Applied decisions link to the span
//! of the operation they started, so predicted-vs-realized outcomes can
//! be joined back onto the decision after the operation completes.
//!
//! [`render_explain`] turns records (plus their linked spans) into the
//! human-readable account `explain()` returns:
//!
//! ```text
//! window 42 [t=210s]: skew 2.30 ≥ 2.00, streak 2/2 → AttachHelpers
//!   (applied, span s7) predicted relief 1.20 MB/s, realized 0.90 MB/s
//! ```

use std::collections::VecDeque;

use wattdb_common::SimTime;

use crate::span::Span;

/// The complete signal vector the policy saw in one window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SignalVector {
    /// Mean CPU utilization over data-serving active nodes.
    pub mean_active_cpu: f64,
    /// Hottest node's CPU utilization.
    pub max_cpu: f64,
    /// Hottest node's NIC utilization.
    pub max_net: f64,
    /// Heat skew: hottest node's heat over the active mean.
    pub heat_skew: f64,
    /// Mean per-node heat over data-serving actives.
    pub mean_heat: f64,
    /// Data-serving active node count.
    pub active_nodes: u64,
    /// Powered-off standby count.
    pub standby_nodes: u64,
    /// Consecutive windows above the scale-out threshold.
    pub high_streak: u64,
    /// Consecutive windows below the scale-in threshold.
    pub low_streak: u64,
    /// Consecutive windows of decisive skew.
    pub skew_streak: u64,
    /// Windows of skew cooldown still to serve.
    pub cooldown_left: u64,
    /// Decisive skew fires since the last subsidence.
    pub skew_fires: u64,
    /// Whether the skew signal read as subsided this window.
    pub subsided: bool,
}

/// One window of the autopilot timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Monitoring window index (0-based, same numbering as the registry).
    pub window: u64,
    /// Virtual time of the window.
    pub at: SimTime,
    /// The decision, rendered (`"Hold"`, `"ScaleOut"`, `"AttachHelpers(n1<-n4)"`, …).
    pub decision: String,
    /// Trigger label (`"cpu-high"`, `"heat-skew"`, `"helper"`, `"failover"`, or empty).
    pub trigger: String,
    /// Outcome: `"hold"`, `"applied"`, `"deferred: <reason>"`, `"suspended: <nodes>"`.
    pub outcome: String,
    /// The signals that produced the decision.
    pub signals: SignalVector,
    /// Predicted benefit at decision time (relief MB/s for helpers,
    /// planned heat share for rebalances), when the decision made one.
    pub predicted: Option<f64>,
    /// Span of the operation this decision started, when applied.
    pub span: Option<u64>,
}

/// Bounded ring of decision records.
#[derive(Debug)]
pub struct DecisionTimeline {
    records: VecDeque<DecisionRecord>,
    capacity: usize,
    /// Records evicted from the ring since the start of the run.
    pub dropped: u64,
}

impl DecisionTimeline {
    /// Timeline with a ring bound on retained records.
    pub fn new(capacity: usize) -> Self {
        Self {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append one window's record.
    pub fn push(&mut self, record: DecisionRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Records oldest-surviving first.
    pub fn records(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Realized-outcome attributes looked up on a linked span, in the order
/// they are reported by [`render_explain`].
const REALIZED_ATTRS: &[(&str, &str, &str)] = &[
    ("realized_relief_mbps", "realized", " MB/s"),
    ("bytes_moved", "moved", " B"),
    ("heat_moved", "heat moved", ""),
    ("rereplicated_bytes", "re-replicated", " B"),
];

/// Render one decision record (with its linked span, if resolvable) into
/// the two-line explain form. `span` must be the span named by
/// `record.span`, when that id is known.
pub fn render_record(record: &DecisionRecord, span: Option<&Span>) -> String {
    let s = &record.signals;
    let signal_clause = match record.trigger.as_str() {
        "heat-skew" | "helper" => format!(
            "skew {:.2}, mean heat {:.2}, streak {}, cooldown {}",
            s.heat_skew, s.mean_heat, s.skew_streak, s.cooldown_left
        ),
        "cpu-high" => format!(
            "cpu {:.2} (max {:.2}), net max {:.2}, streak {}",
            s.mean_active_cpu, s.max_cpu, s.max_net, s.high_streak
        ),
        "cpu-low" => format!(
            "cpu {:.2} (max {:.2}), streak {}, actives {}",
            s.mean_active_cpu, s.max_cpu, s.low_streak, s.active_nodes
        ),
        "failover" => format!("actives {}, standbys {}", s.active_nodes, s.standby_nodes),
        _ => format!(
            "cpu {:.2}, skew {:.2}, streaks {}/{}/{}",
            s.mean_active_cpu, s.heat_skew, s.high_streak, s.low_streak, s.skew_streak
        ),
    };
    let mut line = format!(
        "window {} [t={}s]: {} → {} ({})",
        record.window,
        record.at.as_secs_f64(),
        signal_clause,
        record.decision,
        record.outcome,
    );
    if let Some(p) = record.predicted {
        line.push_str(&format!(", predicted {p:.2}"));
    }
    if let Some(span) = span {
        line.push_str(&format!(" [span {}", span.id));
        for (attr, label, unit) in REALIZED_ATTRS {
            if let Some(v) = span.attr_f64(attr) {
                line.push_str(&format!(", {label} {v:.2}{unit}"));
            }
        }
        match span.end {
            Some(end) => line.push_str(&format!(
                ", took {:.1}s]",
                end.since(span.start).as_secs_f64()
            )),
            None => line.push_str(", in flight]"),
        }
    }
    line
}

/// Render a full timeline: one line per record, joined with the spans
/// they link to. `lookup` resolves a span id to its span, when retained.
pub fn render_explain<'a>(
    records: impl Iterator<Item = &'a DecisionRecord>,
    mut lookup: impl FnMut(u64) -> Option<&'a Span>,
) -> Vec<String> {
    records
        .map(|r| render_record(r, r.span.and_then(&mut lookup)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanCollector;

    #[test]
    fn timeline_ring_is_bounded() {
        let mut t = DecisionTimeline::new(2);
        for w in 0..4 {
            t.push(DecisionRecord {
                window: w,
                at: SimTime::from_secs(5 * (w + 1)),
                decision: "Hold".into(),
                trigger: String::new(),
                outcome: "hold".into(),
                signals: SignalVector::default(),
                predicted: None,
                span: None,
            });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.records().next().unwrap().window, 2);
    }

    #[test]
    fn render_joins_decision_to_span_outcome() {
        let mut spans = SpanCollector::new(8);
        let id = spans.start("helpers", SimTime::from_secs(10));
        spans.set_attr(id, "realized_relief_mbps", 0.9.into());
        spans.end(id, SimTime::from_secs(40));
        let record = DecisionRecord {
            window: 42,
            at: SimTime::from_secs(210),
            decision: "AttachHelpers".into(),
            trigger: "heat-skew".into(),
            outcome: "applied".into(),
            signals: SignalVector {
                heat_skew: 2.3,
                mean_heat: 1.1,
                skew_streak: 2,
                ..SignalVector::default()
            },
            predicted: Some(1.2),
            span: Some(id.0),
        };
        let line = render_record(&record, spans.get(id));
        assert!(line.contains("window 42"), "{line}");
        assert!(line.contains("skew 2.30"), "{line}");
        assert!(line.contains("AttachHelpers"), "{line}");
        assert!(line.contains("predicted 1.20"), "{line}");
        assert!(line.contains("realized 0.90 MB/s"), "{line}");
        assert!(line.contains("took 30.0s"), "{line}");
    }
}
