//! Sim-time tracing spans for long-running control-plane operations.
//!
//! A [`Span`] covers one operation with a beginning and an end on the
//! virtual clock — a rebalance from `launch` to `maybe_finish`, a helper
//! deployment from first attach to last detach, a failover from detection
//! to restored replication factor, a power transition from switch-on to
//! boot-complete. Spans carry ordered structured attributes (trigger,
//! planned vs. realized heat/bytes, predicted vs. realized relief) and
//! timestamped child [`SpanEvent`]s, and are id-linked so a decision on
//! the timeline can point at the operation it started.
//!
//! Closed spans live in a bounded ring: the collector never grows without
//! bound no matter how long a simulation runs.

use std::collections::{BTreeMap, VecDeque};

use wattdb_common::SimTime;

/// Identifier of a span; allocated monotonically, never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One structured attribute value on a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Free-form string (labels, planner names, triggers).
    Str(String),
    /// Measurement (heat, bytes/s, seconds).
    F64(f64),
    /// Count or identifier (bytes, segments, node ids).
    U64(u64),
    /// Flag.
    Bool(bool),
    /// Ordered list of labels (e.g. a candidate ranking).
    StrList(Vec<String>),
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<Vec<String>> for AttrValue {
    fn from(v: Vec<String>) -> Self {
        AttrValue::StrList(v)
    }
}

/// A timestamped point event inside a span (a promotion, a partial
/// detach, a boot completion).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Event name.
    pub name: String,
    /// Ordered attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

/// One traced operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never reused within a collector).
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Operation name (`"rebalance"`, `"helpers"`, `"failover"`, …).
    pub name: String,
    /// Virtual time the operation started.
    pub start: SimTime,
    /// Virtual time it finished; `None` while still open.
    pub end: Option<SimTime>,
    /// Ordered attributes; later writes to the same key overwrite.
    pub attrs: Vec<(String, AttrValue)>,
    /// Child events in record order.
    pub events: Vec<SpanEvent>,
}

impl Span {
    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Attribute as `f64` (accepts `F64` and `U64`).
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        match self.attr(key)? {
            AttrValue::F64(v) => Some(*v),
            AttrValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

/// Collects spans into open storage plus a bounded ring of closed spans.
#[derive(Debug)]
pub struct SpanCollector {
    next_id: u64,
    open: BTreeMap<SpanId, Span>,
    closed: VecDeque<Span>,
    capacity: usize,
    /// Closed spans evicted from the ring since the start of the run.
    pub dropped: u64,
}

impl SpanCollector {
    /// Collector with a ring bound on closed spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            next_id: 0,
            open: BTreeMap::new(),
            closed: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Open a root span.
    pub fn start(&mut self, name: &str, at: SimTime) -> SpanId {
        self.start_child(name, at, None)
    }

    /// Open a span under `parent` (which may already be closed; linkage
    /// is by id, not lifetime).
    pub fn start_child(&mut self, name: &str, at: SimTime, parent: Option<SpanId>) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.open.insert(
            id,
            Span {
                id,
                parent,
                name: name.to_string(),
                start: at,
                end: None,
                attrs: Vec::new(),
                events: Vec::new(),
            },
        );
        id
    }

    /// Set (or overwrite) an attribute on an open span. Unknown or
    /// already-closed ids are ignored — instrumentation must never be
    /// able to crash the system it observes.
    pub fn set_attr(&mut self, id: SpanId, key: &str, value: AttrValue) {
        if let Some(span) = self.open.get_mut(&id) {
            if let Some(slot) = span.attrs.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                span.attrs.push((key.to_string(), value));
            }
        }
    }

    /// Record a child event on an open span; ignored when unknown/closed.
    pub fn add_event(
        &mut self,
        id: SpanId,
        at: SimTime,
        name: &str,
        attrs: Vec<(String, AttrValue)>,
    ) {
        if let Some(span) = self.open.get_mut(&id) {
            span.events.push(SpanEvent {
                at,
                name: name.to_string(),
                attrs,
            });
        }
    }

    /// Close an open span and move it to the ring. Ignored when already
    /// closed or unknown.
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if let Some(mut span) = self.open.remove(&id) {
            span.end = Some(at);
            if self.closed.len() == self.capacity {
                self.closed.pop_front();
                self.dropped += 1;
            }
            self.closed.push_back(span);
        }
    }

    /// Still-open spans in id order.
    pub fn open(&self) -> impl Iterator<Item = &Span> {
        self.open.values()
    }

    /// Closed spans in close order (oldest surviving first).
    pub fn closed(&self) -> impl Iterator<Item = &Span> {
        self.closed.iter()
    }

    /// Look up any span, open or closed, by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.open
            .get(&id)
            .or_else(|| self.closed.iter().find(|s| s.id == id))
    }

    /// Total spans ever started.
    pub fn started(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    #[test]
    fn span_lifecycle_and_lookup() {
        let mut c = SpanCollector::new(8);
        let a = c.start("rebalance", t(1));
        c.set_attr(a, "trigger", "cpu-high".into());
        c.set_attr(a, "trigger", "heat-skew".into()); // overwrite
        c.add_event(a, t(2), "boot", vec![("nodes".into(), 2u64.into())]);
        let b = c.start_child("copy", t(2), Some(a));
        c.end(b, t(3));
        c.end(a, t(4));
        assert_eq!(c.open().count(), 0);
        let span = c.get(a).unwrap();
        assert_eq!(
            span.attr("trigger"),
            Some(&AttrValue::Str("heat-skew".into()))
        );
        assert_eq!(span.events.len(), 1);
        assert_eq!(c.get(b).unwrap().parent, Some(a));
    }

    #[test]
    fn ring_is_bounded_and_ids_never_reused() {
        let mut c = SpanCollector::new(2);
        let mut ids = Vec::new();
        for i in 0..5 {
            let id = c.start("op", t(i));
            c.end(id, t(i + 1));
            ids.push(id);
        }
        assert_eq!(c.closed().count(), 2);
        assert_eq!(c.dropped, 3);
        let mut sorted = ids.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "ids are unique");
    }

    #[test]
    fn writes_to_closed_spans_are_ignored() {
        let mut c = SpanCollector::new(2);
        let a = c.start("op", t(0));
        c.end(a, t(1));
        c.set_attr(a, "late", 1.0.into());
        c.add_event(a, t(2), "late", vec![]);
        c.end(a, t(3));
        let span = c.get(a).unwrap();
        assert!(span.attrs.is_empty());
        assert!(span.events.is_empty());
        assert_eq!(span.end, Some(t(1)));
    }
}
