//! Host-time spans recorded by the benchmark around its calls into the
//! engine. Spans live in memory and are written out once, when the run
//! ends; an untraced run carries a disabled tracer whose calls return at
//! the first branch.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle to a started span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`slice`, `setup.build`, `micro.index.btree_get`, …).
    pub name: String,
    /// Parent span, if any: the span that was open when this one began.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// In-memory span recorder with an open-span stack for parenting.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            // Sized for the slices of one rep so recording does not
            // reallocate inside the measured window.
            spans: Vec::with_capacity(if enabled { 4096 } else { 0 }),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn start(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span (and any span still open inside it).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.start(name);
        let r = f();
        self.end(id);
        r
    }

    /// Recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `id`, `parent`, `workload`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"workload\": \"{workload}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name, s.start_ns, s.end_ns, self_ns[id]
            );
        }
        out
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Children of one parent never overlap here (the
/// tracer is a stack), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("workload", None, 0, 100),
            span("slice", Some(0), 10, 60),
            span("control.scan", Some(1), 10, 25),
            span("slice", Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 35, 15, 30]);
    }

    #[test]
    fn tracer_parents_by_nesting_and_closes_inner_spans() {
        let mut t = Tracer::new(true);
        let root = t.start("workload");
        let slice = t.start("slice");
        t.span("control.scan", || {});
        t.end(slice);
        let _dangling = t.start("slice");
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(
            s[3].end_ns, s[0].end_ns,
            "closing a parent closes its children"
        );
        let lines = t.to_jsonl("w");
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.lines().next().unwrap().contains("\"parent\": null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.start("slice");
        t.end(id);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
