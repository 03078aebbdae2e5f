//! Per-window metrics registry.
//!
//! Instead of ad-hoc fields scattered across structs, the control plane
//! publishes **named** counters and gauges here and the monitoring loop
//! freezes them once per window into a [`WindowSample`] time series.
//! Names are dotted paths (`"txn.throughput"`, `"node.3.cpu"`,
//! `"energy.wh_per_txn"`); everything is keyed through `BTreeMap`s so a
//! sample serializes in one deterministic order. A name is interned the
//! first time it is published ([`MetricName`]): setting a metric that
//! exists and freezing a window copy pointers, not strings.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use wattdb_common::SimTime;

/// An interned metric name, shared between the registry and every window
/// sample that carries the metric. Looks up and compares like a `str`.
pub type MetricName = Rc<str>;

/// `name`'s slot in `map`; the name is interned, holding zero, on first
/// use.
fn slot<'a, V: Default>(map: &'a mut BTreeMap<MetricName, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.into(), V::default());
    }
    map.get_mut(name).expect("just ensured")
}

/// One frozen per-window snapshot of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Virtual time the window closed.
    pub at: SimTime,
    /// Monitoring window index (0-based).
    pub window: u64,
    /// Metric name → value: every counter and gauge under its name.
    pub values: BTreeMap<MetricName, f64>,
}

impl WindowSample {
    /// Value lookup.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Named counters and gauges plus the bounded sample series.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricName, u64>,
    gauges: BTreeMap<MetricName, f64>,
    samples: VecDeque<WindowSample>,
    capacity: usize,
    windows: u64,
    /// Samples evicted from the ring since the start of the run.
    pub dropped: u64,
}

impl MetricsRegistry {
    /// Registry with a ring bound on retained window samples.
    pub fn new(capacity: usize) -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            samples: VecDeque::new(),
            capacity: capacity.max(1),
            windows: 0,
            dropped: 0,
        }
    }

    /// Add to a monotone counter (created at zero on first use).
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        *slot(&mut self.counters, name) += by;
    }

    /// Set a monotone counter to an absolute value (for mirroring a
    /// counter that is authoritative elsewhere).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        *slot(&mut self.counters, name) = value;
    }

    /// Current counter value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to the latest observation.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        *slot(&mut self.gauges, name) = value;
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Freeze the current state of every metric into the next
    /// [`WindowSample`] and return its window index.
    pub fn sample_window(&mut self, at: SimTime) -> u64 {
        let mut values = BTreeMap::new();
        for (name, v) in &self.counters {
            values.insert(name.clone(), *v as f64);
        }
        for (name, v) in &self.gauges {
            values.insert(name.clone(), *v);
        }
        let window = self.windows;
        self.windows += 1;
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(WindowSample { at, window, values });
        window
    }

    /// The retained sample series, oldest surviving first.
    pub fn samples(&self) -> impl Iterator<Item = &WindowSample> {
        self.samples.iter()
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&WindowSample> {
        self.samples.back()
    }

    /// Total windows ever sampled.
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_freeze_counters_and_gauges() {
        let mut r = MetricsRegistry::new(4);
        r.inc_counter("txn.completed", 7);
        r.set_gauge("node.0.cpu", 0.42);
        let w = r.sample_window(SimTime::from_secs(5));
        assert_eq!(w, 0);
        let s = r.latest().unwrap();
        assert_eq!(s.value("txn.completed"), Some(7.0));
        assert_eq!(s.value("node.0.cpu"), Some(0.42));
    }

    #[test]
    fn ring_bound_holds() {
        let mut r = MetricsRegistry::new(2);
        for i in 0..5u64 {
            r.set_gauge("g", i as f64);
            r.sample_window(SimTime::from_secs(i));
        }
        assert_eq!(r.samples().count(), 2);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.windows(), 5);
        assert_eq!(r.latest().unwrap().window, 4);
    }
}
