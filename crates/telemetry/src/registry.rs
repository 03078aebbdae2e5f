//! Per-window metrics registry.
//!
//! Instead of ad-hoc fields scattered across structs, the control plane
//! publishes **named** counters, gauges, and histograms here and the
//! monitoring loop freezes them once per window into a [`WindowSample`]
//! time series. Names are dotted paths (`"txn.throughput"`,
//! `"node.3.cpu"`, `"energy.wh_per_txn"`); everything is keyed through
//! `BTreeMap`s so a sample serializes in one deterministic order. A name is
//! interned the first time it is published ([`MetricName`]): setting a
//! metric that exists and freezing a window copy pointers, not strings.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use wattdb_common::SimTime;

/// A deterministic log₂-bucketed histogram over non-negative floats.
///
/// `wattdb_common::Histogram` is duration-typed; the registry needs to
/// bucket arbitrary measurements (milliseconds, megabytes, watts), so it
/// carries its own minimal float variant. Percentiles are reported at
/// bucket upper bounds — coarse, but deterministic and mergeable.
#[derive(Debug, Clone)]
pub struct F64Histogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for F64Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl F64Histogram {
    fn bucket_of(v: f64) -> usize {
        let n = v.max(0.0).ceil() as u64;
        if n == 0 {
            0
        } else {
            (64 - n.leading_zeros() as usize).min(63)
        }
    }

    /// Record one observation (negatives clamp to zero).
    pub fn record(&mut self, v: f64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimated percentile (`p` in \[0,1\]) at the bucket upper bound.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            }
        }
        f64::MAX
    }
}

/// An interned metric name, shared between the registry and every window
/// sample that carries the metric. Looks up and compares like a `str`.
pub type MetricName = Rc<str>;

/// The names a histogram's percentiles are sampled under.
fn percentile_names(name: &str) -> [MetricName; 3] {
    ["p50", "p95", "p99"].map(|suffix| format!("{name}.{suffix}").into())
}

/// `name`'s slot in `map`; the name is interned, holding `fresh()`, on
/// first use.
fn slot<'a, V>(
    map: &'a mut BTreeMap<MetricName, V>,
    name: &str,
    fresh: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.into(), fresh());
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
    /// Metric name → value. Counters appear under their name, gauges
    /// under theirs, histograms as `<name>.p50/.p95/.p99`.
    pub values: BTreeMap<MetricName, f64>,
}

impl WindowSample {
    /// Value lookup.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Named counters/gauges/histograms plus the bounded sample series.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricName, u64>,
    gauges: BTreeMap<MetricName, f64>,
    /// Each histogram with the names of its three sampled percentiles.
    hists: BTreeMap<MetricName, (F64Histogram, [MetricName; 3])>,
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
            hists: BTreeMap::new(),
            samples: VecDeque::new(),
            capacity: capacity.max(1),
            windows: 0,
            dropped: 0,
        }
    }

    /// Add to a monotone counter (created at zero on first use).
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        *slot(&mut self.counters, name, || 0) += by;
    }

    /// Set a monotone counter to an absolute value (for mirroring a
    /// counter that is authoritative elsewhere).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        *slot(&mut self.counters, name, || 0) = value;
    }

    /// Current counter value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to the latest observation.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        *slot(&mut self.gauges, name, || 0.0) = value;
    }

    /// Remove a gauge (e.g. a per-node gauge whose node left the pool)
    /// so stale values stop appearing in new samples.
    pub fn clear_gauge(&mut self, name: &str) {
        self.gauges.remove(name);
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one observation into a histogram (created on first use).
    pub fn observe(&mut self, name: &str, value: f64) {
        let fresh = || (F64Histogram::default(), percentile_names(name));
        slot(&mut self.hists, name, fresh).0.record(value);
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
        for (h, names) in self.hists.values() {
            for (name, p) in names.iter().zip([0.50, 0.95, 0.99]) {
                values.insert(name.clone(), h.percentile(p));
            }
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
    fn samples_freeze_counters_gauges_and_percentiles() {
        let mut r = MetricsRegistry::new(4);
        r.inc_counter("txn.completed", 7);
        r.set_gauge("node.0.cpu", 0.42);
        for v in [1.0, 2.0, 100.0] {
            r.observe("resp_ms", v);
        }
        let w = r.sample_window(SimTime::from_secs(5));
        assert_eq!(w, 0);
        let s = r.latest().unwrap();
        assert_eq!(s.value("txn.completed"), Some(7.0));
        assert_eq!(s.value("node.0.cpu"), Some(0.42));
        assert!(s.value("resp_ms.p99").unwrap() >= s.value("resp_ms.p50").unwrap());
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

    #[test]
    fn cleared_gauges_leave_new_samples() {
        let mut r = MetricsRegistry::new(4);
        r.set_gauge("node.9.cpu", 1.0);
        r.sample_window(SimTime::from_secs(1));
        r.clear_gauge("node.9.cpu");
        r.sample_window(SimTime::from_secs(2));
        assert_eq!(r.latest().unwrap().value("node.9.cpu"), None);
    }
}
