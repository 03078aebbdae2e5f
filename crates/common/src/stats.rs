//! Online statistics and time-series bucketing for experiment reporting.

use crate::time::{SimDuration, SimTime};

/// A latency histogram with logarithmically spaced buckets (µs domain).
///
/// Buckets: [0,1), [1,2), [2,4), ... doubling up to ~2^40 µs, which covers
/// sub-µs to ~12 days. Percentiles are estimated at bucket upper bounds —
/// adequate for the comparative reporting this repo does.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
}

const HIST_BUCKETS: usize = 42;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }

    fn bucket_of(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record a duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        self.buckets[Self::bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += us;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean duration.
    pub fn mean(&self) -> SimDuration {
        match self.sum_us.checked_div(self.count) {
            Some(us) => SimDuration::from_micros(us),
            None => SimDuration::ZERO,
        }
    }

    /// Estimated percentile (`p` in \[0,100\]) as a duration.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper bound of bucket i: 2^i - 1 ≈ 2^i.
                let ub = if i == 0 { 0 } else { 1u64 << i };
                return SimDuration::from_micros(ub);
            }
        }
        SimDuration::from_micros(1 << (HIST_BUCKETS - 1))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }
}

/// Fixed-width time buckets accumulating per-interval experiment metrics
/// (queries completed, response-time sums, energy) for time-series plots
/// like Fig. 6 of the paper.
#[derive(Debug, Clone)]
pub struct TimeBuckets {
    width: SimDuration,
    origin: SimTime,
    /// (count, sum) per bucket, indexed by bucket number.
    buckets: Vec<(u64, f64)>,
}

impl TimeBuckets {
    /// Buckets of `width` starting at `origin`.
    pub fn new(origin: SimTime, width: SimDuration) -> Self {
        assert!(width.as_micros() > 0, "bucket width must be positive");
        Self {
            width,
            origin,
            buckets: Vec::new(),
        }
    }

    fn index_of(&self, t: SimTime) -> usize {
        (t.since(self.origin).as_micros() / self.width.as_micros()) as usize
    }

    /// Record a sample value at time `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let i = self.index_of(t);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, (0, 0.0));
        }
        let b = &mut self.buckets[i];
        b.0 += 1;
        b.1 += value;
    }

    /// Iterate `(bucket_start_time, count, sum)` over all buckets.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, f64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &(c, s))| (self.origin + self.width * i as u64, c, s))
    }

    /// Count in the bucket containing `t` (0 if none).
    pub fn count_at(&self, t: SimTime) -> u64 {
        self.buckets.get(self.index_of(t)).map_or(0, |b| b.0)
    }

    /// Mean value in the bucket containing `t` (0 if empty).
    pub fn mean_at(&self, t: SimTime) -> f64 {
        match self.buckets.get(self.index_of(t)) {
            Some(&(c, s)) if c > 0 => s / c as f64,
            _ => 0.0,
        }
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_ordered() {
        let mut h = Histogram::new();
        for us in [10u64, 100, 1000, 10_000, 100_000] {
            for _ in 0..20 {
                h.record(SimDuration::from_micros(us));
            }
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p99);
        assert!(p99 >= SimDuration::from_micros(100_000));
        assert!(h.mean() > SimDuration::ZERO);
    }

    #[test]
    fn time_buckets() {
        let mut tb = TimeBuckets::new(SimTime::ZERO, SimDuration::from_secs(10));
        tb.record(SimTime::from_secs(1), 100.0);
        tb.record(SimTime::from_secs(9), 200.0);
        tb.record(SimTime::from_secs(25), 50.0);
        assert_eq!(tb.count_at(SimTime::from_secs(5)), 2);
        assert!((tb.mean_at(SimTime::from_secs(5)) - 150.0).abs() < 1e-9);
        assert_eq!(tb.count_at(SimTime::from_secs(15)), 0);
        assert_eq!(tb.count_at(SimTime::from_secs(25)), 1);
        let rows: Vec<_> = tb.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, SimTime::ZERO);
        assert_eq!(rows[2].0, SimTime::from_secs(20));
    }
}
