//! Estimators the ledgers are built from. Nothing here touches the
//! engine; every function is unit-tested below.

/// Host time of the measured window from repeated identical runs: the
/// sum over slices of the *minimum across reps* of that slice's host
/// time. Reps do identical work, so anything above the per-slice minimum
/// is interference from outside the process; taking the minimum per
/// slice discards far more of it than the minimum of whole-run totals.
/// Returns 0 when there are no reps; reps must be equally long.
pub fn per_slice_minimum_ns(reps: &[&[u64]]) -> u64 {
    let Some(first) = reps.first() else {
        return 0;
    };
    assert!(
        reps.iter().all(|r| r.len() == first.len()),
        "reps must have the same number of slices"
    );
    (0..first.len())
        .map(|i| reps.iter().map(|r| r[i]).min().unwrap_or(0))
        .sum()
}

/// Median of a sample (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0–100) of a sample by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Percentile ladder the reports choose from.
const LADDER: [f64; 7] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of size `n` — the highest one worth
/// reporting. `None` when even the median is not supported (n < 20).
pub fn highest_supported_percentile(n: u64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Ratio of the last decile's mean to the first decile's mean: how much
/// one simulated second costs late in the run relative to early in it.
pub fn decile_growth(slices_ns: &[u64]) -> f64 {
    let k = (slices_ns.len() / 10).max(1);
    if slices_ns.len() < 2 * k {
        return 1.0;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let first = mean(&slices_ns[..k]);
    let last = mean(&slices_ns[slices_ns.len() - k..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Log₂-bucket histogram of host nanoseconds: bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds 0). One add per sample, so it can
/// sit around every simulator step.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let b = (64 - ns.leading_zeros()) as usize;
        self.buckets[b.min(63)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0–100), interpolated linearly inside the
    /// bucket the rank falls in and capped at the largest sample.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if below + c >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = (target - below) as f64 / c as f64;
                return (lo + frac * (hi - lo)).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }
}

fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 0.0)
    } else {
        ((1u64 << (i - 1)) as f64, (1u64 << i.min(63)) as f64)
    }
}

/// A percentile of a log₂-bucket histogram that only exposes "upper
/// bound of the bucket holding rank r" (the engine's response-time
/// histogram): find the bucket, recover by bisection how many samples
/// lie below it and inside it, and interpolate linearly between the
/// bucket's bounds. `bound_at_rank(r)` must be monotone in `r` for
/// `1 <= r <= count`. The result moves continuously where the raw
/// bucket bound moves in factor-of-two steps.
pub fn interpolated_percentile(count: u64, p: f64, bound_at_rank: impl Fn(u64) -> u64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = (((p / 100.0) * count as f64).ceil().max(1.0) as u64).min(count);
    let upper = bound_at_rank(target);
    if upper <= 1 {
        return upper as f64;
    }
    // First rank whose bucket bound reaches `upper`.
    let (mut lo, mut hi) = (1u64, target);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if bound_at_rank(mid) >= upper {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first_in = lo;
    // Last rank still inside the bucket.
    let (mut lo, mut hi) = (target, count);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if bound_at_rank(mid) <= upper {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last_in = lo;
    let inside = (last_in - first_in + 1) as f64;
    let frac = (target - first_in + 1) as f64 / inside;
    let lower = (upper / 2) as f64;
    lower + frac * (upper as f64 - lower)
}

/// FNV-1a over bytes: the fingerprint the determinism check compares.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_slice_minimum_discards_noise_that_totals_keep() {
        // Each rep has one disturbed slice; whole-run minima keep 10 ns
        // of noise, per-slice minima keep none.
        let reps: [&[u64]; 3] = [&[10, 20, 40], &[20, 10, 30], &[10, 10, 30]];
        assert_eq!(per_slice_minimum_ns(&reps), 10 + 10 + 30);
        let best_total = reps.iter().map(|r| r.iter().sum::<u64>()).min().unwrap();
        assert!(per_slice_minimum_ns(&reps) <= best_total);
        assert_eq!(per_slice_minimum_ns(&[]), 0);
        assert_eq!(per_slice_minimum_ns(&[&[7, 8]]), 15);
    }

    #[test]
    #[should_panic(expected = "same number of slices")]
    fn per_slice_minimum_rejects_ragged_reps() {
        per_slice_minimum_ns(&[&[1, 2], &[1]]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn percentile_selection_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(180), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(650_000), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn decile_growth_compares_ends() {
        let flat = vec![5u64; 100];
        assert!((decile_growth(&flat) - 1.0).abs() < 1e-12);
        let mut ramp = vec![10u64; 10];
        ramp.extend(vec![20u64; 80]);
        ramp.extend(vec![45u64; 10]);
        assert!((decile_growth(&ramp) - 4.5).abs() < 1e-12);
        assert_eq!(decile_growth(&[1]), 1.0);
    }

    #[test]
    fn log2_hist_percentiles() {
        let mut h = Log2Hist::default();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.percentile(50.0);
        assert!((256.0..=512.0).contains(&p50), "p50 {p50}");
        assert!(h.percentile(100.0) <= 1000.0);
        assert!(h.percentile(99.0) >= h.percentile(50.0));
        assert_eq!(Log2Hist::default().percentile(50.0), 0.0);
    }

    /// The engine's histogram semantics over explicit samples (µs):
    /// bucket upper bound `2^i` for values in `[2^(i-1), 2^i)`.
    fn oracle(sorted: &[u64]) -> impl Fn(u64) -> u64 + '_ {
        |rank| {
            let us = sorted[rank as usize - 1];
            if us == 0 {
                0
            } else {
                1u64 << (64 - us.leading_zeros())
            }
        }
    }

    #[test]
    fn interpolated_percentile_moves_inside_a_bucket() {
        // 100 samples: 90 in [1024, 2048), 10 in [4096, 8192).
        let mut a: Vec<u64> = vec![1500; 90];
        a.extend(vec![5000; 10]);
        // Raw bucket bound of p95 is 8192; rank 95 is the 5th of 10 in
        // its bucket, so the estimate sits halfway up [4096, 8192].
        let p95 = interpolated_percentile(100, 95.0, oracle(&a));
        assert!((p95 - (4096.0 + 0.5 * 4096.0)).abs() < 1e-9, "{p95}");
        // Shifting two samples into the tail bucket moves the estimate
        // although the raw bound stays 8192.
        let mut b: Vec<u64> = vec![1500; 88];
        b.extend(vec![5000; 12]);
        let p95b = interpolated_percentile(100, 95.0, oracle(&b));
        assert!(p95b > p95 && p95b < 8192.0, "{p95b}");
        // p50 falls in the low bucket.
        let p50 = interpolated_percentile(100, 50.0, oracle(&a));
        assert!((1024.0..=2048.0).contains(&p50), "{p50}");
        assert_eq!(interpolated_percentile(0, 95.0, |_| 0), 0.0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
