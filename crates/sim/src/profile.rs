//! Per-query cost attribution, the data behind Fig. 7 of the paper.
//!
//! Every unit of time a query spends — computing, waiting for disk, waiting
//! for a lock, appending to the log — is attributed to a [`CostCategory`].
//! Aggregating profiles across queries reproduces the paper's breakdown of
//! "impact factors on query runtime when rebalancing".

use std::fmt;
use std::ops::{Add, AddAssign};

use wattdb_common::SimDuration;

/// Where a slice of query time went. Matches the component legend of
/// Fig. 7: logging, latching, locking, network I/O, disk I/O, other;
/// `Cpu` is folded into `Other` when rendering the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostCategory {
    /// WAL appends and log-flush waits.
    Logging,
    /// Waiting for page latches / buffer frames.
    Latching,
    /// Waiting for record/partition locks.
    Locking,
    /// Network serialization + propagation + queue time.
    NetworkIo,
    /// Disk service + disk queue time.
    DiskIo,
    /// Useful computation on a core (rendered within "other").
    Cpu,
    /// Anything else (scheduling gaps, think-time excluded).
    Other,
}

impl CostCategory {
    /// All categories, in the order Fig. 7 lists them.
    pub const ALL: [CostCategory; 7] = [
        CostCategory::Logging,
        CostCategory::Latching,
        CostCategory::Locking,
        CostCategory::NetworkIo,
        CostCategory::DiskIo,
        CostCategory::Cpu,
        CostCategory::Other,
    ];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        let labels = [
            "logging",
            "latching",
            "locking",
            "network IO",
            "disk IO",
            "cpu",
            "other",
        ];
        labels[self.index()]
    }

    /// Its place in [`CostCategory::ALL`]: the declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Time spent per category for one query/transaction (or aggregated over
/// many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostProfile {
    slots: [u64; 7], // µs per category, indexed by CostCategory::index
}

impl CostProfile {
    /// Record `d` against category `cat`.
    #[inline]
    pub fn record(&mut self, cat: CostCategory, d: SimDuration) {
        self.slots[cat.index()] += d.as_micros();
    }

    /// Time attributed to `cat`.
    pub fn get(&self, cat: CostCategory) -> SimDuration {
        SimDuration::from_micros(self.slots[cat.index()])
    }

    /// Total attributed time across all categories.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_micros(self.slots.iter().sum())
    }

    /// Divide all entries by `n` (for per-query means). `n = 0` is a no-op.
    pub fn scaled_down(&self, n: u64) -> CostProfile {
        let slots = self.slots.map(|s| s.checked_div(n).unwrap_or(s));
        CostProfile { slots }
    }
}

impl Add for CostProfile {
    type Output = CostProfile;
    fn add(mut self, rhs: CostProfile) -> CostProfile {
        self += rhs;
        self
    }
}

impl AddAssign for CostProfile {
    fn add_assign(&mut self, rhs: CostProfile) {
        for (a, b) in self.slots.iter_mut().zip(rhs.slots.iter()) {
            *a += b;
        }
    }
}

impl fmt::Display for CostProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.total() == SimDuration::ZERO {
            return write!(f, "(empty)");
        }
        let mut sep = "";
        for (cat, v) in CostCategory::ALL.map(|c| (c, self.get(c))) {
            if v > SimDuration::ZERO {
                write!(f, "{sep}{}={v}", cat.label())?;
                sep = " ";
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut p = CostProfile::default();
        p.record(CostCategory::DiskIo, SimDuration::from_millis(3));
        p.record(CostCategory::DiskIo, SimDuration::from_millis(2));
        p.record(CostCategory::Locking, SimDuration::from_millis(1));
        assert_eq!(p.get(CostCategory::DiskIo), SimDuration::from_millis(5));
        assert_eq!(p.get(CostCategory::Locking), SimDuration::from_millis(1));
        assert_eq!(p.get(CostCategory::Cpu), SimDuration::ZERO);
        assert_eq!(p.total(), SimDuration::from_millis(6));
    }

    #[test]
    fn aggregation_and_scaling() {
        let mut a = CostProfile::default();
        a.record(CostCategory::Logging, SimDuration::from_micros(100));
        let mut b = CostProfile::default();
        b.record(CostCategory::Logging, SimDuration::from_micros(300));
        b.record(CostCategory::Cpu, SimDuration::from_micros(40));
        let sum = a + b;
        assert_eq!(
            sum.get(CostCategory::Logging),
            SimDuration::from_micros(400)
        );
        let mean = sum.scaled_down(2);
        assert_eq!(
            mean.get(CostCategory::Logging),
            SimDuration::from_micros(200)
        );
        assert_eq!(mean.get(CostCategory::Cpu), SimDuration::from_micros(20));
        // scaled_down(0) leaves profile unchanged rather than dividing by 0.
        assert_eq!(sum.scaled_down(0), sum);
    }

    #[test]
    fn display_omits_zero_categories() {
        let mut p = CostProfile::default();
        p.record(CostCategory::NetworkIo, SimDuration::from_micros(5));
        let s = p.to_string();
        assert!(s.contains("network IO"));
        assert!(!s.contains("disk"));
        assert_eq!(CostProfile::default().to_string(), "(empty)");
    }

    #[test]
    fn all_categories_distinct_indices() {
        use std::collections::HashSet;
        let idx: HashSet<usize> = CostCategory::ALL.iter().map(|c| c.index()).collect();
        assert_eq!(idx.len(), 7);
    }
}
