//! Experiment metrics: the data series behind Figs. 6–8.

use std::collections::HashMap;

use wattdb_common::{Histogram, SimDuration, SimTime, TimeBuckets};
use wattdb_sim::CostProfile;
use wattdb_tpcc::TxnProfile;

/// Cluster operating phase, for Fig. 7's per-phase breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Steady state, no migration in flight.
    Normal,
    /// Rebalancing in progress.
    Rebalancing,
    /// Rebalancing with helper nodes attached (log shipping + remote
    /// buffer).
    RebalancingImproved,
}

/// Time-series and aggregate metrics for one experiment run.
#[derive(Debug)]
pub struct Metrics {
    /// Completions per bucket (throughput series, Fig. 6a).
    pub qps: TimeBuckets,
    /// Response-time samples per bucket in ms (Fig. 6b).
    pub response: TimeBuckets,
    /// Response-time distribution over the whole run.
    pub response_hist: Histogram,
    /// Per-phase cost attribution (Fig. 7).
    pub profiles: HashMap<Phase, (u64, CostProfile)>,
    /// Transactions completed.
    pub completed: u64,
    /// Completions by TPC-C profile, in modeled transactions (pooled
    /// carriers count their full weight) — the observed transaction mix.
    pub mix: HashMap<TxnProfile, u64>,
    /// Transactions aborted (before any successful retry).
    pub aborted: u64,
    /// Every completed rebalance of the run, in completion order — the
    /// planned-vs-moved heat record experiments read out.
    pub rebalances: Vec<crate::migration::RebalanceReport>,
}

impl Metrics {
    /// Metrics with the given bucket origin/width.
    pub fn new(origin: SimTime, bucket: SimDuration) -> Self {
        Self {
            qps: TimeBuckets::new(origin, bucket),
            response: TimeBuckets::new(origin, bucket),
            response_hist: Histogram::new(),
            profiles: HashMap::new(),
            completed: 0,
            mix: HashMap::new(),
            aborted: 0,
            rebalances: Vec::new(),
        }
    }

    /// Record a completion standing in for `weight` modeled transactions
    /// (1 per-client; a pooled carrier's weight otherwise): throughput
    /// counters scale by the weight, while the response-time series and
    /// the per-phase cost profile sample the one transaction that
    /// actually executed.
    pub fn record_completion_weighted(
        &mut self,
        now: SimTime,
        response: SimDuration,
        phase: Phase,
        profile: CostProfile,
        weight: u64,
    ) {
        self.completed += weight;
        self.qps.record(now, weight as f64);
        self.response.record(now, response.as_millis_f64());
        self.response_hist.record(response);
        let slot = self
            .profiles
            .entry(phase)
            .or_insert((0, CostProfile::default()));
        slot.0 += 1;
        slot.1 += profile;
    }

    /// Mean per-query cost profile for a phase (Fig. 7 bars).
    pub fn mean_profile(&self, phase: Phase) -> Option<CostProfile> {
        let (n, sum) = self.profiles.get(&phase)?;
        Some(sum.scaled_down(*n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_sim::CostCategory;

    #[test]
    fn completion_series() {
        let mut m = Metrics::new(SimTime::ZERO, SimDuration::from_secs(10));
        let mut p = CostProfile::default();
        p.record(CostCategory::DiskIo, SimDuration::from_millis(5));
        for s in [1u64, 2, 3, 15] {
            m.record_completion_weighted(
                SimTime::from_secs(s),
                SimDuration::from_millis(20),
                Phase::Normal,
                p,
                1,
            );
        }
        assert_eq!(m.completed, 4);
        assert_eq!(m.qps.count_at(SimTime::from_secs(5)), 3);
        assert_eq!(m.qps.count_at(SimTime::from_secs(15)), 1);
        assert!((m.response.mean_at(SimTime::from_secs(5)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn per_phase_profiles() {
        let mut m = Metrics::new(SimTime::ZERO, SimDuration::from_secs(1));
        let mut fast = CostProfile::default();
        fast.record(CostCategory::Cpu, SimDuration::from_millis(1));
        let mut slow = CostProfile::default();
        slow.record(CostCategory::DiskIo, SimDuration::from_millis(30));
        slow.record(CostCategory::Locking, SimDuration::from_millis(10));
        m.record_completion_weighted(
            SimTime::ZERO,
            SimDuration::from_millis(2),
            Phase::Normal,
            fast,
            1,
        );
        m.record_completion_weighted(
            SimTime::ZERO,
            SimDuration::from_millis(45),
            Phase::Rebalancing,
            slow,
            1,
        );
        m.record_completion_weighted(
            SimTime::ZERO,
            SimDuration::from_millis(45),
            Phase::Rebalancing,
            slow,
            1,
        );
        let normal = m.mean_profile(Phase::Normal).unwrap();
        let rebal = m.mean_profile(Phase::Rebalancing).unwrap();
        assert!(rebal.total() > normal.total());
        assert_eq!(
            rebal.get(CostCategory::DiskIo),
            SimDuration::from_millis(30)
        );
        assert!(m.mean_profile(Phase::RebalancingImproved).is_none());
    }
}
