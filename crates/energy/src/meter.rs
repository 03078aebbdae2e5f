//! Energy metering: integrating cluster power over virtual time.
//!
//! The meter is fed a power sample per interval (like the wall-socket meter
//! in the paper's testbed) and accumulates Joules; per-interval Watt
//! readings come out the other side — the power series behind Fig. 6c/d
//! and 8c/d (`WattDb::timeseries` divides it by its own per-bucket
//! completions for J/query).

use wattdb_common::{Joules, SimTime, Watts};

/// One reading in the power time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Start of the sampled interval.
    pub at: SimTime,
    /// Mean power draw during the interval.
    pub power: Watts,
}

/// Accumulates power samples into total energy plus a time series.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    last_sample_at: SimTime,
    total: Joules,
    series: Vec<PowerSample>,
}

impl EnergyMeter {
    /// A meter starting at `t0`.
    pub fn new(t0: SimTime) -> Self {
        Self {
            last_sample_at: t0,
            total: Joules::ZERO,
            series: Vec::new(),
        }
    }

    /// Record that the cluster drew (on average) `power` from the previous
    /// sample time up to `now`.
    pub fn sample(&mut self, now: SimTime, power: Watts) {
        let width = now.since(self.last_sample_at);
        self.total += power.over(width);
        self.series.push(PowerSample {
            at: self.last_sample_at,
            power,
        });
        self.last_sample_at = now;
    }

    /// Total energy consumed so far.
    pub fn total_energy(&self) -> Joules {
        self.total
    }

    /// The recorded series.
    pub fn series(&self) -> &[PowerSample] {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_power_integration() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        // 100 W for 10 s, sampled each second = 1000 J.
        for s in 1..=10 {
            m.sample(SimTime::from_secs(s), Watts(100.0));
        }
        assert!((m.total_energy().0 - 1000.0).abs() < 1e-9);
        assert_eq!(m.series().len(), 10);
    }

    #[test]
    fn varying_power() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.sample(SimTime::from_secs(2), Watts(50.0)); // 100 J
        m.sample(SimTime::from_secs(3), Watts(200.0)); // 200 J
        assert!((m.total_energy().0 - 300.0).abs() < 1e-9);
        assert_eq!(m.series().len(), 2);
        assert_eq!(m.series()[0].at, SimTime::ZERO);
        assert_eq!(m.series()[1].at, SimTime::from_secs(2));
    }

    #[test]
    fn empty_meter() {
        let m = EnergyMeter::new(SimTime::from_secs(5));
        assert_eq!(m.total_energy(), Joules::ZERO);
        assert!(m.series().is_empty());
    }
}
