//! Heat: the access-frequency unit behind workload-aware placement.
//!
//! The paper's master "checks the incoming performance data [...] and
//! decides where to distribute data" (§3.4). Raw access counts are a poor
//! distribution signal — a segment hammered an hour ago is not hot *now* —
//! so WattDB-RS tracks per-segment **heat**: a weighted access count that
//! decays exponentially in *simulated* time. Each access adds what it
//! cost (or, with cost tracing off, a fixed weight per read, write and
//! remote page fetch); the half-life controls how fast history fades.
//! The heat planner (`wattdb_planner`) consumes these values to balance
//! load while minimizing bytes shipped.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::time::SimDuration;

/// A quantity of access heat: an exponentially decayed, weighted access
/// count. Dimensionless; only ratios and orderings between heats matter.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Heat(pub f64);

impl Heat {
    /// No heat at all.
    pub const ZERO: Heat = Heat(0.0);

    /// Raw value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// This heat after `elapsed` of exponential decay with the given
    /// half-life: `h · 2^(−elapsed/half_life)`. A zero half-life disables
    /// decay (heat becomes a plain weighted counter).
    #[inline]
    pub fn decayed(self, elapsed: SimDuration, half_life: SimDuration) -> Heat {
        if half_life.as_micros() == 0 || elapsed.as_micros() == 0 {
            return self;
        }
        let halves = elapsed.as_micros() as f64 / half_life.as_micros() as f64;
        Heat(self.0 * (-halves).exp2())
    }
}

impl Add for Heat {
    type Output = Heat;
    #[inline]
    fn add(self, rhs: Heat) -> Heat {
        Heat(self.0 + rhs.0)
    }
}

impl AddAssign for Heat {
    #[inline]
    fn add_assign(&mut self, rhs: Heat) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Heat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

/// Configuration of the heat tracker: decay horizon and the velocity
/// EWMA behind projected-heat planning.
#[derive(Debug, Clone, Copy)]
pub struct HeatConfig {
    /// Half-life of the exponential decay, in simulated time. Accesses
    /// older than a few half-lives stop influencing placement. Zero
    /// disables decay.
    pub half_life: SimDuration,
    /// Half-life of the per-segment heat-velocity EWMA (heat units per
    /// second, folded in once per monitoring window): how much history a
    /// velocity estimate remembers. Shorter adapts faster to direction
    /// changes but is noisier; zero makes every window replace the
    /// estimate outright.
    pub velocity_half_life: SimDuration,
    /// Projection horizon: the planner plans against
    /// `max(0, heat + velocity × horizon)` instead of raw heat, so a
    /// moving hotspot is planned where it is going. Zero plans on
    /// historical heat.
    pub horizon: SimDuration,
}

impl Default for HeatConfig {
    fn default() -> Self {
        Self {
            half_life: SimDuration::from_secs(30),
            velocity_half_life: SimDuration::from_secs(15),
            horizon: SimDuration::from_secs(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_halves_per_half_life() {
        let h = Heat(8.0);
        let hl = SimDuration::from_secs(10);
        let d = h.decayed(SimDuration::from_secs(10), hl);
        assert!((d.value() - 4.0).abs() < 1e-9, "{d}");
        let d3 = h.decayed(SimDuration::from_secs(30), hl);
        assert!((d3.value() - 1.0).abs() < 1e-9, "{d3}");
    }

    #[test]
    fn zero_half_life_disables_decay() {
        let h = Heat(5.0);
        let d = h.decayed(SimDuration::from_secs(1000), SimDuration::ZERO);
        assert_eq!(d.value(), 5.0);
    }

    #[test]
    fn heat_accumulates() {
        let mut h = Heat::ZERO;
        h += Heat(1.5);
        let sum = h + Heat(0.5);
        assert_eq!(sum.value(), 2.0);
        assert_eq!(sum.to_string(), "2.00");
    }
}
