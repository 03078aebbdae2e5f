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

/// Configuration of the helper-escalation response (Fig. 8 helper nodes
/// as an elasticity decision).
///
/// Shipping segments answers *stationary* skew: the bytes buy a balance
/// that lasts. When the skew is **transient** — the skew trigger keeps
/// re-firing the moment its cooldown expires because the last rebalance
/// did not make the skew subside — moving data chases a hotspot that will
/// have moved on by the time the copy lands. The cheaper response
/// (DynaHash's principle, and the paper's Fig. 8) is to *attach a helper*
/// to the hot source: the helper takes the source's log shipping and
/// extends its buffer pool, relieving its disks and its remote traffic
/// without shipping a single segment. Helpers detach again once the skew
/// subsides. Which sources get a helper, and which node helps each, is
/// the helper planner's choice (`wattdb_planner::plan_helpers`); one plan
/// attaches at most `wattdb_planner::MAX_HELPERS` (2).
#[derive(Debug, Clone, Copy)]
pub struct HelperPolicyConfig {
    /// Consecutive skew-trigger fires *without an intervening subsidence*
    /// (skew never fell back below the rearm band between them) after
    /// which the policy escalates from `Rebalance` to `AttachHelpers`.
    /// `1` attaches helpers on the first fire (a helpers-first response
    /// for workloads known to be transient); `0` disables helper
    /// escalation entirely (the pre-helper behaviour: every skew fire
    /// rebalances).
    pub escalation_fires: u32,
    /// Net-heat floor: a source whose net/remote-heavy heat component sits
    /// below this is not worth a helper (its pain is not remote traffic).
    pub min_net_heat: f64,
}

impl Default for HelperPolicyConfig {
    fn default() -> Self {
        Self {
            // A rebalance gets one chance; if the skew re-fires without
            // ever subsiding, the second fire attaches helpers instead.
            escalation_fires: 2,
            min_net_heat: 0.0,
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
