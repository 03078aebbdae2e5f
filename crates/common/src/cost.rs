//! Cost vectors and their scalarization into [`Heat`]: the unified query
//! cost model behind cost-based heat.
//!
//! Arsov et al. (PAPERS.md) show that partition planning on optimizer
//! *cost estimates* beats planning on raw access frequency: a CPU-heavy
//! aggregation over a segment should weigh far more than a point read
//! that happens to touch the same segment once. WattDB-RS therefore
//! accounts every access as a [`CostVector`] — core CPU time, buffer-pool
//! page touches, and bytes over the interconnect — and a [`CostModel`]
//! scalarizes that vector into the dimensionless [`Heat`] unit the
//! planner already consumes. The vector is the common currency between
//! the query crate's `CostTrace` (whole-operator demands) and the core
//! executor's per-operation accounting, so both layers feed one model.
//!
//! With no cost model configured, heat falls back to the original flat
//! per-access weights (`wattdb_core::heat::READ_WEIGHT` and its
//! siblings), byte-for-byte identical to the pre-cost behaviour.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::heat::Heat;
use crate::time::SimDuration;

/// The hardware demand of one access or one operator, in physical units.
/// Dimensions follow the query engine's `CostTrace`: compute, buffer-pool
/// page traffic, and interconnect bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostVector {
    /// Core CPU time consumed.
    pub cpu: SimDuration,
    /// Pages touched through the buffer pool (hits and misses alike —
    /// the page traffic the access generates, not its residency luck).
    pub pages: u64,
    /// Bytes shipped over the interconnect on the access's behalf
    /// (remote page fetches, record shipping).
    pub net_bytes: u64,
}

impl CostVector {
    /// No demand at all.
    pub const ZERO: CostVector = CostVector {
        cpu: SimDuration::ZERO,
        pages: 0,
        net_bytes: 0,
    };

    /// A pure-CPU demand.
    #[inline]
    pub fn cpu(d: SimDuration) -> CostVector {
        CostVector {
            cpu: d,
            ..CostVector::ZERO
        }
    }

    /// True when nothing was demanded.
    #[inline]
    pub fn is_zero(&self) -> bool {
        *self == CostVector::ZERO
    }
}

impl Add for CostVector {
    type Output = CostVector;
    #[inline]
    fn add(self, rhs: CostVector) -> CostVector {
        CostVector {
            cpu: self.cpu + rhs.cpu,
            pages: self.pages + rhs.pages,
            net_bytes: self.net_bytes + rhs.net_bytes,
        }
    }
}

impl AddAssign for CostVector {
    #[inline]
    fn add_assign(&mut self, rhs: CostVector) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}µs/{}pg/{}B",
            self.cpu.as_micros(),
            self.pages,
            self.net_bytes
        )
    }
}

/// Scalarization weights turning a [`CostVector`] into [`Heat`]:
/// `heat = cpu_µs · cpu_weight + pages · page_weight + bytes · net_byte_weight`.
///
/// The defaults are calibrated against the flat count-heat weights
/// (`wattdb_core::heat::{READ_WEIGHT, WRITE_WEIGHT, REMOTE_WEIGHT}`) so
/// that cost-based heat lands in the same magnitude band as count heat:
/// a default-cost point read scalarizes to ≈ the read weight (1.0), an
/// update to ≈ the write weight (2.0), and one remote page fetch (8 KiB +
/// envelope) to ≈ the remote surcharge (1.0). What changes is everything
/// the flat weights could not see: a 2 000-record scan with an
/// aggregation is now worth hundreds of heat units instead of the single
/// access count it used to be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Heat per core-microsecond of CPU.
    pub cpu_weight: f64,
    /// Heat per page touched through the buffer pool.
    pub page_weight: f64,
    /// Heat per byte shipped over the interconnect.
    pub net_byte_weight: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            // A default-cost point read burns ~12 core-µs (index descent,
            // latches, record read, buffer bookkeeping): 12 × 1/12 ≈ 1.0.
            cpu_weight: 1.0 / 12.0,
            page_weight: 0.05,
            // One remote page fetch ships PAGE_SIZE + envelope ≈ 8 KiB.
            net_byte_weight: 1.0 / 8192.0,
        }
    }
}

impl CostModel {
    /// Scalarize a cost vector into heat.
    #[inline]
    pub fn heat_of(&self, v: CostVector) -> Heat {
        Heat(
            v.cpu.as_micros() as f64 * self.cpu_weight
                + v.pages as f64 * self.page_weight
                + v.net_bytes as f64 * self.net_byte_weight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_accumulate_componentwise() {
        let mut v = CostVector::ZERO;
        assert!(v.is_zero());
        v += CostVector {
            cpu: SimDuration::from_micros(10),
            pages: 2,
            net_bytes: 100,
        };
        v += CostVector::cpu(SimDuration::from_micros(5));
        assert_eq!(v.cpu, SimDuration::from_micros(15));
        assert_eq!((v.pages, v.net_bytes), (2, 100));
        assert!(!v.is_zero());
        assert_eq!(v.to_string(), "15µs/2pg/100B");
    }

    #[test]
    fn scalarization_is_linear() {
        let m = CostModel {
            cpu_weight: 0.5,
            page_weight: 2.0,
            net_byte_weight: 0.001,
        };
        let v = CostVector {
            cpu: SimDuration::from_micros(10),
            pages: 3,
            net_bytes: 1000,
        };
        let h = m.heat_of(v).value();
        assert!((h - (5.0 + 6.0 + 1.0)).abs() < 1e-9, "{h}");
        let double = m.heat_of(v + v).value();
        assert!((double - 2.0 * h).abs() < 1e-9);
        assert_eq!(m.heat_of(CostVector::ZERO).value(), 0.0);
    }

    #[test]
    fn defaults_calibrate_to_the_legacy_flat_weights() {
        let m = CostModel::default();
        // A point read's CPU (≈12 µs on the default CostParams) lands near
        // the count-heat read weight of 1.0.
        let read = m.heat_of(CostVector::cpu(SimDuration::from_micros(12)));
        assert!((read.value() - 1.0).abs() < 0.05, "{read}");
        // An update (≈22–24 µs) lands near the count-heat write weight of 2.0.
        let write = m.heat_of(CostVector::cpu(SimDuration::from_micros(24)));
        assert!((write.value() - 2.0).abs() < 0.1, "{write}");
        // One remote page fetch lands near the count-heat remote surcharge
        // of 1.0.
        let remote = m.heat_of(CostVector {
            cpu: SimDuration::ZERO,
            pages: 0,
            net_bytes: 8192 + 64,
        });
        assert!((remote.value() - 1.0).abs() < 0.05, "{remote}");
    }
}
