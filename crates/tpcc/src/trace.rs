//! Trace-driven load: a piecewise target-client-count over sim-time.
//!
//! The paper's whole argument is that a cluster should *track* its
//! workload — §1's energy-proportionality motivation assumes load that
//! rises and falls like a real daily cycle. A [`LoadTrace`] describes
//! such a cycle as a piecewise-constant schedule of **modeled-client
//! targets**, sampled at a fixed step: at each breakpoint the pooled
//! arrival process ([`crate::ClientPool`]) is resized to the new
//! target, so driving a trace costs a handful of resize events rather
//! than a per-client spawn storm.
//!
//! Three generators cover the evaluation scenarios:
//!
//! * [`LoadTrace::diurnal`] — a sine day: `target(t) = min +
//!   (max − min) · (1 − cos(2πt/period + phase)) / 2`, so a zero phase
//!   starts the trace in the trough (the autopilot begins small and must
//!   grow into the peak).
//! * [`LoadTrace::flash_crowd`] — a constant baseline plus one burst:
//!   linear ramp-up over `ramp`, a `hold` plateau at `baseline + extra`,
//!   linear decay over `decay`. The burst's integrated extra
//!   client-seconds are exactly `extra · (ramp/2 + hold + decay/2)`
//!   in the continuous limit — the regression test checks the sampled
//!   schedule integrates to the same volume.
//! * [`LoadTrace::tenant_mix`] — k tenants, each an independent diurnal
//!   curve with its own phase and its own hot-warehouse skew
//!   ([`TenantSpec`]), sharing one period. Tenants map to carrier
//!   groups, so their targets resize independently.
//!
//! Every breakpoint carries a phase label (`trough`/`shoulder`/`peak`
//! for the sine shapes, `baseline`/`ramp`/`burst`/`decay` for the flash
//! crowd); [`LoadTrace::phase_spans`] merges consecutive same-label
//! breakpoints into the spans the energy scorecard reports per-phase
//! Wh-per-transaction over.

use std::f64::consts::PI;

use wattdb_common::SimDuration;

use crate::client::TenantSpec;

/// One breakpoint of the schedule: from `at` (relative to trace start)
/// until the next breakpoint, tenant `i` targets `targets[i]` modeled
/// clients.
#[derive(Debug, Clone)]
pub struct TracePoint {
    /// Offset from trace start.
    pub at: SimDuration,
    /// Per-tenant modeled-client targets.
    pub targets: Vec<u64>,
    /// Phase label for scorecard grouping.
    pub phase: &'static str,
}

impl TracePoint {
    /// Total modeled clients across tenants at this breakpoint.
    pub fn total(&self) -> u64 {
        self.targets.iter().sum()
    }
}

/// Diurnal sine parameters (see [`LoadTrace::diurnal`]).
#[derive(Debug, Clone, Copy)]
pub struct DiurnalConfig {
    /// Trough target in modeled clients.
    pub min_clients: u64,
    /// Peak target in modeled clients.
    pub max_clients: u64,
    /// Length of one full cycle.
    pub period: SimDuration,
    /// Phase offset in radians (0 = start in the trough).
    pub phase: f64,
    /// Sampling step between breakpoints.
    pub step: SimDuration,
    /// Total trace length.
    pub horizon: SimDuration,
    /// Mix and homing rule of the single tenant.
    pub tenant: TenantSpec,
}

impl Default for DiurnalConfig {
    fn default() -> Self {
        Self {
            min_clients: 200,
            max_clients: 4_000,
            period: SimDuration::from_secs(180),
            phase: 0.0,
            step: SimDuration::from_secs(10),
            horizon: SimDuration::from_secs(360),
            tenant: TenantSpec::default(),
        }
    }
}

/// Flash-crowd parameters (see [`LoadTrace::flash_crowd`]).
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowdConfig {
    /// Steady load outside the burst, in modeled clients.
    pub baseline: u64,
    /// Extra modeled clients at the top of the burst.
    pub extra: u64,
    /// When the ramp-up begins.
    pub start: SimDuration,
    /// Linear ramp-up length.
    pub ramp: SimDuration,
    /// Plateau length at `baseline + extra`.
    pub hold: SimDuration,
    /// Linear decay length back to the baseline.
    pub decay: SimDuration,
    /// Sampling step between breakpoints.
    pub step: SimDuration,
    /// Total trace length.
    pub horizon: SimDuration,
    /// Mix and homing rule of the single tenant.
    pub tenant: TenantSpec,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        Self {
            baseline: 400,
            extra: 3_600,
            start: SimDuration::from_secs(60),
            ramp: SimDuration::from_secs(30),
            hold: SimDuration::from_secs(90),
            decay: SimDuration::from_secs(60),
            step: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(300),
            tenant: TenantSpec::default(),
        }
    }
}

/// One tenant's diurnal curve in a [`LoadTrace::tenant_mix`] trace.
#[derive(Debug, Clone, Copy)]
pub struct TenantLoad {
    /// Trough target in modeled clients.
    pub min_clients: u64,
    /// Peak target in modeled clients.
    pub max_clients: u64,
    /// Phase offset in radians — stagger these to de-synchronize peaks.
    pub phase: f64,
    /// Mix and homing rule (hot warehouses) of this tenant's carriers.
    pub spec: TenantSpec,
}

/// A piecewise-constant schedule of per-tenant modeled-client targets.
#[derive(Debug, Clone)]
pub struct LoadTrace {
    name: &'static str,
    step: SimDuration,
    tenants: Vec<TenantSpec>,
    points: Vec<TracePoint>,
}

/// The diurnal closed form: `min + (max − min)·(1 − cos(2πt/period +
/// phase))/2`. Public so the regression tests (and any analysis script)
/// can compare the sampled schedule against the exact curve.
pub fn diurnal_target(
    min_clients: u64,
    max_clients: u64,
    period: SimDuration,
    phase: f64,
    t: SimDuration,
) -> f64 {
    let x = 2.0 * PI * (t.as_micros() as f64 / period.as_micros().max(1) as f64) + phase;
    min_clients as f64 + (max_clients.saturating_sub(min_clients)) as f64 * (1.0 - x.cos()) / 2.0
}

/// The flash-crowd burst shape in \[0,1\]: 0 outside the burst, a linear
/// ramp over `ramp`, 1 through `hold`, a linear decay over `decay`.
pub fn flash_shape(cfg: &FlashCrowdConfig, t: SimDuration) -> f64 {
    let t = t.as_micros() as f64;
    let start = cfg.start.as_micros() as f64;
    let ramp = cfg.ramp.as_micros() as f64;
    let hold = cfg.hold.as_micros() as f64;
    let decay = cfg.decay.as_micros() as f64;
    if t < start {
        0.0
    } else if t < start + ramp {
        (t - start) / ramp.max(1.0)
    } else if t < start + ramp + hold {
        1.0
    } else if t < start + ramp + hold + decay {
        1.0 - (t - start - ramp - hold) / decay.max(1.0)
    } else {
        0.0
    }
}

/// Label a sine sample by where it sits between trough and peak.
fn sine_label(target: f64, min: f64, max: f64) -> &'static str {
    let span = (max - min).max(1e-9);
    let f = ((target - min) / span).clamp(0.0, 1.0);
    if f < 1.0 / 3.0 {
        "trough"
    } else if f < 2.0 / 3.0 {
        "shoulder"
    } else {
        "peak"
    }
}

impl LoadTrace {
    fn sample_steps(step: SimDuration, horizon: SimDuration) -> impl Iterator<Item = SimDuration> {
        let step_us = step.as_micros().max(1);
        let n = horizon.as_micros() / step_us;
        (0..n).map(move |k| SimDuration::from_micros(k * step_us))
    }

    /// A single-tenant sine day (see the module docs for the closed form).
    pub fn diurnal(cfg: DiurnalConfig) -> Self {
        assert!(
            cfg.max_clients >= cfg.min_clients && cfg.max_clients > 0,
            "diurnal trace needs 0 < min <= max clients"
        );
        let points = Self::sample_steps(cfg.step, cfg.horizon)
            .map(|at| {
                let target =
                    diurnal_target(cfg.min_clients, cfg.max_clients, cfg.period, cfg.phase, at);
                TracePoint {
                    at,
                    targets: vec![target.round() as u64],
                    phase: sine_label(target, cfg.min_clients as f64, cfg.max_clients as f64),
                }
            })
            .collect();
        Self {
            name: "diurnal",
            step: cfg.step,
            tenants: vec![cfg.tenant],
            points,
        }
    }

    /// A single-tenant baseline plus one ramp/hold/decay burst.
    pub fn flash_crowd(cfg: FlashCrowdConfig) -> Self {
        assert!(cfg.baseline > 0, "flash-crowd trace needs a baseline load");
        let points = Self::sample_steps(cfg.step, cfg.horizon)
            .map(|at| {
                let target = cfg.baseline as f64 + cfg.extra as f64 * flash_shape(&cfg, at);
                let phase = if at < cfg.start || at >= cfg.start + cfg.ramp + cfg.hold + cfg.decay {
                    "baseline"
                } else if at < cfg.start + cfg.ramp {
                    "ramp"
                } else if at < cfg.start + cfg.ramp + cfg.hold {
                    "burst"
                } else {
                    "decay"
                };
                TracePoint {
                    at,
                    targets: vec![target.round() as u64],
                    phase,
                }
            })
            .collect();
        Self {
            name: "flash-crowd",
            step: cfg.step,
            tenants: vec![cfg.tenant],
            points,
        }
    }

    /// k tenants, each an independent diurnal curve (own phase, own hot
    /// warehouses) over a shared `period`. Phase labels follow the
    /// *total* load across tenants.
    pub fn tenant_mix(
        period: SimDuration,
        step: SimDuration,
        horizon: SimDuration,
        tenants: &[TenantLoad],
    ) -> Self {
        assert!(!tenants.is_empty(), "tenant mix needs at least one tenant");
        let mut points: Vec<TracePoint> = Self::sample_steps(step, horizon)
            .map(|at| {
                let targets: Vec<u64> = tenants
                    .iter()
                    .map(|t| {
                        diurnal_target(t.min_clients, t.max_clients, period, t.phase, at).round()
                            as u64
                    })
                    .collect();
                TracePoint {
                    at,
                    targets,
                    phase: "shoulder", // relabelled below from the totals
                }
            })
            .collect();
        let totals: Vec<f64> = points.iter().map(|p| p.total() as f64).collect();
        let min = totals.iter().copied().fold(f64::MAX, f64::min);
        let max = totals.iter().copied().fold(f64::MIN, f64::max);
        for (p, &total) in points.iter_mut().zip(&totals) {
            p.phase = sine_label(total, min, max);
        }
        Self {
            name: "tenant-mix",
            step,
            tenants: tenants.iter().map(|t| t.spec).collect(),
            points,
        }
    }

    /// Generator name (`diurnal` / `flash-crowd` / `tenant-mix`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sampling step between breakpoints.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Total trace length (last breakpoint plus one step).
    pub fn horizon(&self) -> SimDuration {
        self.points
            .last()
            .map(|p| p.at + self.step)
            .unwrap_or(SimDuration::ZERO)
    }

    /// The breakpoint schedule, in time order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Per-tenant mixes and homing rules, index-aligned with every
    /// breakpoint's `targets`.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Tenant `i`'s highest target across the trace — the carrier-group
    /// capacity the pool must provision.
    pub fn tenant_peak(&self, i: usize) -> u64 {
        self.points
            .iter()
            .map(|p| p.targets.get(i).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Highest total target across the trace.
    pub fn total_peak(&self) -> u64 {
        self.points.iter().map(|p| p.total()).max().unwrap_or(0)
    }

    /// Total target in force at offset `t` (piecewise-constant lookup).
    pub fn total_at(&self, t: SimDuration) -> u64 {
        self.points
            .iter()
            .rev()
            .find(|p| p.at <= t)
            .map(|p| p.total())
            .unwrap_or(0)
    }

    /// Consecutive same-label breakpoints merged into `(label, start,
    /// end)` spans covering the whole horizon — what the scorecard
    /// reports per-phase Wh-per-transaction over.
    pub fn phase_spans(&self) -> Vec<(&'static str, SimDuration, SimDuration)> {
        let mut spans: Vec<(&'static str, SimDuration, SimDuration)> = Vec::new();
        for p in &self.points {
            match spans.last_mut() {
                Some((label, _, end)) if *label == p.phase => *end = p.at + self.step,
                _ => spans.push((p.phase, p.at, p.at + self.step)),
            }
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_schedule_matches_the_closed_form_sine() {
        let cfg = DiurnalConfig {
            min_clients: 100,
            max_clients: 2_000,
            period: SimDuration::from_secs(120),
            phase: 0.7,
            step: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(240),
            ..Default::default()
        };
        let trace = LoadTrace::diurnal(cfg);
        assert_eq!(trace.points().len(), 48);
        for p in trace.points() {
            let exact = diurnal_target(100, 2_000, cfg.period, cfg.phase, p.at);
            assert!(
                (p.targets[0] as f64 - exact).abs() <= 0.5,
                "breakpoint at {:?}: target {} vs closed form {exact}",
                p.at,
                p.targets[0]
            );
            assert!((100..=2_000).contains(&p.targets[0]));
        }
        // Zero phase starts in the trough; a half period later is the peak.
        let t0 = LoadTrace::diurnal(DiurnalConfig { phase: 0.0, ..cfg });
        assert_eq!(t0.points()[0].targets[0], 100);
        assert_eq!(t0.total_at(SimDuration::from_secs(60)), 2_000);
    }

    #[test]
    fn flash_crowd_burst_integrates_to_the_configured_extra_volume() {
        let cfg = FlashCrowdConfig {
            baseline: 500,
            extra: 4_000,
            start: SimDuration::from_secs(60),
            ramp: SimDuration::from_secs(30),
            hold: SimDuration::from_secs(60),
            decay: SimDuration::from_secs(60),
            step: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(300),
            ..Default::default()
        };
        let trace = LoadTrace::flash_crowd(cfg);
        // Left-Riemann integral of (target − baseline) over the schedule,
        // in client-seconds. The ramp undercounts by the same triangle the
        // decay overcounts, so the discrete sum equals the continuous
        // integral extra·(ramp/2 + hold + decay/2) up to rounding.
        let step_s = cfg.step.as_secs_f64();
        let measured: f64 = trace
            .points()
            .iter()
            .map(|p| (p.targets[0].saturating_sub(cfg.baseline)) as f64 * step_s)
            .sum();
        let expected = cfg.extra as f64
            * (cfg.ramp.as_secs_f64() / 2.0
                + cfg.hold.as_secs_f64()
                + cfg.decay.as_secs_f64() / 2.0);
        let tolerance = cfg.extra as f64 * step_s; // one step of slack
        assert!(
            (measured - expected).abs() <= tolerance,
            "burst volume {measured} client-s vs configured {expected} client-s"
        );
        // Outside the burst the load sits exactly on the baseline.
        assert_eq!(trace.points()[0].targets[0], cfg.baseline);
        assert_eq!(trace.points()[0].phase, "baseline");
        assert_eq!(
            trace.total_at(SimDuration::from_secs(120)),
            cfg.baseline + cfg.extra
        );
    }

    #[test]
    fn tenant_phases_are_independent() {
        let tenant = |phase: f64, hot_first: u32| TenantLoad {
            min_clients: 100,
            max_clients: 1_000,
            phase,
            spec: TenantSpec {
                hot_fraction: 0.8,
                hot_first,
                ..TenantSpec::default()
            },
        };
        let period = SimDuration::from_secs(120);
        let step = SimDuration::from_secs(10);
        let horizon = SimDuration::from_secs(240);
        let a = LoadTrace::tenant_mix(period, step, horizon, &[tenant(0.0, 0), tenant(2.0, 1)]);
        let b = LoadTrace::tenant_mix(period, step, horizon, &[tenant(0.0, 0), tenant(4.0, 1)]);
        let col = |t: &LoadTrace, i: usize| -> Vec<u64> {
            t.points().iter().map(|p| p.targets[i]).collect()
        };
        // Shifting tenant 1's phase must not move tenant 0's curve at all.
        assert_eq!(col(&a, 0), col(&b, 0), "tenant 0 unaffected");
        assert_ne!(col(&a, 1), col(&b, 1), "tenant 1 shifted");
        assert_eq!(a.tenants().len(), 2);
        assert_eq!(a.tenant_peak(0), 1_000);
    }

    #[test]
    fn phase_spans_tile_the_horizon() {
        let trace = LoadTrace::diurnal(DiurnalConfig::default());
        let spans = trace.phase_spans();
        assert!(!spans.is_empty());
        assert_eq!(spans[0].1, SimDuration::ZERO);
        assert_eq!(spans.last().unwrap().2, trace.horizon());
        for w in spans.windows(2) {
            assert_eq!(w[0].2, w[1].1, "spans are contiguous");
            assert_ne!(w[0].0, w[1].0, "adjacent spans have distinct labels");
        }
        let labels: std::collections::BTreeSet<_> = spans.iter().map(|s| s.0).collect();
        for l in labels {
            assert!(["trough", "shoulder", "peak"].contains(&l));
        }
    }
}
