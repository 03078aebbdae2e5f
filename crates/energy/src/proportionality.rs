//! Energy-proportionality metrics.
//!
//! The paper's motivation (§1, citing Barroso & Hölzle) is that single
//! servers draw ~50 % of peak power at idle and hence are far from energy
//! proportional. This module quantifies that: given (utilization, power)
//! observations and the deployment's rated peak, it computes how close a
//! system tracks the ideal `P(u) = u · P_peak` line.

use wattdb_common::Watts;

/// One observation: system-level utilization and the power drawn there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilPower {
    /// Utilization in \[0,1\].
    pub utilization: f64,
    /// Observed power.
    pub power: Watts,
}

/// Energy-proportionality index against a **rated** peak power.
///
/// Defined as `1 - mean(excess)`, where `excess` at each observation is
/// the power drawn beyond proportional, normalized by the rated peak:
/// `(P(u) - u·P_peak) / P_peak`. A perfectly proportional system scores
/// 1.0; a system drawing peak power at idle scores ~0.
///
/// `p_peak` should be the deployment's *rated* peak — every node active
/// at full utilization — not the highest power the trace happened to
/// observe. An observed peak is a trace-dependent yardstick: the same
/// power curve scores differently depending on whether the trace
/// captured a full-load moment, and two runs on the same hardware
/// (autopilot vs. a static baseline) are graded against different ideal
/// lines. The rated form pins the yardstick to the deployment's
/// capacity, making scores comparable across runs.
pub fn proportionality_index_rated(observations: &[UtilPower], p_peak: Watts) -> f64 {
    let peak = p_peak.0;
    if observations.is_empty() || !peak.is_finite() || peak <= 0.0 {
        return 0.0;
    }
    let mean_excess: f64 = observations
        .iter()
        .map(|o| ((o.power.0 - o.utilization.clamp(0.0, 1.0) * peak) / peak).max(0.0))
        .sum::<f64>()
        / observations.len() as f64;
    (1.0 - mean_excess).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(pairs: &[(f64, f64)]) -> Vec<UtilPower> {
        pairs
            .iter()
            .map(|&(u, p)| UtilPower {
                utilization: u,
                power: Watts(p),
            })
            .collect()
    }

    #[test]
    fn perfectly_proportional_scores_one() {
        let o = obs(&[(0.0, 0.0), (0.25, 25.0), (0.5, 50.0), (1.0, 100.0)]);
        assert!((proportionality_index_rated(&o, Watts(100.0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_power_scores_low() {
        // Draws peak power regardless of utilization.
        let o = obs(&[(0.0, 100.0), (0.5, 100.0), (1.0, 100.0)]);
        let idx = proportionality_index_rated(&o, Watts(100.0));
        assert!(idx < 0.6, "flat curve should score poorly, got {idx}");
    }

    #[test]
    fn single_server_vs_cluster_shape() {
        // Single brawny server: 50 % at idle (the paper's motivation).
        let server = obs(&[(0.0, 50.0), (0.5, 75.0), (1.0, 100.0)]);
        // Node-deactivating cluster: near-proportional steps.
        let cluster = obs(&[(0.0, 12.0), (0.5, 55.0), (1.0, 100.0)]);
        let peak = Watts(100.0);
        assert!(
            proportionality_index_rated(&cluster, peak)
                > proportionality_index_rated(&server, peak)
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(proportionality_index_rated(&[], Watts(100.0)), 0.0);
        assert_eq!(
            proportionality_index_rated(&obs(&[(0.5, 50.0)]), Watts(0.0)),
            0.0
        );
    }

    #[test]
    fn rated_peak_fixes_the_yardstick_across_runs() {
        // The same near-proportional power curve, once captured through
        // its full-load moment and once truncated before it: against the
        // rated peak both runs score almost identically.
        let full = obs(&[(0.1, 30.0), (0.5, 100.0), (1.0, 200.0)]);
        let partial = obs(&[(0.1, 30.0), (0.5, 100.0)]);
        let rated = Watts(200.0);
        let r_full = proportionality_index_rated(&full, rated);
        let r_partial = proportionality_index_rated(&partial, rated);
        assert!(
            (r_full - r_partial).abs() < 0.03,
            "rated yardstick stable: {r_full} vs {r_partial}"
        );
    }
}
