//! Property tests for the energy-proportionality index — the number the
//! scorecard and the `energy_scorecard` bench gate on, so its basic
//! shape must hold for *any* observation set, not just the curated unit
//! fixtures: bounded to [0,1], order-free (it is a mean), exactly 1.0
//! on a perfectly proportional trace, and monotonically non-increasing
//! as idle (utilization-free) power is stacked on.

use proptest::prelude::*;
use wattdb_common::Watts;
use wattdb_energy::{proportionality_index_rated, UtilPower};

fn obs(pairs: &[(f64, f64)]) -> Vec<UtilPower> {
    pairs
        .iter()
        .map(|&(u, p)| UtilPower {
            utilization: u,
            power: Watts(p),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The index stays inside [0,1] for any finite observations.
    #[test]
    fn index_is_bounded(
        pairs in proptest::collection::vec((0.0f64..1.5, 0.0f64..500.0), 1..40),
        rated in 1.0f64..400.0,
    ) {
        let idx = proportionality_index_rated(&obs(&pairs), Watts(rated));
        prop_assert!((0.0..=1.0).contains(&idx), "index {idx} out of bounds");
    }

    /// The index is a mean over observations, so any permutation of the
    /// trace scores identically.
    #[test]
    fn index_is_permutation_invariant(
        pairs in proptest::collection::vec((0.0f64..1.0, 0.0f64..300.0), 2..24),
        rated in 50.0f64..400.0,
        rot in 1usize..23,
    ) {
        let o = obs(&pairs);
        let mut rotated = o.clone();
        rotated.rotate_left(rot % o.len());
        let p = Watts(rated);
        prop_assert!(
            (proportionality_index_rated(&o, p)
                - proportionality_index_rated(&rotated, p)).abs() < 1e-12
        );
    }

    /// A synthetic trace lying exactly on the ideal line `P = u · P_peak`
    /// scores exactly 1.0 under the rated form.
    #[test]
    fn proportional_trace_scores_one(
        utils in proptest::collection::vec(0.0f64..1.0, 1..32),
        rated in 10.0f64..400.0,
    ) {
        let o: Vec<UtilPower> = utils
            .iter()
            .map(|&u| UtilPower { utilization: u, power: Watts(u * rated) })
            .collect();
        let idx = proportionality_index_rated(&o, Watts(rated));
        prop_assert!((idx - 1.0).abs() < 1e-12, "ideal line scores {idx}");
    }

    /// Stacking a constant idle draw on every observation never improves
    /// the rated score, and strictly hurts once the draw exceeds the
    /// proportional allowance somewhere.
    #[test]
    fn added_idle_power_never_raises_the_score(
        pairs in proptest::collection::vec((0.0f64..1.0, 0.0f64..200.0), 1..24),
        rated in 100.0f64..400.0,
        idle_steps in proptest::collection::vec(1.0f64..40.0, 1..6),
    ) {
        let p = Watts(rated);
        let mut o = obs(&pairs);
        let mut prev = proportionality_index_rated(&o, p);
        for step in idle_steps {
            for ob in &mut o {
                ob.power = Watts(ob.power.0 + step);
            }
            let next = proportionality_index_rated(&o, p);
            prop_assert!(
                next <= prev + 1e-12,
                "idle +{step} W raised the index {prev} -> {next}"
            );
            prev = next;
        }
    }
}
