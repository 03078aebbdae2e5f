//! Property tests for the heat-aware planner: conservation, target
//! discipline, the balance-tolerance bound, and the byte envelope against
//! the fraction heuristic the engine runs.

use std::collections::BTreeSet;

use proptest::prelude::*;
use wattdb_common::{Key, KeyRange, NodeId, SegmentId, TableId};
use wattdb_planner::{
    plan_drain_replicated, plan_fraction, plan_scale_out, SegmentStat, SCALE_OUT_TOLERANCE,
};

/// Build one segment per heat entry, laid out in key order on `node`.
fn stats_on(heats: &[f64], node: u16, bytes: u64, seg_base: u64) -> Vec<SegmentStat> {
    heats
        .iter()
        .enumerate()
        .map(|(i, &heat)| {
            let id = seg_base + i as u64;
            SegmentStat {
                seg: SegmentId(id),
                table: TableId(1),
                range: KeyRange::new(Key(id * 1000), Key(id * 1000 + 1000)),
                node: NodeId(node),
                bytes,
                heat,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every move relocates an existing segment exactly once, from the
    /// node that holds it, onto a target — never onto a source.
    #[test]
    fn scale_out_conserves_segments_and_never_targets_a_source(
        heats in proptest::collection::vec(0.0f64..100.0, 1..24),
        n_sources in 1usize..4,
        n_targets in 1usize..3,
    ) {
        // Spread the segments round-robin over the sources.
        let mut stats = Vec::new();
        for (i, &h) in heats.iter().enumerate() {
            let node = (i % n_sources) as u16;
            stats.extend(stats_on(&[h], node, 100, i as u64));
        }
        let sources: Vec<NodeId> = (0..n_sources as u16).map(NodeId).collect();
        let targets: Vec<NodeId> =
            (10..10 + n_targets as u16).map(NodeId).collect();
        let plan = plan_scale_out(&stats, &sources, &targets);

        let mut seen = BTreeSet::new();
        for m in &plan.moves {
            prop_assert!(seen.insert(m.seg), "segment moved twice: {m:?}");
            let stat = stats.iter().find(|s| s.seg == m.seg);
            prop_assert!(stat.is_some(), "planned a segment that does not exist");
            prop_assert_eq!(stat.unwrap().node, m.from, "move originates at the holder");
            prop_assert!(targets.contains(&m.to), "destination must be a target");
            prop_assert!(!sources.contains(&m.to), "never target a source");
        }
        // Heat is conserved across the predicted placement.
        let total: f64 = heats.iter().sum();
        let predicted: f64 = plan.predicted.values().sum();
        prop_assert!((total - predicted).abs() < 1e-6,
            "heat conserved: {total} vs {predicted}");
        // The plan never makes the hottest node hotter.
        prop_assert!(plan.predicted_max_heat() <= plan.initial_max_heat + 1e-9);
    }

    /// With a fresh (empty) target, the predicted maximum respects the
    /// classic greedy bound: mean × (1 + tolerance) + hottest segment.
    #[test]
    fn scale_out_respects_the_tolerance_bound(
        heats in proptest::collection::vec(0.0f64..100.0, 1..24),
    ) {
        let tol = SCALE_OUT_TOLERANCE;
        let stats = stats_on(&heats, 0, 100, 0);
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)]);
        let total: f64 = heats.iter().sum();
        let mean = total / 2.0;
        let hottest = heats.iter().copied().fold(0.0, f64::max);
        prop_assert!(
            plan.predicted_max_heat() <= mean * (1.0 + tol) + hottest + 1e-6,
            "max {} vs bound {} (mean {mean}, hottest {hottest}, tol {tol})",
            plan.predicted_max_heat(),
            mean * (1.0 + tol) + hottest
        );
    }

    /// For the same balance goal on uniform-size segments (the paper's
    /// fixed 32 MB segments), the heat-aware plan never ships more bytes
    /// than the fraction plan — and achieves a max heat at least as
    /// good.
    #[test]
    fn scale_out_ships_no_more_bytes_than_fraction(
        heats in proptest::collection::vec(0.0f64..100.0, 1..24),
    ) {
        let stats = stats_on(&heats, 0, 4096, 0);
        let heat_plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)]);
        let frac_plan = plan_fraction(&stats, 0.5, &[NodeId(0)], &[NodeId(1)]);
        prop_assert!(
            heat_plan.bytes_planned <= frac_plan.bytes_planned,
            "heat {} > fraction {} bytes for heats {heats:?}",
            heat_plan.bytes_planned,
            frac_plan.bytes_planned
        );
        // (Greedy hottest-first can occasionally tie or narrowly lose the
        // *balance* race to a lucky fraction subset — e.g. heats
        // [6,5,6,5] — so balance superiority is asserted only for skewed
        // workloads, in the deterministic tests.)
    }

    /// A drain plan evacuates every segment of the drained nodes, exactly
    /// once, onto surviving nodes only.
    #[test]
    fn drain_evacuates_everything(
        heats in proptest::collection::vec(0.0f64..100.0, 1..24),
        survivor_heats in proptest::collection::vec(0.0f64..100.0, 1..8),
    ) {
        let mut stats = stats_on(&heats, 9, 100, 0);
        stats.extend(stats_on(&survivor_heats, 1, 100, 1000));
        let plan = plan_drain_replicated(
            &stats,
            &[NodeId(9)],
            &[NodeId(1), NodeId(2)],
            &[],
            &[],
            0,
        )
        .plan;
        prop_assert_eq!(plan.moves.len(), heats.len(), "every evacuee planned");
        let mut seen = BTreeSet::new();
        for m in &plan.moves {
            prop_assert!(seen.insert(m.seg));
            prop_assert_eq!(m.from, NodeId(9));
            prop_assert!(m.to == NodeId(1) || m.to == NodeId(2));
        }
        prop_assert!(
            plan.predicted[&NodeId(9)].abs() < 1e-6,
            "drained node ends cold: {}",
            plan.predicted[&NodeId(9)]
        );
    }
}
