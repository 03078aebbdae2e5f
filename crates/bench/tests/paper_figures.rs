//! The paper's figure claims as assertions.
//!
//! The `fig*` bench targets print the series the paper's figures plot and
//! assert nothing, so a simplification could silently un-reproduce the
//! paper. This file pins each figure's *qualitative* claim — which scheme
//! wins, which cost category grows, where the crossover falls — at the
//! harness constants. Seeds are fixed and the simulator is deterministic,
//! so the margins below are for readability, not for noise; the measured
//! value is quoted next to each bound.
//!
//! Release only (≈ 20 s; minutes in debug):
//! `cargo test --release -p wattdb-bench --test paper_figures`.
//!
//! One claim of the paper does *not* reproduce and is deliberately not
//! pinned: "logging takes significantly longer while rebalancing"
//! (Fig. 7). See "Known deviations" in `docs/benchmarks.md`.

use std::sync::OnceLock;

use wattdb_bench::{fig3_run, run_scheme_experiment, SeriesRow};
use wattdb_core::cluster::Scheme;
use wattdb_core::metrics::Phase;
use wattdb_sim::{CostCategory, CostProfile};
use wattdb_txn::CcMode;

/// What the assertions read off one §5.1 run (the run itself holds `Rc`s
/// and cannot be shared between test threads).
struct Run {
    series: Vec<SeriesRow>,
    completed: u64,
    rebalance_secs: Option<f64>,
    normal: Option<CostProfile>,
    rebalancing: Option<CostProfile>,
    improved: Option<CostProfile>,
}

/// The §5.1 experiment at the harness constants, run once per variant and
/// shared by the figures that plot it.
fn run(scheme: Scheme, helpers: bool) -> &'static Run {
    static RUNS: [OnceLock<Run>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let slot = match (scheme, helpers) {
        (Scheme::Physical, false) => 0,
        (Scheme::Logical, false) => 1,
        (Scheme::Physiological, false) => 2,
        (Scheme::Physiological, true) => 3,
        other => panic!("no figure plots {other:?}"),
    };
    RUNS[slot].get_or_init(|| {
        let r = run_scheme_experiment(scheme, helpers);
        let profile = |phase| r.db.with_cluster(|c| c.metrics.mean_profile(phase));
        Run {
            completed: r.completed,
            rebalance_secs: r.rebalance_secs,
            normal: profile(Phase::Normal),
            rebalancing: profile(Phase::Rebalancing),
            improved: profile(Phase::RebalancingImproved),
            series: r.series,
        }
    })
}

/// Mean of `value` over the buckets whose time relative to the rebalance
/// trigger lies in `[from, to)`.
fn mean_over(run: &Run, from: f64, to: f64, value: fn(&SeriesRow) -> f64) -> f64 {
    let rows: Vec<f64> = run
        .series
        .iter()
        .filter(|r| r.t_rel >= from && r.t_rel < to)
        .map(value)
        .collect();
    assert!(!rows.is_empty(), "no buckets in [{from}, {to})");
    rows.iter().sum::<f64>() / rows.len() as f64
}

/// Mean qps over the last 8 buckets relative to the pre-rebalance mean.
fn recovery(run: &Run) -> f64 {
    let before = mean_over(run, f64::MIN, 0.0, |r| r.qps);
    let tail = &run.series[run.series.len() - 8..];
    tail.iter().map(|r| r.qps).sum::<f64>() / 8.0 / before
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig6_physiological_recovers_fastest_and_ends_best() {
    let physical = run(Scheme::Physical, false);
    let logical = run(Scheme::Logical, false);
    let physiological = run(Scheme::Physiological, false);
    // Scheme ordering by committed work: 70 353 > 62 338 > 61 961.
    assert!(
        physiological.completed > physical.completed && physical.completed > logical.completed,
        "completed: physiological {} physical {} logical {}",
        physiological.completed,
        physical.completed,
        logical.completed
    );
    // Physiological ends well above its old level (365.0 vs 293.4 qps,
    // 1.24×); physical "never recovers beyond its old level" (1.002×);
    // logical is still below it when the window closes (0.963×).
    let (p, ph, l) = (
        recovery(physiological),
        recovery(physical),
        recovery(logical),
    );
    assert!(p >= 1.15, "physiological recovery {p:.3}");
    assert!(ph <= 1.05, "physical recovery {ph:.3}");
    assert!(l < 1.0, "logical recovery {l:.3}");
    // Segment schemes finish in ≈ 73.7 s; logical is still moving records
    // when the 180 s window ends.
    for (label, r) in [("physical", physical), ("physiological", physiological)] {
        let secs = r.rebalance_secs.unwrap_or(f64::NAN);
        assert!((60.0..90.0).contains(&secs), "{label} rebalance {secs} s");
    }
    assert_eq!(logical.rebalance_secs, None, "logical finished in-window");
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig7_disk_and_network_grow_most_and_helpers_claw_time_back() {
    let plain = run(Scheme::Physiological, false);
    let normal = plain.normal.expect("normal-phase samples");
    let rebalancing = plain.rebalancing.expect("rebalancing-phase samples");
    let ms = |p: &CostProfile, cat: CostCategory| p.get(cat).as_millis_f64();
    // Normal → rebalancing: disk I/O (1.2 → 34 ms) and network I/O
    // (0.7 → 19 ms) are the two largest relative increases.
    let mut growth: Vec<(CostCategory, f64)> = CostCategory::ALL
        .into_iter()
        .filter(|&cat| ms(&normal, cat) > 0.0)
        .map(|cat| (cat, ms(&rebalancing, cat) / ms(&normal, cat)))
        .collect();
    growth.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<CostCategory> = growth.iter().take(2).map(|&(cat, _)| cat).collect();
    assert!(
        top.contains(&CostCategory::DiskIo) && top.contains(&CostCategory::NetworkIo),
        "largest relative increases: {growth:?}"
    );
    assert!(growth[1].1 > 10.0, "an order of magnitude: {growth:?}");
    // Locking (113 → 140 ms) and the total (194 → 260 ms) grow.
    assert!(ms(&rebalancing, CostCategory::Locking) > ms(&normal, CostCategory::Locking));
    assert!(rebalancing.total() > normal.total());
    // With helpers, logging (16.1 → 10.8 ms) and the total (260 → 250 ms)
    // fall: log shipping sends the flush over the wire, not to the log disk.
    let improved = run(Scheme::Physiological, true)
        .improved
        .expect("helper-phase samples");
    assert!(ms(&improved, CostCategory::Logging) < ms(&rebalancing, CostCategory::Logging));
    assert!(improved.total() < rebalancing.total());
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig8_helpers_buy_performance_with_energy() {
    let plain = run(Scheme::Physiological, false);
    let helped = run(Scheme::Physiological, true);
    // Inside the rebalance window (t = 0–60 s) the two helpers raise mean
    // power (223.2 W vs 166.1 W) and energy per query (0.84 vs 0.64 J)…
    let watts = |r: &Run| mean_over(r, 0.0, 60.0, |row| row.watts);
    let jpq = |r: &Run| mean_over(r, 0.0, 60.0, |row| row.jpq);
    assert!(
        watts(helped) > watts(plain) + 40.0,
        "window power: helped {:.1} W vs plain {:.1} W",
        watts(helped),
        watts(plain)
    );
    assert!(
        jpq(helped) > 1.2 * jpq(plain),
        "window J/query: helped {:.3} vs plain {:.3}",
        jpq(helped),
        jpq(plain)
    );
    // …and buy throughput with it (70 968 vs 70 353 committed).
    assert!(helped.completed > plain.completed);
    // "After rebalancing, the additional nodes should be turned off
    // again": from t = 90 s both runs sit at the four-node level, 168.5 W
    // (168.8 and 168.8).
    for (label, r) in [("plain", plain), ("helped", helped)] {
        let settled = mean_over(r, 90.0, f64::MAX, |row| row.watts);
        assert!(
            (settled - 168.5).abs() < 1.0,
            "{label} settled at {settled:.1} W"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig3_mvcc_beats_locking_at_every_update_share() -> wattdb_common::Result<()> {
    let mut mvcc_space = Vec::new();
    for pct in [0u32, 20, 40, 60, 80, 100] {
        // A version chain that does not resolve fails the run here rather
        // than vanishing from the storage line.
        let mvcc = fig3_run(pct, CcMode::Mvcc)?;
        let lock = fig3_run(pct, CcMode::LockingRx)?;
        let ratio = mvcc.ta_per_minute / lock.ta_per_minute;
        if pct < 100 {
            // 2.10, 2.12, 1.86, 1.75, 1.75 at 0–80 % updates; the bound is
            // the smallest reading floored to one decimal.
            assert!(ratio >= 1.7, "MVCC/MGL at {pct} % updates: {ratio:.2}");
        } else {
            // The paper has MVCC ahead for pure writers too, by up to
            // ~90 %. Here 1.19 (12 492 vs 10 496 ta/min); MGL-RX's own
            // throughput rises most from 80 % (7 135).
            assert!(ratio > 1.0, "MVCC/MGL at 100 % updates: {ratio:.2}");
        }
        // MGL keeps pending changes, not versions: 1.000 throughout. The
        // mover's own before-images do not count — once routing flips, the
        // row is reached at its target.
        assert!(
            (0.99..=1.02).contains(&lock.storage_ratio),
            "MGL space at {pct} %: {:.3}",
            lock.storage_ratio
        );
        mvcc_space.push(mvcc.storage_ratio);
    }
    // MVCC pays in version chains, counted at each key's routed home (a
    // moved record's source copy is unreachable once routing flips):
    // 1.000, 1.094, 1.187, 1.200, 1.268, 1.482 over 0–100 % updates. A
    // write reclaims what no live snapshot can see, so a written key keeps
    // its head and the version under it, plus what a live snapshot pins
    // (2.197 at 100 % before writes reclaimed).
    assert!(
        mvcc_space.windows(2).all(|w| w[0] <= w[1]),
        "MVCC space not monotone over the update ratios: {mvcc_space:?}"
    );
    assert!(
        mvcc_space[0] < 1.05 && mvcc_space[5] > 1.3,
        "{mvcc_space:?}"
    );
    Ok(())
}
