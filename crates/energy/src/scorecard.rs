//! The energy-proportionality scorecard: grade an exported telemetry
//! timeline against the paper's headline claim.
//!
//! §1's motivation is a cluster whose power draw tracks
//! `P(u) = u · P_peak` instead of idling at ~50 % of peak. The PR 7
//! telemetry already samples watts, cumulative Joules, throughput, and
//! response percentiles every monitoring window into the JSONL timeline
//! (`BENCH_timeline.jsonl`); this module re-reads that export — through
//! the same [`wattdb_telemetry::parse_jsonl`] the CI schema check uses —
//! and condenses a whole trace-driven run into one [`Scorecard`]:
//!
//! * the proportionality index against the **rated** peak
//!   ([`crate::proportionality_index_rated`]);
//! * mean and peak watts over the run;
//! * Wh per committed transaction, overall and per trace phase
//!   (trough/shoulder/peak, baseline/ramp/burst/decay);
//! * the response-time p95 ceiling — the highest `txn.response_ms.p95`
//!   any window carries. That gauge reads a histogram cumulative over
//!   the run, so the ceiling is the worst run-so-far p95 at a window's
//!   end, not the worst single window's p95;
//! * a nodes-powered histogram (how many windows ran on how many nodes).
//!
//! Utilization per window is the offered load: the
//! `workload.target_clients` gauge (the trace's modeled-client target)
//! normalized by its trace-wide maximum, falling back to normalized
//! throughput for runs without a pooled workload. Offered load is the
//! right `u` for the ideal line — a static cluster that burns peak
//! watts at 10 % load must score badly *because* the load was low.

use std::collections::BTreeMap;

use wattdb_common::{SimTime, Watts};
use wattdb_telemetry::{parse_jsonl, SchemaError, TimelineExport, WindowSample};

use crate::proportionality::{proportionality_index_rated, UtilPower};

/// One labelled stretch of the trace, in absolute sim-time (a trace
/// started at t = 0 can use its breakpoint offsets directly).
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Phase label (`trough`, `peak`, `burst`, …).
    pub label: String,
    /// Span start (inclusive).
    pub start: SimTime,
    /// Span end (exclusive).
    pub end: SimTime,
}

impl PhaseSpan {
    /// A span from microsecond offsets — the shape
    /// `LoadTrace::phase_spans` produces.
    pub fn new(label: impl Into<String>, start: SimTime, end: SimTime) -> Self {
        Self {
            label: label.into(),
            start,
            end,
        }
    }
}

/// Per-phase slice of the scorecard.
#[derive(Debug, Clone)]
pub struct PhaseScore {
    /// Phase label.
    pub label: String,
    /// Monitoring windows that closed inside the phase.
    pub windows: u64,
    /// Mean power over those windows.
    pub mean_watts: f64,
    /// Modeled transactions committed during the phase.
    pub committed: u64,
    /// Watt-hours per committed transaction within the phase (0 when
    /// the phase committed nothing).
    pub wh_per_txn: f64,
}

/// The condensed verdict over one exported run.
#[derive(Debug, Clone)]
pub struct Scorecard {
    /// Monitoring windows scored.
    pub windows: u64,
    /// Proportionality index vs. the rated `P_peak` ideal line.
    pub proportionality_rated: f64,
    /// Mean power across windows.
    pub mean_watts: f64,
    /// Highest per-window power.
    pub peak_watts: f64,
    /// Rated peak the ideal line was drawn against.
    pub rated_watts: f64,
    /// Total modeled transactions committed.
    pub committed: u64,
    /// Watt-hours per committed transaction over the whole run.
    pub wh_per_txn: f64,
    /// Highest run-so-far p95 response time read at any window's end, in
    /// milliseconds.
    pub p95_ceiling_ms: f64,
    /// `(active nodes, windows at that count)`, ascending.
    pub nodes_powered: Vec<(u64, u64)>,
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<PhaseScore>,
}

/// Count the `node.{i}.active` gauges reading 1 in a window.
fn nodes_active(s: &WindowSample) -> u64 {
    s.values
        .iter()
        .filter(|(k, v)| k.starts_with("node.") && k.ends_with(".active") && **v > 0.5)
        .count() as u64
}

/// Score a parsed timeline export. `phases` slices the per-phase
/// Wh-per-transaction table (pass `&[]` to skip it); `rated_peak` is
/// the deployment's all-nodes-at-full-tilt draw (see
/// `WattDb::rated_peak_watts`).
pub fn score_export(export: &TimelineExport, phases: &[PhaseSpan], rated_peak: Watts) -> Scorecard {
    let samples = &export.samples;
    // Offered-load utilization: target clients normalized by the
    // trace-wide maximum; throughput-normalized fallback for runs
    // without a pooled workload.
    let max_target = samples
        .iter()
        .filter_map(|s| s.value("workload.target_clients"))
        .fold(0.0, f64::max);
    let max_tput = samples
        .iter()
        .filter_map(|s| s.value("txn.throughput"))
        .fold(0.0, f64::max);
    let util = |s: &WindowSample| -> f64 {
        match s.value("workload.target_clients") {
            Some(t) if max_target > 0.0 => t / max_target,
            _ if max_tput > 0.0 => s.value("txn.throughput").unwrap_or(0.0) / max_tput,
            _ => 0.0,
        }
    };
    let mut obs = Vec::with_capacity(samples.len());
    let mut powers = Vec::with_capacity(samples.len());
    let mut p95_ceiling: f64 = 0.0;
    let mut nodes_hist: BTreeMap<u64, u64> = BTreeMap::new();
    for s in samples {
        let Some(watts) = s.value("power.watts") else {
            continue; // window before the first 1 Hz power sample
        };
        obs.push(UtilPower {
            utilization: util(s),
            power: Watts(watts),
        });
        powers.push(watts);
        p95_ceiling = p95_ceiling.max(s.value("txn.response_ms.p95").unwrap_or(0.0));
        *nodes_hist.entry(nodes_active(s)).or_insert(0) += 1;
    }
    let committed = samples
        .last()
        .and_then(|s| s.value("txn.completed"))
        .unwrap_or(0.0) as u64;
    let joules = samples
        .last()
        .and_then(|s| s.value("energy.joules"))
        .unwrap_or(0.0);
    let wh_per_txn = if committed > 0 {
        joules / 3600.0 / committed as f64
    } else {
        0.0
    };
    // Per-phase deltas: Joules and completions are cumulative gauges,
    // so each phase reads the last sample inside it minus the last
    // sample before it.
    let mut phase_scores = Vec::with_capacity(phases.len());
    for span in phases {
        let before = samples
            .iter()
            .rfind(|s| s.at < span.start)
            .map(|s| {
                (
                    s.value("energy.joules").unwrap_or(0.0),
                    s.value("txn.completed").unwrap_or(0.0),
                )
            })
            .unwrap_or((0.0, 0.0));
        let inside: Vec<&WindowSample> = samples
            .iter()
            .filter(|s| s.at >= span.start && s.at < span.end)
            .collect();
        let last = inside
            .last()
            .map(|s| {
                (
                    s.value("energy.joules").unwrap_or(0.0),
                    s.value("txn.completed").unwrap_or(0.0),
                )
            })
            .unwrap_or(before);
        let phase_watts: Vec<f64> = inside
            .iter()
            .filter_map(|s| s.value("power.watts"))
            .collect();
        let committed = (last.1 - before.1).max(0.0) as u64;
        let joules = (last.0 - before.0).max(0.0);
        phase_scores.push(PhaseScore {
            label: span.label.clone(),
            windows: inside.len() as u64,
            mean_watts: if phase_watts.is_empty() {
                0.0
            } else {
                phase_watts.iter().sum::<f64>() / phase_watts.len() as f64
            },
            committed,
            wh_per_txn: if committed > 0 {
                joules / 3600.0 / committed as f64
            } else {
                0.0
            },
        });
    }
    Scorecard {
        windows: obs.len() as u64,
        proportionality_rated: proportionality_index_rated(&obs, rated_peak),
        mean_watts: if powers.is_empty() {
            0.0
        } else {
            powers.iter().sum::<f64>() / powers.len() as f64
        },
        peak_watts: powers.iter().copied().fold(0.0, f64::max),
        rated_watts: rated_peak.0,
        committed,
        wh_per_txn,
        p95_ceiling_ms: p95_ceiling,
        nodes_powered: nodes_hist.into_iter().collect(),
        phases: phase_scores,
    }
}

/// Parse a JSONL timeline export (the `BENCH_timeline.jsonl` format)
/// and score it — the one-call path for benches and offline analysis.
pub fn score_jsonl(
    text: &str,
    phases: &[PhaseSpan],
    rated_peak: Watts,
) -> Result<Scorecard, SchemaError> {
    Ok(score_export(&parse_jsonl(text)?, phases, rated_peak))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesize an export via the real registry so the sample shape
    /// matches what `sample_window` produces.
    fn export(windows: &[(u64, f64, f64, f64, f64, u64)]) -> TimelineExport {
        // (secs, target, watts, joules, completed, active_nodes)
        let mut reg = wattdb_telemetry::MetricsRegistry::new(1024);
        for &(secs, target, watts, joules, completed, active) in windows {
            reg.set_gauge("workload.target_clients", target);
            reg.set_gauge("power.watts", watts);
            reg.set_gauge("energy.joules", joules);
            reg.set_counter("txn.completed", completed as u64);
            reg.set_gauge("txn.response_ms.p95", 8.0 + target / 100.0);
            for n in 0..4u32 {
                reg.set_gauge(
                    &format!("node.{n}.active"),
                    if (n as u64) < active { 1.0 } else { 0.0 },
                );
            }
            reg.sample_window(SimTime::from_secs(secs));
        }
        TimelineExport {
            samples: reg.samples().cloned().collect(),
            ..Default::default()
        }
    }

    #[test]
    fn proportional_run_outscores_flat_run_under_the_same_rated_peak() {
        let rated = Watts(160.0);
        // Elastic: watts track the target curve. Static: flat near-peak.
        let elastic = export(&[
            (5, 100.0, 30.0, 150.0, 50.0, 1),
            (10, 500.0, 60.0, 450.0, 200.0, 2),
            (15, 1000.0, 120.0, 1050.0, 500.0, 3),
            (20, 500.0, 62.0, 1360.0, 700.0, 2),
        ]);
        let flat = export(&[
            (5, 100.0, 140.0, 700.0, 50.0, 4),
            (10, 500.0, 142.0, 1410.0, 200.0, 4),
            (15, 1000.0, 145.0, 2135.0, 500.0, 4),
            (20, 500.0, 141.0, 2840.0, 700.0, 4),
        ]);
        let e = score_export(&elastic, &[], rated);
        let f = score_export(&flat, &[], rated);
        assert_eq!(e.windows, 4);
        assert!(
            e.proportionality_rated > f.proportionality_rated,
            "elastic {} must beat static {}",
            e.proportionality_rated,
            f.proportionality_rated
        );
        assert!(f.mean_watts > e.mean_watts);
        assert_eq!(f.nodes_powered, vec![(4, 4)]);
        assert_eq!(e.nodes_powered, vec![(1, 1), (2, 2), (3, 1)]);
        assert!(e.wh_per_txn > 0.0 && f.wh_per_txn > e.wh_per_txn);
        assert!(e.p95_ceiling_ms >= 8.0);
    }

    #[test]
    fn phase_slices_take_cumulative_deltas() {
        let ex = export(&[
            (5, 100.0, 30.0, 150.0, 100.0, 1),
            (10, 100.0, 30.0, 300.0, 200.0, 1),
            (15, 900.0, 120.0, 900.0, 600.0, 3),
            (20, 900.0, 120.0, 1500.0, 1000.0, 3),
        ]);
        let at = SimTime::from_secs;
        let phases = vec![
            PhaseSpan::new("trough", at(0), at(11)),
            PhaseSpan::new("peak", at(11), at(21)),
        ];
        let card = score_export(&ex, &phases, Watts(160.0));
        assert_eq!(card.phases.len(), 2);
        let (trough, peak) = (&card.phases[0], &card.phases[1]);
        assert_eq!(trough.windows, 2);
        assert_eq!(trough.committed, 200);
        assert_eq!(peak.committed, 800);
        // Trough: 300 J / 200 txn; peak: 1200 J / 800 txn.
        assert!((trough.wh_per_txn - 300.0 / 3600.0 / 200.0).abs() < 1e-12);
        assert!((peak.wh_per_txn - 1200.0 / 3600.0 / 800.0).abs() < 1e-12);
        assert!(peak.mean_watts > trough.mean_watts);
    }

    #[test]
    fn empty_export_scores_zero() {
        let card = score_export(&TimelineExport::default(), &[], Watts(100.0));
        assert_eq!(card.windows, 0);
        assert_eq!(card.proportionality_rated, 0.0);
        assert_eq!(card.committed, 0);
        assert!(card.nodes_powered.is_empty());
    }

    #[test]
    fn jsonl_round_trip_scores_identically() {
        // An export serialized by the real recorder must parse and score.
        let mut tel = wattdb_telemetry::Telemetry::<wattdb_telemetry::DecisionRecord>::new();
        tel.registry.set_gauge("workload.target_clients", 400.0);
        tel.registry.set_gauge("power.watts", 90.0);
        tel.registry.set_gauge("energy.joules", 450.0);
        tel.registry.set_counter("txn.completed", 300);
        tel.registry.set_gauge("node.0.active", 1.0);
        tel.registry.sample_window(SimTime::from_secs(5));
        let text = tel.export_jsonl();
        let card = score_jsonl(&text, &[], Watts(150.0)).expect("own export scores");
        assert_eq!(card.windows, 1);
        assert_eq!(card.committed, 300);
        assert_eq!(card.nodes_powered, vec![(1, 1)]);
    }
}
