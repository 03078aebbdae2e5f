//! `bench compare <a.json> <b.json>`: judge results `b` against baseline
//! `a` with each end-to-end metric's declared direction and bound.

use std::fmt::Write as _;

use crate::catalogue::{Catalogue, MetricDef};
use crate::results::RunResult;

/// Below this on-CPU share a neighbour was stealing the core, and a
/// host-time difference cannot be told from interference.
pub const MIN_CPU_SHARE: f64 = 0.95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the baseline by more than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// A host-time metric from a run that did not own its core.
    Unresolved,
    /// Per-layer metric: shown, not judged.
    Info,
}

/// One workload × metric line.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is, as a share of `a` (negative = better).
    pub worse_by: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// Host-time metrics carry a host unit; sim-clock metrics are `sim_*`.
fn is_host_time(def: &MetricDef) -> bool {
    matches!(def.unit.as_str(), "s" | "ms" | "us" | "ns")
}

fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = if def.lower_is_better { b - a } else { a - b };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// One row per workload × metric present on both sides. A run pair is
/// matched by workload and traced flag.
pub fn compare(cat: &Catalogue, a: &[RunResult], b: &[RunResult]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.traced == ra.traced)
        else {
            continue;
        };
        let shared_core = ra.cpu_share < MIN_CPU_SHARE || rb.cpu_share < MIN_CPU_SHARE;
        for ma in &ra.metrics {
            let (Some(vb), Some(def)) = (rb.value(&ma.name), cat.find(&ma.name)) else {
                continue;
            };
            let worse = worse_by(def, ma.value, vb);
            let verdict = match def.bound {
                None => Verdict::Info,
                Some(_) if is_host_time(def) && shared_core => Verdict::Unresolved,
                Some(bound) if worse > bound => Verdict::Regression,
                Some(_) => Verdict::Ok,
            };
            rows.push(Row {
                workload: ra.workload.clone(),
                metric: ma.name.clone(),
                unit: def.unit.clone(),
                a: ma.value,
                b: vb,
                worse_by: worse,
                bound: def.bound,
                verdict,
            });
        }
    }
    rows
}

/// Did any judged metric regress?
pub fn regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regression)
}

/// The comparison as a table; every ratio is stated against `a`.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<34} {:>16} {:>16} {:>9} {:>7}  verdict (base = a)\n",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for r in rows {
        let ratio = if r.a != 0.0 { r.b / r.a } else { f64::NAN };
        let bound = r
            .bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        let verdict = match r.verdict {
            Verdict::Ok => format!("ok ({:+.2}% worse)", r.worse_by * 100.0),
            Verdict::Regression => format!("REGRESSION ({:+.2}% worse)", r.worse_by * 100.0),
            Verdict::Unresolved => format!("unresolved (cpu_share < {MIN_CPU_SHARE})"),
            Verdict::Info => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<22} {:<34} {:>16.6} {:>16.6} {:>9.4} {:>7}  {} [{}]",
            r.workload, r.metric, r.a, r.b, ratio, bound, verdict, r.unit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::Measured;

    fn cat() -> Catalogue {
        Catalogue::parse(
            r#"{"run_seconds": 5,
                "workloads": [{"name": "w", "why": "x"}, {"name": "v", "why": "y"}],
                "end_to_end": [
                  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "wall", "unit": "ms", "better": "lower", "bound": 0.10},
                  {"name": "tps", "unit": "1/sim_s", "better": "higher", "bound": 0.02}],
                "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap()
    }

    fn run(traced: bool, cpu_share: f64, metrics: &[(&str, f64)]) -> RunResult {
        RunResult {
            workload: "w".into(),
            seed: 1,
            seconds: 5,
            traced,
            attempted: 10,
            failed: 0,
            cpu_share,
            metrics: metrics
                .iter()
                .map(|(n, v)| Measured {
                    name: n.to_string(),
                    value: *v,
                    samples: 1,
                })
                .collect(),
            checks: vec![],
        }
    }

    #[test]
    fn direction_and_bound_decide() {
        let a = [run(false, 0.99, &[("wall", 100.0), ("tps", 100.0)])];
        // Slower by 9 % (inside 10 %), throughput down 3 % (outside 2 %).
        let b = [run(false, 0.99, &[("wall", 109.0), ("tps", 97.0)])];
        let rows = compare(&cat(), &a, &b);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Regression);
        assert!((rows[1].worse_by - 0.03).abs() < 1e-12);
        assert!(regressed(&rows));
        // Improvements never regress, whatever their size.
        let better = [run(false, 0.99, &[("wall", 10.0), ("tps", 900.0)])];
        assert!(!regressed(&compare(&cat(), &a, &better)));
        // Identical sides are ok with zero difference.
        assert!(compare(&cat(), &a, &a).iter().all(|r| r.worse_by == 0.0));
    }

    #[test]
    fn host_time_is_unresolved_without_the_core() {
        let a = [run(false, 0.99, &[("wall", 100.0), ("tps", 100.0)])];
        let b = [run(false, 0.80, &[("wall", 150.0), ("tps", 90.0)])];
        let rows = compare(&cat(), &a, &b);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        // Sim-clock metrics do not depend on who else used the core.
        assert_eq!(rows[1].verdict, Verdict::Regression);
    }

    #[test]
    fn per_layer_rows_are_shown_not_judged() {
        let a = [run(true, 0.99, &[("hits", 10.0)])];
        let b = [run(true, 0.99, &[("hits", 1.0)])];
        let rows = compare(&cat(), &a, &b);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Info);
        assert!(!regressed(&rows));
        assert!(render(&rows).contains("hits"));
        // Traced and untraced runs of one workload are not paired.
        assert!(compare(&cat(), &a, &[run(false, 0.99, &[("hits", 1.0)])]).is_empty());
    }

    #[test]
    fn zero_baseline() {
        let def = &cat().end_to_end[1];
        assert_eq!(worse_by(def, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(def, 0.0, 1.0), f64::INFINITY);
    }
}
