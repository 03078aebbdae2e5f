//! What one run produced, and its three renderings: the table a person
//! reads, the contract line a driver reads (last line of stdout), and the
//! result file `merge` and `compare` read.

use std::fmt::Write as _;

use crate::catalogue::Catalogue;
use crate::probe::JsonValue;

/// One metric as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    /// Samples behind the value (reps, slices, steps, transactions …).
    pub samples: u64,
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one `--workload … --trace …` invocation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Transaction attempts in the measured windows (commits + aborts).
    pub attempted: u64,
    /// Upper bound on transactions the engine gave up on.
    pub failed: u64,
    /// On-CPU share of the measured wall time; below 0.95 the host-time
    /// metrics of this run are not trustworthy.
    pub cpu_share: f64,
    pub metrics: Vec<Measured>,
    pub checks: Vec<Check>,
}

impl RunResult {
    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Value of a metric by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every metric by name with unit and sample count, then the checks.
    pub fn table(&self, cat: &Catalogue) -> String {
        let mut out = format!(
            "# {} seed={} seconds={} trace={} cpu_share={:.3}\n",
            self.workload, self.seed, self.seconds, self.traced as u8, self.cpu_share
        );
        for m in &self.metrics {
            let unit = cat.find(&m.name).map_or("?", |d| d.unit.as_str());
            let _ = writeln!(
                out,
                "{:<34} {:>18.6} {:<8} n={}",
                m.name, m.value, unit, m.samples
            );
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "{verdict} {} — {}", c.name, c.detail);
        }
        out
    }

    /// The one-object line the contract asks for.
    pub fn contract_line(&self, cat: &Catalogue) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let unit = cat.find(&m.name).map_or("", |d| d.unit.as_str());
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name, m.value
            );
        }
        out.push_str("}}");
        out
    }

    /// The result file: the contract fields plus run parameters, sample
    /// counts and the individual checks.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"cpu_share\": {}, \"metrics\": {{",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            self.cpu_share
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"samples\": {}}}",
                m.name, m.value, m.samples
            );
        }
        out.push_str("}, \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                c.name,
                c.ok,
                c.detail.replace(['"', '\\'], "'")
            );
        }
        out.push_str("]}");
        out
    }

    /// Read a result back from its file form.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("result: no `{key}`"));
        let whole = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("result: `{key}` is not a whole number"))
        };
        let text = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result: `{key}` is not a string"))
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("result: `metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                Ok(Measured {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("result: `{name}` has no value"))?,
                    samples: m.get("samples").and_then(JsonValue::as_u64).unwrap_or(0),
                })
            })
            .collect::<Result<_, String>>()?;
        let checks = field("checks")?
            .as_arr()
            .ok_or("result: `checks` is not a list")?
            .iter()
            .map(|c| {
                Ok(Check {
                    name: text(c, "name")?,
                    ok: c.get("ok").and_then(JsonValue::as_bool).unwrap_or(false),
                    detail: text(c, "detail")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            workload: text(v, "workload")?,
            seed: whole("seed")?,
            seconds: whole("seconds")?,
            traced: field("traced")?
                .as_bool()
                .ok_or("result: `traced` is not a bool")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            cpu_share: field("cpu_share")?
                .as_f64()
                .ok_or("result: `cpu_share` is not a number")?,
            metrics,
            checks,
        })
    }
}

/// A merged results file: one run per line inside a `runs` list.
pub fn merged_json(runs: &[RunResult]) -> String {
    let mut out = String::from("{\"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.to_json());
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Parse a merged results file.
pub fn parse_merged(text: &str) -> Result<Vec<RunResult>, String> {
    let root = crate::probe::parse_json(text).map_err(|e| format!("results: {e:?}"))?;
    root.get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("results: no `runs` list")?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "oltp-steady".into(),
            seed: 11,
            seconds: 20,
            traced: false,
            attempted: 29_759,
            failed: 0,
            cpu_share: 0.9971,
            metrics: vec![
                Measured {
                    name: "setup_s".into(),
                    value: 0.2071234,
                    samples: 3,
                },
                Measured {
                    name: "host_ms_per_sim_s".into(),
                    value: 33.251,
                    samples: 600,
                },
            ],
            checks: vec![Check {
                name: "check.determinism".into(),
                ok: true,
                detail: "2 reps \"identical\"".into(),
            }],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample();
        let merged = merged_json(&[r.clone(), r.clone()]);
        let back = parse_merged(&merged).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].metrics, r.metrics);
        assert_eq!(back[0].attempted, r.attempted);
        assert!(back[0].correct());
        assert_eq!(back[0].checks[0].detail, "2 reps 'identical'");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let cat = Catalogue::embedded();
        let line = sample().contract_line(&cat);
        let v = crate::probe::parse_json(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.2071234));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = sample();
        r.checks.push(Check {
            name: "check.commits".into(),
            ok: false,
            detail: "0 committed".into(),
        });
        assert!(!r.correct());
        assert!(r
            .contract_line(&Catalogue::embedded())
            .starts_with("{\"correct\": false"));
        assert!(r
            .table(&Catalogue::embedded())
            .contains("FAIL check.commits"));
    }
}
