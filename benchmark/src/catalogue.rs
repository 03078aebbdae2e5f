//! The metric catalogue: `BENCHMARK.json` at the repository root is the
//! one place that names workloads and metrics with their units,
//! directions and bounds. It is compiled in, so a run can check that it
//! emits exactly the declared set and `compare` applies the declared
//! bounds.

use crate::probe::{parse_json, JsonValue};

const EMBEDDED: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Catalogue {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Catalogue {
    /// The catalogue compiled into this binary.
    pub fn embedded() -> Self {
        Self::parse(EMBEDDED).expect("the committed BENCHMARK.json parses")
    }

    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let list = |key: &str| {
            root.get(key)
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text_of = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = text_of(m, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("BENCHMARK.json: better = `{better}`"));
                    }
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: better == "lower",
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: root
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end when untraced, per-layer
    /// when traced.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Look a metric up in either list.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::SPECS;

    #[test]
    fn committed_file_declares_the_four_workloads_and_setup() {
        let cat = Catalogue::embedded();
        let specs: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(cat.workloads, specs);
        assert!((1..=60).contains(&cat.run_seconds));
        let setup = cat.find("setup_s").expect("setup_s declared");
        assert_eq!(setup.unit, "s");
        assert!(setup.lower_is_better);
        for m in &cat.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(b <= setup.bound.unwrap(), "setup_s has the largest bound");
        }
        assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = cat
            .end_to_end
            .iter()
            .chain(&cat.per_layer)
            .map(|m| m.name.as_str())
            .chain(cat.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    #[test]
    fn rejects_a_malformed_file() {
        assert!(Catalogue::parse("{}").is_err());
        assert!(Catalogue::parse(
            r#"{"run_seconds": 5, "workloads": [], "per_layer": [],
                "end_to_end": [{"name": "x", "unit": "s", "better": "sideways"}]}"#
        )
        .is_err());
    }
}
