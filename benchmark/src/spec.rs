//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are written down. The program emits
//! exactly the metrics it lists (checked on every run) and `repeat` gates
//! on the bounds it fixes.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    let rows = doc[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a list"));
    rows.iter()
        .map(|m| Metric {
            name: m["name"].as_str().expect("metric name").to_string(),
            unit: m["unit"].as_str().expect("metric unit").to_string(),
            higher_is_better: m["better"].as_str() == Some("higher"),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc["run_seconds"].as_u64().expect("run_seconds"),
            workloads: doc["workloads"]
                .as_array()
                .expect("workloads")
                .iter()
                .map(|w| {
                    (
                        w["name"].as_str().expect("workload name").to_string(),
                        w["why"].as_str().expect("workload why").to_string(),
                    )
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    pub fn listed(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The metrics a run must emit, against what it did emit: `Err` names
    /// the first that is missing, unlisted or not a finite number.
    pub fn check(&self, traced: bool, emitted: &[(String, f64)]) -> Result<(), String> {
        let listed = self.listed(traced);
        for m in listed {
            match emitted.iter().find(|(n, _)| *n == m.name) {
                None => {
                    return Err(format!(
                        "metric `{}` is listed but was not measured",
                        m.name
                    ))
                }
                Some((_, v)) if !v.is_finite() => {
                    return Err(format!("metric `{}` is not a finite number ({v})", m.name))
                }
                Some(_) => {}
            }
        }
        match emitted
            .iter()
            .find(|(n, _)| listed.iter().all(|m| m.name != *n))
        {
            Some((n, _)) => Err(format!("metric `{n}` was measured but is not listed")),
            None => Ok(()),
        }
    }
}

/// Per-layer metrics that are counts of single-threaded work: they repeat
/// exactly for a given seed, and `repeat` fails if they do not.
pub fn repeats_exactly(name: &str) -> bool {
    name.starts_with("rptrie.nodes_visited_per_query.")
        || name.starts_with("rptrie.exact_per_query.")
        || name == "durability.fsyncs_per_write"
        || name == "service.compact_rebuilt_partitions"
        || name == "service.cache_hit_rate"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    #[test]
    fn benchmark_json_names_the_workloads_and_a_setup_metric() {
        let spec = Spec::load();
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, NAMES);
        assert!((1..=60).contains(&spec.run_seconds));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.per_layer.len() <= 128 && spec.end_to_end.len() <= 16);
    }

    #[test]
    fn check_names_the_offending_metric() {
        let spec = Spec::load();
        let mut emitted: Vec<(String, f64)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), 1.0))
            .collect();
        assert_eq!(spec.check(false, &emitted), Ok(()));
        emitted[0].1 = f64::NAN;
        assert!(spec.check(false, &emitted).unwrap_err().contains("finite"));
        emitted[0].1 = 1.0;
        emitted.push(("extra".to_string(), 1.0));
        assert!(spec
            .check(false, &emitted)
            .unwrap_err()
            .contains("not listed"));
        emitted.truncate(1);
        assert!(spec
            .check(false, &emitted)
            .unwrap_err()
            .contains("not measured"));
    }
}
