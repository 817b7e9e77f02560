//! Tables VIII and IX: REPOSE's heterogeneous partitioning applied to a
//! baseline — Heter-DITA on DTW and Frechet (Table VIII), Heter-DFT on
//! Hausdorff and Frechet (Table IX) — over T-drive, Xi'an and OSM.

use crate::runner::{build_algo, load, ExpConfig, STUDY_DATASETS};
use crate::{fmt_secs, print_table};
use repose_baselines::BaselinePlacement::{Heterogeneous, Homogeneous};
use repose_distance::Measure;
use serde_json::{json, Value};

/// Table VIII: REPOSE vs Heter-DITA vs DITA.
pub fn table8(exp: &ExpConfig) -> Value {
    run(exp, "table8", "VIII", "DITA", [Measure::Dtw, Measure::Frechet])
}

/// Table IX: REPOSE vs Heter-DFT vs DFT.
pub fn table9(exp: &ExpConfig) -> Value {
    run(exp, "table9", "IX", "DFT", [Measure::Hausdorff, Measure::Frechet])
}

/// REPOSE vs `baseline` on heterogeneous and on its own homogeneous
/// placement, per measure.
fn run(exp: &ExpConfig, name: &str, table: &str, baseline: &str, measures: [Measure; 2]) -> Value {
    let key = baseline.to_lowercase();
    let mut out = Vec::new();
    for measure in measures {
        println!("\n== Table {table}: {measure} ==");
        let mut rows = ["REPOSE".to_string(), format!("Heter-{baseline}"), baseline.to_string()]
            .map(|label| vec![label]);
        for ds in STUDY_DATASETS {
            eprintln!("{name}: {} / {measure}...", ds.name());
            let (data, queries) = load(ds, exp);
            let qt = |name, placement| {
                build_algo(name, &data, ds, measure, placement, exp)
                    .expect("REPOSE and the baseline support this measure")
                    .batch_secs(&queries, exp.k)
            };
            let qts =
                [qt("REPOSE", Homogeneous), qt(baseline, Heterogeneous), qt(baseline, Homogeneous)];
            for (row, qt) in rows.iter_mut().zip(qts) {
                row.push(fmt_secs(qt));
            }
            let mut record = json!({
                "measure": measure.name(),
                "dataset": ds.name(),
                "repose_qt_s": qts[0],
            });
            record[&*format!("heter_{key}_qt_s")] = json!(qts[1]);
            record[&*format!("{key}_qt_s")] = json!(qts[2]);
            out.push(record);
        }
        print_table(&["Algorithm", "T-drive", "Xi'an", "OSM"], &rows);
    }
    Value::Array(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::tiny;

    /// Each table keeps its record keys, in order: one record per
    /// (measure, dataset), the baseline's two placements named after it.
    #[test]
    fn records_keep_their_keys() {
        for (table, baseline) in [(table8 as fn(&ExpConfig) -> Value, "dita"), (table9, "dft")] {
            let value = table(&tiny());
            let records = value.as_array().expect("a list of records");
            assert_eq!(records.len(), 2 * STUDY_DATASETS.len());
            for record in records {
                let Value::Object(map) = record else { panic!("{record:?} is not an object") };
                let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
                let heter = format!("heter_{baseline}_qt_s");
                let homo = format!("{baseline}_qt_s");
                assert_eq!(keys, ["measure", "dataset", "repose_qt_s", &heter, &homo]);
            }
        }
    }
}
