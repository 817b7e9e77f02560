//! Table VII: effect of the partitioning strategy (heterogeneous /
//! homogeneous / random) with the RP-Trie as the local index, on T-drive,
//! Xi'an and OSM for Hausdorff and Frechet.

use crate::runner::{load, Algo, ExpConfig, STUDY_DATASETS};
use crate::{fmt_secs, print_table};
use repose::{PartitionStrategy, Repose};
use repose_distance::Measure;
use serde_json::{json, Value};

/// Runs REPOSE under each strategy.
pub fn run(exp: &ExpConfig) -> Value {
    let mut out = Vec::new();
    for measure in [Measure::Hausdorff, Measure::Frechet] {
        println!("\n== Table VII: {measure} ==");
        let mut rows = Vec::new();
        for strategy in [
            PartitionStrategy::Heterogeneous,
            PartitionStrategy::Homogeneous,
            PartitionStrategy::Random,
        ] {
            let mut row = vec![strategy.name().to_string()];
            for ds in STUDY_DATASETS {
                let (data, queries) = load(ds, exp);
                let cfg = exp.repose_config(ds, measure).with_strategy(strategy);
                let qt = Algo::Repose(Repose::build(&data, cfg)).batch_secs(&queries, exp.k);
                row.push(fmt_secs(qt));
                out.push(json!({
                    "measure": measure.name(),
                    "strategy": strategy.name(),
                    "dataset": ds.name(),
                    "qt_s": qt,
                }));
            }
            rows.push(row);
        }
        print_table(&["Partitioning", "T-drive", "Xi'an", "OSM"], &rows);
    }
    Value::Array(out)
}
