//! Table VII: effect of the partitioning strategy (heterogeneous /
//! homogeneous / random) with the RP-Trie as the local index, on T-drive,
//! Xi'an and OSM for Hausdorff and Frechet.

use crate::runner::{build_repose, load, params_for, Algo, ExpConfig};
use crate::{fmt_secs, print_table};
use repose::PartitionStrategy;
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::{json, Value};

const DATASETS: [PaperDataset; 3] =
    [PaperDataset::TDrive, PaperDataset::Xian, PaperDataset::Osm];

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
            for ds in DATASETS {
                let (data, queries) = load(ds, exp);
                let r = build_repose(
                    &data,
                    measure,
                    params_for(ds, measure),
                    ds.paper_delta(measure),
                    strategy,
                    exp,
                );
                let qt = Algo::Repose(r).batch_secs(&queries, exp.k);
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
