//! Fig. 6: query time when varying k ∈ {1, 10, ..., 100} on T-drive,
//! Xi'an and OSM under Hausdorff and Frechet, for all four algorithms.

use crate::runner::{build_algo, load, ExpConfig, ALGOS, STUDY_DATASETS};
use crate::series_table;
use repose_baselines::BaselinePlacement;
use repose_distance::Measure;
use serde_json::Value;

const KS: [usize; 6] = [1, 10, 25, 50, 75, 100];

/// Builds each algorithm once per (dataset, measure) and sweeps k.
pub fn run(exp: &ExpConfig) -> Value {
    let mut series = Vec::new();
    for ds in STUDY_DATASETS {
        let (data, queries) = load(ds, exp);
        for measure in [Measure::Hausdorff, Measure::Frechet] {
            eprintln!("fig6: {} / {}...", ds.name(), measure);
            println!("\n== Fig. 6: {} with {} ==", ds.name(), measure);
            let rows = ALGOS
                .into_iter()
                .filter_map(|name| {
                    let placement = BaselinePlacement::Homogeneous;
                    let algo = build_algo(name, &data, ds, measure, placement, exp)?;
                    Some((name, KS.iter().map(|&k| algo.batch_secs(&queries, k)).collect()))
                })
                .collect();
            let suffix = format!("{} {measure}", ds.name());
            series.extend(series_table(rows, &KS.map(|k| k as f64), |k| format!("k={k}"), &suffix));
        }
    }
    serde_json::to_value(&series).expect("serializable")
}
