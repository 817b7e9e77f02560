//! Table VI: query time as the pivot count `Np` varies in
//! {1, 3, 5, 7, 9, 11}, on T-drive, Xi'an and OSM for Hausdorff and
//! Frechet.

use crate::runner::{load, params_for, ExpConfig};
use crate::{fmt_secs, print_table, Series};
use repose::{Repose, ReposeConfig};
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::Value;

const NPS: [usize; 6] = [1, 3, 5, 7, 9, 11];

/// Sweeps `Np` and reports REPOSE's query time per measure.
pub fn run(exp: &ExpConfig) -> Value {
    let mut series = Vec::new();
    for ds in [PaperDataset::TDrive, PaperDataset::Xian, PaperDataset::Osm] {
        let (data, queries) = load(ds, exp);
        println!("\n== Table VI: {} ==", ds.name());
        let mut rows = Vec::new();
        for np in NPS {
            let mut row = vec![np.to_string()];
            for measure in [Measure::Hausdorff, Measure::Frechet] {
                let cfg = ReposeConfig::new(measure)
                    .with_cluster(exp.cluster)
                    .with_partitions(exp.partitions)
                    .with_delta(ds.paper_delta(measure))
                    .with_params(params_for(ds, measure))
                    .with_np(np)
                    .with_seed(exp.seed);
                let r = Repose::build(&data, cfg);
                let qt = queries
                    .iter()
                    .map(|q| r.query(&q.points, exp.k).query_time().as_secs_f64())
                    .sum::<f64>()
                    / queries.len().max(1) as f64;
                row.push(fmt_secs(qt));
                series.push(Series {
                    label: format!("REPOSE {} {} Np={np}", ds.name(), measure),
                    x: vec![np as f64],
                    y: vec![qt],
                });
            }
            rows.push(row);
        }
        print_table(&["Np", "QT (Hausdorff)", "QT (Frechet)"], &rows);
    }
    serde_json::to_value(&series).expect("serializable")
}
