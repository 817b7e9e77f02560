//! Table V: query time as the grid side `δ` varies, on T-drive, Xi'an and
//! OSM for Hausdorff and Frechet (REPOSE only — it is REPOSE's parameter).

use crate::runner::{build_repose, load, Algo, ExpConfig};
use crate::{fmt_secs, print_table, Series};
use repose::PartitionStrategy;
use repose_datagen::PaperDataset;
use repose_distance::{Measure, MeasureParams};
use serde_json::Value;

/// The paper's per-dataset δ sweeps (Table V's "Value" columns).
fn deltas(ds: PaperDataset) -> Vec<f64> {
    match ds {
        PaperDataset::TDrive => vec![0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30],
        PaperDataset::Xian => vec![0.005, 0.010, 0.015, 0.020, 0.025, 0.030, 0.035],
        PaperDataset::Osm => vec![0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        _ => vec![0.01, 0.05, 0.1],
    }
}

/// Sweeps δ and reports REPOSE's query time per measure.
pub fn run(exp: &ExpConfig) -> Value {
    let mut series = Vec::new();
    for ds in [PaperDataset::TDrive, PaperDataset::Xian, PaperDataset::Osm] {
        let (data, queries) = load(ds, exp);
        println!("\n== Table V: {} ==", ds.name());
        let mut rows = Vec::new();
        for &delta in &deltas(ds) {
            let mut row = vec![format!("{delta}")];
            for measure in [Measure::Hausdorff, Measure::Frechet] {
                let params = MeasureParams::with_eps(ds.paper_delta(measure));
                let r = build_repose(
                    &data,
                    measure,
                    params,
                    delta,
                    PartitionStrategy::Heterogeneous,
                    exp,
                );
                let qt = Algo::Repose(r).batch_secs(&queries, exp.k);
                row.push(fmt_secs(qt));
                series.push(Series {
                    label: format!("REPOSE {} {} delta={delta}", ds.name(), measure),
                    x: vec![delta],
                    y: vec![qt],
                });
            }
            rows.push(row);
        }
        print_table(&["delta", "QT (Hausdorff)", "QT (Frechet)"], &rows);
    }
    serde_json::to_value(&series).expect("serializable")
}
