//! Tables V and VI: REPOSE's query time as one of its own parameters
//! sweeps — the grid side `δ` (Table V) or the pivot count `Np` (Table
//! VI) — on T-drive, Xi'an and OSM for Hausdorff and Frechet.

use crate::runner::{load, Algo, ExpConfig, STUDY_DATASETS};
use crate::{fmt_secs, print_table, Series};
use repose::{Repose, ReposeConfig};
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::Value;

/// Table V: query time vs `δ`, over the paper's per-dataset sweeps (its
/// "Value" columns).
pub fn table5(exp: &ExpConfig) -> Value {
    let deltas = |ds| match ds {
        PaperDataset::TDrive => vec![0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30],
        PaperDataset::Xian => vec![0.005, 0.010, 0.015, 0.020, 0.025, 0.030, 0.035],
        PaperDataset::Osm => vec![0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        _ => vec![0.01, 0.05, 0.1],
    };
    sweep(exp, "V", "delta", deltas, ReposeConfig::with_delta)
}

/// Table VI: query time vs `Np` ∈ {1, 3, 5, 7, 9, 11}.
pub fn table6(exp: &ExpConfig) -> Value {
    let nps = |_| vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0];
    sweep(exp, "VI", "Np", nps, |cfg, np| cfg.with_np(np as usize))
}

/// One row per value of `knob` on each dataset, one column per measure;
/// `set` overrides the knob on [`ExpConfig::repose_config`].
fn sweep(
    exp: &ExpConfig,
    table: &str,
    knob: &str,
    values: impl Fn(PaperDataset) -> Vec<f64>,
    set: impl Fn(ReposeConfig, f64) -> ReposeConfig,
) -> Value {
    let mut series = Vec::new();
    for ds in STUDY_DATASETS {
        let (data, queries) = load(ds, exp);
        println!("\n== Table {table}: {} ==", ds.name());
        let mut rows = Vec::new();
        for x in values(ds) {
            let mut row = vec![x.to_string()];
            for measure in [Measure::Hausdorff, Measure::Frechet] {
                let r = Repose::build(&data, set(exp.repose_config(ds, measure), x));
                let qt = Algo::Repose(r).batch_secs(&queries, exp.k);
                row.push(fmt_secs(qt));
                let label = format!("REPOSE {} {measure} {knob}={x}", ds.name());
                series.push(Series { label, x: vec![x], y: vec![qt] });
            }
            rows.push(row);
        }
        print_table(&[knob, "QT (Hausdorff)", "QT (Frechet)"], &rows);
    }
    serde_json::to_value(&series).expect("serializable")
}
