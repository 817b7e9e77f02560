//! Figs. 8 and 9: every algorithm's query time on OSM, Hausdorff and
//! Frechet, as the dataset's cardinality (Fig. 8: OSM at 0.2 .. 1.0 of
//! its base size) or the number of partitions (Fig. 9: 16, 32, 48, 64)
//! sweeps. Each point builds every algorithm afresh.

use crate::runner::{build_algo, load, ExpConfig, ALGOS};
use crate::series_table;
use repose_baselines::BaselinePlacement;
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::Value;
use std::collections::BTreeMap;

/// Fig. 8: effect of dataset cardinality.
pub fn fig8(exp: &ExpConfig) -> Value {
    let scales = [0.2, 0.4, 0.6, 0.8, 1.0];
    sweep(exp, "8", "scale", &scales, |s| format!("scale {s}"), |cfg, s| cfg.scale *= s)
}

/// Fig. 9: effect of the number of partitions.
pub fn fig9(exp: &ExpConfig) -> Value {
    let parts = [16.0, 32.0, 48.0, 64.0];
    let set = |cfg: &mut ExpConfig, p: f64| cfg.partitions = p as usize;
    sweep(exp, "9", "partitions", &parts, |p| format!("{p} parts"), set)
}

/// One series per algorithm over the `knob` values `xs`, per measure;
/// `set` applies `x` to the experiment config. Rows and series go in
/// algorithm-name order. A dataset is generated once per distinct data
/// config and serves both measures: [`load`] reads only the scale, seed
/// and query count, so Fig. 9's partition counts share one dataset.
fn sweep(
    exp: &ExpConfig,
    fig: &str,
    knob: &str,
    xs: &[f64],
    column: fn(f64) -> String,
    set: fn(&mut ExpConfig, f64),
) -> Value {
    let ds = PaperDataset::Osm;
    let measures = [Measure::Hausdorff, Measure::Frechet];
    let mut per_measure: [BTreeMap<&str, Vec<f64>>; 2] = Default::default();
    let mut loaded = None;
    for &x in xs {
        let mut cfg = exp.clone();
        set(&mut cfg, x);
        let key = (cfg.scale.to_bits(), cfg.seed, cfg.queries);
        if loaded.as_ref().is_none_or(|(k, _)| *k != key) {
            loaded = Some((key, load(ds, &cfg)));
        }
        let (_, (data, queries)) = loaded.as_ref().expect("loaded above");
        for (&measure, per_algo) in measures.iter().zip(&mut per_measure) {
            eprintln!("fig{fig}: {measure} {knob} {x}...");
            for name in ALGOS {
                let placement = BaselinePlacement::Homogeneous;
                if let Some(algo) = build_algo(name, data, ds, measure, placement, &cfg) {
                    per_algo.entry(name).or_default().push(algo.batch_secs(queries, cfg.k));
                }
            }
        }
    }
    let mut series = Vec::new();
    for (measure, per_algo) in measures.into_iter().zip(per_measure) {
        println!("\n== Fig. {fig}: OSM with {measure} ==");
        let rows = per_algo.into_iter().collect();
        series.extend(series_table(rows, xs, column, &format!("OSM {measure}")));
    }
    serde_json::to_value(&series).expect("serializable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::tiny;

    /// Both figures emit their series in the printed table's row order —
    /// algorithm name order, with DITA absent under Hausdorff — run after
    /// run.
    #[test]
    fn series_follow_the_table_order() {
        let expected = [
            "DFT OSM Hausdorff",
            "LS OSM Hausdorff",
            "REPOSE OSM Hausdorff",
            "DFT OSM Frechet",
            "DITA OSM Frechet",
            "LS OSM Frechet",
            "REPOSE OSM Frechet",
        ];
        for fig in [fig8, fig9] {
            let value = fig(&tiny());
            let series = value.as_array().expect("a list of series");
            let labels: Vec<&str> = series.iter().map(|s| s["label"].as_str().unwrap()).collect();
            assert_eq!(labels, expected);
        }
    }
}
