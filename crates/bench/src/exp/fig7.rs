//! Fig. 7: improvement from the optimized (z-value re-arranged) trie on
//! T-drive and OSM under Hausdorff — reduced node count and query time.

use crate::runner::{load, Algo, ExpConfig};
use crate::{fmt_secs, print_table};
use repose::Repose;
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::{json, Value};

/// Builds optimized and unoptimized tries and compares both metrics.
pub fn run(exp: &ExpConfig) -> Value {
    let measure = Measure::Hausdorff;
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for ds in [PaperDataset::TDrive, PaperDataset::Osm] {
        let (data, queries) = load(ds, exp);
        let [(nodes, qt), (unopt_nodes, unopt_qt)] = [true, false].map(|optimize| {
            let mut cfg = exp.repose_config(ds, measure);
            cfg.trie = cfg.trie.with_optimize(optimize);
            let r = Repose::build(&data, cfg);
            (r.trie_nodes(), Algo::Repose(r).batch_secs(&queries, exp.k))
        });
        rows.push(vec![
            ds.name().to_string(),
            nodes.to_string(),
            unopt_nodes.to_string(),
            format!("{:.1}%", 100.0 * (1.0 - nodes as f64 / unopt_nodes as f64)),
            fmt_secs(qt),
            fmt_secs(unopt_qt),
            format!("{:.1}%", 100.0 * (1.0 - qt / unopt_qt)),
        ]);
        out.push(json!({
            "dataset": ds.name(),
            "optimized_nodes": nodes,
            "unoptimized_nodes": unopt_nodes,
            "optimized_qt_s": qt,
            "unoptimized_qt_s": unopt_qt,
        }));
    }
    println!("\n== Fig. 7: optimized vs unoptimized trie (Hausdorff) ==");
    print_table(
        &[
            "Dataset",
            "opt nodes",
            "unopt nodes",
            "node cut",
            "opt QT",
            "unopt QT",
            "QT cut",
        ],
        &rows,
    );
    Value::Array(out)
}
