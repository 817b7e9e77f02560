//! Fig. 7: improvement from the optimized (z-value re-arranged) trie on
//! T-drive and OSM under Hausdorff — reduced node count and query time.

use crate::runner::{load, params_for, ExpConfig};
use crate::{fmt_secs, print_table};
use repose::{Repose, ReposeConfig};
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
        let mut record = json!({ "dataset": ds.name() });
        let mut nodes = [0usize; 2];
        let mut qts = [0f64; 2];
        for (i, optimize) in [true, false].into_iter().enumerate() {
            let cfg = ReposeConfig::new(measure)
                .with_cluster(exp.cluster)
                .with_partitions(exp.partitions)
                .with_delta(ds.paper_delta(measure))
                .with_params(params_for(ds, measure))
                .with_seed(exp.seed)
                .with_trie(
                    repose_rptrie::RpTrieConfig::for_measure(measure).with_optimize(optimize),
                );
            let r = Repose::build(&data, cfg);
            nodes[i] = r.trie_nodes();
            qts[i] = queries
                .iter()
                .map(|q| r.query(&q.points, exp.k).query_time().as_secs_f64())
                .sum::<f64>()
                / queries.len().max(1) as f64;
        }
        record["optimized_nodes"] = json!(nodes[0]);
        record["unoptimized_nodes"] = json!(nodes[1]);
        record["optimized_qt_s"] = json!(qts[0]);
        record["unoptimized_qt_s"] = json!(qts[1]);
        rows.push(vec![
            ds.name().to_string(),
            nodes[0].to_string(),
            nodes[1].to_string(),
            format!("{:.1}%", 100.0 * (1.0 - nodes[0] as f64 / nodes[1] as f64)),
            fmt_secs(qts[0]),
            fmt_secs(qts[1]),
            format!("{:.1}%", 100.0 * (1.0 - qts[0] / qts[1])),
        ]);
        out.push(record);
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
