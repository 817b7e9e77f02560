//! Table VIII: applying REPOSE's heterogeneous partitioning to DITA
//! (Heter-DITA), compared on DTW and Frechet over T-drive, Xi'an and OSM.

use crate::runner::{build_algo, load, params_for, ExpConfig};
use crate::{fmt_secs, print_table};
use repose::PartitionStrategy;
use repose_baselines::BaselinePlacement;
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::{json, Value};

const DATASETS: [PaperDataset; 3] =
    [PaperDataset::TDrive, PaperDataset::Xian, PaperDataset::Osm];

/// REPOSE vs Heter-DITA vs DITA.
pub fn run(exp: &ExpConfig) -> Value {
    let mut out = Vec::new();
    for measure in [Measure::Dtw, Measure::Frechet] {
        println!("\n== Table VIII: {measure} ==");
        let mut rows: Vec<Vec<String>> = vec![
            vec!["REPOSE".into()],
            vec!["Heter-DITA".into()],
            vec!["DITA".into()],
        ];
        for ds in DATASETS {
            eprintln!("table8: {} / {measure}...", ds.name());
            let (data, queries) = load(ds, exp);
            let params = params_for(ds, measure);
            let delta = ds.paper_delta(measure);
            let qt = |name, placement| {
                build_algo(
                    name,
                    &data,
                    measure,
                    params,
                    delta,
                    placement,
                    PartitionStrategy::Heterogeneous,
                    exp,
                )
                .expect("REPOSE and DITA support this measure")
                .batch_secs(&queries, exp.k)
            };
            let repose = qt("REPOSE", BaselinePlacement::Homogeneous);
            let heter = qt("DITA", BaselinePlacement::Heterogeneous);
            let homo = qt("DITA", BaselinePlacement::Homogeneous);
            rows[0].push(fmt_secs(repose));
            rows[1].push(fmt_secs(heter));
            rows[2].push(fmt_secs(homo));
            out.push(json!({
                "measure": measure.name(),
                "dataset": ds.name(),
                "repose_qt_s": repose,
                "heter_dita_qt_s": heter,
                "dita_qt_s": homo,
            }));
        }
        print_table(&["Algorithm", "T-drive", "Xi'an", "OSM"], &rows);
    }
    Value::Array(out)
}
