//! Table IX: applying REPOSE's heterogeneous partitioning to DFT
//! (Heter-DFT), compared on Hausdorff and Frechet over T-drive, Xi'an and
//! OSM.

use crate::runner::{build_algo, load, params_for, ExpConfig};
use crate::{fmt_secs, print_table};
use repose::PartitionStrategy;
use repose_baselines::BaselinePlacement;
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::{json, Value};

const DATASETS: [PaperDataset; 3] =
    [PaperDataset::TDrive, PaperDataset::Xian, PaperDataset::Osm];

/// REPOSE vs Heter-DFT vs DFT.
pub fn run(exp: &ExpConfig) -> Value {
    let mut out = Vec::new();
    for measure in [Measure::Hausdorff, Measure::Frechet] {
        println!("\n== Table IX: {measure} ==");
        let mut rows: Vec<Vec<String>> = vec![
            vec!["REPOSE".into()],
            vec!["Heter-DFT".into()],
            vec!["DFT".into()],
        ];
        for ds in DATASETS {
            eprintln!("table9: {} / {measure}...", ds.name());
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
                .expect("REPOSE and DFT support this measure")
                .batch_secs(&queries, exp.k)
            };
            let repose = qt("REPOSE", BaselinePlacement::Homogeneous);
            let heter = qt("DFT", BaselinePlacement::Heterogeneous);
            let homo = qt("DFT", BaselinePlacement::Homogeneous);
            rows[0].push(fmt_secs(repose));
            rows[1].push(fmt_secs(heter));
            rows[2].push(fmt_secs(homo));
            out.push(json!({
                "measure": measure.name(),
                "dataset": ds.name(),
                "repose_qt_s": repose,
                "heter_dft_qt_s": heter,
                "dft_qt_s": homo,
            }));
        }
        print_table(&["Algorithm", "T-drive", "Xi'an", "OSM"], &rows);
    }
    Value::Array(out)
}
