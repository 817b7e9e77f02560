//! Table IV: performance overview — QT, IS and IT for REPOSE, DITA, DFT
//! and LS across all seven datasets and three measures.

use crate::runner::{build_algo, load, ExpConfig, ALGOS};
use crate::{fmt_bytes, fmt_secs, print_table, Cell};
use repose_baselines::BaselinePlacement;
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::Value;

const MEASURES: [Measure; 3] = [Measure::Hausdorff, Measure::Frechet, Measure::Dtw];

/// Runs the full matrix and prints one block per metric, like Table IV.
pub fn run(exp: &ExpConfig) -> Value {
    let mut cells: Vec<Cell> = Vec::new();
    for ds in PaperDataset::ALL {
        let (data, queries) = load(ds, exp);
        eprintln!("table4: {} ({} trajectories)...", ds.name(), data.len());
        for measure in MEASURES {
            for algo_name in ALGOS {
                let placement = BaselinePlacement::Homogeneous;
                let Some(algo) = build_algo(algo_name, &data, ds, measure, placement, exp) else {
                    continue; // "/" cells (DITA x Hausdorff)
                };
                let cost = algo.index_cost();
                cells.push(Cell {
                    algo: algo_name.to_string(),
                    dataset: ds.name().to_string(),
                    measure: measure.name().to_string(),
                    qt_s: algo.batch_secs(&queries, exp.k),
                    is_bytes: cost.map(|(bytes, _)| bytes),
                    it_s: cost.map(|(_, secs)| secs),
                });
            }
        }
    }
    print_blocks(&cells);
    serde_json::to_value(&cells).expect("serializable")
}

fn print_blocks(cells: &[Cell]) {
    let datasets: Vec<String> = PaperDataset::ALL.iter().map(|d| d.name().to_string()).collect();
    for (metric, title) in [("QT", "query time"), ("IS", "index size"), ("IT", "index construction time")] {
        println!("\n== Table IV ({metric}: {title}) ==");
        let mut header = vec!["Distance", "Algorithm"];
        header.extend(datasets.iter().map(String::as_str));
        let mut rows = Vec::new();
        for measure in MEASURES {
            for algo in ALGOS {
                let mut row = vec![measure.name().to_string(), algo.to_string()];
                let mut any = false;
                for ds in &datasets {
                    let cell = cells.iter().find(|c| {
                        c.algo == algo && &c.dataset == ds && c.measure == measure.name()
                    });
                    row.push(match (metric, cell) {
                        (_, None) => "/".to_string(),
                        ("QT", Some(c)) => {
                            any = true;
                            fmt_secs(c.qt_s)
                        }
                        ("IS", Some(c)) => c.is_bytes.map_or("/".to_string(), |b| {
                            any = true;
                            fmt_bytes(b)
                        }),
                        ("IT", Some(c)) => c.it_s.map_or("/".to_string(), |t| {
                            any = true;
                            fmt_secs(t)
                        }),
                        _ => unreachable!(),
                    });
                }
                if any {
                    rows.push(row);
                }
            }
        }
        print_table(&header, &rows);
    }
}
