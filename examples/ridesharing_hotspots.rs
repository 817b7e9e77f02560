//! Ridesharing analytics scenario (the paper's motivating batch workload):
//! a fleet operator issues a *batch* of top-k queries concentrated in hot
//! city regions and needs every compute node to contribute.
//!
//! This example contrasts heterogeneous and homogeneous partitioning on a
//! skewed query batch, reporting per-strategy worker utilization and load
//! imbalance — the Section V-A argument made concrete.
//!
//! ```sh
//! cargo run --release --example ridesharing_hotspots
//! ```

use repose::{PartitionStrategy, Repose, ReposeConfig};
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use repose_model::Trajectory;
use std::time::Duration;

fn main() {
    let dataset = PaperDataset::Xian.generate(0.6, 11);
    println!(
        "Xi'an-like dataset: {} trajectories (dense downtown hotspots)",
        dataset.len()
    );

    // The skewed batch: queries drawn from the single busiest hotspot —
    // the "ride-hailing companies issue analysis queries in hot regions"
    // situation from Section V-A.
    let hot = hottest_region_queries(&dataset, 8);
    println!("query batch: {} trajectories from the busiest region\n", hot.len());

    for strategy in [
        PartitionStrategy::Heterogeneous,
        PartitionStrategy::Homogeneous,
        PartitionStrategy::Random,
    ] {
        let config = ReposeConfig::new(Measure::Hausdorff)
            .with_partitions(16)
            .with_delta(PaperDataset::Xian.paper_delta(Measure::Hausdorff))
            .with_strategy(strategy);
        let repose = Repose::build(&dataset, config);

        let mut total = Duration::ZERO;
        let mut imbalance = 0.0;
        let mut utilization = 0.0;
        for q in &hot {
            let out = repose.query(&q.points, 10);
            total += out.query_time();
            imbalance += out.job.imbalance();
            utilization += out.job.worker_utilization();
        }
        let n = hot.len() as f64;
        println!(
            "{:<14} batch time {:>9.3?}  imbalance {:>5.2}  worker utilization {:>4.0}%",
            strategy.name(),
            total,
            imbalance / n,
            100.0 * utilization / n
        );
    }
    println!("\nHeterogeneous partitioning equalizes per-worker work on a skewed batch");
    println!("(imbalance near 1); homogeneous placement concentrates the hot region's");
    println!("work on few workers, inflating the distributed makespan (Table VII's shape).");
}

/// Picks `n` query trajectories starting inside the busiest start-cell.
fn hottest_region_queries(dataset: &repose_model::Dataset, n: usize) -> Vec<Trajectory> {
    use std::collections::HashMap;
    let region = dataset.enclosing_square().expect("non-empty dataset");
    let cell = |t: &Trajectory| {
        let p = t.first().expect("non-empty trajectory");
        let gx = ((p.x - region.min.x) / region.width() * 8.0) as u32;
        let gy = ((p.y - region.min.y) / region.width() * 8.0) as u32;
        (gx.min(7), gy.min(7))
    };
    let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
    for t in dataset.trajectories() {
        *counts.entry(cell(t)).or_default() += 1;
    }
    let hottest = counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .expect("non-empty dataset")
        .0;
    dataset
        .trajectories()
        .iter()
        .filter(|t| cell(t) == hottest)
        .take(n)
        .cloned()
        .collect()
}
