//! Quickstart: build a REPOSE deployment over a synthetic taxi dataset and
//! run a distributed top-k query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use repose::{Repose, ReposeConfig};
use repose_datagen::{sample_queries, PaperDataset};
use repose_distance::Measure;

fn main() {
    // 1. Generate a scaled-down, synthetic T-drive-like dataset (matching
    //    the statistics of Table III of the paper; see `repose_datagen`).
    let dataset = PaperDataset::TDrive.generate(0.25, 42);
    let stats = dataset.stats();
    println!(
        "dataset: {} trajectories, avg length {:.1}, span ({:.2}, {:.2})",
        stats.cardinality, stats.avg_len, stats.spatial_span.0, stats.spatial_span.1
    );

    // 2. Build the distributed index: heterogeneous partitioning + one
    //    RP-Trie per partition, on a simulated 16x4 cluster.
    let config = ReposeConfig::new(Measure::Hausdorff)
        .with_partitions(16)
        .with_delta(PaperDataset::TDrive.paper_delta(Measure::Hausdorff));
    let repose = Repose::build(&dataset, config);
    println!(
        "index: {} partitions, {} trie nodes, {:.1} KiB, built in {:?} (simulated)",
        repose.num_partitions(),
        repose.trie_nodes(),
        repose.index_bytes() as f64 / 1024.0,
        repose.index_time()
    );

    // 3. Query: the top-10 trajectories most similar to a held-out one.
    let query = &sample_queries(&dataset, 1, 7)[0];
    let outcome = repose.query(&query.points, 10);
    println!(
        "query: {:?} simulated distributed time, {} exact distance computations",
        outcome.query_time(),
        outcome.search.exact_computations
    );
    for (rank, hit) in outcome.hits.iter().enumerate() {
        println!("  #{:<2} trajectory {:<6} distance {:.5}", rank + 1, hit.id, hit.dist);
    }
    assert_eq!(outcome.hits[0].id, query.id, "the query itself is rank 1");
}
