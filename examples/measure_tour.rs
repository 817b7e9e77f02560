//! A tour of all six similarity measures on the same dataset — the
//! "limited support for similarity measures" motivation of Section I made
//! runnable: one REPOSE deployment per measure, same API, exact top-k
//! verified against a brute-force scan.
//!
//! ```sh
//! cargo run --release --example measure_tour
//! ```

use repose::{Repose, ReposeConfig};
use repose_datagen::{sample_queries, PaperDataset};
use repose_distance::{Measure, MeasureParams};

fn main() {
    let dataset = PaperDataset::SF.generate(0.2, 5);
    let query = &sample_queries(&dataset, 3, 99)[1];
    println!(
        "SF-like dataset: {} trajectories; query = trajectory {} ({} points)\n",
        dataset.len(),
        query.id,
        query.len()
    );
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>14}  top-3 (id: distance)",
        "measure", "metric?", "trie nodes", "pruned", "exact comps"
    );

    // ε for LCSS/EDR around one grid cell; ERP gap at the region center.
    let params = MeasureParams::with_eps(0.02);

    for measure in Measure::ALL {
        let config = ReposeConfig::new(measure)
            .with_partitions(8)
            .with_delta(PaperDataset::SF.paper_delta(measure))
            .with_params(params);
        let repose = Repose::build(&dataset, config);
        let out = repose.query(&query.points, 3);

        // Cross-check against brute force. Distances, not ids: under a tie
        // at the k-th distance any tied subset is a correct answer
        // (Definition 3), so the index and the scan may keep different ids.
        let mut brute: Vec<f64> = dataset
            .trajectories()
            .iter()
            .map(|t| params.distance(measure, &query.points, &t.points))
            .collect();
        brute.sort_by(f64::total_cmp);
        assert_eq!(
            out.hits.iter().map(|h| h.dist.to_bits()).collect::<Vec<_>>(),
            brute.iter().take(3).map(|d| d.to_bits()).collect::<Vec<_>>(),
            "{measure}: index answer must equal the scan answer"
        );

        let tops: Vec<String> = out
            .hits
            .iter()
            .map(|h| format!("{}: {:.4}", h.id, h.dist))
            .collect();
        println!(
            "{:<10} {:>8} {:>12} {:>10} {:>14}  {}",
            measure.name(),
            if measure.is_metric() { "yes" } else { "no" },
            repose.trie_nodes(),
            out.search.nodes_pruned + out.search.leaves_pruned,
            out.search.exact_computations,
            tops.join(", ")
        );
    }
    println!("\nAll six measures return exactly the brute-force answer.");
}
