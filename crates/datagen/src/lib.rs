//! Synthetic trajectory dataset generators.
//!
//! The paper evaluates on seven real datasets (Table III). Those corpora
//! are not redistributable here, so this crate generates *synthetic stand-
//! ins that match the statistics that drive index behaviour*: cardinality
//! (scaled down for single-host experiments), average trajectory length,
//! spatial span, and density skew (trips concentrate around hotspots, like
//! taxi data). The replication experiments (`repose-bench`) therefore
//! reproduce the shapes and ratios of the paper's tables and figures, not
//! their absolute numbers.
//!
//! Movement model: a trajectory starts near one of `hotspots` urban
//! centers, picks a heading, and random-walks with heading momentum and
//! occasional turns — the classic taxi-trace caricature. Everything is
//! seeded and deterministic.
//!
//! ```
//! use repose_datagen::{sample_queries, PaperDataset};
//!
//! let data = PaperDataset::TDrive.generate(0.05, 42);
//! assert!(!data.is_empty());
//! // Same seed, same dataset.
//! assert_eq!(data.len(), PaperDataset::TDrive.generate(0.05, 42).len());
//!
//! // The paper's query workload: uniformly sampled dataset members.
//! let queries = sample_queries(&data, 3, 7);
//! assert_eq!(queries.len(), 3);
//! assert!(queries.iter().all(|q| data.trajectories().iter().any(|t| t.id == q.id)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod spec;
mod walker;

pub use spec::{DataSpec, PaperDataset};
pub use walker::generate;

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use repose_model::{Dataset, Trajectory};

/// Uniformly samples `n` query trajectories from `data` (Section VII-A:
/// "We uniformly and randomly select 100 trajectories as the query set").
pub fn sample_queries(data: &Dataset, n: usize, seed: u64) -> Vec<Trajectory> {
    let n = n.min(data.len());
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idxs = sample(&mut rng, data.len(), n).into_vec();
    idxs.sort_unstable();
    idxs.into_iter()
        .map(|i| data.trajectories()[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_queries_is_deterministic() {
        let d = PaperDataset::TDrive.generate(0.05, 7);
        let a = sample_queries(&d, 5, 3);
        let b = sample_queries(&d, 5, 3);
        assert_eq!(a.len(), 5);
        assert_eq!(
            a.iter().map(|t| t.id).collect::<Vec<_>>(),
            b.iter().map(|t| t.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sample_queries_caps_at_dataset_size() {
        let d = PaperDataset::Rome.generate(0.01, 7);
        let q = sample_queries(&d, 10_000, 1);
        assert_eq!(q.len(), d.len());
    }

    #[test]
    fn sample_queries_empty_dataset() {
        assert!(sample_queries(&Dataset::new(), 10, 1).is_empty());
    }
}
