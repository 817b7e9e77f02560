//! Global partitioning strategies (Section V of the paper).
//!
//! The heterogeneous strategy is REPOSE's: cluster similar trajectories
//! (geohash key equality at a granularity coarsened until about `N / NG`
//! clusters remain — the SOM-TC style loop of Section V-B), sort by
//! (cluster id, trajectory id), then deal round-robin so every partition
//! receives a slice of *every* cluster. Homogeneous (DITA/DFT-style
//! similar-together placement) and random are the Table VII baselines.

use repose_model::{Mbr, TrajStore};
use repose_zorder::geohash_key;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// The three strategies of Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PartitionStrategy {
    /// REPOSE: similar trajectories spread across partitions.
    Heterogeneous,
    /// Baseline: similar trajectories kept together (DITA/DFT style).
    Homogeneous,
    /// Baseline: uniform random placement.
    Random,
}

impl PartitionStrategy {
    /// Display name matching Table VII.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionStrategy::Heterogeneous => "Heterogeneous",
            PartitionStrategy::Homogeneous => "Homogeneous",
            PartitionStrategy::Random => "Random",
        }
    }
}

/// Splits the trajectories of `store` into `n_partitions` slot lists
/// according to `strategy` — the allocation-light core of partitioning:
/// no points are copied, only slot indices are dealt out. The caller
/// materializes per-partition [`TrajStore`]s with arena-to-arena range
/// copies.
///
/// Returns the partitions in order; the caller assigns partition `p` to
/// worker `p % workers` (Spark-style placement).
pub fn partition_slots(
    store: &TrajStore,
    region: &Mbr,
    strategy: PartitionStrategy,
    n_partitions: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    partition_slots_by(
        store.len(),
        &|slot| store.points(slot),
        &|slot| store.id(slot),
        region,
        strategy,
        n_partitions,
        seed,
    )
}

/// The strategy dispatch over an `(points, id)` accessor pair — one
/// implementation serves the arena ([`partition_slots`]) and
/// framework-build fronts, so the deal-out rules cannot drift between
/// them.
pub(crate) fn partition_slots_by<'a>(
    n: usize,
    points_of: &dyn Fn(usize) -> &'a [repose_model::Point],
    id_of: &dyn Fn(usize) -> repose_model::TrajId,
    region: &Mbr,
    strategy: PartitionStrategy,
    n_partitions: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(n_partitions > 0, "need at least one partition");
    let mut parts: Vec<Vec<usize>> = (0..n_partitions).map(|_| Vec::new()).collect();
    if n == 0 {
        return parts;
    }
    match strategy {
        PartitionStrategy::Random => {
            let mut rng = StdRng::seed_from_u64(seed);
            for slot in 0..n {
                parts[rng.random_range(0..n_partitions)].push(slot);
            }
        }
        PartitionStrategy::Heterogeneous => {
            let order = cluster_sorted_order(n, points_of, id_of, region, n_partitions);
            for (i, ti) in order.into_iter().enumerate() {
                parts[i % n_partitions].push(ti);
            }
        }
        PartitionStrategy::Homogeneous => {
            // Same cluster-sorted order, but contiguous chunks: whole
            // clusters land in the same partition.
            let order = cluster_sorted_order(n, points_of, id_of, region, n_partitions);
            let chunk = order.len().div_ceil(n_partitions);
            for (i, ti) in order.into_iter().enumerate() {
                parts[(i / chunk).min(n_partitions - 1)].push(ti);
            }
        }
    }
    parts
}

/// The SOM-TC style clustering loop: find the finest geohash granularity
/// that yields at most ~`N / NG` clusters, then emit trajectory slots
/// sorted by (cluster id, trajectory id).
fn cluster_sorted_order<'a>(
    n: usize,
    points_of: &dyn Fn(usize) -> &'a [repose_model::Point],
    id_of: &dyn Fn(usize) -> repose_model::TrajId,
    region: &Mbr,
    n_partitions: usize,
) -> Vec<usize> {
    let target = (n / n_partitions).max(1);
    let mut chosen: Option<Vec<u64>> = None;
    // Start fine (each trajectory its own cluster) and coarsen.
    for bits in (1..=12u8).rev() {
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|slot| geohash_key(points_of(slot), region, bits))
            .collect();
        let distinct = {
            let mut set: HashMap<&[u64], ()> = HashMap::with_capacity(n);
            for k in &keys {
                set.insert(k.as_slice(), ());
            }
            set.len()
        };
        if distinct <= target || bits == 1 {
            // Assign dense cluster ids in key-sorted order.
            let mut ids: HashMap<&[u64], u64> = HashMap::with_capacity(distinct);
            let mut sorted: Vec<&[u64]> = keys.iter().map(Vec::as_slice).collect();
            sorted.sort_unstable();
            sorted.dedup();
            for (cid, k) in sorted.into_iter().enumerate() {
                ids.insert(k, cid as u64);
            }
            chosen = Some(keys.iter().map(|k| ids[k.as_slice()]).collect());
            break;
        }
    }
    let cluster_of = chosen.expect("loop always terminates at bits == 1");
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (cluster_of[i], id_of(i)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_model::Point;
    use std::collections::HashSet;

    /// Ten clusters of ten near-identical trajectories each; the id of
    /// trajectory `j` of cluster `c` is `10 c + j`.
    fn clustered_store() -> (TrajStore, Mbr) {
        let mut store = TrajStore::new();
        let mut id = 0;
        for c in 0..10 {
            let cx = (c % 5) as f64 * 20.0;
            let cy = (c / 5) as f64 * 40.0;
            for j in 0..10 {
                let jitter = j as f64 * 0.01;
                let points: Vec<Point> = (0..10)
                    .map(|s| Point::new(cx + s as f64 * 0.5 + jitter, cy + jitter))
                    .collect();
                store.push(id, &points);
                id += 1;
            }
        }
        let region = store.enclosing_square().unwrap();
        (store, region)
    }

    /// The distinct clusters a partition's slots cover.
    fn clusters(store: &TrajStore, slots: &[usize]) -> HashSet<u64> {
        slots.iter().map(|&s| store.id(s) / 10).collect()
    }

    #[test]
    fn all_strategies_conserve_items() {
        let (store, region) = clustered_store();
        for s in [
            PartitionStrategy::Heterogeneous,
            PartitionStrategy::Homogeneous,
            PartitionStrategy::Random,
        ] {
            let parts = partition_slots(&store, &region, s, 4, 1);
            assert_eq!(parts.len(), 4);
            let mut ids: Vec<u64> = parts.iter().flatten().map(|&slot| store.id(slot)).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..store.len() as u64).collect::<Vec<_>>(), "{s:?}");
        }
    }

    #[test]
    fn heterogeneous_spreads_clusters() {
        let (store, region) = clustered_store();
        let parts = partition_slots(&store, &region, PartitionStrategy::Heterogeneous, 5, 1);
        // Every partition should hold trajectories from most clusters.
        for (pi, p) in parts.iter().enumerate() {
            let covered = clusters(&store, p).len();
            assert!(covered >= 8, "partition {pi} covers only {covered} clusters");
        }
        // Balanced sizes (round-robin guarantees ±1).
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn homogeneous_keeps_clusters_together() {
        let (store, region) = clustered_store();
        let parts = partition_slots(&store, &region, PartitionStrategy::Homogeneous, 5, 1);
        // Most partitions should see few distinct clusters.
        let avg_clusters: f64 = parts.iter().map(|p| clusters(&store, p).len() as f64).sum::<f64>()
            / parts.len() as f64;
        assert!(
            avg_clusters <= 4.0,
            "homogeneous partitions too mixed: {avg_clusters}"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let (store, region) = clustered_store();
        let a = partition_slots(&store, &region, PartitionStrategy::Random, 4, 5);
        let b = partition_slots(&store, &region, PartitionStrategy::Random, 4, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_dataset_yields_empty_partitions() {
        let region = Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let parts =
            partition_slots(&TrajStore::new(), &region, PartitionStrategy::Heterogeneous, 3, 1);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(Vec::is_empty));
    }

    #[test]
    fn single_partition_gets_everything() {
        let (store, region) = clustered_store();
        let parts = partition_slots(&store, &region, PartitionStrategy::Heterogeneous, 1, 1);
        assert_eq!(parts[0].len(), store.len());
    }
}
