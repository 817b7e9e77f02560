use crate::{merge_top_k, BaselineOutcome};
use repose_cluster::{Cluster, ClusterConfig};
use repose_distance::{DistScratch, Hit, Measure, MeasureParams};
use repose_model::{Dataset, Point, TrajStore};

/// Brute-force distributed linear scan: computes the exact distance between
/// the query and every trajectory in every partition, then merges
/// (Section VII-A, baseline 3).
///
/// Each partition's data is one flat [`TrajStore`] arena, so the scan is a
/// linear walk over contiguous points with a per-thread reusable kernel
/// scratch — the yardstick pays the same memory discipline as the index.
#[derive(Debug)]
pub struct LinearScan {
    cluster: Cluster,
    parts: Vec<TrajStore>,
    measure: Measure,
    params: MeasureParams,
}

impl LinearScan {
    /// Distributes `dataset` round-robin over `num_partitions`.
    pub fn build(
        dataset: &Dataset,
        cluster_cfg: ClusterConfig,
        num_partitions: usize,
        measure: Measure,
        params: MeasureParams,
    ) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        let mut parts: Vec<TrajStore> = (0..num_partitions).map(|_| TrajStore::new()).collect();
        for (i, t) in dataset.trajectories().iter().enumerate() {
            parts[i % num_partitions].push(t.id, &t.points);
        }
        LinearScan { cluster: Cluster::new(cluster_cfg), parts, measure, params }
    }

    /// Distributed top-k by exhaustive scan.
    pub fn query(&self, query: &[Point], k: usize) -> BaselineOutcome {
        let measure = self.measure;
        let params = self.params;
        let (locals, job) = self.cluster.run_partitions(&self.parts, |_, store| {
            let mut hits: Vec<Hit> = DistScratch::with_thread(|scratch| {
                store
                    .iter()
                    .map(|(id, pts)| Hit {
                        id,
                        dist: params.distance_in(measure, query, pts, scratch),
                    })
                    .collect()
            });
            hits.sort_by(Hit::cmp_by_dist_then_id);
            hits.truncate(k);
            hits
        });
        let hits = merge_top_k(locals.into_iter().flatten().collect(), k);
        BaselineOutcome { hits, job }
    }

    /// LS keeps no index (Table IV reports "/" for its IS and IT).
    pub fn index_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_model::Trajectory;

    fn dataset() -> Dataset {
        Dataset::from_trajectories(
            (0..50u64)
                .map(|i| {
                    let y = i as f64;
                    Trajectory::new(i, (0..10).map(|j| Point::new(j as f64, y)).collect())
                })
                .collect(),
        )
    }

    #[test]
    fn finds_exact_top_k() {
        let d = dataset();
        let ls = LinearScan::build(
            &d,
            ClusterConfig { workers: 2, cores_per_worker: 2 },
            4,
            Measure::Hausdorff,
            MeasureParams::default(),
        );
        let q: Vec<Point> = (0..10).map(|j| Point::new(j as f64, 10.2)).collect();
        let out = ls.query(&q, 3);
        let ids: Vec<u64> = out.hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![10, 11, 9]); // 10 at 0.2, 11 at 0.8, 9 at 1.2
        assert_eq!(out.job.partition_times.len(), 4);
    }

    #[test]
    fn k_zero_returns_empty() {
        let d = dataset();
        let ls = LinearScan::build(
            &d,
            ClusterConfig { workers: 2, cores_per_worker: 1 },
            2,
            Measure::Dtw,
            MeasureParams::default(),
        );
        let q = vec![Point::new(0.0, 0.0)];
        assert!(ls.query(&q, 0).hits.is_empty());
    }

    #[test]
    fn no_index_cost() {
        let d = dataset();
        let ls = LinearScan::build(
            &d,
            ClusterConfig::paper_default(),
            8,
            Measure::Frechet,
            MeasureParams::default(),
        );
        assert_eq!(ls.index_bytes(), 0);
    }
}
