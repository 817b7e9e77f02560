use crate::{merge_top_k, refine_top_k, BaselineOutcome, BaselinePlacement};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use repose_cluster::{Cluster, ClusterConfig};
use repose_distance::{Measure, MeasureParams};
use repose_model::{Dataset, Mbr, Point, Segment, TrajStore, Trajectory};
use repose_rtree::RTree;
use repose_zorder::geohash_cell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// DFT configuration (Section VII-A: `C = 5`, the DFT-RB+DI variant).
#[derive(Debug, Clone, Copy)]
pub struct DftConfig {
    /// Simulated cluster topology.
    pub cluster: ClusterConfig,
    /// Number of partitions.
    pub num_partitions: usize,
    /// Threshold-sampling factor `C`: the query samples `C·k` trajectories.
    pub sample_factor: usize,
    /// Homogeneous (paper DFT) or heterogeneous (Heter-DFT, Table IX).
    pub placement: BaselinePlacement,
    /// RNG seed for threshold sampling.
    pub seed: u64,
}

impl DftConfig {
    /// The paper's settings on the default cluster.
    pub fn paper_default() -> Self {
        DftConfig {
            cluster: ClusterConfig::paper_default(),
            num_partitions: ClusterConfig::paper_default().total_cores(),
            sample_factor: 5,
            placement: BaselinePlacement::Homogeneous,
            seed: 0xDF7,
        }
    }
}

/// One DFT partition: an R-tree over local segment MBRs plus *copies of
/// every trajectory owning a local segment* — the regrouping storage that
/// gives DFT its large index (Table IV discussion). The copies live in a
/// flat [`TrajStore`] arena keyed by local slot.
#[derive(Debug)]
struct DftPartition {
    rtree: RTree<u32>,
    store: TrajStore,
}

/// The DFT baseline: distributed segment-granularity trajectory search.
#[derive(Debug)]
pub struct Dft {
    cluster: Cluster,
    config: DftConfig,
    parts: Vec<DftPartition>,
    /// Master copy used for threshold sampling (flat arena).
    master: TrajStore,
    measure: Measure,
    params: MeasureParams,
    index_time: Duration,
    index_bytes: usize,
}

impl Dft {
    /// Decomposes `dataset` into segments, partitions them by centroid
    /// order, and builds the per-partition R-trees.
    pub fn build(
        dataset: &Dataset,
        config: DftConfig,
        measure: Measure,
        params: MeasureParams,
    ) -> Self {
        assert!(
            matches!(measure, Measure::Hausdorff | Measure::Frechet | Measure::Dtw),
            "DFT supports Hausdorff, Frechet and DTW only (Section I)"
        );
        let t0 = Instant::now();
        let region = dataset
            .enclosing_square()
            .unwrap_or_else(|| Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let n = config.num_partitions;
        let mut parts: Vec<Vec<Segment>> = (0..n).map(|_| Vec::new()).collect();
        match config.placement {
            BaselinePlacement::Homogeneous => {
                // DFT's own strategy: "segments with close centroids in the
                // same partition" — z-order sort, contiguous chunks.
                let mut segments: Vec<Segment> = dataset
                    .trajectories()
                    .iter()
                    .flat_map(Trajectory::segments)
                    .collect();
                segments.sort_by_key(|s| geohash_cell(s.centroid(), &region, 10));
                let chunk = segments.len().div_ceil(n).max(1);
                for (i, s) in segments.into_iter().enumerate() {
                    parts[(i / chunk).min(n - 1)].push(s);
                }
            }
            BaselinePlacement::Heterogeneous => {
                // REPOSE's idea grafted onto DFT: spread *similar
                // trajectories* across partitions, round-robin over the
                // centroid-sorted trajectory order. Each trajectory's own
                // segments stay together (scattering them would duplicate
                // the trajectory into every partition for regrouping).
                let mut order: Vec<usize> = (0..dataset.len()).collect();
                let keys: Vec<u64> = dataset
                    .trajectories()
                    .iter()
                    .map(|t| {
                        let m = t.mbr().expect("non-empty trajectory");
                        geohash_cell(m.center(), &region, 10)
                    })
                    .collect();
                order.sort_by_key(|&i| (keys[i], dataset.trajectories()[i].id));
                for (i, ti) in order.into_iter().enumerate() {
                    parts[i % n].extend(dataset.trajectories()[ti].segments());
                }
            }
        }

        let id_index = dataset.id_index();
        let cluster = Cluster::new(config.cluster);
        let all = dataset.trajectories();
        let (parts, build_stats) = cluster.run_partitions(&parts, |_, segs| {
            // Local trajectory copies for regrouping, packed into one
            // arena so refinement scans contiguous memory.
            let mut local_of: HashMap<u64, u32> = HashMap::new();
            let mut store = TrajStore::new();
            let mut entries = Vec::with_capacity(segs.len());
            for s in segs {
                let li = *local_of.entry(s.traj_id).or_insert_with(|| {
                    let t = &all[id_index[&s.traj_id]];
                    store.push(t.id, &t.points) as u32
                });
                entries.push((s.mbr(), li));
            }
            let rtree = RTree::bulk_load(entries);
            DftPartition { rtree, store }
        });
        let index_time = t0.elapsed() - build_stats.host_wall + build_stats.makespan;
        let index_bytes = parts
            .iter()
            .map(|p| p.rtree.mem_bytes() + p.store.mem_bytes())
            .sum();
        Dft {
            cluster,
            config,
            parts,
            master: TrajStore::from_trajectories(dataset.trajectories()),
            measure,
            params,
            index_time,
            index_bytes,
        }
    }

    /// Distributed top-k: sample-based threshold, segment-level candidate
    /// generation, regroup-and-refine, master merge.
    pub fn query(&self, query: &[Point], k: usize) -> BaselineOutcome {
        let measure = self.measure;
        let params = self.params;
        if k == 0 || query.is_empty() || self.master.is_empty() {
            return BaselineOutcome {
                hits: Vec::new(),
                job: self.cluster.schedule(vec![Duration::ZERO; self.parts.len()], Duration::ZERO),
            };
        }
        // Phase 1: estimate the pruning threshold from C·k random
        // trajectories ("finds C·k trajectories at random from the dataset
        // and uses the k-th smallest distance as the threshold"). Only the
        // k-th smallest sample distance matters, so samples that cannot
        // beat the running k-th are abandoned early.
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ (query.len() as u64) << 32 ^ k as u64);
        let n_samples = (self.config.sample_factor * k).min(self.master.len());
        let sampled: Vec<(f64, u64, &[Point])> = sample(&mut rng, self.master.len(), n_samples)
            .into_iter()
            .map(|i| {
                let pts = self.master.points(i);
                (
                    params.lower_bound(measure, query, pts),
                    self.master.id(i),
                    pts,
                )
            })
            .collect();
        let sample_best = refine_top_k(sampled, query, measure, &params, k, f64::INFINITY);
        let dk = if sample_best.len() >= k {
            sample_best[k - 1].dist
        } else {
            f64::INFINITY
        };

        // Phase 2: per-partition candidate generation + refinement.
        let qmbr = Mbr::from_points(query).expect("non-empty query");
        let (locals, job) = self.cluster.run_partitions(&self.parts, |_, part| {
            // Candidates: trajectories owning a segment whose MBR is within
            // dk of the query MBR.
            let mut cand = vec![false; part.store.len()];
            part.rtree.visit(
                |m| m.min_dist_mbr(&qmbr) <= dk,
                |_, &li| cand[li as usize] = true,
            );
            // Regroup + refine under a running local top-k threshold,
            // capped at dk: every true global hit has distance <= dk and a
            // qualifying segment in some partition, so nothing is lost.
            let cands: Vec<(f64, u64, &[Point])> = cand
                .iter()
                .enumerate()
                .filter(|(_, &c)| c)
                .map(|(li, _)| {
                    let pts = part.store.points(li);
                    (
                        params.lower_bound(measure, query, pts),
                        part.store.id(li),
                        pts,
                    )
                })
                .collect();
            refine_top_k(cands, query, measure, &params, k, dk)
        });
        let hits = merge_top_k(locals.into_iter().flatten().collect(), k);
        BaselineOutcome { hits, job }
    }

    /// Index size in bytes (segment R-trees + regrouping copies).
    pub fn index_bytes(&self) -> usize {
        self.index_bytes
    }

    /// Simulated index construction time.
    pub fn index_time(&self) -> Duration {
        self.index_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::from_trajectories(
            (0..60u64)
                .map(|i| {
                    let y = (i % 12) as f64;
                    let x0 = (i / 12) as f64 * 3.0;
                    Trajectory::new(
                        i,
                        (0..10).map(|j| Point::new(x0 + j as f64 * 0.3, y)).collect(),
                    )
                })
                .collect(),
        )
    }

    fn small_cfg() -> DftConfig {
        DftConfig {
            cluster: ClusterConfig { workers: 2, cores_per_worker: 2 },
            num_partitions: 4,
            sample_factor: 5,
            placement: BaselinePlacement::Homogeneous,
            seed: 7,
        }
    }

    fn brute(d: &Dataset, q: &[Point], k: usize, m: Measure) -> Vec<u64> {
        let p = MeasureParams::default();
        let mut v: Vec<(f64, u64)> = d
            .trajectories()
            .iter()
            .map(|t| (p.distance(m, q, &t.points), t.id))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v.truncate(k);
        v.into_iter().map(|e| e.1).collect()
    }

    #[test]
    fn matches_brute_force() {
        let d = dataset();
        let q: Vec<Point> = (0..10).map(|j| Point::new(j as f64 * 0.3, 5.4)).collect();
        for m in [Measure::Hausdorff, Measure::Frechet, Measure::Dtw] {
            let dft = Dft::build(&d, small_cfg(), m, MeasureParams::default());
            for k in [1, 3, 10] {
                let got: Vec<u64> = dft.query(&q, k).hits.iter().map(|h| h.id).collect();
                assert_eq!(got, brute(&d, &q, k, m), "{m} k={k}");
            }
        }
    }

    #[test]
    fn heterogeneous_placement_matches_too() {
        let d = dataset();
        let q: Vec<Point> = (0..10).map(|j| Point::new(j as f64 * 0.3, 2.1)).collect();
        let mut cfg = small_cfg();
        cfg.placement = BaselinePlacement::Heterogeneous;
        let dft = Dft::build(&d, cfg, Measure::Hausdorff, MeasureParams::default());
        let got: Vec<u64> = dft.query(&q, 5).hits.iter().map(|h| h.id).collect();
        assert_eq!(got, brute(&d, &q, 5, Measure::Hausdorff));
    }

    #[test]
    fn index_duplicates_trajectories() {
        // Segments of one trajectory scatter across partitions, so the
        // total stored trajectory bytes exceed the dataset's own footprint.
        let d = dataset();
        let dft = Dft::build(&d, small_cfg(), Measure::Hausdorff, MeasureParams::default());
        let raw: usize = d.trajectories().iter().map(Trajectory::mem_bytes).sum();
        assert!(
            dft.index_bytes() > raw,
            "index {} should exceed raw data {raw}",
            dft.index_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "DFT supports")]
    fn rejects_unsupported_measure() {
        Dft::build(&dataset(), small_cfg(), Measure::Lcss, MeasureParams::default());
    }

    #[test]
    fn empty_query_and_k_zero() {
        let d = dataset();
        let dft = Dft::build(&d, small_cfg(), Measure::Hausdorff, MeasureParams::default());
        assert!(dft.query(&[], 5).hits.is_empty());
        let q = vec![Point::new(0.0, 0.0)];
        assert!(dft.query(&q, 0).hits.is_empty());
    }
}
