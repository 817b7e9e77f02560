//! The competing algorithms of Section VII: distributed linear scan (LS),
//! DFT (segment R-trees, Xie et al. PVLDB'17) and DITA (pivot-based tries,
//! Shang et al. SIGMOD'18).
//!
//! Each baseline follows its paper's algorithmic skeleton at the fidelity
//! the REPOSE evaluation depends on:
//!
//! * **LS** — exact distances in every partition, master-side merge.
//! * **DFT** — trajectories are decomposed into segments; segments are
//!   globally partitioned by centroid (homogeneous); each partition holds
//!   an STR R-tree over its segment MBRs *and a copy of every trajectory
//!   owning a local segment* (the "regrouping" requirement that gives DFT
//!   its ~4× index size in Table IV). Queries estimate a distance threshold
//!   from `C·k` random samples — the source of DFT's unstable query times.
//! * **DITA** — per-trajectory pivot points (first/last + high-curvature
//!   interior points), global STR partitioning by (first, last) point,
//!   local first/last-cell trie with pivot-based lower bounds, and top-k by
//!   iterative threshold halving over range queries. No Hausdorff support,
//!   matching the paper.
//!
//! All three execute on the same simulated [`repose_cluster::Cluster`] as
//! REPOSE, so query times (simulated makespans) are directly comparable.
//!
//! ```
//! use repose_baselines::LinearScan;
//! use repose_cluster::ClusterConfig;
//! use repose_distance::{Measure, MeasureParams};
//! use repose_model::{Dataset, Point, Trajectory};
//!
//! let trajs: Vec<Trajectory> = (0..40)
//!     .map(|i| {
//!         let y = (i % 8) as f64;
//!         Trajectory::new(i, (0..6).map(|j| Point::new(j as f64, y)).collect())
//!     })
//!     .collect();
//! let data = Dataset::from_trajectories(trajs);
//! let cluster = ClusterConfig { workers: 2, cores_per_worker: 2 };
//!
//! // The exact-but-slow yardstick every index is measured against.
//! let ls = LinearScan::build(&data, cluster, 4, Measure::Hausdorff, MeasureParams::default());
//! let query: Vec<Point> = (0..6).map(|j| Point::new(j as f64, 0.2)).collect();
//! let out = ls.query(&query, 3);
//! assert_eq!(out.hits.len(), 3);
//! assert_eq!(out.hits[0].id, 0); // the y = 0 trip wins
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dft;
mod dita;
mod ls;

pub use dft::{Dft, DftConfig};
pub use dita::{Dita, DitaConfig};
pub use ls::LinearScan;

use repose_cluster::JobStats;
use repose_model::TrajId;

/// A scored hit returned by a baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineHit {
    /// Trajectory id.
    pub id: TrajId,
    /// Distance to the query.
    pub dist: f64,
}

/// Outcome of one distributed baseline query.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Global top-k, ascending by distance (ties by id).
    pub hits: Vec<BaselineHit>,
    /// Scheduling stats; `job.makespan` is the simulated query time.
    pub job: JobStats,
}

pub(crate) fn merge_top_k(
    mut hits: Vec<BaselineHit>,
    k: usize,
) -> Vec<BaselineHit> {
    hits.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    hits.dedup_by_key(|h| h.id);
    hits.truncate(k);
    hits
}

/// Exact refinement of `(lower_bound, id, points)` candidates under a
/// running top-k threshold — the early-abandoning counterpart of "score
/// every candidate, sort, truncate to k" that DITA and DFT used to do.
/// [`repose_distance::MeasureParams::refine_by_bound`] under a collector
/// private to the call whose bound starts at `cap` (inclusive); see there
/// for the ordering and tie semantics. The result is the k smallest
/// `(dist, id)` pairs among candidates with `dist <= cap` — identical to
/// what exhaustive exact scoring would keep.
pub(crate) fn refine_top_k(
    cands: Vec<(f64, TrajId, &[repose_model::Point])>,
    query: &[repose_model::Point],
    measure: repose_distance::Measure,
    params: &repose_distance::MeasureParams,
    k: usize,
    cap: f64,
) -> Vec<BaselineHit> {
    let collector = repose_distance::SharedTopK::with_initial_bound(k, cap);
    repose_distance::DistScratch::with_thread(|scratch| {
        params.refine_by_bound(measure, query, &collector, cands, |_| {}, scratch)
    });
    collector.hits().into_iter().map(|h| BaselineHit { id: h.id, dist: h.dist }).collect()
}

/// Whether baseline partitions follow their paper's homogeneous placement
/// or REPOSE's heterogeneous round-robin (the Heter-DITA / Heter-DFT
/// variants of Tables VIII and IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselinePlacement {
    /// The baseline's own similar-together partitioning.
    Homogeneous,
    /// REPOSE-style heterogeneous round-robin over the similarity order.
    Heterogeneous,
}
