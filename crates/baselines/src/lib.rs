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
//! DITA and DFT verify their candidates through REPOSE's own verification
//! step ([`repose_distance::MeasureParams::verify`]), so the exact kernels
//! and the tie rule are the same on every side of the comparison.
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
use repose_distance::{
    bound_exceeds, just_above, DistScratch, Hit, Measure, MeasureParams, SharedTopK,
};
use repose_model::{Point, TrajId};

/// Outcome of one distributed baseline query.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Global top-k, ascending by distance (ties by id).
    pub hits: Vec<Hit>,
    /// Scheduling stats; `job.makespan` is the simulated query time.
    pub job: JobStats,
}

/// The global top-k of per-partition hit lists. DFT copies a trajectory
/// into every partition owning one of its segments, so an id can arrive
/// more than once; it is kept once, at its (equal) distance.
pub(crate) fn merge_top_k(mut hits: Vec<Hit>, k: usize) -> Vec<Hit> {
    hits.sort_by(Hit::cmp_by_dist_then_id);
    hits.dedup_by_key(|h| h.id);
    hits.truncate(k);
    hits
}

/// Exact refinement of `(lower_bound, id, points)` candidates under a
/// running top-k threshold — the early-abandoning counterpart of "score
/// every candidate, sort, truncate to k" that DITA and DFT used to do.
/// Candidates are sorted by `(bound, id)`, so the k-th distance tightens on
/// the likely-closest ones first, and handed to the one verification step
/// ([`repose_distance::MeasureParams::verify`]) until a bound proves the
/// sorted rest cannot beat the cutoff. The collector is private to the
/// call and seeded at `just_above(cap)`, so candidates at exactly `cap`
/// are kept. The result is the k smallest distances among candidates with
/// `dist <= cap` — what exhaustive exact scoring would keep, up to which
/// ids tie at the k-th distance (Definition 3).
pub(crate) fn refine_top_k(
    mut cands: Vec<(f64, TrajId, &[Point])>,
    query: &[Point],
    measure: Measure,
    params: &MeasureParams,
    k: usize,
    cap: f64,
) -> Vec<Hit> {
    cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let collector = SharedTopK::with_initial_bound(k, just_above(cap));
    let live = cands.into_iter().take_while(|c| !bound_exceeds(c.0, collector.bound()));
    DistScratch::with_thread(|scratch| params.verify(measure, query, live, &collector, scratch));
    collector.hits()
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
