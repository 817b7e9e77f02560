use crate::RpTrieConfig;
use repose_distance::DistScratch;
use repose_model::{Point, TrajStore};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// The pivot trajectories selected for a partition (Section III-B).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct PivotSet {
    pivots: Vec<Vec<Point>>,
}

impl PivotSet {
    /// The empty pivot set (non-metric measures, or `Np = 0`).
    pub fn empty() -> Self {
        PivotSet::default()
    }

    /// Number of pivots `Np`.
    pub fn len(&self) -> usize {
        self.pivots.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pivots.is_empty()
    }

    /// The pivot trajectories.
    pub fn pivots(&self) -> &[Vec<Point>] {
        &self.pivots
    }

    /// Distances from `query` to all pivots under the index measure —
    /// the `dqp` array of Section IV-D.
    pub fn query_distances(&self, cfg: &RpTrieConfig, query: &[Point]) -> Vec<f64> {
        DistScratch::with_thread(|s| self.query_distances_in(cfg, query, s))
    }

    /// [`PivotSet::query_distances`] against a caller-managed
    /// [`DistScratch`].
    pub fn query_distances_in(
        &self,
        cfg: &RpTrieConfig,
        query: &[Point],
        scratch: &mut DistScratch,
    ) -> Vec<f64> {
        self.pivots
            .iter()
            .map(|p| cfg.params.distance_in(cfg.measure, query, p, scratch))
            .collect()
    }

    /// Approximate heap size in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.pivots
            .iter()
            .map(|p| p.capacity() * std::mem::size_of::<Point>())
            .sum()
    }
}

/// Selects `Np` pivot trajectories by the paper's sampling heuristic
/// (Section III-B, following its reference \[21\]):
///
/// Uniformly sample `m` candidate groups of `Np` trajectories each; score a
/// group by the sum of all pairwise distances between its members; keep the
/// group with the largest score (pivots as mutually distant as possible).
///
/// Deterministic for a fixed `cfg.seed`.
pub fn select_pivots(store: &TrajStore, cfg: &RpTrieConfig) -> PivotSet {
    let np = cfg.np.min(store.len());
    if np == 0 || store.is_empty() {
        return PivotSet::empty();
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let groups = cfg.pivot_groups.max(1);
    let mut best_score = f64::NEG_INFINITY;
    let mut best: Vec<usize> = Vec::new();
    DistScratch::with_thread(|scratch| {
        for _ in 0..groups {
            let idxs: Vec<usize> = sample(&mut rng, store.len(), np).into_vec();
            let mut score = 0.0;
            for i in 0..idxs.len() {
                for j in (i + 1)..idxs.len() {
                    score += cfg.params.distance_in(
                        cfg.measure,
                        store.points(idxs[i]),
                        store.points(idxs[j]),
                        scratch,
                    );
                }
            }
            if score > best_score {
                best_score = score;
                best = idxs;
            }
        }
    });
    PivotSet {
        pivots: best.into_iter().map(|i| store.points(i).to_vec()).collect(),
    }
}

/// The pivot-based lower bound `LBp` (Section IV-D, in the corrected form
/// derived here from the triangle inequality):
///
/// With `dqp[i] = D(τq, pivot_i)` and `hr` the node's interleaved
/// `min, max` interval floats over `D(pivot_i, τ)` for every trajectory
/// `τ` in the subtree (`hr[2i], hr[2i + 1]` — the flat layout
/// [`crate::FrozenTrie::hr`] stores and archives), the triangle inequality
/// gives `D(τq, τ) >= max(dqp[i] - hr[2i+1], hr[2i] - dqp[i], 0)`.
pub fn pivot_lower_bound(dqp: &[f64], hr: &[f64]) -> f64 {
    debug_assert_eq!(dqp.len() * 2, hr.len());
    let mut lb = 0.0f64;
    for (d, pair) in dqp.iter().zip(hr.chunks_exact(2)) {
        let (lo, hi) = (pair[0], pair[1]);
        let b = (d - hi).max(lo - d);
        if b > lb {
            lb = b;
        }
    }
    lb
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_distance::Measure;

    fn store_of(n: u64, offset: impl Fn(u64) -> f64) -> TrajStore {
        let mut s = TrajStore::new();
        for i in 0..n {
            let o = offset(i);
            let pts: Vec<Point> = (0..5).map(|j| Point::new(o + j as f64, o)).collect();
            s.push(i, &pts);
        }
        s
    }

    fn cfg() -> RpTrieConfig {
        RpTrieConfig::for_measure(Measure::Hausdorff)
    }

    #[test]
    fn selects_np_pivots() {
        let store = store_of(20, |i| i as f64);
        let p = select_pivots(&store, &cfg().with_np(5));
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn np_capped_by_dataset_size() {
        let store = store_of(3, |i| i as f64);
        let p = select_pivots(&store, &cfg().with_np(5));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn empty_when_disabled_or_no_data() {
        assert!(select_pivots(&TrajStore::new(), &cfg()).is_empty());
        let store = store_of(1, |_| 0.0);
        assert!(select_pivots(&store, &cfg().with_np(0)).is_empty());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let store = store_of(30, |i| (i * 7 % 13) as f64);
        let a = select_pivots(&store, &cfg().with_seed(9));
        let b = select_pivots(&store, &cfg().with_seed(9));
        assert_eq!(a.pivots(), b.pivots());
    }

    #[test]
    fn prefers_spread_out_groups() {
        // Two tight clusters far apart; a good pivot pair spans both.
        let mut store = store_of(10, |_| 0.0);
        for i in 10..20u64 {
            let pts: Vec<Point> =
                (0..5).map(|j| Point::new(1000.0 + j as f64, 1000.0)).collect();
            store.push(i, &pts);
        }
        let p = select_pivots(&store, &cfg().with_np(2).with_seed(3));
        let d = cfg()
            .params
            .distance(Measure::Hausdorff, &p.pivots()[0], &p.pivots()[1]);
        assert!(d > 100.0, "pivots should span the clusters, got {d}");
    }

    #[test]
    fn pivot_lower_bound_cases() {
        // query far outside the subtree's pivot-distance interval
        assert_eq!(pivot_lower_bound(&[10.0], &[1.0, 3.0]), 7.0);
        // query closer to the pivot than any subtree trajectory
        assert_eq!(pivot_lower_bound(&[1.0], &[5.0, 9.0]), 4.0);
        // query inside the interval: bound collapses to zero
        assert_eq!(pivot_lower_bound(&[6.0], &[5.0, 9.0]), 0.0);
        // multiple pivots: the max bound wins
        assert_eq!(
            pivot_lower_bound(&[10.0, 1.0], &[1.0, 3.0, 5.0, 9.0]),
            7.0
        );
        // no pivots
        assert_eq!(pivot_lower_bound(&[], &[]), 0.0);
    }

    #[test]
    fn query_distances_uses_measure() {
        let store = store_of(6, |i| i as f64);
        let c = cfg().with_np(2);
        let p = select_pivots(&store, &c);
        let q = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let d = p.query_distances(&c, &q);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|&x| x >= 0.0));
    }
}
