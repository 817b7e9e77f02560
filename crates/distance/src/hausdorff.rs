//! Hausdorff distance (Definition 2): the unbounded one-pass kernel, the
//! incremental [`HausdorffState`] the trie search pushes reference points
//! into, and the scalar nearest-neighbour sweep under both — [`nn_sweep`],
//! one pass over the squared-distance matrix keeping row and column minima.
//! Hausdorff folds those minima by `max`; the DTW nearest-neighbour stage
//! ([`crate::within`]) reuses the same sweep and folds them by `Σ√`.

use crate::DistScratch;
use repose_model::Point;

/// Directed Hausdorff distance `max_{a in from} min_{b in to} d(a, b)`.
///
/// Both slices must be non-empty.
pub fn directed_hausdorff(from: &[Point], to: &[Point]) -> f64 {
    debug_assert!(!from.is_empty() && !to.is_empty());
    let mut worst = 0.0f64;
    for a in from {
        let mut best = f64::INFINITY;
        for b in to {
            let d = a.dist_sq(b);
            if d < best {
                best = d;
                if best == 0.0 {
                    break;
                }
            }
        }
        if best > worst {
            worst = best;
        }
    }
    worst.sqrt()
}

/// The (symmetric) Hausdorff distance between two trajectories
/// (Definition 2, Eq. 1). Borrows the calling thread's [`DistScratch`].
pub fn hausdorff(t1: &[Point], t2: &[Point]) -> f64 {
    DistScratch::with_thread(|s| hausdorff_in(t1, t2, s))
}

/// One pass over the `m x n` squared-distance matrix keeping every row's
/// and every column's minimum — each point's squared distance to its nearest
/// neighbour in the other trajectory (what Fig. 4 of the paper depicts).
///
/// Row minima are handed to `row` in `t1` order as they complete; `row`
/// returning `false` stops the sweep (the function then returns `false` and
/// `col_min` is partial). After a full sweep `col_min[j]` holds
/// `min_i d²(t1[i], t2[j])`. Two folds consume this: [`hausdorff_in`] takes
/// the `max` of the minima, the DTW nearest-neighbour stage
/// ([`crate::within::dtw_nn_refutes`]) their `Σ√`. This is the scalar form;
/// `simd::kern::query_major_sweep` is the packed one — `t1` in lanes, so it
/// streams `t2`'s minima and returns `t1`'s — value-identical because `f64`
/// min of non-NaN values is order-independent. `col_min.len()` must equal
/// `t2.len()`.
#[inline]
pub(crate) fn nn_sweep(
    t1: &[Point],
    t2: &[Point],
    col_min: &mut [f64],
    mut row: impl FnMut(f64) -> bool,
) -> bool {
    debug_assert_eq!(col_min.len(), t2.len());
    col_min.fill(f64::INFINITY);
    for a in t1 {
        let mut row_min = f64::INFINITY;
        for (b, cm) in t2.iter().zip(col_min.iter_mut()) {
            let d = a.dist_sq(b);
            if d < row_min {
                row_min = d;
            }
            if d < *cm {
                *cm = d;
            }
        }
        if !row(row_min) {
            return false;
        }
    }
    true
}

/// [`hausdorff`] against a caller-managed scratch (which holds the
/// column-minima row): zero heap allocations once `scratch` is warm.
///
/// The one unbounded kernel that is not its threshold kernel at `+∞`: the
/// `max` fold of a single [`nn_sweep`] — row minima for one direction,
/// column minima for the other — which beats two directed passes when
/// nothing can be abandoned. The whole pass stays in squared-distance space;
/// the single `sqrt` happens at the end. Dispatches to the active backend's
/// packed form of the same pass — bit-identical either way (see
/// [`crate::backend`]).
pub(crate) fn hausdorff_in(t1: &[Point], t2: &[Point], scratch: &mut DistScratch) -> f64 {
    if t1.is_empty() || t2.is_empty() {
        return if t1.is_empty() && t2.is_empty() { 0.0 } else { f64::INFINITY };
    }
    crate::backend::simd_dispatch!(hausdorff(t1, t2, scratch));
    let col_min = scratch.f1_uninit(t2.len());
    let mut worst_row = 0.0f64;
    nn_sweep(t1, t2, col_min, |row_min| {
        if row_min > worst_row {
            worst_row = row_min;
        }
        true
    });
    let worst_col = col_min.iter().cloned().fold(0.0f64, f64::max);
    worst_row.max(worst_col).sqrt()
}

/// Incremental Hausdorff state for growing reference trajectories
/// (Section IV-C / Algorithm 1 `CompLB`).
///
/// For a fixed query `τq` with `m` points and a reference trajectory that is
/// extended one point at a time (as the best-first search descends the trie),
/// the state keeps:
///
/// * `r[i]` — the minimum distance from query point `q_i` to any reference
///   point seen so far (row minima of the distance matrix),
/// * `cmax` — the maximum over reference points of the minimum distance from
///   that reference point to any query point (max of column minima).
///
/// Pushing one more reference point costs `O(m)`. At any time:
///
/// * `DH(τq, τ*) = max(rmax, cmax)` where `rmax = max_i r[i]`, and
/// * the one-side term of Eq. 2 is exactly `cmax`.
#[derive(Debug, Clone)]
pub struct HausdorffState {
    /// Row minima `r[i] = min_j d(q_i, p*_j)` (squared distances internally).
    r_sq: Vec<f64>,
    /// `max_i r[i]` (squared), maintained incrementally inside `push` so
    /// `full()` is O(1) in the search hot loop instead of an O(m) fold.
    rmax_sq: f64,
    /// Max over columns of the column minimum (squared).
    cmax_sq: f64,
    /// Number of reference points pushed so far.
    len: usize,
}

impl HausdorffState {
    /// Creates the state for a query of `m` points with no reference points
    /// consumed yet.
    pub fn new(m: usize) -> Self {
        HausdorffState {
            r_sq: vec![f64::INFINITY; m],
            rmax_sq: if m == 0 { 0.0 } else { f64::INFINITY },
            cmax_sq: 0.0,
            len: 0,
        }
    }

    /// Number of reference points pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no reference point has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Consumes the next reference point, updating all intermediate results
    /// in `O(m)` (the body of Algorithm 1).
    pub fn push(&mut self, query: &[Point], p: Point) {
        debug_assert_eq!(query.len(), self.r_sq.len());
        let mut col_min = f64::INFINITY;
        // Row minima only ever decrease, so the new rmax is recomputed as a
        // running max inside the O(m) pass this method already makes.
        let mut rmax = 0.0f64;
        for (i, q) in query.iter().enumerate() {
            let d = q.dist_sq(&p);
            if d < self.r_sq[i] {
                self.r_sq[i] = d;
            }
            if self.r_sq[i] > rmax {
                rmax = self.r_sq[i];
            }
            if d < col_min {
                col_min = d;
            }
        }
        self.rmax_sq = rmax;
        if col_min > self.cmax_sq {
            self.cmax_sq = col_min;
        }
        self.len += 1;
    }

    /// `cmax`: the directed (reference -> query) Hausdorff distance, i.e. the
    /// quantity inside Eq. 2's one-side lower bound.
    pub fn cmax(&self) -> f64 {
        self.cmax_sq.sqrt()
    }

    /// `max(rmax, cmax)`: the full Hausdorff distance between the query and
    /// the reference prefix consumed so far, in O(1). Only meaningful once
    /// at least one point was pushed.
    pub fn full(&self) -> f64 {
        self.rmax_sq.max(self.cmax_sq).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// The running example of the paper (Table II / Example 1).
    fn paper_data() -> (Vec<Point>, Vec<Vec<Point>>) {
        let tq = pts(&[(0.5, 6.5), (2.5, 6.5), (4.5, 6.5)]);
        let ts = vec![
            pts(&[(0.5, 7.5), (2.5, 7.5), (6.5, 7.5), (6.5, 4.5)]),
            pts(&[(1.5, 0.5), (2.5, 0.5), (2.5, 4.5), (4.5, 4.5)]),
            pts(&[(4.5, 0.5), (7.5, 0.5), (7.5, 2.5), (4.5, 2.5), (4.5, 1.5)]),
            pts(&[(0.5, 7.5), (2.5, 7.5), (5.5, 7.5), (5.5, 3.5)]),
            pts(&[(1.5, 0.5), (2.5, 0.5), (2.5, 5.5), (0.5, 5.5), (0.5, 2.5)]),
        ];
        (tq, ts)
    }

    #[test]
    fn example_1_of_the_paper() {
        let (tq, ts) = paper_data();
        let expected = [2.83, 6.08, 6.71, 3.16, 6.08];
        for (t, e) in ts.iter().zip(expected) {
            assert!((hausdorff(&tq, t) - e).abs() < 0.01, "expected {e}");
        }
    }

    #[test]
    fn symmetric() {
        let (tq, ts) = paper_data();
        for t in &ts {
            assert_eq!(hausdorff(&tq, t), hausdorff(t, &tq));
        }
    }

    #[test]
    fn identity() {
        let (tq, _) = paper_data();
        assert_eq!(hausdorff(&tq, &tq), 0.0);
    }

    #[test]
    fn directed_vs_symmetric() {
        let (tq, ts) = paper_data();
        for t in &ts {
            let d = hausdorff(&tq, t);
            let f = directed_hausdorff(&tq, t);
            let b = directed_hausdorff(t, &tq);
            assert!((d - f.max(b)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_inputs() {
        let a = pts(&[(0.0, 0.0)]);
        assert_eq!(hausdorff(&[], &[]), 0.0);
        assert_eq!(hausdorff(&a, &[]), f64::INFINITY);
        assert_eq!(hausdorff(&[], &a), f64::INFINITY);
    }

    #[test]
    fn order_independence() {
        // Hausdorff ignores point order (Section III-C).
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let mut b = a.clone();
        b.reverse();
        let q = pts(&[(0.5, 0.5), (1.5, 0.5)]);
        assert_eq!(hausdorff(&q, &a), hausdorff(&q, &b));
    }

    #[test]
    fn incremental_state_matches_batch() {
        let (tq, ts) = paper_data();
        for t in &ts {
            let mut st = HausdorffState::new(tq.len());
            for (j, p) in t.iter().enumerate() {
                st.push(&tq, *p);
                let prefix = &t[..=j];
                let batch = hausdorff(&tq, prefix);
                assert!(
                    (st.full() - batch).abs() < 1e-9,
                    "prefix {} full mismatch: {} vs {}",
                    j,
                    st.full(),
                    batch
                );
                let directed = directed_hausdorff(prefix, &tq);
                assert!(
                    (st.cmax() - directed).abs() < 1e-9,
                    "prefix {j} cmax mismatch"
                );
            }
            assert_eq!(st.len(), t.len());
        }
    }

    #[test]
    fn cmax_monotone_in_prefix_length() {
        // Lemma 2 rests on cmax never decreasing as the reference grows.
        let (tq, ts) = paper_data();
        for t in &ts {
            let mut st = HausdorffState::new(tq.len());
            let mut prev = 0.0;
            for p in t {
                st.push(&tq, *p);
                assert!(st.cmax() >= prev - 1e-12);
                prev = st.cmax();
            }
        }
    }
}
