//! Hausdorff distance (Definition 2): the unbounded one-pass kernel, the
//! incremental [`HausdorffState`] the trie search pushes reference points
//! into, and the nearest-neighbour sweep under the unbounded kernel —
//! [`nn_sweep`], one pass over the squared-distance matrix keeping row and
//! column minima. Hausdorff folds those minima by `max`; the DTW
//! nearest-neighbour stage ([`crate::within`]) reuses the same sweep and
//! folds them by `Σ√`.

use crate::backend::{dispatch, Kernel, Lanes};
use crate::DistScratch;
use repose_model::Point;

/// One pass over the `m x n` squared-distance matrix keeping every row's
/// and every column's minimum — each point's squared distance to its
/// nearest neighbour in the other trajectory (what Fig. 4 of the paper
/// depicts) — in `V`'s lanes. Both trajectories must be non-empty.
///
/// The pass is **query-major**: `t1` (the query, at every call site) is
/// split once into x and y lane arrays padded with `+∞` (a `+∞` lane never
/// lowers a minimum), and `t2`'s points are broadcast `W` at a time against
/// them, so every vector the inner loop reads is a plain load and `t1`'s
/// running minima are loaded and stored once per `W` broadcast points. The
/// `W` minima of a broadcast group come out of one
/// [`Lanes::transpose_min`].
///
/// `t2`'s minima stream out as they complete: `cols(mins, w)` gets one pack
/// per `W` consecutive points of `t2`, whose lanes `s < w` hold
/// `min_i d²(t1[i], t2[j + s])` in index order (lanes `s >= w` of the last
/// pack repeat lane `w - 1`). `cols` returning `false` stops the sweep, and
/// the result is then `None`. After a full sweep the result holds `t1`'s
/// minima, `min_j d²(t1[i], t2[j])`, in index order. `f64` min of non-NaN
/// values is order-independent, so every width gives the same minima.
#[inline(always)]
pub(crate) fn nn_sweep<'s, V: Lanes>(
    t1: &[Point],
    t2: &[Point],
    scratch: &'s mut DistScratch,
    mut cols: impl FnMut(V, usize) -> bool,
) -> Option<&'s [f64]> {
    let m = t1.len();
    let padded = m.next_multiple_of(V::W);
    let (xs, ys, rows) = scratch.f3_uninit(padded, padded, padded);
    for ((x, y), p) in xs.iter_mut().zip(ys.iter_mut()).zip(t1) {
        (*x, *y) = (p.x, p.y);
    }
    xs[m..].fill(f64::INFINITY);
    ys[m..].fill(f64::INFINITY);
    rows.fill(f64::INFINITY);
    for group in t2.chunks(V::W) {
        let w = group.len();
        let bx = V::array(|s| V::splat(group[s.min(w - 1)].x));
        let by = V::array(|s| V::splat(group[s.min(w - 1)].y));
        let mut acc = V::array(|_| V::splat(f64::INFINITY));
        let lanes = xs.chunks_exact(V::W).zip(ys.chunks_exact(V::W));
        for ((qx, qy), row) in lanes.zip(rows.chunks_exact_mut(V::W)) {
            let (qx, qy) = (V::load(qx), V::load(qy));
            let mut r = V::load(row);
            for s in 0..V::W {
                // `t1[i].dist_sq(&t2[j + s])`'s operation order.
                let dx = qx - bx[s];
                let dy = qy - by[s];
                let d = dx * dx + dy * dy;
                acc[s] = acc[s].min(d);
                r = r.min(d);
            }
            r.store(row);
        }
        if !cols(V::transpose_min(acc), w) {
            return None;
        }
    }
    Some(&rows[..m])
}

/// The (symmetric) Hausdorff distance between two trajectories
/// (Definition 2, Eq. 1), against a caller-managed scratch (which holds the
/// sweep's lane arrays): zero heap allocations once `scratch` is warm.
///
/// The one unbounded kernel that is not its threshold kernel at `+∞`: the
/// `max` fold of a single [`nn_sweep`] — row minima for one direction,
/// column minima for the other — which beats two directed passes when
/// nothing can be abandoned. The whole pass stays in squared-distance space;
/// the single `sqrt` happens at the end.
pub(crate) fn hausdorff_in(t1: &[Point], t2: &[Point], scratch: &mut DistScratch) -> f64 {
    if t1.is_empty() || t2.is_empty() {
        return if t1.is_empty() && t2.is_empty() { 0.0 } else { f64::INFINITY };
    }
    dispatch(Unbounded { t1, t2, scratch })
}

/// [`hausdorff_in`]'s kernel past its guards.
struct Unbounded<'a> {
    t1: &'a [Point],
    t2: &'a [Point],
    scratch: &'a mut DistScratch,
}

impl Kernel for Unbounded<'_> {
    type Out = f64;

    #[inline(always)]
    fn run<V: Lanes>(self) -> f64 {
        // Repeated tail lanes repeat a real minimum: harmless under `max`.
        let mut worst = V::splat(0.0);
        let rows = nn_sweep::<V>(self.t1, self.t2, self.scratch, |mins, _| {
            worst = worst.max(mins);
            true
        })
        .expect("the max fold never stops the sweep");
        let worst_row = rows.iter().copied().fold(0.0f64, f64::max);
        let worst_col = worst.to_array().into_iter().fold(0.0f64, f64::max);
        worst_row.max(worst_col).sqrt()
    }
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

    fn hausdorff(t1: &[Point], t2: &[Point]) -> f64 {
        DistScratch::with_thread(|s| hausdorff_in(t1, t2, s))
    }

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
                let directed = prefix
                    .iter()
                    .map(|p| tq.iter().map(|q| p.dist(q)).fold(f64::INFINITY, f64::min))
                    .fold(0.0f64, f64::max);
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
