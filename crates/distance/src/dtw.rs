use crate::within::dtw_within;
use crate::DistScratch;
use repose_model::{Mbr, Point};

/// One DTW column transition (Eq. 15) over a caller-owned column buffer;
/// `ground(q)` is the ground distance of query point `q` to the new
/// reference element. Returns the new column's minimum.
///
/// This is the single implementation of the DTW recurrence: the
/// incremental [`DtwColumn`] and the threshold kernel ([`crate::within`])
/// both route through it, which is what keeps their results
/// bit-identical. The DP wavefront (`f_{i-1,j-1}`, `f_{i-1,j}`) is carried
/// in registers and the column is walked with a zipped iterator, so the
/// inner loop has no bounds checks.
#[inline]
pub(crate) fn dtw_advance<F: Fn(&Point) -> f64>(
    col: &mut [f64],
    first: bool,
    query: &[Point],
    ground: F,
) -> f64 {
    debug_assert_eq!(col.len(), query.len());
    let mut cmin = f64::INFINITY;
    if first {
        // First column: f_{i,1} = sum_{t<=i} d(q_t, p_1).
        let mut acc = 0.0;
        for (c, q) in col.iter_mut().zip(query) {
            acc += ground(q);
            *c = acc;
            if acc < cmin {
                cmin = acc;
            }
        }
    } else {
        // prev_im1 = f_{i-1,j-1} (old col value one row up), last_new =
        // f_{i-1,j} (this column's value one row up).
        let mut prev_im1 = f64::INFINITY;
        let mut last_new = f64::INFINITY;
        for (i, (c, q)) in col.iter_mut().zip(query).enumerate() {
            let d = ground(q);
            let old = *c;
            let best_pred = if i == 0 {
                old // f_{1,j} = d + f_{1,j-1}
            } else {
                prev_im1.min(old).min(last_new)
            };
            prev_im1 = old;
            let new = d + best_pred;
            *c = new;
            last_new = new;
            if new < cmin {
                cmin = new;
            }
        }
    }
    cmin
}

/// Two DTW column transitions in one pass over the column buffer: the
/// buffer holds column `j-1` on entry and column `j+1` on exit.
///
/// Each cell is computed from exactly the same operands in the same order
/// as two successive [`dtw_advance`] calls — results are bit-identical —
/// but the two columns' serial min-chains interleave in the pipeline, so
/// the chain-latency-bound DP runs substantially faster. Returns both
/// columns' minima (callers that abandon must check them in column
/// order).
#[inline]
pub(crate) fn dtw_advance2<F1: Fn(&Point) -> f64, F2: Fn(&Point) -> f64>(
    col: &mut [f64],
    query: &[Point],
    ground1: F1,
    ground2: F2,
) -> (f64, f64) {
    debug_assert_eq!(col.len(), query.len());
    let (mut cmin1, mut cmin2) = (f64::INFINITY, f64::INFINITY);
    // a = f_{i-1,j-1}, b = f_{i-1,j}, c2 = f_{i-1,j+1}.
    let (mut a, mut b, mut c2) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, (c, q)) in col.iter_mut().zip(query).enumerate() {
        let d1 = ground1(q);
        let d2 = ground2(q);
        let old = *c; // f_{i,j-1}
        let v1 = if i == 0 { d1 + old } else { d1 + a.min(old).min(b) };
        let v2 = if i == 0 { d2 + v1 } else { d2 + b.min(v1).min(c2) };
        a = old;
        b = v1;
        c2 = v2;
        *c = v2;
        if v1 < cmin1 {
            cmin1 = v1;
        }
        if v2 < cmin2 {
            cmin2 = v2;
        }
    }
    (cmin1, cmin2)
}

/// Dynamic time warping distance between two trajectories (Eq. 12),
/// with Euclidean ground distance and no warping window.
///
/// The threshold kernel at `+∞` (see [`crate::within`]): reference points
/// are consumed in pairs so two columns' dependency chains overlap in the
/// pipeline. Borrows the calling thread's [`DistScratch`].
pub fn dtw(t1: &[Point], t2: &[Point]) -> f64 {
    DistScratch::with_thread(|s| {
        dtw_within(t1, t2, f64::INFINITY, s).unwrap_or(f64::INFINITY)
    })
}

/// Incremental DTW column kernel (Section VI-B).
///
/// Maintains the last column of the DTW matrix between a fixed query (rows)
/// and a reference sequence growing one element at a time (columns), via
/// Eq. 15:
///
/// ```text
/// f_{i,j} = d'(q_i, p*_j) + min(f_{i-1,j-1}, f_{i-1,j}, f_{i,j-1})
/// ```
///
/// `cmin` of the newly added column is the one-side bound (Eq. 13) and
/// `last` (`f_{m,n}`) is the two-side bound (Eq. 14). The ground distance is
/// caller-supplied so the trie search can use the minimum distance from a
/// query point to a grid *cell* (`d'`), which the paper requires because DTW
/// does not obey the triangle inequality.
#[derive(Debug, Clone)]
pub struct DtwColumn {
    pub(crate) col: Vec<f64>,
    pub(crate) cmin: f64,
    len: usize,
}

impl DtwColumn {
    /// State for a query with `m` points, before any reference element.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "query must be non-empty");
        DtwColumn { col: vec![0.0; m], cmin: f64::INFINITY, len: 0 }
    }

    /// Number of reference elements consumed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no reference element has been consumed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes the next reference point with Euclidean ground distance.
    pub fn push(&mut self, query: &[Point], p: Point) {
        self.push_with(query, |q| q.dist(&p));
    }

    /// Pushes the next reference element with a caller-supplied ground
    /// distance.
    pub fn push_with<F: Fn(&Point) -> f64>(&mut self, query: &[Point], ground: F) {
        debug_assert_eq!(query.len(), self.col.len());
        self.cmin = dtw_advance(&mut self.col, self.len == 0, query, ground);
        self.len += 1;
    }

    /// Sibling expansion: `children[s]` becomes this column with one more
    /// reference element whose ground cost is `cells[s].min_dist(q)` — bit
    /// for bit `self.clone()` followed by
    /// `push_with(query, |q| cells[s].min_dist(*q))` — without allocating
    /// when the children's buffers already fit (any column of a query of
    /// this length does; their old contents are overwritten).
    ///
    /// On the AVX2 backend 4 siblings advance per pass over the query and
    /// the parent column is read once per pass; the scalar backend copies
    /// and pushes them one by one.
    pub fn push_cells(&self, query: &[Point], cells: &[Mbr], children: &mut [DtwColumn]) {
        assert_eq!(cells.len(), children.len(), "one cell per child");
        debug_assert_eq!(query.len(), self.col.len());
        for child in children.iter_mut() {
            child.col.resize(self.col.len(), 0.0);
            child.len = self.len + 1;
        }
        let (parent, first) = (&self.col, self.len == 0);
        crate::backend::simd_dispatch!(dtw_siblings(parent, first, query, cells, children));
        for (cell, child) in cells.iter().zip(children) {
            child.col.copy_from_slice(parent);
            child.cmin = dtw_advance(&mut child.col, first, query, |q| cell.min_dist(*q));
        }
    }

    /// Minimum of the most recently added column (Eq. 13).
    pub fn cmin(&self) -> f64 {
        self.cmin
    }

    /// `f_{m,n}`: DTW between the query and the consumed reference prefix
    /// (Eq. 14). Only meaningful when `len() > 0`.
    pub fn last(&self) -> f64 {
        *self.col.last().expect("non-empty query")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_is_zero() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(dtw(&a, &a), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = pts(&[(0.0, 0.0), (1.0, 3.0), (2.0, 0.5)]);
        let b = pts(&[(0.0, 1.0), (2.0, 2.0), (4.0, 0.0), (5.0, 1.0)]);
        assert!((dtw(&a, &b) - dtw(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_small_case() {
        // 1-D points on the x axis: q = [0, 1], t = [0, 2].
        // matrix: f11=0, f21=1, f12=2+0=2, f22=|1-2|+min(0,1,2)=1
        let q = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let t = pts(&[(0.0, 0.0), (2.0, 0.0)]);
        assert_eq!(dtw(&q, &t), 1.0);
    }

    #[test]
    fn single_row_and_column_are_sums() {
        let q = pts(&[(0.0, 0.0)]);
        let t = pts(&[(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        assert_eq!(dtw(&q, &t), 6.0); // sum of distances to q1
        assert_eq!(dtw(&t, &q), 6.0);
    }

    #[test]
    fn time_shift_cheaper_than_euclidean_alignment() {
        // DTW should align a shifted copy nearly for free.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        assert_eq!(dtw(&a, &b), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let a = pts(&[(0.0, 0.0)]);
        assert_eq!(dtw(&[], &[]), 0.0);
        assert_eq!(dtw(&a, &[]), f64::INFINITY);
    }

    #[test]
    fn column_kernel_matches_prefix_batch() {
        let q = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let t = pts(&[(0.5, 0.5), (1.0, 0.0), (2.5, 1.0), (3.0, 3.0)]);
        let mut col = DtwColumn::new(q.len());
        for (j, p) in t.iter().enumerate() {
            col.push(&q, *p);
            let batch = dtw(&q, &t[..=j]);
            assert!((col.last() - batch).abs() < 1e-12, "prefix {j}");
        }
    }

    #[test]
    fn optimistic_ground_distance_lower_bounds_exact() {
        // Using a ground distance that under-estimates d(q, p) must yield a
        // DTW value no larger than the exact one — the property the trie
        // lower bound relies on.
        let q = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let t = pts(&[(0.5, 0.5), (1.0, 0.0), (2.5, 1.0)]);
        let mut exact = DtwColumn::new(q.len());
        let mut optimistic = DtwColumn::new(q.len());
        for p in &t {
            exact.push(&q, *p);
            optimistic.push_with(&q, |a| (a.dist(p) - 0.3).max(0.0));
        }
        assert!(optimistic.last() <= exact.last());
        assert!(optimistic.cmin() <= exact.cmin());
    }
}
