use crate::within::frechet_within;
use crate::DistScratch;
use repose_model::Point;

/// One discrete-Fréchet column transition (Eq. 9) over a caller-owned
/// column; `ground(q)` is the ground distance of query point `q` to the
/// new reference element. Returns the new column's minimum.
///
/// The recurrence only ever takes `max`/`min` of ground distances, so it
/// is scale-monotone: running it on *squared* distances and taking one
/// square root at the end yields bit-identical results to running it on
/// distances (IEEE `sqrt` is correctly rounded and monotone, and every
/// cell value is itself one of the ground values). The threshold kernel
/// ([`crate::within`]) exploits exactly that; the incremental
/// [`FrechetColumn`] keeps linear-space values because the trie search
/// reads its columns as bounds.
#[inline]
pub(crate) fn frechet_advance<F: Fn(&Point) -> f64>(
    col: &mut [f64],
    first: bool,
    query: &[Point],
    ground: F,
) -> f64 {
    debug_assert_eq!(col.len(), query.len());
    let mut cmin = f64::INFINITY;
    if first {
        // First column: f_{i,1} = max(d(q_i, p_1), f_{i-1,1}).
        let mut acc = 0.0f64;
        for (i, (c, q)) in col.iter_mut().zip(query).enumerate() {
            let d = ground(q);
            acc = if i == 0 { d } else { acc.max(d) };
            *c = acc;
            if acc < cmin {
                cmin = acc;
            }
        }
    } else {
        // prev_im1 = f_{i-1,j-1} (old value one row up), last_new =
        // f_{i-1,j} (this column's value one row up); the wavefront lives
        // in registers and the zipped walk carries no bounds checks.
        let mut prev_im1 = f64::INFINITY;
        let mut last_new = f64::INFINITY;
        for (i, (c, q)) in col.iter_mut().zip(query).enumerate() {
            let d = ground(q);
            let old = *c;
            let best_pred = if i == 0 {
                old // f_{1,j} = max(d, f_{1,j-1})
            } else {
                prev_im1.min(old).min(last_new)
            };
            prev_im1 = old;
            let new = d.max(best_pred);
            *c = new;
            last_new = new;
            if new < cmin {
                cmin = new;
            }
        }
    }
    cmin
}

/// Two Fréchet column transitions in one pass (same blocking argument as
/// the DTW pair kernel): bit-identical per-cell operands/order, two
/// interleaved dependency chains.
#[inline]
pub(crate) fn frechet_advance2<F1: Fn(&Point) -> f64, F2: Fn(&Point) -> f64>(
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
        let v1 = if i == 0 { d1.max(old) } else { d1.max(a.min(old).min(b)) };
        let v2 = if i == 0 { d2.max(v1) } else { d2.max(b.min(v1).min(c2)) };
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

/// Discrete Frechet distance between two trajectories (Eq. 6).
///
/// The threshold kernel at `+∞` (see [`crate::within`]). Borrows the
/// calling thread's [`DistScratch`].
pub fn frechet(t1: &[Point], t2: &[Point]) -> f64 {
    DistScratch::with_thread(|s| {
        frechet_within(t1, t2, f64::INFINITY, s).unwrap_or(f64::INFINITY)
    })
}

/// Incremental discrete-Frechet column kernel (Section VI-A, Fig. 5).
///
/// Maintains the last column `f_{., j}` of the Frechet distance matrix
/// between a fixed query (rows) and a reference trajectory that grows one
/// point (column) at a time, via Eq. 9:
///
/// ```text
/// f_{i,j} = max( d(q_i, p*_j), min(f_{i-1,j-1}, f_{i-1,j}, f_{i,j-1}) )
/// ```
///
/// The trie search needs two things per node: `cmin` (minimum of the newly
/// added column, the one-side bound of Eq. 7) and `last` (`f_{m,n}`, the
/// two-side bound of Eq. 8).
#[derive(Debug, Clone)]
pub struct FrechetColumn {
    col: Vec<f64>,
    cmin: f64,
    len: usize,
}

impl FrechetColumn {
    /// State for a query with `m` points, before any reference point.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "query must be non-empty");
        FrechetColumn { col: vec![0.0; m], cmin: f64::INFINITY, len: 0 }
    }

    /// Number of reference points consumed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no reference point has been consumed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes the next reference point using plain Euclidean ground
    /// distances.
    pub fn push(&mut self, query: &[Point], p: Point) {
        self.push_with(query, |q| q.dist(&p));
    }

    /// Pushes the next reference element with a caller-supplied ground
    /// distance `d(q_i, ·)`.
    ///
    /// The RP-Trie uses this hook to evaluate lower bounds with the
    /// *minimum* distance from the query point to the reference point's grid
    /// cell instead of the exact point distance.
    pub fn push_with<F: Fn(&Point) -> f64>(&mut self, query: &[Point], ground: F) {
        debug_assert_eq!(query.len(), self.col.len());
        self.cmin = frechet_advance(&mut self.col, self.len == 0, query, ground);
        self.len += 1;
    }

    /// Minimum of the most recently added column (`cmin` in Eq. 7).
    pub fn cmin(&self) -> f64 {
        self.cmin
    }

    /// `f_{m,n}`: the Frechet distance between the query and the consumed
    /// reference prefix (Eq. 8). Only meaningful when `len() > 0`.
    pub fn last(&self) -> f64 {
        *self.col.last().expect("non-empty query")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hausdorff::hausdorff;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// Naive recursive Frechet for cross-checking, memoized in a single
    /// flat row-major buffer (`memo[i * n + j]`) rather than a nested
    /// `Vec<Vec<f64>>` — one allocation instead of `m + 1`.
    fn frechet_naive(a: &[Point], b: &[Point]) -> f64 {
        fn rec(a: &[Point], b: &[Point], i: usize, j: usize, memo: &mut [f64]) -> f64 {
            let n = b.len();
            if memo[i * n + j] >= 0.0 {
                return memo[i * n + j];
            }
            let d = a[i].dist(&b[j]);
            let v = if i == 0 && j == 0 {
                d
            } else if i == 0 {
                d.max(rec(a, b, 0, j - 1, memo))
            } else if j == 0 {
                d.max(rec(a, b, i - 1, 0, memo))
            } else {
                let m = rec(a, b, i - 1, j - 1, memo)
                    .min(rec(a, b, i - 1, j, memo))
                    .min(rec(a, b, i, j - 1, memo));
                d.max(m)
            };
            memo[i * n + j] = v;
            v
        }
        let mut memo = vec![-1.0; a.len() * b.len()];
        rec(a, b, a.len() - 1, b.len() - 1, &mut memo)
    }

    #[test]
    fn matches_naive_recursion() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 2.0)]);
        let b = pts(&[(0.0, 1.0), (1.5, 1.5), (2.0, 1.0), (4.0, 2.0), (5.0, 2.0)]);
        assert!((frechet(&a, &b) - frechet_naive(&a, &b)).abs() < 1e-12);
        assert!((frechet(&b, &a) - frechet_naive(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn identity_and_symmetry() {
        let a = pts(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]);
        let b = pts(&[(0.5, 0.5), (2.0, 2.0)]);
        assert_eq!(frechet(&a, &a), 0.0);
        assert!((frechet(&a, &b) - frechet(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn frechet_upper_bounds_hausdorff() {
        // Well-known: DH <= DF for any pair of curves.
        let a = pts(&[(0.0, 0.0), (1.0, 3.0), (2.0, 0.5), (5.0, 1.0)]);
        let b = pts(&[(0.0, 1.0), (2.0, 2.0), (4.0, 0.0)]);
        assert!(hausdorff(&a, &b) <= frechet(&a, &b) + 1e-12);
    }

    #[test]
    fn single_point_cases() {
        // m = 1: max_j d(q1, p_j); n = 1: max_i d(q_i, p_1)  (Eq. 6)
        let q = pts(&[(0.0, 0.0)]);
        let t = pts(&[(1.0, 0.0), (3.0, 0.0), (2.0, 0.0)]);
        assert_eq!(frechet(&q, &t), 3.0);
        assert_eq!(frechet(&t, &q), 3.0);
    }

    #[test]
    fn empty_inputs() {
        let a = pts(&[(0.0, 0.0)]);
        assert_eq!(frechet(&[], &[]), 0.0);
        assert_eq!(frechet(&a, &[]), f64::INFINITY);
    }

    #[test]
    fn column_kernel_matches_prefix_batch() {
        let q = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let t = pts(&[(0.5, 0.5), (1.0, 0.0), (2.5, 1.0), (3.0, 3.0)]);
        let mut col = FrechetColumn::new(q.len());
        for (j, p) in t.iter().enumerate() {
            col.push(&q, *p);
            let batch = frechet(&q, &t[..=j]);
            assert!((col.last() - batch).abs() < 1e-12, "prefix {j}");
        }
    }

    #[test]
    fn cmin_monotone_nondecreasing() {
        // Lemma 3 property 2: the one-side bound never decreases down a path.
        let q = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let t = pts(&[(5.0, 5.0), (4.0, 4.0), (6.0, 6.0), (7.0, 2.0)]);
        let mut col = FrechetColumn::new(q.len());
        let mut prev = 0.0;
        for p in &t {
            col.push(&q, *p);
            assert!(col.cmin() >= prev - 1e-12);
            prev = col.cmin();
        }
    }

    #[test]
    #[should_panic(expected = "query must be non-empty")]
    fn empty_query_panics() {
        FrechetColumn::new(0);
    }
}
