use crate::within::frechet_within;
use crate::DistScratch;
use repose_model::Point;

/// Discrete Frechet distance between two trajectories (Eq. 6).
///
/// The threshold kernel at `+∞` (see [`crate::within`]). Borrows the
/// calling thread's [`DistScratch`].
pub fn frechet(t1: &[Point], t2: &[Point]) -> f64 {
    DistScratch::with_thread(|s| {
        frechet_within(t1, t2, f64::INFINITY, s).unwrap_or(f64::INFINITY)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hausdorff::hausdorff;
    use crate::FrechetColumn;

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
