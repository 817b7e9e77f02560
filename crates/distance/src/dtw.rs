use crate::within::dtw_within;
use crate::DistScratch;
use repose_model::Point;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DtwColumn;

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
