use crate::within::{lcss_distance_within, lcss_length_within};
use crate::DistScratch;
use repose_model::Point;

/// Length of the longest common subsequence of two trajectories under a
/// spatial matching threshold `eps` (Vlachos et al., ICDE'02).
///
/// Two points match when both coordinate differences are at most `eps`
/// (the per-dimension formulation of the original paper).
///
/// The threshold kernel's match count at `+∞` (see [`crate::within`]).
/// Borrows the calling thread's [`DistScratch`].
pub fn lcss_length(t1: &[Point], t2: &[Point], eps: f64) -> usize {
    if t1.is_empty() || t2.is_empty() {
        return 0;
    }
    let l = DistScratch::with_thread(|s| lcss_length_within(t1, t2, eps, f64::INFINITY, s));
    l.expect("a finite achievable-match bound never reaches +inf") as usize
}

/// LCSS *distance*: `1 - LCSS(τ1, τ2) / min(|τ1|, |τ2|)`.
///
/// Zero when one trajectory's points all match a common subsequence of the
/// other; one when nothing matches. This is the standard distance form used
/// so that top-k "most similar" becomes top-k "smallest distance" uniformly
/// across measures.
pub fn lcss_distance(t1: &[Point], t2: &[Point], eps: f64) -> f64 {
    DistScratch::with_thread(|s| {
        lcss_distance_within(t1, t2, eps, f64::INFINITY, s).unwrap_or(f64::INFINITY)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_full_match() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(lcss_length(&a, &a, 0.1), 3);
        assert_eq!(lcss_distance(&a, &a, 0.1), 0.0);
    }

    #[test]
    fn disjoint_no_match() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(10.0, 10.0), (11.0, 10.0)]);
        assert_eq!(lcss_length(&a, &b, 0.5), 0);
        assert_eq!(lcss_distance(&a, &b, 0.5), 1.0);
    }

    #[test]
    fn partial_match() {
        let a = pts(&[(0.0, 0.0), (5.0, 5.0), (1.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(lcss_length(&a, &b, 0.1), 2);
        assert_eq!(lcss_distance(&a, &b, 0.1), 0.0); // min len = 2, both match
    }

    #[test]
    fn respects_order() {
        // common subsequence must be order-preserving
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(1.0, 0.0), (0.0, 0.0)]);
        assert_eq!(lcss_length(&a, &b, 0.1), 1);
    }

    #[test]
    fn threshold_widens_matches() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(0.4, 0.4)]);
        assert_eq!(lcss_length(&a, &b, 0.1), 0);
        assert_eq!(lcss_length(&a, &b, 0.5), 1);
    }

    #[test]
    fn per_dimension_threshold_not_euclidean() {
        // dx = dy = 0.9 <= 1.0 matches even though Euclidean dist > 1.
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(0.9, 0.9)]);
        assert_eq!(lcss_length(&a, &b, 1.0), 1);
    }

    #[test]
    fn empty_inputs() {
        let a = pts(&[(0.0, 0.0)]);
        assert_eq!(lcss_length(&[], &a, 0.1), 0);
        assert_eq!(lcss_distance(&[], &[], 0.1), 0.0);
        assert_eq!(lcss_distance(&a, &[], 0.1), 1.0);
    }

    #[test]
    fn symmetric() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]);
        let b = pts(&[(0.1, 0.1), (2.1, 0.1), (3.0, 0.9)]);
        assert_eq!(lcss_length(&a, &b, 0.2), lcss_length(&b, &a, 0.2));
    }
}
