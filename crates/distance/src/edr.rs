use crate::within::edr_within;
use crate::DistScratch;
use repose_model::Point;

/// Edit Distance on Real sequences (Chen et al., SIGMOD'05).
///
/// Points match (substitution cost 0) when both coordinate differences are
/// at most `eps`; otherwise substitution, insertion and deletion all cost 1.
/// The result is an integer edit count returned as `f64` for measure
/// uniformity.
///
/// The threshold kernel at `+∞` (see [`crate::within`]). Borrows the
/// calling thread's [`DistScratch`].
pub fn edr(t1: &[Point], t2: &[Point], eps: f64) -> f64 {
    DistScratch::with_thread(|s| {
        edr_within(t1, t2, eps, f64::INFINITY, s).unwrap_or(f64::INFINITY)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_is_zero() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(edr(&a, &a, 0.1), 0.0);
    }

    #[test]
    fn empty_costs_length() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(edr(&a, &[], 0.1), 2.0);
        assert_eq!(edr(&[], &a, 0.1), 2.0);
        assert_eq!(edr(&[], &[], 0.1), 0.0);
    }

    #[test]
    fn one_substitution() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (9.0, 0.0), (2.0, 0.0)]);
        assert_eq!(edr(&a, &b, 0.1), 1.0);
    }

    #[test]
    fn one_insertion() {
        let a = pts(&[(0.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(edr(&a, &b, 0.1), 1.0);
        assert_eq!(edr(&b, &a, 0.1), 1.0); // symmetric
    }

    #[test]
    fn bounded_by_max_length() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let b = pts(&[(50.0, 50.0), (60.0, 60.0)]);
        let d = edr(&a, &b, 0.1);
        assert!(d <= 4.0);
        assert!(d >= 2.0);
    }

    #[test]
    fn eps_controls_matching() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(0.3, 0.3)]);
        assert_eq!(edr(&a, &b, 0.1), 1.0);
        assert_eq!(edr(&a, &b, 0.5), 0.0);
    }

    #[test]
    fn triangle_inequality_can_fail() {
        // EDR is famously not a metric; just check it is non-negative and
        // symmetric on a few inputs.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(0.0, 0.05), (1.0, 0.05), (2.0, 0.0)]);
        assert!(edr(&a, &b, 0.1) >= 0.0);
        assert_eq!(edr(&a, &b, 0.1), edr(&b, &a, 0.1));
    }
}
