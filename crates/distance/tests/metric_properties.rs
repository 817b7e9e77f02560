//! Property-based tests of the metric/non-metric classification the paper
//! relies on (Section IV-D: pivot pruning is only sound for metrics).

use proptest::prelude::*;
use repose_distance::{Measure, MeasureParams};
use repose_model::Point;

fn hausdorff(a: &[Point], b: &[Point]) -> f64 {
    MeasureParams::default().distance(Measure::Hausdorff, a, b)
}

fn frechet(a: &[Point], b: &[Point]) -> f64 {
    MeasureParams::default().distance(Measure::Frechet, a, b)
}

fn dtw(a: &[Point], b: &[Point]) -> f64 {
    MeasureParams::default().distance(Measure::Dtw, a, b)
}

fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

fn arb_traj() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hausdorff_triangle_inequality(a in arb_traj(), b in arb_traj(), c in arb_traj()) {
        let (a, b, c) = (pts(&a), pts(&b), pts(&c));
        let ab = hausdorff(&a, &b);
        let bc = hausdorff(&b, &c);
        let ac = hausdorff(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9, "H triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn frechet_triangle_inequality(a in arb_traj(), b in arb_traj(), c in arb_traj()) {
        let (a, b, c) = (pts(&a), pts(&b), pts(&c));
        let ab = frechet(&a, &b);
        let bc = frechet(&b, &c);
        let ac = frechet(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9, "F triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn hausdorff_symmetry_and_identity(a in arb_traj(), b in arb_traj()) {
        let (a, b) = (pts(&a), pts(&b));
        prop_assert!((hausdorff(&a, &b) - hausdorff(&b, &a)).abs() < 1e-12);
        prop_assert_eq!(hausdorff(&a, &a), 0.0);
    }

    #[test]
    fn frechet_dominates_hausdorff(a in arb_traj(), b in arb_traj()) {
        // Classic relationship: DH <= DF on the same curves.
        let (a, b) = (pts(&a), pts(&b));
        prop_assert!(hausdorff(&a, &b) <= frechet(&a, &b) + 1e-9);
    }

    #[test]
    fn dtw_dominates_frechet_lower(a in arb_traj(), b in arb_traj()) {
        // DTW sums ground distances along the best path, so it is at least
        // the max ground distance along that path >= ... >= nothing tight;
        // but DTW >= d(first, first) and >= d(last, last) always.
        let (a, b) = (pts(&a), pts(&b));
        let d = dtw(&a, &b);
        prop_assert!(d + 1e-9 >= a[0].dist(&b[0]));
        prop_assert!(d + 1e-9 >= a[a.len() - 1].dist(&b[b.len() - 1]));
    }

    #[test]
    fn all_nonnegative(a in arb_traj(), b in arb_traj()) {
        let (a, b) = (pts(&a), pts(&b));
        prop_assert!(hausdorff(&a, &b) >= 0.0);
        prop_assert!(frechet(&a, &b) >= 0.0);
        prop_assert!(dtw(&a, &b) >= 0.0);
    }
}

/// Documented counter-example: DTW violates the triangle inequality, which
/// is exactly why the paper excludes it from pivot pruning (Section VI-B).
///
/// 1-D sequences on the x axis: `a = [0,0,0]`, `b = [0,1]`, `c = [1,1,1]`.
/// The short bridge `b` warps cheaply onto both (cost 1 each: only one
/// element pays), but `a` against `c` pays 1 on every step of a length-3
/// path.
#[test]
fn dtw_triangle_inequality_counterexample() {
    let a = pts(&[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]);
    let b = pts(&[(0.0, 0.0), (1.0, 0.0)]);
    let c = pts(&[(1.0, 0.0), (1.0, 0.0), (1.0, 0.0)]);
    let ab = dtw(&a, &b);
    let bc = dtw(&b, &c);
    let ac = dtw(&a, &c);
    assert_eq!(ab, 1.0);
    assert_eq!(bc, 1.0);
    assert_eq!(ac, 3.0);
    assert!(ac > ab + bc, "triangle inequality violated: {ac} > {ab} + {bc}");
}
