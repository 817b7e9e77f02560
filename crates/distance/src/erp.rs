use crate::within::erp_within;
use crate::DistScratch;
use repose_model::Point;

/// Edit distance with Real Penalty (Chen & Ng, VLDB'04) with gap point `g`.
///
/// ```text
/// erp(i,j) = min( erp(i-1,j-1) + d(q_i, p_j),
///                 erp(i-1,j)   + d(q_i, g),
///                 erp(i,j-1)   + d(p_j, g) )
/// ```
///
/// ERP is a metric (it satisfies the triangle inequality), which is why the
/// paper groups it with Hausdorff and Frechet for pivot-based pruning.
///
/// The threshold kernel at `+∞` (see [`crate::within`]). Borrows the
/// calling thread's [`DistScratch`].
pub fn erp(t1: &[Point], t2: &[Point], gap: Point) -> f64 {
    DistScratch::with_thread(|s| {
        erp_within(t1, t2, gap, f64::INFINITY, s).unwrap_or(f64::INFINITY)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const G: Point = Point::new(0.0, 0.0);

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_is_zero() {
        let a = pts(&[(1.0, 1.0), (2.0, 2.0), (3.0, 1.0)]);
        assert_eq!(erp(&a, &a, G), 0.0);
    }

    #[test]
    fn empty_costs_gap_sums() {
        let a = pts(&[(3.0, 4.0), (0.0, 5.0)]);
        assert_eq!(erp(&a, &[], G), 10.0);
        assert_eq!(erp(&[], &a, G), 10.0);
        assert_eq!(erp(&[], &[], G), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = pts(&[(0.0, 0.0), (1.0, 3.0), (2.0, 0.5)]);
        let b = pts(&[(0.0, 1.0), (2.0, 2.0), (4.0, 0.0), (5.0, 1.0)]);
        assert!((erp(&a, &b, G) - erp(&b, &a, G)).abs() < 1e-12);
    }

    #[test]
    fn single_substitution_cost() {
        let a = pts(&[(1.0, 0.0)]);
        let b = pts(&[(2.0, 0.0)]);
        // match: |1-2| = 1; or two gaps: 1 + 2 = 3 -> match wins
        assert_eq!(erp(&a, &b, G), 1.0);
    }

    #[test]
    fn gap_alignment_when_cheaper() {
        // aligning (10,0) against gap at origin costs 10; against (-10,0)
        // costs 20. With b = [(-10,0),(10,0)] and a = [(10,0)], ERP should
    // drop the (-10,0) element (cost 10) and match (10,0) exactly.
        let a = pts(&[(10.0, 0.0)]);
        let b = pts(&[(-10.0, 0.0), (10.0, 0.0)]);
        assert_eq!(erp(&a, &b, G), 10.0);
    }

    proptest! {
        #[test]
        fn triangle_inequality(
            xs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
            ys in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
            zs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
        ) {
            let a = pts(&xs);
            let b = pts(&ys);
            let c = pts(&zs);
            let ab = erp(&a, &b, G);
            let bc = erp(&b, &c, G);
            let ac = erp(&a, &c, G);
            prop_assert!(ac <= ab + bc + 1e-9);
        }

        #[test]
        fn non_negative_and_symmetric(
            xs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
            ys in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
        ) {
            let a = pts(&xs);
            let b = pts(&ys);
            let d1 = erp(&a, &b, G);
            let d2 = erp(&b, &a, G);
            prop_assert!(d1 >= 0.0);
            prop_assert!((d1 - d2).abs() < 1e-9);
        }
    }
}
