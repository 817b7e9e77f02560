//! The `distance_within` contract, property-tested over all six measures:
//! for any trajectories and any threshold, the early-abandoning kernel
//! returns `Some(d)` with `d` *bit-identical* to the unbounded kernel
//! whenever `d < threshold`, and `None` exactly when the true distance is
//! `>= threshold`. This is what lets every verification site in the system
//! swap `distance` for `distance_within` without changing a single result.
//!
//! The unbounded distance is *defined* as the threshold kernel at `+∞`
//! (Hausdorff excepted, which keeps a one-pass kernel of its own); the last
//! property pins that definition to the frozen `reference` kernels.

use proptest::prelude::*;
use repose_distance::{reference, DistScratch, Measure, MeasureParams};
use repose_model::Point;

fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

fn check_contract(
    params: &MeasureParams,
    measure: Measure,
    a: &[Point],
    b: &[Point],
    threshold: f64,
) -> Result<(), TestCaseError> {
    let exact = params.distance(measure, a, b);
    let got = params.distance_within(measure, a, b, threshold);
    if exact < threshold {
        match got {
            Some(d) => prop_assert_eq!(
                d.to_bits(),
                exact.to_bits(),
                "{}: within returned {} but exact is {}",
                measure,
                d,
                exact
            ),
            None => prop_assert!(
                false,
                "{}: within abandoned although {} < {}",
                measure,
                exact,
                threshold
            ),
        }
    } else {
        prop_assert_eq!(
            got,
            None,
            "{}: within returned a value although {} >= {}",
            measure,
            exact,
            threshold
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random trajectories × random absolute thresholds.
    #[test]
    fn within_matches_unbounded_at_random_thresholds(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..12),
        ys in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..12),
        threshold in 0.0f64..60.0,
        eps in 0.05f64..2.0,
        measure_idx in 0usize..6,
    ) {
        let a = pts(&xs);
        let b = pts(&ys);
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(eps);
        check_contract(&params, measure, &a, &b, threshold)?;
    }

    /// Thresholds built *from the exact distance* hit the boundary cases a
    /// uniform threshold almost never finds: just below, exactly at, and
    /// just above the true distance.
    #[test]
    fn within_matches_unbounded_at_boundary_thresholds(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        ys in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        eps in 0.05f64..2.0,
        measure_idx in 0usize..6,
    ) {
        let a = pts(&xs);
        let b = pts(&ys);
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(eps);
        let exact = params.distance(measure, &a, &b);
        let mut thresholds = vec![exact * 0.5, exact, exact * 1.5 + 1e-9, f64::INFINITY];
        if exact > 0.0 && exact.is_finite() {
            thresholds.push(exact.next_up());
            thresholds.push(exact.next_down());
        }
        for thr in thresholds {
            check_contract(&params, measure, &a, &b, thr)?;
        }
    }

    /// The prefilter must never overshoot the exact distance (soundness of
    /// the O(m+n) lower bound each kernel consults first).
    #[test]
    fn lower_bound_never_exceeds_exact(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        ys in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        eps in 0.05f64..2.0,
        measure_idx in 0usize..6,
    ) {
        let a = pts(&xs);
        let b = pts(&ys);
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(eps);
        let lb = params.lower_bound(measure, &a, &b);
        let exact = params.distance(measure, &a, &b);
        prop_assert!(
            lb <= exact + 1e-9,
            "{}: lower bound {} exceeds exact {}",
            measure,
            lb,
            exact
        );
    }

    /// `distance == within(+∞).unwrap_or(+∞) == reference`, bit for bit, for
    /// all six measures and every length pair from 0 to 17 — empty and
    /// single-point inputs, and both sides of every multiple of 4 (the lane
    /// and chunk edges) — at ordinary coordinates and at a magnitude whose
    /// squared differences overflow, so Hausdorff/Fréchet/DTW/ERP are `+∞`:
    /// the one value the final `d < +∞` gate turns into `None`.
    #[test]
    fn unbounded_distance_is_within_at_infinity(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 17..18),
        ys in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 17..18),
        eps in 0.05f64..2.0,
        scale_idx in 0usize..2,
    ) {
        let scale = [1.0, 1e200][scale_idx];
        let scaled = |v: &[(f64, f64)]| -> Vec<Point> {
            v.iter().map(|&(x, y)| Point::new(x * scale, y * scale)).collect()
        };
        let (a, b) = (scaled(&xs), scaled(&ys));
        let params = MeasureParams::with_eps(eps);
        let mut scratch = DistScratch::new();
        for la in 0..=a.len() {
            for lb in 0..=b.len() {
                let (a, b) = (&a[..la], &b[..lb]);
                for m in Measure::ALL {
                    let full = params.distance(m, a, b);
                    let within = params
                        .distance_within_from_lb_in(m, a, b, f64::INFINITY, 0.0, &mut scratch)
                        .unwrap_or(f64::INFINITY);
                    let seed = reference::distance(&params, m, a, b);
                    prop_assert_eq!(
                        full.to_bits(),
                        within.to_bits(),
                        "{} {}x{} scale {}: distance {} != within(+inf) {}",
                        m, la, lb, scale, full, within
                    );
                    prop_assert_eq!(
                        full.to_bits(),
                        seed.to_bits(),
                        "{} {}x{} scale {}: distance {} != reference {}",
                        m, la, lb, scale, full, seed
                    );
                }
            }
        }
    }
}
