//! The `distance_within` contract, property-tested over all six measures:
//! for any trajectories and any threshold, the early-abandoning kernel
//! returns `Some(d)` with `d` *bit-identical* to the unbounded kernel
//! whenever `d < threshold`, and `None` exactly when the true distance is
//! `>= threshold`. This is what lets every verification site in the system
//! swap `distance` for `distance_within` without changing a single result.
//!
//! The unbounded distance is *defined* as the threshold kernel at `+∞`
//! (Hausdorff excepted, which keeps a one-pass kernel of its own); the last
//! property pins that definition to the frozen `reference` kernels. The DTW
//! nearest-neighbour stage gets its own soundness checks: its two sums
//! against the reference DTW with no epsilon, and the contract at the
//! thresholds where the stage's decision flips.

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

/// The two sums the DTW nearest-neighbour stage folds, written from their
/// definition: `Σ_i min_j d(a_i, b_j)` in `a` order and `Σ_j min_i d(a_i,
/// b_j)` in `b` order.
fn nn_sums(a: &[Point], b: &[Point]) -> (f64, f64) {
    let nearest = |p: &Point, to: &[Point]| {
        to.iter().map(|q| p.dist(q)).fold(f64::INFINITY, f64::min)
    };
    let mut rows = 0.0;
    for p in a {
        rows += nearest(p, b);
    }
    let mut cols = 0.0;
    for q in b {
        cols += nearest(q, a);
    }
    (rows, cols)
}

/// Soundness of the stage — each sum is `<=` the frozen reference DTW, **no
/// epsilon** — and the `distance_within` contract against the frozen
/// reference, `Some`/`None` and bits, at thresholds just below / at / just
/// above the bound (raw and with the prefilter margin applied) and the true
/// distance. A zero lower bound keeps the summary prefilter out of the way,
/// so every refusal below is the stage's or the dynamic program's.
fn check_dtw_nn_stage(a: &[Point], b: &[Point]) {
    let params = MeasureParams::default();
    let exact = reference::dtw(a, b);
    let (rows, cols) = nn_sums(a, b);
    assert!(rows <= exact, "row sum {rows} > dtw {exact} for {a:?} / {b:?}");
    assert!(cols <= exact, "column sum {cols} > dtw {exact} for {a:?} / {b:?}");
    let nn = rows.max(cols);
    let mut scratch = DistScratch::new();
    for centre in [nn, nn * (1.0 - 1e-9), exact] {
        for thr in [centre.next_down(), centre, centre.next_up()] {
            let want = reference::distance_within_from_lb(&params, Measure::Dtw, a, b, thr, 0.0);
            let got =
                params.distance_within_from_lb_in(Measure::Dtw, a, b, thr, 0.0, &mut scratch);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "thr {thr} (nn {nn}, dtw {exact}) for {a:?} / {b:?}"
            );
            assert_eq!(
                params.distance_within(Measure::Dtw, a, b, thr).map(f64::to_bits),
                want.map(f64::to_bits),
                "distance_within, thr {thr} (nn {nn}, dtw {exact}) for {a:?} / {b:?}"
            );
        }
    }
}

/// The shapes where a nearest-neighbour bound is tight or degenerate, at
/// every length around the AVX2 (4) width.
#[test]
fn dtw_nn_stage_is_sound_on_adversarial_pairs() {
    let wiggle = |n: usize, seed: u64| -> Vec<Point> {
        (0..n as u64)
            .map(|i| {
                let x = (i.wrapping_mul(seed).wrapping_add(5) % 17) as f64 * 0.75;
                let y = (i.wrapping_mul(seed ^ 0x51).wrapping_add(2) % 13) as f64 * 0.5;
                Point::new(x, y)
            })
            .collect()
    };
    // 1, 2, W-1, W, W+1, 2W+1 for W in {2, 4}.
    let lens = [1usize, 2, 3, 4, 5, 9];
    for &la in &lens {
        let a = wiggle(la, 7);
        // Identical: every nearest neighbour is at distance 0, and so is DTW.
        check_dtw_nn_stage(&a, &a);
        // Reversed: the same point sets, so both sums are 0 while DTW is not.
        let reversed: Vec<Point> = a.iter().rev().copied().collect();
        check_dtw_nn_stage(&a, &reversed);
        // All points coincident: the bound is exact.
        let spot = vec![Point::new(3.0, -1.0); la];
        check_dtw_nn_stage(&a, &spot);
        check_dtw_nn_stage(&spot, &spot[..1]);
        for &lb in &lens {
            let b = wiggle(lb, 11);
            check_dtw_nn_stage(&a, &b);
            // One point against many: one sum is a single term, the other
            // is DTW itself.
            check_dtw_nn_stage(&a[..1], &b);
            check_dtw_nn_stage(&a, &b[..1]);
        }
    }
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

    /// The bound chain `summary_lower_bound <= lower_bound <= distance`: the
    /// O(m+n) prefilter never overshoots the exact distance, and the O(1)
    /// summary bound is the relaxation of it that its docs promise.
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
        let summary =
            params.summary_lower_bound(measure, &params.summary_of(&a), &params.summary_of(&b));
        prop_assert!(
            summary <= lb + 1e-9,
            "{}: summary bound {} exceeds lower bound {}",
            measure,
            summary,
            lb
        );
    }

    /// The DTW nearest-neighbour stage on random pairs: both sums bound the
    /// frozen reference with no epsilon, and the contract holds at every
    /// threshold that straddles a stage boundary.
    #[test]
    fn dtw_nn_stage_is_sound_on_random_pairs(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..14),
        ys in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..14),
    ) {
        check_dtw_nn_stage(&pts(&xs), &pts(&ys));
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
