//! Bitwise agreement between the scratch-threaded kernels and the seed
//! per-call-allocating kernels (`repose_distance::reference`).
//!
//! The zero-allocation refactor (flat scratch buffers, squared-space
//! Fréchet, cached ERP gap distances) is required to leave every result
//! bit-identical. These property tests drive both implementations over
//! random trajectory pairs — including degenerate lengths and heavy
//! coordinate ties — and compare `to_bits()`, never an epsilon. One shared
//! scratch instance persists across all cases of a run, so buffer-reuse
//! contamination between kernels/sizes would be caught too.

mod common;

use common::{for_each_backend, verify_at};
use proptest::prelude::*;
use repose_distance::{just_above, reference, DistScratch, Measure, MeasureParams};
use repose_model::Point;

fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

/// Coordinates drawn from a coarse lattice so exact ties (equal distances,
/// equal DP cells) are common — the regime where tie-breaking divergence
/// between implementations would show.
fn coord() -> impl Strategy<Value = (f64, f64)> {
    (0i32..12, 0i32..12).prop_map(|(x, y)| (x as f64 * 0.5, y as f64 * 0.5))
}

fn check_pair(a: &[Point], b: &[Point], eps: f64, scratch: &mut DistScratch) {
    let params = MeasureParams::with_eps(eps);
    for m in Measure::ALL {
        let seed = reference::distance(&params, m, a, b);
        let new = params.distance_in(m, a, b, scratch);
        assert_eq!(
            new.to_bits(),
            seed.to_bits(),
            "{m}: scratch {new} != seed {seed}"
        );
        // Threshold-aware kernels: identical Some/None decision and
        // identical surviving value at thresholds straddling the distance.
        for thr in [seed * 0.5, seed, seed + 0.25, f64::INFINITY] {
            let lb = params.lower_bound(m, a, b);
            let seed_w = reference::distance_within_from_lb(&params, m, a, b, thr, lb);
            let new_w = params.distance_within_from_lb_in(m, a, b, thr, lb, scratch);
            assert_eq!(
                new_w.map(f64::to_bits),
                seed_w.map(f64::to_bits),
                "{m} thr={thr}: scratch {new_w:?} != seed {seed_w:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scratch_kernels_agree_bitwise_with_seed_kernels(
        xs in proptest::collection::vec(coord(), 1..24),
        ys in proptest::collection::vec(coord(), 1..24),
        eps_idx in 0usize..3,
    ) {
        let eps = [0.25, 0.75, 1.5][eps_idx];
        let a = pts(&xs);
        let b = pts(&ys);
        let mut scratch = DistScratch::new();
        check_pair(&a, &b, eps, &mut scratch);
        // Symmetry of reuse: run the swapped pair through the *same*
        // scratch (buffers now sized by the first pair).
        check_pair(&b, &a, eps, &mut scratch);
    }

    /// The thread-scratch front, `MeasureParams::distance`, against the
    /// oracle: every measure, bit for bit.
    #[test]
    fn individual_kernels_agree_bitwise(
        xs in proptest::collection::vec(coord(), 1..20),
        ys in proptest::collection::vec(coord(), 1..20),
    ) {
        let a = pts(&xs);
        let b = pts(&ys);
        let params = MeasureParams::with_eps(0.5);
        for m in Measure::ALL {
            prop_assert_eq!(
                params.distance(m, &a, &b).to_bits(),
                reference::distance(&params, m, &a, &b).to_bits(),
                "{}", m
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The backend-differential matrix: every backend the CPU supports
    /// must reproduce the seed reference kernels bit-for-bit — all six
    /// unbounded distances, and the threshold kernels' `Some`/`None`
    /// contract at thresholds straddling the distance, including the exact-tie
    /// threshold `thr == d` (must refute: the contract is strict `<`) and
    /// its successor `just_above(d)` (must keep, with identical bits) —
    /// the k-th-boundary tie cases a running top-k produces constantly.
    #[test]
    fn every_backend_agrees_bitwise_with_reference(
        xs in proptest::collection::vec(coord(), 1..24),
        ys in proptest::collection::vec(coord(), 1..24),
        eps_idx in 0usize..3,
    ) {
        let eps = [0.25, 0.75, 1.5][eps_idx];
        let a = pts(&xs);
        let b = pts(&ys);
        let params = MeasureParams::with_eps(eps);
        for_each_backend(|backend| {
            let mut scratch = DistScratch::new();
            for m in Measure::ALL {
                let seed = reference::distance(&params, m, &a, &b);
                let got = params.distance_in(m, &a, &b, &mut scratch);
                assert_eq!(
                    got.to_bits(),
                    seed.to_bits(),
                    "{m} on {backend}: {got} != reference {seed}"
                );
                let lb = params.lower_bound(m, &a, &b);
                for thr in [seed * 0.5, seed, just_above(seed), seed + 0.25, f64::INFINITY] {
                    let seed_w =
                        reference::distance_within_from_lb(&params, m, &a, &b, thr, lb);
                    let got_w =
                        params.distance_within_from_lb_in(m, &a, &b, thr, lb, &mut scratch);
                    assert_eq!(
                        got_w.map(f64::to_bits),
                        seed_w.map(f64::to_bits),
                        "{m} on {backend} thr={thr}: {got_w:?} != reference {seed_w:?}"
                    );
                }
            }
        });
    }

    /// Lane-batched verification vs one-at-a-time: what `verify` makes of
    /// each candidate at a fixed threshold must be bit-identical to the
    /// sequential `distance_within_from_lb_in` of the same candidate at the
    /// same threshold, on every backend, for every batchable measure — across
    /// ragged candidate lengths (lanes finish at different columns) and
    /// thresholds that abandon some lanes and not others.
    #[test]
    fn batched_verification_agrees_with_sequential(
        q in proptest::collection::vec(coord(), 1..16),
        cands in proptest::collection::vec(proptest::collection::vec(coord(), 1..20), 1..7),
        thr_scale in 0.25f64..2.0,
    ) {
        let query = pts(&q);
        let cand_pts: Vec<Vec<Point>> = cands.iter().map(|c| pts(c)).collect();
        let params = MeasureParams::with_eps(0.5);
        for m in [Measure::Dtw, Measure::Frechet, Measure::Erp, Measure::Hausdorff] {
            // A threshold near the middle of the candidates' distance range
            // so batches mix survivors, abandons, and prefilter rejections.
            let dmax = cand_pts
                .iter()
                .map(|c| reference::distance(&params, m, &query, c))
                .fold(0.0f64, f64::max);
            let thr = dmax * thr_scale + 1e-6;
            let cand_refs: Vec<(f64, &[Point])> = cand_pts
                .iter()
                .map(|c| (params.lower_bound(m, &query, c), c.as_slice()))
                .collect();
            for_each_backend(|backend| {
                let mut scratch = DistScratch::new();
                let out = verify_at(&params, m, &query, &cand_refs, thr, &mut scratch);
                for (i, &(lb, c)) in cand_refs.iter().enumerate() {
                    let want =
                        params.distance_within_from_lb_in(m, &query, c, thr, lb, &mut scratch);
                    assert_eq!(
                        out[i].map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{m} on {backend} lane {i} thr={thr}: batched {:?} != sequential {want:?}",
                        out[i]
                    );
                }
            });
        }
    }
}

#[test]
fn empty_and_degenerate_inputs_agree() {
    let mut s = DistScratch::new();
    let params = MeasureParams::with_eps(0.5);
    let a = pts(&[(1.0, 2.0)]);
    let cases: [(&[Point], &[Point]); 4] =
        [(&[], &[]), (&a, &[]), (&[], &a), (&a, &a)];
    for (x, y) in cases {
        for m in Measure::ALL {
            let seed = reference::distance(&params, m, x, y);
            let new = params.distance_in(m, x, y, &mut s);
            assert_eq!(new.to_bits(), seed.to_bits(), "{m} on degenerate input");
        }
    }
}

/// A warm scratch produces the same bits as a cold one — reuse leaves no
/// residue (buffers are re-zeroed per call).
#[test]
fn warm_scratch_equals_cold_scratch() {
    let a = pts(&[(0.0, 0.0), (1.5, 0.5), (3.0, 1.0), (4.5, 0.0)]);
    let b = pts(&[(0.5, 0.5), (2.0, 1.5), (3.5, 0.5)]);
    let long: Vec<Point> = (0..64).map(|i| Point::new(i as f64 * 0.3, (i % 5) as f64)).collect();
    let params = MeasureParams::with_eps(0.4);
    for m in Measure::ALL {
        let mut cold = DistScratch::new();
        let want = params.distance_in(m, &a, &b, &mut cold);
        let mut warm = DistScratch::new();
        // Dirty the buffers with larger inputs first.
        let _ = params.distance_in(m, &long, &long, &mut warm);
        let _ = params.distance_within_from_lb_in(m, &long, &b, 0.1, 0.0, &mut warm);
        let got = params.distance_in(m, &a, &b, &mut warm);
        assert_eq!(got.to_bits(), want.to_bits(), "{m}: warm != cold");
    }
}
