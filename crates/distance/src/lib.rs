//! The six trajectory similarity measures REPOSE supports (Sections II and
//! VI of the paper): Hausdorff, Frechet, DTW, LCSS, EDR, and ERP.
//!
//! Each measure's exact distance is written once per *algorithm*:
//!
//! * a frozen seed kernel in [`mod@reference`] — the oracle every test compares
//!   bits against, never called in production;
//! * one threshold-aware, early-abandoning kernel in [`within`]. The
//!   unbounded distance *is* that kernel at `+∞`
//!   (`within(+∞).unwrap_or(+∞)`), so there is no separate "full" dynamic
//!   program to keep in agreement with it. Hausdorff alone also keeps its
//!   one-pass unbounded kernel, a different algorithm from its two-pass
//!   threshold kernel.
//!
//! No algorithm has a second, SIMD copy. Where lanes measurably pay, the
//! one kernel is written over a lane type with `f64` as its 1-lane instance,
//! and [`backend`] picks the width: the Hausdorff kernels and the DTW
//! nearest-neighbour stage run at the active width, and lane-batched DTW /
//! Fréchet / ERP verification pushes the measure's column recurrence for up
//! to [`BATCH_LANES`] candidates against one query at once.
//!
//! A pair is scored through [`MeasureParams`] — `distance`,
//! `distance_within`, and their forms over a caller-owned [`DistScratch`];
//! each measure's definition is documented on its [`Measure`] variant.
//!
//! Each dynamic-program measure (Fréchet, DTW, ERP, EDR, LCSS) has one
//! column recurrence, and both the exact kernels and the RP-Trie's
//! *incremental bounds* push it (Section IV-C, Algorithm 1): when a
//! reference trajectory grows by one point, only one new column of the
//! distance matrix is computed, in `O(m)`, from the previous one. The
//! columns ([`DtwColumn`], [`FrechetColumn`], [`ErpColumn`], [`EdrColumn`],
//! [`LcssColumn`]) take their ground cost from the caller — the cell
//! distance `d'` for a bound, the point's exact cost for a kernel. DTW's
//! column also pushes a node's siblings side by side
//! ([`DtwColumn::push_cells`]), in SIMD lanes where the backend has them.
//!
//! So do the query's one top-k and the one step that fills it:
//! [`SharedTopK`], the collector every search of one query — trie
//! descent, delta scan, baseline refinement — prunes with and publishes
//! into, and whose pool is the query's answer; and
//! [`MeasureParams::verify`], the loop all three score their candidates
//! with, strictly under the collector's live bound.
//!
//! The lint attributes confine `unsafe` to the AVX2 lane type
//! (`simd::avx2`), the one dispatch site that enters it, and the
//! summaries' `Pod` impl.
//!
//! ```
//! use repose_distance::{Measure, MeasureParams};
//! use repose_model::Point;
//!
//! let a = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
//! let b = vec![Point::new(0.0, 3.0), Point::new(1.0, 3.0)];
//!
//! // One entry point for every measure: measure + params.
//! let params = MeasureParams::with_eps(0.5);
//! assert_eq!(params.distance(Measure::Hausdorff, &a, &b), 3.0);
//! assert!(Measure::Hausdorff.is_metric());
//! assert!(!Measure::Dtw.is_metric());
//!
//! // Threshold-aware verification: the early-abandoning kernel returns the
//! // exact distance below the threshold and refutes the candidate (usually
//! // far cheaper than the full kernel) at or above it.
//! assert_eq!(params.distance_within(Measure::Hausdorff, &a, &b, 5.0), Some(3.0));
//! assert_eq!(params.distance_within(Measure::Hausdorff, &a, &b, 2.0), None);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
mod column;
mod hausdorff;
mod measure;
pub mod reference;
mod scratch;
pub(crate) mod simd;
mod shared;
mod summary;
pub mod within;

pub use backend::{active_backend, available_backends, force_backend, Backend};
pub use column::{DpColumn, DtwColumn, EdrColumn, ErpColumn, FrechetColumn, LcssColumn};
pub use hausdorff::HausdorffState;
pub use measure::{Measure, MeasureParams, BATCH_LANES};
pub use scratch::DistScratch;
pub use shared::{Hit, SharedTopK};
pub use summary::TrajSummary;
pub use within::{bound_exceeds, just_above};

// The hand-computed cases of each measure's definition (the `Measure`
// variant docs), scored through `MeasureParams::distance`. One module per
// measure, so a failing case names its measure; DTW's and Fréchet's also
// pin their column against the distance of every prefix.

#[cfg(test)]
fn pts(v: &[(f64, f64)]) -> Vec<repose_model::Point> {
    v.iter().map(|&(x, y)| repose_model::Point::new(x, y)).collect()
}

/// `measure`'s distance under `eps` (LCSS, EDR) and the origin as ERP's
/// gap point.
#[cfg(test)]
fn dist(measure: Measure, eps: f64, a: &[repose_model::Point], b: &[repose_model::Point]) -> f64 {
    MeasureParams::with_eps(eps).distance(measure, a, b)
}

#[cfg(test)]
mod dtw {
    mod tests {
        use crate::{dist, pts, DtwColumn, Measure::Dtw};
        use repose_model::Point;

        fn dtw(a: &[Point], b: &[Point]) -> f64 {
            dist(Dtw, 0.0, a, b)
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
            // Using a ground distance that under-estimates d(q, p) must
            // yield a DTW value no larger than the exact one — the property
            // the trie lower bound relies on.
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
}

#[cfg(test)]
mod frechet {
    mod tests {
        use crate::{dist, pts, FrechetColumn, Measure};
        use repose_model::Point;

        fn frechet(a: &[Point], b: &[Point]) -> f64 {
            dist(Measure::Frechet, 0.0, a, b)
        }

        /// Naive recursive Frechet for cross-checking, memoized in a single
        /// flat row-major buffer (`memo[i * n + j]`).
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
            assert!(dist(Measure::Hausdorff, 0.0, &a, &b) <= frechet(&a, &b) + 1e-12);
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
            // Lemma 3 property 2: the one-side bound never decreases down a
            // path.
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
}

#[cfg(test)]
mod erp {
    mod tests {
        use crate::{dist, pts, Measure::Erp};
        use proptest::prelude::*;
        use repose_model::Point;

        /// ERP with the origin as the gap point.
        fn erp(a: &[Point], b: &[Point]) -> f64 {
            dist(Erp, 0.0, a, b)
        }

        #[test]
        fn identical_is_zero() {
            let a = pts(&[(1.0, 1.0), (2.0, 2.0), (3.0, 1.0)]);
            assert_eq!(erp(&a, &a), 0.0);
        }

        #[test]
        fn empty_costs_gap_sums() {
            let a = pts(&[(3.0, 4.0), (0.0, 5.0)]);
            assert_eq!(erp(&a, &[]), 10.0);
            assert_eq!(erp(&[], &a), 10.0);
            assert_eq!(erp(&[], &[]), 0.0);
        }

        #[test]
        fn symmetric() {
            let a = pts(&[(0.0, 0.0), (1.0, 3.0), (2.0, 0.5)]);
            let b = pts(&[(0.0, 1.0), (2.0, 2.0), (4.0, 0.0), (5.0, 1.0)]);
            assert!((erp(&a, &b) - erp(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn single_substitution_cost() {
            let a = pts(&[(1.0, 0.0)]);
            let b = pts(&[(2.0, 0.0)]);
            // match: |1-2| = 1; or two gaps: 1 + 2 = 3 -> match wins
            assert_eq!(erp(&a, &b), 1.0);
        }

        #[test]
        fn gap_alignment_when_cheaper() {
            // Aligning (10,0) against the gap at the origin costs 10, against
            // (-10,0) 20: ERP drops (-10,0) (cost 10) and matches (10,0).
            let a = pts(&[(10.0, 0.0)]);
            let b = pts(&[(-10.0, 0.0), (10.0, 0.0)]);
            assert_eq!(erp(&a, &b), 10.0);
        }

        proptest! {
            #[test]
            fn triangle_inequality(
                xs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
                ys in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
                zs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
            ) {
                let (a, b, c) = (pts(&xs), pts(&ys), pts(&zs));
                prop_assert!(erp(&a, &c) <= erp(&a, &b) + erp(&b, &c) + 1e-9);
            }

            #[test]
            fn non_negative_and_symmetric(
                xs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
                ys in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
            ) {
                let (a, b) = (pts(&xs), pts(&ys));
                let (d1, d2) = (erp(&a, &b), erp(&b, &a));
                prop_assert!(d1 >= 0.0);
                prop_assert!((d1 - d2).abs() < 1e-9);
            }
        }
    }
}

#[cfg(test)]
mod edr {
    mod tests {
        use crate::{dist, pts, Measure::Edr};
        use repose_model::Point;

        fn edr(a: &[Point], b: &[Point], eps: f64) -> f64 {
            dist(Edr, eps, a, b)
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
            // EDR is famously not a metric; just check it is non-negative
            // and symmetric on a few inputs.
            let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
            let b = pts(&[(0.0, 0.05), (1.0, 0.05), (2.0, 0.0)]);
            assert!(edr(&a, &b, 0.1) >= 0.0);
            assert_eq!(edr(&a, &b, 0.1), edr(&b, &a, 0.1));
        }
    }
}

#[cfg(test)]
mod lcss {
    mod tests {
        use crate::{dist, pts, Measure::Lcss};
        use repose_model::Point;

        /// The LCSS distance, `1 - LCSS / min(|a|, |b|)`: with two points
        /// on the shorter side, one match reads 0.5.
        fn lcss(a: &[Point], b: &[Point], eps: f64) -> f64 {
            dist(Lcss, eps, a, b)
        }

        #[test]
        fn identical_full_match() {
            let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
            assert_eq!(lcss(&a, &a, 0.1), 0.0);
        }

        #[test]
        fn disjoint_no_match() {
            let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
            let b = pts(&[(10.0, 10.0), (11.0, 10.0)]);
            assert_eq!(lcss(&a, &b, 0.5), 1.0);
        }

        #[test]
        fn partial_match() {
            let a = pts(&[(0.0, 0.0), (5.0, 5.0), (1.0, 0.0)]);
            let b = pts(&[(0.0, 0.0), (1.0, 0.0)]);
            assert_eq!(lcss(&a, &b, 0.1), 0.0); // min len = 2, both match
        }

        #[test]
        fn respects_order() {
            // The common subsequence must be order-preserving: one match.
            let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
            let b = pts(&[(1.0, 0.0), (0.0, 0.0)]);
            assert_eq!(lcss(&a, &b, 0.1), 0.5);
        }

        #[test]
        fn threshold_widens_matches() {
            let a = pts(&[(0.0, 0.0)]);
            let b = pts(&[(0.4, 0.4)]);
            assert_eq!(lcss(&a, &b, 0.1), 1.0);
            assert_eq!(lcss(&a, &b, 0.5), 0.0);
        }

        #[test]
        fn per_dimension_threshold_not_euclidean() {
            // dx = dy = 0.9 <= 1.0 matches even though Euclidean dist > 1.
            let a = pts(&[(0.0, 0.0)]);
            let b = pts(&[(0.9, 0.9)]);
            assert_eq!(lcss(&a, &b, 1.0), 0.0);
        }

        #[test]
        fn empty_inputs() {
            let a = pts(&[(0.0, 0.0)]);
            assert_eq!(lcss(&[], &a, 0.1), 1.0);
            assert_eq!(lcss(&[], &[], 0.1), 0.0);
            assert_eq!(lcss(&a, &[], 0.1), 1.0);
        }

        #[test]
        fn symmetric() {
            let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]);
            let b = pts(&[(0.1, 0.1), (2.1, 0.1), (3.0, 0.9)]);
            assert_eq!(lcss(&a, &b, 0.2), lcss(&b, &a, 0.2));
        }
    }
}
