//! Precomputed per-trajectory prefilter summaries: `O(1)`-per-candidate
//! lower bounds at verification sites.
//!
//! [`crate::MeasureParams::lower_bound`] walks both trajectories — `O(m+n)`
//! per candidate — which is cheap next to a DP kernel but adds up when an
//! index verifies thousands of leaf members per query. A [`TrajSummary`]
//! captures, *once at index-build (or delta-insert) time*, exactly the
//! aggregates those bounds need: the bounding rectangle, the two endpoints,
//! the ERP gap-distance sum, and the point count. Two summaries then yield
//! a sound (weaker, but constant-time) lower bound for every measure via
//! [`crate::MeasureParams::summary_lower_bound`] — no per-point work at
//! query time beyond summarizing the query itself once.

use crate::{Measure, MeasureParams};
use repose_model::{Mbr, Point};

/// The prefilter aggregates of one trajectory (see module docs).
///
/// `gap_sum` is parameter-dependent (it is `Σ d(p, erp_gap)`): a summary
/// must be built and consumed under the same [`MeasureParams`].
/// `repr(C)` with an explicit tail filler so the 80-byte record has no
/// compiler-inserted padding: summary tables are archived and checksummed
/// byte-for-byte, and uninitialized padding would make that both undefined
/// behaviour and nondeterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct TrajSummary {
    /// Bounding rectangle (degenerate at the origin for empty inputs).
    pub mbr: Mbr,
    /// First point (origin for empty inputs).
    pub first: Point,
    /// Last point (origin for empty inputs).
    pub last: Point,
    /// `Σ d(p, erp_gap)` — the ERP distance to the empty trajectory.
    pub gap_sum: f64,
    /// Number of points.
    pub len: u32,
    /// Explicit tail filler (always 0) in place of compiler padding, so
    /// every byte of an archived record is initialized and deterministic.
    pub pad: u32,
}

// SAFETY: `repr(C)`; fields are f64/u32 records with the tail padding made
// explicit (asserted in tests), so there are no uninitialized bytes and
// any bit pattern is a valid value.
#[allow(unsafe_code)]
unsafe impl repose_succinct::Pod for TrajSummary {}

/// Whether no point of `a` can `ε`-match any point of `b` under the
/// per-dimension test LCSS and EDR use (their expanded boxes are disjoint
/// in some dimension).
fn boxes_cannot_match(a: &Mbr, b: &Mbr, eps: f64) -> bool {
    a.min.x - b.max.x > eps
        || b.min.x - a.max.x > eps
        || a.min.y - b.max.y > eps
        || b.min.y - a.max.y > eps
}

impl MeasureParams {
    /// Builds the prefilter summary of `t` (see [`TrajSummary`]).
    pub fn summary_of(&self, t: &[Point]) -> TrajSummary {
        match Mbr::from_points(t) {
            Some(mbr) => TrajSummary {
                mbr,
                first: t[0],
                last: *t.last().expect("non-empty"),
                gap_sum: t.iter().map(|p| p.dist(&self.erp_gap)).sum(),
                len: t.len() as u32,
                pad: 0,
            },
            None => {
                let o = Point::new(0.0, 0.0);
                TrajSummary { mbr: Mbr::new(o, o), first: o, last: o, gap_sum: 0.0, len: 0, pad: 0 }
            }
        }
    }

    /// `O(1)` lower bound on the exact distance between the two summarized
    /// trajectories under `measure`.
    ///
    /// Every term is a relaxation of the corresponding
    /// [`MeasureParams::lower_bound`] argument (which, for Fréchet and DTW,
    /// includes the start–start and end–end distances used here), so the
    /// result never exceeds it — it is a weaker bound bought at constant
    /// cost, and the test suites hold both to that. Feed it to
    /// [`MeasureParams::distance_within_from_lb`] (never to a site that
    /// needs the tighter per-point bound for exactness — there is none; all
    /// callers only require *some* sound lower bound).
    pub fn summary_lower_bound(&self, measure: Measure, a: &TrajSummary, b: &TrajSummary) -> f64 {
        if a.len == 0 || b.len == 0 {
            // Match the conservative empty-input behaviour of the O(m+n)
            // bounds: only the measures defined through lengths/sums can
            // say anything without points.
            return match measure {
                Measure::Erp => (a.gap_sum - b.gap_sum).abs(),
                Measure::Edr => a.len.abs_diff(b.len) as f64,
                _ => 0.0,
            };
        }
        match measure {
            // Each endpoint is a real point of its trajectory, and every
            // point of the other trajectory lies inside the other MBR, so
            // each directed `min` term is at least the point-to-rectangle
            // distance.
            Measure::Hausdorff => endpoint_mbr_bound(a, b),
            // Frechet dominates Hausdorff and must align start with start
            // and end with end.
            Measure::Frechet => endpoint_mbr_bound(a, b)
                .max(a.first.dist(&b.first))
                .max(a.last.dist(&b.last)),
            // A warping path visits every point of the longer trajectory
            // at least once, each pairing costing at least the
            // rectangle-to-rectangle distance; it also pairs the two
            // starts and the two ends.
            Measure::Dtw => {
                let rect = a.mbr.min_dist_mbr(&b.mbr);
                (a.len.max(b.len) as f64 * rect)
                    .max(a.first.dist(&b.first))
                    .max(a.last.dist(&b.last))
            }
            // Triangle inequality through the empty trajectory (Chen & Ng).
            Measure::Erp => (a.gap_sum - b.gap_sum).abs(),
            // If the ε-expanded rectangles are disjoint in a dimension, no
            // pair of points can match: LCSS length 0, distance 1.
            Measure::Lcss => {
                if boxes_cannot_match(&a.mbr, &b.mbr, self.eps) {
                    1.0
                } else {
                    0.0
                }
            }
            // Length difference always; with disjoint ε-boxes every point
            // of either trajectory costs one edit.
            Measure::Edr => {
                let len_diff = a.len.abs_diff(b.len) as f64;
                if boxes_cannot_match(&a.mbr, &b.mbr, self.eps) {
                    len_diff.max(a.len.max(b.len) as f64)
                } else {
                    len_diff
                }
            }
        }
    }
}

/// `max` over the four endpoint-to-rectangle distances — a lower bound on
/// the (symmetric) Hausdorff distance between the summarized trajectories.
fn endpoint_mbr_bound(a: &TrajSummary, b: &TrajSummary) -> f64 {
    b.mbr
        .min_dist(a.first)
        .max(b.mbr.min_dist(a.last))
        .max(a.mbr.min_dist(b.first))
        .max(a.mbr.min_dist(b.last))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_layout_has_no_hidden_padding() {
        // mbr (4 f64) + first + last (2 f64 each) + gap_sum + len + pad.
        assert_eq!(std::mem::size_of::<TrajSummary>(), 8 * 9 + 4 + 4);
        assert_eq!(std::mem::align_of::<TrajSummary>(), 8);
    }

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn fixtures() -> Vec<(Vec<Point>, Vec<Point>)> {
        vec![
            (
                pts(&[(0.5, 6.5), (2.5, 6.5), (4.5, 6.5)]),
                pts(&[(0.5, 7.5), (2.5, 7.5), (6.5, 7.5), (6.5, 4.5)]),
            ),
            (
                pts(&[(0.0, 0.0), (1.0, 1.0)]),
                pts(&[(10.0, 10.0), (11.0, 10.0), (12.0, 11.0)]),
            ),
            (pts(&[(3.0, 3.0)]), pts(&[(3.0, 3.0)])),
            (
                pts(&[(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)]),
                pts(&[(0.1, 0.1), (5.1, 0.1), (5.1, 5.1)]),
            ),
            (pts(&[(2.0, 2.0)]), pts(&[(2.5, 2.0), (7.0, 7.0)])),
            // Same MBR, opposite direction: only the endpoint terms see it.
            (pts(&[(0.0, 0.0), (10.0, 0.0)]), pts(&[(10.0, 0.0), (0.0, 0.0)])),
        ]
    }

    #[test]
    fn summary_bound_never_exceeds_exact_distance() {
        for eps in [0.2, 1.5] {
            let params = MeasureParams::with_eps(eps);
            for (a, b) in fixtures() {
                let sa = params.summary_of(&a);
                let sb = params.summary_of(&b);
                for m in Measure::ALL {
                    let lb = params.summary_lower_bound(m, &sa, &sb);
                    let d = params.distance(m, &a, &b);
                    assert!(lb <= d + 1e-9, "{m} eps={eps}: summary lb {lb} > exact {d}");
                    let full = params.lower_bound(m, &a, &b);
                    assert!(lb <= full + 1e-9, "{m} eps={eps}: summary lb {lb} > full lb {full}");
                }
            }
        }
    }

    #[test]
    fn summary_bound_never_exceeds_full_bound_usefulness() {
        // Not a soundness requirement, but the summary bound should still
        // separate far-apart trajectories (the case it exists for).
        let params = MeasureParams::with_eps(0.3);
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(100.0, 100.0), (101.0, 100.0)]);
        let (sa, sb) = (params.summary_of(&a), params.summary_of(&b));
        for m in Measure::ALL {
            let lb = params.summary_lower_bound(m, &sa, &sb);
            assert!(lb > 0.0, "{m}: separated trajectories got zero bound");
        }
    }

    #[test]
    fn empty_inputs_are_conservative() {
        let params = MeasureParams::with_eps(0.5);
        let empty = params.summary_of(&[]);
        let one = params.summary_of(&pts(&[(3.0, 4.0)]));
        assert_eq!(empty.len, 0);
        assert_eq!(params.summary_lower_bound(Measure::Hausdorff, &empty, &one), 0.0);
        assert_eq!(params.summary_lower_bound(Measure::Edr, &empty, &one), 1.0);
        // ERP to the empty trajectory is exactly the gap sum.
        assert_eq!(params.summary_lower_bound(Measure::Erp, &empty, &one), 5.0);
    }

    #[test]
    fn gap_sum_tracks_params() {
        let params = MeasureParams { erp_gap: Point::new(1.0, 0.0), ..Default::default() };
        let s = params.summary_of(&pts(&[(1.0, 3.0), (1.0, 4.0)]));
        assert_eq!(s.gap_sum, 7.0);
        assert_eq!(s.first, Point::new(1.0, 3.0));
        assert_eq!(s.last, Point::new(1.0, 4.0));
        assert_eq!(s.len, 2);
    }
}
