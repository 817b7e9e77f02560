use crate::backend::{dispatch, Kernel, Lanes};
use crate::hausdorff::hausdorff_in;
use crate::simd::batch::{batch_dp, batch_erp};
use crate::within::{
    dp_within, dtw_lb, dtw_nn_refutes, dtw_within, edr_lb, edr_within, erp_lb, erp_within,
    frechet_lb, frechet_within, hausdorff_lb, hausdorff_within, lcss_distance_within, lcss_lb,
    prefilter_rejects,
};
use crate::{DistScratch, SharedTopK};
use repose_model::Point;

/// Maximum number of candidates [`MeasureParams::verify`] scores in one
/// SIMD lane group: the widest lane type's width (the scalar
/// backend scores one at a time). Callers sizing stack buffers for one
/// lane group (verification here, the trie's DTW sibling cells) use this.
pub const BATCH_LANES: usize = crate::simd::AVX2_W;

/// The similarity measures supported by REPOSE (Section I, contribution 1).
///
/// Every measure is scored through [`MeasureParams`], with Euclidean ground
/// distance `d`. Against an empty trajectory, Hausdorff, Fréchet and DTW
/// read 0 when both are empty and `+∞` otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Measure {
    /// Hausdorff distance (Definition 2, Eq. 1): the larger of the two
    /// directed distances, each the largest distance from a point of one
    /// trajectory to its nearest neighbour in the other — metric,
    /// order-independent.
    Hausdorff,
    /// Discrete Fréchet distance (Eq. 6) — metric, order-sensitive.
    Frechet,
    /// Dynamic time warping (Eq. 12), with no warping window — non-metric,
    /// order-sensitive.
    Dtw,
    /// LCSS distance `1 - LCSS(τ1, τ2) / min(|τ1|, |τ2|)` (Vlachos et al.,
    /// ICDE'02), where `LCSS` is the length of the longest common
    /// subsequence and two points match when both coordinate differences
    /// are at most [`MeasureParams::eps`] — non-metric. Zero when the
    /// shorter trajectory's points all match a common subsequence of the
    /// other, one when nothing matches (or exactly one side is empty), so
    /// top-k "most similar" is top-k "smallest distance" as for the other
    /// measures.
    Lcss,
    /// Edit Distance on Real sequences (Chen et al., SIGMOD'05): points
    /// match (substitution cost 0) when both coordinate differences are at
    /// most [`MeasureParams::eps`]; otherwise substitution, insertion and
    /// deletion all cost 1. An integer edit count, returned as `f64` —
    /// non-metric.
    Edr,
    /// Edit distance with Real Penalty (Chen & Ng, VLDB'04) with gap point
    /// `g` = [`MeasureParams::erp_gap`] — metric, which is why the paper
    /// groups it with Hausdorff and Fréchet for pivot-based pruning:
    ///
    /// ```text
    /// erp(i,j) = min( erp(i-1,j-1) + d(q_i, p_j),
    ///                 erp(i-1,j)   + d(q_i, g),
    ///                 erp(i,j-1)   + d(p_j, g) )
    /// ```
    Erp,
}

impl Measure {
    /// All six measures, in the paper's order.
    pub const ALL: [Measure; 6] = [
        Measure::Hausdorff,
        Measure::Frechet,
        Measure::Dtw,
        Measure::Lcss,
        Measure::Edr,
        Measure::Erp,
    ];

    /// Whether the measure satisfies the triangle inequality, enabling
    /// pivot-based pruning (Section IV-D / VI).
    pub fn is_metric(&self) -> bool {
        matches!(self, Measure::Hausdorff | Measure::Frechet | Measure::Erp)
    }

    /// Whether the measure ignores point order, enabling the z-value
    /// re-arrangement trie optimization (Section III-C: Hausdorff only).
    pub fn is_order_independent(&self) -> bool {
        matches!(self, Measure::Hausdorff)
    }

    /// Number of candidates the active backend's lane-batched verification
    /// path scores together for this measure — [`Backend::lanes`] for the
    /// measures with a batched kernel (DTW, Fréchet, ERP), 1 (sequential)
    /// for the rest. Group-collecting verification loops size their batches
    /// with this so the scalar backend keeps its candidate-at-a-time
    /// threshold cadence.
    ///
    /// [`Backend::lanes`]: crate::Backend::lanes
    pub fn batch_lanes(&self) -> usize {
        match self {
            Measure::Dtw | Measure::Frechet | Measure::Erp => {
                crate::backend::active_backend().lanes()
            }
            _ => 1,
        }
    }

    /// Human-readable name, matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Hausdorff => "Hausdorff",
            Measure::Frechet => "Frechet",
            Measure::Dtw => "DTW",
            Measure::Lcss => "LCSS",
            Measure::Edr => "EDR",
            Measure::Erp => "ERP",
        }
    }
}

impl std::fmt::Display for Measure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Measure {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "hausdorff" => Ok(Measure::Hausdorff),
            "frechet" | "fréchet" => Ok(Measure::Frechet),
            "dtw" => Ok(Measure::Dtw),
            "lcss" => Ok(Measure::Lcss),
            "edr" => Ok(Measure::Edr),
            "erp" => Ok(Measure::Erp),
            other => Err(format!("unknown measure: {other}")),
        }
    }
}

/// Per-measure parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MeasureParams {
    /// Matching threshold for LCSS and EDR.
    pub eps: f64,
    /// Gap point for ERP.
    pub erp_gap: Point,
}

impl Default for MeasureParams {
    fn default() -> Self {
        MeasureParams { eps: 0.01, erp_gap: Point::new(0.0, 0.0) }
    }
}

impl MeasureParams {
    /// Parameters with a given LCSS/EDR threshold.
    pub fn with_eps(eps: f64) -> Self {
        MeasureParams { eps, ..Default::default() }
    }

    /// Computes the distance between two trajectories under `measure`.
    ///
    /// Borrows the calling thread's [`DistScratch`]; loops that own a
    /// scratch should call [`MeasureParams::distance_in`].
    pub fn distance(&self, measure: Measure, t1: &[Point], t2: &[Point]) -> f64 {
        DistScratch::with_thread(|s| self.distance_in(measure, t1, t2, s))
    }

    /// [`MeasureParams::distance`] against a caller-managed scratch: zero
    /// heap allocations once `scratch` is warm.
    ///
    /// For every measure but Hausdorff this *is* the threshold kernel, run
    /// at `+∞` (see [`crate::within`]).
    pub fn distance_in(
        &self,
        measure: Measure,
        t1: &[Point],
        t2: &[Point],
        scratch: &mut DistScratch,
    ) -> f64 {
        match measure {
            Measure::Hausdorff => hausdorff_in(t1, t2, scratch),
            _ => self
                .distance_within_from_lb_in(measure, t1, t2, f64::INFINITY, 0.0, scratch)
                .unwrap_or(f64::INFINITY),
        }
    }

    /// Threshold-aware exact distance: `Some(d)` with `d` bit-identical to
    /// [`MeasureParams::distance`] when `d < threshold`, `None` when the
    /// distance is `>= threshold` — usually decided at a fraction of the
    /// full kernel cost (see [`crate::within`]-module docs).
    ///
    /// Substituting this for `distance` at any verification site that
    /// discards candidates at `threshold` leaves query results unchanged.
    pub fn distance_within(
        &self,
        measure: Measure,
        t1: &[Point],
        t2: &[Point],
        threshold: f64,
    ) -> Option<f64> {
        let lb = self.lower_bound(measure, t1, t2);
        DistScratch::with_thread(|s| {
            self.distance_within_from_lb_in(measure, t1, t2, threshold, lb, s)
        })
    }

    /// [`MeasureParams::distance_within`] for callers that already hold a
    /// lower bound on this pair's distance (typically
    /// [`MeasureParams::lower_bound`], computed as a sort key), against a
    /// caller-managed scratch: the prefilter reuses `lb` instead of
    /// recomputing the O(m+n) bound, and a warm `scratch` makes zero heap
    /// allocations. `lb` must genuinely lower-bound the exact distance (up
    /// to the same floating-point slop the built-in bounds have — the
    /// safety margin absorbs it); passing anything larger voids the
    /// `Some`/`None` contract. `0.0` is always valid. This is the kernel
    /// every steady-state verification site bottoms out in.
    pub fn distance_within_from_lb_in(
        &self,
        measure: Measure,
        t1: &[Point],
        t2: &[Point],
        threshold: f64,
        lb: f64,
        scratch: &mut DistScratch,
    ) -> Option<f64> {
        if prefilter_rejects(lb, threshold) {
            return None;
        }
        match measure {
            Measure::Hausdorff => hausdorff_within(t1, t2, threshold),
            Measure::Frechet => frechet_within(t1, t2, threshold, scratch),
            Measure::Dtw => dtw_within(t1, t2, threshold, scratch),
            Measure::Lcss => lcss_distance_within(t1, t2, self.eps, threshold, scratch),
            Measure::Edr => edr_within(t1, t2, self.eps, threshold, scratch),
            Measure::Erp => erp_within(t1, t2, self.erp_gap, threshold, scratch),
        }
    }

    /// Scores one lane group of [`MeasureParams::verify`]: `out[i]` is
    /// `distance_within_from_lb_in(measure, query, cands[i].1, threshold,
    /// cands[i].0, scratch)`, bit for bit. Prefilter-rejected and empty
    /// candidates are settled without touching a kernel, and a DTW
    /// candidate must also pass the nearest-neighbour stage before it may
    /// take a lane; survivors go through the lane driver at the active
    /// width (or the sequential kernel when only one survives — a one-lane
    /// vector would waste the whole group's gathers). The query must be
    /// non-empty and `threshold` positive.
    fn lane_group(
        &self,
        measure: Measure,
        query: &[Point],
        cands: &[(f64, &[Point])],
        threshold: f64,
        scratch: &mut DistScratch,
        out: &mut [Option<f64>],
    ) {
        debug_assert!(cands.len() <= BATCH_LANES);
        let mut group: [&[Point]; BATCH_LANES] = [&[]; BATCH_LANES];
        let mut slot = [0usize; BATCH_LANES];
        let mut nl = 0;
        for (i, &(lb, pts)) in cands.iter().enumerate() {
            if prefilter_rejects(lb, threshold) {
                out[i] = None;
            } else if pts.is_empty() {
                out[i] =
                    self.distance_within_from_lb_in(measure, query, pts, threshold, lb, scratch);
            } else if measure == Measure::Dtw && dtw_nn_refutes(query, pts, threshold, scratch) {
                out[i] = None;
            } else {
                group[nl] = pts;
                slot[nl] = i;
                nl += 1;
            }
        }
        if nl == 0 {
            return;
        }
        if nl == 1 {
            let (lb, pts) = cands[slot[0]];
            out[slot[0]] = if measure == Measure::Dtw {
                // Already past the prefilter and the nearest-neighbour
                // stage: straight to the dynamic program.
                dp_within::<false>(query, pts, threshold, scratch)
            } else {
                self.distance_within_from_lb_in(measure, query, pts, threshold, lb, scratch)
            };
            return;
        }
        let mut lane_out = [None; BATCH_LANES];
        let (cands, gap) = (&group[..nl], self.erp_gap);
        let lanes = &mut lane_out[..nl];
        dispatch(Batch { measure, gap, query, cands, threshold, scratch, out: lanes });
        for (l, &s) in slot[..nl].iter().enumerate() {
            out[s] = lane_out[l];
        }
    }

    /// The one verification step every search runs (Algorithm 2's leaf
    /// loop): scores `(lower bound, id, points)` candidates, in the order
    /// given, against `collector`'s live k-th distance, publishes every
    /// accepted distance into it, and returns `(scored, abandoned)` — the
    /// candidates scored and those the threshold refuted. It neither sorts
    /// nor stops early: a caller that orders candidates by bound cuts the
    /// tail in the iterator.
    ///
    /// Candidates are scored a lane group of [`Measure::batch_lanes`] at a
    /// time. When the active backend is SIMD and `measure` has a
    /// lane-batched kernel (DTW, Fréchet, ERP), a group's candidates that
    /// survive the prefilter are verified in parallel vector lanes: the DP
    /// dependency chain — the scan bottleneck a single-pair kernel cannot
    /// break — advances once per cell for the whole group, and every
    /// query-side load is shared. Every candidate's result is bit-identical
    /// to [`MeasureParams::distance_within_from_lb_in`]'s on every backend.
    ///
    /// The bound is read once per lane group and compared strictly
    /// (`d < bound`), so a candidate tied with the k-th distance is
    /// refused. A caller that must keep ties with an outside cap seeds the
    /// collector at `just_above(cap)`. Within a group the bound is stale,
    /// but stale only means larger: a member may be accepted where a
    /// one-at-a-time scan would have refuted it, never the reverse, and
    /// such extras fall back out of the collector's pool, so the answer is
    /// the same. Each `bound` must genuinely lower-bound its candidate's
    /// distance (`0.0` always does).
    pub fn verify<'p>(
        &self,
        measure: Measure,
        query: &[Point],
        cands: impl IntoIterator<Item = (f64, u64, &'p [Point])>,
        collector: &SharedTopK,
        scratch: &mut DistScratch,
    ) -> (usize, usize) {
        let lanes = measure.batch_lanes();
        let mut group = [(0.0f64, [].as_slice()); BATCH_LANES];
        let mut ids = [0u64; BATCH_LANES];
        let mut out = [None; BATCH_LANES];
        let (mut scored, mut abandoned) = (0, 0);
        let mut cands = cands.into_iter();
        loop {
            let bound = collector.bound();
            let mut nb = 0;
            for (lb, id, points) in cands.by_ref().take(lanes) {
                group[nb] = (lb, points);
                ids[nb] = id;
                nb += 1;
            }
            if nb == 0 {
                return (scored, abandoned);
            }
            let (group, out) = (&group[..nb], &mut out[..nb]);
            if lanes > 1 && !query.is_empty() && bound > 0.0 {
                self.lane_group(measure, query, group, bound, scratch, out);
            } else {
                for (&(lb, pts), o) in group.iter().zip(out.iter_mut()) {
                    *o = self.distance_within_from_lb_in(measure, query, pts, bound, lb, scratch);
                }
            }
            scored += nb;
            for (&d, &id) in out.iter().zip(&ids[..nb]) {
                match d {
                    // An accepted hit prunes every search sharing the
                    // collector.
                    Some(d) => collector.publish(d, id),
                    None => abandoned += 1,
                }
            }
        }
    }

    /// Cheap `O(m + n)` lower bound on the exact distance under `measure`
    /// (MBR, endpoint, and gap-sum arguments — the `distance_within`
    /// prefilter). Useful for ordering candidates so that a running top-k
    /// threshold tightens as fast as possible before exact scoring.
    pub fn lower_bound(&self, measure: Measure, t1: &[Point], t2: &[Point]) -> f64 {
        match measure {
            Measure::Hausdorff => hausdorff_lb(t1, t2),
            Measure::Frechet => frechet_lb(t1, t2),
            Measure::Dtw => dtw_lb(t1, t2),
            Measure::Lcss => lcss_lb(t1, t2, self.eps),
            Measure::Edr => edr_lb(t1, t2, self.eps),
            Measure::Erp => erp_lb(t1, t2, self.erp_gap),
        }
    }
}

/// One lane group of [`MeasureParams::verify`], past the prefilter: every
/// candidate and the query non-empty, `threshold > 0.0` and non-NaN. The
/// group is driven `W` candidates at a time, so a backend switched by
/// another thread since the group was sized changes no result.
struct Batch<'a> {
    measure: Measure,
    gap: Point,
    query: &'a [Point],
    cands: &'a [&'a [Point]],
    threshold: f64,
    scratch: &'a mut DistScratch,
    out: &'a mut [Option<f64>],
}

impl Kernel for Batch<'_> {
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Batch { measure, gap, query, cands, threshold, scratch, out } = self;
        for (cands, out) in cands.chunks(V::W).zip(out.chunks_mut(V::W)) {
            match measure {
                Measure::Dtw => batch_dp::<V, false>(query, cands, threshold, scratch, out),
                Measure::Frechet => batch_dp::<V, true>(query, cands, threshold, scratch, out),
                Measure::Erp => batch_erp::<V>(query, cands, gap, threshold, scratch, out),
                _ => unreachable!("lane-batched path requires a batched kernel"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dtw, edr, erp, frechet, hausdorff, lcss_distance};

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn metric_and_order_flags_match_the_paper() {
        use Measure::*;
        assert!(Hausdorff.is_metric());
        assert!(Frechet.is_metric());
        assert!(Erp.is_metric());
        assert!(!Dtw.is_metric());
        assert!(!Lcss.is_metric());
        assert!(!Edr.is_metric());
        assert!(Hausdorff.is_order_independent());
        for m in [Frechet, Dtw, Lcss, Edr, Erp] {
            assert!(!m.is_order_independent(), "{m} should be order sensitive");
        }
    }

    #[test]
    fn dispatch_agrees_with_direct_calls() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let b = pts(&[(0.5, 0.5), (1.5, 1.5), (2.5, 0.5)]);
        let p = MeasureParams::with_eps(0.6);
        assert_eq!(p.distance(Measure::Hausdorff, &a, &b), hausdorff(&a, &b));
        assert_eq!(p.distance(Measure::Frechet, &a, &b), frechet(&a, &b));
        assert_eq!(p.distance(Measure::Dtw, &a, &b), dtw(&a, &b));
        assert_eq!(p.distance(Measure::Lcss, &a, &b), lcss_distance(&a, &b, 0.6));
        assert_eq!(p.distance(Measure::Edr, &a, &b), edr(&a, &b, 0.6));
        assert_eq!(
            p.distance(Measure::Erp, &a, &b),
            erp(&a, &b, Point::new(0.0, 0.0))
        );
    }

    #[test]
    fn identity_for_all_measures() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let p = MeasureParams::default();
        for m in Measure::ALL {
            assert_eq!(p.distance(m, &a, &a), 0.0, "{m}");
        }
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for m in Measure::ALL {
            let parsed: Measure = m.name().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("nope".parse::<Measure>().is_err());
    }
}
