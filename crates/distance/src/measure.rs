use crate::backend::{dispatch, Kernel, Lanes};
use crate::hausdorff::hausdorff_in;
use crate::simd::batch::{batch_dp, batch_erp};
use crate::within::{
    bound_exceeds, dp_within, dtw_lb, dtw_nn_refutes, dtw_within, edr_lb, edr_within, erp_lb,
    erp_within, frechet_lb, frechet_within, hausdorff_lb, hausdorff_within, just_above,
    lcss_distance_within, lcss_lb, prefilter_rejects,
};
use crate::{DistScratch, ThresholdSource};
use repose_model::Point;

/// Maximum number of candidates [`MeasureParams::distance_within_batch_in`]
/// scores in one SIMD lane group: the widest lane type's width (the scalar
/// backend scores one at a time). Callers sizing stack buffers for batched
/// verification should use this.
pub const BATCH_LANES: usize = crate::simd::AVX2_W;

/// What happened to one candidate inside [`MeasureParams::refine_by_bound`]
/// — the hook callers use to account for verification work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineEvent {
    /// The candidate reached the threshold-aware kernel; `abandoned` is
    /// `true` when the kernel refuted it before full cost.
    Scored {
        /// Whether the kernel returned `None` (candidate refuted).
        abandoned: bool,
    },
    /// The scan stopped: this many trailing candidates (sorted by lower
    /// bound) were refuted by their bounds alone, without scoring.
    SkippedRest(usize),
}

/// The similarity measures supported by REPOSE (Section I, contribution 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Measure {
    /// Hausdorff distance — metric, order-independent.
    Hausdorff,
    /// Discrete Frechet distance — metric, order-sensitive.
    Frechet,
    /// Dynamic time warping — non-metric, order-sensitive.
    Dtw,
    /// LCSS distance (`1 - LCSS/min(m,n)`) — non-metric.
    Lcss,
    /// Edit distance on real sequences — non-metric.
    Edr,
    /// Edit distance with real penalty — metric.
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
        self.distance_within_from_lb(measure, t1, t2, threshold, self.lower_bound(measure, t1, t2))
    }

    /// [`MeasureParams::distance_within`] for callers that already hold a
    /// lower bound on this pair's distance (typically
    /// [`MeasureParams::lower_bound`], computed as a sort key): the
    /// prefilter reuses it instead of recomputing the O(m+n) bound. `lb`
    /// must genuinely lower-bound the exact distance (up to the same
    /// floating-point slop the built-in bounds have — the safety margin
    /// absorbs it); passing anything larger voids the `Some`/`None`
    /// contract. `0.0` is always valid.
    pub fn distance_within_from_lb(
        &self,
        measure: Measure,
        t1: &[Point],
        t2: &[Point],
        threshold: f64,
        lb: f64,
    ) -> Option<f64> {
        DistScratch::with_thread(|s| {
            self.distance_within_from_lb_in(measure, t1, t2, threshold, lb, s)
        })
    }

    /// [`MeasureParams::distance_within_from_lb`] against a caller-managed
    /// scratch: zero heap allocations once `scratch` is warm. This is the
    /// kernel every steady-state verification site bottoms out in.
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

    /// Threshold-aware exact distances of several candidates against one
    /// query in one call: on return `out[i]` equals
    /// `distance_within_from_lb_in(measure, query, cands[i].1, threshold,
    /// cands[i].0, scratch)` — bit-identically, on every backend.
    ///
    /// When the active backend is SIMD and `measure` has a lane-batched
    /// kernel (DTW, Fréchet, ERP), candidates that survive the prefilter
    /// are verified in parallel vector lanes: the DP dependency chain —
    /// the scan bottleneck a single-pair kernel cannot break — advances
    /// once per cell for the whole lane group, and every query-side load
    /// is shared. Other measures, the scalar backend, and degenerate
    /// inputs are scored candidate by candidate with the sequential
    /// kernels.
    ///
    /// `cands` pairs each candidate's [`MeasureParams::lower_bound`] with
    /// its points (the bound contract of
    /// [`MeasureParams::distance_within_from_lb`] applies); `out` must be
    /// exactly as long as `cands`.
    pub fn distance_within_batch_in(
        &self,
        measure: Measure,
        query: &[Point],
        cands: &[(f64, &[Point])],
        threshold: f64,
        scratch: &mut DistScratch,
        out: &mut [Option<f64>],
    ) {
        assert_eq!(cands.len(), out.len(), "one output slot per candidate");
        let lanes = measure.batch_lanes();
        if lanes > 1 && !query.is_empty() && threshold > 0.0 {
            for (c, o) in cands.chunks(lanes).zip(out.chunks_mut(lanes)) {
                self.batch_lane_group(measure, query, c, threshold, scratch, o);
            }
            return;
        }
        for (&(lb, pts), o) in cands.iter().zip(out.iter_mut()) {
            *o = self.distance_within_from_lb_in(measure, query, pts, threshold, lb, scratch);
        }
    }

    /// Scores one lane group: prefilter-rejected and empty candidates are
    /// settled without touching a kernel, and a DTW candidate must also
    /// pass the nearest-neighbour stage before it may take a lane;
    /// survivors go through the lane driver at the active width (or the
    /// sequential kernel when only one survives — a one-lane vector would
    /// waste the whole group's gathers).
    fn batch_lane_group(
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

    /// Exact top-k refinement of `(lower_bound, id, points)` candidates
    /// under a collector's live threshold — the early-abandoning
    /// replacement for "score every candidate, sort, truncate to k", shared
    /// by the serving layer's delta scan and the DITA/DFT refinement
    /// passes.
    ///
    /// Sorts candidates by `(bound, id)` so the k-th distance tightens on
    /// the likely-closest ones first, scores each with the threshold-aware
    /// kernel at the *successor* of the collector's bound (equal-distance
    /// ties still get scored and resolve by id exactly as a full sort
    /// would), and stops at the first candidate whose bound proves it —
    /// and hence the sorted remainder — cannot beat the cutoff
    /// ([`bound_exceeds`], fp-safety margin included). The bound is
    /// re-read per group, so a hit another search publishes mid-scan
    /// tightens this one immediately, and every accepted hit is published
    /// back. `on_event` observes every candidate's fate for work
    /// accounting. With `scratch` warm, the only allocation left in the
    /// scan is the candidate sort itself.
    ///
    /// Afterwards the collector holds every pair this candidate set
    /// contributes to its top-k. A collector private to the call, built
    /// with [`crate::SharedTopK::with_initial_bound`]`(k, cap)`, ends up
    /// holding exactly the k smallest `(distance, id)` pairs among
    /// candidates with `dist <= cap` — what exhaustive exact scoring would
    /// keep.
    pub fn refine_by_bound(
        &self,
        measure: Measure,
        query: &[Point],
        collector: &dyn ThresholdSource,
        mut cands: Vec<(f64, u64, &[Point])>,
        mut on_event: impl FnMut(RefineEvent),
        scratch: &mut DistScratch,
    ) {
        cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let total = cands.len();
        // Lane-batched measures collect a vector's worth of candidates per
        // cutoff refresh; everything else keeps the candidate-at-a-time
        // cadence (a group of one degenerates to exactly the old loop).
        let group_len = measure.batch_lanes();
        let mut group = [(0.0f64, [].as_slice()); BATCH_LANES];
        let mut ids = [0u64; BATCH_LANES];
        let mut scored = [None; BATCH_LANES];
        let mut idx = 0;
        while idx < total {
            // The cutoff is refreshed per group; within one it goes stale,
            // but stale means only *larger* than the live value (cutoffs
            // tighten monotonically), so group members can be scored where
            // the sequential scan would have skipped them — never the
            // reverse. The extra `Some`s carry distances above the final
            // k-th and fall back out of the collector's pool, so the
            // answer is identical.
            let cutoff = collector.bound();
            let mut nb = 0;
            let mut stopped = false;
            while idx < total && nb < group_len {
                let (lb, id, points) = cands[idx];
                if bound_exceeds(lb, cutoff) {
                    stopped = true;
                    break;
                }
                group[nb] = (lb, points);
                ids[nb] = id;
                nb += 1;
                idx += 1;
            }
            self.distance_within_batch_in(
                measure,
                query,
                &group[..nb],
                just_above(cutoff),
                scratch,
                &mut scored[..nb],
            );
            for (&d, &id) in scored[..nb].iter().zip(&ids[..nb]) {
                on_event(RefineEvent::Scored { abandoned: d.is_none() });
                if let Some(d) = d {
                    collector.publish(d, id);
                }
            }
            if stopped {
                on_event(RefineEvent::SkippedRest(total - idx));
                break;
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

/// One lane group of [`MeasureParams::distance_within_batch_in`], past the
/// prefilter: every candidate and the query non-empty, `threshold > 0.0`
/// and non-NaN. The group is driven `W` candidates at a time, so a backend
/// switched by another thread since the group was sized changes no result.
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
    use crate::{dtw, edr, erp, frechet, hausdorff, lcss_distance};

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
