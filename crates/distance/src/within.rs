//! The exact kernels: one threshold-aware, early-abandoning scalar kernel
//! per measure.
//!
//! Every `*_within(t1, t2, .., threshold, scratch)` function in this module
//! returns
//!
//! * `Some(d)` with `d` the exact distance (bit-for-bit the frozen
//!   [`crate::reference`] kernel's value) whenever `d < threshold`, and
//! * `None` whenever the true distance is `>= threshold`.
//!
//! Each DP measure has one recurrence, and the trie's incremental bounds
//! push the same one: the kernels here push the candidate's points through
//! the measure's column ([`crate::DtwColumn`], [`crate::FrechetColumn`],
//! [`crate::ErpColumn`], [`crate::EdrColumn`], [`crate::LcssColumn`]) with
//! their exact ground cost over a scratch buffer, where the trie pushes
//! cells with an optimistic one. The unbounded distance is
//! `within(+∞).unwrap_or(+∞)` — at an infinite threshold no finite minimum
//! abandons, and the one value the final `d < +∞` gate turns into `None` is
//! `+∞` itself (an empty input, or a DTW/ERP sum that overflowed).
//! Hausdorff alone also keeps an unbounded kernel (`hausdorff_in`):
//! its single pass over the matrix is a different algorithm from the two
//! directed passes used here, and faster when nothing can be abandoned.
//! Inputs must be finite — a NaN coordinate voids the contract, which is
//! why the service and wire edges reject one.
//!
//! A caller holding a running top-k threshold `dk` can therefore substitute
//! `distance_within(.., dk)` for `distance(..)` without changing any query
//! result — while paying far less than the full `O(m·n)` cost on candidates
//! that were never going to make the top-k. Three mechanisms provide the
//! savings:
//!
//! 1. A cheap `O(m + n)` **prefilter** ([`crate::MeasureParams::lower_bound`]):
//!    MBR/endpoint/gap-sum lower bounds that skip the dynamic program
//!    entirely for far-away candidates.
//! 2. For DTW, a point-level **nearest-neighbour stage** (`dtw_nn_refutes`,
//!    soundness argument there): the sums of every point's distance to its
//!    nearest neighbour in the other trajectory — Hausdorff's row/column
//!    minima sweep (`hausdorff.rs`) folded by `Σ√` instead of `max` —
//!    refuse most candidates the prefilter lets through, at a fraction of
//!    the dynamic program's cost.
//! 3. **Early abandoning** inside the exact computation: Hausdorff stops
//!    as soon as any point's nearest-neighbour distance reaches the
//!    threshold; Frechet/DTW/ERP/EDR stop when an entire DP column minimum
//!    reaches it (sound because column minima never decrease as columns
//!    are pushed — costs are max-monotone or additive non-negative); LCSS
//!    stops when the best still-achievable match count cannot beat the
//!    threshold.
//!
//! Hausdorff's directed pass and the DTW nearest-neighbour stage are written
//! once over the lane trait (`backend::Lanes`) and run at the active
//! backend's width; the dynamic programs of a single pair run at one lane on
//! every backend (lanes pay only across candidates,
//! [`crate::MeasureParams::verify`]).
//!
//! The kernels themselves are crate-private; callers reach them through
//! [`crate::MeasureParams`]. What this module exports is the threshold
//! plumbing around them: [`just_above`] and [`bound_exceeds`].

use crate::backend::{dispatch, Kernel, Lanes};
use crate::column::{advance, advance2, edr_advance, erp_advance, erp_init, lcss_advance};
use crate::hausdorff::nn_sweep;
use crate::DistScratch;
use repose_model::{Mbr, Point};

/// Safety factor applied to prefilter bounds before they may reject a
/// candidate. The geometric/triangle-inequality bounds are exact in real
/// arithmetic but may exceed the DP's value by a few ulps in floating
/// point; shrinking them by one part in 10⁹ keeps the `Some`/`None`
/// contract airtight at any realistic coordinate magnitude.
const LB_SAFETY: f64 = 1.0 - 1e-9;

/// The smallest `f64` strictly greater than `x`, for non-negative `x`
/// (`x.next_up()`, with infinity and NaN passed through).
///
/// Callers that need *inclusive* semantics — "keep every candidate with
/// `d <= dk`", as the baselines' final range passes and a shard's seeded
/// scatter do — get them by seeding the collector at `just_above(dk)`:
/// verification itself always compares strictly against the live bound
/// ([`crate::MeasureParams::verify`]).
pub fn just_above(x: f64) -> f64 {
    debug_assert!(x >= 0.0 || x.is_nan(), "just_above is for non-negative thresholds");
    x.next_up()
}

/// Distance between two empty-or-not slices following the convention every
/// unbounded kernel uses for empty inputs, filtered by the threshold.
fn empty_case(both_zero: bool, threshold: f64) -> Option<f64> {
    let d = if both_zero { 0.0 } else { f64::INFINITY };
    (d < threshold).then_some(d)
}

// ---------------------------------------------------------------------------
// Hausdorff
// ---------------------------------------------------------------------------

/// One directed pass `max_{a in from} min_{b in to} d²(a, b)` in `V`'s
/// lanes, with two abandons:
///
/// * **row irrelevance** — once a row's running minimum drops to the
///   current max (`worst`), the row cannot raise the max; stop scanning it
///   (the classic early-break directed Hausdorff).
/// * **threshold abandon** — a completed row minimum `>= thr_sq` proves the
///   directed (hence the symmetric) distance is `>= threshold`.
///
/// The inner row is consumed in chunks of 8 contiguous points, `W` at a
/// time with a branch-free running minimum (a chunk's last `< W` points one
/// at a time); the irrelevance break is
/// re-checked at chunk granularity. Decisions and values are identical to
/// the point-at-a-time loop at every width: a chunk only ever *extends* a
/// row past where the early break would have fired, and an extended scan
/// can only lower `best` further below `worst` — the skip/abandon outcome
/// and the recorded row minima are unchanged (`f64` min is order-independent
/// for the non-NaN distances here).
#[inline(always)]
fn directed_within_sq<V: Lanes>(from: &[Point], to: &[Point], thr_sq: f64) -> Option<f64> {
    let mut worst = 0.0f64;
    for a in from {
        let (ax, ay) = (V::splat(a.x), V::splat(a.y));
        let mut best = f64::INFINITY;
        for chunk in to.chunks(8) {
            let (mut m, mut j) = (V::splat(f64::INFINITY), 0);
            while j + V::W <= chunk.len() {
                let (xs, ys) = V::load_points(&chunk[j..]);
                let (dx, dy) = (ax - xs, ay - ys);
                m = m.min(dx * dx + dy * dy);
                j += V::W;
            }
            let m = chunk[j..].iter().fold(m.hmin(), |m, b| Lanes::min(m, a.dist_sq(b)));
            if m < best {
                best = m;
            }
            if best <= worst {
                break; // row can no longer raise the max
            }
        }
        if best > worst {
            if best >= thr_sq {
                return None;
            }
            worst = best;
        }
    }
    Some(worst)
}

/// Early-abandoning Hausdorff distance (see module docs for the contract):
/// the two directed passes, which keep only O(1) state, so no scratch.
pub(crate) fn hausdorff_within(t1: &[Point], t2: &[Point], threshold: f64) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None; // distances are non-negative
    }
    dispatch(HausdorffWithin { t1, t2, threshold })
}

/// [`hausdorff_within`]'s kernel past its guards.
struct HausdorffWithin<'a> {
    t1: &'a [Point],
    t2: &'a [Point],
    threshold: f64,
}

impl Kernel for HausdorffWithin<'_> {
    type Out = Option<f64>;

    #[inline(always)]
    fn run<V: Lanes>(self) -> Option<f64> {
        let threshold = self.threshold;
        let thr_sq = if threshold < f64::MAX.sqrt() {
            threshold * threshold
        } else {
            f64::INFINITY
        };
        let a = directed_within_sq::<V>(self.t1, self.t2, thr_sq)?;
        let b = directed_within_sq::<V>(self.t2, self.t1, thr_sq)?;
        let d = a.max(b).sqrt();
        (d < threshold).then_some(d)
    }
}

// ---------------------------------------------------------------------------
// Frechet / DTW — one column recurrence
// ---------------------------------------------------------------------------

/// Early-abandoning discrete Fréchet: the guards, then [`dp_within`].
pub(crate) fn frechet_within(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    dp_within::<true>(t1, t2, threshold, scratch)
}

/// Early-abandoning DTW: guards, then the nearest-neighbour stage
/// ([`dtw_nn_refutes`]), then the dynamic program ([`dp_within`]).
///
/// The nearest-neighbour stage only ever turns a `None` the dynamic program
/// would have reached into a cheaper `None`.
pub(crate) fn dtw_within(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    if dtw_nn_refutes(t1, t2, threshold, scratch) {
        return None;
    }
    dp_within::<false>(t1, t2, threshold, scratch)
}

/// The DTW nearest-neighbour stage: `true` when
/// `max(Σ_i min_j d(t1[i], t2[j]), Σ_j min_i d(t1[i], t2[j]))` already
/// proves `dtw(t1, t2) >= threshold`. Inputs must be non-empty and
/// `threshold` positive and non-NaN. Never at `threshold = +∞`, without
/// looking: the unbounded distance is the DTW kernel at `+∞`, where nothing
/// can be refused and the sweep would be pure cost.
///
/// One nearest-neighbour sweep ([`nn_sweep`]) — the pass Hausdorff makes —
/// with `t2`'s minima summed in index order as they complete (stopping the
/// sweep at the first refuting partial sum), then `t1`'s summed in index
/// order. The terms are non-negative and `fl(x + y)` is monotone, so a
/// partial sum never exceeds its complete sum: the stage refuses exactly
/// when one of the two complete sums does, wherever the sweep stops.
///
/// **Sound in real arithmetic**: a warping path has a cell in every row and
/// in every column, and ground costs are non-negative, so the path's cost is
/// at least the sum over rows (columns) of the cheapest cell in each.
///
/// **Sound in floating point, without an epsilon**, against the very value
/// [`dp_within`] computes:
///
/// * IEEE `sqrt` is correctly rounded and monotone, so `√(min_j d²)` *is*
///   `min_j t1[i].dist(t2[j])` bit for bit — each term is the smallest
///   ground cost the dynamic program sees in that row (column).
/// * `fl(x + y)` is monotone in both operands, so the dynamic program's
///   result is the smallest, over all warping paths, of the path's costs
///   `fl`-summed in path order (`min` commutes with a monotone map); and
///   dropping a non-negative term from such a sum, or lowering one, never
///   raises it.
/// * Along any path the rows (columns) appear in index order. Keeping one
///   cell per row (column) of the best path and lowering each to its row's
///   (column's) minimum therefore yields exactly the in-order sum computed
///   here — which is hence `<=` the dynamic program's result.
///
/// The house margin [`LB_SAFETY`] stays on anyway: the test is the one
/// [`prefilter_rejects`] every other bound goes through.
pub(crate) fn dtw_nn_refutes(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    scratch: &mut DistScratch,
) -> bool {
    threshold != f64::INFINITY && dispatch(NnRefutes { t1, t2, threshold, scratch })
}

/// [`dtw_nn_refutes`]' kernel past its guard.
struct NnRefutes<'a> {
    t1: &'a [Point],
    t2: &'a [Point],
    threshold: f64,
    scratch: &'a mut DistScratch,
}

impl Kernel for NnRefutes<'_> {
    type Out = bool;

    #[inline(always)]
    fn run<V: Lanes>(self) -> bool {
        let threshold = self.threshold;
        // `false` once the running sum of roots refutes.
        let admits = |sum: &mut f64, root: f64| {
            *sum += root;
            !prefilter_rejects(*sum, threshold)
        };
        let mut streamed = 0.0;
        let rest = nn_sweep::<V>(self.t1, self.t2, self.scratch, |mins, w| {
            // `W` roots per vector `sqrt`, added in index order.
            let roots = mins.sqrt().to_array();
            roots.as_ref()[..w].iter().all(|&r| admits(&mut streamed, r))
        });
        let Some(rest) = rest else {
            return true;
        };
        let mut sum = 0.0;
        !rest.iter().all(|&min_sq| admits(&mut sum, min_sq.sqrt()))
    }
}

/// The DTW (`MAX = false`) or Fréchet (`MAX = true`) dynamic program under
/// a threshold: `t2`'s points pushed through the [`advance`] column over
/// `t1` with their exact ground cost, two columns per pass — always at one
/// lane, whichever backend is active. Inputs must be non-empty and
/// `threshold` positive and non-NaN (the callers' guards).
///
/// Sound because ground costs are non-negative: every cell is its cost `⊕`
/// a predecessor, so the column minimum never decreases and the final
/// `f_{m,n}` is at least every column's minimum.
///
/// Fréchet runs in *squared*-distance space: its recurrence only takes
/// `max`/`min` of ground values, so one correctly rounded, monotone IEEE
/// `sqrt` per column-minimum check and one at the end give the bits of the
/// linear-space recurrence.
pub(crate) fn dp_within<const MAX: bool>(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let ground = |p: Point| move |q: &Point| if MAX { q.dist_sq(&p) } else { q.dist(&p) };
    let lin = |v: f64| if MAX { v.sqrt() } else { v };
    let col = scratch.f1_uninit(t1.len());
    let (p0, rest) = t2.split_first().expect("non-empty");
    if lin(advance::<f64, MAX>(&mut *col, true, t1, ground(*p0))) >= threshold {
        return None;
    }
    // Two interleaved chains, bit-identical cells; the two minima are
    // checked in column order, as one column at a time would check them.
    let mut pairs = rest.chunks_exact(2);
    for pair in &mut pairs {
        let (c1, c2) = advance2::<MAX>(col, t1, ground(pair[0]), ground(pair[1]));
        if lin(c1) >= threshold || lin(c2) >= threshold {
            return None;
        }
    }
    for p in pairs.remainder() {
        if lin(advance::<f64, MAX>(&mut *col, false, t1, ground(*p))) >= threshold {
            return None;
        }
    }
    let d = lin(col[col.len() - 1]);
    (d < threshold).then_some(d)
}

// ---------------------------------------------------------------------------
// ERP / EDR / LCSS — the trie bounds' columns, pushed with exact costs
// ---------------------------------------------------------------------------

/// Early-abandoning ERP with gap point `gap`: `t2`'s points pushed through
/// the [`erp_advance`] column over `t1` with their exact match and gap
/// costs. Abandons once a column minimum reaches the threshold: edit costs
/// are non-negative, so column minima never decrease, and every alignment
/// crosses every column, boundary row included.
pub(crate) fn erp_within(
    t1: &[Point],
    t2: &[Point],
    gap: Point,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        let d: f64 = t1.iter().chain(t2).map(|p| p.dist(&gap)).sum();
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let (col, qgap, _) = scratch.f3_uninit(t1.len() + 1, t1.len(), 0);
    erp_init::<f64>(col, qgap, t1, gap);
    for p in t2 {
        if erp_advance::<f64>(col, t1, qgap, p.dist(&gap), |q| q.dist(p)) >= threshold {
            return None;
        }
    }
    let d = col[t1.len()];
    (d < threshold).then_some(d)
}

/// The exact per-dimension `eps` match of EDR and LCSS.
#[inline(always)]
fn eps_match(a: &Point, b: &Point, eps: f64) -> bool {
    (a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps
}

/// Early-abandoning EDR with matching threshold `eps`: `t2`'s points pushed
/// through the [`edr_advance`] column over `t1`, abandoning on the column
/// minimum as ERP does (unit edit costs are non-negative).
pub(crate) fn edr_within(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let (m, n) = (t1.len(), t2.len());
    if m == 0 || n == 0 {
        let d = (m + n) as f64;
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let col = scratch.u1_uninit(m + 1);
    for (i, c) in col.iter_mut().enumerate() {
        *c = i as u32;
    }
    for p in t2 {
        if f64::from(edr_advance(col, t1, |q| eps_match(q, p, eps))) >= threshold {
            return None;
        }
    }
    let d = f64::from(col[m]);
    (d < threshold).then_some(d)
}

/// LCSS match count of two **non-empty** trajectories: `t2`'s points pushed
/// through the [`lcss_advance`] column over `t1`, abandoning once the LCSS
/// distance provably reaches `threshold`.
///
/// After `j + 1` of `n` points the final match count is at most the
/// column's last cell plus `n - 1 - j` (appending one point grows an LCS by
/// at most one), so abandon when even that cannot beat the threshold (never
/// at `threshold = +∞`).
pub(crate) fn lcss_length_within(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<u32> {
    let (m, n) = (t1.len(), t2.len());
    let minlen = m.min(n);
    let col = scratch.u1_uninit(m);
    col.fill(0);
    for (j, p) in t2.iter().enumerate() {
        lcss_advance(col, t1, |q| eps_match(q, p, eps));
        let achievable = (col[m - 1] as usize + (n - 1 - j)).min(minlen);
        if 1.0 - achievable as f64 / minlen as f64 >= threshold {
            return None;
        }
    }
    Some(col[m - 1])
}

/// Early-abandoning LCSS distance `1 - LCSS / min(m, n)` with matching
/// threshold `eps`.
pub(crate) fn lcss_distance_within(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        let d = if t1.is_empty() && t2.is_empty() { 0.0 } else { 1.0 };
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let l = lcss_length_within(t1, t2, eps, threshold, scratch)?;
    let d = 1.0 - f64::from(l) / t1.len().min(t2.len()) as f64;
    (d < threshold).then_some(d)
}

// ---------------------------------------------------------------------------
// O(m + n) prefilter lower bounds
// ---------------------------------------------------------------------------

/// `max_{a in from} minDist(a, mbr)` — lower-bounds the directed Hausdorff
/// term `max_a min_b d(a, b)` because every point of the other trajectory
/// lies inside `mbr`.
fn max_min_dist(from: &[Point], mbr: &Mbr) -> f64 {
    from.iter()
        .map(|a| mbr.min_dist(*a))
        .fold(0.0f64, f64::max)
}

/// MBR lower bound for Hausdorff: both directed terms, each against the
/// other trajectory's bounding rectangle.
pub(crate) fn hausdorff_lb(t1: &[Point], t2: &[Point]) -> f64 {
    let (Some(m1), Some(m2)) = (Mbr::from_points(t1), Mbr::from_points(t2)) else {
        return 0.0;
    };
    max_min_dist(t1, &m2).max(max_min_dist(t2, &m1))
}

/// Frechet lower bound: Frechet dominates Hausdorff, and it must align the
/// two start points and the two end points.
pub(crate) fn frechet_lb(t1: &[Point], t2: &[Point]) -> f64 {
    let (Some(a1), Some(b1)) = (t1.first(), t2.first()) else {
        return 0.0;
    };
    let (a2, b2) = (t1.last().expect("non-empty"), t2.last().expect("non-empty"));
    hausdorff_lb(t1, t2).max(a1.dist(b1)).max(a2.dist(b2))
}

/// DTW lower bound: a warping path visits every row and every column at
/// least once, so DTW is at least the sum over either trajectory's points
/// of the minimum distance to the other's bounding rectangle; and it
/// contains the cells `(1, 1)` and `(m, n)`, so it is at least the
/// start–start and the end–end distance (the terms that keep
/// [`crate::MeasureParams::summary_lower_bound`] below this bound).
pub(crate) fn dtw_lb(t1: &[Point], t2: &[Point]) -> f64 {
    let (Some(m1), Some(m2)) = (Mbr::from_points(t1), Mbr::from_points(t2)) else {
        return 0.0;
    };
    let s1: f64 = t1.iter().map(|a| m2.min_dist(*a)).sum();
    let s2: f64 = t2.iter().map(|b| m1.min_dist(*b)).sum();
    let ends = t1[0].dist(&t2[0]).max(t1[t1.len() - 1].dist(&t2[t2.len() - 1]));
    s1.max(s2).max(ends)
}

/// ERP lower bound (Chen & Ng): ERP is a metric and `erp(t, []) = Σ d(p, g)`,
/// so by the triangle inequality `erp(t1, t2) >= |Σ d(a, g) − Σ d(b, g)|`.
pub(crate) fn erp_lb(t1: &[Point], t2: &[Point], gap: Point) -> f64 {
    let s1: f64 = t1.iter().map(|p| p.dist(&gap)).sum();
    let s2: f64 = t2.iter().map(|p| p.dist(&gap)).sum();
    (s1 - s2).abs()
}

/// Whether `p` could match *any* point inside `mbr` under the per-dimension
/// `eps` test used by LCSS and EDR — the optimistic match of the trie's
/// EDR and LCSS bounds, too.
pub fn could_match(p: Point, mbr: &Mbr, eps: f64) -> bool {
    p.x >= mbr.min.x - eps
        && p.x <= mbr.max.x + eps
        && p.y >= mbr.min.y - eps
        && p.y <= mbr.max.y + eps
}

/// LCSS lower bound: a point outside the other trajectory's `eps`-expanded
/// MBR can never participate in a match, which caps the achievable LCS
/// length from both sides.
pub(crate) fn lcss_lb(t1: &[Point], t2: &[Point], eps: f64) -> f64 {
    let (Some(m1), Some(m2)) = (Mbr::from_points(t1), Mbr::from_points(t2)) else {
        return 0.0;
    };
    let c1 = t1.iter().filter(|p| could_match(**p, &m2, eps)).count();
    let c2 = t2.iter().filter(|p| could_match(**p, &m1, eps)).count();
    let minlen = t1.len().min(t2.len());
    1.0 - c1.min(c2).min(minlen) as f64 / minlen as f64
}

/// EDR lower bound: length difference, plus one guaranteed edit per point
/// that cannot match anything in the other trajectory.
pub(crate) fn edr_lb(t1: &[Point], t2: &[Point], eps: f64) -> f64 {
    let len_diff = t1.len().abs_diff(t2.len()) as f64;
    let (Some(m1), Some(m2)) = (Mbr::from_points(t1), Mbr::from_points(t2)) else {
        return len_diff;
    };
    let u1 = t1.iter().filter(|p| !could_match(**p, &m2, eps)).count();
    let u2 = t2.iter().filter(|p| !could_match(**p, &m1, eps)).count();
    len_diff.max(u1 as f64).max(u2 as f64)
}

/// Applies the prefilter: `true` when the cheap lower bound (shrunk by the
/// floating-point safety margin) already proves the distance is at or above
/// the threshold.
pub(crate) fn prefilter_rejects(lb: f64, threshold: f64) -> bool {
    lb * LB_SAFETY >= threshold
}

/// Whether a [`crate::MeasureParams::lower_bound`] value proves the exact
/// distance is *strictly above* `cutoff` — with the same floating-point
/// safety margin the `distance_within` prefilter applies, so an
/// ulp-overshooting bound can never disqualify a candidate whose true
/// distance is at or below the cutoff.
///
/// This is the correct test for skipping candidates in a scan that keeps
/// everything with `distance <= cutoff` (the running-top-k loops of the
/// serving layer and the baselines): sorted by lower bound, the scan may
/// stop at the first candidate for which this returns `true`.
pub fn bound_exceeds(lb: f64, cutoff: f64) -> bool {
    lb * LB_SAFETY > cutoff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dtw, edr, erp, frechet, hausdorff, lcss_distance};

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    const G: Point = Point::new(0.0, 0.0);

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
        ]
    }

    #[test]
    fn hausdorff_within_agrees_bitwise() {
        for (a, b) in fixtures() {
            let d = hausdorff(&a, &b);
            for thr in [d * 0.5, d, d * 1.5 + 0.1, f64::INFINITY] {
                let got = hausdorff_within(&a, &b, thr);
                if d < thr {
                    assert_eq!(got.map(f64::to_bits), Some(d.to_bits()));
                } else {
                    assert_eq!(got, None);
                }
            }
        }
    }

    type WithinFn = fn(&[Point], &[Point], f64, &mut DistScratch) -> Option<f64>;

    #[test]
    fn dp_kernels_agree_bitwise() {
        let s = &mut DistScratch::new();
        for (a, b) in fixtures() {
            let cases: [(f64, WithinFn); 2] = [
                (frechet(&a, &b), frechet_within),
                (dtw(&a, &b), dtw_within),
            ];
            for (d, f) in cases {
                for thr in [d * 0.5, d, d * 2.0 + 0.1, f64::INFINITY] {
                    let got = f(&a, &b, thr, s);
                    if d < thr {
                        assert_eq!(got.map(f64::to_bits), Some(d.to_bits()));
                    } else {
                        assert_eq!(got, None);
                    }
                }
            }
            let d = erp(&a, &b, G);
            assert_eq!(
                erp_within(&a, &b, G, f64::INFINITY, s).map(f64::to_bits),
                Some(d.to_bits())
            );
            assert_eq!(erp_within(&a, &b, G, d, s), None);
            for eps in [0.2, 1.5] {
                let d = edr(&a, &b, eps);
                assert_eq!(
                    edr_within(&a, &b, eps, d + 0.5, s).map(f64::to_bits),
                    Some(d.to_bits())
                );
                assert_eq!(edr_within(&a, &b, eps, d, s), None);
                let d = lcss_distance(&a, &b, eps);
                assert_eq!(
                    lcss_distance_within(&a, &b, eps, d.next_up(), s).map(f64::to_bits),
                    Some(d.to_bits())
                );
                assert_eq!(lcss_distance_within(&a, &b, eps, d, s), None);
            }
        }
    }

    /// A deterministic scattered trajectory of `n` points.
    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n as u64)
            .map(|i| {
                let h = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed.wrapping_mul(0xbf58);
                Point::new((h % 997) as f64 * 0.013, (h / 997 % 991) as f64 * 0.011)
            })
            .collect()
    }

    /// Every length pair up to 9 on both sides: one vector, several, a
    /// `W`-remainder, and a query shorter than one vector (padded lanes).
    fn length_grid() -> impl Iterator<Item = (Vec<Point>, Vec<Point>)> {
        (1..=9).flat_map(|m| {
            (1..=9).flat_map(move |n| {
                (0..3u64).map(move |seed| (scattered(m, seed), scattered(n, seed + 101 * m as u64)))
            })
        })
    }

    /// The stage's early exits change nothing: partial sums of non-negative
    /// terms never decrease, so it refuses exactly when one of the two
    /// complete nearest-neighbour sums does — whichever sum is the larger.
    #[test]
    fn dtw_nn_stage_refuses_exactly_when_a_sum_does() {
        let s = &mut DistScratch::new();
        let nn_sum = |from: &[Point], to: &[Point]| -> f64 {
            from.iter()
                .map(|p| to.iter().map(|q| p.dist(q)).fold(f64::INFINITY, f64::min))
                .sum()
        };
        let (mut by_first, mut by_second) = (0, 0);
        for (a, b) in fixtures().into_iter().chain(length_grid()) {
            let (first, second) = (nn_sum(&a, &b), nn_sum(&b, &a));
            let nn = first.max(second);
            assert!(nn <= dtw(&a, &b));
            let flip = nn * LB_SAFETY;
            for thr in [nn * 0.5, flip.next_down(), flip, flip.next_up(), nn * 2.0 + 0.1] {
                if thr > 0.0 {
                    let got = dtw_nn_refutes(&a, &b, thr, s);
                    let want = prefilter_rejects(nn, thr);
                    assert_eq!(got, want, "thr {thr}, nn {nn}, {a:?} {b:?}");
                    if got && !prefilter_rejects(second, thr) {
                        by_first += 1;
                    }
                    if got && !prefilter_rejects(first, thr) {
                        by_second += 1;
                    }
                }
            }
        }
        assert!(by_first > 0 && by_second > 0, "each side's sum must decide some refusal");
    }

    #[test]
    fn hausdorff_matches_reference_on_the_length_grid() {
        for (a, b) in length_grid() {
            for (x, y) in [(&a, &b), (&b, &a)] {
                let got = DistScratch::with_thread(|s| crate::hausdorff::hausdorff_in(x, y, s));
                let want = hausdorff(x, y);
                assert_eq!(got.to_bits(), want.to_bits(), "{x:?} {y:?}");
            }
        }
    }

    #[test]
    fn empty_inputs_follow_unbounded_conventions() {
        let a = pts(&[(1.0, 2.0)]);
        let s = &mut DistScratch::new();
        assert_eq!(hausdorff_within(&[], &[], 0.5), Some(0.0));
        assert_eq!(hausdorff_within(&a, &[], 1e300), None); // infinity never beats
        assert_eq!(frechet_within(&[], &a, f64::INFINITY, s), None);
        assert_eq!(dtw_within(&[], &[], 0.1, s), Some(0.0));
        assert_eq!(erp_within(&a, &[], G, 3.0, s), Some(a[0].dist(&G)));
        assert_eq!(edr_within(&a, &[], 0.1, 2.0, s), Some(1.0));
        assert_eq!(edr_within(&a, &[], 0.1, 1.0, s), None);
        assert_eq!(lcss_distance_within(&a, &[], 0.1, 2.0, s), Some(1.0));
        assert_eq!(lcss_distance_within(&[], &[], 0.1, 0.5, s), Some(0.0));
    }

    #[test]
    fn non_positive_thresholds_reject_everything() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let s = &mut DistScratch::new();
        assert_eq!(hausdorff_within(&a, &a, 0.0), None);
        assert_eq!(dtw_within(&a, &a, -1.0, s), None);
        assert_eq!(frechet_within(&a, &a, f64::NAN, s), None);
        assert_eq!(erp_within(&a, &a, G, 0.0, s), None);
        assert_eq!(edr_within(&a, &a, 0.1, 0.0, s), None);
        assert_eq!(lcss_distance_within(&a, &a, 0.1, 0.0, s), None);
    }

    #[test]
    fn just_above_is_the_successor() {
        assert!(just_above(0.0) > 0.0);
        let x = 3.75f64;
        assert!(just_above(x) > x);
        assert_eq!(just_above(x).next_down(), x);
        assert_eq!(just_above(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn prefilters_lower_bound_the_exact_distances() {
        for (a, b) in fixtures() {
            assert!(hausdorff_lb(&a, &b) <= hausdorff(&a, &b) + 1e-9);
            assert!(frechet_lb(&a, &b) <= frechet(&a, &b) + 1e-9);
            assert!(dtw_lb(&a, &b) <= dtw(&a, &b) + 1e-9);
            assert!(erp_lb(&a, &b, G) <= erp(&a, &b, G) + 1e-9);
            for eps in [0.2, 1.5] {
                assert!(lcss_lb(&a, &b, eps) <= lcss_distance(&a, &b, eps) + 1e-9);
                assert!(edr_lb(&a, &b, eps) <= edr(&a, &b, eps) + 1e-9);
            }
        }
    }

    #[test]
    fn prefilter_separated_trajectories_without_dp() {
        // Far apart: the MBR bound alone proves the distance exceeds 1.0.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(100.0, 100.0), (101.0, 100.0)]);
        assert!(hausdorff_lb(&a, &b) > 100.0);
        assert!(prefilter_rejects(hausdorff_lb(&a, &b), 1.0));
        assert!(!prefilter_rejects(hausdorff_lb(&a, &b), 1e6));
    }
}
