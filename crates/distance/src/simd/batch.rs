//! The lane drivers of batched verification: up to `W` leaf candidates
//! scored against one query in parallel lanes (DTW, Fréchet, ERP), each
//! lane pushing its candidate's points through the measure's column
//! recurrence in [`crate::column`] — the recurrence single-pair
//! verification and the trie's bounds push, at `V`'s width.
//!
//! The serial dependency chain of the DTW/Fréchet/ERP dynamic programs is
//! the scan bottleneck a single-pair kernel cannot break. Verifying `W`
//! *different* candidates in the lanes of one vector sidesteps it: the
//! chain advances once per DP cell but `W` candidates' cells at a time, and
//! every query-side load (coordinates, gap costs) is shared. Lane `l`'s
//! cells are the scalar kernel's cells for candidate `l`, bit for bit, and
//! it abandons on the column minima the scalar kernel checks, so each
//! returned `Option<f64>` is what the scalar threshold kernel returns.
//!
//! What is left here is lane bookkeeping: gather each lane's point, abandon
//! lanes whose column minimum reached the threshold, extract lanes whose
//! candidate ended, retire both. The column state lives in the scratch,
//! `W` lanes per DP row, one vector load and store each.
//!
//! EDR, LCSS and Hausdorff are not lane-batched: the packed Hausdorff
//! sweep already vectorizes *within* one pair, and the integer EDR/LCSS
//! cells are too cheap for cross-candidate gathers to pay; the dispatcher
//! scores those measures sequentially.

use crate::backend::Lanes;
use crate::column::{advance, erp_advance, erp_init};
use crate::DistScratch;
use repose_model::Point;

/// Packed `d(q, p_l)` (squared unless `sqrt`) against the lanes' points —
/// `Point::dist`'s operation order. Callers pass a constant, which inlining
/// folds away.
#[inline(always)]
fn lane_dists<V: Lanes>(q: Point, xs: V, ys: V, sqrt: bool) -> V {
    let dx = V::splat(q.x) - xs;
    let dy = V::splat(q.y) - ys;
    let d = dx * dx + dy * dy;
    if sqrt {
        d.sqrt()
    } else {
        d
    }
}

/// The lane driver: pushes column `j` of every lane with `push(col, j, xs,
/// ys)` (the lanes' `j`-th points, clamped to each candidate's last point)
/// and retires lanes as they abandon or end. `lin` maps the column's values
/// to distances; the column's last row holds the lanes' distances so far.
///
/// A retired lane keeps computing, and nothing freezes it: its result was
/// read once, when it finished or abandoned, and its cells are never read
/// again — its column minimum is masked by `active`, and its gathers clamp
/// to its last point. Cells are built from adds, `min` and `max` of
/// non-negative finite values, so they cannot produce NaN. Lanes past
/// `cands.len()` gather zeros and are never active.
#[inline(always)]
fn drive<V: Lanes>(
    cands: &[&[Point]],
    col: &mut [f64],
    threshold: f64,
    out: &mut [Option<f64>],
    lin: impl Fn(V) -> V,
    mut push: impl FnMut(&mut [f64], usize, V, V) -> V,
) {
    let max_len = cands.iter().map(|c| c.len()).max().expect("non-empty batch");
    let mut active: u32 = (1 << cands.len()) - 1;
    for j in 0..max_len {
        let (xs, ys) = (
            V::from_fn(|l| cands.get(l).map_or(0.0, |c| c[j.min(c.len() - 1)].x)),
            V::from_fn(|l| cands.get(l).map_or(0.0, |c| c[j.min(c.len() - 1)].y)),
        );
        let cmin = push(col, j, xs, ys);
        let abandoned = V::splat(threshold).le_bits(lin(cmin)) & active;
        active &= !abandoned;
        let mut last = None;
        for (l, c) in cands.iter().enumerate() {
            let bit = 1 << l;
            if abandoned & bit != 0 {
                out[l] = None;
            } else if active & bit != 0 && j + 1 == c.len() {
                let d = last.get_or_insert_with(|| {
                    lin(V::load(&col[col.len() - V::W..])).to_array()
                })[l];
                out[l] = (d < threshold).then_some(d);
                active &= !bit;
            }
        }
        if active == 0 {
            return;
        }
    }
}

/// Batched DTW (`MAX = false`) / Fréchet (`MAX = true`, squared space)
/// early-abandoning verification: `out[l]` is bit-identical to the scalar
/// `dtw_within` / `frechet_within` of `(query, cands[l])` at `threshold`
/// (Fréchet compares the column minimum's `sqrt`, as the scalar kernel
/// does). The dispatcher guarantees `1 <= cands.len() <= V::W`, every
/// candidate and the query non-empty, `threshold > 0.0` and non-NaN, and
/// `out.len() >= cands.len()`.
#[inline(always)]
pub(crate) fn batch_dp<V: Lanes, const MAX: bool>(
    query: &[Point],
    cands: &[&[Point]],
    threshold: f64,
    scratch: &mut DistScratch,
    out: &mut [Option<f64>],
) {
    let (col, _) = scratch.lanes(query.len() * V::W, 0);
    let lin = |v: V| if MAX { v.sqrt() } else { v };
    drive::<V>(cands, col, threshold, out, lin, |col, j, xs, ys| {
        advance::<V, MAX>(col, j == 0, query, |q| lane_dists(*q, xs, ys, !MAX))
    });
}

/// Batched early-abandoning ERP: `out[l]` bit-identical to the scalar
/// `erp_within` of `(query, cands[l])` at `threshold`; requirements as for
/// [`batch_dp`]. All lanes share the query's gap costs and the boundary
/// column.
#[inline(always)]
pub(crate) fn batch_erp<V: Lanes>(
    query: &[Point],
    cands: &[&[Point]],
    gap: Point,
    threshold: f64,
    scratch: &mut DistScratch,
    out: &mut [Option<f64>],
) {
    let (col, qgap) = scratch.lanes((query.len() + 1) * V::W, query.len());
    erp_init::<V>(col, qgap, query, gap);
    drive::<V>(cands, col, threshold, out, |v| v, |col, _, xs, ys| {
        // `d(p_l, gap)`: the negated differences square to the same bits.
        let rgap = lane_dists(gap, xs, ys, true);
        erp_advance::<V>(col, query, qgap, rgap, |q| lane_dists(*q, xs, ys, true))
    });
}
