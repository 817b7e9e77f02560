//! Batched multi-column dynamic programs: up to `W` DP columns advanced
//! against one query in parallel SIMD lanes — leaf candidates in
//! verification ([`batch_dp`], [`batch_erp`]) and sibling trie children in
//! DTW bound expansion ([`dtw_siblings`]).
//!
//! The serial dependency chain of the DTW/Fréchet/ERP dynamic programs is
//! the scan bottleneck a single-pair kernel cannot break. Verifying `W`
//! *different* candidates in the lanes of one vector sidesteps it entirely:
//! the chain advances once per DP cell but `W` candidates' cells at a time,
//! and every query-side load (coordinates, gap distances) is shared.
//!
//! Lane `l` computes candidate `l`'s DP with the exact scalar expressions
//! in the scalar evaluation order — elementwise IEEE lane arithmetic makes
//! each lane's value sequence identical to a standalone scalar run, so each
//! returned `Option<f64>` is bit-identical to what the scalar threshold
//! kernel returns for that candidate at the same threshold
//! (lanes abandon on the column minima the scalar kernels check, and any
//! sound schedule would yield the same `Some`/`None`: abandons only fire
//! when the final distance provably reaches the threshold, and survivors
//! all end at the same `(d < threshold)` gate).
//!
//! Candidates have independent lengths: a lane goes *inactive* once its
//! candidate's points are exhausted (its column state is frozen via a
//! blend, its result extracted) or once its column minimum proves its
//! distance `>= threshold` (abandon, result `None`). Column state lives in
//! the scratch's 32-byte-aligned [`crate::scratch::Lane4`] groups — one
//! group per DP row, one vector load/store each.
//!
//! EDR, LCSS and Hausdorff are not lane-batched: the packed Hausdorff rows
//! already vectorize *within* one pair, and the integer EDR/LCSS cells are
//! too cheap for cross-candidate gathers to pay; the dispatcher scores
//! those measures sequentially.

use super::ops::F64s;
use crate::{DistScratch, DtwColumn};
use repose_model::{Mbr, Point};

/// All-ones lane mask bits as an `f64` (blend selector for active lanes).
const MASK_ON: f64 = f64::from_bits(u64::MAX);

/// Builds a lane mask vector from per-lane active bits.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn mask_from_bits<V: F64s>(bits: u32) -> V {
    V::from_fn(|l| if bits & (1 << l) != 0 { MASK_ON } else { 0.0 })
}

/// Packed `d(query_point, cand_l[j])` (squared unless `sqrt`) against the
/// pre-gathered lane coordinates — `Point::dist`'s exact operation order.
/// Callers pass a constant, which inlining folds away.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn lane_dists<V: F64s>(q: Point, pxs: V, pys: V, sqrt: bool) -> V {
    let dx = V::splat(q.x).sub(pxs);
    let dy = V::splat(q.y).sub(pys);
    let d = dx.mul(dx).add(dy.mul(dy));
    if sqrt {
        d.sqrt()
    } else {
        d
    }
}

/// Gathers lane points `cand_l[min(j, len_l - 1)]`: the clamp keeps loads in
/// bounds for finished lanes, whose values never reach an active cell.
/// Lanes past `cands.len()` read zeros and are never active.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn gather_points<V: F64s>(cands: &[&[Point]], j: usize) -> (V, V) {
    let xs = V::from_fn(|l| cands.get(l).map_or(0.0, |c| c[j.min(c.len() - 1)].x));
    let ys = V::from_fn(|l| cands.get(l).map_or(0.0, |c| c[j.min(c.len() - 1)].y));
    (xs, ys)
}

/// Records `None` for abandoned lanes / extracts finished lanes, clearing
/// them from `active`; returns the rebuilt mask (or `None` when done).
///
/// # Safety
///
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn retire_lanes<V: F64s>(active: &mut u32, cleared: u32) -> Option<V> {
    *active &= !cleared;
    if *active == 0 {
        None
    } else {
        Some(mask_from_bits::<V>(*active))
    }
}

/// Batched DTW (`MAX = false`) / Fréchet (`MAX = true`, squared space)
/// early-abandoning verification: `out[l]` is bit-identical to the scalar
/// `dtw_within` / `frechet_within` of `(query, cands[l])` at `threshold`.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set, and (the dispatcher
/// guarantees them) `1 <= cands.len() <= V::W`, every candidate non-empty,
/// query non-empty, `threshold > 0.0` and non-NaN,
/// `out.len() >= cands.len()`.
#[inline(always)]
pub(crate) unsafe fn batch_dp<V: F64s, const MAX: bool>(
    query: &[Point],
    cands: &[&[Point]],
    threshold: f64,
    scratch: &mut DistScratch,
    out: &mut [Option<f64>],
) {
    let m = query.len();
    let (colv, _, _) = scratch.batch_f(m, 0, 0);
    let thr = V::splat(threshold);
    let inf = V::splat(f64::INFINITY);
    let max_len = cands.iter().map(|c| c.len()).max().expect("non-empty batch");
    let mut active: u32 = (1 << cands.len()) - 1;
    let mut maskv: V = mask_from_bits::<V>(active);
    for j in 0..max_len {
        let (pxs, pys) = gather_points::<V>(cands, j);
        let mut cminv = inf;
        if j == 0 {
            // First column: per-lane prefix sum (DTW) / running max
            // (Fréchet) — the scalar first-column recurrence in lanes. All
            // lanes are still active here, so stores are unconditional.
            let mut acc = V::splat(0.0);
            for (i, q) in query.iter().enumerate() {
                let d = lane_dists::<V>(*q, pxs, pys, !MAX);
                acc = if MAX {
                    if i == 0 {
                        d
                    } else {
                        acc.max(d)
                    }
                } else {
                    acc.add(d)
                };
                acc.storeu(colv[i].0.as_mut_ptr());
                cminv = cminv.min(acc);
            }
        } else {
            let mut prev_im1 = inf;
            let mut last_new = inf;
            for (i, q) in query.iter().enumerate() {
                let d = lane_dists::<V>(*q, pxs, pys, !MAX);
                let ptr = colv[i].0.as_mut_ptr();
                let old = V::loadu(ptr);
                let best_pred =
                    if i == 0 { old } else { prev_im1.min(old).min(last_new) };
                prev_im1 = old;
                let new = if MAX { d.max(best_pred) } else { d.add(best_pred) };
                // Inactive lanes keep their frozen final column.
                V::select(maskv, new, old).storeu(ptr);
                last_new = new;
                cminv = cminv.min(V::select(maskv, new, inf));
            }
        }
        // Column-minimum abandon, exactly the scalar check (Fréchet
        // compares cmin_sq.sqrt() in linear space like the scalar kernel).
        let cmin_cmp = if MAX { cminv.sqrt() } else { cminv };
        let abandoned = thr.le(cmin_cmp).movemask() & active;
        if abandoned != 0 {
            for (l, o) in out.iter_mut().enumerate() {
                if abandoned & (1 << l) != 0 {
                    *o = None;
                }
            }
            match retire_lanes::<V>(&mut active, abandoned) {
                Some(mk) => maskv = mk,
                None => return,
            }
        }
        let mut finished = 0u32;
        for (l, c) in cands.iter().enumerate() {
            if active & (1 << l) != 0 && j + 1 == c.len() {
                let v = colv[m - 1].0[l];
                let d = if MAX { v.sqrt() } else { v };
                out[l] = (d < threshold).then_some(d);
                finished |= 1 << l;
            }
        }
        if finished != 0 {
            match retire_lanes::<V>(&mut active, finished) {
                Some(mk) => maskv = mk,
                None => return,
            }
        }
    }
}

/// `W` sibling DTW bound columns per pass over the query (the packed form
/// of [`DtwColumn::push_cells`], same contract): each child column is the
/// parent column advanced by one reference element whose ground cost is
/// `cells[s].min_dist(q)`.
///
/// Siblings share the parent column, so it is read once per pass and
/// broadcast; lane `s` repeats the scalar column push's exact
/// operation order with `cells[s]`'s bounds in its lanes (lanes past the
/// last sibling repeat it and are never written back), so every child's
/// cells and `cmin` are the scalar push's bits.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set. `parent`, `query` and every
/// child's column have one length, and `cells` and `children` another.
#[inline(always)]
pub(crate) unsafe fn dtw_siblings<V: F64s>(
    parent: &[f64],
    first: bool,
    query: &[Point],
    cells: &[Mbr],
    children: &mut [DtwColumn],
) {
    let zero = V::splat(0.0);
    let inf = V::splat(f64::INFINITY);
    for (cells, kids) in cells.chunks(V::W).zip(children.chunks_mut(V::W)) {
        let cell = |s: usize| &cells[s.min(cells.len() - 1)];
        let (lo_x, lo_y) = (V::from_fn(|s| cell(s).min.x), V::from_fn(|s| cell(s).min.y));
        let (hi_x, hi_y) = (V::from_fn(|s| cell(s).max.x), V::from_fn(|s| cell(s).max.y));
        let mut cmin = inf;
        let mut put = |i: usize, new: V| {
            for (kid, v) in kids.iter_mut().zip(new.to_array()) {
                kid.col[i] = v;
            }
        };
        if first {
            // f_{i,1} = sum_{t<=i} d'(q_t, cell)
            let mut acc = zero;
            for (i, q) in query.iter().enumerate() {
                acc = acc.add(cell_dists::<V>(*q, lo_x, lo_y, hi_x, hi_y));
                put(i, acc);
                cmin = acc.min(cmin);
            }
        } else {
            let (mut prev_im1, mut last_new) = (inf, inf);
            for (i, q) in query.iter().enumerate() {
                let d = cell_dists::<V>(*q, lo_x, lo_y, hi_x, hi_y);
                let old = V::splat(parent[i]);
                let best_pred = if i == 0 { old } else { prev_im1.min(old).min(last_new) };
                prev_im1 = old;
                let new = d.add(best_pred);
                put(i, new);
                last_new = new;
                cmin = new.min(cmin);
            }
        }
        for (kid, c) in kids.iter_mut().zip(cmin.to_array()) {
            kid.cmin = c;
        }
    }
}

/// Packed `cell.min_dist(q)` of one query point against per-lane cells —
/// `Mbr::min_dist`'s exact operation order. (Where the two `max`es meet a
/// signed zero the lane may pick the other zero than the scalar `f64::max`;
/// squaring erases the difference.)
///
/// # Safety
///
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn cell_dists<V: F64s>(q: Point, lo_x: V, lo_y: V, hi_x: V, hi_y: V) -> V {
    let (qx, qy) = (V::splat(q.x), V::splat(q.y));
    let zero = V::splat(0.0);
    let dx = lo_x.sub(qx).max(zero).max(qx.sub(hi_x));
    let dy = lo_y.sub(qy).max(zero).max(qy.sub(hi_y));
    dx.mul(dx).add(dy.mul(dy)).sqrt()
}

/// Batched early-abandoning ERP: `out[l]` bit-identical to the scalar
/// `erp_within` of `(query, cands[l])` at `threshold`.
///
/// The DP walks candidate points (columns) outermost with the column state
/// over query rows, so all lanes share the query's gap-distance column and
/// the row-0 boundary prefix. Cell values are walk-order independent (pure
/// functions of their predecessors); the abandon is the *column* minimum —
/// sound because an optimal path crosses every column, so the final value
/// dominates each column's minimum, including the row-0 boundary cell.
///
/// # Safety
///
/// Same requirements as [`batch_dp`].
#[inline(always)]
pub(crate) unsafe fn batch_erp<V: F64s>(
    query: &[Point],
    cands: &[&[Point]],
    gap: Point,
    threshold: f64,
    scratch: &mut DistScratch,
    out: &mut [Option<f64>],
) {
    let m = query.len();
    let (colv, ga, gapref) = scratch.batch_f(m + 1, m, m + 1);
    // d(q_i, gap) and the row-0 boundary prefix erp(i, 0), shared by all
    // lanes — the same scalar expressions, accumulated in the same order,
    // as the scalar column's `erp_init`.
    for (g, q) in ga.iter_mut().zip(query) {
        *g = q.dist(&gap);
    }
    gapref[0] = 0.0;
    for i in 0..m {
        gapref[i + 1] = gapref[i] + ga[i];
    }
    for (cv, &b) in colv.iter_mut().zip(gapref.iter()) {
        V::splat(b).storeu(cv.0.as_mut_ptr());
    }
    let thr = V::splat(threshold);
    let inf = V::splat(f64::INFINITY);
    let (gx, gy) = (V::splat(gap.x), V::splat(gap.y));
    let max_len = cands.iter().map(|c| c.len()).max().expect("non-empty batch");
    let mut active: u32 = (1 << cands.len()) - 1;
    let mut maskv: V = mask_from_bits::<V>(active);
    for j in 0..max_len {
        let (pxs, pys) = gather_points::<V>(cands, j);
        // gb = d(p_j, gap) per lane (`Point::dist` operand order: p − gap).
        let gb = {
            let dx = pxs.sub(gx);
            let dy = pys.sub(gy);
            dx.mul(dx).add(dy.mul(dy)).sqrt()
        };
        // Row 0: erp(0, j+1) = erp(0, j) + gb — the scalar row-0 prefix.
        let ptr0 = colv[0].0.as_mut_ptr();
        let old0 = V::loadu(ptr0);
        let new0 = old0.add(gb);
        V::select(maskv, new0, old0).storeu(ptr0);
        let mut diag = old0; // erp(i, j) of the row below, pre-update
        let mut last_new = new0; // erp(i, j+1) of the row below
        let mut cminv = V::select(maskv, new0, inf);
        for (i, q) in query.iter().enumerate() {
            let dab = lane_dists::<V>(*q, pxs, pys, true);
            let ptr = colv[i + 1].0.as_mut_ptr();
            let old = V::loadu(ptr); // erp(i+1, j)
            // The scalar `erp_advance` cell's three terms; `min` of non-NaN
            // values is exact, so the order of the two `min`s moves no bit.
            let v = diag
                .add(dab)
                .min(last_new.add(V::splat(ga[i])))
                .min(old.add(gb));
            V::select(maskv, v, old).storeu(ptr);
            diag = old;
            last_new = v;
            cminv = cminv.min(V::select(maskv, v, inf));
        }
        let abandoned = thr.le(cminv).movemask() & active;
        if abandoned != 0 {
            for (l, o) in out.iter_mut().enumerate() {
                if abandoned & (1 << l) != 0 {
                    *o = None;
                }
            }
            match retire_lanes::<V>(&mut active, abandoned) {
                Some(mk) => maskv = mk,
                None => return,
            }
        }
        let mut finished = 0u32;
        for (l, c) in cands.iter().enumerate() {
            if active & (1 << l) != 0 && j + 1 == c.len() {
                let d = colv[m].0[l];
                out[l] = (d < threshold).then_some(d);
                finished |= 1 << l;
            }
        }
        if finished != 0 {
            match retire_lanes::<V>(&mut active, finished) {
                Some(mk) => maskv = mk,
                None => return,
            }
        }
    }
}
