//! The packed single-pair nearest-neighbour kernels, monomorphized per
//! backend width — the only single-pair SIMD kernels in the crate.
//!
//! A nearest-neighbour pass has no dependency chain: every cell of the
//! `m x n` squared distance matrix is independent and only row/column
//! minima are kept, so one pair vectorizes cleanly along a row (`W`
//! reference points per step, vector row-minima and column-minima updates).
//! `f64` min/max of non-NaN values is order-independent, so any reduction
//! order gives the scalar kernel's bits. One [`sweep`] serves two folds of
//! those minima: Hausdorff takes their `max` ([`hausdorff`]), the DTW
//! nearest-neighbour stage their `Σ√` ([`crate::within::sum_sqrt_refutes`],
//! a lower bound that refuses most candidates before the dynamic program).
//! The five non-Hausdorff measures' exact kernels are dynamic programs whose
//! serial min-chain cannot be lane-split within one pair; packing only their
//! ground distances measured *slower* than the scalar kernels on the 120k
//! benchmark, so for them SIMD exists only across candidates
//! ([`super::batch`]).
//!
//! The kernels assume non-empty inputs, finite coordinates and (where they
//! take one) a positive non-NaN threshold; the dispatching entry points
//! handle the degenerate cases first.

use super::ops::F64s;
use crate::DistScratch;
use repose_model::Point;

/// The packed form of [`crate::hausdorff::nn_sweep`] (same contract, same
/// values): one pass over the squared distance matrix handing each row's
/// minimum to `row` and leaving the column minima in `col_min`.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set. Every `load_points`/`loadu`/
/// `storeu` at offset `j` is guarded by `j + V::W <= n`, the length of both
/// `t2` and `col_min` (asserted on entry).
#[inline(always)]
pub(crate) unsafe fn sweep<V: F64s>(
    t1: &[Point],
    t2: &[Point],
    col_min: &mut [f64],
    mut row: impl FnMut(f64) -> bool,
) -> bool {
    let n = t2.len();
    assert_eq!(col_min.len(), n, "one column minimum per point of `t2`");
    col_min.fill(f64::INFINITY);
    for a in t1 {
        let (ax, ay) = (V::splat(a.x), V::splat(a.y));
        let mut rmv = V::splat(f64::INFINITY);
        let mut j = 0;
        while j + V::W <= n {
            let (xs, ys) = V::load_points(t2.as_ptr().add(j));
            let dx = ax.sub(xs);
            let dy = ay.sub(ys);
            let d = dx.mul(dx).add(dy.mul(dy));
            rmv = rmv.min(d);
            let cm = V::loadu(col_min.as_ptr().add(j));
            cm.min(d).storeu(col_min.as_mut_ptr().add(j));
            j += V::W;
        }
        let mut row_min = rmv.hmin();
        while j < n {
            let d = a.dist_sq(&t2[j]);
            if d < row_min {
                row_min = d;
            }
            if d < col_min[j] {
                col_min[j] = d;
            }
            j += 1;
        }
        if !row(row_min) {
            return false;
        }
    }
    true
}

/// Hausdorff — the `max` fold of the sweep, in squared space with one final
/// `sqrt`: identical values to the scalar single-pass kernel.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn hausdorff<V: F64s>(
    t1: &[Point],
    t2: &[Point],
    scratch: &mut DistScratch,
) -> f64 {
    let col_min = scratch.f1_uninit(t2.len());
    let mut worst_row = 0.0f64;
    sweep::<V>(t1, t2, col_min, |row_min| {
        if row_min > worst_row {
            worst_row = row_min;
        }
        true
    });
    let worst_col = col_min.iter().cloned().fold(0.0f64, f64::max);
    worst_row.max(worst_col).sqrt()
}

/// One directed threshold pass (see scalar `directed_within_sq`): chunks of
/// 8 with packed minima and the same row-irrelevance / threshold abandons.
/// Chunk granularity and reduction order don't affect values or decisions
/// (documented value-neutrality of the scalar kernel's chunking).
///
/// # Safety
///
/// The CPU must support `V`'s instruction set. Every `load_points` at offset
/// `j` is guarded by `j + V::W <= cn`, the chunk's length.
#[inline(always)]
unsafe fn directed_within_sq<V: F64s>(from: &[Point], to: &[Point], thr_sq: f64) -> Option<f64> {
    let mut worst = 0.0f64;
    for a in from {
        let (ax, ay) = (V::splat(a.x), V::splat(a.y));
        let mut best = f64::INFINITY;
        for chunk in to.chunks(8) {
            let mut m = f64::INFINITY;
            let cn = chunk.len();
            let mut j = 0;
            if cn >= V::W {
                let mut mv = V::splat(f64::INFINITY);
                while j + V::W <= cn {
                    let (xs, ys) = V::load_points(chunk.as_ptr().add(j));
                    let dx = ax.sub(xs);
                    let dy = ay.sub(ys);
                    mv = mv.min(dx.mul(dx).add(dy.mul(dy)));
                    j += V::W;
                }
                m = mv.hmin();
            }
            while j < cn {
                let d = a.dist_sq(&chunk[j]);
                if d < m {
                    m = d;
                }
                j += 1;
            }
            if m < best {
                best = m;
            }
            if best <= worst {
                break;
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

/// Early-abandoning Hausdorff (guards handled by the dispatcher).
///
/// # Safety
///
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn hausdorff_within<V: F64s>(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
) -> Option<f64> {
    let thr_sq = if threshold < f64::MAX.sqrt() {
        threshold * threshold
    } else {
        f64::INFINITY
    };
    let a = directed_within_sq::<V>(t1, t2, thr_sq)?;
    let b = directed_within_sq::<V>(t2, t1, thr_sq)?;
    let d = a.max(b).sqrt();
    (d < threshold).then_some(d)
}
