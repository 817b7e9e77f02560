//! The packed single-pair nearest-neighbour kernels, generic over
//! [`F64s`] — the only single-pair SIMD kernels in the crate.
//!
//! A nearest-neighbour pass has no dependency chain: every cell of the
//! `m x n` squared distance matrix is independent and only row/column
//! minima are kept. `f64` min/max of non-NaN values is order-independent,
//! so any reduction order gives the scalar kernel's bits.
//!
//! The packed pass is **query-major** ([`query_major_sweep`]): once per
//! call the first trajectory (the query, at every call site) is split into
//! x and y lane arrays padded with `+∞`, and the second one's points are
//! broadcast `W` at a time against them. Every vector the inner loop reads
//! is a plain load — no de-interleaving shuffle — and the query side's
//! running minima are loaded and stored once per `W` broadcast points. The
//! `W` per-point minima of a broadcast group come out of one
//! [`F64s::transpose_min`].
//!
//! One sweep serves two folds of those minima: Hausdorff takes their `max`
//! ([`hausdorff`]), the DTW nearest-neighbour stage their `Σ√`
//! ([`crate::within::dtw_nn_refutes`], a lower bound that refuses most
//! candidates before the dynamic program; the fold and the argument why its
//! summation order cannot change a refusal are there). The five
//! non-Hausdorff measures' exact kernels are dynamic programs whose serial
//! min-chain cannot be lane-split within one pair; packing only their
//! ground distances measured *slower* than the scalar kernels on the 120k
//! benchmark, so for them SIMD exists only across candidates and across
//! sibling trie nodes ([`super::batch`]).
//!
//! The kernels assume non-empty inputs, finite coordinates and (where they
//! take one) a positive non-NaN threshold; the dispatching entry points
//! handle the degenerate cases first.

use super::ops::F64s;
use crate::DistScratch;
use repose_model::Point;

/// The packed nearest-neighbour sweep, query-major (see module docs): the
/// same minima as [`crate::hausdorff::nn_sweep`], with the roles of the
/// streamed and the returned side swapped.
///
/// `t2`'s minima stream out as they complete: `cols(mins, w)` gets one pack
/// per `W` consecutive points of `t2`, whose lanes `s < w` hold
/// `min_i d²(t1[i], t2[j + s])` in index order (lanes `s >= w` of the last
/// pack repeat lane `w - 1`). `cols` returning `false` stops the sweep, and
/// the result is then `None`. After a full sweep the result holds `t1`'s
/// minima, `min_j d²(t1[i], t2[j])`, in index order.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set. The lane arrays are `m`
/// rounded up to a multiple of `V::W` long, so every `loadu`/`storeu` at
/// offset `i < padded` stays inside them.
#[inline(always)]
pub(crate) unsafe fn query_major_sweep<'s, V: F64s>(
    t1: &[Point],
    t2: &[Point],
    scratch: &'s mut DistScratch,
    mut cols: impl FnMut(V, usize) -> bool,
) -> Option<&'s [f64]> {
    let m = t1.len();
    let padded = m.next_multiple_of(V::W);
    let (xs, ys, rows) = scratch.f3_uninit(padded, padded, padded);
    for ((x, y), p) in xs.iter_mut().zip(ys.iter_mut()).zip(t1) {
        (*x, *y) = (p.x, p.y);
    }
    // A `+∞` lane is `+∞` away from every point: it never lowers a minimum.
    xs[m..].fill(f64::INFINITY);
    ys[m..].fill(f64::INFINITY);
    rows.fill(f64::INFINITY);
    let inf = V::splat(f64::INFINITY);
    for group in t2.chunks(V::W) {
        let w = group.len();
        let (mut bx, mut by) = ([inf; 4], [inf; 4]);
        for s in 0..V::W {
            let p = group[s.min(w - 1)];
            (bx[s], by[s]) = (V::splat(p.x), V::splat(p.y));
        }
        let mut acc = [inf; 4];
        let mut i = 0;
        while i < padded {
            let qx = V::loadu(xs.as_ptr().add(i));
            let qy = V::loadu(ys.as_ptr().add(i));
            let mut row = V::loadu(rows.as_ptr().add(i));
            for s in 0..V::W {
                // `t1[i].dist_sq(&t2[j + s])`'s operation order.
                let dx = qx.sub(bx[s]);
                let dy = qy.sub(by[s]);
                let d = dx.mul(dx).add(dy.mul(dy));
                acc[s] = acc[s].min(d);
                row = row.min(d);
            }
            row.storeu(rows.as_mut_ptr().add(i));
            i += V::W;
        }
        if !cols(V::transpose_min(&acc), w) {
            return None;
        }
    }
    Some(&rows[..m])
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
    // Repeated tail lanes repeat a real minimum: harmless under `max`.
    let mut worst = V::splat(0.0);
    let rows = query_major_sweep::<V>(t1, t2, scratch, |mins: V, _| {
        worst = worst.max(mins);
        true
    })
    .expect("the max fold never stops the sweep");
    let worst_row = rows.iter().copied().fold(0.0f64, f64::max);
    let worst_col = worst.to_array().into_iter().fold(0.0f64, f64::max);
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
