//! Explicit `std::arch` AVX2 implementations of the verification kernels
//! (x86-64 only), selected at runtime by [`crate::backend`]. AVX2 is the one
//! vector width: an x86-64 CPU without it runs the scalar kernels, which
//! give the same answers bit for bit.
//!
//! # Layout
//!
//! * [`ops`] — the [`ops::F64s`] packed-`f64` trait (implemented for
//!   `__m256d`, 4 lanes) every generic kernel is monomorphized over.
//! * [`kern`] — the packed single-pair nearest-neighbour kernels: one
//!   query-major row/column-minima sweep (the query in `+∞`-padded lane
//!   arrays, the other trajectory's points broadcast `W` at a time, their
//!   minima out of one transpose-min) folded two ways (Hausdorff's `max`,
//!   the DTW nearest-neighbour stage's `Σ√`), and Hausdorff's
//!   threshold-aware directed passes. No measure's dynamic program has a
//!   single-pair SIMD form: the ones this module used to carry lost to the
//!   scalar kernels.
//! * [`batch`] — multi-column dynamic programs: up to `W` leaf candidates
//!   verified against one query in parallel lanes (DTW, Fréchet, ERP), and
//!   up to `W` sibling DTW trie bound columns advanced from one parent.
//! * [`avx2`] — thin `#[target_feature]` wrappers that monomorphize the
//!   generics at the AVX2 width (the DTW nearest-neighbour wrapper also
//!   instantiates the scalar form's `Σ√` fold over the packed sweep, so the
//!   fold is written once). Inlining the `inline(always)` generic bodies
//!   *into* the `#[target_feature]` wrapper is what lets rustc emit the
//!   wide instructions while the crate itself stays baseline-compatible;
//!   the wrappers are `unsafe fn` and the dispatcher only calls them once
//!   [`crate::backend::Backend::is_supported`] verified AVX2.
//!
//! # Why every backend is bit-identical
//!
//! 1. Every lane operation is the elementwise IEEE-754 double operation —
//!    identical bits to the scalar operator. There is **no FMA** anywhere
//!    (and Rust never auto-contracts `a*b + c`).
//! 2. DP cells are pure functions of their predecessor cells, computed with
//!    the same expressions in the same operand order as the scalar kernels
//!    — so evaluating several candidates' (or sibling trie nodes') cells
//!    side by side in lanes reproduces each one's scalar cell values.
//! 3. Reductions only use `f64` min/max of non-NaN values, which are
//!    associative/commutative (no rounding), so vector-then-horizontal
//!    reduction order does not change the result.
//! 4. Squared-space kernels (Fréchet, Hausdorff) take one final IEEE `sqrt`,
//!    which is correctly rounded and monotone — the same argument the
//!    scalar kernels already rely on. The DTW nearest-neighbour stage takes
//!    one `sqrt` per row/column minimum (a vector `sqrt` of `W` of them) and
//!    adds each side's in index order on every backend, so its two sums are
//!    the scalar ones; which side streams first differs, and partial sums
//!    only grow, so its refusals are the scalar ones too
//!    ([`crate::within::dtw_nn_refutes`]). Padded query lanes hold `+∞`,
//!    which never lowers a minimum.
//! 5. Early abandons may fire at backend-specific points, but only when the
//!    final distance provably reaches the threshold, and every survivor
//!    passes the same final `(d < threshold)` gate — so the `Some`/`None`
//!    contract of the threshold kernels depends only on the true distance.
//!
//! The `scratch_agreement`, `within_agreement` and `backend_edge_cases`
//! test suites enforce all of this differentially against the frozen
//! [`crate::reference`] kernels on every backend the host CPU supports.

pub(crate) mod batch;
pub(crate) mod kern;
pub(crate) mod ops;

/// 256-bit (AVX2) instantiations of the generic kernels.
///
/// # Safety
///
/// Every wrapper requires AVX2, plus the requirements of the generic kernel
/// it instantiates.
pub(crate) mod avx2 {
    use super::ops::F64s;
    use super::{batch, kern};
    use crate::within::sum_sqrt_refutes;
    use crate::{DistScratch, DtwColumn};
    use core::arch::x86_64::__m256d as V;
    use repose_model::{Mbr, Point};

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn hausdorff(t1: &[Point], t2: &[Point], s: &mut DistScratch) -> f64 {
        kern::hausdorff::<V>(t1, t2, s)
    }

    /// [`crate::within::dtw_nn_refutes`] over the packed sweep: the fold is
    /// the scalar form's own, instantiated here so that it and the sweep
    /// inline into one `#[target_feature]` body. `t2`'s minima stream in,
    /// `W` roots per vector `sqrt`, added in index order; `t1`'s are summed
    /// at the end.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dtw_nn_refutes(
        t1: &[Point],
        t2: &[Point],
        threshold: f64,
        s: &mut DistScratch,
    ) -> bool {
        sum_sqrt_refutes(threshold, |cols| {
            kern::query_major_sweep::<V>(t1, t2, s, |mins: V, w| {
                let roots = mins.sqrt().to_array();
                roots[..w].iter().all(|&r| cols.admits_root(r))
            })
        })
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dtw_siblings(
        parent: &[f64],
        first: bool,
        query: &[Point],
        cells: &[Mbr],
        children: &mut [DtwColumn],
    ) {
        batch::dtw_siblings::<V>(parent, first, query, cells, children)
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn hausdorff_within(
        t1: &[Point],
        t2: &[Point],
        threshold: f64,
    ) -> Option<f64> {
        kern::hausdorff_within::<V>(t1, t2, threshold)
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn batch_dtw(
        query: &[Point],
        cands: &[&[Point]],
        threshold: f64,
        s: &mut DistScratch,
        out: &mut [Option<f64>],
    ) {
        batch::batch_dp::<V, false>(query, cands, threshold, s, out)
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn batch_frechet(
        query: &[Point],
        cands: &[&[Point]],
        threshold: f64,
        s: &mut DistScratch,
        out: &mut [Option<f64>],
    ) {
        batch::batch_dp::<V, true>(query, cands, threshold, s, out)
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn batch_erp(
        query: &[Point],
        cands: &[&[Point]],
        gap: Point,
        threshold: f64,
        s: &mut DistScratch,
        out: &mut [Option<f64>],
    ) {
        batch::batch_erp::<V>(query, cands, gap, threshold, s, out)
    }
}
