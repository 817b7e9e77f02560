//! The lane-width side of the kernels: the AVX2 lane type (x86-64 only,
//! selected at runtime by [`crate::backend`]) and the lane drivers of
//! batched verification. AVX2 is the one vector width: an x86-64 CPU
//! without it runs the 1-lane instances, which give the same answers bit
//! for bit.
//!
//! # Layout
//!
//! * [`crate::backend::Lanes`] — the packed-`f64` trait every kernel with an
//!   AVX2 form is written over, once; `f64` is its 1-lane instance, and
//!   [`crate::backend::dispatch`] picks the width. The kernels live with
//!   their measure: the nearest-neighbour sweep in `hausdorff.rs`, the
//!   directed Hausdorff threshold pass and the DTW nearest-neighbour stage
//!   in [`crate::within`], the DTW/Fréchet and ERP column recurrences and
//!   the DTW sibling expansion in [`crate::column`].
//! * [`batch`] — the lane drivers: up to `W` leaf candidates verified
//!   against one query in parallel lanes (DTW, Fréchet, ERP), each lane
//!   pushing the column recurrence.
//! * `avx2` — the AVX2 lane type, private to its module, and the one
//!   `#[target_feature]` frame that runs a kernel at its width.
//!
//! # Why every backend is bit-identical
//!
//! 1. Every lane operation is the elementwise IEEE-754 double operation —
//!    identical bits to the scalar operator. There is **no FMA** anywhere
//!    (and Rust never auto-contracts `a*b + c`).
//! 2. The lanes run the same source: a kernel is one function generic over
//!    the lane type, so lane `l` of the AVX2 instance evaluates the same
//!    expressions, in the same order, as the 1-lane instance does for the
//!    same input — candidate `l`'s cells in batched verification, sibling
//!    `l`'s in the trie's DTW expansion.
//! 3. Reductions only use `f64` min/max of non-NaN values, which are
//!    associative/commutative (no rounding), so how many lanes a reduction
//!    spans does not change the result.
//! 4. Squared-space kernels (Fréchet, Hausdorff) take one final IEEE `sqrt`,
//!    which is correctly rounded and monotone. The DTW nearest-neighbour
//!    stage takes one `sqrt` per row/column minimum and adds each side's in
//!    index order at every width. Padded query lanes hold `+∞`, which never
//!    lowers a minimum.
//! 5. Early abandons may fire at width-specific points, but only when the
//!    final distance provably reaches the threshold, and every survivor
//!    passes the same final `(d < threshold)` gate — so the `Some`/`None`
//!    contract of the threshold kernels depends only on the true distance.
//!
//! The `scratch_agreement`, `within_agreement` and `backend_edge_cases`
//! test suites enforce all of this differentially against the frozen
//! [`crate::reference`] kernels on every backend the host CPU supports.

pub(crate) mod batch;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx2;

/// The AVX2 lane type's width, `f64`s per 256-bit register: its lane arrays,
/// [`crate::BATCH_LANES`] and [`crate::Backend::lanes`] all read it here.
pub(crate) const AVX2_W: usize = 256 / 64;
