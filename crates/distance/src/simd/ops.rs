//! Packed-`f64` abstraction over the x86-64 `std::arch` intrinsics.
//!
//! One trait, one width: [`F64s`] is implemented for `__m256d` (AVX2,
//! 4 lanes), the only vector backend — an x86-64 CPU without AVX2 runs the
//! scalar kernels. Every generic kernel in this module tree is
//! monomorphized over it from inside a `#[target_feature]` wrapper, so
//! each method compiles to exactly one instruction in context.
//!
//! Bit-identity ground rules the trait encodes:
//!
//! * every arithmetic method maps to the elementwise IEEE-754 operation —
//!   identical bits per lane to the scalar operator sequence;
//! * there is deliberately **no fused multiply-add** (FMA contracts
//!   `a*b+c` into one differently-rounded operation, which would break
//!   bit-identity with the scalar kernels);
//! * `min`/`max` use the SSE semantics (second operand returned on equal
//!   or NaN inputs) — equivalent to `f64::min`/`f64::max` here because
//!   kernel operands are never NaN and comparisons of equal non-NaN
//!   values are value-identical either way (the kernels only ever min/max
//!   non-negative distances, where `+0.0`/`-0.0` asymmetry cannot arise).

use core::arch::x86_64::*;
use repose_model::Point;

/// A pack of `W` `f64` lanes (see module docs).
///
/// # Safety
///
/// Callers of every method must prove the corresponding CPU feature is
/// available, which the `#[target_feature]` backend wrappers in
/// `simd::avx2` do once per kernel invocation; the pointer
/// methods additionally need `W` (for [`F64s::load_points`], `W` points)
/// readable or writable elements behind the pointer.
pub(crate) trait F64s: Copy {
    /// Lane count.
    const W: usize;

    unsafe fn splat(x: f64) -> Self;
    unsafe fn loadu(p: *const f64) -> Self;
    unsafe fn storeu(self, p: *mut f64);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn sqrt(self) -> Self;
    unsafe fn min(self, o: Self) -> Self;
    unsafe fn max(self, o: Self) -> Self;
    /// All-ones lanes where `self <= o`, zero lanes elsewhere.
    unsafe fn le(self, o: Self) -> Self;
    /// Lanewise `mask ? a : b` (mask lanes must be all-ones or zero).
    unsafe fn select(mask: Self, a: Self, b: Self) -> Self;
    /// One bit per lane (lane's sign/mask bit), lane 0 in bit 0.
    unsafe fn movemask(self) -> u32;
    /// Horizontal minimum across lanes. `f64` min of non-NaN values is
    /// associative and commutative (no rounding), so the reduction order
    /// does not affect the result bits.
    unsafe fn hmin(self) -> f64;
    /// Transpose-min of `rows`: lane `s` of the result is the horizontal
    /// minimum of `rows[s]`. `W` horizontal minima for the shuffles of one
    /// transpose; order-independent like [`F64s::hmin`].
    unsafe fn transpose_min(rows: &[Self; 4]) -> Self;
    /// `x` and `y` coordinates of `W` consecutive points, in index order.
    /// Sound because [`Point`] is `repr(C)` with `x` before `y`.
    unsafe fn load_points(p: *const Point) -> (Self, Self);

    /// Gathers `W` lanes from a closure (stack round-trip; used on cold
    /// edges and per-step batch point loads, never in per-cell loops).
    #[inline(always)]
    unsafe fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        let buf: [f64; 4] = core::array::from_fn(f);
        Self::loadu(buf.as_ptr())
    }

    /// The lanes in order (a stack round-trip, for reading lanes out one by
    /// one).
    #[inline(always)]
    unsafe fn to_array(self) -> [f64; 4] {
        let mut buf = [0.0f64; 4];
        self.storeu(buf.as_mut_ptr());
        buf
    }
}

impl F64s for __m256d {
    const W: usize = 4;

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm256_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const f64) -> Self {
        _mm256_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn storeu(self, p: *mut f64) {
        _mm256_storeu_pd(p, self)
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        _mm256_add_pd(self, o)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        _mm256_sub_pd(self, o)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        _mm256_mul_pd(self, o)
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        _mm256_sqrt_pd(self)
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        _mm256_min_pd(self, o)
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        _mm256_max_pd(self, o)
    }
    #[inline(always)]
    unsafe fn le(self, o: Self) -> Self {
        _mm256_cmp_pd::<_CMP_LE_OQ>(self, o)
    }
    #[inline(always)]
    unsafe fn select(mask: Self, a: Self, b: Self) -> Self {
        _mm256_blendv_pd(b, a, mask)
    }
    #[inline(always)]
    unsafe fn movemask(self) -> u32 {
        _mm256_movemask_pd(self) as u32
    }
    #[inline(always)]
    unsafe fn hmin(self) -> f64 {
        let lo = _mm256_castpd256_pd128(self);
        let hi = _mm256_extractf128_pd::<1>(self);
        let m = _mm_min_pd(lo, hi);
        let s = _mm_unpackhi_pd(m, m);
        _mm_cvtsd_f64(_mm_min_sd(m, s))
    }
    #[inline(always)]
    unsafe fn transpose_min(rows: &[Self; 4]) -> Self {
        let [a, b, c, d] = *rows;
        // Pairwise within 128-bit halves: (a01 b01 a23 b23), (c01 d01 c23 d23)
        // — then the low halves against the high halves.
        let ab = _mm256_min_pd(_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b));
        let cd = _mm256_min_pd(_mm256_unpacklo_pd(c, d), _mm256_unpackhi_pd(c, d));
        _mm256_min_pd(
            _mm256_permute2f128_pd::<0x20>(ab, cd),
            _mm256_permute2f128_pd::<0x31>(ab, cd),
        )
    }
    #[inline(always)]
    unsafe fn load_points(p: *const Point) -> (Self, Self) {
        let f = p as *const f64;
        let a = _mm256_loadu_pd(f); // x0 y0 x1 y1
        let b = _mm256_loadu_pd(f.add(4)); // x2 y2 x3 y3
        // unpack within 128-bit halves: (x0 x2 x1 x3) / (y0 y2 y1 y3),
        // then one permute restores index order.
        let xs = _mm256_unpacklo_pd(a, b);
        let ys = _mm256_unpackhi_pd(a, b);
        (
            _mm256_permute4x64_pd::<0b11011000>(xs),
            _mm256_permute4x64_pd::<0b11011000>(ys),
        )
    }
}
