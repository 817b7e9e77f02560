//! The AVX2 lane type and the one `#[target_feature]` frame it runs in.
//!
//! [`Avx2`] is private to this module, and [`run`] is the only item that
//! hands it to a kernel, so every `Avx2` value exists inside `run`, which
//! [`crate::backend::dispatch`] calls only once
//! [`crate::Backend::is_supported`] verified the CPU has AVX2. That is the
//! whole safety argument for the intrinsics below: each `unsafe` block
//! runs inside `run`. Inlining the `inline(always)` kernel and lane
//! operations *into* `run` is what lets rustc emit the wide instructions
//! while the crate itself stays baseline-compatible.

use super::AVX2_W;
use crate::backend::{Kernel, Lanes};
use core::arch::x86_64::*;
use core::ops::{Add, Mul, Sub};
use repose_model::Point;

/// Runs `kernel` at AVX2's width. Callers outside an AVX2 frame need
/// `unsafe`, and the CPU must have AVX2.
#[target_feature(enable = "avx2")]
pub(crate) fn run<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<Avx2>()
}

/// Four `f64` lanes in one 256-bit register (see the module docs for why
/// its `unsafe` blocks are sound).
#[derive(Clone, Copy)]
struct Avx2(__m256d);

macro_rules! binop {
    ($tr:ident, $f:ident, $intr:ident) => {
        impl $tr for Avx2 {
            type Output = Avx2;
            #[inline(always)]
            fn $f(self, o: Avx2) -> Avx2 {
                // SAFETY: an `Avx2` exists only inside `run` (module docs).
                Avx2(unsafe { $intr(self.0, o.0) })
            }
        }
    };
}
binop!(Add, add, _mm256_add_pd);
binop!(Sub, sub, _mm256_sub_pd);
binop!(Mul, mul, _mm256_mul_pd);

impl Lanes for Avx2 {
    const W: usize = AVX2_W;
    type Array<T: Copy> = [T; AVX2_W];

    #[inline(always)]
    fn array<T: Copy>(f: impl FnMut(usize) -> T) -> [T; AVX2_W] {
        core::array::from_fn(f)
    }
    #[inline(always)]
    fn splat(x: f64) -> Avx2 {
        // SAFETY: an `Avx2` is made only inside `run` (module docs).
        Avx2(unsafe { _mm256_set1_pd(x) })
    }
    #[inline(always)]
    fn load(s: &[f64]) -> Avx2 {
        let s = &s[..AVX2_W];
        // SAFETY: inside `run` (module docs); `s` holds the 4 values read.
        Avx2(unsafe { _mm256_loadu_pd(s.as_ptr()) })
    }
    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        let s = &mut s[..AVX2_W];
        // SAFETY: inside `run` (module docs); `s` holds the 4 values written.
        unsafe { _mm256_storeu_pd(s.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn load_points(p: &[Point]) -> (Avx2, Avx2) {
        let p = &p[..AVX2_W];
        // SAFETY: inside `run` (module docs); `Point` is `repr(C)` with `x`
        // before `y`, so the 4 points are the 8 `f64`s read.
        unsafe {
            let f = p.as_ptr() as *const f64;
            let a = _mm256_loadu_pd(f); // x0 y0 x1 y1
            let b = _mm256_loadu_pd(f.add(4)); // x2 y2 x3 y3
            // Unpacking within 128-bit halves gives (x0 x2 x1 x3) and
            // (y0 y2 y1 y3); one permute restores index order.
            let xs = _mm256_unpacklo_pd(a, b);
            let ys = _mm256_unpackhi_pd(a, b);
            (
                Avx2(_mm256_permute4x64_pd::<0b11011000>(xs)),
                Avx2(_mm256_permute4x64_pd::<0b11011000>(ys)),
            )
        }
    }
    #[inline(always)]
    fn sqrt(self) -> Avx2 {
        // SAFETY: an `Avx2` exists only inside `run` (module docs).
        Avx2(unsafe { _mm256_sqrt_pd(self.0) })
    }
    #[inline(always)]
    fn min(self, o: Avx2) -> Avx2 {
        // SAFETY: an `Avx2` exists only inside `run` (module docs).
        Avx2(unsafe { _mm256_min_pd(self.0, o.0) })
    }
    #[inline(always)]
    fn max(self, o: Avx2) -> Avx2 {
        // SAFETY: an `Avx2` exists only inside `run` (module docs).
        Avx2(unsafe { _mm256_max_pd(self.0, o.0) })
    }
    #[inline(always)]
    fn le_bits(self, o: Avx2) -> u32 {
        // SAFETY: an `Avx2` exists only inside `run` (module docs).
        unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(self.0, o.0)) as u32 }
    }
    #[inline(always)]
    fn hmin(self) -> f64 {
        // SAFETY: an `Avx2` exists only inside `run` (module docs).
        unsafe {
            let lo = _mm256_castpd256_pd128(self.0);
            let hi = _mm256_extractf128_pd::<1>(self.0);
            let m = _mm_min_pd(lo, hi);
            let s = _mm_unpackhi_pd(m, m);
            _mm_cvtsd_f64(_mm_min_sd(m, s))
        }
    }
    #[inline(always)]
    fn transpose_min(rows: [Avx2; AVX2_W]) -> Avx2 {
        let [a, b, c, d] = rows.map(|r| r.0);
        // SAFETY: an `Avx2` exists only inside `run` (module docs).
        unsafe {
            // Pairwise within 128-bit halves: (a01 b01 a23 b23) and
            // (c01 d01 c23 d23), then the low halves against the high ones.
            let ab = _mm256_min_pd(_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b));
            let cd = _mm256_min_pd(_mm256_unpacklo_pd(c, d), _mm256_unpackhi_pd(c, d));
            Avx2(_mm256_min_pd(
                _mm256_permute2f128_pd::<0x20>(ab, cd),
                _mm256_permute2f128_pd::<0x31>(ab, cd),
            ))
        }
    }
}
