//! Runtime-selectable lane widths for the verification kernels.
//!
//! Every kernel with a SIMD form is one function generic over `Lanes`,
//! written once, and a backend is the width it runs at: `scalar` is the
//! 1-lane instance (`f64`) on every host, AVX2 the 4-lane instance on
//! x86-64 CPUs that have it (an x86-64 CPU without AVX2 runs scalar).
//! `dispatch` is the one place that chooses. The kernels that have
//! lanes are exactly those where lanes measure faster at 120k
//! trajectories: the Hausdorff pair and the DTW nearest-neighbour stage
//! (one query-major sweep: the query in padded lane arrays, the
//! candidate's points broadcast against it), the lane-batched DTW /
//! Fréchet / ERP verification that scores several candidates at once, and
//! the DTW trie bound's sibling expansion that advances several children
//! of one node at once ([`crate::DtwColumn::push_cells`]). A single pair's
//! dynamic program runs at one lane on every backend. Both backends
//! produce **bit-identical** results (see the `simd` module docs for the
//! argument), so which one runs is purely a performance decision — made
//! once per process from CPU feature detection, and overridable so tests,
//! benches and CI can pin a backend regardless of the host CPU:
//!
//! 1. [`force_backend`] — explicit programmatic override; panics with a
//!    clear message when the host cannot run the requested backend.
//! 2. The `REPOSE_BACKEND` environment variable (`scalar`, `avx2`, or
//!    `auto`), consulted once on first use.
//! 3. Auto-detection: AVX2 when the CPU has it, else scalar.

use repose_model::Point;
use std::ops::{Add, Index, IndexMut, Mul, Sub};
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation family executes verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The kernels at one lane (`f64`) — always available.
    Scalar,
    /// The kernels at 256-bit `std::arch` lanes (requires AVX2; x86-64
    /// only).
    Avx2,
}

impl Backend {
    /// All backends, narrowest to widest.
    pub const ALL: [Backend; 2] = [Backend::Scalar, Backend::Avx2];

    /// Canonical lowercase name (`scalar`, `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Number of candidates the lane-batched verification path scores per
    /// vector with this backend (1 = no lane batching).
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => <f64 as Lanes>::W,
            Backend::Avx2 => crate::simd::AVX2_W,
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(Backend::Scalar),
            "avx2" | "avx" => Ok(Backend::Avx2),
            other => Err(format!(
                "unknown backend `{other}` (expected scalar, avx2, or auto)"
            )),
        }
    }
}

/// Every backend the running CPU supports, narrowest to widest.
pub fn available_backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.is_supported()).collect()
}

// Encoding for the atomic: 0 = uninitialized, otherwise 1 + index in ALL.
const UNSET: u8 = 0;

static ACTIVE: AtomicU8 = AtomicU8::new(UNSET);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
    }
}

fn decode(v: u8) -> Backend {
    match v {
        1 => Backend::Scalar,
        _ => Backend::Avx2,
    }
}

fn widest_supported() -> Backend {
    if Backend::Avx2.is_supported() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

#[cold]
fn init_from_env() -> Backend {
    let chosen = match std::env::var("REPOSE_BACKEND") {
        Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => {
            let b: Backend = v
                .parse()
                .unwrap_or_else(|e| panic!("REPOSE_BACKEND: {e}"));
            assert!(
                b.is_supported(),
                "REPOSE_BACKEND={v}: backend {b} is not supported by this CPU \
                 (available: {:?})",
                available_backends()
            );
            b
        }
        _ => widest_supported(),
    };
    ACTIVE.store(encode(chosen), Ordering::Relaxed);
    chosen
}

/// The backend the kernels currently dispatch to.
///
/// Initialized lazily from `REPOSE_BACKEND` (or auto-detection) on first
/// call; [`force_backend`] changes it at any time. Because every backend is
/// bit-identical, reading a stale value from another thread is harmless.
#[inline]
pub fn active_backend() -> Backend {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v == UNSET {
        init_from_env()
    } else {
        decode(v)
    }
}

/// Forces every subsequent kernel call (process-wide) onto `backend`.
///
/// # Panics
/// When the running CPU does not support `backend` — a forced backend must
/// never silently fall back, or a CI matrix entry would quietly test the
/// wrong code.
pub fn force_backend(backend: Backend) {
    assert!(
        backend.is_supported(),
        "cannot force backend {backend}: not supported by this CPU (available: {:?})",
        available_backends()
    );
    ACTIVE.store(encode(backend), Ordering::Relaxed);
}

/// A packed `f64` lane type: `W` lanes side by side, with `f64` itself the
/// 1-lane instance. Every kernel with an AVX2 form is written once over
/// this trait and runs at the active backend's width through [`dispatch`];
/// the AVX2 instance lives in `simd::avx2`.
///
/// Every operation is the elementwise IEEE-754 one — identical bits per
/// lane to the scalar operator — and there is deliberately no fused
/// multiply-add. `min`/`max` follow the x86 rule, `a < b ? a : b` and
/// `a > b ? a : b`: on the non-NaN values the kernels compare they agree
/// with `f64::min`/`f64::max` up to the sign of a zero, which squaring
/// erases wherever one can arise.
pub(crate) trait Lanes: Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> {
    /// Lane count.
    const W: usize;
    /// `[T; W]`.
    type Array<T: Copy>: Copy
        + AsRef<[T]>
        + AsMut<[T]>
        + Index<usize, Output = T>
        + IndexMut<usize>
        + IntoIterator<Item = T>;

    /// `[f(0), …, f(W - 1)]`.
    fn array<T: Copy>(f: impl FnMut(usize) -> T) -> Self::Array<T>;
    fn splat(x: f64) -> Self;
    /// The first `W` values of `s`, in lane order.
    fn load(s: &[f64]) -> Self;
    /// Writes the lanes to the first `W` values of `s`.
    fn store(self, s: &mut [f64]);
    /// The `x` and `y` coordinates of the first `W` points of `p`.
    fn load_points(p: &[Point]) -> (Self, Self);
    fn sqrt(self) -> Self;
    fn min(self, o: Self) -> Self;
    fn max(self, o: Self) -> Self;
    /// Bit `l` set where lane `l` of `self` is `<=` that of `o`.
    fn le_bits(self, o: Self) -> u32;
    /// The smallest lane (order-free: `min` of non-NaN values is exact).
    fn hmin(self) -> f64;
    /// Lane `s` of the result is the smallest lane of `rows[s]`.
    fn transpose_min(rows: Self::Array<Self>) -> Self;

    /// Lane `l` is `f(l)`.
    #[inline(always)]
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        Self::load(Self::array(f).as_ref())
    }

    /// The lanes, in order.
    #[inline(always)]
    fn to_array(self) -> Self::Array<f64> {
        let mut a = Self::array(|_| 0.0);
        self.store(a.as_mut());
        a
    }
}

impl Lanes for f64 {
    const W: usize = 1;
    type Array<T: Copy> = [T; 1];

    #[inline(always)]
    fn array<T: Copy>(mut f: impl FnMut(usize) -> T) -> [T; 1] {
        [f(0)]
    }
    #[inline(always)]
    fn splat(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn load(s: &[f64]) -> f64 {
        s[0]
    }
    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        s[0] = self;
    }
    #[inline(always)]
    fn load_points(p: &[Point]) -> (f64, f64) {
        (p[0].x, p[0].y)
    }
    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn min(self, o: f64) -> f64 {
        if self < o {
            self
        } else {
            o
        }
    }
    #[inline(always)]
    fn max(self, o: f64) -> f64 {
        if self > o {
            self
        } else {
            o
        }
    }
    #[inline(always)]
    fn le_bits(self, o: f64) -> u32 {
        u32::from(self <= o)
    }
    #[inline(always)]
    fn hmin(self) -> f64 {
        self
    }
    #[inline(always)]
    fn transpose_min([row]: [f64; 1]) -> f64 {
        row
    }
}

/// A kernel written once over [`Lanes`]: [`dispatch`] runs it at the
/// active backend's lane width.
pub(crate) trait Kernel {
    type Out;
    /// The kernel at `V`'s width. Implementations are `#[inline(always)]`,
    /// so that the AVX2 instance compiles inside its `#[target_feature]`
    /// frame, where every lane operation is one instruction; a closure the
    /// kernel calls per cell needs a single call site, or LLVM may leave it
    /// out of line, outside that frame.
    fn run<V: Lanes>(self) -> Self::Out;
}

/// Runs `kernel` at the active backend's lane width: the AVX2 lane type when
/// that backend is active, `f64`'s 1 lane otherwise. The kernel is the same
/// source either way; only the width differs.
#[inline(always)]
pub(crate) fn dispatch<K: Kernel>(kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    {
        if active_backend() == Backend::Avx2 {
            // SAFETY: `active_backend`/`force_backend` only ever select AVX2
            // once `is_supported` verified the CPU has it.
            return unsafe { crate::simd::avx2::run(kernel) };
        }
    }
    kernel.run::<f64>()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The active backend is process-global and libtest runs tests on
    /// parallel threads: every lib test that forces a backend, or whose
    /// result depends on the active one (its lane count,
    /// `Measure::batch_lanes`, `verify`'s read cadence), holds this for
    /// its whole run, as the integration suites' `for_each_backend`
    /// (`tests/common`) does.
    pub(crate) fn hold_backend() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // A failed holder leaves the backend restored (`RestoreBackend`),
        // so its poison carries nothing.
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn names_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
        }
        assert_eq!("AVX2".parse::<Backend>().unwrap(), Backend::Avx2);
        // Names of backends this crate lacks (parsed case-insensitively)
        // must not map to some other backend, or a forced backend would
        // fall back silently.
        for gone in ["sse4.1", "SSE41", "sse", "neon"] {
            let err = gone.parse::<Backend>().unwrap_err();
            assert!(err.ends_with("(expected scalar, avx2, or auto)"), "{err}");
        }
    }

    /// Forces the backend that was active when it was made back on drop,
    /// so a test that switches backends (or fails mid-way) leaves the
    /// rest of the binary on the one `REPOSE_BACKEND` chose.
    struct RestoreBackend(Backend);

    impl Drop for RestoreBackend {
        fn drop(&mut self) {
            force_backend(self.0);
        }
    }

    #[test]
    fn scalar_always_available_and_forcible() {
        let _hold = hold_backend();
        assert!(Backend::Scalar.is_supported());
        assert!(available_backends().contains(&Backend::Scalar));
        let entry = active_backend();
        {
            let _restore = RestoreBackend(entry);
            // Forcing any available backend must stick.
            for b in available_backends() {
                force_backend(b);
                assert_eq!(active_backend(), b);
            }
        }
        assert_eq!(active_backend(), entry, "the guard restores the entry backend");
    }
}
