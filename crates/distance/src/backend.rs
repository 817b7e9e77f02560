//! Runtime-selectable SIMD backends for the verification kernels.
//!
//! Two backends exist: the scalar kernels (one per measure, see
//! [`crate::within`]) on every host, and AVX2 (256-bit) on x86-64 CPUs that
//! have it. An x86-64 CPU without AVX2 runs the scalar kernels. The AVX2
//! backend carries vector forms of exactly the kernels where lanes measure
//! faster at 120k trajectories: the packed single-pair Hausdorff pair and
//! the DTW nearest-neighbour stage (one query-major sweep: the query in
//! padded lane arrays, the candidate's points broadcast against it), the
//! lane-batched DTW / Fréchet / ERP verification that scores several
//! candidates at once, and the DTW trie bound's sibling expansion that
//! advances several children of one node at once
//! ([`crate::DtwColumn::push_cells`]). Fréchet, DTW, ERP, EDR and LCSS have
//! **no** single-pair dynamic-program SIMD form: whichever backend is
//! active, one pair's dynamic program is the scalar kernel. Both backends
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

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation family executes verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar kernels — always available, and the oracle the SIMD
    /// backends are differentially tested against.
    Scalar,
    /// 256-bit `std::arch` kernels (requires AVX2; x86-64 only).
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
            Backend::Scalar => 1,
            Backend::Avx2 => 4,
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

/// Dispatches a kernel call to the AVX2 wrapper and `return`s its result
/// when AVX2 is the active backend; falls through (no-op) when the scalar
/// backend is active or the architecture has no SIMD backend.
///
/// Usage, from inside a kernel entry point after its degenerate-case
/// guards: `simd_dispatch!(hausdorff(t1, t2, scratch));`.
macro_rules! simd_dispatch {
    ($func:ident($($arg:expr),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        {
            if $crate::backend::active_backend() == $crate::backend::Backend::Avx2 {
                // SAFETY: `active_backend`/`force_backend` only ever select
                // AVX2 once `is_supported` verified the CPU has it, and the
                // caller's guards establish the kernel's input requirements
                // (non-empty inputs, positive threshold).
                return unsafe { $crate::simd::avx2::$func($($arg),*) };
            }
        }
    };
}
pub(crate) use simd_dispatch;

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn scalar_always_available_and_forcible() {
        assert!(Backend::Scalar.is_supported());
        assert!(available_backends().contains(&Backend::Scalar));
        // Forcing any available backend must stick; leave the widest one
        // active so other tests in this binary see the default behaviour.
        for b in available_backends() {
            force_backend(b);
            assert_eq!(active_backend(), b);
        }
        force_backend(widest_supported());
    }
}
