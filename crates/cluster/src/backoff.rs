//! Jittered exponential backoff for retry timers.
//!
//! One [`Backoff`] instance paces the retries of one logical operation
//! (e.g. one shard's attempts within one query): each call to
//! [`Backoff::next_delay`] returns the wait before the *next* attempt,
//! growing by [`Backoff::FACTOR`] from [`BackoffConfig::base`] up to
//! [`BackoffConfig::cap`], with uniform jitter of ±[`Backoff::JITTER`] of
//! the current step mixed in so synchronized clients fan out instead of
//! retrying in lockstep.
//!
//! The jitter stream comes from the workspace's deterministic compat
//! [`rand`] generator, seeded by the caller: the same seed yields the
//! same delay sequence, so fault-injection tests that count timer firings
//! are reproducible run-to-run.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// Shape of a [`Backoff`] delay sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// First (unjittered) delay.
    pub base: Duration,
    /// Upper bound on the unjittered step; with maximum positive jitter a
    /// delay can reach `cap * (1 + JITTER)` but never more.
    pub cap: Duration,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
        }
    }
}

/// A deterministic jittered-exponential delay sequence (see module docs).
#[derive(Debug)]
pub struct Backoff {
    config: BackoffConfig,
    /// Current unjittered step in seconds.
    step: f64,
    rng: StdRng,
    attempts: u32,
}

impl Backoff {
    /// Multiplier applied to the step after each attempt.
    pub const FACTOR: f64 = 2.0;
    /// Jitter fraction: each delay is the current step scaled by a uniform
    /// factor from `[1 - JITTER, 1 + JITTER)`.
    pub const JITTER: f64 = 0.5;

    /// A sequence shaped by `config`, with the jitter stream seeded by
    /// `seed` (same seed, same delays).
    pub fn new(config: BackoffConfig, seed: u64) -> Self {
        assert!(config.cap >= config.base, "cap below base");
        Backoff {
            config,
            step: config.base.as_secs_f64(),
            rng: StdRng::seed_from_u64(seed),
            attempts: 0,
        }
    }

    /// The delay to wait before the next attempt, advancing the sequence.
    /// Always within `[step * (1 - JITTER), step * (1 + JITTER))` of the
    /// current unjittered step, which itself never exceeds the cap.
    pub fn next_delay(&mut self) -> Duration {
        let step = self.step;
        self.step = (self.step * Self::FACTOR).min(self.config.cap.as_secs_f64());
        self.attempts += 1;
        let scale = self.rng.random_range(1.0 - Self::JITTER..1.0 + Self::JITTER);
        Duration::from_secs_f64(step * scale)
    }

    /// Attempts paid for so far (calls to [`Backoff::next_delay`]).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(base_ms: u64, cap_ms: u64) -> BackoffConfig {
        BackoffConfig { base: Duration::from_millis(base_ms), cap: Duration::from_millis(cap_ms) }
    }

    /// Delay `i` lies in the jitter band around unjittered step `i`.
    fn within_band(delay: Duration, step_ms: f64) -> bool {
        let d = delay.as_secs_f64() * 1000.0;
        let (lo, hi) = (step_ms * (1.0 - Backoff::JITTER), step_ms * (1.0 + Backoff::JITTER));
        d >= lo - 1e-9 && d < hi + 1e-9
    }

    #[test]
    fn unjittered_sequence_doubles_to_cap() {
        let mut b = Backoff::new(cfg(10, 70), 0);
        for step in [10.0, 20.0, 40.0, 70.0, 70.0] {
            let d = b.next_delay();
            assert!(within_band(d, step), "{d:?} outside the band of {step}ms");
        }
        assert_eq!(b.attempts(), 5);
    }

    #[test]
    fn jitter_stays_within_bounds_and_step_never_exceeds_cap() {
        let mut b = Backoff::new(cfg(10, 1000), 42);
        let mut step = 10.0f64;
        for _ in 0..50 {
            let d = b.next_delay();
            assert!(within_band(d, step), "{d:?} outside the band of {step}ms");
            step = (step * Backoff::FACTOR).min(1000.0);
        }
    }

    #[test]
    fn same_seed_same_delays_different_seed_diverges() {
        let delays = |seed| {
            let mut b = Backoff::new(cfg(5, 500), seed);
            (0..10).map(|_| b.next_delay()).collect::<Vec<Duration>>()
        };
        assert_eq!(delays(7), delays(7), "deterministic per seed");
        assert_ne!(delays(7), delays(8), "seeds decorrelate retry storms");
    }

    #[test]
    #[should_panic(expected = "cap below base")]
    fn cap_below_base_rejected() {
        Backoff::new(cfg(100, 10), 0);
    }
}
