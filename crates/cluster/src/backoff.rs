//! Jittered exponential backoff for retry timers.
//!
//! One [`Backoff`] instance paces the retries of one logical operation
//! (e.g. one shard's attempts within one query): each call to
//! [`Backoff::next_delay`] returns the wait before the *next* attempt,
//! doubling (by [`BackoffConfig::factor`]) from [`BackoffConfig::base`]
//! up to [`BackoffConfig::cap`], with uniform jitter of ±`jitter` of the
//! current step mixed in so synchronized clients fan out instead of
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
    /// delay can reach `cap * (1 + jitter)` but never more.
    pub cap: Duration,
    /// Multiplier applied to the step after each attempt (>= 1.0).
    pub factor: f64,
    /// Jitter fraction in `[0, 1]`: each delay is the current step scaled
    /// by a uniform factor from `[1 - jitter, 1 + jitter)`.
    pub jitter: f64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            factor: 2.0,
            jitter: 0.5,
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
    /// A sequence shaped by `config`, with the jitter stream seeded by
    /// `seed` (same seed, same delays).
    pub fn new(config: BackoffConfig, seed: u64) -> Self {
        assert!(config.factor >= 1.0, "backoff must not shrink");
        assert!(
            (0.0..=1.0).contains(&config.jitter),
            "jitter is a fraction of the step"
        );
        assert!(config.cap >= config.base, "cap below base");
        Backoff {
            config,
            step: config.base.as_secs_f64(),
            rng: StdRng::seed_from_u64(seed),
            attempts: 0,
        }
    }

    /// The delay to wait before the next attempt, advancing the sequence.
    /// Always within `[step * (1 - jitter), step * (1 + jitter))` of the
    /// current unjittered step, which itself never exceeds the cap.
    pub fn next_delay(&mut self) -> Duration {
        let step = self.step;
        self.step = (self.step * self.config.factor).min(self.config.cap.as_secs_f64());
        self.attempts += 1;
        let scale = if self.config.jitter > 0.0 {
            self.rng
                .random_range(1.0 - self.config.jitter..1.0 + self.config.jitter)
        } else {
            1.0
        };
        Duration::from_secs_f64(step * scale)
    }

    /// Attempts paid for so far (calls to [`Backoff::next_delay`]).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Resets the sequence to its first step without reseeding the jitter
    /// stream (a success ends the episode; the next failure starts small).
    pub fn reset(&mut self) {
        self.step = self.config.base.as_secs_f64();
        self.attempts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(base_ms: u64, cap_ms: u64, factor: f64, jitter: f64) -> BackoffConfig {
        BackoffConfig {
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
            factor,
            jitter,
        }
    }

    #[test]
    fn unjittered_sequence_doubles_to_cap() {
        let mut b = Backoff::new(cfg(10, 70, 2.0, 0.0), 0);
        let delays: Vec<u128> = (0..5).map(|_| b.next_delay().as_millis()).collect();
        assert_eq!(delays, vec![10, 20, 40, 70, 70], "doubles, then pins at cap");
        assert_eq!(b.attempts(), 5);
    }

    #[test]
    fn jitter_stays_within_bounds_and_step_never_exceeds_cap() {
        let c = cfg(10, 1000, 2.0, 0.5);
        let mut b = Backoff::new(c, 42);
        let mut step = 10.0f64;
        for _ in 0..50 {
            let d = b.next_delay().as_secs_f64() * 1000.0;
            let lo = step * (1.0 - c.jitter);
            let hi = step * (1.0 + c.jitter);
            assert!(d >= lo - 1e-9 && d < hi + 1e-9, "{d} outside [{lo}, {hi})");
            step = (step * c.factor).min(1000.0);
        }
    }

    #[test]
    fn same_seed_same_delays_different_seed_diverges() {
        let c = cfg(5, 500, 1.7, 0.3);
        let a: Vec<Duration> = {
            let mut b = Backoff::new(c, 7);
            (0..10).map(|_| b.next_delay()).collect()
        };
        let b2: Vec<Duration> = {
            let mut b = Backoff::new(c, 7);
            (0..10).map(|_| b.next_delay()).collect()
        };
        let c2: Vec<Duration> = {
            let mut b = Backoff::new(c, 8);
            (0..10).map(|_| b.next_delay()).collect()
        };
        assert_eq!(a, b2, "deterministic per seed");
        assert_ne!(a, c2, "seeds decorrelate retry storms");
    }

    #[test]
    fn reset_restarts_from_base() {
        let mut b = Backoff::new(cfg(10, 1000, 2.0, 0.0), 0);
        b.next_delay();
        b.next_delay();
        assert_eq!(b.next_delay(), Duration::from_millis(40));
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert_eq!(b.next_delay(), Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "backoff must not shrink")]
    fn shrinking_factor_rejected() {
        Backoff::new(cfg(10, 100, 0.5, 0.0), 0);
    }
}
