//! The hedging trigger: a latency-percentile tracker for "send a backup
//! request once the primary has outlived what requests normally take".
//!
//! Extracted from the shard coordinator so the policy is testable on its
//! own and free of ambient entropy: the samples come from whatever
//! [`crate::Clock`] the caller times attempts with (virtual time in
//! simulation, the monotonic clock in production), so the exact tick a
//! hedge fires on replays deterministically from a seed.

use std::collections::VecDeque;
use std::time::Duration;

/// How many completed-attempt samples the tracker retains (a bounded ring:
/// old traffic ages out, the percentile follows current conditions).
const SAMPLE_CAPACITY: usize = 512;

/// Below this many samples the percentile is noise; the tracker returns
/// the caller's fallback instead.
const MIN_SAMPLES: usize = 8;

/// A bounded ring of observed attempt latencies and the percentile-based
/// hedge delay derived from it (see module docs).
#[derive(Debug, Default)]
pub struct HedgeTracker {
    samples: VecDeque<Duration>,
}

impl HedgeTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        HedgeTracker::default()
    }

    /// Records one completed attempt's latency.
    pub fn record(&mut self, latency: Duration) {
        if self.samples.len() >= SAMPLE_CAPACITY {
            self.samples.pop_front();
        }
        self.samples.push_back(latency);
    }

    /// Samples recorded so far (bounded by the ring capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The hedge delay: the `percentile` (in `0..=1`) of observed attempt
    /// latencies, never below `floor`; `fallback.max(floor)` until enough
    /// samples exist.
    pub fn delay(&self, percentile: f64, floor: Duration, fallback: Duration) -> Duration {
        if self.samples.len() < MIN_SAMPLES {
            return floor.max(fallback);
        }
        let mut sorted: Vec<Duration> = self.samples.iter().copied().collect();
        sorted.sort();
        let idx = ((sorted.len() - 1) as f64 * percentile).round() as usize;
        floor.max(sorted[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn fallback_until_enough_samples() {
        let mut t = HedgeTracker::new();
        for _ in 0..MIN_SAMPLES - 1 {
            t.record(3 * MS);
            assert_eq!(t.delay(0.95, 5 * MS, 250 * MS), 250 * MS);
        }
        t.record(3 * MS);
        assert_eq!(
            t.delay(0.95, MS, 250 * MS),
            3 * MS,
            "percentile takes over at {MIN_SAMPLES} samples"
        );
    }

    #[test]
    fn percentile_is_floored() {
        let mut t = HedgeTracker::new();
        for i in 1..=100u64 {
            t.record(Duration::from_millis(i));
        }
        assert_eq!(t.delay(0.95, MS, MS), Duration::from_millis(95));
        assert_eq!(t.delay(0.0, 40 * MS, MS), 40 * MS, "floor wins over p0");
    }

    #[test]
    fn ring_is_bounded_and_follows_recent_traffic() {
        let mut t = HedgeTracker::new();
        for _ in 0..SAMPLE_CAPACITY {
            t.record(100 * MS);
        }
        for _ in 0..SAMPLE_CAPACITY {
            t.record(2 * MS);
        }
        assert_eq!(t.len(), SAMPLE_CAPACITY);
        assert_eq!(t.delay(1.0, MS, MS), 2 * MS, "old samples aged out");
    }
}
