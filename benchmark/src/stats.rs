//! The harness's own arithmetic: percentile selection, the seeded PRNG and
//! Zipf sampler behind the generated inputs, and closed-loop rates.
//!
//! Nothing here calls into the system under test, so all of it is unit
//! tested (`cargo test --manifest-path benchmark/Cargo.toml`).

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness. Owned here (not
/// the vendored `rand`) so a generated input stream is a function of the
/// `--seed` argument and this file alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The 1-based nearest rank of the `p`-th percentile (`p` in `0..=100`,
/// to a tenth of a percent) among `n >= 1` samples. In integers: 99.9 %
/// of 10,000 is rank 9,990, not whatever `0.999 * 1e4` rounds up to.
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1_000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The percentile ladder tails are reported from, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest ladder percentile with at least ten samples beyond it —
/// the only tail a sample of `n` supports. `None` below 40 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Completed operations per second of a closed loop: every client waited
/// for each reply, so the rate is just completions over the window the
/// clients actually ran.
pub fn rate_per_s(completed: usize, window: Duration) -> f64 {
    completed as f64 / window.as_secs_f64()
}

/// A latency sample, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies(Vec<u64>);

/// Median, the gating p95, and the highest tail the sample supports.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ns: f64,
    pub p95_ns: f64,
    /// Samples beyond the p95 (the rule asks for ten).
    pub beyond_p95: usize,
    /// `(percentile, value)` of the highest supported ladder percentile.
    pub tail: Option<(f64, f64)>,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The median in nanoseconds; NaN for an empty sample.
    pub fn p50_ns(&self) -> f64 {
        self.summary().map_or(f64::NAN, |s| s.p50_ns)
    }

    /// `None` for an empty sample.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.0.iter().map(|&n| n as f64).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(LatencySummary {
            samples: n,
            p50_ns: percentile(&sorted, 50.0),
            p95_ns: percentile(&sorted, 95.0),
            beyond_p95: samples_beyond(n, 95.0),
            tail: highest_supported_percentile(n).map(|p| (p, percentile(&sorted, p))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, ten beyond; p99 has two beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(200, 99.0), 2);
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let mut l = Latencies::default();
        for i in 1..=1_000u64 {
            l.push(Duration::from_nanos(i));
        }
        let s = l.summary().unwrap();
        assert_eq!(s.samples, 1_000);
        assert_eq!(s.p50_ns, 500.0);
        assert_eq!(s.p95_ns, 950.0);
        assert_eq!(s.beyond_p95, 50);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert!(Latencies::default().summary().is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(2_000, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..5_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same stream");
        assert_ne!(a, draw(8), "another seed, another stream");
        assert!(a.iter().all(|&r| r < 2_000));
        // Rank 0 carries 1/H(2000) ~ 12.2 % of the mass at s = 1.
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((0.10..0.15).contains(&top), "rank-0 share {top}");
        let half = a.iter().filter(|&&r| r < 44).count() as f64 / a.len() as f64;
        assert!((0.45..0.60).contains(&half), "top-44 share {half}");
    }

    #[test]
    fn splitmix_below_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        assert!((0..1_000).all(|_| rng.below(17) < 17));
        let f = rng.next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn closed_loop_rate_is_completions_over_window() {
        assert_eq!(rate_per_s(500, Duration::from_secs(10)), 50.0);
        assert_eq!(rate_per_s(3, Duration::from_millis(1_500)), 2.0);
    }
}
