//! Host-speed calibration. The sandbox this benchmark is judged on is a
//! 2-vCPU microVM whose effective CPU speed wanders by ±15 % over tens of
//! seconds and drops by 30 to 40 % for minutes at a time, with nothing
//! running in the guest (`benchmark/README.md` has the measurements). A
//! raw wall-clock latency therefore says as much about the host's mood as
//! about the program.
//!
//! So every gated time is reported **at reference host speed**: beside the
//! work being timed, the client thread runs a short burst of fixed integer
//! work every 50 ms, and each measured duration is divided by how much
//! slower than the reference that burst currently runs. The burst belongs
//! to the harness and touches nothing of the system under test, so a change
//! to the system moves the measured time and not the yardstick. Raw times
//! are printed next to the normalized ones in every detail line.

use crate::stats::{median, SplitMix64};
use std::time::{Duration, Instant};

/// Iterations of one burst: ~0.45 ms, under 1 % of the time between bursts.
const BURST_ITERS: u32 = 300_000;
/// What one burst takes on the quiet reference host (a 2.1 GHz Xeon vCPU).
/// Only ratios to it matter; on another host every normalized time scales
/// by one constant.
const REFERENCE_BURST_NS: f64 = 450_000.0;
/// Bursts the current factor is the median of.
const RECENT: usize = 5;
const BURST_EVERY: Duration = Duration::from_millis(50);

fn burst_ns() -> f64 {
    let t0 = Instant::now();
    let mut rng = SplitMix64::new(0xCA11_B8A7);
    let mut acc = 0u64;
    for _ in 0..BURST_ITERS {
        acc = acc.wrapping_add(rng.next_u64());
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64
}

/// The running estimate a measurement loop consults before each operation.
#[derive(Debug)]
pub struct HostSpeed {
    recent: [f64; RECENT],
    next: usize,
    last_burst: Instant,
    /// Every factor handed out, for the detail line.
    history: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut recent = [0.0; RECENT];
        for slot in &mut recent {
            *slot = burst_ns();
        }
        HostSpeed {
            recent,
            next: 0,
            last_burst: Instant::now(),
            history: Vec::new(),
        }
    }

    /// The current slowdown factor; runs one more burst first if the last
    /// one is older than 50 ms.
    pub fn factor(&mut self) -> f64 {
        if self.last_burst.elapsed() >= BURST_EVERY {
            self.recent[self.next] = burst_ns();
            self.next = (self.next + 1) % RECENT;
            self.last_burst = Instant::now();
        }
        let f = median(&self.recent) / REFERENCE_BURST_NS;
        self.history.push(f);
        f
    }

    /// Median of the factors handed out so far (1.0 before any).
    pub fn median_factor(&self) -> f64 {
        if self.history.is_empty() {
            1.0
        } else {
            median(&self.history)
        }
    }
}

/// `d` as it would have read at reference host speed.
pub fn at_reference_speed(d: Duration, factor: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() / factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_shrinks_the_normalized_time() {
        let d = Duration::from_millis(130);
        assert_eq!(at_reference_speed(d, 1.0), d);
        assert_eq!(at_reference_speed(d, 1.3), Duration::from_millis(100));
        assert_eq!(at_reference_speed(d, 0.5), Duration::from_millis(260));
    }

    #[test]
    fn factors_are_positive_and_remembered() {
        let mut h = HostSpeed::new();
        assert_eq!(h.median_factor(), 1.0);
        let f = h.factor();
        assert!(f > 0.0);
        assert_eq!(h.median_factor(), f);
    }
}
