//! The time source every timer-driven decision reads.
//!
//! Deadlines, heartbeats, and retry backoffs all used to sample
//! [`Instant::now`] directly, which made any fault interleaving that
//! involved a timer unreproducible: the same seed could retry on one run
//! and not on the next depending on host scheduling. A [`Clock`]
//! separates *what time it is* from *who asks*: production code carries a
//! [`SystemClock`] (the monotonic clock, anchored once per process) and
//! behaves exactly as before, while the deterministic simulator carries a
//! [`SimClock`] whose time only moves when the simulation advances it —
//! so a failing seed replays bit-exact, timers included.
//!
//! Two conventions keep call sites honest:
//!
//! * Time is a [`Duration`] since the clock's epoch, not an [`Instant`]:
//!   virtual time has no `Instant` to offer, and a `Duration` makes
//!   arithmetic (deadlines, ages) explicit and total.
//! * A decision loop samples [`Clock::now`] **once per iteration** and
//!   compares every timer against that one sample. Re-sampling inside a
//!   single decision lets the clock move between the samples, which is
//!   both a determinism leak and the duplicated-`Instant::now` bug class
//!   this trait was introduced to retire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic time source (see module docs). `now` is a duration since
/// an arbitrary fixed epoch; only differences and comparisons between
/// values from the *same* clock are meaningful.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current time since this clock's epoch. Monotonic:
    /// never decreases across calls.
    fn now(&self) -> Duration;

    /// Blocks (or, for a virtual clock, advances time) for `d`.
    fn sleep(&self, d: Duration);
}

/// The process's monotonic clock, anchored at first use. The production
/// default everywhere a [`Clock`] is accepted.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        process_epoch().elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A virtual clock for deterministic simulation: time is a counter that
/// moves only when the simulation advances it ([`SimClock::advance`]) or
/// when a simulated component sleeps (the sleep *is* the advance — a
/// single-threaded simulation has nothing else to wait for). Shared by
/// `Arc` between the simulator and every component under test.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    /// A virtual clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::SeqCst);
    }

    /// Moves time forward *to* `t` if `t` is ahead (never backwards).
    pub fn advance_to(&self, t: Duration) {
        let target = t.as_nanos().min(u64::MAX as u128) as u64;
        self.nanos.fetch_max(target, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn system_clock_is_monotonic_and_sleeps() {
        let c = SystemClock;
        let a = c.now();
        c.sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a, "time moved across a sleep");
    }

    #[test]
    fn sim_clock_moves_only_when_advanced() {
        let c = SimClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        let before = c.now();
        assert_eq!(c.now(), before, "virtual time does not drift");
        c.advance(Duration::from_millis(7));
        assert_eq!(c.now(), Duration::from_millis(7));
        c.sleep(Duration::from_millis(3));
        assert_eq!(c.now(), Duration::from_millis(10), "sleep advances");
        c.advance_to(Duration::from_millis(5));
        assert_eq!(c.now(), Duration::from_millis(10), "never backwards");
        c.advance_to(Duration::from_millis(12));
        assert_eq!(c.now(), Duration::from_millis(12));
    }

    #[test]
    fn clocks_are_object_safe_and_shareable() {
        let clocks: Vec<Arc<dyn Clock>> =
            vec![Arc::new(SystemClock), Arc::new(SimClock::new())];
        for c in clocks {
            let _ = c.now();
        }
    }
}
