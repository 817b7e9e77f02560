//! Deterministic fault injection for the durability layer.
//!
//! A [`FailPlan`] is a small, shareable registry of *named failure sites*
//! armed with an action and a hit countdown. The WAL writer and the
//! archive writer and reader consult the plan at every registered point
//! ([`POINTS`]); when an armed point's countdown reaches zero the action
//! fires **exactly once**, so a test can say "on the 7th flush, tear the
//! write in half" and get the same torn byte stream on every run — no
//! randomness, no timing.
//!
//! Plans are per-instance (an `Arc` handed to each [`crate::Wal`]), never
//! process-global: concurrent tests cannot interfere with each other, and
//! a production service simply carries the default empty plan, whose
//! per-append cost is one atomic load of an "anything armed?" flag.
//!
//! Plans are armed in code only, and only at registered points: arming a
//! name outside [`POINTS`] panics, because a misspelled point would arm a
//! fault that can never fire. The plan type itself is the shard layer's
//! too — see [`crate::spec::Plan`].

use crate::spec::{FaultAction, Plan};

/// Every failure site the WAL writer and the archive writer and reader
/// consult, in hit order along each path. A durable service hits all of
/// them: the WAL points on every write and compaction, the `arc.*`
/// points whenever it installs or opens the archive generation that is
/// its log's base. The crash-loop harness and the simulator iterate
/// this one list.
pub const POINTS: &[&str] = &[
    "wal.append",
    "wal.flush",
    "wal.sync",
    "wal.rotate",
    "wal.checkpoint",
    "arc.write",
    "arc.sync",
    "arc.rename",
    "arc.map",
];

/// What an armed fail point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The operation fails with an injected I/O error before writing
    /// anything; at a `wal.*` point the WAL goes dead (fail-stop).
    IoError,
    /// The pending bytes are written only up to half their length — a torn
    /// write — then the WAL goes dead.
    ShortWrite,
    /// Process death at this point: whatever was already durably flushed
    /// stays, half of the pending bytes land as a torn tail, and the WAL
    /// goes dead. Recovery from the directory is the only way forward.
    Crash,
}

/// The action names the simulator's repro files carry: `io`, `short`,
/// `crash`.
impl std::str::FromStr for FailAction {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "io" => Ok(FailAction::IoError),
            "short" => Ok(FailAction::ShortWrite),
            "crash" => Ok(FailAction::Crash),
            other => Err(format!("unknown fail action `{other}`")),
        }
    }
}

impl FaultAction for FailAction {
    const SITES: &'static str = "registered fail point (see `POINTS`)";
    fn valid_site(site: &str) -> bool {
        POINTS.contains(&site)
    }
}

/// The durability layer's fault plan: [`Plan`] over [`FailAction`], armed
/// only at [`POINTS`] (see module docs). Cloning shares the registry.
pub type FailPlan = Plan<FailAction>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_never_fires() {
        let plan = FailPlan::new();
        for p in POINTS {
            assert_eq!(plan.hit(p), None);
        }
        assert!(!plan.any_fired());
    }

    #[test]
    fn countdown_fires_exactly_once() {
        let plan = FailPlan::new();
        plan.arm("wal.flush", FailAction::ShortWrite, 2);
        assert_eq!(plan.hit("wal.flush"), None);
        assert_eq!(plan.hit("wal.flush"), None);
        assert_eq!(plan.hit("wal.flush"), Some(FailAction::ShortWrite));
        assert_eq!(plan.hit("wal.flush"), None, "fires once, not repeatedly");
        assert!(plan.any_fired());
    }

    #[test]
    fn points_are_independent() {
        let plan = FailPlan::new();
        plan.arm("wal.sync", FailAction::Crash, 0);
        assert_eq!(plan.hit("wal.append"), None);
        assert_eq!(plan.hit("wal.sync"), Some(FailAction::Crash));
    }

    #[test]
    fn clones_share_the_registry() {
        let plan = FailPlan::new();
        let shared = plan.clone();
        plan.arm("wal.append", FailAction::IoError, 0);
        assert_eq!(shared.hit("wal.append"), Some(FailAction::IoError));
    }

    #[test]
    fn every_registered_point_arms() {
        let plan = FailPlan::new();
        for p in POINTS {
            plan.arm(p, FailAction::Crash, 0);
            assert_eq!(plan.hit(p), Some(FailAction::Crash), "{p}");
        }
    }

    #[test]
    #[should_panic(expected = "not a registered fail point")]
    fn arming_a_bad_site_panics() {
        // A typo'd point must not silently arm a fault that can never fire.
        FailPlan::new().arm("wal.flsh", FailAction::IoError, 0);
    }

    #[test]
    fn parse_rejects_unknown_action() {
        assert_eq!("io".parse(), Ok(FailAction::IoError));
        assert_eq!("short".parse(), Ok(FailAction::ShortWrite));
        assert_eq!("crash".parse(), Ok(FailAction::Crash));
        assert!("explode".parse::<FailAction>().unwrap_err().contains("explode"));
    }
}
