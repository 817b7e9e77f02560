//! Deterministic fault injection for the durability layer.
//!
//! A [`FailPlan`] is a small, shareable registry of *named failure sites*
//! armed with an action and a hit countdown. The WAL writer and the
//! archive writer consult the plan at every registered point
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
//! For integration-style runs the plan can also be parsed from the
//! `REPOSE_FAILPOINTS` environment variable
//! (`point=action[:after][,point=action[:after]...]`, e.g.
//! `wal.flush=short:3,wal.sync=crash`). The grammar and the countdown
//! registry are shared with the shard layer's `REPOSE_NETFAULTS` plan —
//! see [`crate::spec`].

use crate::spec::{ArmRegistry, SpecIssue};
use std::sync::Arc;

/// Every failure site the WAL writer consults, in hit order along the
/// write path. The crash-loop harness iterates this list to prove
/// recovery at *every* registered WAL point.
pub const WAL_POINTS: &[&str] = &[
    "wal.append",
    "wal.flush",
    "wal.sync",
    "wal.rotate",
    "wal.snapshot",
    "wal.checkpoint",
];

/// Every failure site the archive writer and reader consult. Unlike the
/// WAL points, an injected archive failure never refuses a client
/// operation — the WAL stays the source of truth and serving continues —
/// so the archive suites (not the crash loop) iterate these.
pub const ARC_POINTS: &[&str] = &["arc.write", "arc.sync", "arc.rename", "arc.map"];

/// Every registered failure site across both write paths.
pub const POINTS: &[&str] = &[
    "wal.append",
    "wal.flush",
    "wal.sync",
    "wal.rotate",
    "wal.snapshot",
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
    /// anything; the WAL goes dead (fail-stop).
    IoError,
    /// The pending bytes are written only up to half their length — a torn
    /// write — then the WAL goes dead.
    ShortWrite,
    /// Process death at this point: whatever was already durably flushed
    /// stays, half of the pending bytes land as a torn tail, and the WAL
    /// goes dead. Recovery from the directory is the only way forward.
    Crash,
}

/// The spec-grammar action names: `io`, `short`, `crash`.
impl std::str::FromStr for FailAction {
    type Err = FailSpecReason;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "io" => Ok(FailAction::IoError),
            "short" => Ok(FailAction::ShortWrite),
            "crash" => Ok(FailAction::Crash),
            other => Err(FailSpecReason::UnknownAction(other.to_string())),
        }
    }
}

/// A deterministic, shareable fault-injection plan (see module docs).
/// Cloning shares the underlying registry.
#[derive(Debug, Clone, Default)]
pub struct FailPlan {
    inner: Arc<ArmRegistry<FailAction>>,
}

impl FailPlan {
    /// An empty plan (nothing ever fires).
    pub fn new() -> Self {
        FailPlan::default()
    }

    /// Arms `point` to fire `action` after `after` further hits (0 =
    /// fire on the very next hit). Re-arming a point replaces its
    /// previous arm.
    pub fn arm(&self, point: &str, action: FailAction, after: u32) {
        self.inner.arm(point, action, after);
    }

    /// Hit `point`: decrements its countdown and returns the action the
    /// moment it fires (exactly once per arm).
    pub fn hit(&self, point: &str) -> Option<FailAction> {
        self.inner.hit(point)
    }

    /// Whether any arm has fired.
    pub fn any_fired(&self) -> bool {
        self.inner.any_fired()
    }

    /// A plan parsed from the `REPOSE_FAILPOINTS` environment variable;
    /// empty when unset. Malformed entries panic at arm time with a
    /// message naming them — a silently ignored fault plan is worse than
    /// none.
    pub fn from_env() -> Self {
        match std::env::var("REPOSE_FAILPOINTS") {
            Ok(spec) => match Self::parse(&spec) {
                Ok(plan) => plan,
                Err(e) => panic!("REPOSE_FAILPOINTS: {e}"),
            },
            Err(_) => FailPlan::new(),
        }
    }

    /// Parses `point=action[:after][,...]` (actions: `io`, `short`,
    /// `crash`; points must name a registered site from [`POINTS`] — an
    /// unknown point would arm a fault that can never fire, which is the
    /// silently-ignored plan this parser exists to refuse).
    pub fn parse(spec: &str) -> Result<Self, FailSpecError> {
        let plan = FailPlan::new();
        crate::spec::parse_spec(
            spec,
            |p| POINTS.contains(&p),
            |action| action.parse().ok(),
            |point, action, after| plan.arm(point, action, after),
        )
        .map_err(|e| FailSpecError {
            entry: e.entry,
            reason: match e.issue {
                SpecIssue::MissingEquals => FailSpecReason::MissingEquals,
                SpecIssue::BadPoint(p) => FailSpecReason::UnknownPoint(p),
                SpecIssue::BadAction(a) => FailSpecReason::UnknownAction(a),
                SpecIssue::BadCount(n) => FailSpecReason::BadCount(n),
            },
        })?;
        Ok(plan)
    }
}

/// A malformed fail-point spec entry (see [`FailPlan::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailSpecError {
    /// The offending `point=action[:after]` entry, verbatim.
    pub entry: String,
    /// What was wrong with it.
    pub reason: FailSpecReason,
}

/// Why a fail-point spec entry was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailSpecReason {
    /// The entry has no `=` separating point from action.
    MissingEquals,
    /// The point names no registered failure site (see [`POINTS`]).
    UnknownPoint(String),
    /// The action is not one of `io`, `short`, `crash`.
    UnknownAction(String),
    /// The `:after` countdown is not a non-negative integer.
    BadCount(String),
}

impl std::fmt::Display for FailSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entry = &self.entry;
        match &self.reason {
            FailSpecReason::MissingEquals => {
                write!(f, "failpoint entry `{entry}` lacks `=`")
            }
            FailSpecReason::UnknownPoint(p) => write!(
                f,
                "unknown failpoint `{p}` in `{entry}` (registered points: {})",
                POINTS.join(", ")
            ),
            FailSpecReason::UnknownAction(a) => {
                write!(f, "unknown failpoint action `{a}` in `{entry}`")
            }
            FailSpecReason::BadCount(n) => {
                write!(f, "bad failpoint count `{n}` in `{entry}`")
            }
        }
    }
}

impl std::error::Error for FailSpecError {}

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
    fn parse_spec() {
        let plan = FailPlan::parse("wal.flush=short:1, wal.sync=crash").unwrap();
        assert_eq!(plan.hit("wal.sync"), Some(FailAction::Crash));
        assert_eq!(plan.hit("wal.flush"), None);
        assert_eq!(plan.hit("wal.flush"), Some(FailAction::ShortWrite));
    }

    #[test]
    fn parse_accepts_archive_points() {
        let plan = FailPlan::parse("arc.rename=crash, arc.write=short:2").unwrap();
        assert_eq!(plan.hit("arc.rename"), Some(FailAction::Crash));
        assert_eq!(plan.hit("arc.write"), None);
    }

    #[test]
    fn parse_rejects_unknown_action() {
        let err = FailPlan::parse("wal.flush=explode").unwrap_err();
        assert_eq!(
            err.reason,
            FailSpecReason::UnknownAction("explode".into())
        );
    }

    #[test]
    fn parse_rejects_unknown_point() {
        // The original motivation: a typo'd point must not silently arm a
        // fault that can never fire.
        let err = FailPlan::parse("wal.flsh=io").unwrap_err();
        assert_eq!(err.reason, FailSpecReason::UnknownPoint("wal.flsh".into()));
        assert!(err.to_string().contains("wal.append"), "error lists valid points");
    }

    #[test]
    fn parse_rejects_missing_equals_and_bad_count() {
        assert_eq!(
            FailPlan::parse("wal.flush").unwrap_err().reason,
            FailSpecReason::MissingEquals
        );
        assert_eq!(
            FailPlan::parse("wal.flush=io:soon").unwrap_err().reason,
            FailSpecReason::BadCount("soon".into())
        );
    }

    #[test]
    fn parse_empty_spec_is_empty_plan() {
        let plan = FailPlan::parse("").unwrap();
        assert!(!plan.any_fired());
        for p in POINTS {
            assert_eq!(plan.hit(p), None);
        }
    }
}
