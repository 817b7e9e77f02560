//! Deterministic network fault injection for the shard transport — the
//! network-level sibling of the durability layer's
//! [`repose_durability::FailPlan`].
//!
//! A [`NetFaultPlan`] arms *named network sites* with a [`NetFault`] and a
//! hit countdown. Sites are per-node and per-direction:
//! `shard0.tx` (messages shard 0 sends), `replica2.rx` (messages replica 2
//! receives), or the bare node name (`shard0`) for node-scoped faults like
//! partition and crash. The loopback transport consults the plan on every
//! send; when an armed site's countdown reaches zero the fault fires
//! **exactly once**, so a test can say "drop the 3rd message shard 1
//! sends" and get the same interleaving every run.
//!
//! Plans parse from the `REPOSE_NETFAULTS` environment variable with the
//! same grammar as `REPOSE_FAILPOINTS` — `point=action[:after][,...]` —
//! and the same strictness contract: a malformed or misspelled entry is a
//! typed [`NetSpecError`] (and a loud panic at arm time from
//! [`NetFaultPlan::from_env`]), never a silently ignored fault. Both the
//! grammar and the exactly-once countdown registry are the durability
//! layer's [`repose_durability::spec`], not a copy.

use repose_durability::spec::{ArmRegistry, SpecIssue};
use std::sync::Arc;
use std::time::Duration;

/// What an armed network site does to the message that trips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The message vanishes. The sender learns nothing.
    Drop,
    /// The message is delivered after this extra delay (other traffic
    /// overtakes it meanwhile).
    Delay(Duration),
    /// The message is delivered twice.
    Duplicate,
    /// The message is held back and delivered *after* the next message on
    /// the same link — a classic reordering.
    Reorder,
    /// The node named by the site is cut off: every message to or from it
    /// is dropped from this moment on (the message that tripped the fault
    /// included).
    Partition,
    /// The node named by the site dies: its worker loop exits and every
    /// message to or from it is dropped.
    Crash,
}

/// The spec-grammar action names: `drop`, `dup`, `reorder`, `partition`,
/// `crash`, `delay<ms>` (e.g. `delay250`).
impl std::str::FromStr for NetFault {
    type Err = NetSpecReason;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "drop" => Ok(NetFault::Drop),
            "dup" => Ok(NetFault::Duplicate),
            "reorder" => Ok(NetFault::Reorder),
            "partition" => Ok(NetFault::Partition),
            "crash" => Ok(NetFault::Crash),
            other => other
                .strip_prefix("delay")
                .and_then(|ms| ms.parse::<u64>().ok())
                .map(|ms| NetFault::Delay(Duration::from_millis(ms)))
                .ok_or_else(|| NetSpecReason::BadAction(other.to_string())),
        }
    }
}

/// A deterministic, shareable network-fault plan (see module docs).
/// Cloning shares the registry.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    inner: Arc<ArmRegistry<NetFault>>,
}

impl NetFaultPlan {
    /// An empty plan (a perfectly healthy network).
    pub fn new() -> Self {
        NetFaultPlan::default()
    }

    /// Arms `point` to fire `fault` after `after` further hits (0 = fire
    /// on the very next hit). Re-arming a point replaces its previous arm.
    ///
    /// # Panics
    /// When `point` is not a well-formed site name
    /// ([`valid_point`]) — arming a site the transport never consults
    /// would be the silently-ignored fault this module exists to prevent.
    pub fn arm(&self, point: &str, fault: NetFault, after: u32) {
        assert!(
            valid_point(point),
            "`{point}` is not a network fault site (want coord|shard<N>|replica<N>, \
             optionally suffixed .tx or .rx)"
        );
        self.inner.arm(point, fault, after);
    }

    /// Hit `point`: decrements its countdown and returns the fault the
    /// moment it fires (exactly once per arm).
    pub fn hit(&self, point: &str) -> Option<NetFault> {
        self.inner.hit(point)
    }

    /// Whether any arm has fired.
    pub fn any_fired(&self) -> bool {
        self.inner.any_fired()
    }

    /// A plan parsed from the `REPOSE_NETFAULTS` environment variable;
    /// empty when unset. Malformed entries panic at arm time with a
    /// message naming them.
    pub fn from_env() -> Self {
        match std::env::var("REPOSE_NETFAULTS") {
            Ok(spec) => match Self::parse(&spec) {
                Ok(plan) => plan,
                Err(e) => panic!("REPOSE_NETFAULTS: {e}"),
            },
            Err(_) => NetFaultPlan::new(),
        }
    }

    /// Parses `point=action[:after][,...]`. Actions: `drop`, `dup`,
    /// `reorder`, `partition`, `crash`, `delay<ms>` (e.g. `delay250`).
    /// Points must be well-formed site names (see [`valid_point`]).
    pub fn parse(spec: &str) -> Result<Self, NetSpecError> {
        let plan = NetFaultPlan::new();
        repose_durability::spec::parse_spec(
            spec,
            valid_point,
            |action| action.parse().ok(),
            |point, fault, after| plan.arm(point, fault, after),
        )
        .map_err(|e| NetSpecError {
            entry: e.entry,
            reason: match e.issue {
                SpecIssue::MissingEquals => NetSpecReason::MissingEquals,
                SpecIssue::BadPoint(p) => NetSpecReason::BadPoint(p),
                SpecIssue::BadAction(a) => NetSpecReason::BadAction(a),
                SpecIssue::BadCount(n) => NetSpecReason::BadCount(n),
            },
        })?;
        Ok(plan)
    }
}

/// Whether `point` is a well-formed network fault site: `coord`,
/// `shard<N>`, or `replica<N>`, optionally suffixed `.tx` (messages the
/// node sends) or `.rx` (messages it receives).
pub fn valid_point(point: &str) -> bool {
    let base = point
        .strip_suffix(".tx")
        .or_else(|| point.strip_suffix(".rx"))
        .unwrap_or(point);
    if base == "coord" {
        return true;
    }
    let idx = base
        .strip_prefix("shard")
        .or_else(|| base.strip_prefix("replica"));
    matches!(idx, Some(n) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// A malformed network-fault spec entry (see [`NetFaultPlan::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSpecError {
    /// The offending entry, verbatim.
    pub entry: String,
    /// What was wrong with it.
    pub reason: NetSpecReason,
}

/// Why a network-fault spec entry was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetSpecReason {
    /// No `=` separating point from action.
    MissingEquals,
    /// The point is not a well-formed site name.
    BadPoint(String),
    /// The action is not `drop|dup|reorder|partition|crash|delay<ms>`.
    BadAction(String),
    /// The `:after` countdown is not a non-negative integer.
    BadCount(String),
}

impl std::fmt::Display for NetSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entry = &self.entry;
        match &self.reason {
            NetSpecReason::MissingEquals => write!(f, "netfault entry `{entry}` lacks `=`"),
            NetSpecReason::BadPoint(p) => write!(
                f,
                "bad netfault site `{p}` in `{entry}` \
                 (want coord|shard<N>|replica<N>[.tx|.rx])"
            ),
            NetSpecReason::BadAction(a) => write!(
                f,
                "unknown netfault action `{a}` in `{entry}` \
                 (want drop|dup|reorder|partition|crash|delay<ms>)"
            ),
            NetSpecReason::BadCount(n) => write!(f, "bad netfault count `{n}` in `{entry}`"),
        }
    }
}

impl std::error::Error for NetSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countdown_fires_exactly_once() {
        let plan = NetFaultPlan::new();
        plan.arm("shard0.tx", NetFault::Drop, 2);
        assert_eq!(plan.hit("shard0.tx"), None);
        assert_eq!(plan.hit("shard0.tx"), None);
        assert_eq!(plan.hit("shard0.tx"), Some(NetFault::Drop));
        assert_eq!(plan.hit("shard0.tx"), None);
        assert!(plan.any_fired());
    }

    #[test]
    fn parse_grammar() {
        let plan =
            NetFaultPlan::parse("shard1.rx=delay250:3, coord.tx=dup, replica0=crash").unwrap();
        assert_eq!(plan.hit("coord.tx"), Some(NetFault::Duplicate));
        assert_eq!(
            plan.hit("replica0"),
            Some(NetFault::Crash)
        );
        for _ in 0..3 {
            assert_eq!(plan.hit("shard1.rx"), None);
        }
        assert_eq!(
            plan.hit("shard1.rx"),
            Some(NetFault::Delay(Duration::from_millis(250)))
        );
    }

    #[test]
    fn parse_rejects_bad_site() {
        let err = NetFaultPlan::parse("shardx.tx=drop").unwrap_err();
        assert_eq!(err.reason, NetSpecReason::BadPoint("shardx.tx".into()));
        let err = NetFaultPlan::parse("gateway=drop").unwrap_err();
        assert_eq!(err.reason, NetSpecReason::BadPoint("gateway".into()));
    }

    #[test]
    fn parse_rejects_bad_action_count_and_missing_equals() {
        assert_eq!(
            NetFaultPlan::parse("shard0=explode").unwrap_err().reason,
            NetSpecReason::BadAction("explode".into())
        );
        assert_eq!(
            NetFaultPlan::parse("shard0=delaysoon").unwrap_err().reason,
            NetSpecReason::BadAction("delaysoon".into())
        );
        assert_eq!(
            NetFaultPlan::parse("shard0=drop:always").unwrap_err().reason,
            NetSpecReason::BadCount("always".into())
        );
        assert_eq!(
            NetFaultPlan::parse("shard0").unwrap_err().reason,
            NetSpecReason::MissingEquals
        );
    }

    #[test]
    #[should_panic(expected = "not a network fault site")]
    fn arming_a_bad_site_panics() {
        NetFaultPlan::new().arm("shrd0.tx", NetFault::Drop, 0);
    }

    #[test]
    fn site_grammar() {
        for good in ["coord", "coord.tx", "shard0", "shard12.rx", "replica3.tx"] {
            assert!(valid_point(good), "{good}");
        }
        for bad in ["", "shard", "shard.tx", "replica-1", "coord.txx", "Shard0"] {
            assert!(!valid_point(bad), "{bad}");
        }
    }
}
