//! Deterministic network fault injection for the shard transport — the
//! network-level sibling of the durability layer's
//! [`repose_durability::FailPlan`], and the same plan type
//! ([`repose_durability::spec::Plan`]) instantiated at [`NetFault`].
//!
//! A [`NetFaultPlan`] arms *named network sites* with a [`NetFault`] and a
//! hit countdown. Sites are per-node and per-direction:
//! `shard0.tx` (messages shard 0 sends), `replica2.rx` (messages replica 2
//! receives), or the bare node name (`shard0`) for node-scoped faults like
//! partition and crash. The link core ([`crate::Link`]) consults the plan
//! on every send; when an armed site's countdown reaches zero the fault
//! fires **exactly once**, so a test can say "drop the 3rd message shard 1
//! sends" and get the same interleaving every run.
//!
//! Plans are armed in code only. The site grammar is parsed in one place,
//! [`parse_site`]; arming a name it rejects panics — never a silently
//! ignored fault.

use repose_durability::spec::{FaultAction, Plan};
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

/// The action names the simulator's repro files carry: `drop`, `dup`,
/// `reorder`, `partition`, `crash`, `delay<ms>` (e.g. `delay250`).
impl std::str::FromStr for NetFault {
    type Err = String;
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
                .ok_or_else(|| format!("unknown net fault `{other}`")),
        }
    }
}

impl FaultAction for NetFault {
    const SITES: &'static str = "network fault site \
        (want coord|shard<N>|replica<N>, optionally suffixed .tx or .rx)";
    fn valid_site(site: &str) -> bool {
        valid_point(site)
    }
}

/// The shard layer's fault plan: [`Plan`] over [`NetFault`], armed only
/// at well-formed sites (see module docs; an empty plan is a perfectly
/// healthy network). Cloning shares the registry.
pub type NetFaultPlan = Plan<NetFault>;

/// Which kind of node a fault site names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteRole {
    /// `coord` — the coordinator (there is one; its index is 0).
    Coord,
    /// `shard<N>` — shard `N`'s leader.
    Shard,
    /// `replica<N>` — shard `N`'s follower.
    Replica,
}

/// Which of a node's traffic a fault site covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteDir {
    /// `.tx` — messages the node sends.
    Tx,
    /// `.rx` — messages the node receives.
    Rx,
}

/// A parsed fault site: `coord`, `shard<N>` or `replica<N>`, optionally
/// suffixed `.tx` or `.rx` (none: the node itself, for node-scoped faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The kind of node named.
    pub role: SiteRole,
    /// The `<N>` of `shard<N>` / `replica<N>`; 0 for `coord`.
    pub index: usize,
    /// The direction suffix, if any.
    pub dir: Option<SiteDir>,
}

/// Parses a fault-site name — the one definition of the site grammar.
/// `None` for anything else (`shard`, `shard-1`, `coord.txx`, `Shard0`).
pub fn parse_site(site: &str) -> Option<Site> {
    let (base, dir) = match site.rsplit_once('.') {
        Some((base, "tx")) => (base, Some(SiteDir::Tx)),
        Some((base, "rx")) => (base, Some(SiteDir::Rx)),
        Some(_) => return None,
        None => (site, None),
    };
    let (role, digits) = if base == "coord" {
        (SiteRole::Coord, "0")
    } else if let Some(n) = base.strip_prefix("shard") {
        (SiteRole::Shard, n)
    } else {
        (SiteRole::Replica, base.strip_prefix("replica")?)
    };
    // Digits only: `usize::from_str` alone would also take `+3`.
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let index = digits.parse().ok()?;
    Some(Site { role, index, dir })
}

/// Whether `point` is a well-formed network fault site (see
/// [`parse_site`]).
pub fn valid_point(point: &str) -> bool {
    parse_site(point).is_some()
}

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
        assert_eq!("drop".parse(), Ok(NetFault::Drop));
        assert_eq!("dup".parse(), Ok(NetFault::Duplicate));
        assert_eq!("reorder".parse(), Ok(NetFault::Reorder));
        assert_eq!("partition".parse(), Ok(NetFault::Partition));
        assert_eq!("crash".parse(), Ok(NetFault::Crash));
        assert_eq!("delay250".parse(), Ok(NetFault::Delay(Duration::from_millis(250))));
        for bad in ["explode", "delaysoon", "delay", ""] {
            assert!(bad.parse::<NetFault>().is_err(), "{bad}");
        }
        assert_eq!(
            parse_site("replica3.tx"),
            Some(Site { role: SiteRole::Replica, index: 3, dir: Some(SiteDir::Tx) })
        );
        assert_eq!(
            parse_site("shard12.rx"),
            Some(Site { role: SiteRole::Shard, index: 12, dir: Some(SiteDir::Rx) })
        );
        assert_eq!(parse_site("coord"), Some(Site { role: SiteRole::Coord, index: 0, dir: None }));
    }

    #[test]
    fn parse_rejects_bad_site() {
        let overflow = "shard99999999999999999999";
        for bad in ["shardx.tx", "gateway", "shard+3", "shard0.tx.rx", overflow] {
            assert_eq!(parse_site(bad), None, "{bad}");
        }
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
