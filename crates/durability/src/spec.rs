//! The one fault-plan type behind both fault planes: the durability
//! layer's [`crate::FailPlan`] and the shard layer's `NetFaultPlan` are
//! [`Plan`] instantiated at their action type.
//!
//! A plan arms *named sites* with an action and a hit countdown; the code
//! under test consults the plan at each site, and an armed site fires its
//! action **exactly once**, when the countdown reaches zero. The two
//! planes differ only in what an action is and which site names exist, so
//! the action type supplies the site validator ([`FaultAction`]) and
//! everything else — the countdown, arm-time site checking, the
//! shared-by-clone handle — is written here once. Plans are armed in code
//! only; a misspelled site panics at arm time, never arms a fault that
//! cannot fire.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What a fault plane plugs into [`Plan`]: the action an armed site
/// fires, and which site names that plane's code actually consults.
pub trait FaultAction: Copy {
    /// What a valid site is, for the arm-time panic message.
    const SITES: &'static str;
    /// Whether `site` is one the plane's code consults.
    fn valid_site(site: &str) -> bool;
}

/// A deterministic, shareable fault-injection plan (see module docs):
/// named sites armed with an action and a hit countdown. Cloning shares
/// the arms; the unarmed plan's per-hit cost is one atomic load.
#[derive(Debug, Clone)]
pub struct Plan<A: FaultAction> {
    /// Fast path: skip the mutex entirely when nothing was ever armed.
    armed: Arc<AtomicBool>,
    arms: Arc<Mutex<HashMap<String, Arm<A>>>>,
}

#[derive(Debug, Clone, Copy)]
struct Arm<A> {
    action: A,
    /// Hits remaining before the action fires (0 = fire on the next hit).
    after: u32,
    fired: bool,
}

// Not derived: that would ask `A: Default`, and an action has no default.
impl<A: FaultAction> Default for Plan<A> {
    fn default() -> Self {
        Plan { armed: Arc::default(), arms: Arc::default() }
    }
}

impl<A: FaultAction> Plan<A> {
    /// An empty plan (nothing ever fires).
    pub fn new() -> Self {
        Plan::default()
    }

    /// Arms `site` to fire `action` after `after` further hits (0 = fire
    /// on the very next hit). Re-arming a site replaces its previous arm.
    ///
    /// # Panics
    /// When `site` fails [`FaultAction::valid_site`] — arming a site
    /// nothing consults would be the silently-ignored fault a plan exists
    /// to prevent.
    pub fn arm(&self, site: &str, action: A, after: u32) {
        assert!(A::valid_site(site), "`{site}` is not a {}", A::SITES);
        let mut arms = self.arms.lock().unwrap_or_else(|e| e.into_inner());
        arms.insert(site.to_string(), Arm { action, after, fired: false });
        self.armed.store(true, Ordering::Release);
    }

    /// Hit `site`: decrements its countdown and returns the action the
    /// moment it fires (exactly once per arm).
    pub fn hit(&self, site: &str) -> Option<A> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut arms = self.arms.lock().unwrap_or_else(|e| e.into_inner());
        let arm = arms.get_mut(site)?;
        if arm.fired {
            return None;
        }
        if arm.after == 0 {
            arm.fired = true;
            Some(arm.action)
        } else {
            arm.after -= 1;
            None
        }
    }

    /// Whether any arm has fired.
    pub fn any_fired(&self) -> bool {
        self.arms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .any(|a| a.fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Fire(u8);

    impl FaultAction for Fire {
        const SITES: &'static str = "one-letter site";
        fn valid_site(site: &str) -> bool {
            site.len() == 1
        }
    }

    #[test]
    fn registry_fires_exactly_once_after_countdown() {
        let plan = Plan::new();
        plan.arm("p", Fire(9), 2);
        assert_eq!(plan.hit("p"), None);
        assert_eq!(plan.hit("p"), None);
        assert_eq!(plan.hit("p"), Some(Fire(9)));
        assert_eq!(plan.hit("p"), None);
        assert!(plan.any_fired());
        assert_eq!(plan.hit("q"), None);
    }
}
