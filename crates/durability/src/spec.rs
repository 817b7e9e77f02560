//! The one fault-plan type behind both fault planes: the durability
//! layer's [`crate::FailPlan`] and the shard layer's `NetFaultPlan` are
//! [`Plan`] instantiated at their action type.
//!
//! A plan arms *named sites* with an action and a hit countdown; the code
//! under test consults the plan at each site, and an armed site fires its
//! action **exactly once**, when the countdown reaches zero. The two
//! planes differ only in what an action is and which site names exist, so
//! the action type supplies the site validator ([`FaultAction`]) and
//! everything else — the countdown registry, arm-time site checking, the
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

/// A deterministic, shareable fault-injection plan (see module docs).
/// Cloning shares the registry; the empty plan's per-hit cost is one
/// atomic load.
#[derive(Debug, Clone)]
pub struct Plan<A: FaultAction>(Arc<ArmRegistry<A>>);

// Not derived: that would ask `A: Default`, and an action has no default.
impl<A: FaultAction> Default for Plan<A> {
    fn default() -> Self {
        Plan(Arc::default())
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
        self.0.arm(site, action, after);
    }

    /// Hit `site`: decrements its countdown and returns the action the
    /// moment it fires (exactly once per arm).
    pub fn hit(&self, site: &str) -> Option<A> {
        self.0.hit(site)
    }

    /// Whether any arm has fired.
    pub fn any_fired(&self) -> bool {
        self.0.any_fired()
    }
}

/// The exactly-once countdown registry under [`Plan`]: named sites armed
/// with an action and a hit countdown; an armed site fires its action
/// exactly once, when the countdown reaches zero. The unarmed fast path
/// is one atomic load.
#[derive(Debug)]
pub struct ArmRegistry<A: Copy> {
    /// Fast path: skip the mutex entirely when nothing was ever armed.
    armed: AtomicBool,
    arms: Mutex<HashMap<String, Arm<A>>>,
}

impl<A: Copy> Default for ArmRegistry<A> {
    fn default() -> Self {
        ArmRegistry { armed: AtomicBool::new(false), arms: Mutex::new(HashMap::new()) }
    }
}

#[derive(Debug, Clone, Copy)]
struct Arm<A> {
    action: A,
    /// Hits remaining before the action fires (0 = fire on the next hit).
    after: u32,
    fired: bool,
}

impl<A: Copy> ArmRegistry<A> {
    /// Arms `point` to fire `action` after `after` further hits (0 = fire
    /// on the very next hit). Re-arming a point replaces its previous arm.
    pub fn arm(&self, point: &str, action: A, after: u32) {
        let mut arms = self.arms.lock().unwrap_or_else(|e| e.into_inner());
        arms.insert(point.to_string(), Arm { action, after, fired: false });
        self.armed.store(true, Ordering::Release);
    }

    /// Hit `point`: decrements its countdown and returns the action the
    /// moment it fires (exactly once per arm).
    pub fn hit(&self, point: &str) -> Option<A> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut arms = self.arms.lock().unwrap_or_else(|e| e.into_inner());
        let arm = arms.get_mut(point)?;
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

    #[test]
    fn registry_fires_exactly_once_after_countdown() {
        let reg = ArmRegistry::<u8>::default();
        reg.arm("p", 9, 2);
        assert_eq!(reg.hit("p"), None);
        assert_eq!(reg.hit("p"), None);
        assert_eq!(reg.hit("p"), Some(9));
        assert_eq!(reg.hit("p"), None);
        assert!(reg.any_fired());
        assert_eq!(reg.hit("other"), None);
    }
}
