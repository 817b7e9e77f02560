//! The link core: everything a transport decides about a frame, written
//! once under both the threaded [`crate::Loopback`] and the simulator's
//! `SimNet`.
//!
//! A [`Link`] owns the node labels, the [`NetFaultPlan`], the shutdown
//! flag and one locked state — which nodes are severed or crashed, the
//! one reorder-held frame per link, and the [`NetStats`] counters. It
//! moves no bytes itself. [`Link::route`] serializes a message, resolves
//! the fault for its `(from, to)` send and returns what is left to do as
//! [`Delivery`] steps; the owning transport carries each step out with
//! whatever it has for inboxes and timers, asking [`Link::admit`] at the
//! moment a frame would enter an inbox, and [`Envelope::decode`] when a
//! node takes it out.
//!
//! # Fault resolution
//!
//! For each send the core consults, in order, the sender's `.tx` site, the
//! receiver's `.rx` site, then both bare node sites (`from`, then `to`;
//! for node-scoped faults like partition and crash). The first site whose
//! countdown expires decides the frame's fate and the sites after it are
//! not consulted — their countdowns stay where they were. Partitioned
//! and crashed nodes lose *all* later traffic in both directions.

use crate::fault::{NetFault, NetFaultPlan};
use crate::protocol::Message;
use crate::transport::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// An encoded frame in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The sending node.
    pub from: NodeId,
    /// One wire frame ([`Message::encode_frame`]).
    pub bytes: Vec<u8>,
}

impl Envelope {
    /// Decodes the frame a node took out of its inbox.
    pub fn decode(self) -> Option<(NodeId, Message)> {
        let mut cur = self.bytes.as_slice();
        match Message::decode_frame(&mut cur) {
            // In-process frames are never torn; a decode failure here is a
            // protocol bug and must not be silently eaten in tests.
            Ok(Some(msg)) => {
                debug_assert!(cur.is_empty(), "one frame per envelope");
                Some((self.from, msg))
            }
            Ok(None) | Err(_) => {
                debug_assert!(false, "undecodable frame on an in-process link");
                None
            }
        }
    }
}

/// One step [`Link::route`] leaves to the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Hand the frame to the receiver's inbox now.
    Now(Envelope),
    /// Hand it over once this much time has passed (a delay fault); other
    /// traffic overtakes it meanwhile.
    After(Duration, Envelope),
}

/// Counters of what the network actually did (for experiments and fault
/// assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages submitted to [`crate::Transport::send`].
    pub sent: u64,
    /// Messages actually delivered to an inbox (duplicates count twice).
    pub delivered: u64,
    /// Messages dropped by faults, partitions, or crashed endpoints.
    pub dropped: u64,
    /// Extra deliveries due to duplication faults.
    pub duplicated: u64,
    /// Messages delivered late due to delay faults.
    pub delayed: u64,
    /// Messages held back past a successor due to reorder faults.
    pub reordered: u64,
}

/// A node's three fault-site names, built once so a send formats nothing.
#[derive(Debug)]
struct NodeSites {
    label: String,
    tx: String,
    rx: String,
}

#[derive(Debug, Default)]
struct LinkState {
    severed: HashSet<NodeId>,
    crashed: HashSet<NodeId>,
    /// One held-back frame per link, delivered after the link's next
    /// frame (reorder fault).
    reorder_pending: HashMap<(NodeId, NodeId), Envelope>,
    stats: NetStats,
}

/// The link core (see module docs).
#[derive(Debug)]
pub struct Link {
    nodes: Vec<NodeSites>,
    faults: NetFaultPlan,
    shutdown: AtomicBool,
    state: Mutex<LinkState>,
}

impl Link {
    /// A network of `labels.len()` nodes; `labels[n]` names node `n` for
    /// fault sites (conventionally `coord`, `shard0`…, `replica0`…).
    pub fn new(labels: Vec<String>, faults: NetFaultPlan) -> Self {
        let nodes = labels
            .into_iter()
            .map(|label| NodeSites {
                tx: format!("{label}.tx"),
                rx: format!("{label}.rx"),
                label,
            })
            .collect();
        Link {
            nodes,
            faults,
            shutdown: AtomicBool::new(false),
            state: Mutex::default(),
        }
    }

    /// Every update below leaves the sets and counters valid, so a guard
    /// poisoned by a panicking test thread is still good to use.
    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Decides the fate of one send (see the module docs for the site
    /// order). Returns the frames to deliver to `to`, in order; empty when
    /// the frame was dropped or is being held back. Takes the state lock
    /// once and releases it before returning.
    pub fn route(&self, from: NodeId, to: NodeId, msg: &Message) -> Vec<Delivery> {
        let env = Envelope {
            from,
            bytes: msg.encode_frame(),
        };
        let mut guard = self.lock();
        let st = &mut *guard;
        st.stats.sent += 1;
        if st.crashed.contains(&from) || st.severed.contains(&from) {
            st.stats.dropped += 1;
            return Vec::new();
        }
        let (src, dst) = (&self.nodes[from as usize], &self.nodes[to as usize]);
        // The fault, and the node a node-scoped fault applies to. Lazy:
        // a site is hit only if none before it fired.
        let hit = |site: &str, node| self.faults.hit(site).map(|f| (f, node));
        let fault = hit(&src.tx, from)
            .or_else(|| hit(&dst.rx, to))
            .or_else(|| hit(&src.label, from))
            .or_else(|| hit(&dst.label, to));
        let link = (from, to);
        let mut out = Vec::new();
        match fault {
            // A frame that goes through releases the link's held one.
            None => {
                out.push(Delivery::Now(env));
                out.extend(st.reorder_pending.remove(&link).map(Delivery::Now));
            }
            Some((NetFault::Drop, _)) => st.stats.dropped += 1,
            Some((NetFault::Duplicate, _)) => {
                st.stats.duplicated += 1;
                out.extend([Delivery::Now(env.clone()), Delivery::Now(env)]);
                out.extend(st.reorder_pending.remove(&link).map(Delivery::Now));
            }
            Some((NetFault::Delay(d), _)) => {
                st.stats.delayed += 1;
                out.push(Delivery::After(d, env));
            }
            Some((NetFault::Reorder, _)) => {
                st.stats.reordered += 1;
                // Two reorder faults on one link: the first held frame
                // gives way, not disappears.
                out.extend(st.reorder_pending.insert(link, env).map(Delivery::Now));
            }
            Some((NetFault::Partition, node)) => {
                st.severed.insert(node);
                st.stats.dropped += 1;
            }
            Some((NetFault::Crash, node)) => {
                st.crashed.insert(node);
                st.stats.dropped += 1;
            }
        }
        out
    }

    /// The at-delivery check, asked the moment `env` would enter `to`'s
    /// inbox: `false` (and the frame counts as dropped) when an endpoint
    /// has been cut off or the receiver has died since it was routed.
    pub fn admit(&self, to: NodeId, env: &Envelope) -> bool {
        let mut st = self.lock();
        let lost =
            st.severed.contains(&to) || st.severed.contains(&env.from) || st.crashed.contains(&to);
        if lost {
            st.stats.dropped += 1;
        } else {
            st.stats.delivered += 1;
        }
        !lost
    }

    /// The fault-site label of `node`.
    pub fn label(&self, node: NodeId) -> &str {
        &self.nodes[node as usize].label
    }

    /// Snapshot of the network counters.
    pub fn stats(&self) -> NetStats {
        self.lock().stats
    }

    /// Whether a partition fault has severed `node` from the network.
    pub fn is_severed(&self, node: NodeId) -> bool {
        self.lock().severed.contains(&node)
    }

    /// Whether `node` is dead (a crash fault, or [`Link::crash`]).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.lock().crashed.contains(&node)
    }

    /// Marks `node` dead: it receives nothing and sends nothing from now.
    pub fn crash(&self, node: NodeId) {
        self.lock().crashed.insert(node);
    }

    /// Whether the deployment is shutting down. Out-of-band: a partition
    /// cannot keep it from a node.
    pub fn is_shutdown(&self) -> bool {
        // Pairs with the `Release` store in `shutdown_all`.
        self.shutdown.load(Ordering::Acquire)
    }

    /// Begins teardown.
    pub fn shutdown_all(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COORD: NodeId = 0;
    const SHARD0: NodeId = 1;
    const SHARD1: NodeId = 2;

    fn link(arms: &[(&str, NetFault, u32)]) -> Link {
        let plan = NetFaultPlan::new();
        for &(site, fault, after) in arms {
            plan.arm(site, fault, after);
        }
        Link::new(vec!["coord".into(), "shard0".into(), "shard1".into()], plan)
    }

    fn ack(seq: u64) -> Message {
        Message::Ack { seq }
    }

    fn env(from: NodeId, seq: u64) -> Envelope {
        Envelope {
            from,
            bytes: ack(seq).encode_frame(),
        }
    }

    fn now(from: NodeId, seq: u64) -> Delivery {
        Delivery::Now(env(from, seq))
    }

    fn stats(sent: u64, dropped: u64, duplicated: u64, delayed: u64, reordered: u64) -> NetStats {
        NetStats {
            sent,
            delivered: 0,
            dropped,
            duplicated,
            delayed,
            reordered,
        }
    }

    /// The four site forms one `coord -> shard0` send touches, with the
    /// node a node-scoped fault armed there applies to.
    const SITES: [(&str, NodeId); 4] = [
        ("coord.tx", COORD),
        ("shard0.rx", SHARD0),
        ("coord", COORD),
        ("shard0", SHARD0),
    ];

    #[test]
    fn healthy_route_is_one_frame_and_one_count() {
        let l = link(&[]);
        assert_eq!(l.route(COORD, SHARD0, &ack(1)), vec![now(COORD, 1)]);
        assert_eq!(l.stats(), stats(1, 0, 0, 0, 0));
        assert!(l.admit(SHARD0, &env(COORD, 1)));
        assert_eq!(l.stats().delivered, 1);
        assert_eq!(env(COORD, 1).decode(), Some((COORD, ack(1))));
    }

    #[test]
    fn every_fault_at_every_site_form() {
        let d = Duration::from_millis(7);
        for (site, scoped) in SITES {
            // Armed `:1`: the first send passes untouched, the second trips.
            let trip = |fault| {
                let l = link(&[(site, fault, 1)]);
                assert_eq!(
                    l.route(COORD, SHARD0, &ack(1)),
                    vec![now(COORD, 1)],
                    "{site}"
                );
                (l.route(COORD, SHARD0, &ack(2)), l)
            };

            let (got, l) = trip(NetFault::Drop);
            assert_eq!(got, vec![], "{site} drop");
            assert_eq!(l.stats(), stats(2, 1, 0, 0, 0), "{site} drop");

            let (got, l) = trip(NetFault::Duplicate);
            assert_eq!(got, vec![now(COORD, 2), now(COORD, 2)], "{site} dup");
            assert_eq!(l.stats(), stats(2, 0, 1, 0, 0), "{site} dup");

            let (got, l) = trip(NetFault::Delay(d));
            assert_eq!(got, vec![Delivery::After(d, env(COORD, 2))], "{site} delay");
            assert_eq!(l.stats(), stats(2, 0, 0, 1, 0), "{site} delay");

            let (got, l) = trip(NetFault::Reorder);
            assert_eq!(got, vec![], "{site} reorder holds the frame");
            assert_eq!(l.stats(), stats(2, 0, 0, 0, 1), "{site} reorder");
            assert_eq!(
                l.route(COORD, SHARD0, &ack(3)),
                vec![now(COORD, 3), now(COORD, 2)],
                "{site}: the successor goes first and releases the held frame"
            );

            let (got, l) = trip(NetFault::Partition);
            assert_eq!(got, vec![], "{site} partition");
            assert_eq!(l.stats(), stats(2, 1, 0, 0, 0), "{site} partition");
            assert!(
                l.is_severed(scoped) && !l.is_severed(SHARD1),
                "{site} severs its own node"
            );
            assert!(!l.is_crashed(scoped));

            let (got, l) = trip(NetFault::Crash);
            assert_eq!(got, vec![], "{site} crash");
            assert_eq!(l.stats(), stats(2, 1, 0, 0, 0), "{site} crash");
            assert!(
                l.is_crashed(scoped) && !l.is_crashed(SHARD1),
                "{site} kills its own node"
            );
            assert!(!l.is_severed(scoped));
        }
    }

    #[test]
    fn first_expiring_site_decides_and_later_sites_are_not_consumed() {
        let l = link(&[
            ("coord.tx", NetFault::Drop, 0),
            ("shard0.rx", NetFault::Duplicate, 0),
        ]);
        // `tx` fires; `rx` was never consulted, so its `:0` is still armed.
        assert_eq!(l.route(COORD, SHARD0, &ack(1)), vec![]);
        assert_eq!(l.stats(), stats(1, 1, 0, 0, 0));
        // Now `tx` is spent and `rx` fires.
        assert_eq!(
            l.route(COORD, SHARD0, &ack(2)),
            vec![now(COORD, 2), now(COORD, 2)]
        );
        assert_eq!(l.stats(), stats(2, 1, 1, 0, 0));
        assert_eq!(l.route(COORD, SHARD0, &ack(3)), vec![now(COORD, 3)]);
    }

    #[test]
    fn a_site_that_does_not_fire_still_counts_down_before_a_later_one_fires() {
        // tx needs two more hits, the bare receiver site fires at once:
        // the order is tx, rx, from, to, and only a *firing* site stops it.
        let l = link(&[
            ("coord.tx", NetFault::Drop, 2),
            ("shard0", NetFault::Duplicate, 0),
        ]);
        assert_eq!(l.route(COORD, SHARD0, &ack(1)).len(), 2, "`shard0` fires");
        assert_eq!(
            l.route(COORD, SHARD0, &ack(2)).len(),
            1,
            "tx: second hit, not yet"
        );
        assert_eq!(
            l.route(COORD, SHARD0, &ack(3)),
            vec![],
            "tx: third hit drops"
        );
        // Sites on other links are untouched by all of the above.
        assert_eq!(l.route(SHARD1, COORD, &ack(4)), vec![now(SHARD1, 4)]);
    }

    #[test]
    fn two_reorders_on_one_link_lose_nothing() {
        let l = link(&[
            ("coord.tx", NetFault::Reorder, 0),
            ("shard0.rx", NetFault::Reorder, 0),
        ]);
        assert_eq!(l.route(COORD, SHARD0, &ack(1)), vec![], "tx holds 1");
        assert_eq!(
            l.route(COORD, SHARD0, &ack(2)),
            vec![now(COORD, 1)],
            "rx holds 2, 1 gives way"
        );
        // A held frame belongs to its link: other links do not release it.
        assert_eq!(l.route(COORD, SHARD1, &ack(9)), vec![now(COORD, 9)]);
        assert_eq!(l.route(SHARD0, COORD, &ack(8)), vec![now(SHARD0, 8)]);
        assert_eq!(
            l.route(COORD, SHARD0, &ack(3)),
            vec![now(COORD, 3), now(COORD, 2)]
        );
        assert_eq!(l.stats(), stats(5, 0, 0, 0, 2));
    }

    #[test]
    fn partition_drops_both_directions_afterwards() {
        let l = link(&[("shard0", NetFault::Partition, 0)]);
        assert_eq!(
            l.route(COORD, SHARD0, &ack(1)),
            vec![],
            "trips the partition"
        );
        // From the severed node: refused at route time.
        assert_eq!(l.route(SHARD0, COORD, &ack(2)), vec![]);
        // To it: routed, refused at delivery time.
        assert_eq!(l.route(COORD, SHARD0, &ack(3)), vec![now(COORD, 3)]);
        assert!(!l.admit(SHARD0, &env(COORD, 3)));
        // A frame the severed node sent *before* the cut (delayed, say).
        assert!(!l.admit(COORD, &env(SHARD0, 0)));
        // Everyone else is unaffected.
        assert_eq!(l.route(COORD, SHARD1, &ack(4)), vec![now(COORD, 4)]);
        assert!(l.admit(SHARD1, &env(COORD, 4)));
        assert_eq!(
            l.stats(),
            NetStats {
                sent: 4,
                delivered: 1,
                dropped: 4,
                ..NetStats::default()
            }
        );
    }

    #[test]
    fn crash_drops_both_directions_afterwards() {
        let l = link(&[("shard0.rx", NetFault::Crash, 0)]);
        assert_eq!(l.route(COORD, SHARD0, &ack(1)), vec![], "trips the crash");
        assert_eq!(
            l.route(SHARD0, COORD, &ack(2)),
            vec![],
            "a dead node sends nothing"
        );
        assert_eq!(l.route(COORD, SHARD0, &ack(3)), vec![now(COORD, 3)]);
        assert!(
            !l.admit(SHARD0, &env(COORD, 3)),
            "a dead node receives nothing"
        );
        // Unlike a partition, what it sent before dying still arrives.
        assert!(l.admit(COORD, &env(SHARD0, 0)));
        assert_eq!(
            l.stats(),
            NetStats {
                sent: 3,
                delivered: 1,
                dropped: 3,
                ..NetStats::default()
            }
        );
        // `crash` is the same death without a fault.
        l.crash(SHARD1);
        assert!(l.is_crashed(SHARD1));
        assert_eq!(l.route(SHARD1, COORD, &ack(4)), vec![]);
    }

    #[test]
    fn shutdown_is_out_of_band() {
        let l = link(&[("shard0", NetFault::Partition, 0)]);
        l.route(COORD, SHARD0, &ack(1));
        assert!(l.is_severed(SHARD0) && !l.is_shutdown());
        l.shutdown_all();
        assert!(l.is_shutdown());
    }
}
