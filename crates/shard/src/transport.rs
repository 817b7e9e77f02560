//! The transport abstraction and its in-process loopback implementation.
//!
//! Every message a node sends is **serialized through the wire protocol**
//! ([`crate::Message::encode_frame`]) at send time and decoded at
//! delivery — the loopback never shortcuts through memory — so the
//! fault-matrix suite exercises the exact byte path a TCP transport
//! would, and a codec bug cannot hide behind in-process object passing.
//!
//! What happens to a frame — which fault site decides, what a partition
//! or a crash cuts off, what gets counted — is the link core's business
//! ([`crate::link`]). [`Loopback`] is that core plus what moves the bytes
//! between threads: one channel per node, and a sleeping timer thread per
//! delayed frame.

use crate::fault::NetFaultPlan;
use crate::link::{Delivery, Envelope, Link, NetStats};
use crate::protocol::Message;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Index of a node on the transport (0 is the coordinator by convention).
pub type NodeId = u16;

/// What shard workers and coordinators program against. The in-process
/// [`Loopback`] is the only implementation in this crate (the simulator
/// has a second, single-threaded one); a real TCP/QUIC transport would
/// slot in behind the same six methods.
pub trait Transport: Send + Sync {
    /// Sends `msg` from `from` to `to`. Fire-and-forget: delivery is not
    /// guaranteed (that is the point), and failure is silent — reliability
    /// lives in the retry/ack layers above.
    fn send(&self, from: NodeId, to: NodeId, msg: &Message);
    /// Receives the next message addressed to `node`, waiting up to
    /// `timeout`. `None` on timeout (or when the node is crashed).
    fn recv_timeout(&self, node: NodeId, timeout: Duration) -> Option<(NodeId, Message)>;
    /// Receives without blocking.
    fn try_recv(&self, node: NodeId) -> Option<(NodeId, Message)>;
    /// Whether a crash fault has killed `node`.
    fn is_crashed(&self, node: NodeId) -> bool;
    /// Whether the deployment is shutting down (worker loops must exit).
    fn is_shutdown(&self) -> bool;
    /// Begins teardown: every worker loop observes [`Transport::is_shutdown`]
    /// on its next tick, even if partitioned away from the coordinator.
    fn shutdown_all(&self);
}

struct LoopbackInner {
    link: Link,
    inboxes: Vec<(Sender<Envelope>, Receiver<Envelope>)>,
}

/// The in-process loopback transport (see module docs). Cloning shares
/// the network.
#[derive(Clone)]
pub struct Loopback {
    inner: Arc<LoopbackInner>,
}

impl Loopback {
    /// A network of `labels.len()` nodes; `labels[n]` names node `n` for
    /// fault sites (conventionally `coord`, `shard0`…, `replica0`…).
    pub fn new(labels: Vec<String>, faults: NetFaultPlan) -> Self {
        let inboxes = (0..labels.len()).map(|_| unbounded()).collect();
        Loopback {
            inner: Arc::new(LoopbackInner {
                link: Link::new(labels, faults),
                inboxes,
            }),
        }
    }

    /// The fault-site label of `node`.
    pub fn label(&self, node: NodeId) -> &str {
        self.inner.link.label(node)
    }

    /// Snapshot of the network counters.
    pub fn net_stats(&self) -> NetStats {
        self.inner.link.stats()
    }

    /// Whether a partition fault has severed `node` from the network.
    pub fn is_severed(&self, node: NodeId) -> bool {
        self.inner.link.is_severed(node)
    }

    /// Puts `env` in `to`'s inbox unless the link refuses it by now.
    fn deliver(&self, to: NodeId, env: Envelope) {
        if self.inner.link.admit(to, &env) {
            self.inner.inboxes[to as usize]
                .0
                .send(env)
                .expect("the network owns every inbox's receiver");
        }
    }

    fn pop_envelope(&self, node: NodeId, timeout: Option<Duration>) -> Option<Envelope> {
        if self.is_crashed(node) {
            return None;
        }
        let rx = &self.inner.inboxes[node as usize].1;
        match timeout {
            // Timeout and disconnect both surface as "nothing arrived".
            Some(t) => rx.recv_timeout(t).ok(),
            None => rx.try_recv(),
        }
    }
}

impl Transport for Loopback {
    fn send(&self, from: NodeId, to: NodeId, msg: &Message) {
        for step in self.inner.link.route(from, to, msg) {
            match step {
                Delivery::Now(env) => self.deliver(to, env),
                Delivery::After(delay, env) => {
                    // Detached on purpose: the timer owns a handle on the
                    // network, so it delivers into a live inbox whenever
                    // it wakes, and nothing waits on a frame that is late.
                    let net = self.clone();
                    std::thread::spawn(move || {
                        std::thread::sleep(delay);
                        net.deliver(to, env);
                    });
                }
            }
        }
    }

    fn recv_timeout(&self, node: NodeId, timeout: Duration) -> Option<(NodeId, Message)> {
        self.pop_envelope(node, Some(timeout))
            .and_then(Envelope::decode)
    }

    fn try_recv(&self, node: NodeId) -> Option<(NodeId, Message)> {
        self.pop_envelope(node, None).and_then(Envelope::decode)
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.link.is_crashed(node)
    }

    fn is_shutdown(&self) -> bool {
        self.inner.link.is_shutdown()
    }

    fn shutdown_all(&self) {
        self.inner.link.shutdown_all();
    }
}

impl std::fmt::Debug for Loopback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Loopback").field(&self.inner.link).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NetFault;

    fn net(faults: NetFaultPlan) -> Loopback {
        Loopback::new(
            vec!["coord".into(), "shard0".into(), "shard1".into()],
            faults,
        )
    }

    const TICK: Duration = Duration::from_millis(100);

    #[test]
    fn healthy_delivery_roundtrips_through_the_codec() {
        let n = net(NetFaultPlan::new());
        n.send(0, 1, &Message::Ack { seq: 7 });
        let (from, msg) = n.recv_timeout(1, TICK).unwrap();
        assert_eq!(from, 0);
        assert_eq!(msg, Message::Ack { seq: 7 });
        assert_eq!(n.net_stats().delivered, 1);
    }

    #[test]
    fn drop_fault_loses_exactly_the_armed_message() {
        let plan = NetFaultPlan::new();
        plan.arm("shard0.rx", NetFault::Drop, 1);
        let n = net(plan);
        n.send(0, 1, &Message::Ack { seq: 1 });
        n.send(0, 1, &Message::Ack { seq: 2 }); // armed: dropped
        n.send(0, 1, &Message::Ack { seq: 3 });
        let got: Vec<_> = (0..2).filter_map(|_| n.recv_timeout(1, TICK)).collect();
        assert_eq!(
            got.iter().map(|(_, m)| m.clone()).collect::<Vec<_>>(),
            vec![Message::Ack { seq: 1 }, Message::Ack { seq: 3 }]
        );
        assert!(n.try_recv(1).is_none());
        assert_eq!(n.net_stats().dropped, 1);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let plan = NetFaultPlan::new();
        plan.arm("coord.tx", NetFault::Duplicate, 0);
        let n = net(plan);
        n.send(0, 1, &Message::Ack { seq: 9 });
        assert_eq!(n.recv_timeout(1, TICK).unwrap().1, Message::Ack { seq: 9 });
        assert_eq!(n.recv_timeout(1, TICK).unwrap().1, Message::Ack { seq: 9 });
    }

    #[test]
    fn reorder_fault_swaps_adjacent_messages() {
        let plan = NetFaultPlan::new();
        plan.arm("shard0.rx", NetFault::Reorder, 0);
        let n = net(plan);
        n.send(0, 1, &Message::Ack { seq: 1 }); // held
        n.send(0, 1, &Message::Ack { seq: 2 }); // delivered, then flushes 1
        assert_eq!(n.recv_timeout(1, TICK).unwrap().1, Message::Ack { seq: 2 });
        assert_eq!(n.recv_timeout(1, TICK).unwrap().1, Message::Ack { seq: 1 });
    }

    #[test]
    fn delay_fault_defers_but_still_delivers() {
        let plan = NetFaultPlan::new();
        plan.arm("shard0.rx", NetFault::Delay(Duration::from_millis(30)), 0);
        let n = net(plan);
        n.send(0, 1, &Message::Ack { seq: 5 });
        assert!(n.try_recv(1).is_none(), "not delivered synchronously");
        assert_eq!(
            n.recv_timeout(1, Duration::from_secs(5)).unwrap().1,
            Message::Ack { seq: 5 }
        );
    }

    #[test]
    fn partition_severs_both_directions_permanently() {
        let plan = NetFaultPlan::new();
        plan.arm("shard0", NetFault::Partition, 0);
        let n = net(plan);
        n.send(0, 1, &Message::Ack { seq: 1 }); // trips the partition
        n.send(0, 1, &Message::Ack { seq: 2 });
        n.send(1, 0, &Message::Ack { seq: 3 });
        n.send(0, 2, &Message::Ack { seq: 4 }); // other shard unaffected
        assert!(n.try_recv(1).is_none());
        assert!(n.try_recv(0).is_none());
        assert_eq!(n.recv_timeout(2, TICK).unwrap().1, Message::Ack { seq: 4 });
        assert!(n.is_severed(1));
    }

    #[test]
    fn crash_kills_the_node() {
        let plan = NetFaultPlan::new();
        plan.arm("shard1", NetFault::Crash, 0);
        let n = net(plan);
        n.send(0, 2, &Message::Ack { seq: 1 }); // trips the crash
        assert!(n.is_crashed(2));
        assert!(n.recv_timeout(2, TICK).is_none(), "a crashed node receives nothing");
        n.send(2, 0, &Message::Ack { seq: 2 });
        assert!(n.try_recv(0).is_none(), "a crashed node sends nothing");
    }

    #[test]
    fn shutdown_reaches_partitioned_nodes() {
        let plan = NetFaultPlan::new();
        plan.arm("shard0", NetFault::Partition, 0);
        let n = net(plan);
        n.send(0, 1, &Message::Ack { seq: 1 });
        assert!(n.is_severed(1));
        n.shutdown_all();
        assert!(n.is_shutdown(), "shutdown is out-of-band, partitions cannot block it");
    }
}
