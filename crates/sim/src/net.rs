//! The simulated network: a [`Transport`] whose message motion and fault
//! schedule are a pure function of the calls made into it — no threads,
//! no wall clock.
//!
//! # How it replaces [`repose_shard::Loopback`]
//!
//! The production loopback gives every node a channel and a thread;
//! concurrency comes from the OS scheduler, and a `Delay` fault spawns a
//! real timer thread. Here the whole cluster runs on **one** thread: the
//! coordinator executes on the simulation's main thread, and every worker
//! is registered as a *pump* ([`SimNode`]) that the network drives
//! inline. A send delivers eagerly — the receiving pump runs its
//! handler before the send returns — so causality is a deterministic
//! depth-first traversal of the message graph, bounded by
//! [`MAX_PUMP_DEPTH`] (messages past the bound stay queued and drain on
//! the next tick).
//!
//! Time is a shared [`SimClock`]. A blocking [`Transport::recv_timeout`]
//! *advances virtual time*: it steps the clock toward its deadline one
//! quantum at a time, firing due delayed messages and running every
//! pump's [`SimNode::on_tick`] (heartbeats, promotions) at each step.
//! Delayed frames park in a map ordered by `(due, insertion sequence)` —
//! the tie-break makes simultaneous deliveries replay in one canonical
//! order.
//!
//! What happens to a frame is not decided here. Fault-site resolution,
//! the fault arms, partition and crash bookkeeping and the counters are
//! the same [`Link`] core the loopback runs, so a fault plan means under
//! simulation what it means in the threaded fault-matrix tests by
//! construction; this file only supplies inboxes, pumps and virtual time.

use repose_cluster::{Clock, SimClock};
use repose_shard::{Delivery, Envelope, Link, Message, NetFaultPlan, NetStats, NodeId, Transport};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Deepest chain of nested eager deliveries (A's handler sends to B whose
/// handler sends to C, ...) before further deliveries are parked in the
/// inbox for the next tick. A backstop against handler ping-pong
/// recursing the stack away; real schedules sit far below it.
const MAX_PUMP_DEPTH: usize = 16;

/// A simulated node the network drives inline: `on_message` handles one
/// decoded frame (returning `false` to stop — a `Shutdown`), `on_tick`
/// runs the node's timer edge after virtual time moves.
pub trait SimNode: Send {
    /// Handle one frame; `false` stops the node for good.
    fn on_message(&mut self, from: NodeId, msg: Message) -> bool;
    /// Timer edge, called after every virtual-time step.
    fn on_tick(&mut self);
}

struct NetState {
    inboxes: Vec<VecDeque<Envelope>>,
    /// Delay-faulted frames parked until their due time, keyed
    /// `(due, insertion sequence)`: ties on `due` deliver in send order.
    delayed: BTreeMap<(Duration, u64), (NodeId, Envelope)>,
    delay_seq: u64,
}

struct Inner {
    link: Link,
    clock: Arc<SimClock>,
    /// Largest virtual-time step a blocking receive takes at once.
    quantum: Duration,
    state: Mutex<NetState>,
    /// One slot per node. `None` while the node's handler is on the stack
    /// (natural re-entrancy guard: a delivery to a busy node parks in its
    /// inbox), and permanently `None` for pumpless nodes (the
    /// coordinator, which receives via [`Transport::recv_timeout`]).
    pumps: Vec<Mutex<Option<Box<dyn SimNode>>>>,
    /// Current eager-delivery nesting depth (single-threaded stack depth).
    depth: AtomicUsize,
}

/// The deterministic simulated network (see module docs). Cloning shares
/// the network.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Inner>,
}

impl SimNet {
    /// A network of `labels.len()` nodes on `clock`, with `faults` applied
    /// at the link layer. `labels[n]` names node `n` for fault sites,
    /// conventionally `coord`, `shard0`…, `replica0`….
    pub fn new(
        labels: Vec<String>,
        faults: NetFaultPlan,
        clock: Arc<SimClock>,
        quantum: Duration,
    ) -> Self {
        assert!(quantum > Duration::ZERO, "a zero quantum cannot advance time");
        let n = labels.len();
        SimNet {
            inner: Arc::new(Inner {
                link: Link::new(labels, faults),
                clock,
                quantum,
                state: Mutex::new(NetState {
                    inboxes: (0..n).map(|_| VecDeque::new()).collect(),
                    delayed: BTreeMap::new(),
                    delay_seq: 0,
                }),
                pumps: (0..n).map(|_| Mutex::new(None)).collect(),
                depth: AtomicUsize::new(0),
            }),
        }
    }

    /// Installs `node`'s message pump. Nodes without one (the
    /// coordinator) receive via [`Transport::recv_timeout`] instead.
    pub fn register_pump(&self, node: NodeId, pump: Box<dyn SimNode>) {
        let mut slot = self.lock_pump(node);
        assert!(slot.is_none(), "node {node} already has a pump");
        *slot = Some(pump);
    }

    /// The fault-site label of `node`.
    pub fn label(&self, node: NodeId) -> &str {
        self.inner.link.label(node)
    }

    /// Snapshot of the message-motion counters.
    pub fn stats(&self) -> NetStats {
        self.inner.link.stats()
    }

    /// The network's virtual clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.inner.clock
    }

    /// Runs everything that became due: fires delayed deliveries whose
    /// time has come and gives every pump a timer edge plus a drain of
    /// its parked inbox. Drivers call this after advancing the clock
    /// outside a blocking receive (e.g. an `AdvanceTime` op).
    pub fn kick(&self) {
        self.fire_due();
        self.run_ticks();
    }

    fn lock_state(&self) -> MutexGuard<'_, NetState> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_pump(&self, node: NodeId) -> MutexGuard<'_, Option<Box<dyn SimNode>>> {
        self.inner.pumps[node as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Parks `env` in `to`'s inbox unless the link refuses it by now, and
    /// runs `to`'s pump (if it has one and the delivery chain is not
    /// already too deep).
    fn deliver(&self, to: NodeId, env: Envelope) {
        if self.inner.link.admit(to, &env) {
            self.lock_state().inboxes[to as usize].push_back(env);
            self.pump(to);
        }
    }

    /// Drains `node`'s inbox through its pump, one frame per loop so
    /// frames a handler sends to *itself* are seen, re-entrantly safe
    /// (the slot holds `None` while the handler runs, so a nested
    /// delivery to the same node parks instead of recursing).
    fn pump(&self, node: NodeId) {
        if self.is_shutdown() {
            return;
        }
        if self.inner.depth.load(Ordering::Relaxed) >= MAX_PUMP_DEPTH {
            return;
        }
        self.inner.depth.fetch_add(1, Ordering::Relaxed);
        loop {
            let taken = self.lock_pump(node).take();
            let Some(mut pump) = taken else { break };
            let Some(env) = self.pop(node) else {
                *self.lock_pump(node) = Some(pump);
                break;
            };
            let keep = match env.decode() {
                Some((from, msg)) => pump.on_message(from, msg),
                None => true,
            };
            *self.lock_pump(node) = Some(pump);
            if !keep {
                // The node asked to stop (Shutdown): no more deliveries.
                self.inner.link.crash(node);
                break;
            }
        }
        self.inner.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Fires every delayed delivery whose due time has passed, in
    /// `(due, seq)` order.
    fn fire_due(&self) {
        loop {
            let next = {
                let mut st = self.lock_state();
                let now = self.inner.clock.now();
                match st.delayed.first_entry() {
                    Some(e) if e.key().0 <= now => Some(e.remove()),
                    _ => None,
                }
            };
            let Some((to, env)) = next else { break };
            self.deliver(to, env);
        }
    }

    /// The due time of the earliest parked delivery, if any.
    fn next_due(&self) -> Option<Duration> {
        self.lock_state()
            .delayed
            .first_key_value()
            .map(|(&(due, _), _)| due)
    }

    /// Gives every pump a timer edge (in node order — canonical) and a
    /// chance to drain frames parked while it was busy.
    fn run_ticks(&self) {
        if self.is_shutdown() {
            return;
        }
        for node in 0..self.inner.pumps.len() as NodeId {
            if self.is_crashed(node) {
                continue;
            }
            // A `None` slot is the coordinator, a stopped node, or a pump
            // already running lower on this same stack — skip, never wait.
            let taken = self.lock_pump(node).take();
            if let Some(mut pump) = taken {
                pump.on_tick();
                *self.lock_pump(node) = Some(pump);
                self.pump(node);
            }
        }
    }

    /// The next frame in `node`'s inbox; a dead node takes nothing out.
    fn pop(&self, node: NodeId) -> Option<Envelope> {
        if self.is_crashed(node) {
            return None;
        }
        self.lock_state().inboxes[node as usize].pop_front()
    }
}

impl Transport for SimNet {
    fn send(&self, from: NodeId, to: NodeId, msg: &Message) {
        for step in self.inner.link.route(from, to, msg) {
            match step {
                Delivery::Now(env) => self.deliver(to, env),
                // Fires from fire_due once virtual time reaches `due`.
                Delivery::After(delay, env) => {
                    let due = self.inner.clock.now() + delay;
                    let mut st = self.lock_state();
                    let seq = st.delay_seq;
                    st.delay_seq += 1;
                    st.delayed.insert((due, seq), (to, env));
                }
            }
        }
    }

    /// Blocks *virtually*: steps the clock toward the deadline (capped by
    /// the quantum and the next delayed delivery), firing due messages
    /// and running timer edges at each step, until a frame arrives for
    /// `node` or the timeout elapses.
    fn recv_timeout(&self, node: NodeId, timeout: Duration) -> Option<(NodeId, Message)> {
        let clock = &self.inner.clock;
        let deadline = clock.now() + timeout;
        loop {
            self.fire_due();
            if let Some(got) = self.try_recv(node) {
                return Some(got);
            }
            if self.is_shutdown() {
                return None;
            }
            // A crashed receiver gets no early return: a real blocking
            // receive on a dead node burns the whole timeout, and callers
            // (e.g. a replication wait) rely on `None` meaning "the
            // deadline passed". The loop below advances virtual time to
            // the deadline — with every *other* node still ticking — and
            // the receive above stays empty for the dead node.
            let now = clock.now();
            if now >= deadline {
                return None;
            }
            let mut step = (now + self.inner.quantum).min(deadline);
            if let Some(due) = self.next_due() {
                if due > now {
                    step = step.min(due);
                }
            }
            // Guarantee progress even against a pathological quantum.
            clock.advance_to(step.max(now + Duration::from_nanos(1)));
            self.run_ticks();
        }
    }

    fn try_recv(&self, node: NodeId) -> Option<(NodeId, Message)> {
        self.pop(node).and_then(Envelope::decode)
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

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SimNet").field(&self.inner.link).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_shard::NetFault;

    /// Echoes every frame back to node 0.
    struct Echo {
        net: SimNet,
        node: NodeId,
        ticks: u64,
    }

    impl SimNode for Echo {
        fn on_message(&mut self, from: NodeId, msg: Message) -> bool {
            if matches!(msg, Message::Shutdown) {
                return false;
            }
            self.net.send(self.node, from, &msg);
            true
        }
        fn on_tick(&mut self) {
            self.ticks += 1;
        }
    }

    fn two_nodes(faults: NetFaultPlan) -> (SimNet, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let net = SimNet::new(
            vec!["coord".into(), "shard0".into()],
            faults,
            Arc::clone(&clock),
            Duration::from_millis(1),
        );
        let echo = Echo { net: net.clone(), node: 1, ticks: 0 };
        net.register_pump(1, Box::new(echo));
        (net, clock)
    }

    #[test]
    fn eager_delivery_echoes_within_the_send() {
        let (net, _clock) = two_nodes(NetFaultPlan::new());
        net.send(0, 1, &Message::Heartbeat { seq: 7 });
        // The echo already happened: no time passed, the reply is queued.
        let (from, msg) = net.try_recv(0).expect("echo delivered eagerly");
        assert_eq!(from, 1);
        assert!(matches!(msg, Message::Heartbeat { seq: 7 }));
    }

    #[test]
    fn delay_fault_parks_until_virtual_time_reaches_it() {
        let plan = NetFaultPlan::new();
        plan.arm("shard0.rx", NetFault::Delay(Duration::from_millis(5)), 0);
        let (net, clock) = two_nodes(plan);
        net.send(0, 1, &Message::Heartbeat { seq: 1 });
        assert!(net.try_recv(0).is_none(), "parked, not delivered");
        let got = net.recv_timeout(0, Duration::from_millis(50));
        assert!(got.is_some(), "fired once the clock reached the due time");
        assert!(clock.now() >= Duration::from_millis(5));
        assert!(clock.now() < Duration::from_millis(10), "no overshoot past the echo");
    }

    #[test]
    fn recv_timeout_advances_exactly_to_the_deadline_when_idle() {
        let (net, clock) = two_nodes(NetFaultPlan::new());
        assert!(net.recv_timeout(0, Duration::from_millis(12)).is_none());
        assert_eq!(clock.now(), Duration::from_millis(12));
    }

    #[test]
    fn crash_fault_silences_the_node() {
        let plan = NetFaultPlan::new();
        plan.arm("shard0", NetFault::Crash, 0);
        let (net, _clock) = two_nodes(plan);
        net.send(0, 1, &Message::Heartbeat { seq: 1 }); // fires the crash
        assert!(net.is_crashed(1));
        net.send(0, 1, &Message::Heartbeat { seq: 2 });
        assert!(net.recv_timeout(0, Duration::from_millis(5)).is_none());
    }

    #[test]
    fn identical_call_sequences_produce_identical_stats() {
        let run = || {
            let plan = NetFaultPlan::new();
            plan.arm("shard0.rx", NetFault::Duplicate, 1);
            let (net, _clock) = two_nodes(plan);
            for seq in 0..5 {
                net.send(0, 1, &Message::Heartbeat { seq });
            }
            let mut echoes = 0;
            while net.try_recv(0).is_some() {
                echoes += 1;
            }
            (net.stats(), echoes)
        };
        assert_eq!(run(), run());
    }

    /// The same plan and the same scripted sends through the threaded
    /// loopback and through the simulated network: every inbox sees the
    /// same frames in the same order and the counters agree. Both run
    /// the one link core, so this pins what the transports add around it
    /// (delivery order of a routed batch, the at-delivery check, delay).
    #[test]
    fn loopback_and_simnet_agree_on_a_scripted_fault_schedule() {
        use repose_shard::Loopback;
        const NODES: NodeId = 4;
        let labels = || -> Vec<String> {
            ["coord", "shard0", "shard1", "replica0"].map(String::from).to_vec()
        };
        let plan = || {
            let plan = NetFaultPlan::new();
            plan.arm("coord.tx", NetFault::Duplicate, 1);
            plan.arm("shard0.rx", NetFault::Reorder, 2);
            plan.arm("shard1.tx", NetFault::Drop, 0);
            plan.arm("shard1", NetFault::Partition, 2);
            plan.arm("shard0", NetFault::Crash, 5);
            plan.arm("replica0.rx", NetFault::Delay(Duration::from_millis(3)), 2);
            plan
        };
        // (from, to) per send; the payload is the send's position. The
        // delayed frame is the script's last send, so nothing that could
        // race its wall-clock timer on the loopback comes after it.
        let script: [(NodeId, NodeId); 16] = [
            (0, 1), (0, 1), (2, 0), (0, 2), (1, 0), (0, 1), (3, 0), (0, 3),
            (2, 0), (0, 1), (1, 3), (0, 2), (0, 1), (1, 0), (2, 0), (0, 3),
        ];
        let play = |net: &dyn Transport| {
            for (seq, &(from, to)) in script.iter().enumerate() {
                net.send(from, to, &Message::Heartbeat { seq: seq as u64 });
            }
        };

        let sim = SimNet::new(
            labels(),
            plan(),
            Arc::new(SimClock::new()),
            Duration::from_millis(1),
        );
        play(&sim);
        let want: Vec<Vec<(NodeId, Message)>> = (0..NODES)
            .map(|n| {
                std::iter::from_fn(|| sim.recv_timeout(n, Duration::from_millis(20))).collect()
            })
            .collect();

        let threaded = Loopback::new(labels(), plan());
        play(&threaded);
        for (node, want) in want.iter().enumerate() {
            let node = node as NodeId;
            let got: Vec<_> = want
                .iter()
                .map_while(|_| threaded.recv_timeout(node, Duration::from_secs(10)))
                .collect();
            assert_eq!(&got, want, "inbox of {}", threaded.label(node));
            assert!(threaded.try_recv(node).is_none(), "extra frame for {}", threaded.label(node));
        }
        assert_eq!(threaded.net_stats(), sim.stats());

        // The schedule really exercised every arm, on both.
        let st = sim.stats();
        assert_eq!(
            st,
            NetStats {
                sent: 16,
                delivered: 13,
                dropped: 4,
                duplicated: 1,
                delayed: 1,
                reordered: 1
            }
        );
        assert!(want[3].last().is_some_and(|(_, m)| *m == Message::Heartbeat { seq: 15 }));
        assert!(sim.is_crashed(1) && threaded.is_crashed(1) && threaded.is_severed(2));
    }
}
