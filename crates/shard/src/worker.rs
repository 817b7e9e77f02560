//! The shard worker: one node owning one shard of the dataset (a full
//! [`ReposeService`] over its subset), driven by a single-threaded
//! message loop.
//!
//! # Query path
//!
//! A [`Message::Query`] executes via [`ReposeService::query_scatter`]:
//! one best-first frontier over all of the shard's partitions, under one
//! collector seeded with the query's `seed_dk`. The worker answers the
//! attempt with one reply, a [`Message::Hits`] frame carrying the shard's
//! whole local top-k (empty when nothing qualifies). Nothing else is sent
//! for a query: the reply arriving is what completes the attempt at the
//! coordinator. A search runs to completion before the worker reads its
//! inbox again; it then catches up on liveness (see
//! [`WorkerConfig::heartbeat_timeout`]).
//!
//! # Replication and promotion
//!
//! A leader logs every write to its own WAL first
//! ([`ReposeService::insert_acked`]), then sends its unacknowledged log
//! suffix — the very records the service returned, never a rebuilt copy —
//! to its follower and waits for the follower's [`Message::Ack`]
//! **before** acknowledging the client (log-before-ack; an unconfirmed
//! replication refuses the write instead). The suffix-resend discipline
//! plus the follower's idempotent, gap-refusing
//! [`ReposeService::apply_replica`] make replication immune to dropped,
//! duplicated, and reordered `Replicate` frames. Followers serve reads
//! always, and promote to (followerless) leader when heartbeats go
//! silent past the timeout — after which they accept writes too.
//!
//! A write refused for `ReplicationUnavailable` was *not* acknowledged
//! but may still be applied (the leader logged it before replicating) —
//! at-least-once semantics with idempotent upserts; the loss contract is
//! one-directional: **acknowledged ⇒ survives**.
//!
//! # Event-driven core
//!
//! All of the worker's behaviour lives in [`ShardWorker::on_message`] and
//! [`ShardWorker::on_tick`]; [`ShardWorker::run`] is a thin loop that
//! feeds them from the transport. Every timer reads the injected
//! [`Clock`], so a deterministic simulator can drive the *same* worker
//! code on virtual time by calling the handlers directly — no threads,
//! no wall clock, and the exact tick a heartbeat or promotion fires on
//! replays from a seed.

use crate::protocol::{Message, RefusalReason};
use crate::transport::{NodeId, Transport};
use repose_cluster::{Backoff, BackoffConfig, Clock, SystemClock};
use repose_durability::WalRecord;
use repose_model::Trajectory;
use repose_service::{ReposeService, ServiceError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Idle poll granularity of [`ShardWorker::run`]'s message loop.
const TICK: Duration = Duration::from_millis(2);
/// Replication resends before a leader refuses the write.
const REPLICATION_RETRIES: u32 = 3;

/// What a node is to its shard's replication pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; replicates to `follower` before acknowledging
    /// (`None` = unreplicated deployment, acks after the local log).
    Leader {
        /// The replication target, if any.
        follower: Option<NodeId>,
    },
    /// Serves reads, applies replicated records, and promotes itself when
    /// `leader`'s heartbeats go silent.
    Follower {
        /// The node whose heartbeats this follower watches.
        leader: NodeId,
    },
}

/// Timing and retry knobs of a [`ShardWorker`].
#[derive(Debug, Clone, Copy)]
pub struct WorkerConfig {
    /// How often a leader heartbeats its follower.
    pub heartbeat_every: Duration,
    /// Silence past this promotes a follower. A worker heartbeats and
    /// reads its inbox only between frames, never inside a shard query,
    /// so a leader's heartbeat gap is at most `heartbeat_every` plus one
    /// shard query; set this above that sum, or a long query promotes a
    /// follower whose leader is alive.
    pub heartbeat_timeout: Duration,
    /// How long a leader waits for one replication `Ack`.
    pub ack_timeout: Duration,
    /// Backoff shape between replication resends.
    pub backoff: BackoffConfig,
    /// Seed for this node's deterministic jitter.
    pub seed: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_every: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(150),
            ack_timeout: Duration::from_millis(200),
            backoff: BackoffConfig {
                base: Duration::from_millis(5),
                cap: Duration::from_millis(100),
            },
            seed: 0x5AAD,
        }
    }
}

/// One shard node's state and message loop (see module docs).
pub struct ShardWorker {
    node: NodeId,
    coord: NodeId,
    role: Role,
    service: Arc<ReposeService>,
    transport: Arc<dyn Transport>,
    clock: Arc<dyn Clock>,
    cfg: WorkerConfig,
    /// Frames that arrived inside a nested handler (read right after a
    /// query, or while waiting for a replication ack), replayed before
    /// the next receive.
    pending: VecDeque<(NodeId, Message)>,
    /// The unacknowledged log suffix a leader resends to its follower.
    unreplicated: Vec<WalRecord>,
    /// When the last heartbeat went out (`None` = one is due now).
    last_hb_sent: Option<Duration>,
    /// When the watched leader was last heard from.
    last_hb_seen: Duration,
}

impl ShardWorker {
    /// Assembles a worker on the monotonic clock; call
    /// [`ShardWorker::run`] on its own thread.
    pub fn new(
        node: NodeId,
        coord: NodeId,
        role: Role,
        service: Arc<ReposeService>,
        transport: Arc<dyn Transport>,
        cfg: WorkerConfig,
    ) -> Self {
        ShardWorker::with_clock(node, coord, role, service, transport, cfg, Arc::new(SystemClock))
    }

    /// Assembles a worker reading time from `clock` — the injectable form
    /// a simulator uses to drive the handlers on virtual time.
    #[allow(clippy::too_many_arguments)]
    pub fn with_clock(
        node: NodeId,
        coord: NodeId,
        role: Role,
        service: Arc<ReposeService>,
        transport: Arc<dyn Transport>,
        cfg: WorkerConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let last_hb_seen = clock.now();
        ShardWorker {
            node,
            coord,
            role,
            service,
            transport,
            clock,
            cfg,
            pending: VecDeque::new(),
            unreplicated: Vec::new(),
            last_hb_sent: None,
            last_hb_seen,
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's current replication role (changes on promotion).
    pub fn role(&self) -> Role {
        self.role
    }

    /// The shard's local service (the simulator's oracle reads through
    /// this).
    pub fn service(&self) -> &Arc<ReposeService> {
        &self.service
    }

    /// The message loop: runs until shutdown, a crash fault, or a
    /// [`Message::Shutdown`].
    pub fn run(mut self) {
        loop {
            if self.transport.is_shutdown() || self.transport.is_crashed(self.node) {
                return;
            }
            self.on_tick();
            let next = self
                .pending
                .pop_front()
                .or_else(|| self.transport.recv_timeout(self.node, TICK));
            let Some((from, msg)) = next else { continue };
            if !self.on_message(from, msg) {
                return;
            }
        }
    }

    /// Timer edge: heartbeats a follower when one is due, and promotes a
    /// follower whose leader has gone silent past the timeout. Drivers
    /// call this once per tick of their loop (real or virtual).
    pub fn on_tick(&mut self) {
        self.heartbeat_if_due();
        if let Role::Follower { .. } = self.role {
            let now = self.clock.now();
            if now.saturating_sub(self.last_hb_seen) > self.cfg.heartbeat_timeout {
                // The leader went silent: take over. No follower of our
                // own — replication pairs are not chains.
                self.role = Role::Leader { follower: None };
            }
        }
    }

    /// Handles one frame. Returns `false` when the worker should stop
    /// (a [`Message::Shutdown`]).
    pub fn on_message(&mut self, from: NodeId, msg: Message) -> bool {
        match msg {
            Message::Shutdown => return false,
            Message::Heartbeat { .. } => self.last_hb_seen = self.clock.now(),
            Message::Query { qid, attempt, k, measure, seed_dk, points } => {
                debug_assert_eq!(
                    measure,
                    self.service.config().measure(),
                    "coordinator and shard disagree on the deployment measure"
                );
                self.handle_query(qid, attempt, k as usize, seed_dk, &points);
            }
            Message::Replicate { records } => {
                self.last_hb_seen = self.clock.now();
                self.handle_replicate(from, &records);
            }
            Message::Upsert { wid, id, points } => {
                self.handle_write(wid, |s| s.insert_acked(Trajectory::new(id, points)))
            }
            Message::Delete { wid, id } => self.handle_write(wid, |s| s.remove_acked(id)),
            // A late ack from a timed-out replication round still
            // confirms the follower's progress.
            Message::Ack { seq } => self.unreplicated.retain(|r| r.seq() > seq),
            // Addressed to coordinators; nothing for a worker.
            Message::Hit { .. }
            | Message::Hits { .. }
            | Message::WriteOk { .. }
            | Message::WriteRefused { .. } => {}
        }
        true
    }

    /// Replays frames stashed by a nested handler through
    /// [`ShardWorker::on_message`]. Returns `false` on shutdown. Drivers
    /// that bypass [`ShardWorker::run`] call this after each delivery so
    /// stashed frames don't sit until the next one.
    pub fn drain_pending(&mut self) -> bool {
        while let Some((from, msg)) = self.pending.pop_front() {
            if !self.on_message(from, msg) {
                return false;
            }
        }
        true
    }

    /// Sends a liveness heartbeat when one is due (leaders with followers
    /// only).
    fn heartbeat_if_due(&mut self) {
        if let Role::Leader { follower: Some(f) } = self.role {
            let now = self.clock.now();
            if self.last_hb_sent.is_none_or(|t| now.saturating_sub(t) >= self.cfg.heartbeat_every) {
                let hb = Message::Heartbeat { seq: self.service.op_seq() };
                self.transport.send(self.node, f, &hb);
                self.last_hb_sent = Some(now);
            }
        }
    }

    /// Answers one query attempt with one [`Message::Hits`] frame, then
    /// catches up on liveness: the search held the inbox, so heartbeats
    /// that arrived during it are taken now, before the next tick could
    /// read their delay as leader silence.
    fn handle_query(
        &mut self,
        qid: u64,
        attempt: u32,
        k: usize,
        seed_dk: f64,
        points: &[repose_model::Point],
    ) {
        // A query the service refuses sends nothing; the coordinator's
        // deadline treats the silence like any other lost shard.
        if let Ok(outcome) = self.service.query_scatter(points, k, seed_dk) {
            let hits = outcome.hits.iter().map(|h| (h.id, h.dist)).collect();
            self.transport.send(self.node, self.coord, &Message::Hits { qid, attempt, hits });
        }
        while let Some((from, m)) = self.transport.try_recv(self.node) {
            match m {
                Message::Heartbeat { .. } => self.last_hb_seen = self.clock.now(),
                other => {
                    // A replication round is leader traffic too; the
                    // replay comes after the next tick.
                    if matches!(other, Message::Replicate { .. }) {
                        self.last_hb_seen = self.clock.now();
                    }
                    self.pending.push_back((from, other));
                }
            }
        }
        self.heartbeat_if_due();
    }

    fn handle_replicate(&self, from: NodeId, records: &[WalRecord]) {
        for r in records {
            // Duplicates are skipped inside; a gap (or a dead WAL) stops
            // the batch — the ack below tells the leader how far we got,
            // and the suffix-resend covers the rest.
            if self.service.apply_replica(r).is_err() {
                break;
            }
        }
        let ack = Message::Ack { seq: self.service.op_seq() };
        self.transport.send(self.node, from, &ack);
    }

    /// The one write handler: a leader runs `write` against its service,
    /// replicates the record the service logged (if paired), then
    /// acknowledges; anything else refuses with the reason.
    fn handle_write(
        &mut self,
        wid: u64,
        write: impl FnOnce(&ReposeService) -> Result<WalRecord, ServiceError>,
    ) {
        let logged = match self.role {
            Role::Follower { .. } => Err(RefusalReason::NotLeader),
            Role::Leader { follower } => match (write(&self.service), follower) {
                (Err(_), _) => Err(RefusalReason::Durability),
                (Ok(record), None) => Ok(record.seq()),
                (Ok(record), Some(f)) => {
                    let seq = record.seq();
                    self.unreplicated.push(record);
                    if self.replicate_until_acked(f, seq) {
                        Ok(seq)
                    } else {
                        Err(RefusalReason::ReplicationUnavailable)
                    }
                }
            },
        };
        let reply = match logged {
            Ok(seq) => Message::WriteOk { wid, seq },
            Err(reason) => Message::WriteRefused { wid, reason },
        };
        self.transport.send(self.node, self.coord, &reply);
    }

    /// Sends the unacknowledged log suffix until the follower confirms
    /// everything up to `target_seq`, with jittered-backoff resends.
    /// Returns false when the retry budget runs out (write not acked; the
    /// suffix stays queued and rides along with the next write).
    fn replicate_until_acked(&mut self, follower: NodeId, target_seq: u64) -> bool {
        let mut backoff =
            Backoff::new(self.cfg.backoff, self.cfg.seed ^ (self.node as u64) ^ target_seq);
        for attempt in 0..=REPLICATION_RETRIES {
            if self.transport.is_shutdown() || self.transport.is_crashed(self.node) {
                return false;
            }
            let batch = Message::Replicate { records: self.unreplicated.clone() };
            self.transport.send(self.node, follower, &batch);
            let deadline = self.clock.now() + self.cfg.ack_timeout;
            loop {
                // One clock sample decides both expiry and the wait span.
                let now = self.clock.now();
                if now >= deadline {
                    break;
                }
                match self.transport.recv_timeout(self.node, deadline - now) {
                    None => {}
                    Some((_, Message::Ack { seq })) => {
                        self.unreplicated.retain(|r| r.seq() > seq);
                        if seq >= target_seq {
                            return true;
                        }
                    }
                    Some(other) => self.pending.push_back(other),
                }
            }
            if attempt < REPLICATION_RETRIES {
                self.clock.sleep(backoff.next_delay());
            }
        }
        false
    }
}

impl std::fmt::Debug for ShardWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWorker")
            .field("node", &self.node)
            .field("role", &self.role)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NetFaultPlan;
    use crate::transport::Loopback;
    use repose::{Repose, ReposeConfig};
    use repose_cluster::SimClock;
    use repose_distance::Measure;

    /// A query holds the worker's inbox until it has replied. A leader
    /// heartbeat that arrived meanwhile is taken right after the reply, so
    /// the next tick does not read the search as leader silence; with no
    /// heartbeat queued, the same sequence promotes.
    #[test]
    fn a_query_does_not_hide_leader_heartbeats() {
        let (coord, leader, follower) = (0, 1, 2);
        let labels = ["coord", "shard0", "replica0"].map(String::from).to_vec();
        let net = Arc::new(Loopback::new(labels, NetFaultPlan::new()));
        let clock = Arc::new(SimClock::new());
        let rcfg = ReposeConfig::new(Measure::Hausdorff).with_partitions(2).with_delta(0.7);
        let dataset = repose_testkit::tie_dataset(0..20);
        let service = Arc::new(ReposeService::new(Repose::build(&dataset, rcfg)));
        let cfg = WorkerConfig::default();
        let mut worker = ShardWorker::with_clock(
            follower,
            coord,
            Role::Follower { leader },
            service,
            Arc::clone(&net) as Arc<dyn Transport>,
            cfg,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let query = |qid| Message::Query {
            qid,
            attempt: 0,
            k: 3,
            measure: Measure::Hausdorff,
            seed_dk: f64::INFINITY,
            points: repose_testkit::tie_queries().swap_remove(0),
        };

        net.send(leader, follower, &Message::Heartbeat { seq: 0 });
        clock.advance(cfg.heartbeat_timeout * 2);
        assert!(worker.on_message(coord, query(1)));
        worker.on_tick();
        assert_eq!(worker.role(), Role::Follower { leader });
        let reply = net.try_recv(coord);
        assert!(
            matches!(reply, Some((from, Message::Hits { qid: 1, attempt: 0, ref hits }))
                if from == follower && hits.len() == 3),
            "one reply carrying the whole top-k: {reply:?}"
        );

        clock.advance(cfg.heartbeat_timeout * 2);
        assert!(worker.on_message(coord, query(2)));
        worker.on_tick();
        assert_eq!(worker.role(), Role::Leader { follower: None });
    }
}
