//! The shard worker: one node owning one shard of the dataset (a full
//! [`ReposeService`] over its subset), driven by a single-threaded
//! message loop.
//!
//! # Query path
//!
//! A [`Message::Query`] executes via
//! [`ReposeService::query_scatter`]: partitions run sequentially in bound
//! order under one collector, the worker streams the collector entries it
//! has not sent yet as one frame ([`Message::Hits`]; nothing new sends
//! nothing) the moment each partition completes, and between partitions
//! the worker drains its
//! inbox for [`Message::Tighten`] broadcasts, folding the coordinator's
//! global bound into the running collector so a hit found on *another
//! shard* prunes this one mid-flight — the wire-level generalization of
//! the in-process `SharedTopK` design. The closing [`Message::Done`]
//! carries the count of hits streamed, which lets the coordinator detect
//! in-flight losses and reordering.
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
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

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
    /// Silence past this promotes a follower.
    pub heartbeat_timeout: Duration,
    /// How long a leader waits for one replication `Ack`.
    pub ack_timeout: Duration,
    /// Replication resends before refusing the write.
    pub replication_retries: u32,
    /// Backoff shape between replication resends.
    pub backoff: BackoffConfig,
    /// Idle poll granularity of the message loop.
    pub tick: Duration,
    /// Seed for this node's deterministic jitter.
    pub seed: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_every: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(150),
            ack_timeout: Duration::from_millis(200),
            replication_retries: 3,
            backoff: BackoffConfig {
                base: Duration::from_millis(5),
                cap: Duration::from_millis(100),
                factor: 2.0,
                jitter: 0.5,
            },
            tick: Duration::from_millis(2),
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
    /// Frames that arrived inside a nested handler (mid-query, or while
    /// waiting for a replication ack), replayed before the next receive.
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
                .or_else(|| self.transport.recv_timeout(self.node, self.cfg.tick));
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
        Self::heartbeat_if_due(
            self.role,
            self.node,
            self.cfg.heartbeat_every,
            &*self.transport,
            &self.service,
            &*self.clock,
            &mut self.last_hb_sent,
        );
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
            // A tighten with no query running raced a finished (or
            // retried) attempt; the bound is stale by construction.
            Message::Tighten { .. } => {}
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
            | Message::Done { .. }
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
    /// only). Free-standing over explicit fields so the mid-query closure
    /// in [`ShardWorker::handle_query`] can call it while holding
    /// disjoint borrows of the worker.
    fn heartbeat_if_due(
        role: Role,
        node: NodeId,
        every: Duration,
        transport: &dyn Transport,
        service: &ReposeService,
        clock: &dyn Clock,
        last_hb_sent: &mut Option<Duration>,
    ) {
        if let Role::Leader { follower: Some(f) } = role {
            let now = clock.now();
            if last_hb_sent.is_none_or(|t| now.saturating_sub(t) >= every) {
                let hb = Message::Heartbeat { seq: service.op_seq() };
                transport.send(node, f, &hb);
                *last_hb_sent = Some(now);
            }
        }
    }

    fn handle_query(
        &mut self,
        qid: u64,
        attempt: u32,
        k: usize,
        seed_dk: f64,
        points: &[repose_model::Point],
    ) {
        // Destructure so the scatter closure can hold &mut to the stash
        // and heartbeat state while the service and transport stay
        // shared.
        let ShardWorker {
            node,
            coord,
            role,
            service,
            transport,
            clock,
            cfg,
            pending,
            last_hb_sent,
            last_hb_seen,
            ..
        } = self;
        let (node, coord, role) = (*node, *coord, *role);
        let transport = &**transport;
        let clock = &**clock;
        let service = Arc::clone(service);
        let mut sent: HashSet<u64> = HashSet::new();
        let outcome = service.query_scatter(points, k, seed_dk, |collector| {
            // The pool's entries not streamed yet are this partition's
            // hits that still rank in the shard's top-k.
            let hits: Vec<(u64, f64)> = collector
                .hits()
                .into_iter()
                .filter(|h| sent.insert(h.id))
                .map(|h| (h.id, h.dist))
                .collect();
            if !hits.is_empty() {
                transport.send(node, coord, &Message::Hits { qid, attempt, hits });
            }
            // Between partitions: fold in remote tightenings so the next
            // partition prunes under the freshest global bound; stash
            // anything else for the main loop.
            while let Some((from, m)) = transport.try_recv(node) {
                match m {
                    Message::Tighten { qid: q, dk } if q == qid => collector.tighten(dk),
                    Message::Tighten { .. } => {}
                    // Liveness bookkeeping cannot wait for the search to
                    // finish: a long query on a follower must not read as
                    // leader silence and trigger a spurious promotion.
                    Message::Heartbeat { .. } => *last_hb_seen = clock.now(),
                    other => {
                        if matches!(other, Message::Replicate { .. }) {
                            *last_hb_seen = clock.now();
                        }
                        pending.push_back((from, other));
                    }
                }
            }
            Self::heartbeat_if_due(
                role,
                node,
                cfg.heartbeat_every,
                transport,
                &service,
                clock,
                last_hb_sent,
            );
        });
        if outcome.is_ok() {
            let done = Message::Done { qid, attempt, hits_sent: sent.len() as u32 };
            transport.send(node, coord, &done);
        }
        // A poisoned service sends nothing; the coordinator's deadline
        // treats the silence like any other lost shard.
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
        for attempt in 0..=self.cfg.replication_retries {
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
            if attempt < self.cfg.replication_retries {
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
