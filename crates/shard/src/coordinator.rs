//! The scatter-gather coordinator: owns the client-facing query and write
//! paths of a sharded deployment.
//!
//! # Query path (scatter, stream, tighten, gather)
//!
//! A query scatters to every shard at once; after each partition a shard
//! streams the new entries of its own collector as one frame
//! ([`Message::Hits`]) and closes with a [`Message::Done`] carrying the
//! count of hits it sent. The coordinator folds every hit of every batch
//! into its own [`SharedTopK`] — whose pool is the answer — and,
//! whenever the pool's k-th distance tightens, broadcasts the new
//! bound to the still-running shards ([`Message::Tighten`]), once per
//! gather sweep however many frames the sweep drained — a hit found on
//! shard A prunes shard B's remaining partitions mid-flight, which is
//! exactly the in-process shared-threshold design stretched over the wire.
//! Exactness survives the stretch for the same reason it holds in-process:
//! the broadcast bound is the coordinator pool's k-th distance, a sound
//! upper bound on the global k-th at all times, and the only hits a shard
//! can prune under it are ties at the k-th slot whose stand-ins the
//! coordinator pool already holds (see [`SharedTopK`]).
//!
//! A shard's answer counts as arrived only when the hits received for one
//! attempt match that attempt's `Done.hits_sent` — a `Done` that overtakes
//! its own hits (reordering) or hits lost to a drop leave the shard
//! incomplete and the retry machinery running, so faults can slow an
//! answer but never silently truncate it.
//!
//! # Deadlines, retries, degradation
//!
//! Each shard attempt has a deadline, and the deadline retry is the one
//! way a shard is re-asked: an expired attempt retries with jittered
//! exponential backoff ([`repose_cluster::Backoff`]), alternating between
//! the shard's leader and its replica (so a crashed or partitioned leader
//! fails over after one `attempt_timeout`), re-seeded with the
//! coordinator's current bound so a retry only re-earns what is still
//! missing. A late answer from an earlier attempt still counts: replies
//! route by attempt number, and the pool drops a duplicate id. A shard
//! that exhausts its retries is declared failed; the answer is returned
//! anyway, marked [`ShardOutcome::degraded`] with an accurate
//! [`ShardOutcome::shards_failed`] — and degraded answers are **never**
//! admitted to the result cache.
//!
//! Every timer — attempt age, backoff expiry, write deadline, even the
//! reported latency — reads the cluster's injected [`Clock`], sampled
//! **once per gather sweep** so one sweep sees one time. Production builds
//! run on [`SystemClock`]; a simulator passes the same topology a virtual
//! clock (via [`ShardCluster::build_nodes`]) and replays the exact retry
//! schedule from a seed.
//!
//! # Write path
//!
//! Writes route by `id % shards` to the shard's current leader and wait
//! for the [`Message::WriteOk`] that the leader only sends after its WAL
//! append *and* (when replicated) its follower's acknowledgment
//! (log-before-ack). A refused or timed-out write retries against the
//! other node of the pair; a success from the replica means the follower
//! promoted itself after leader silence, and the coordinator adopts it as
//! the shard's new leader.

use crate::fault::NetFaultPlan;
use crate::protocol::Message;
use crate::transport::{Loopback, NodeId, Transport};
use crate::worker::{Role, ShardWorker, WorkerConfig};
use repose::{Repose, ReposeConfig};
use repose_cluster::{Backoff, BackoffConfig, Clock, SystemClock};
use repose_distance::{Hit, SharedTopK};
use repose_model::{Dataset, Point, Trajectory};
use repose_service::{CacheKey, QueryCache, ReposeService, ServiceConfig};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of a [`ShardCluster`].
#[derive(Debug, Clone, Copy)]
pub struct ShardClusterConfig {
    /// Shard count; trajectories route by `id % shards`.
    pub shards: usize,
    /// Give every shard a follower replica (retry failover target, write
    /// replication target, promotion candidate).
    pub replicate: bool,
    /// Per-attempt deadline before a shard query attempt is retried.
    pub attempt_timeout: Duration,
    /// Retries per shard before it is declared failed for the query.
    pub max_retries: u32,
    /// Backoff shape between retry attempts (also seeds write retries).
    pub backoff: BackoffConfig,
    /// Per-attempt deadline for one write acknowledgment.
    pub write_timeout: Duration,
    /// Write retries before the write errors out.
    pub write_retries: u32,
    /// Coordinator result-cache capacity in entries (0 disables).
    pub cache_capacity: usize,
    /// Gather-loop poll granularity.
    pub tick: Duration,
    /// Seed for the coordinator's deterministic backoff jitter.
    pub seed: u64,
    /// Knobs forwarded to every shard worker.
    pub worker: WorkerConfig,
}

impl Default for ShardClusterConfig {
    fn default() -> Self {
        ShardClusterConfig {
            shards: 4,
            replicate: true,
            attempt_timeout: Duration::from_millis(500),
            max_retries: 2,
            backoff: BackoffConfig {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(200),
                factor: 2.0,
                jitter: 0.5,
            },
            write_timeout: Duration::from_millis(500),
            write_retries: 6,
            cache_capacity: 256,
            tick: Duration::from_millis(1),
            seed: 0xC00D,
            worker: WorkerConfig::default(),
        }
    }
}

/// The outcome of one coordinated query.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Merged top-k, ascending by distance with ties broken by id. Exact
    /// unless [`ShardOutcome::degraded`].
    pub hits: Vec<Hit>,
    /// At least one shard never completed: the hits are the exact answer
    /// over the shards that did, a best-effort partial answer overall.
    pub degraded: bool,
    /// Shards that exhausted their retries.
    pub shards_failed: u32,
    /// Retry attempts scattered (deadline-driven re-sends).
    pub retries: u32,
    /// Always 0: the coordinator re-asks a shard only by its deadline
    /// retry. Kept for callers that still read it.
    pub hedges: u32,
    /// Tighten broadcasts sent (bound-propagation traffic).
    pub tightenings: u32,
    /// Served from the coordinator cache (never true for a degraded
    /// answer — those are not cached).
    pub cache_hit: bool,
    /// Time of the whole scatter-gather on the cluster's clock (virtual
    /// under simulation).
    pub latency: Duration,
}

/// The outcome of one acknowledged write.
#[derive(Debug, Clone, Copy)]
pub struct WriteOutcome {
    /// The owning shard's log sequence for this write.
    pub seq: u64,
    /// Scatter attempts it took (1 = first try).
    pub attempts: u32,
    /// The ack came from a freshly promoted replica; the coordinator
    /// adopted it as the shard's leader.
    pub promoted: bool,
}

/// A write that no node of the owning shard acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteFailed {
    /// The shard that refused or timed out every attempt.
    pub shard: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for WriteFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "write to shard {} failed after {} attempts",
            self.shard, self.attempts
        )
    }
}

impl std::error::Error for WriteFailed {}

/// Per-shard progress of one in-flight query.
struct ShardProgress {
    state: ShardState,
    /// Target of the current attempt.
    target: NodeId,
    /// Clock time the current attempt was scattered.
    started: Duration,
    retries: u32,
    backoff: Backoff,
    /// attempt -> `Done.hits_sent`, once the Done arrived.
    expected: HashMap<u32, u32>,
    /// attempt -> distinct hit ids received for it.
    received: HashMap<u32, HashSet<u64>>,
}

enum ShardState {
    Running,
    /// Backing off; retry when the clock passes this time.
    RetryAt(Duration),
    Completed,
    Failed,
}

/// A sharded deployment: one coordinator (this object, on the caller's
/// thread), `shards` leader workers, and optionally one replica per shard,
/// all joined by a [`Transport`] — in production an in-process
/// [`Loopback`] that a [`NetFaultPlan`] can make arbitrarily hostile. See
/// module docs.
pub struct ShardCluster {
    cfg: ShardClusterConfig,
    measure: repose_distance::Measure,
    transport: Arc<dyn Transport>,
    /// Set when built over a [`Loopback`] ([`ShardCluster::build`]);
    /// `None` for a simulator-supplied transport.
    loopback: Option<Arc<Loopback>>,
    clock: Arc<dyn Clock>,
    /// Current believed leader of each shard (updated on adopt-promotion).
    leaders: Vec<NodeId>,
    /// Replica node of each shard (empty when unreplicated).
    replicas: Vec<NodeId>,
    /// Leader services, for tests and shadow checks (shared with workers).
    services: Vec<Arc<ReposeService>>,
    /// Replica services (empty when unreplicated).
    replica_services: Vec<Arc<ReposeService>>,
    handles: Vec<JoinHandle<()>>,
    qid: u64,
    wid: u64,
    /// Bumped on every acknowledged write; stamps cache entries.
    version: u64,
    cache: QueryCache,
}

impl ShardCluster {
    /// Builds the deployment: shards `dataset` by `id % shards`, builds one
    /// [`Repose`] + [`ReposeService`] per node (replicas start from the
    /// same shard subset), wires everyone over a [`Loopback`] carrying
    /// `faults`, and spawns the worker threads on the monotonic clock.
    ///
    /// `rcfg.num_partitions` counts the partitions of the whole
    /// deployment: each node builds its subset with
    /// `num_partitions.div_ceil(shards)` of them (see
    /// [`ShardCluster::build_nodes`]).
    ///
    /// `durability_root`, when given, puts every node's WAL under its own
    /// subdirectory (`shard0/`, `replica0/`, ...) so crash tests can
    /// inspect and byte-compare the logs.
    pub fn build(
        dataset: Dataset,
        rcfg: ReposeConfig,
        cfg: ShardClusterConfig,
        faults: NetFaultPlan,
        durability_root: Option<&Path>,
    ) -> Self {
        let mut labels = vec!["coord".to_string()];
        labels.extend((0..cfg.shards).map(|i| format!("shard{i}")));
        if cfg.replicate {
            labels.extend((0..cfg.shards).map(|i| format!("replica{i}")));
        }
        let loopback = Arc::new(Loopback::new(labels, faults));
        let transport = Arc::clone(&loopback) as Arc<dyn Transport>;
        let (mut cluster, workers) = ShardCluster::build_nodes(
            dataset,
            rcfg,
            cfg,
            durability_root,
            transport,
            Arc::new(SystemClock),
        );
        cluster.loopback = Some(loopback);
        for worker in workers {
            cluster.handles.push(std::thread::spawn(move || worker.run()));
        }
        cluster
    }

    /// Builds the same topology over a caller-supplied transport and
    /// clock, returning the workers **unspawned**: the caller decides how
    /// they run. [`ShardCluster::build`] puts each on its own thread; a
    /// deterministic simulator registers them as message pumps and drives
    /// [`ShardWorker::on_message`] / [`ShardWorker::on_tick`] itself on
    /// virtual time.
    ///
    /// The partitions are split, not multiplied: every node, leader and
    /// replica alike, builds `rcfg.num_partitions.div_ceil(shards)`
    /// partitions. Rounding up keeps at least one per shard and never
    /// leaves the cluster with fewer than the caller asked for.
    pub fn build_nodes(
        dataset: Dataset,
        rcfg: ReposeConfig,
        cfg: ShardClusterConfig,
        durability_root: Option<&Path>,
        transport: Arc<dyn Transport>,
        clock: Arc<dyn Clock>,
    ) -> (Self, Vec<ShardWorker>) {
        assert!(cfg.shards >= 1, "a cluster needs at least one shard");
        let shards = cfg.shards;
        let mut subsets: Vec<Vec<Trajectory>> = vec![Vec::new(); shards];
        for t in dataset.into_trajectories() {
            subsets[(t.id % shards as u64) as usize].push(t);
        }

        let node_cfg = rcfg.with_partitions(rcfg.num_partitions.div_ceil(shards));
        let service_for = |subset: &[Trajectory], label: &str| {
            let repose = Repose::build(&Dataset::from_trajectories(subset.to_vec()), node_cfg);
            let scfg = ServiceConfig {
                cache_capacity: 0,
                pool_threads: 1,
                durability: durability_root
                    .map(|root| repose_durability::DurabilityConfig::new(root.join(label))),
                ..ServiceConfig::default()
            };
            Arc::new(ReposeService::with_config(repose, scfg))
        };

        let mut services = Vec::with_capacity(shards);
        let mut replica_services = Vec::new();
        let mut leaders = Vec::with_capacity(shards);
        let mut replicas = Vec::new();
        let mut workers = Vec::new();
        for (i, subset) in subsets.iter().enumerate() {
            let leader_node = (1 + i) as NodeId;
            let replica_node = (1 + shards + i) as NodeId;
            leaders.push(leader_node);
            let svc = service_for(subset, &format!("shard{i}"));
            services.push(Arc::clone(&svc));
            let role = Role::Leader {
                follower: cfg.replicate.then_some(replica_node),
            };
            workers.push(ShardWorker::with_clock(
                leader_node,
                0,
                role,
                svc,
                Arc::clone(&transport),
                cfg.worker,
                Arc::clone(&clock),
            ));
            if cfg.replicate {
                replicas.push(replica_node);
                let rsvc = service_for(subset, &format!("replica{i}"));
                replica_services.push(Arc::clone(&rsvc));
                workers.push(ShardWorker::with_clock(
                    replica_node,
                    0,
                    Role::Follower { leader: leader_node },
                    rsvc,
                    Arc::clone(&transport),
                    cfg.worker,
                    Arc::clone(&clock),
                ));
            }
        }

        let cluster = ShardCluster {
            measure: rcfg.measure(),
            transport,
            loopback: None,
            clock,
            leaders,
            replicas,
            services,
            replica_services,
            handles: Vec::new(),
            qid: 0,
            wid: 0,
            version: 0,
            cache: QueryCache::new(cfg.cache_capacity),
            cfg,
        };
        (cluster, workers)
    }

    /// The underlying [`Loopback`] — for fault-test assertions on
    /// [`crate::NetStats`] and node liveness. Panics for a
    /// cluster built over a simulator transport
    /// ([`ShardCluster::build_nodes`]).
    pub fn transport(&self) -> &Loopback {
        self.loopback
            .as_ref()
            .expect("cluster was built over a caller-supplied transport, not a Loopback")
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// The node the coordinator currently believes leads `shard`.
    pub fn leader_of(&self, shard: usize) -> NodeId {
        self.leaders[shard]
    }

    /// The leader service of `shard` — for shadow checks in tests.
    pub fn leader_service(&self, shard: usize) -> &Arc<ReposeService> {
        &self.services[shard]
    }

    /// The replica service of `shard` (panics when unreplicated).
    pub fn replica_service(&self, shard: usize) -> &Arc<ReposeService> {
        &self.replica_services[shard]
    }

    /// Scatter-gathers the exact top-`k` for `query` (see module docs for
    /// the retry/degradation contract).
    pub fn query(&mut self, query: &[Point], k: usize) -> ShardOutcome {
        if !query.iter().all(Point::is_finite) {
            // Every worker's decoder refuses a non-finite frame, so a
            // scatter could only run each attempt and retry to
            // exhaustion. Answer at once with what that would end in.
            return ShardOutcome {
                hits: Vec::new(),
                degraded: true,
                shards_failed: self.cfg.shards as u32,
                retries: 0,
                hedges: 0,
                tightenings: 0,
                cache_hit: false,
                latency: Duration::ZERO,
            };
        }
        let t0 = self.clock.now();
        let cache_key = CacheKey::new(self.measure, query, k);
        if let Some(hits) = self.cache.get(&cache_key, self.version) {
            return ShardOutcome {
                hits,
                degraded: false,
                shards_failed: 0,
                retries: 0,
                hedges: 0,
                tightenings: 0,
                cache_hit: true,
                latency: self.clock.now().saturating_sub(t0),
            };
        }

        self.qid += 1;
        let qid = self.qid;
        let version_at_start = self.version;
        let global = SharedTopK::new(k);
        let mut next_attempt: u32 = 0;
        let (mut retries, mut tightenings) = (0u32, 0u32);
        let mut last_broadcast = f64::INFINITY;

        let mut progress: Vec<ShardProgress> = (0..self.cfg.shards)
            .map(|shard| {
                let attempt = next_attempt;
                next_attempt += 1;
                let target = self.leaders[shard];
                self.send_query(target, qid, attempt, k, f64::INFINITY, query);
                ShardProgress {
                    state: ShardState::Running,
                    target,
                    started: t0,
                    retries: 0,
                    backoff: Backoff::new(self.cfg.backoff, self.cfg.seed ^ qid ^ shard as u64),
                    expected: HashMap::new(),
                    received: HashMap::new(),
                }
            })
            .collect();
        // attempt number -> shard, so replies route without trusting the
        // sender's node id (a late attempt and its retry answer for the
        // same shard).
        let mut attempt_shard: HashMap<u32, usize> = (0..self.cfg.shards)
            .map(|shard| (shard as u32, shard))
            .collect();

        loop {
            let open = progress
                .iter()
                .any(|p| matches!(p.state, ShardState::Running | ShardState::RetryAt(_)));
            if !open {
                break;
            }

            // Drain the inbox, then take the sweep's single clock sample:
            // every timer decision below sees this one time.
            let mut got = self.transport.recv_timeout(0, self.cfg.tick);
            let now = self.clock.now();
            while let Some((_, msg)) = got {
                // A lone `Hit` is a one-element batch (no worker sends one).
                let msg = match msg {
                    Message::Hit { qid, attempt, id, dist } => {
                        Message::Hits { qid, attempt, hits: vec![(id, dist)] }
                    }
                    other => other,
                };
                match msg {
                    Message::Hits { qid: q, attempt, hits } if q == qid => {
                        if let Some(&shard) = attempt_shard.get(&attempt) {
                            let p = &mut progress[shard];
                            let received = p.received.entry(attempt).or_default();
                            for (id, dist) in hits {
                                received.insert(id);
                                // Idempotent per id: a retry's duplicate
                                // of a hit is dropped here.
                                global.publish(dist, id);
                            }
                            Self::check_complete(p, attempt);
                        }
                    }
                    Message::Done { qid: q, attempt, hits_sent } if q == qid => {
                        if let Some(&shard) = attempt_shard.get(&attempt) {
                            let p = &mut progress[shard];
                            p.expected.insert(attempt, hits_sent);
                            Self::check_complete(p, attempt);
                        }
                    }
                    // Stale query traffic, stray write acks, anything a
                    // fault replayed: not ours, not now.
                    _ => {}
                }
                got = self.transport.try_recv(0);
            }

            // Propagate a tightened global bound to the still-running
            // shards.
            let bound = global.bound();
            if bound < last_broadcast {
                last_broadcast = bound;
                for p in &progress {
                    if let ShardState::Running = p.state {
                        let msg = Message::Tighten { qid, dk: bound };
                        self.transport.send(0, p.target, &msg);
                        tightenings += 1;
                    }
                }
            }

            // Timers: attempt deadlines, backed-off retries — all judged
            // against the sweep's one `now` sample.
            for (shard, p) in progress.iter_mut().enumerate() {
                match p.state {
                    ShardState::Running => {
                        if now.saturating_sub(p.started) >= self.cfg.attempt_timeout {
                            if p.retries < self.cfg.max_retries {
                                p.retries += 1;
                                p.state = ShardState::RetryAt(now + p.backoff.next_delay());
                            } else {
                                p.state = ShardState::Failed;
                            }
                        }
                    }
                    ShardState::RetryAt(when) => {
                        if now >= when {
                            retries += 1;
                            let attempt = next_attempt;
                            next_attempt += 1;
                            attempt_shard.insert(attempt, shard);
                            // Alternate the pair on every retry; a crashed
                            // or partitioned leader's replica answers.
                            p.target = self.other_node(p.target);
                            p.started = now;
                            p.state = ShardState::Running;
                            self.send_query(p.target, qid, attempt, k, global.bound(), query);
                        }
                    }
                    ShardState::Completed | ShardState::Failed => {}
                }
            }
        }

        let shards_failed = progress
            .iter()
            .filter(|p| matches!(p.state, ShardState::Failed))
            .count() as u32;
        let degraded = shards_failed > 0;
        let hits = global.hits();
        if !degraded && self.version == version_at_start {
            self.cache.put(cache_key, self.version, hits.clone());
        }
        ShardOutcome {
            hits,
            degraded,
            shards_failed,
            retries,
            hedges: 0,
            tightenings,
            cache_hit: false,
            latency: self.clock.now().saturating_sub(t0),
        }
    }

    /// Inserts (or replaces) a trajectory on its owning shard's leader,
    /// acknowledged per the log-before-ack replication contract.
    pub fn insert(&mut self, traj: Trajectory) -> Result<WriteOutcome, WriteFailed> {
        let shard = (traj.id % self.cfg.shards as u64) as usize;
        if !traj.points.iter().all(Point::is_finite) {
            // Refused before any frame is sent (see `query`): no node
            // would decode it, let alone acknowledge it.
            return Err(WriteFailed { shard, attempts: 0 });
        }
        let (id, points) = (traj.id, traj.points);
        self.write(shard, |wid| Message::Upsert { wid, id, points: points.clone() })
    }

    /// Deletes a trajectory from its owning shard, same contract as
    /// [`ShardCluster::insert`].
    pub fn remove(&mut self, id: u64) -> Result<WriteOutcome, WriteFailed> {
        let shard = (id % self.cfg.shards as u64) as usize;
        self.write(shard, |wid| Message::Delete { wid, id })
    }

    /// Asks every node to stop and joins the worker threads. Also runs on
    /// drop; explicit call gives deterministic shutdown timing in tests.
    pub fn shutdown(&mut self) {
        self.transport.shutdown_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    fn send_query(
        &self,
        target: NodeId,
        qid: u64,
        attempt: u32,
        k: usize,
        seed_dk: f64,
        query: &[Point],
    ) {
        let msg = Message::Query {
            qid,
            attempt,
            k: k as u32,
            measure: self.measure,
            seed_dk,
            points: query.to_vec(),
        };
        self.transport.send(0, target, &msg);
    }

    /// The other node of `node`'s shard pair; `node` itself when
    /// unreplicated (retries re-ask the only node there is).
    fn other_node(&self, node: NodeId) -> NodeId {
        if self.replicas.is_empty() {
            return node;
        }
        let shards = self.cfg.shards as NodeId;
        if node <= shards {
            node + shards
        } else {
            node - shards
        }
    }

    /// Marks the shard completed when `attempt`'s received hits match its
    /// `Done`.
    fn check_complete(p: &mut ShardProgress, attempt: u32) {
        if matches!(p.state, ShardState::Completed) {
            return;
        }
        let Some(&expected) = p.expected.get(&attempt) else { return };
        let received = p.received.get(&attempt).map_or(0, HashSet::len);
        if received == expected as usize {
            p.state = ShardState::Completed;
        }
    }

    fn write(
        &mut self,
        shard: usize,
        make: impl Fn(u64) -> Message,
    ) -> Result<WriteOutcome, WriteFailed> {
        let mut target = self.leaders[shard];
        let mut backoff = Backoff::new(self.cfg.backoff, self.cfg.seed ^ 0xB11D ^ self.wid);
        let mut attempts = 0u32;
        while attempts <= self.cfg.write_retries {
            attempts += 1;
            self.wid += 1;
            let wid = self.wid;
            self.transport.send(0, target, &make(wid));
            let deadline = self.clock.now() + self.cfg.write_timeout;
            'wait: loop {
                // One clock sample decides both expiry and the wait span.
                let now = self.clock.now();
                if now >= deadline {
                    break 'wait;
                }
                match self.transport.recv_timeout(0, deadline - now) {
                    Some((_, Message::WriteOk { wid: w, seq })) if w == wid => {
                        let promoted = target != self.leaders[shard];
                        if promoted {
                            self.leaders[shard] = target;
                        }
                        self.version += 1;
                        return Ok(WriteOutcome { seq, attempts, promoted });
                    }
                    Some((_, Message::WriteRefused { wid: w, .. })) if w == wid => break 'wait,
                    // Stale query traffic or an old attempt's answer.
                    _ => {}
                }
            }
            if attempts <= self.cfg.write_retries {
                target = self.other_node(target);
                self.clock.sleep(backoff.next_delay());
            }
        }
        Err(WriteFailed { shard, attempts })
    }
}

impl Drop for ShardCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ShardCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCluster")
            .field("shards", &self.cfg.shards)
            .field("replicate", &self.cfg.replicate)
            .field("leaders", &self.leaders)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_distance::Measure;

    /// `num_partitions` is the deployment's count: every node, leader and
    /// replica alike, builds its rounded-up share of it.
    #[test]
    fn shards_split_the_deployment_partitions() {
        for (partitions, shards, each) in [(16, 2, 8), (4, 3, 2), (1, 3, 1)] {
            let cfg = ShardClusterConfig { shards, ..ShardClusterConfig::default() };
            let rcfg = ReposeConfig::new(Measure::Hausdorff)
                .with_partitions(partitions)
                .with_delta(0.7);
            let mut cluster = ShardCluster::build(
                repose_testkit::tie_dataset(0..60),
                rcfg,
                cfg,
                NetFaultPlan::new(),
                None,
            );
            let mut total = 0;
            for shard in 0..shards {
                for svc in [cluster.leader_service(shard), cluster.replica_service(shard)] {
                    assert_eq!(svc.config().num_partitions, each, "{partitions} over {shards}");
                    assert_eq!(svc.stats().partitions, each, "{partitions} over {shards}");
                }
                total += cluster.leader_service(shard).stats().partitions;
            }
            assert!(total >= partitions, "{partitions} over {shards}: only {total} built");
            cluster.shutdown();
        }
    }
}
