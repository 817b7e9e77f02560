//! The scatter-gather coordinator: owns the client-facing query and write
//! paths of a sharded deployment.
//!
//! # Query path (scatter, one reply per attempt, gather)
//!
//! A query scatters to every shard at once. Each shard searches all of its
//! partitions as one best-first frontier and answers the attempt with one
//! frame ([`Message::Hits`]): its exact local top-k, empty or not. The
//! coordinator folds each shard's first reply into its own [`SharedTopK`],
//! whose pool is the answer, and the shard is complete when that reply
//! arrives. That is the paper's distributed query: local top-k searches on
//! the partitions, merged into the global top-k.
//!
//! Exactness needs no bound exchange mid-query: a reply is the shard's
//! exact top-k under its attempt's seed — none on a first attempt; on a
//! retry the coordinator pool's k-th distance, a sound upper bound on the
//! global k-th, kept inclusively so ties survive — so one frame carries
//! everything the shard can contribute. A lost reply leaves the shard
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
//! route by attempt number, and a shard's first reply, whichever attempt
//! sent it, is its whole answer. Every later reply for that shard — a
//! retry's, a duplicated or a held-back frame — is dropped whole, so no id
//! reaches the pool twice. A shard
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
//!
//! Every write the coordinator sends is noted in its result cache,
//! acknowledged or not: a write that timed out may still have been
//! applied, and a noted write that never happened costs at most one miss.
//! The cache serves an entry only while no noted write since its fill
//! could change it (see [`QueryCache`]).

use crate::fault::NetFaultPlan;
use crate::protocol::Message;
use crate::transport::{Loopback, NodeId, Transport};
use crate::worker::{Role, ShardWorker, WorkerConfig};
use repose::{Repose, ReposeConfig};
use repose_cluster::{Backoff, BackoffConfig, Clock, SystemClock};
use repose_distance::{Hit, MeasureParams, SharedTopK, TrajSummary};
use repose_model::{Dataset, Point, Trajectory};
use repose_service::{CacheKey, QueryCache, ReposeService, ServiceConfig};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Gather-loop poll granularity.
const TICK: Duration = Duration::from_millis(1);

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
            },
            write_timeout: Duration::from_millis(500),
            write_retries: 6,
            cache_capacity: 256,
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
    /// Always 0: the coordinator sends a shard no bound mid-query. Kept
    /// for callers that still read it.
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
    /// The deployment's measure parameters, which summarize each upsert
    /// for the cache's note.
    params: MeasureParams,
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
    /// Counts the writes sent, acknowledged or not; stamps cache entries.
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
            params: rcfg.trie.params,
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
            cache: QueryCache::new(cfg.cache_capacity, rcfg.trie.params),
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
        let global = SharedTopK::new(k);
        let mut retries = 0u32;

        // attempt number -> shard, so replies route without trusting the
        // sender's node id (a late attempt and its retry answer for the
        // same shard). Attempts are numbered 0, 1, 2, … per query, and
        // shard `s`'s first attempt is attempt `s`.
        let mut attempt_shard: Vec<usize> = (0..self.cfg.shards).collect();
        let mut progress: Vec<ShardProgress> = (0..self.cfg.shards)
            .map(|shard| {
                let target = self.leaders[shard];
                self.send_query(target, qid, shard as u32, k, f64::INFINITY, query);
                ShardProgress {
                    state: ShardState::Running,
                    target,
                    started: t0,
                    retries: 0,
                    backoff: Backoff::new(self.cfg.backoff, self.cfg.seed ^ qid ^ shard as u64),
                }
            })
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
            let mut got = self.transport.recv_timeout(0, TICK);
            let now = self.clock.now();
            while let Some((_, msg)) = got {
                match msg {
                    Message::Hits { qid: q, attempt, hits } if q == qid => {
                        // The attempt number comes off the wire: look it up.
                        if let Some(&shard) = attempt_shard.get(attempt as usize) {
                            // A shard's first reply is its whole answer; a
                            // later one (a retry's, a duplicated or a
                            // held-back frame) would publish its ids again.
                            if !matches!(progress[shard].state, ShardState::Completed) {
                                for (id, dist) in hits {
                                    global.publish(dist, id);
                                }
                                progress[shard].state = ShardState::Completed;
                            }
                        }
                    }
                    // Stale query traffic, stray write acks and lone `Hit`
                    // frames (no node sends one), anything a fault
                    // replayed: not ours, not now.
                    _ => {}
                }
                got = self.transport.try_recv(0);
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
                            let attempt = attempt_shard.len() as u32;
                            attempt_shard.push(shard);
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
        if !degraded {
            self.cache.put(cache_key, self.version, &hits);
        }
        ShardOutcome {
            hits,
            degraded,
            shards_failed,
            retries,
            hedges: 0,
            tightenings: 0,
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
        let row = self.params.summary_of(&points);
        let out = self.write(shard, |wid| Message::Upsert { wid, id, points: points.clone() });
        self.note(id, Some(row));
        out
    }

    /// Deletes a trajectory from its owning shard, same contract as
    /// [`ShardCluster::insert`].
    pub fn remove(&mut self, id: u64) -> Result<WriteOutcome, WriteFailed> {
        let shard = (id % self.cfg.shards as u64) as usize;
        let out = self.write(shard, |wid| Message::Delete { wid, id });
        self.note(id, None);
        out
    }

    /// Notes a sent write to `id` in the cache (see module docs): an
    /// upsert whose new row summarizes to `row`, or a delete.
    fn note(&mut self, id: u64, row: Option<TrajSummary>) {
        self.version += 1;
        self.cache.note(self.version, id, row);
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
