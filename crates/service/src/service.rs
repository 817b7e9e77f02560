//! The `ReposeService` itself: shared state layout and the write,
//! compaction and recovery paths.
//!
//! # Concurrency design
//!
//! All mutable state sits behind one `RwLock<ServeState>`; the expensive
//! work happens *outside* it:
//!
//! * **Queries** take the read lock just long enough to clone the frozen
//!   `Arc<Repose>`, the tombstone map, and the per-partition delta
//!   segments (`Arc` clones), then release it and search. Many queries
//!   snapshot and search in parallel.
//! * **Writes** take the write lock for an O(1) arena append + map insert.
//! * **Compaction** snapshots under the read lock, rebuilds *only the
//!   dirtied partitions* with no lock held, then takes the write lock for
//!   an O(n) pointer swap + prefix drain. Readers are never exposed to a
//!   half-compacted state: they either snapshot entirely before or
//!   entirely after the swap, and both states answer queries identically.
//!
//! The read path — the query engine behind `query`/`query_batch` and the
//! `query_scatter` loop — lives in [`crate::query`].
//!
//! A monotone *write version* ([`AtomicU64`]) is bumped **after** every
//! completed mutation; cache entries are stamped with the version current
//! when their query *began*, so a concurrent write always invalidates
//! in-flight results before they can be served from cache.

use crate::cache::QueryCache;
use crate::delta::{snapshot_len, DeltaLog, DeltaSnapshot};
use crate::error::ServiceError;
use crate::query::{check_finite, Snapshot};
use crate::stats::{ServiceCounters, ServiceStats};
use repose::{Repose, ReposeConfig};
use repose_archive::{latest_valid, prune_generations, quarantine, write_archive, Archive, ScrubReport};
use repose_cluster::{default_pool_threads, AdmissionGate, Clock, SystemClock, WorkerPool};
use repose_distance::{Measure, MeasureParams};
use repose_durability::{write_snapshot, DurabilityConfig, FailPlan, Wal, WalCounters, WalRecord};
use repose_model::{TrajId, TrajStore, Trajectory};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// How many installed archive generations a service retains: the one it
/// just wrote plus one predecessor to fall back to if the newest is later
/// found corrupt. Older generations are pruned on every install.
const ARCHIVE_GENERATIONS_KEPT: usize = 2;

/// Tuning knobs for [`ReposeService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Worker threads of the query execution pool. Defaults to the host's
    /// available parallelism ([`repose_cluster::default_pool_threads`]);
    /// `<= 1` disables the pool and runs the same bound-ordered partition
    /// schedule inline on the calling thread (the sequential reference
    /// path).
    pub pool_threads: usize,
    /// Forces a specific verification-kernel backend process-wide at
    /// service construction (`None` keeps the `REPOSE_BACKEND` /
    /// auto-detected default). All backends are bit-identical, so this is a
    /// performance/debugging knob, never a results knob.
    ///
    /// # Panics
    /// Construction panics when the host CPU cannot run the requested
    /// backend ([`repose_distance::force_backend`]'s contract): a forced
    /// backend must never silently fall back.
    pub backend: Option<repose_distance::Backend>,
    /// Wall-clock budget per query. `None` (the default) keeps the exact
    /// path bit-for-bit unchanged; `Some(budget)` makes the bound-ordered
    /// schedule stop dispatching partition tasks once the budget expires
    /// and return whatever was found, explicitly marked
    /// [`ServiceOutcome::degraded`](crate::ServiceOutcome::degraded).
    /// Degraded answers are never cached.
    pub query_deadline: Option<Duration>,
    /// Maximum concurrently executing (cache-missing) queries before the
    /// admission gate sheds load with [`ServiceError::Overloaded`].
    /// 0 (the default) means unbounded. Cache hits are always served.
    pub max_inflight_queries: usize,
    /// Write-ahead logging configuration. `None` (the default) runs the
    /// service volatile, exactly as before; `Some` makes every
    /// acknowledged insert/delete durable per the configured
    /// [`repose_durability::FsyncPolicy`] and enables
    /// [`ReposeService::recover`].
    pub durability: Option<DurabilityConfig>,
    /// Directory for persistent zero-copy archive generations
    /// (`gen-*.arc`; see [`repose_archive`]). `None` (the default) keeps
    /// every existing path byte-identical. `Some` makes construction and
    /// every compaction atomically install a checksummed archive of the
    /// frozen deployment, and makes [`ReposeService::recover`] prefer
    /// *attaching* the newest valid generation (mmap + checksum, an
    /// O(checksum) restart) over rebuilding the index from the WAL base
    /// snapshot — replaying only the WAL tail past the archived
    /// operation sequence. A generation that fails validation is
    /// quarantined loudly and recovery falls back, first to the previous
    /// generation, then to the full WAL rebuild: a corrupt archive can
    /// cost speed, never correctness.
    pub archive: Option<PathBuf>,
    /// The time source for every timer-driven decision the service makes
    /// (today: [`ServiceConfig::query_deadline`] expiry). The default
    /// [`repose_cluster::SystemClock`] is the monotonic clock — production
    /// behavior unchanged; the deterministic simulator injects a
    /// [`repose_cluster::SimClock`] so deadline skips replay bit-exact
    /// from a seed. Observability timings (latency counters) deliberately
    /// stay on the host clock — they describe the host, not the decision.
    pub clock: Arc<dyn Clock>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            pool_threads: default_pool_threads(),
            backend: None,
            query_deadline: None,
            max_inflight_queries: 0,
            durability: None,
            archive: None,
            clock: Arc::new(SystemClock),
        }
    }
}

/// Everything queries snapshot and writes mutate, under one lock.
struct ServeState {
    frozen: Arc<Repose>,
    deltas: Vec<DeltaLog>,
    /// Each partition's [`DeltaLog::epoch`] as of the last completed
    /// compaction — the incremental-compaction dirtiness counters:
    /// `deltas[pi].epoch() > compacted_epochs[pi]` means partition `pi`'s
    /// log changed since the last compact and it must be rebuilt.
    compacted_epochs: Vec<u64>,
    /// id -> sequence of its latest write (insert *or* delete). An id in
    /// this map is hidden from the frozen index; the delta entry with a
    /// sequence >= the tombstone sequence (if any) is its live version.
    ///
    /// Kept behind an `Arc` so query snapshots are an O(1) pointer clone;
    /// writes copy-on-write (`Arc::make_mut`) only when a snapshot is
    /// outstanding.
    tombstones: Arc<HashMap<TrajId, u64>>,
    op_seq: u64,
}

/// What [`ReposeService::recover`] found and rebuilt.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Trajectories restored from the base snapshot.
    pub base_trajectories: usize,
    /// Data records (upserts + deletes) replayed from the log above the
    /// snapshot.
    pub replayed_records: u64,
    /// Dangling bytes truncated from a torn final segment (0 after a
    /// clean shutdown).
    pub torn_bytes: u64,
    /// The restored global operation sequence.
    pub last_seq: u64,
    /// Whether the frozen deployment was *attached* from a persisted
    /// archive generation (mmap + checksum) instead of rebuilt from the
    /// WAL base snapshot. When `true`, only WAL records past
    /// [`RecoveryReport::archive_op_seq`] were replayed.
    pub from_archive: bool,
    /// The operation sequence of the attached archive generation
    /// (`None` when recovery fell back to the full rebuild).
    pub archive_op_seq: Option<u64>,
    /// Archive generations that failed validation and were moved into
    /// the archive directory's `.quarantine/` — loud evidence, never
    /// silently served or silently deleted.
    pub archives_quarantined: usize,
    /// Wall time of the whole recovery (replay + rebuild or attach).
    pub wall_time: Duration,
}

/// A thread-safe online serving layer over a [`Repose`] deployment.
///
/// `&self` methods are safe to call from any number of threads; see the
/// module docs for the locking discipline. Construction freezes the
/// initial dataset exactly like the offline pipeline; everything written
/// afterwards lives in delta buffers until [`ReposeService::compact`]
/// folds it into (selectively) rebuilt tries.
pub struct ReposeService {
    state: RwLock<ServeState>,
    /// Serializes compactions (the rebuild is expensive; overlapping
    /// compactions would waste work and interleave drains).
    compact_gate: Mutex<()>,
    cache: Mutex<QueryCache>,
    /// The persistent query-execution pool (`None` when
    /// [`ServiceConfig::pool_threads`] <= 1: the sequential path).
    pub(crate) pool: Option<WorkerPool>,
    /// Bumped after every completed mutation; tags cache entries.
    pub(crate) version: AtomicU64,
    /// The deployment's measure, copied out so the cache-hit fast path
    /// never touches the state lock.
    pub(crate) measure: Measure,
    /// The deployment's measure parameters, copied out so writes can
    /// summarize without touching the state lock.
    pub(crate) params: MeasureParams,
    pub(crate) counters: ServiceCounters,
    /// The write-ahead log (`None` = volatile service). Its own mutex:
    /// writers take the state lock *then* this one; compaction's
    /// checkpoint takes only this one — a consistent order, no cycle.
    wal: Option<Mutex<Wal>>,
    /// The durability configuration (snapshot dir + fail plan), kept for
    /// compaction checkpoints.
    durability: Option<DurabilityConfig>,
    /// Bounded query admission (limit 0 = unbounded).
    pub(crate) admission: AdmissionGate,
    /// Per-query clock budget (`None` = exact path, no checks).
    pub(crate) query_deadline: Option<Duration>,
    /// The time source deadline decisions read (see [`ServiceConfig::clock`]).
    pub(crate) clock: Arc<dyn Clock>,
    /// Archive-generation state (`None` = no persistent archives).
    archive: Option<ArchiveState>,
}

/// Where archive generations live and which one this service last
/// installed or attached (the scrub target).
struct ArchiveState {
    dir: PathBuf,
    /// The `arc.*` fail points ride on the durability fail plan when one
    /// is configured, so one `REPOSE_FAILPOINTS` spec drives both layers.
    failpoints: FailPlan,
    /// The newest generation this service wrote or attached, re-opened
    /// through validation so [`ReposeService::scrub`] re-verifies the
    /// exact bytes a restart would map.
    current: Mutex<Option<Archive>>,
}

impl ReposeService {
    /// Wraps a built deployment with default [`ServiceConfig`].
    pub fn new(repose: Repose) -> Self {
        ReposeService::with_config(repose, ServiceConfig::default())
    }

    /// Wraps a built deployment.
    ///
    /// # Panics
    /// On a durability-layer failure while creating the write-ahead log
    /// (use [`ReposeService::try_with_config`] for the fallible form), or
    /// when a forced backend cannot run on this host.
    pub fn with_config(repose: Repose, config: ServiceConfig) -> Self {
        ReposeService::try_with_config(repose, config).expect("service construction")
    }

    /// Wraps a built deployment; fails with a typed error if the
    /// write-ahead log cannot be created (e.g. the directory already
    /// holds a journal — recover instead of re-creating).
    ///
    /// With durability enabled this writes the initial base snapshot
    /// (`base-0.snap`) of the frozen dataset, so the durability directory
    /// is self-contained for [`ReposeService::recover`] from the first
    /// acknowledged write onward.
    pub fn try_with_config(
        repose: Repose,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        if let Some(b) = config.backend {
            repose_distance::force_backend(b);
        }
        let wal = match &config.durability {
            Some(dcfg) => {
                let wal = Wal::create(dcfg)?;
                write_snapshot(&dcfg.dir, 0, repose.all_trajectories(), &dcfg.failpoints)?;
                Some(Mutex::new(wal))
            }
            None => None,
        };
        let service = ReposeService::assemble(repose, &config, wal, 0);
        if service.archive.is_some() {
            let frozen = Arc::clone(&service.read_state().frozen);
            service.install_archive_generation(&frozen, 0);
        }
        Ok(service)
    }

    /// The common constructor body: state layout, pool, cache, gates.
    /// `op_seq` is 0 for a fresh service and the recovered sequence after
    /// [`ReposeService::recover`] (the version stamp starts just above it,
    /// so nothing ever sees a stale pre-crash cache generation).
    fn assemble(
        repose: Repose,
        config: &ServiceConfig,
        wal: Option<Mutex<Wal>>,
        op_seq: u64,
    ) -> Self {
        let partitions = repose.num_partitions();
        let measure = repose.config().measure();
        let params = repose.config().trie.params;
        ReposeService {
            measure,
            params,
            state: RwLock::new(ServeState {
                frozen: Arc::new(repose),
                deltas: (0..partitions).map(|_| DeltaLog::default()).collect(),
                compacted_epochs: vec![0; partitions],
                tombstones: Arc::new(HashMap::new()),
                op_seq,
            }),
            compact_gate: Mutex::new(()),
            cache: Mutex::new(QueryCache::new(config.cache_capacity)),
            pool: (config.pool_threads > 1).then(|| WorkerPool::new(config.pool_threads)),
            version: AtomicU64::new(op_seq),
            counters: ServiceCounters::default(),
            wal,
            durability: config.durability.clone(),
            admission: AdmissionGate::new(config.max_inflight_queries),
            query_deadline: config.query_deadline,
            clock: Arc::clone(&config.clock),
            archive: config.archive.as_ref().map(|dir| ArchiveState {
                dir: dir.clone(),
                failpoints: config
                    .durability
                    .as_ref()
                    .map_or_else(FailPlan::new, |d| d.failpoints.clone()),
                current: Mutex::new(None),
            }),
        }
    }

    /// Installs a fresh archive generation of `deployment` and re-opens it
    /// as the scrub target. Failure is *graceful by design*: the archive
    /// only accelerates restarts (the WAL stays the source of truth), so
    /// an install error is counted in
    /// [`ServiceStats::archive_write_failures`] and serving continues.
    fn install_archive_generation(&self, deployment: &Repose, op_seq: u64) {
        let Some(arc) = &self.archive else { return };
        match write_archive(&arc.dir, deployment, op_seq, &arc.failpoints) {
            Ok(path) => {
                ServiceCounters::bump(&self.counters.archive_generations);
                prune_generations(&arc.dir, ARCHIVE_GENERATIONS_KEPT);
                // Read-back verification: re-open through full validation,
                // proving end-to-end that a restart could attach these
                // exact bytes. The handle becomes the scrub target.
                match Archive::open(&path, &arc.failpoints) {
                    Ok(archive) => {
                        *arc.current.lock().unwrap_or_else(|e| e.into_inner()) = Some(archive);
                    }
                    Err(_) => {
                        ServiceCounters::bump(&self.counters.archive_write_failures);
                        let _ = quarantine(&path);
                    }
                }
            }
            Err(_) => ServiceCounters::bump(&self.counters.archive_write_failures),
        }
    }

    /// Re-verifies every checksum of the current archive generation
    /// against its mapped bytes — the online corruption scrub. Returns
    /// `None` when the service has no archive (not configured, or every
    /// install failed). Corrupt regions are counted in
    /// [`ServiceStats::scrub_corruptions`] and named in the report; a
    /// dirty generation is left in place for recovery to quarantine (the
    /// report is the operator's signal to compact, which installs a fresh
    /// generation).
    pub fn scrub(&self) -> Option<ScrubReport> {
        let arc = self.archive.as_ref()?;
        let current = arc.current.lock().unwrap_or_else(|e| e.into_inner());
        let report = current.as_ref()?.scrub();
        ServiceCounters::bump(&self.counters.scrubs);
        self.counters
            .scrub_corruptions
            .fetch_add(report.corrupt.len() as u64, Ordering::Relaxed);
        Some(report)
    }

    /// Rebuilds a service from its durability directory after a crash:
    /// loads the newest complete base snapshot, replays every logged
    /// operation above it into fresh delta segments (tolerating a torn
    /// tail — see [`repose_durability::replay()`]), restores the operation
    /// sequence, and reopens the WAL on a fresh segment.
    ///
    /// With [`ServiceConfig::archive`] configured, the O(index build)
    /// step is skipped whenever a valid archive generation can stand in
    /// for it: the newest generation whose checksums verify, whose
    /// configuration matches, and whose operation sequence the WAL can
    /// bridge is *attached* (mmap) as the frozen deployment, and only the
    /// WAL records past its sequence are replayed. Generations that fail
    /// validation are quarantined (see
    /// [`RecoveryReport::archives_quarantined`]); with none usable,
    /// recovery falls back to the full rebuild below — identical answers,
    /// just slower.
    ///
    /// `repose_config` must be the deployment configuration the original
    /// service was built with (measure, partitions, trie parameters);
    /// `config.durability` names the directory and must be `Some`.
    ///
    /// The recovered service answers queries bitwise-identically to one
    /// holding exactly the acknowledged pre-crash writes.
    pub fn recover(
        repose_config: ReposeConfig,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let t0 = Instant::now();
        let dcfg = config
            .durability
            .clone()
            .ok_or(ServiceError::DurabilityNotConfigured)?;
        let replayed = repose_durability::replay(&dcfg.dir)?;

        // Archive-first: attach the newest valid, bridgeable generation.
        let mut quarantined = 0usize;
        let mut attached: Option<(Repose, Archive)> = None;
        if let Some(adir) = &config.archive {
            loop {
                let scan = latest_valid(adir, &dcfg.failpoints);
                for (path, _err) in &scan.rejected {
                    if quarantine(path).is_ok() {
                        quarantined += 1;
                    }
                }
                let Some(archive) = scan.best else { break };
                // Usable only if the WAL can bridge from its sequence to
                // the present: records in (archive, last] must all still
                // be in the log. A generation older than the WAL base
                // snapshot is stale (checkpoints pruned its tail) — valid
                // but unusable, so it is skipped, not quarantined.
                let bridgeable = archive.op_seq() >= replayed.base_seq
                    && archive.op_seq() <= replayed.last_seq;
                if !bridgeable || archive.meta().config != repose_config {
                    break;
                }
                match archive.attach() {
                    Ok(repose) => {
                        attached = Some((repose, archive));
                        break;
                    }
                    Err(_) => {
                        // Checksums passed but reconstruction didn't —
                        // quarantine and retry with the next-newest. If
                        // even the quarantine move fails we must stop
                        // rescanning (the same file would be found again)
                        // and fall back to the full rebuild.
                        if quarantine(archive.path()).is_ok() {
                            quarantined += 1;
                        } else {
                            break;
                        }
                    }
                }
            }
        }

        let (repose, current_archive) = match attached {
            Some((repose, archive)) => (repose, Some(archive)),
            None => {
                let mut base = TrajStore::new();
                for (id, points) in &replayed.base {
                    base.push(*id, points);
                }
                (Repose::build_from_store(&base, repose_config), None)
            }
        };
        let wal = Wal::resume(
            &dcfg,
            replayed.segments,
            replayed.next_segment_index,
            replayed.last_seq,
        )?;

        let service =
            ReposeService::assemble(repose, &config, Some(Mutex::new(wal)), replayed.last_seq);
        // Everything at or below the cutover is already inside the frozen
        // deployment: the attached archive's sequence, or (full rebuild)
        // the base snapshot's — where the filter is vacuous, because
        // `replay` only returns records above the base.
        let cutover = current_archive
            .as_ref()
            .map_or(replayed.base_seq, Archive::op_seq);
        let archive_op_seq = current_archive.as_ref().map(Archive::op_seq);
        if let (Some(state), Some(archive)) = (&service.archive, current_archive) {
            *state.current.lock().unwrap_or_else(|e| e.into_inner()) = Some(archive);
        }
        let mut data_records = 0u64;
        {
            let mut s = service
                .state
                .write()
                .map_err(|_| ServiceError::StatePoisoned)?;
            let n = s.deltas.len();
            for record in &replayed.records {
                if record.seq() <= cutover {
                    continue;
                }
                match record {
                    WalRecord::Upsert { seq, id, points } => {
                        let summary = service.params.summary_of(points);
                        let partition = (*id as usize) % n;
                        Arc::make_mut(&mut s.tombstones).insert(*id, *seq);
                        s.deltas[partition].push(*seq, *id, points, summary);
                        data_records += 1;
                    }
                    WalRecord::Delete { seq, id } => {
                        Arc::make_mut(&mut s.tombstones).insert(*id, *seq);
                        data_records += 1;
                    }
                    WalRecord::Seal { .. } => {
                        // Mirror the logged segment boundary in the
                        // recovered delta logs.
                        for log in &mut s.deltas {
                            log.seal();
                        }
                    }
                    // `replay` consumes checkpoints while choosing what
                    // to skip; none reach here.
                    WalRecord::Checkpoint { .. } => {}
                }
            }
        }
        service
            .counters
            .recovered_records
            .store(data_records, Ordering::Relaxed);
        // Start the cache generation strictly above every pre-crash
        // version so no stale entry could ever match.
        service
            .version
            .store(replayed.last_seq + 1, Ordering::Release);
        let report = RecoveryReport {
            base_trajectories: replayed.base.len(),
            replayed_records: data_records,
            torn_bytes: replayed.torn_bytes,
            last_seq: replayed.last_seq,
            from_archive: archive_op_seq.is_some(),
            archive_op_seq,
            archives_quarantined: quarantined,
            wall_time: t0.elapsed(),
        };
        Ok((service, report))
    }

    /// The configuration of the underlying deployment.
    pub fn config(&self) -> ReposeConfig {
        *self.read_state().frozen.config()
    }

    /// Worker threads of the query execution pool (1 = sequential path).
    pub fn pool_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::threads)
    }

    /// The operation sequence of the last applied write (0 before any).
    /// A replica acknowledges replication with this value — it names the
    /// exact prefix of the leader's log this service has durably adopted.
    pub fn op_seq(&self) -> u64 {
        self.read_state().op_seq
    }

    /// Number of live trajectories (frozen + delta − tombstones).
    ///
    /// O(frozen + delta); intended for tests and monitoring, not hot paths.
    pub fn len(&self) -> usize {
        let s = self.read_state();
        let frozen_live = s
            .frozen
            .all_trajectories()
            .filter(|(id, _)| !s.tombstones.contains_key(id))
            .count();
        let delta_live: usize = s.deltas.iter().map(|d| d.live_len(&s.tombstones)).sum();
        frozen_live + delta_live
    }

    /// Whether no live trajectories exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `traj`, replacing any live trajectory with the same id
    /// (upsert). Visible to every query that starts after this returns.
    /// The points are copied into the partition's delta arena segment
    /// ([`Trajectory`] is only the I/O edge).
    ///
    /// With durability enabled the write is logged **before** it is
    /// applied: `Ok` means durable to the configured
    /// [`repose_durability::FsyncPolicy`]'s guarantee; on `Err` the
    /// in-memory state is unchanged and the write was not acknowledged.
    pub fn insert(&self, traj: Trajectory) -> Result<(), ServiceError> {
        self.insert_acked(traj).map(|_seq| ())
    }

    /// [`ReposeService::insert`], additionally returning the operation
    /// sequence the write was logged under — the identity a replicating
    /// leader needs to forward the exact logged record to its follower.
    pub fn insert_acked(&self, traj: Trajectory) -> Result<u64, ServiceError> {
        check_finite(&traj.points, "inserted trajectory")?;
        let t0 = Instant::now();
        // Summarize outside the lock: the same O(1)-prefilter summary the
        // frozen tries store per leaf member, paid once per write instead
        // of per query.
        let summary = self.params.summary_of(&traj.points);
        let seq = {
            let mut s = self.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            let seq = s.op_seq + 1;
            self.log_write(|| WalRecord::Upsert {
                seq,
                id: traj.id,
                points: traj.points.clone(),
            })?;
            s.op_seq = seq;
            let partition = (traj.id as usize) % s.deltas.len();
            Arc::make_mut(&mut s.tombstones).insert(traj.id, seq);
            s.deltas[partition].push(seq, traj.id, &traj.points, summary);
            seq
        };
        self.version.fetch_add(1, Ordering::Release);
        ServiceCounters::bump(&self.counters.inserts);
        self.counters.record_write(t0.elapsed());
        Ok(seq)
    }

    /// Deletes the trajectory with id `id` (a no-op if absent). Same
    /// durability contract as [`ReposeService::insert`].
    pub fn remove(&self, id: TrajId) -> Result<(), ServiceError> {
        self.remove_acked(id).map(|_seq| ())
    }

    /// [`ReposeService::remove`], additionally returning the operation
    /// sequence the delete was logged under (see
    /// [`ReposeService::insert_acked`]).
    pub fn remove_acked(&self, id: TrajId) -> Result<u64, ServiceError> {
        let t0 = Instant::now();
        let seq = {
            let mut s = self.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            let seq = s.op_seq + 1;
            self.log_write(|| WalRecord::Delete { seq, id })?;
            s.op_seq = seq;
            Arc::make_mut(&mut s.tombstones).insert(id, seq);
            seq
        };
        self.version.fetch_add(1, Ordering::Release);
        ServiceCounters::bump(&self.counters.deletes);
        self.counters.record_write(t0.elapsed());
        Ok(seq)
    }

    /// Applies one record replicated from a leader, adopting the leader's
    /// operation sequence so this replica's WAL and logical state stay
    /// byte-identical to the leader's.
    ///
    /// * a record at or below the current sequence is a duplicate delivery
    ///   (network retry or duplication): it is **not** re-logged or
    ///   re-applied, and `Ok(false)` says so — acknowledging it again is
    ///   safe, which is what makes replication idempotent;
    /// * a record more than one ahead is a gap (a lost predecessor):
    ///   refused with [`ServiceError::ReplicationGap`] so the leader
    ///   retries from the hole instead of the replica silently diverging;
    /// * the next record in sequence is logged **before** it is applied,
    ///   exactly like a local write ([`ServiceError::Durability`] means
    ///   not acknowledged).
    ///
    /// Only data records replicate; [`WalRecord::Seal`] /
    /// [`WalRecord::Checkpoint`] are segment-lifecycle records each node
    /// writes for itself and are rejected as a gap-free no-op (`Ok(false)`).
    pub fn apply_replica(&self, record: &WalRecord) -> Result<bool, ServiceError> {
        type Apply<'a> = Box<dyn FnOnce(&mut ServeState) + 'a>;
        let (seq, apply): (u64, Apply<'_>) = match record {
            WalRecord::Upsert { seq, id, points } => {
                let summary = self.params.summary_of(points);
                (*seq, Box::new(move |s: &mut ServeState| {
                    let partition = (*id as usize) % s.deltas.len();
                    Arc::make_mut(&mut s.tombstones).insert(*id, *seq);
                    s.deltas[partition].push(*seq, *id, points, summary);
                }))
            }
            WalRecord::Delete { seq, id } => (*seq, Box::new(move |s: &mut ServeState| {
                Arc::make_mut(&mut s.tombstones).insert(*id, *seq);
            })),
            WalRecord::Seal { .. } | WalRecord::Checkpoint { .. } => return Ok(false),
        };
        {
            let mut s = self.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            if seq <= s.op_seq {
                return Ok(false);
            }
            if seq != s.op_seq + 1 {
                return Err(ServiceError::ReplicationGap { expected: s.op_seq + 1, got: seq });
            }
            self.log_write(|| record.clone())?;
            s.op_seq = seq;
            apply(&mut s);
        }
        self.version.fetch_add(1, Ordering::Release);
        match record {
            WalRecord::Upsert { .. } => ServiceCounters::bump(&self.counters.inserts),
            WalRecord::Delete { .. } => ServiceCounters::bump(&self.counters.deletes),
            _ => {}
        }
        Ok(true)
    }

    /// Appends one record to the WAL (a no-op for a volatile service).
    /// Called with the state write lock held — state → wal is the global
    /// lock order. The record is built lazily so the volatile path pays
    /// nothing.
    fn log_write(&self, record: impl FnOnce() -> WalRecord) -> Result<(), ServiceError> {
        if let Some(wal) = &self.wal {
            wal.lock()
                .map_err(|_| ServiceError::StatePoisoned)?
                .append(&record())?;
        }
        Ok(())
    }

    /// Folds every buffered write into rebuilt frozen tries —
    /// **incrementally**: only partitions whose delta log changed since
    /// the last compact (per-partition epoch counters) or whose frozen
    /// data is hit by a tombstone are rebuilt; every other partition's
    /// arena and trie are shared with the previous deployment untouched
    /// (`Arc` clones via [`Repose::rebuild_partitions`]).
    ///
    /// The rebuild runs without holding the state lock — readers and
    /// writers proceed against the old state — and the new deployment is
    /// installed with a brief write-locked swap that drains exactly the
    /// compacted delta prefix. Writes that land mid-rebuild stay buffered
    /// and survive into the next compaction. Returns the number of
    /// trajectories in the rebuilt deployment.
    ///
    /// Incremental compaction keeps each rebuilt partition's existing data
    /// placement (frozen survivors + its own delta arrivals) and reuses
    /// the deployment's region grid; if a live delta point falls *outside*
    /// that region — where reference-point discretization would clamp and
    /// lose bound soundness — the compaction transparently falls back to
    /// [`ReposeService::compact_full`]'s global re-partition.
    ///
    /// With durability enabled a completed compaction also **checkpoints**
    /// the WAL: the rebuilt deployment is written as a fresh base snapshot,
    /// the log rotates to a new segment (aligned with the delta-segment
    /// seal), and every fully covered segment is pruned — so recovery time
    /// tracks the write volume since the last compaction, not service
    /// lifetime.
    pub fn compact(&self) -> Result<usize, ServiceError> {
        self.compact_inner(false)
    }

    /// [`ReposeService::compact`] forced to rebuild the *whole*
    /// deployment: the live set is re-partitioned globally (fresh region,
    /// fresh placement), like the offline build. Use it to restore
    /// partition balance after long runs of skewed writes; plain
    /// `compact` is the cheap steady-state operation.
    pub fn compact_full(&self) -> Result<usize, ServiceError> {
        self.compact_inner(true)
    }

    fn compact_inner(&self, force_full: bool) -> Result<usize, ServiceError> {
        let _gate = self
            .compact_gate
            .lock()
            .map_err(|_| ServiceError::StatePoisoned)?;

        // Phase 1: consistent snapshot.
        let (frozen, raw_deltas, prefix_lens, epochs, compacted_epochs, tomb_snapshot, seq_snapshot) = {
            let s = self.state.read().map_err(|_| ServiceError::StatePoisoned)?;
            let raw: Vec<DeltaSnapshot> = s.deltas.iter().map(DeltaLog::snapshot).collect();
            let lens: Vec<usize> = raw.iter().map(snapshot_len).collect();
            let epochs: Vec<u64> = s.deltas.iter().map(DeltaLog::epoch).collect();
            (
                Arc::clone(&s.frozen),
                raw,
                lens,
                epochs,
                s.compacted_epochs.clone(),
                Arc::clone(&s.tombstones),
                s.op_seq,
            )
        };
        let n = frozen.num_partitions();

        // Selective rebuild reuses the frozen region's grid; live points
        // outside it would discretize unsoundly — fall back to the global
        // rebuild, which recomputes the region. (Checked lazily: a forced
        // full rebuild skips the scan over every live delta point.)
        let in_region = || {
            let region = frozen.region();
            raw_deltas.iter().flatten().all(|seg| {
                (0..seg.store.len()).all(|slot| {
                    !seg.is_live(slot, &tomb_snapshot)
                        || seg.store.points(slot).iter().all(|p| region.contains(*p))
                })
            })
        };

        // Phase 2: rebuild offline from the live snapshot.
        let (new_frozen, rebuilt_parts) = if force_full || !in_region() {
            // Global re-partition: the live set is assembled as one flat
            // arena (frozen survivors copied partition-arena-to-arena, one
            // contiguous range copy per trajectory; then live delta
            // entries, segment-arena-to-arena) and dealt out afresh.
            let mut live = TrajStore::new();
            for pi in 0..n {
                let view = frozen.partition_view(pi);
                for slot in 0..view.store.len() {
                    if !tomb_snapshot.contains_key(&view.store.id(slot)) {
                        live.push_from(view.store, slot);
                    }
                }
            }
            for segs in &raw_deltas {
                for seg in segs {
                    for slot in 0..seg.store.len() {
                        if seg.is_live(slot, &tomb_snapshot) {
                            live.push_from(&seg.store, slot);
                        }
                    }
                }
            }
            (
                Arc::new(Repose::build_from_store(&live, *frozen.config())),
                n,
            )
        } else {
            // Incremental: each dirty partition's new arena is its frozen
            // survivors plus its own live delta arrivals, assembled purely
            // with arena-to-arena range copies; untouched partitions swap
            // in their existing trie + arena via `Arc`. A partition is
            // dirty when its delta epoch moved past the last compacted
            // epoch (buffered writes), or when a tombstone hides any of
            // its frozen rows.
            let dirty = (0..n).map(|pi| {
                epochs[pi] > compacted_epochs[pi] || {
                    let view = frozen.partition_view(pi);
                    (0..view.store.len())
                        .any(|slot| tomb_snapshot.contains_key(&view.store.id(slot)))
                }
            });
            let mut replacements: Vec<(usize, TrajStore)> = Vec::new();
            for (pi, is_dirty) in dirty.enumerate() {
                if !is_dirty {
                    continue;
                }
                let view = frozen.partition_view(pi);
                let mut part = TrajStore::new();
                for slot in 0..view.store.len() {
                    if !tomb_snapshot.contains_key(&view.store.id(slot)) {
                        part.push_from(view.store, slot);
                    }
                }
                for seg in &raw_deltas[pi] {
                    for slot in 0..seg.store.len() {
                        if seg.is_live(slot, &tomb_snapshot) {
                            part.push_from(&seg.store, slot);
                        }
                    }
                }
                replacements.push((pi, part));
            }
            let count = replacements.len();
            let rebuilt = if replacements.is_empty() {
                Arc::clone(&frozen)
            } else {
                Arc::new(frozen.rebuild_partitions(replacements))
            };
            (rebuilt, count)
        };
        let rebuilt_len: usize = new_frozen.partition_sizes().iter().sum();

        // Phase 3: atomic install.
        {
            let mut s = self.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            for (log, &len) in s.deltas.iter_mut().zip(&prefix_lens) {
                log.drain_prefix(len);
            }
            s.compacted_epochs.copy_from_slice(&epochs);
            // Tombstones at or before the snapshot are fully reflected in
            // the rebuilt deployment; later ones still apply.
            Arc::make_mut(&mut s.tombstones).retain(|_, seq| *seq > seq_snapshot);
            s.frozen = Arc::clone(&new_frozen);
        }
        self.version.fetch_add(1, Ordering::Release);
        ServiceCounters::bump(&self.counters.compactions);
        self.counters
            .partitions_rebuilt
            .fetch_add(rebuilt_parts as u64, Ordering::Relaxed);
        self.counters
            .last_compact_rebuilt
            .store(rebuilt_parts as u64, Ordering::Relaxed);

        // Phase 4 (durable services): checkpoint the WAL against the
        // installed deployment. The snapshot is written with *no* locks
        // held (`new_frozen` is our own `Arc`; it reflects exactly the
        // operations with seq <= seq_snapshot), then the log rotates and
        // prunes under its own lock. Writers doing state -> wal cannot
        // deadlock with this wal-only section.
        if let (Some(wal), Some(dcfg)) = (&self.wal, &self.durability) {
            let bytes = write_snapshot(
                &dcfg.dir,
                seq_snapshot,
                new_frozen.all_trajectories(),
                &dcfg.failpoints,
            )?;
            self.counters
                .snapshot_bytes
                .fetch_add(bytes, Ordering::Relaxed);
            let mut wal = wal.lock().map_err(|_| ServiceError::StatePoisoned)?;
            wal.rotate()?;
            wal.checkpoint(seq_snapshot)?;
        }

        // Phase 5 (archived services): install a fresh archive generation
        // of the deployment just swapped in, again with no locks held.
        // `new_frozen` reflects exactly the operations with
        // seq <= seq_snapshot, matching the WAL checkpoint above, so a
        // restart attaches this generation and replays only the tail.
        self.install_archive_generation(&new_frozen, seq_snapshot);
        Ok(rebuilt_len)
    }

    /// A point-in-time snapshot of the service's counters.
    pub fn stats(&self) -> ServiceStats {
        let s = self.read_state();
        let delta_len = s.deltas.iter().map(DeltaLog::len).sum();
        let tombstones = s.tombstones.len();
        let partitions = s.frozen.num_partitions();
        drop(s);
        let cached = self.lock_cache().len();
        let wal = self.wal.as_ref().map_or_else(WalCounters::default, |w| {
            w.lock().unwrap_or_else(|e| e.into_inner()).counters()
        });
        self.counters
            .snapshot(delta_len, tombstones, cached, partitions, wal)
    }

    /// Infallible observers (stats, `len`, `Debug`, queries) read through
    /// lock poisoning: a panicked writer can at worst leave one
    /// half-applied write, which these read-only paths tolerate — only
    /// *mutation* refuses a poisoned state (typed
    /// [`ServiceError::StatePoisoned`]).
    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, ServeState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The cache's internal structure is valid at every step, so reads
    /// and writes both recover from poisoning.
    pub(crate) fn lock_cache(&self) -> std::sync::MutexGuard<'_, QueryCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The point-in-time view a query searches (see [`Snapshot`]).
    pub(crate) fn snapshot(&self) -> Snapshot {
        let s = self.read_state();
        Snapshot {
            frozen: Arc::clone(&s.frozen),
            deltas: s.deltas.iter().map(DeltaLog::snapshot).collect(),
            tombstones: Arc::clone(&s.tombstones),
        }
    }
}

impl std::fmt::Debug for ReposeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.read_state();
        f.debug_struct("ReposeService")
            .field("partitions", &s.frozen.num_partitions())
            .field("delta_len", &s.deltas.iter().map(DeltaLog::len).sum::<usize>())
            .field("tombstones", &s.tombstones.len())
            .field("pool_threads", &self.pool_threads())
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish()
    }
}
