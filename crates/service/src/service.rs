//! The `ReposeService` itself: configuration, shared state layout,
//! constructors, accessors and stats (the paths through that state are
//! the modules beside this one — see the crate docs' module map).
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
//! * **Writes** take the write lock for an O(1) arena append + map insert
//!   (and, on a durable service, the WAL append — lock order state → wal).
//! * **Compaction** snapshots under the read lock, rebuilds with no lock
//!   held, then takes the write lock for a pointer swap + prefix drain:
//!   a reader snapshots entirely before or entirely after the swap, and
//!   both states answer queries identically.
//!
//! A monotone *write version* ([`AtomicU64`]) is bumped **after** every
//! completed mutation; cache entries are stamped with the version current
//! when their query *began*, so a concurrent write always invalidates
//! in-flight results before they can be served from cache.

use crate::cache::QueryCache;
use crate::delta::DeltaLog;
use crate::error::ServiceError;
use crate::query::Snapshot;
use crate::stats::{ServiceCounters, ServiceStats};
use repose::{Repose, ReposeConfig};
use repose_archive::{Archive, ScrubReport};
use repose_cluster::{default_pool_threads, AdmissionGate, Clock, SystemClock, WorkerPool};
use repose_distance::{Measure, MeasureParams};
use repose_durability::{write_snapshot, DurabilityConfig, FailPlan, Wal, WalCounters};
use repose_model::TrajId;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

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
            query_deadline: None,
            max_inflight_queries: 0,
            durability: None,
            archive: None,
            clock: Arc::new(SystemClock),
        }
    }
}

/// Everything queries snapshot and writes mutate, under one lock.
pub(crate) struct ServeState {
    pub(crate) frozen: Arc<Repose>,
    pub(crate) deltas: Vec<DeltaLog>,
    /// Each partition's [`DeltaLog::epoch`] as of the last completed
    /// compaction — the incremental-compaction dirtiness counters:
    /// `deltas[pi].epoch() > compacted_epochs[pi]` means partition `pi`'s
    /// log changed since the last compact and it must be rebuilt.
    pub(crate) compacted_epochs: Vec<u64>,
    /// id -> sequence of its latest write (insert *or* delete). An id in
    /// this map is hidden from the frozen index; the delta entry with a
    /// sequence >= the tombstone sequence (if any) is its live version.
    ///
    /// Kept behind an `Arc` so query snapshots are an O(1) pointer clone;
    /// writes copy-on-write (`Arc::make_mut`) only when a snapshot is
    /// outstanding.
    pub(crate) tombstones: Arc<HashMap<TrajId, u64>>,
    /// The sequence of the last applied write; only `apply` moves it.
    pub(crate) op_seq: u64,
}

impl ServeState {
    /// The point-in-time view a query or a compaction reads.
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            frozen: Arc::clone(&self.frozen),
            deltas: self.deltas.iter().map(DeltaLog::snapshot).collect(),
            tombstones: Arc::clone(&self.tombstones),
        }
    }
}

/// A thread-safe online serving layer over a [`Repose`] deployment.
///
/// `&self` methods are safe to call from any number of threads; see the
/// module docs for the locking discipline. Construction freezes the
/// initial dataset exactly like the offline pipeline; everything written
/// afterwards lives in delta buffers until [`ReposeService::compact`]
/// folds it into (selectively) rebuilt tries.
pub struct ReposeService {
    pub(crate) state: RwLock<ServeState>,
    /// Serializes compactions (the rebuild is expensive; overlapping
    /// compactions would waste work and interleave drains).
    pub(crate) compact_gate: Mutex<()>,
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
    pub(crate) wal: Option<Mutex<Wal>>,
    /// The durability configuration (snapshot dir + fail plan), kept for
    /// compaction checkpoints.
    pub(crate) durability: Option<DurabilityConfig>,
    /// Bounded query admission (limit 0 = unbounded).
    pub(crate) admission: AdmissionGate,
    /// Per-query clock budget (`None` = exact path, no checks).
    pub(crate) query_deadline: Option<Duration>,
    /// The time source deadline decisions read (see [`ServiceConfig::clock`]).
    pub(crate) clock: Arc<dyn Clock>,
    /// Archive-generation state (`None` = no persistent archives).
    pub(crate) archive: Option<ArchiveState>,
}

/// Where archive generations live and which one this service last
/// installed or attached (the scrub target).
pub(crate) struct ArchiveState {
    pub(crate) dir: PathBuf,
    /// The `arc.*` fail points ride on the durability fail plan when one
    /// is configured, so one [`FailPlan`] drives both layers.
    pub(crate) failpoints: FailPlan,
    /// The newest generation this service wrote or attached, re-opened
    /// through validation so [`ReposeService::scrub`] re-verifies the
    /// exact bytes a restart would map.
    pub(crate) current: Mutex<Option<Archive>>,
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
    /// (use [`ReposeService::try_with_config`] for the fallible form).
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
    pub fn try_with_config(repose: Repose, config: ServiceConfig) -> Result<Self, ServiceError> {
        let wal = match &config.durability {
            Some(dcfg) => {
                let wal = Wal::create(dcfg)?;
                write_snapshot(&dcfg.dir, 0, repose.all_trajectories(), &dcfg.failpoints)?;
                Some(Mutex::new(wal))
            }
            None => None,
        };
        let service = ReposeService::assemble(repose, &config, wal, 0);
        let frozen = Arc::clone(&service.read_state().frozen);
        service.install_archive_generation(&frozen, 0);
        Ok(service)
    }

    /// The common constructor body: state layout, pool, cache, gates.
    /// `op_seq` is 0 for a fresh service and, under
    /// [`ReposeService::recover`], the sequence the frozen deployment
    /// already reflects (replay raises it from there).
    pub(crate) fn assemble(
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
        self.counters.scrub_corruptions.fetch_add(report.corrupt.len() as u64, Ordering::Relaxed);
        Some(report)
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
        let snap = self.snapshot();
        (0..snap.deltas.len())
            .map(|pi| snap.frozen_live(pi).count() + snap.delta_live(pi).count())
            .sum()
    }

    /// Whether no live trajectories exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        self.counters.snapshot(delta_len, tombstones, cached, partitions, wal)
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
        self.read_state().snapshot()
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
