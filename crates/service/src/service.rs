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
//!   `Arc<Repose>`, the tombstone map, and the delta log's segments
//!   (`Arc` clones), then release it and search. Many queries
//!   snapshot and search in parallel.
//! * **Writes** take the write lock for an O(1) arena append + map insert
//!   (and, on a durable service, the WAL append — lock order state → wal).
//! * **Compaction** snapshots under the read lock, rebuilds with no lock
//!   held, then takes the write lock for a pointer swap + prefix drain:
//!   a reader snapshots entirely before or entirely after the swap, and
//!   both states answer queries identically.
//!
//! The *write version* ([`AtomicU64`]) is the sequence of the last write
//! published to readers. A write notes itself in the result cache and then
//! publishes its sequence, both under the state write lock (lock order
//! state → cache; nothing takes the state lock holding the cache's), so a
//! reader that loads version `v` finds every write up to `v` in the
//! cache's ring. A cache entry is stamped with the version loaded when its
//! query *began*, so a write landing mid-search is walked, never skipped,
//! before the entry is served. Compaction changes no answer and publishes
//! nothing.

use crate::cache::QueryCache;
use crate::compact::install_generation;
use crate::delta::DeltaLog;
use crate::error::ServiceError;
use crate::query::Snapshot;
use crate::stats::{ServiceCounters, ServiceStats};
use repose::{Repose, ReposeConfig};
use repose_archive::{list_generations, Archive, ScrubReport};
use repose_cluster::{default_pool_threads, AdmissionGate, WorkerPool};
use repose_distance::{Measure, MeasureParams};
use repose_durability::{DurabilityConfig, FailPlan, Wal, WalCounters, WalError};
use repose_model::TrajId;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Tuning knobs for [`ReposeService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Worker threads of the query execution pool. Defaults to the host's
    /// available parallelism ([`repose_cluster::default_pool_threads`]);
    /// `<= 1` disables the pool and runs each query inline on the calling
    /// thread as one best-first frontier over every partition (the
    /// sequential reference path). A pool of `n` threads splits each
    /// query into `min(n, partitions)` frontiers.
    pub pool_threads: usize,
    /// Maximum concurrently executing (cache-missing) queries before the
    /// admission gate sheds load with [`ServiceError::Overloaded`].
    /// 0 (the default) means unbounded. Cache hits are always served.
    pub max_inflight_queries: usize,
    /// Write-ahead logging configuration. `None` (the default) runs the
    /// service volatile; `Some` makes every acknowledged insert/delete
    /// durable per the configured [`repose_durability::FsyncPolicy`] and
    /// enables [`ReposeService::recover`].
    ///
    /// A durable service checkpoints by installing a checksummed
    /// zero-copy archive generation (`gen-*.arc`; see [`repose_archive`])
    /// of its frozen deployment: generation 0 at construction, then one
    /// per compaction, after which the log is truncated to the oldest of
    /// the two generations kept. That generation is the log's only base:
    /// recovery attaches one (mmap + checksum) and replays the log past
    /// its operation sequence.
    pub durability: Option<DurabilityConfig>,
    /// Directory of a durable service's archive generations. `None` (the
    /// default) keeps them in the durability directory beside the log.
    /// Read only when [`ServiceConfig::durability`] is `Some`. A
    /// generation that fails validation at recovery is quarantined loudly
    /// and its predecessor attaches instead, with a longer replay; with
    /// none usable, recovery fails with
    /// [`ServiceError::NoUsableGeneration`].
    pub archive: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            pool_threads: default_pool_threads(),
            max_inflight_queries: 0,
            durability: None,
            archive: None,
        }
    }
}

/// Everything queries snapshot and writes mutate, under one lock.
pub(crate) struct ServeState {
    pub(crate) frozen: Arc<Repose>,
    /// Every write since the last compaction, in append order; only
    /// compaction places a row in a partition.
    pub(crate) delta: DeltaLog,
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
            delta: self.delta.snapshot(),
            tombstones: Arc::clone(&self.tombstones),
        }
    }
}

/// A thread-safe online serving layer over a [`Repose`] deployment.
///
/// `&self` methods are safe to call from any number of threads; see the
/// module docs for the locking discipline. Construction freezes the
/// initial dataset exactly like the offline pipeline; everything written
/// afterwards lives in the delta log until [`ReposeService::compact`]
/// folds it into rebuilt tries.
pub struct ReposeService {
    pub(crate) state: RwLock<ServeState>,
    /// Serializes compactions (the rebuild is expensive; overlapping
    /// compactions would waste work and interleave drains).
    pub(crate) compact_gate: Mutex<()>,
    cache: Mutex<QueryCache>,
    /// Whether the cache is on; a write to a service without one takes no
    /// cache lock.
    pub(crate) caching: bool,
    /// The persistent query-execution pool (`None` when
    /// [`ServiceConfig::pool_threads`] <= 1: the sequential path).
    pub(crate) pool: Option<WorkerPool>,
    /// The sequence of the last write published to readers; stamps cache
    /// entries (see the module docs).
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
    /// Bounded query admission (limit 0 = unbounded).
    pub(crate) admission: AdmissionGate,
    /// The log's base generations (`Some` exactly when `wal` is).
    pub(crate) archive: Option<ArchiveState>,
}

/// Where a durable service's archive generations live and which one it
/// last installed or attached (the scrub target).
pub(crate) struct ArchiveState {
    pub(crate) dir: PathBuf,
    /// The durability fail plan: one [`FailPlan`] drives the `wal.*` and
    /// the `arc.*` points.
    pub(crate) failpoints: FailPlan,
    /// The newest generation this service installed or attached, opened
    /// through validation so [`ReposeService::scrub`] re-verifies the
    /// exact bytes a restart would map.
    pub(crate) current: Mutex<Archive>,
}

impl ServiceConfig {
    /// A durable service's generation directory, with its durability
    /// configuration (`None` = volatile).
    pub(crate) fn generation_dir(&self) -> Option<(PathBuf, &DurabilityConfig)> {
        let dcfg = self.durability.as_ref()?;
        Some((self.archive.clone().unwrap_or_else(|| dcfg.dir.clone()), dcfg))
    }
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
    /// or the first archive generation (use
    /// [`ReposeService::try_with_config`] for the fallible form).
    pub fn with_config(repose: Repose, config: ServiceConfig) -> Self {
        ReposeService::try_with_config(repose, config).expect("service construction")
    }

    /// Wraps a built deployment; fails with a typed error if the
    /// write-ahead log or the first archive generation cannot be created.
    /// A directory that already holds a journal or generations is refused
    /// with [`WalError::DirNotEmpty`] — recover instead of re-creating.
    ///
    /// With durability enabled this installs archive generation 0 of the
    /// frozen dataset, the log's base, so the directories are
    /// self-contained for [`ReposeService::recover`] from the first
    /// acknowledged write onward.
    pub fn try_with_config(repose: Repose, config: ServiceConfig) -> Result<Self, ServiceError> {
        let durable = match config.generation_dir() {
            Some((dir, dcfg)) => {
                if !list_generations(&dir).is_empty() {
                    return Err(WalError::DirNotEmpty { dir }.into());
                }
                let wal = Wal::create(dcfg)?;
                let archive = install_generation(&dir, &repose, 0, &dcfg.failpoints)?;
                Some((wal, archive))
            }
            None => None,
        };
        let generations = u64::from(durable.is_some());
        let service = ReposeService::assemble(repose, &config, durable, 0);
        service.counters.archive_generations.store(generations, Ordering::Relaxed);
        Ok(service)
    }

    /// The common constructor body: state layout, pool, cache, gates.
    /// `durable` is the log and the generation it is based on, `Some`
    /// exactly when `config` is durable. `op_seq` is 0 for a fresh service
    /// and, under [`ReposeService::recover`], the sequence the frozen
    /// deployment already reflects (replay raises it from there).
    pub(crate) fn assemble(
        repose: Repose,
        config: &ServiceConfig,
        durable: Option<(Wal, Archive)>,
        op_seq: u64,
    ) -> Self {
        let (wal, archive) = match (durable, config.generation_dir()) {
            (Some((wal, current)), Some((dir, dcfg))) => {
                let failpoints = dcfg.failpoints.clone();
                let current = Mutex::new(current);
                (Some(Mutex::new(wal)), Some(ArchiveState { dir, failpoints, current }))
            }
            _ => (None, None),
        };
        let measure = repose.config().measure();
        let params = repose.config().trie.params;
        ReposeService {
            measure,
            params,
            state: RwLock::new(ServeState {
                frozen: Arc::new(repose),
                delta: DeltaLog::default(),
                tombstones: Arc::new(HashMap::new()),
                op_seq,
            }),
            compact_gate: Mutex::new(()),
            cache: Mutex::new(QueryCache::new(config.cache_capacity, params)),
            caching: config.cache_capacity > 0,
            pool: (config.pool_threads > 1).then(|| WorkerPool::new(config.pool_threads)),
            version: AtomicU64::new(op_seq),
            counters: ServiceCounters::default(),
            wal,
            admission: AdmissionGate::new(config.max_inflight_queries),
            archive,
        }
    }

    /// Re-verifies every checksum of the current archive generation
    /// against its mapped bytes — the online corruption scrub. Returns
    /// `None` for a volatile service, which has no archive. Corrupt
    /// regions are counted in
    /// [`ServiceStats::scrub_corruptions`] and named in the report; a
    /// dirty generation is left in place for recovery to quarantine (the
    /// report is the operator's signal to compact, which installs a fresh
    /// generation).
    pub fn scrub(&self) -> Option<ScrubReport> {
        let arc = self.archive.as_ref()?;
        let report = arc.current.lock().unwrap_or_else(|e| e.into_inner()).scrub();
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
        let partitions = 0..snap.frozen.num_partitions();
        partitions.map(|pi| snap.frozen_live(pi).count()).sum::<usize>() + snap.delta_live().count()
    }

    /// Whether no live trajectories exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of the service's counters.
    pub fn stats(&self) -> ServiceStats {
        let s = self.read_state();
        let delta_len = s.delta.len();
        let tombstones = s.tombstones.len();
        let partitions = s.frozen.num_partitions();
        drop(s);
        let cached = {
            let cache = self.lock_cache();
            (cache.len(), cache.revalidated(), cache.stale())
        };
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
            .field("delta_len", &s.delta.len())
            .field("tombstones", &s.tombstones.len())
            .field("pool_threads", &self.pool_threads())
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish()
    }
}
