//! The read path: one query engine behind [`ReposeService::query`],
//! [`ReposeService::query_batch`] and [`ReposeService::query_scatter`].
//!
//! # Execution model
//!
//! The engine's search stage (`ReposeService::search`) takes any number
//! of queries, each with its own [`SharedTopK`] collector, and runs each
//! as `G = min(pool threads, partitions)` *frontier tasks*. Frontier `g`
//! owns the partitions `pi` with `pi % G == g` — heterogeneous
//! partitioning deals every cluster round-robin across partitions, so
//! each frontier holds a representative share of the data. The delta log
//! belongs to no partition: frontier `g` takes the live delta candidates
//! at positions `g, g + G, …` of the append order, so each is scanned
//! exactly once. A task scans its share as one bound-sorted list
//! ([`scan_delta`]), then runs one best-first search over all its
//! partitions' tries at once ([`repose_rptrie::RpTrie::search`]): one
//! frontier, label paths popped in global lower-bound order, so no
//! partition is descended under a bound its siblings have already
//! beaten. Every partition is built on the deployment's one grid, and the
//! round-robin deal makes their tries repeat the same upper levels, so
//! the frontier walks its partitions' tries as one virtual trie: a path
//! they share is one entry, its bound state pushed once, and a leaf path
//! verifies every partition's members in one candidate stream. The delta
//! scan and the trie's leaves score candidates through the same step,
//! [`MeasureParams::verify`], strictly under the live bound. All of a
//! query's tasks publish into and prune with its one collector.
//!
//! The tasks of a call form one *group-major* list — every query's
//! frontier 0 before any query's frontier 1 — whose first task runs on the
//! calling thread and whose rest go to the persistent [`WorkerPool`] in
//! order. With `pool_threads <= 1` there is no pool and `G = 1`: each
//! query is one frontier over every partition, run inline (the sequential
//! reference path; results are identical either way — see [`SharedTopK`]
//! for the soundness argument). One query is the one-element case, so
//! concurrent read throughput of a batch scales with cores instead of
//! queueing behind one query at a time.
//!
//! `query` and `query_batch` wrap the stage in the cache probe, admission
//! and cache fill (`ReposeService::answer`); `query_scatter` runs it bare,
//! for one query whose collector starts at a caller's seed bound.
//!
//! [`WorkerPool`]: repose_cluster::WorkerPool

use crate::cache::CacheKey;
use crate::delta::{snapshot_len, DeltaSnapshot};
use crate::error::ServiceError;
use crate::service::ReposeService;
use crate::stats::ServiceCounters;
use repose::Repose;
use repose_distance::{
    bound_exceeds, just_above, DistScratch, Hit, Measure, MeasureParams, SharedTopK,
};
use repose_model::{Point, TrajId, TrajStore};
use repose_rptrie::{RpTrie, SearchStats};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The outcome of one served query.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Top-k hits over the live data (frozen ∪ delta − tombstones),
    /// ascending by distance with ties broken by id.
    pub hits: Vec<Hit>,
    /// Host wall time of this call (what a caller actually waited). Every
    /// searched query of one [`ReposeService::query_batch`] call reports
    /// the *call's* wall time — per-query work interleaves on the pool, so
    /// individual completion times are not meaningful.
    pub latency: Duration,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Local-search work counters (all zero on a cache hit).
    /// `search.exact_abandoned` counts verifications (delta scan + trie
    /// search) the shared threshold refuted before full kernel cost,
    /// including delta candidates skipped outright because their stored
    /// summary bound already lost.
    pub search: SearchStats,
    /// Delta-buffer candidates considered for this query.
    pub delta_candidates: usize,
    /// Single-thread duration of each search task (delta scan + trie
    /// search): one entry per frontier task (`min(pool threads,
    /// partitions)` of them, in frontier order — see the module docs).
    /// Empty on a cache hit. Their sum is the query's single-thread work,
    /// which the benchmark's `service.seq_overhead_us` and
    /// `service.pool_utilization` probes are computed from.
    pub partition_times: Vec<Duration>,
    /// Always `false`: the service answers every admitted query exactly.
    /// Only the shard coordinator degrades an answer
    /// (`repose_shard::ShardOutcome::degraded`); the field stays because
    /// callers, the benchmark's workloads among them, read it.
    pub degraded: bool,
}

impl ServiceOutcome {
    /// An answer that needed no search of its own.
    fn cached(hits: Vec<Hit>, latency: Duration) -> Self {
        ServiceOutcome {
            hits,
            latency,
            cache_hit: true,
            search: SearchStats::default(),
            delta_candidates: 0,
            partition_times: Vec::new(),
            degraded: false,
        }
    }
}

/// Everything a query reads, cloned under one brief state read lock: the
/// frozen deployment, the delta log's segments (`Arc` clones — any later
/// write starts a new segment rather than touching these), and the
/// tombstone map.
pub(crate) struct Snapshot {
    pub(crate) frozen: Arc<Repose>,
    pub(crate) delta: DeltaSnapshot,
    pub(crate) tombstones: Arc<HashMap<TrajId, u64>>,
}

/// One live delta candidate: `(summary bound, id, arena point slice)`.
type Cand<'a> = (f64, u64, &'a [Point]);

/// One completed search task (its hits went into the collector).
struct TaskResult {
    stats: SearchStats,
    delta_live: usize,
    time: Duration,
}

/// One query of a search stage: what its frontier tasks share, and where
/// they leave their results (indexed by frontier).
struct Plan<'a> {
    query: &'a [Point],
    /// One shared collector for the whole query: every frontier's delta
    /// scan and trie search publishes into it and prunes with its live
    /// global k-th-distance bound, so a close delta candidate scanned by
    /// frontier 0 tightens frontier 1's trie descent and vice versa.
    collector: SharedTopK,
    /// The live delta candidates, in append order ([`delta_candidates`]).
    cands: Vec<Cand<'a>>,
    slots: Vec<Mutex<Option<TaskResult>>>,
}

impl Plan<'_> {
    /// The query's answer: its collector's pool, with the work counters
    /// of its frontier tasks summed (given in frontier order).
    /// `latency` is left zero: the caller stamps it once the whole call's
    /// work is done.
    fn outcome(self) -> ServiceOutcome {
        let mut search = SearchStats::default();
        let mut delta_candidates = 0;
        let mut partition_times = Vec::with_capacity(self.slots.len());
        for slot in self.slots {
            let part = slot.into_inner().expect("frontier slot");
            let p = part.expect("every frontier task completed");
            search.merge(&p.stats);
            delta_candidates += p.delta_live;
            partition_times.push(p.time);
        }
        ServiceOutcome {
            hits: self.collector.hits(),
            latency: Duration::ZERO,
            cache_hit: false,
            search,
            delta_candidates,
            partition_times,
            degraded: false,
        }
    }
}

impl ReposeService {
    /// Exact top-k over the live data.
    ///
    /// The frontiers' delta scans and trie searches share one
    /// [`SharedTopK`] collector and run as one best-first frontier task
    /// per pool thread (see the module docs), so the query's wall-clock
    /// latency scales with cores while the answer stays
    /// exactly what the sequential path returns (identical distance
    /// multiset; ties may resolve per the paper's Definition 3).
    pub fn query(&self, query: &[Point], k: usize) -> Result<ServiceOutcome, ServiceError> {
        Ok(self.answer(&[query], k)?.pop().expect("one outcome per query"))
    }

    /// Answers a batch of queries (cache consulted per query) as one
    /// call of the engine behind [`ReposeService::query`]: every
    /// cache-missing query's frontier tasks are admitted at once, every
    /// query's first frontier dispatching before any query's second, with
    /// one [`SharedTopK`] collector *per query*. Results are
    /// exactly the per-query [`ReposeService::query`] answers; duplicate
    /// queries inside the batch execute once and the twins report as
    /// cache hits.
    ///
    /// A batch holds **one** admission slot for all its cache-missing
    /// queries (it is one caller); a full gate rejects the whole call
    /// with [`ServiceError::Overloaded`].
    pub fn query_batch(
        &self,
        queries: &[Vec<Point>],
        k: usize,
    ) -> Result<Vec<ServiceOutcome>, ServiceError> {
        let queries: Vec<&[Point]> = queries.iter().map(Vec::as_slice).collect();
        self.answer(&queries, k)
    }

    /// The query engine: cache probe, admission, snapshot, frontier
    /// dispatch, merge, cache fill — once per call, for any number of
    /// queries.
    fn answer(&self, queries: &[&[Point]], k: usize) -> Result<Vec<ServiceOutcome>, ServiceError> {
        for q in queries {
            check_finite(q, "query")?;
        }
        let t0 = Instant::now();
        let keys: Vec<CacheKey> =
            queries.iter().map(|q| CacheKey::new(self.measure, q, k)).collect();
        // Load the version *before* snapshotting: a write published after
        // this load has a higher sequence, so a result cached under this
        // version is walked past it before it is served again. (A write
        // landing between the load and the snapshot is already in the
        // answer; walking it again only risks a needless miss.)
        let version = self.version.load(Ordering::Acquire);

        let mut outcomes: Vec<Option<ServiceOutcome>> = queries.iter().map(|_| None).collect();
        // Unique cache-missing queries; in-call duplicates collapse onto
        // one execution (`dup_of[qi]` points at the query that computes
        // their shared answer), like a second sequential query's cache hit.
        let mut misses: Vec<(usize, CacheKey)> = Vec::new();
        let mut dup_of: Vec<Option<usize>> = vec![None; queries.len()];
        {
            let mut cache = self.lock_cache();
            let mut seen: HashMap<CacheKey, usize> = HashMap::new();
            for (qi, key) in keys.into_iter().enumerate() {
                ServiceCounters::bump(&self.counters.queries);
                if let Some(hits) = cache.get(&key, version) {
                    // Cache hits are done now; their latency is their own,
                    // not the call's.
                    ServiceCounters::bump(&self.counters.cache_hits);
                    outcomes[qi] = Some(ServiceOutcome::cached(hits, t0.elapsed()));
                } else if let Some(&twin) = seen.get(&key) {
                    ServiceCounters::bump(&self.counters.cache_hits);
                    dup_of[qi] = Some(twin);
                } else {
                    if queries.len() > 1 {
                        seen.insert(key.clone(), qi);
                    }
                    misses.push((qi, key));
                }
            }
        }

        if !misses.is_empty() {
            // Admission is checked only for calls that must search: cache
            // hits cost nothing and are always served, even under overload.
            let _permit = self.admission.try_acquire().map_err(|in_flight| {
                ServiceCounters::bump(&self.counters.queries_shed);
                ServiceError::Overloaded { in_flight, limit: self.admission.limit() }
            })?;
            self.counters.cache_misses.fetch_add(misses.len() as u64, Ordering::Relaxed);
            let snap = self.snapshot();
            let collectors = misses.iter().map(|&(qi, _)| (queries[qi], SharedTopK::new(k)));
            let searched = self.search(&snap, collectors);
            for ((qi, key), outcome) in misses.into_iter().zip(searched) {
                self.lock_cache().put(key, version, &outcome.hits);
                outcomes[qi] = Some(outcome);
            }
        }

        // In-call duplicates share their twin's hits but report as cache
        // hits (they did no search work of their own).
        let latency = t0.elapsed();
        for (qi, twin) in dup_of.into_iter().enumerate() {
            if let Some(twin) = twin {
                let hits = outcomes[twin].as_ref().expect("twin executed").hits.clone();
                outcomes[qi] = Some(ServiceOutcome::cached(hits, latency));
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|o| {
                let mut o = o.expect("every query answered");
                if !o.cache_hit {
                    o.latency = latency;
                }
                self.counters.record_read(o.latency);
                o
            })
            .collect())
    }

    /// Exact top-k over the live data from the engine's search stage
    /// alone — the entry a shard worker drives when this service owns one
    /// shard of a larger deployment.
    ///
    /// `seed_dk` pre-bounds the collector (inclusively, via `just_above`,
    /// so ties at the seed survive) when finite — typically the
    /// coordinator's current global k-th-distance bound when it retries
    /// an attempt. The answer is the shard's exact top-k among the
    /// entries at or below the seed. A NaN or negative seed bounds nothing
    /// and is refused ([`ServiceError::InvalidInput`]).
    ///
    /// Cache and admission are intentionally bypassed: the coordinator
    /// owns those policies for a distributed query. The frontier dispatch
    /// is [`ReposeService::query`]'s; shard services run `pool_threads:
    /// 1`, so there it is one best-first frontier over all of the shard's
    /// partitions.
    pub fn query_scatter(
        &self,
        query: &[Point],
        k: usize,
        seed_dk: f64,
    ) -> Result<ServiceOutcome, ServiceError> {
        check_finite(query, "query")?;
        if seed_dk.is_nan() || seed_dk < 0.0 {
            return Err(ServiceError::InvalidInput("seed"));
        }
        let t0 = Instant::now();
        ServiceCounters::bump(&self.counters.queries);
        ServiceCounters::bump(&self.counters.cache_misses);
        let collector = if seed_dk.is_finite() {
            SharedTopK::with_initial_bound(k, just_above(seed_dk))
        } else {
            SharedTopK::new(k)
        };
        let snap = self.snapshot();
        let mut outcome = self.search(&snap, [(query, collector)]).pop().expect("one query");
        outcome.latency = t0.elapsed();
        self.counters.record_read(outcome.latency);
        Ok(outcome)
    }

    /// The engine's search stage: runs every query to completion against
    /// `snap` as frontier tasks over the partitions (see the module docs),
    /// each query publishing into and pruning with its own collector.
    /// Returns one outcome per query, in order, with `latency` left zero
    /// for the caller to stamp.
    fn search<'a>(
        &self,
        snap: &'a Snapshot,
        queries: impl IntoIterator<Item = (&'a [Point], SharedTopK)>,
    ) -> Vec<ServiceOutcome> {
        let n = snap.frozen.num_partitions();
        let frontiers = self.pool_threads().min(n);
        let params = self.params;
        let plans: Vec<Plan> = queries
            .into_iter()
            .map(|(query, collector)| Plan {
                query,
                collector,
                cands: delta_candidates(snap, query, params),
                slots: (0..frontiers).map(|_| Mutex::new(None)).collect(),
            })
            .collect();

        let run = |plan: &Plan, g: usize| {
            let owned: Vec<usize> = (g..n).step_by(frontiers).collect();
            let delta = plan.cands.iter().skip(g).step_by(frontiers).copied().collect();
            let r = run_task(snap, plan.query, &plan.collector, params, delta, &owned);
            *plan.slots[g].lock().expect("frontier slot") = Some(r);
        };
        // Group-major: every query's frontier 0 dispatches before any
        // query's frontier 1, so each query starts searching as early as
        // the pool allows.
        let tasks: Vec<(&Plan, usize)> = (0..frontiers)
            .flat_map(|g| plans.iter().map(move |plan| (plan, g)))
            .collect();
        match (&self.pool, tasks.split_first()) {
            (Some(pool), Some((&(plan, g), rest))) => pool.scope(|s| {
                for &(plan, g) in rest {
                    let run = &run;
                    s.submit(move || run(plan, g));
                }
                // The first task runs right here on the caller's thread:
                // it starts without dispatch latency.
                run(plan, g);
            }),
            _ => tasks.iter().for_each(|&(plan, g)| run(plan, g)),
        }
        plans.into_iter().map(Plan::outcome).collect()
    }
}

/// One search task for one query: its share of the delta candidates as
/// one scan (cheapest stored bound first, under the live shared
/// threshold), then one trie search over the partitions `owned` — both
/// pruning with and publishing into `collector`. The tombstone filter
/// hides every frozen row whose id was upserted or deleted since the
/// freeze, so an id with a live delta version is scored once, at its new
/// distance. `delta` is the task's share of [`delta_candidates`] (bounds
/// already priced; no second pass over the delta segments).
fn run_task(
    snap: &Snapshot,
    query: &[Point],
    collector: &SharedTopK,
    params: MeasureParams,
    delta: Vec<Cand<'_>>,
    owned: &[usize],
) -> TaskResult {
    let t0 = Instant::now();
    let mut stats = SearchStats::default();
    let delta_live = delta.len();
    scan_delta(snap.frozen.config().measure(), params, query, delta, &mut stats, collector);
    // No filter at all when nothing is tombstoned (a read-only service
    // never is): the search then skips a hash lookup per verified member.
    let tombstones = &*snap.tombstones;
    let filter = |id: TrajId| !tombstones.contains_key(&id);
    let filter: Option<&(dyn Fn(TrajId) -> bool + Sync)> =
        if tombstones.is_empty() { None } else { Some(&filter) };
    let tries: Vec<(&RpTrie, &TrajStore)> = owned
        .iter()
        .map(|&pi| {
            let view = snap.frozen.partition_view(pi);
            (view.trie, view.store)
        })
        .collect();
    stats.merge(&RpTrie::search(&tries, query, filter, collector));
    TaskResult {
        stats,
        delta_live,
        time: t0.elapsed(),
    }
}

/// The live delta candidates for one query, in append order, with their
/// stored summary bounds priced — the exact input [`scan_delta`] needs.
/// No exact kernels run; the liveness filtering and O(1) summary bounds
/// are paid once per query.
fn delta_candidates<'a>(
    snap: &'a Snapshot,
    query: &[Point],
    params: MeasureParams,
) -> Vec<Cand<'a>> {
    let measure = snap.frozen.config().measure();
    let qsum = params.summary_of(query);
    let mut list = Vec::with_capacity(snapshot_len(&snap.delta));
    list.extend(snap.delta_live().map(|(seg, slot)| {
        let lb = params.summary_lower_bound(measure, &qsum, &seg.meta[slot].1);
        (lb, seg.store.id(slot), seg.store.points(slot))
    }));
    list
}

/// Refuses NaN and ±∞ coordinates at the service edge
/// ([`ServiceError::InvalidInput`]).
pub(crate) fn check_finite(points: &[Point], what: &'static str) -> Result<(), ServiceError> {
    if points.iter().all(Point::is_finite) {
        Ok(())
    } else {
        Err(ServiceError::InvalidInput(what))
    }
}

/// Scores one task's live delta candidates into the query's collector,
/// cheapest stored summary bound first, through the one verification step
/// ([`MeasureParams::verify`]).
///
/// Publishes every candidate a full exact scan would contribute to the
/// top-k while charging far less: sort keys are the insert-time summary
/// bounds precomputed by [`delta_candidates`] (O(1) per candidate, no
/// per-point walk), candidate points are contiguous arena slices of the
/// delta segments, hopeless candidates are refuted by the
/// early-abandoning kernel under the live cross-partition bound, and once
/// even the cheap lower bound cannot beat the global k-th distance the
/// (sorted) remainder is never handed to `verify`. Accepted hits tighten
/// the collector, so every trie search of the query prunes harder. Every
/// candidate counts as an attempted verification and every unscored one
/// as abandoned, so `exact_abandoned <= exact_computations` always holds.
fn scan_delta(
    measure: Measure,
    params: MeasureParams,
    query: &[Point],
    mut cands: Vec<Cand<'_>>,
    search: &mut SearchStats,
    collector: &SharedTopK,
) {
    cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let total = cands.len();
    let live = cands.into_iter().take_while(|c| !bound_exceeds(c.0, collector.bound()));
    let (scored, abandoned) =
        DistScratch::with_thread(|scratch| params.verify(measure, query, live, collector, scratch));
    search.exact_computations += total;
    search.exact_abandoned += abandoned + (total - scored);
}
