//! The read path: one query engine behind [`ReposeService::query`] and
//! [`ReposeService::query_batch`], and the hooked sequential loop of
//! [`ReposeService::query_scatter`] built from the same parts.
//!
//! # Execution model
//!
//! A query's per-partition work (delta scan + trie search,
//! [`run_partition`]) is dispatched in **bound order**: partitions sorted
//! by a cheap lower bound on their best possible hit
//! ([`repose_rptrie::RpTrie::root_bound`] min'd with the best stored delta
//! summary bound — [`partition_schedule`]), so the most promising
//! partition publishes into the query's [`SharedTopK`] collector first and
//! tightens the live pruning threshold for everyone else — a priority
//! schedule without any phase barrier.
//!
//! The engine (`ReposeService::answer`) takes any number of queries. Their
//! tasks form one *rank-major* list — every query's best-bound partition
//! before any query's second-best — whose first task runs on the calling
//! thread and whose rest go to the persistent [`WorkerPool`] in order; with
//! `pool_threads <= 1` the whole list runs inline (the sequential
//! reference path; results are identical either way — see
//! [`SharedTopK`] for the soundness argument). One query is
//! the one-element case, so concurrent read throughput of a batch scales
//! with cores instead of queueing behind one query at a time.
//!
//! [`WorkerPool`]: repose_cluster::WorkerPool

use crate::cache::CacheKey;
use crate::delta::{snapshot_len, DeltaSnapshot};
use crate::error::ServiceError;
use crate::service::ReposeService;
use crate::stats::ServiceCounters;
use repose::Repose;
use repose_distance::{just_above, DistScratch, Hit, Measure, MeasureParams, SharedTopK};
use repose_model::{Point, TrajId};
use repose_rptrie::SearchStats;
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
    /// Single-thread duration of each partition's task (delta scan + trie
    /// search), indexed by partition. Empty on a cache hit. Enables
    /// modeling the pooled schedule on hosts with any core count (the
    /// benchmark's `service.seq_overhead_us` and `service.pool_utilization`
    /// probes are computed from it).
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

    /// One query's answer: its collector's pool, with the work counters
    /// of its partition results summed (given in partition order).
    /// `latency` is left zero: the caller stamps it once the whole call's
    /// work is done.
    fn from_parts(parts: impl Iterator<Item = PartResult>, collector: &SharedTopK) -> Self {
        let mut search = SearchStats::default();
        let mut delta_candidates = 0;
        let mut partition_times = Vec::with_capacity(parts.size_hint().0);
        for p in parts {
            search.merge(&p.stats);
            delta_candidates += p.delta_live;
            partition_times.push(p.time);
        }
        ServiceOutcome {
            hits: collector.hits(),
            latency: Duration::ZERO,
            cache_hit: false,
            search,
            delta_candidates,
            partition_times,
            degraded: false,
        }
    }
}

/// Everything a query reads, cloned under one brief state read lock: the
/// frozen deployment, each partition's delta segments (`Arc` clones — any
/// later write starts a new segment rather than touching these), and the
/// tombstone map.
pub(crate) struct Snapshot {
    pub(crate) frozen: Arc<Repose>,
    pub(crate) deltas: Vec<DeltaSnapshot>,
    pub(crate) tombstones: Arc<HashMap<TrajId, u64>>,
}

/// One live delta candidate: `(summary bound, id, arena point slice)`.
type Cand<'a> = (f64, u64, &'a [Point]);

/// One partition's completed task (its hits went into the collector).
struct PartResult {
    stats: SearchStats,
    delta_live: usize,
    time: Duration,
}

/// One cache-missing query of an `answer` call: what its partition tasks
/// share, and where they leave their results (indexed by partition).
struct Plan<'a> {
    query: &'a [Point],
    /// One shared collector for the whole query: every partition's delta
    /// scan and trie search publishes into it and prunes with its live
    /// global k-th-distance bound, so a close delta candidate in
    /// partition 0 tightens partition 5's trie descent and vice versa.
    collector: SharedTopK,
    order: Vec<usize>,
    cands: Vec<Vec<Cand<'a>>>,
    slots: Vec<Mutex<Option<PartResult>>>,
}

impl ReposeService {
    /// Exact top-k over the live data.
    ///
    /// Every partition's delta scan and trie search shares one
    /// [`SharedTopK`] collector, and the per-partition tasks run on the
    /// service's worker pool in bound order (see the module docs), so the
    /// query's wall-clock latency scales with cores while the answer stays
    /// exactly what the sequential path returns (identical distance
    /// multiset; ties may resolve per the paper's Definition 3).
    pub fn query(&self, query: &[Point], k: usize) -> Result<ServiceOutcome, ServiceError> {
        Ok(self.answer(&[query], k)?.pop().expect("one outcome per query"))
    }

    /// Answers a batch of queries (cache consulted per query) as one
    /// call of the engine behind [`ReposeService::query`]: every
    /// cache-missing query's partition tasks are admitted at once,
    /// interleaved so each query's most promising partition dispatches
    /// first, with one [`SharedTopK`] collector *per query*. Results are
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

    /// The query engine: cache probe, admission, snapshot, bound-ordered
    /// dispatch, merge, cache fill — once per call, for any number of
    /// queries.
    fn answer(&self, queries: &[&[Point]], k: usize) -> Result<Vec<ServiceOutcome>, ServiceError> {
        for q in queries {
            check_finite(q, "query")?;
        }
        let t0 = Instant::now();
        let keys: Vec<CacheKey> =
            queries.iter().map(|q| CacheKey::new(self.measure, q, k)).collect();
        // Load the version *before* snapshotting: any write that completes
        // after this load bumps past it, so a result cached under this
        // version can never be served once newer data exists. (A write
        // landing between the load and the snapshot merely makes the
        // cached entry conservatively stale.)
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
            let n = snap.frozen.num_partitions();
            let params = self.params;
            let plans: Vec<Plan> = misses
                .iter()
                .map(|&(qi, _)| {
                    let (order, cands) = partition_schedule(&snap, queries[qi], params);
                    Plan {
                        query: queries[qi],
                        collector: SharedTopK::new(k),
                        order,
                        cands,
                        slots: (0..n).map(|_| Mutex::new(None)).collect(),
                    }
                })
                .collect();

            let snap = &snap;
            let run = |plan: &Plan, rank: usize| {
                let pi = plan.order[rank];
                let r =
                    run_partition(snap, plan.query, &plan.collector, params, &plan.cands[pi], pi);
                *plan.slots[pi].lock().expect("partition slot") = Some(r);
            };
            // Rank-major interleaving: every query's best-bound partition
            // dispatches before any query's second-best, so each collector
            // tightens as early as possible.
            let tasks: Vec<(&Plan, usize)> = (0..n)
                .flat_map(|rank| plans.iter().map(move |plan| (plan, rank)))
                .collect();
            match (&self.pool, tasks.split_first()) {
                (Some(pool), Some((&(plan, rank), rest))) => pool.scope(|s| {
                    for &(plan, rank) in rest {
                        let run = &run;
                        s.submit(move || run(plan, rank));
                    }
                    // The most promising partition runs right here on the
                    // caller's thread: it starts without dispatch latency
                    // and its published hits tighten everyone downstream.
                    run(plan, rank);
                }),
                _ => tasks.iter().for_each(|&(plan, rank)| run(plan, rank)),
            }

            for ((qi, key), plan) in misses.into_iter().zip(plans) {
                let parts = plan.slots.into_iter().map(|slot| {
                    let part = slot.into_inner().expect("partition slot");
                    part.expect("every partition task completed")
                });
                let outcome = ServiceOutcome::from_parts(parts, &plan.collector);
                self.lock_cache().put(key, version, outcome.hits.clone());
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

    /// Exact top-k over the live data, executed sequentially in bound
    /// order with a hook after every partition — the scatter-side entry a
    /// shard worker drives when this service owns one shard of a larger
    /// deployment.
    ///
    /// `seed_dk` pre-bounds the collector (inclusively, via `just_above`,
    /// so ties at the seed survive) when finite — typically the
    /// coordinator's current global k-th-distance bound at scatter time.
    /// After each partition's task completes, `on_partition` receives the
    /// query's collector: the worker streams the collector entries it has
    /// not sent yet to its coordinator and folds any remotely received
    /// `Tighten` bounds into the collector ([`SharedTopK::tighten`]) so
    /// later partitions prune mid-flight.
    ///
    /// Cache, admission and the worker pool are intentionally bypassed:
    /// the coordinator owns those policies for a distributed query, and
    /// shard-level parallelism comes from the shards themselves. An entry
    /// leaves the collector's pool only for a better one, so every hit of
    /// the final answer is in the pool when its partition's hook runs: a
    /// coordinator collecting every streamed entry reconstructs the exact
    /// answer.
    pub fn query_scatter(
        &self,
        query: &[Point],
        k: usize,
        seed_dk: f64,
        mut on_partition: impl FnMut(&SharedTopK),
    ) -> Result<ServiceOutcome, ServiceError> {
        check_finite(query, "query")?;
        let t0 = Instant::now();
        ServiceCounters::bump(&self.counters.queries);
        ServiceCounters::bump(&self.counters.cache_misses);
        let snap = self.snapshot();
        let collector = if seed_dk.is_finite() {
            SharedTopK::with_initial_bound(k, just_above(seed_dk))
        } else {
            SharedTopK::new(k)
        };
        let (order, cands) = partition_schedule(&snap, query, self.params);
        let mut parts: Vec<Option<PartResult>> = order.iter().map(|_| None).collect();
        for &pi in &order {
            parts[pi] = Some(run_partition(&snap, query, &collector, self.params, &cands[pi], pi));
            on_partition(&collector);
        }
        let parts = parts.into_iter().map(|p| p.expect("the schedule is a permutation"));
        let mut outcome = ServiceOutcome::from_parts(parts, &collector);
        outcome.latency = t0.elapsed();
        self.counters.record_read(outcome.latency);
        Ok(outcome)
    }
}

/// One partition's full task for one query: delta scan (cheapest stored
/// bound first, under the live shared threshold), then the trie search —
/// both pruning with and publishing into `collector`. The tombstone filter
/// hides every frozen row whose id was upserted or deleted since the
/// freeze, so an id with a live delta version is scored once, at its new
/// distance. `cands` is the partition's precomputed live delta candidate
/// list from [`partition_schedule`] (bounds already priced; no second
/// pass over the delta segments).
fn run_partition(
    snap: &Snapshot,
    query: &[Point],
    collector: &SharedTopK,
    params: MeasureParams,
    cands: &[Cand<'_>],
    pi: usize,
) -> PartResult {
    let t0 = Instant::now();
    let view = snap.frozen.partition_view(pi);
    let mut stats = SearchStats::default();
    scan_delta(view.trie.measure(), params, query, cands, &mut stats, collector);
    // No filter at all when nothing is tombstoned (a read-only service
    // never is): the search then skips a hash lookup per verified member.
    let tombstones = &*snap.tombstones;
    let filter = |id: TrajId| !tombstones.contains_key(&id);
    let filter: Option<&(dyn Fn(TrajId) -> bool + Sync)> =
        if tombstones.is_empty() { None } else { Some(&filter) };
    stats.merge(&view.trie.search(view.store, query, filter, collector));
    PartResult {
        stats,
        delta_live: cands.len(),
        time: t0.elapsed(),
    }
}

/// The bound-ordered partition schedule for one query: partitions sorted
/// ascending by a cheap lower bound on the best hit they could possibly
/// contain — the trie's root-level `LBo` min'd with the best stored
/// summary bound among live delta entries. No exact kernels run. The most
/// promising partition dispatches first, publishes first, and its k-th
/// distance prunes every later partition; correctness never depends on
/// the order (any schedule returns the same multiset), only wasted work
/// does.
///
/// The same pass that prices each partition also materializes its live
/// delta candidate list — the exact input [`scan_delta`] needs — so the
/// liveness filtering and O(1) summary bounds are paid once per query,
/// not once for scheduling and again per scan.
fn partition_schedule<'a>(
    snap: &'a Snapshot,
    query: &[Point],
    params: MeasureParams,
) -> (Vec<usize>, Vec<Vec<Cand<'a>>>) {
    let measure = snap.frozen.config().measure();
    let n = snap.frozen.num_partitions();
    debug_assert_eq!(snap.deltas.len(), n);
    let qsum = params.summary_of(query);
    let mut cands: Vec<Vec<Cand>> = Vec::with_capacity(n);
    let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(n);
    for (pi, segs) in snap.deltas.iter().enumerate() {
        let mut key = snap.frozen.partition_view(pi).trie.root_bound(query);
        let mut list: Vec<Cand> = Vec::with_capacity(snapshot_len(segs));
        for seg in segs {
            for slot in 0..seg.store.len() {
                if seg.is_live(slot, &snap.tombstones) {
                    let lb = params.summary_lower_bound(measure, &qsum, &seg.meta[slot].1);
                    key = key.min(lb);
                    list.push((lb, seg.store.id(slot), seg.store.points(slot)));
                }
            }
        }
        cands.push(list);
        keyed.push((key, pi));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    (keyed.into_iter().map(|(_, pi)| pi).collect(), cands)
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

/// Scores one partition's live delta candidates into the query's
/// collector, cheapest stored summary bound first
/// ([`repose_distance::MeasureParams::refine_by_bound`]).
///
/// Publishes every candidate a full exact scan would contribute to the
/// top-k (ties included) while charging far less: sort keys are the
/// insert-time summary bounds precomputed by [`partition_schedule`] (O(1) per
/// candidate, no per-point walk), candidate points are contiguous arena
/// slices of the delta segments, hopeless candidates are refuted by the
/// early-abandoning kernel under the live cross-partition bound, and once
/// even the cheap lower bound cannot beat the global k-th distance the
/// (sorted) remainder is skipped outright. Accepted hits tighten the
/// collector, so later partitions' scans and trie searches prune harder.
/// Every candidate counts as an attempted verification, so
/// `exact_abandoned <= exact_computations` always holds.
fn scan_delta(
    measure: Measure,
    params: MeasureParams,
    query: &[Point],
    cands: &[Cand<'_>],
    search: &mut SearchStats,
    collector: &SharedTopK,
) {
    use repose_distance::RefineEvent;

    let on_event = |e| match e {
        RefineEvent::Scored { abandoned } => {
            search.exact_computations += 1;
            search.exact_abandoned += usize::from(abandoned);
        }
        RefineEvent::SkippedRest(n) => {
            search.exact_computations += n;
            search.exact_abandoned += n;
        }
    };
    DistScratch::with_thread(|scratch| {
        params.refine_by_bound(measure, query, collector, cands.to_vec(), on_event, scratch)
    });
}
