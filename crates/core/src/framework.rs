use crate::{partition::partition_slots, ReposeConfig};
use repose_cluster::{Cluster, JobStats};
use repose_distance::SharedTopK;
use repose_model::{Dataset, Mbr, Point, TrajId, TrajStore};
use repose_rptrie::{Hit, RpTrie, SearchStats};
use repose_zorder::Grid;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One partition's package of data + local index — the paper's
/// `RpTraj(trajectory: Array, Index: RP-Trie)` (Section V-C). The data
/// half is a flat [`TrajStore`] arena: leaf verification and full scans
/// read one contiguous point array per partition.
#[derive(Debug, Clone)]
pub(crate) struct LocalPartition {
    pub(crate) store: TrajStore,
    pub(crate) trie: RpTrie,
}

/// The outcome of one distributed top-k query.
///
/// Every [`Repose`] query front ([`Repose::query`],
/// [`Repose::query_batch`], [`Repose::query_where`]) returns one of
/// these. The three fields answer the three questions the paper's
/// evaluation asks of a query: *what* was found (`hits`), *how long* the
/// simulated cluster took (`job`, whose makespan is the paper's QT metric),
/// and *how much work* the local indexes did (`search`, the pruning-power
/// counters behind Tables V and VI).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Global top-k hits, ascending by distance with ties broken by
    /// trajectory id. May hold fewer than `k` entries when the dataset
    /// (or the filtered subset) is smaller than `k`. Which of the ids tied
    /// at the k-th distance make the cut is not fixed: it can change from
    /// run to run with how the partition searches interleave.
    pub hits: Vec<Hit>,
    /// Distributed scheduling stats; `job.makespan` is the simulated
    /// distributed query time (the paper's QT).
    pub job: JobStats,
    /// Local-search work counters summed over partitions: trie nodes
    /// visited/pruned, leaves visited/pruned, and exact distance
    /// computations.
    pub search: SearchStats,
}

impl QueryOutcome {
    /// Simulated distributed query time (the paper's QT): the makespan of
    /// the per-partition local searches scheduled onto the modeled
    /// cluster, *not* host wall time.
    pub fn query_time(&self) -> Duration {
        self.job.makespan
    }
}

/// A borrowed view of one partition's data and local index — the hook the
/// online serving layer (`repose-service`) uses to search frozen
/// partitions directly, outside the simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct PartitionView<'a> {
    /// The partition's trajectory arena, in the order the index was built
    /// over.
    pub store: &'a TrajStore,
    /// The partition's RP-Trie.
    pub trie: &'a RpTrie,
}

/// A built REPOSE deployment: partitioned trajectories, one RP-Trie per
/// partition, and the simulated cluster that executes queries.
///
/// Partitions live behind `Arc` so a selective rebuild
/// ([`Repose::rebuild_partitions`] — the serving layer's incremental
/// compaction) can share untouched partitions' arenas and tries with the
/// previous deployment instead of deep-copying them.
#[derive(Debug)]
pub struct Repose {
    config: ReposeConfig,
    cluster: Cluster,
    parts: Vec<Arc<LocalPartition>>,
    region: Mbr,
    build_stats: JobStats,
    partition_wall: Duration,
}

impl Repose {
    /// Partitions `dataset` and builds every local index.
    ///
    /// The paper's index-construction time (IT) covers "converting
    /// trajectories to reference trajectories, clustering the trajectories,
    /// and building the trie" — here: the master-side partitioning wall
    /// time plus the simulated makespan of the parallel per-partition
    /// builds.
    pub fn build(dataset: &Dataset, config: ReposeConfig) -> Self {
        let region = dataset
            .enclosing_square()
            .unwrap_or_else(|| Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let t0 = Instant::now();
        // Deal slots over the dataset in place (no transient master
        // arena); each partition's arena is filled straight from the
        // dataset's point slices.
        let trajs = dataset.trajectories();
        let slot_parts = crate::partition::partition_slots_by(
            trajs.len(),
            &|i| trajs[i].points.as_slice(),
            &|i| trajs[i].id,
            &region,
            config.strategy,
            config.num_partitions,
            config.seed,
        );
        let parts: Vec<TrajStore> = slot_parts
            .into_iter()
            .map(|slots| {
                let points: usize = slots.iter().map(|&s| trajs[s].len()).sum();
                let mut part = TrajStore::with_capacity(slots.len(), points);
                for s in slots {
                    part.push(trajs[s].id, &trajs[s].points);
                }
                part
            })
            .collect();
        Repose::build_from_parts(parts, region, t0.elapsed(), config)
    }

    /// [`Repose::build`] over a flat [`TrajStore`] arena — the
    /// allocation-light build path. Partitioning deals out *slots*; each
    /// partition's arena is then filled with contiguous arena-to-arena
    /// range copies (no intermediate `Trajectory` clones). The serving
    /// layer's compaction rebuilds through this entry point.
    pub fn build_from_store(store: &TrajStore, config: ReposeConfig) -> Self {
        let region = store
            .enclosing_square()
            .unwrap_or_else(|| Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let t0 = Instant::now();
        let slot_parts = partition_slots(
            store,
            &region,
            config.strategy,
            config.num_partitions,
            config.seed,
        );
        let parts: Vec<TrajStore> = slot_parts
            .into_iter()
            .map(|slots| {
                let points: usize = slots.iter().map(|&s| store.points(s).len()).sum();
                let mut part = TrajStore::with_capacity(slots.len(), points);
                for s in slots {
                    part.push_from(store, s);
                }
                part
            })
            .collect();
        Repose::build_from_parts(parts, region, t0.elapsed(), config)
    }

    /// The shared tail of [`Repose::build`] / [`Repose::build_from_store`]:
    /// per-partition trie builds on the simulated cluster + deployment
    /// assembly.
    fn build_from_parts(
        parts: Vec<TrajStore>,
        region: Mbr,
        partition_wall: Duration,
        config: ReposeConfig,
    ) -> Self {
        let cluster = Cluster::new(config.cluster);
        let grid = Grid::with_delta(region, config.delta);
        let trie_cfg = config.trie;
        let (tries, build_stats) = cluster.run_partitions(&parts, |pi, store| {
            RpTrie::build(store, grid.clone(), trie_cfg.with_seed(trie_cfg.seed ^ pi as u64))
        });
        let parts = parts
            .into_iter()
            .zip(tries)
            .map(|(store, trie)| Arc::new(LocalPartition { store, trie }))
            .collect();
        Repose { config, cluster, parts, region, build_stats, partition_wall }
    }

    /// Reassembles a deployment from already-built partitions — the
    /// archive attach path, which must not re-partition or re-freeze
    /// anything. Each `(store, trie)` pair becomes one partition verbatim
    /// (the trie must have been built over exactly that store; `RpTrie`
    /// asserts the store length on every query). `region` and `config`
    /// must be the ones the deployment was originally built with, or
    /// later incremental rebuilds would use a different grid.
    ///
    /// Build stats are zero: nothing was built.
    pub fn from_built_partitions(
        partitions: Vec<(TrajStore, RpTrie)>,
        region: Mbr,
        config: ReposeConfig,
    ) -> Self {
        assert_eq!(
            partitions.len(),
            config.num_partitions,
            "partition count must match the config it was built with"
        );
        let cluster = Cluster::new(config.cluster);
        let build_stats = cluster.schedule(vec![Duration::ZERO; partitions.len()], Duration::ZERO);
        let parts = partitions
            .into_iter()
            .map(|(store, trie)| Arc::new(LocalPartition { store, trie }))
            .collect();
        Repose { config, cluster, parts, region, build_stats, partition_wall: Duration::ZERO }
    }

    /// Rebuilds *only* the given partitions, sharing every other
    /// partition's arena and trie with `self` (an `Arc` clone — no copy).
    /// This is the selective-rebuild entry point behind the serving
    /// layer's incremental compaction: a deployment with `n` partitions
    /// and one dirty partition pays one trie build, not `n`.
    ///
    /// Each replacement `(pi, store)` becomes partition `pi`'s new data;
    /// its trie is built with the *same* grid (region + `delta`) and the
    /// same per-partition seed as the original build, so reused and
    /// rebuilt partitions stay mutually consistent. Replacement builds run
    /// on the simulated cluster like [`Repose::build`]'s; the returned
    /// deployment's [`Repose::build_stats`] describe the selective job
    /// only.
    ///
    /// Every point of every replacement store must lie within
    /// [`Repose::region`] — reference-point discretization clamps to the
    /// region, so out-of-region data would get unsound lower bounds. The
    /// caller is responsible for falling back to a full rebuild in that
    /// case (debug builds assert it).
    ///
    /// # Panics
    /// If a replacement index is out of range or duplicated.
    pub fn rebuild_partitions(&self, replacements: Vec<(usize, TrajStore)>) -> Repose {
        let n = self.config.num_partitions;
        let t0 = Instant::now();
        let mut seen = vec![false; n];
        for &(pi, ref store) in &replacements {
            assert!(pi < n, "replacement partition {pi} out of range ({n} partitions)");
            assert!(!seen[pi], "replacement partition {pi} given twice");
            seen[pi] = true;
            debug_assert!(
                store
                    .enclosing_square()
                    .is_none_or(|sq| self.region.contains_mbr(&sq) || {
                        // `enclosing_square` pads the tight bbox up to a
                        // square; only the raw points must be in-region.
                        store.iter().all(|(_, pts)| {
                            pts.iter().all(|p| self.region.contains(*p))
                        })
                    }),
                "replacement stores must stay within the deployment region"
            );
        }
        let grid = Grid::with_delta(self.region, self.config.delta);
        let trie_cfg = self.config.trie;
        let (tries, job) = self.cluster.run_partitions(&replacements, |_, (pi, store)| {
            RpTrie::build(store, grid.clone(), trie_cfg.with_seed(trie_cfg.seed ^ *pi as u64))
        });
        // Each replacement runs on the worker its partition index places
        // it on, not on the worker of its position in `replacements`.
        let assignment = replacements.iter().map(|&(pi, _)| pi).collect();
        let mut parts = self.parts.clone();
        for ((pi, store), trie) in replacements.into_iter().zip(tries) {
            parts[pi] = Arc::new(LocalPartition { store, trie });
        }
        let build_stats = JobStats::simulate(
            job.partition_times,
            assignment,
            self.config.cluster.workers,
            self.config.cluster.cores_per_worker,
            job.host_wall,
        );
        Repose {
            config: self.config,
            cluster: self.cluster.clone(),
            parts,
            region: self.region,
            build_stats,
            partition_wall: t0.elapsed(),
        }
    }

    /// Runs a distributed top-k query with **cross-partition shared-
    /// threshold execution**: every partition's local search runs
    /// concurrently against one live [`SharedTopK`] collector, publishing
    /// each accepted hit and re-reading the collector's global k-th-
    /// distance bound at every pruning decision — so partition 7 stops
    /// verifying candidates partition 0 already proved hopeless, while the
    /// results stay exact (the same distance multiset as the paper's
    /// model, where every partition searches under an infinite threshold
    /// and results merge only at the end; ties may resolve per
    /// Definition 3).
    ///
    /// Never performs more exact distance computations than that
    /// independent model on any interleaving: the shared bound only ever
    /// tightens each local search's own threshold, so each partition's
    /// work is a subset of its independent-run work.
    pub fn query(&self, query: &[Point], k: usize) -> QueryOutcome {
        self.run(&[query], k, None).pop().expect("one outcome per query")
    }

    /// Executes a *batch* of queries as one distributed job — the paper's
    /// motivating analytics workload ("ride-hailing companies tend to
    /// issue a batch of analysis queries", Section V-A).
    ///
    /// Each partition answers every query in one pass over its local index,
    /// so the simulated makespan reflects batch amortization: one task per
    /// partition rather than one job per query (the batch shares one
    /// schedule, reported on every outcome). Every query gets its own
    /// [`SharedTopK`] collector, so the cross-partition threshold pruning
    /// of [`Repose::query`] applies to every query of the batch.
    pub fn query_batch(&self, queries: &[Vec<Point>], k: usize) -> Vec<QueryOutcome> {
        let queries: Vec<&[Point]> = queries.iter().map(Vec::as_slice).collect();
        self.run(&queries, k, None)
    }

    /// The one distributed query job behind every front: one task per
    /// partition answers all of `queries` through [`RpTrie::search`], and
    /// the task times become the simulated schedule.
    ///
    /// Every query gets one [`SharedTopK`] all its partition searches
    /// publish into and prune with; its pool is the query's answer, so
    /// nothing is merged afterwards. The job is timed as a single cold
    /// run, like every [`Cluster::run_partitions`] job: a re-run would
    /// execute against the already-tightened collectors and under-report
    /// the job's true cost.
    pub(crate) fn run(
        &self,
        queries: &[&[Point]],
        k: usize,
        filter: Option<&(dyn Fn(TrajId) -> bool + Sync)>,
    ) -> Vec<QueryOutcome> {
        if queries.is_empty() {
            return Vec::new();
        }
        let collectors: Vec<SharedTopK> = queries.iter().map(|_| SharedTopK::new(k)).collect();
        let (stats, job) = self.cluster.run_partitions(&self.parts, |_, part| {
            queries
                .iter()
                .zip(&collectors)
                .map(|(q, c)| part.trie.search(&part.store, q, filter, c))
                .collect::<Vec<_>>()
        });
        collectors
            .iter()
            .enumerate()
            .map(|(qi, c)| {
                let mut search = SearchStats::default();
                for part_stats in &stats {
                    search.merge(&part_stats[qi]);
                }
                QueryOutcome { hits: c.hits(), job: job.clone(), search }
            })
            .collect()
    }

    /// The configuration the deployment was built with.
    pub fn config(&self) -> &ReposeConfig {
        &self.config
    }

    /// The enclosing square region `A`.
    pub fn region(&self) -> Mbr {
        self.region
    }

    /// Simulated index construction time (the paper's IT): master-side
    /// clustering + simulated parallel build makespan.
    pub fn index_time(&self) -> Duration {
        self.partition_wall + self.build_stats.makespan
    }

    /// Scheduling stats of the build job.
    pub fn build_stats(&self) -> &JobStats {
        &self.build_stats
    }

    /// Total index size in bytes across partitions (the paper's IS).
    pub fn index_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.trie.mem_bytes()).sum()
    }

    /// Total trie nodes across partitions (Fig. 7's metric).
    pub fn trie_nodes(&self) -> usize {
        self.parts.iter().map(|p| p.trie.node_count()).sum()
    }

    /// Borrowed view of partition `pi`'s trajectories and local index.
    ///
    /// # Panics
    /// If `pi >= self.num_partitions()`.
    pub fn partition_view(&self, pi: usize) -> PartitionView<'_> {
        let part = &self.parts[pi];
        PartitionView { store: &part.store, trie: &part.trie }
    }

    /// Iterates every indexed trajectory across all partitions as
    /// `(id, points)` pairs borrowed from the partition arenas (used by
    /// `repose-service` for live-set accounting; compaction copies point
    /// ranges arena-to-arena through [`Repose::partition_view`]).
    pub fn all_trajectories(&self) -> impl Iterator<Item = (TrajId, &[Point])> {
        self.parts.iter().flat_map(|p| p.store.iter())
    }

    /// Per-partition trajectory counts.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.store.len()).collect()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.config.num_partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionStrategy;
    use repose_distance::{Measure, MeasureParams};
    use repose_model::Trajectory;

    fn dataset() -> Dataset {
        // 200 trajectories in 20 groups of 10 near-duplicates.
        let mut trajs = Vec::new();
        for g in 0..20u64 {
            let gx = (g % 5) as f64 * 10.0;
            let gy = (g / 5) as f64 * 10.0;
            for j in 0..10u64 {
                let id = g * 10 + j;
                let jit = j as f64 * 0.05;
                trajs.push(Trajectory::new(
                    id,
                    (0..12)
                        .map(|s| Point::new(gx + s as f64 * 0.3 + jit, gy + jit))
                        .collect(),
                ));
            }
        }
        Dataset::from_trajectories(trajs)
    }

    fn brute_force(d: &Dataset, q: &[Point], k: usize, m: Measure, p: MeasureParams) -> Vec<u64> {
        let mut v: Vec<(f64, u64)> = d
            .trajectories()
            .iter()
            .map(|t| (p.distance(m, q, &t.points), t.id))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v.truncate(k);
        v.into_iter().map(|e| e.1).collect()
    }

    #[test]
    fn distributed_matches_brute_force_all_measures() {
        let d = dataset();
        let q: Vec<Point> = (0..12).map(|s| Point::new(s as f64 * 0.3, 0.1)).collect();
        let params = MeasureParams::with_eps(0.5);
        for measure in Measure::ALL {
            let cfg = ReposeConfig::new(measure)
                .with_partitions(8)
                .with_delta(0.7)
                .with_params(params);
            let r = Repose::build(&d, cfg);
            let got: Vec<u64> = r.query(&q, 10).hits.iter().map(|h| h.id).collect();
            let expect = brute_force(&d, &q, 10, measure, params);
            assert_eq!(got, expect, "{measure}");
        }
    }

    #[test]
    fn strategies_return_identical_results() {
        let d = dataset();
        let q: Vec<Point> = (0..12).map(|s| Point::new(s as f64 * 0.3, 10.2)).collect();
        let mut all = Vec::new();
        for s in [
            PartitionStrategy::Heterogeneous,
            PartitionStrategy::Homogeneous,
            PartitionStrategy::Random,
        ] {
            let cfg = ReposeConfig::new(Measure::Hausdorff)
                .with_partitions(6)
                .with_delta(0.7)
                .with_strategy(s);
            let r = Repose::build(&d, cfg);
            all.push(r.query(&q, 7).hits.iter().map(|h| h.id).collect::<Vec<_>>());
        }
        assert_eq!(all[0], all[1]);
        assert_eq!(all[0], all[2]);
    }

    #[test]
    fn heterogeneous_partitions_are_balanced() {
        let d = dataset();
        let cfg = ReposeConfig::new(Measure::Hausdorff)
            .with_partitions(8)
            .with_delta(0.7);
        let r = Repose::build(&d, cfg);
        let sizes = r.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), d.len());
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn stats_are_populated() {
        let d = dataset();
        let cfg = ReposeConfig::new(Measure::Hausdorff)
            .with_partitions(4)
            .with_delta(0.7);
        let r = Repose::build(&d, cfg);
        assert!(r.index_bytes() > 0);
        assert!(r.trie_nodes() > 4);
        assert!(r.index_time() > Duration::ZERO);
        let q: Vec<Point> = (0..12).map(|s| Point::new(s as f64 * 0.3, 0.1)).collect();
        let out = r.query(&q, 5);
        assert_eq!(out.hits.len(), 5);
        assert!(out.search.exact_computations > 0);
        assert_eq!(out.job.partition_times.len(), 4);
        assert!(out.query_time() >= Duration::ZERO);
    }

    /// The paper's execution model, the baseline `query` is checked
    /// against: each partition searched on its own under an infinite
    /// threshold, merged at the end. Returns the top-k and the exact
    /// distance computations it took.
    fn independent(r: &Repose, q: &[Point], k: usize) -> (Vec<Hit>, usize) {
        let mut hits = Vec::new();
        let mut exact = 0;
        for pi in 0..r.num_partitions() {
            let view = r.partition_view(pi);
            let local = view.trie.top_k(view.store, q, k);
            exact += local.stats.exact_computations;
            hits.extend(local.hits);
        }
        hits.sort_by(Hit::cmp_by_dist_then_id);
        hits.truncate(k);
        (hits, exact)
    }

    #[test]
    fn shared_matches_independent_distances() {
        let d = dataset();
        let params = MeasureParams::with_eps(0.5);
        for measure in [Measure::Hausdorff, Measure::Frechet, Measure::Dtw] {
            let cfg = ReposeConfig::new(measure)
                .with_partitions(8)
                .with_delta(0.7)
                .with_params(params);
            let r = Repose::build(&d, cfg);
            for qy in [0.1, 5.3, 19.7] {
                let q: Vec<Point> =
                    (0..12).map(|s| Point::new(s as f64 * 0.3, qy)).collect();
                let (indep, indep_exact) = independent(&r, &q, 10);
                let one = r.query(&q, 10);
                assert_eq!(one.hits.len(), indep.len(), "{measure}");
                for (a, c) in one.hits.iter().zip(&indep) {
                    assert!(
                        (a.dist - c.dist).abs() < 1e-9,
                        "{measure}: {} vs {}",
                        a.dist,
                        c.dist
                    );
                }
                // shared thresholds must help, never hurt, total pruning
                // work — regardless of how the partition tasks interleave
                assert!(one.search.exact_computations <= indep_exact);
            }
        }
    }

    #[test]
    fn batch_queries_match_individual_queries() {
        let d = dataset();
        let cfg = ReposeConfig::new(Measure::Hausdorff)
            .with_partitions(6)
            .with_delta(0.7);
        let r = Repose::build(&d, cfg);
        let queries: Vec<Vec<Point>> = [0.1, 5.3, 12.7]
            .iter()
            .map(|&qy| (0..12).map(|s| Point::new(s as f64 * 0.3, qy)).collect())
            .collect();
        let batch = r.query_batch(&queries, 7);
        assert_eq!(batch.len(), 3);
        for (q, b) in queries.iter().zip(&batch) {
            let single = r.query(q, 7);
            assert_eq!(
                single.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
                b.hits.iter().map(|h| h.id).collect::<Vec<_>>()
            );
        }
        assert!(r.query_batch(&[], 5).is_empty());
    }

    #[test]
    fn rebuild_partitions_shares_untouched_and_replaces_dirty() {
        let d = dataset();
        let cfg = ReposeConfig::new(Measure::Hausdorff)
            .with_partitions(4)
            .with_delta(0.7);
        let r = Repose::build(&d, cfg);
        let q: Vec<Point> = (0..12).map(|s| Point::new(s as f64 * 0.3, 0.1)).collect();
        let before = r.query(&q, 8);

        // Identity rebuild: replace partition 2 with its own data.
        let view = r.partition_view(2);
        let mut same = TrajStore::new();
        for slot in 0..view.store.len() {
            same.push_from(view.store, slot);
        }
        let r2 = r.rebuild_partitions(vec![(2, same)]);
        let after = r2.query(&q, 8);
        assert_eq!(
            before.hits.iter().map(|h| (h.dist.to_bits(), h.id)).collect::<Vec<_>>(),
            after.hits.iter().map(|h| (h.dist.to_bits(), h.id)).collect::<Vec<_>>(),
        );
        // Untouched partitions share the original arenas (no copy).
        for pi in [0usize, 1, 3] {
            assert!(std::ptr::eq(
                r.partition_view(pi).store,
                r2.partition_view(pi).store
            ));
        }
        assert!(!std::ptr::eq(r.partition_view(2).store, r2.partition_view(2).store));

        // Real replacement: drop one trajectory from partition 2; the
        // result must match a scratch rebuild over the reduced live set.
        let victim = r.partition_view(2).store.id(0);
        let mut reduced = TrajStore::new();
        for slot in 0..view.store.len() {
            if view.store.id(slot) != victim {
                reduced.push_from(view.store, slot);
            }
        }
        let r3 = r.rebuild_partitions(vec![(2, reduced)]);
        let got: Vec<u64> = r3.query(&q, 8).hits.iter().map(|h| h.id).collect();
        let live: Vec<Trajectory> = d
            .trajectories()
            .iter()
            .filter(|t| t.id != victim)
            .cloned()
            .collect();
        let fresh = Repose::build(&Dataset::from_trajectories(live), cfg);
        let expect: Vec<u64> = fresh.query(&q, 8).hits.iter().map(|h| h.id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rebuild_partitions_rejects_bad_index() {
        let d = dataset();
        let cfg = ReposeConfig::new(Measure::Hausdorff)
            .with_partitions(4)
            .with_delta(0.7);
        Repose::build(&d, cfg).rebuild_partitions(vec![(9, TrajStore::new())]);
    }

    #[test]
    fn query_on_empty_dataset() {
        let d = Dataset::new();
        let cfg = ReposeConfig::new(Measure::Hausdorff).with_partitions(4);
        let r = Repose::build(&d, cfg);
        let out = r.query(&[Point::new(0.0, 0.0)], 3);
        assert!(out.hits.is_empty());
    }

    #[test]
    fn k_exceeding_dataset() {
        let d = dataset();
        let cfg = ReposeConfig::new(Measure::Hausdorff)
            .with_partitions(4)
            .with_delta(0.7);
        let r = Repose::build(&d, cfg);
        let q: Vec<Point> = (0..12).map(|s| Point::new(s as f64 * 0.3, 0.1)).collect();
        let out = r.query(&q, 1000);
        assert_eq!(out.hits.len(), d.len());
    }
}
