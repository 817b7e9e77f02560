//! Best-first top-k search over a frozen RP-Trie (Section IV-A,
//! Algorithm 2 of the paper's appendix).

use crate::bounds::{BoundState, Columns};
use crate::pivot::pivot_lower_bound;
use crate::{Hit, NodeId, RpTrie};
use repose_distance::{bound_exceeds, DistScratch, ThresholdSource, BATCH_LANES};
use repose_model::{Point, TrajId, TrajStore};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Counters describing how much work a query did — used by the experiment
/// harness to show pruning power.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes popped from the frontier.
    pub nodes_visited: usize,
    /// Child nodes discarded by `LBo`/`LBp` before entering the frontier.
    pub nodes_pruned: usize,
    /// Leaf payloads whose bounds were evaluated.
    pub leaves_visited: usize,
    /// Leaf payloads skipped by `LBt`/`LBp`.
    pub leaves_pruned: usize,
    /// Exact trajectory distance computations (attempted verifications;
    /// includes the abandoned ones).
    pub exact_computations: usize,
    /// Verifications the threshold-aware kernel cut short: the candidate
    /// was refuted by the running k-th distance before paying the full
    /// `O(m·n)` cost (prefilter hit or mid-DP abandon).
    pub exact_abandoned: usize,
    /// Child bound evaluations skipped outright: the popped path's own
    /// lower bound already exceeded the live k-th distance (after leaf
    /// verification tightened it, or a concurrent partition published a
    /// better hit), and child bounds only grow along a path, so the
    /// incremental `BoundState` was never pushed for these children. The
    /// check runs before each lane group of children — one child for most
    /// measures, the active backend's lane count of DTW siblings, which
    /// are evaluated together — so a group already started is evaluated
    /// whole.
    pub bounds_abandoned: usize,
}

impl SearchStats {
    /// Accumulates another search's counters into this one (used by the
    /// distributed merge and the serving layer).
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.nodes_pruned += other.nodes_pruned;
        self.leaves_visited += other.leaves_visited;
        self.leaves_pruned += other.leaves_pruned;
        self.exact_computations += other.exact_computations;
        self.exact_abandoned += other.exact_abandoned;
        self.bounds_abandoned += other.bounds_abandoned;
    }
}

/// The outcome of a local top-k query ([`RpTrie::top_k`]).
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Up to `k` hits, ascending by distance (ties by trajectory id).
    pub hits: Vec<Hit>,
    /// Work counters.
    pub stats: SearchStats,
}

/// Frontier entry: a trie node with the lower bound of its path and the
/// incremental bound state of Algorithm 1 (`t.r`, `t.cmax` in the paper's
/// pseudocode).
struct Frontier {
    lb: f64,
    node: NodeId,
    state: BoundState,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.lb == other.lb && self.node == other.node
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on lb; ties toward the shallower node id for stability
        other
            .lb
            .total_cmp(&self.lb)
            .then_with(|| other.node.cmp(&self.node))
    }
}

pub(crate) fn search(
    trie: &RpTrie,
    store: &TrajStore,
    query: &[Point],
    filter: Option<&(dyn Fn(TrajId) -> bool + Sync)>,
    collector: &dyn ThresholdSource,
) -> SearchStats {
    let mut stats = SearchStats::default();
    if query.is_empty() || store.is_empty() {
        return stats;
    }
    let grid = trie.grid();
    let frozen = trie.frozen();
    let cfg = trie.config();
    let params = cfg.params;

    // One scratch for the whole search: every pivot distance and leaf
    // verification below reuses it, so a warm worker thread's verification
    // loop performs zero heap allocations (`DistScratch` is per-thread).
    DistScratch::with_thread(|scratch| {
    // dqp: distances from the query to every pivot (Section IV-D).
    let dqp = trie.pivots().query_distances_in(cfg, query, scratch);
    stats.exact_computations += dqp.len();
    // The query's own prefilter summary, computed once: paired with the
    // per-member summaries stored in each leaf it yields an O(1) lower
    // bound per verification candidate.
    let qsum = params.summary_of(query);

    // The live pruning threshold `dk` is the collector's bound, re-read at
    // every decision so hits other searches publish tighten this one
    // mid-flight.
    let dk = || collector.bound();

    let mut frontier: BinaryHeap<Frontier> = BinaryHeap::new();
    frontier.push(Frontier {
        lb: 0.0,
        node: frozen.root(),
        state: BoundState::new(cfg.measure, &params, query),
    });

    let mut kids: Vec<(u64, NodeId)> = Vec::new();
    let mut columns = Columns::default();
    while let Some(entry) = frontier.pop() {
        // Step 2): stop as soon as the best unexplored bound cannot beat dk.
        if entry.lb >= dk() {
            break;
        }
        stats.nodes_visited += 1;

        // Leaf payload at this node ('$'-terminated reference trajectory).
        if let Some(leaf) = frozen.leaf(entry.node) {
            stats.leaves_visited += 1;
            let lbt = entry.state.lbt(grid, &leaf, query.len());
            let lbp = pivot_lower_bound(&dqp, frozen.hr(entry.node));
            if lbt.max(lbp) < dk() {
                // Verify members under the *live* k-th distance: the kernel
                // returns the exact distance only when it beats dk and
                // abandons (cheaply) when it cannot — same results as the
                // unbounded `params.distance` + `d < dk` check. The
                // prefilter reuses the member summary frozen into the leaf:
                // O(1) per candidate instead of O(m+n); the candidate's
                // points are a contiguous arena slice.
                //
                // On a SIMD backend, measures with a lane-batched kernel
                // collect a vector's worth of members per dk refresh and
                // verify them in parallel lanes. dk is stale within one
                // group but stale only ever means *larger*, so a group
                // member can be accepted where the one-at-a-time scan would
                // have abandoned it — never the reverse; the extras carry
                // distances above the final k-th and fall back out of the
                // collector's pool, leaving the answer identical.
                let group_len = cfg.measure.batch_lanes();
                let mut group = [(0.0f64, [].as_slice()); BATCH_LANES];
                let mut gids = [0u64; BATCH_LANES];
                let mut scored = [None; BATCH_LANES];
                let mut si = 0;
                while si < leaf.members.len() {
                    let thr = dk();
                    let mut nb = 0;
                    while si < leaf.members.len() && nb < group_len {
                        let mi = leaf.members[si];
                        let summary = &leaf.summaries[si];
                        si += 1;
                        let id = store.id(mi as usize);
                        if let Some(f) = filter {
                            if !f(id) {
                                continue;
                            }
                        }
                        stats.exact_computations += 1;
                        let lb = params.summary_lower_bound(cfg.measure, &qsum, summary);
                        group[nb] = (lb, store.points(mi as usize));
                        gids[nb] = id;
                        nb += 1;
                    }
                    params.distance_within_batch_in(
                        cfg.measure,
                        query,
                        &group[..nb],
                        thr,
                        scratch,
                        &mut scored[..nb],
                    );
                    for (&d, &id) in scored[..nb].iter().zip(&gids[..nb]) {
                        match d {
                            // A hit accepted here prunes every other
                            // search sharing the collector.
                            Some(d) => collector.publish(d, id),
                            None => stats.exact_abandoned += 1,
                        }
                    }
                }
            } else {
                stats.leaves_pruned += 1;
            }
        }

        // Step 3): expand children with fresh incremental bounds, one lane
        // group at a time (`BoundState::expand`: DTW siblings side by side
        // in recycled columns, the other measures one child at a time).
        // dk may have tightened since this entry was popped (its own leaf
        // hits above, or a concurrently searching partition). Bounds only
        // grow along a path (`lbo` is monotone per measure, `HR` intervals
        // shrink), so once the popped path's own bound exceeds the live dk
        // no extension can win: the remaining groups are never pushed.
        kids.clear();
        frozen.children_into(entry.node, &mut kids);
        let lb = entry.lb;
        stats.bounds_abandoned += entry.state.expand(
            query,
            grid,
            &params,
            &kids,
            &mut columns,
            || !bound_exceeds(lb, dk()),
            |ci, state| {
                let child = kids[ci].1;
                let lb = state.lbo(grid).max(pivot_lower_bound(&dqp, frozen.hr(child)));
                if lb < dk() {
                    frontier.push(Frontier { lb, node: child, state });
                    None
                } else {
                    stats.nodes_pruned += 1;
                    Some(state)
                }
            },
        );
    }
    stats
    }) // DistScratch::with_thread
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RpTrieConfig;
    use repose_distance::{Measure, MeasureParams, SharedTopK};
    use repose_model::{Mbr, Trajectory};
    use repose_zorder::Grid;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn grid8() -> Grid {
        Grid::new(Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)), 3)
    }

    fn store_of(trajs: &[Trajectory]) -> TrajStore {
        TrajStore::from_trajectories(trajs)
    }

    /// The paper's running example: Table II, Example 1 (top-2 under
    /// Hausdorff is {τ1, τ4}).
    fn paper_dataset() -> Vec<Trajectory> {
        vec![
            Trajectory::new(1, pts(&[(0.5, 7.5), (2.5, 7.5), (6.5, 7.5), (6.5, 4.5)])),
            Trajectory::new(2, pts(&[(1.5, 0.5), (2.5, 0.5), (2.5, 4.5), (4.5, 4.5)])),
            Trajectory::new(
                3,
                pts(&[(4.5, 0.5), (7.5, 0.5), (7.5, 2.5), (4.5, 2.5), (4.5, 1.5)]),
            ),
            Trajectory::new(4, pts(&[(0.5, 7.5), (2.5, 7.5), (5.5, 7.5), (5.5, 3.5)])),
            Trajectory::new(
                5,
                pts(&[(1.5, 0.5), (2.5, 0.5), (2.5, 5.5), (0.5, 5.5), (0.5, 2.5)]),
            ),
        ]
    }

    fn query() -> Vec<Point> {
        pts(&[(0.5, 6.5), (2.5, 6.5), (4.5, 6.5)])
    }

    #[test]
    fn example_1_top_2() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let trie = RpTrie::build(
            &store,
            grid8(),
            RpTrieConfig::for_measure(Measure::Hausdorff).with_np(2),
        );
        let r = trie.top_k(&store, &query(), 2);
        let ids: Vec<u64> = r.hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![1, 4]);
        assert!((r.hits[0].dist - 2.83).abs() < 0.01);
        assert!((r.hits[1].dist - 3.16).abs() < 0.01);
    }

    #[test]
    fn matches_linear_scan_for_every_measure() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let q = query();
        let params = MeasureParams::with_eps(1.5);
        for measure in Measure::ALL {
            let trie = RpTrie::build(
                &store,
                grid8(),
                RpTrieConfig::for_measure(measure)
                    .with_params(params)
                    .with_np(2),
            );
            for k in 1..=5 {
                let got = trie.top_k(&store, &q, k);
                // brute force
                let mut expect: Vec<(f64, u64)> = trajs
                    .iter()
                    .map(|t| (params.distance(measure, &q, &t.points), t.id))
                    .collect();
                expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let expect_ids: Vec<u64> = expect.iter().take(k).map(|e| e.1).collect();
                let got_ids: Vec<u64> = got.hits.iter().map(|h| h.id).collect();
                assert_eq!(got_ids, expect_ids, "{measure} k={k}");
                for (h, e) in got.hits.iter().zip(expect.iter()) {
                    assert!((h.dist - e.0).abs() < 1e-9, "{measure} dist mismatch");
                }
            }
        }
    }

    /// `root_bound` lower-bounds every indexed trajectory's distance, is 0
    /// for LCSS (no sound internal bound) and for an empty query.
    #[test]
    fn root_bound_lower_bounds_every_member() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let q = query();
        let params = MeasureParams::with_eps(1.5);
        for measure in Measure::ALL {
            let config = RpTrieConfig::for_measure(measure).with_params(params).with_np(2);
            let trie = RpTrie::build(&store, grid8(), config);
            let bound = trie.root_bound(&q);
            let nearest = trajs
                .iter()
                .map(|t| params.distance(measure, &q, &t.points))
                .fold(f64::INFINITY, f64::min);
            assert!(bound <= nearest, "{measure}: root bound {bound} > nearest {nearest}");
            assert_eq!(trie.root_bound(&[]), 0.0, "{measure}");
            if measure == Measure::Lcss {
                assert_eq!(bound, 0.0);
            }
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_all() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let trie = RpTrie::build(
            &store,
            grid8(),
            RpTrieConfig::for_measure(Measure::Hausdorff),
        );
        let r = trie.top_k(&store, &query(), 50);
        assert_eq!(r.hits.len(), 5);
    }

    #[test]
    fn k_zero_and_empty_query() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let trie = RpTrie::build(
            &store,
            grid8(),
            RpTrieConfig::for_measure(Measure::Hausdorff),
        );
        assert!(trie.top_k(&store, &query(), 0).hits.is_empty());
        assert!(trie.top_k(&store, &[], 3).hits.is_empty());
    }

    #[test]
    fn pruning_happens_on_selective_queries() {
        // Build a larger structured dataset: many far-away trajectories and
        // one near the query; expect substantially fewer exact computations
        // than a scan.
        let mut trajs = paper_dataset();
        for i in 0..200u64 {
            let bx = 5.0 + (i % 3) as f64;
            let by = (i % 5) as f64 * 0.5;
            trajs.push(Trajectory::new(
                100 + i,
                pts(&[(bx, by), (bx + 0.4, by + 0.2), (bx + 0.9, by + 0.4)]),
            ));
        }
        let store = store_of(&trajs);
        let trie = RpTrie::build(
            &store,
            grid8(),
            RpTrieConfig::for_measure(Measure::Hausdorff).with_np(3),
        );
        let r = trie.top_k(&store, &query(), 2);
        assert_eq!(r.hits[0].id, 1);
        assert!(
            r.stats.exact_computations < trajs.len() / 2,
            "expected pruning, got {} exact computations over {} trajectories",
            r.stats.exact_computations,
            trajs.len()
        );
    }

    #[test]
    fn early_abandoning_kicks_in_on_selective_queries() {
        // Decoys sharing τ1's exact cell sequence (coarse level-1 grid):
        // the leaf bound cannot separate them, so every member reaches
        // exact verification — where only the threshold-aware kernel can
        // refute the ones that lose to the running k-th distance.
        let mut trajs = paper_dataset();
        let base = &trajs[0].points.clone();
        for i in 0..40u64 {
            let jit = (i % 8) as f64 * 0.18;
            trajs.push(Trajectory::new(
                100 + i,
                base.iter().map(|p| Point::new(p.x + jit, p.y)).collect(),
            ));
        }
        let grid = Grid::new(Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)), 1);
        let store = store_of(&trajs);
        for measure in Measure::ALL {
            let trie = RpTrie::build(
                &store,
                grid.clone(),
                RpTrieConfig::for_measure(measure).with_params(MeasureParams::with_eps(1.5)),
            );
            let r = trie.top_k(&store, &query(), 2);
            assert!(
                r.stats.exact_abandoned > 0,
                "{measure}: expected abandoned verifications, stats {:?}",
                r.stats
            );
            assert!(r.stats.exact_abandoned <= r.stats.exact_computations);
        }
    }

    #[test]
    fn seeded_search_merges_and_prunes() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let q = query();
        let trie = RpTrie::build(
            &store,
            grid8(),
            RpTrieConfig::for_measure(Measure::Hausdorff).with_np(2),
        );
        // The filter hides indexed trajectories: τ1 drops out, τ4 takes
        // its place, and no k brings τ1 back.
        let no_t1 = |id: u64| id != 1;
        for (k, want) in [(1, vec![4]), (5, vec![2, 3, 4, 5])] {
            let c = SharedTopK::new(k);
            trie.search(&store, &q, Some(&no_t1), &c);
            let mut ids: Vec<u64> = c.hits().iter().map(|h| h.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, want, "k={k}");
        }
    }

    #[test]
    fn shared_collector_prunes_across_tries() {
        // Two disjoint "partitions" over the paper dataset.
        let all = paper_dataset();
        let (p0, p1) = (store_of(&all[..2]), store_of(&all[2..]));
        let q = query();
        let build = |store: &TrajStore| {
            RpTrie::build(
                store,
                grid8(),
                RpTrieConfig::for_measure(Measure::Hausdorff).with_np(2),
            )
        };
        let (t0, t1) = (build(&p0), build(&p1));
        for k in 1..=4 {
            // Independent searches, merged at the end (the old path).
            let (a, b) = (t0.top_k(&p0, &q, k), t1.top_k(&p1, &q, k));
            let mut indep: Vec<Hit> = [a.hits.clone(), b.hits.clone()].concat();
            indep.sort_by(Hit::cmp_by_dist_then_id);
            indep.truncate(k);

            // Shared-threshold searches against one collector, which is
            // also the answer.
            let c = SharedTopK::new(k);
            let (sa, sb) = (t0.search(&p0, &q, None, &c), t1.search(&p1, &q, None, &c));

            assert_eq!(
                indep.iter().map(|h| (h.dist.to_bits(), h.id)).collect::<Vec<_>>(),
                c.hits().iter().map(|h| (h.dist.to_bits(), h.id)).collect::<Vec<_>>(),
                "k={k}"
            );
            // The second search ran under the first's published bound:
            // never more total verification work than independent runs.
            assert!(
                sa.exact_computations + sb.exact_computations
                    <= a.stats.exact_computations + b.stats.exact_computations,
                "k={k}"
            );
        }
    }

    #[test]
    fn concurrent_tightening_abandons_bound_pushes() {
        use repose_distance::ThresholdSource;
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Simulates another partition finding a great hit mid-search:
        /// infinite until anything is published here, then (unsoundly —
        /// this tests the mechanism, not exactness) zero.
        struct CollapseAfterFirstPublish(AtomicBool);
        impl ThresholdSource for CollapseAfterFirstPublish {
            fn bound(&self) -> f64 {
                if self.0.load(Ordering::Relaxed) {
                    0.0
                } else {
                    f64::INFINITY
                }
            }
            fn publish(&self, _dist: f64, _id: u64) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        // A prefix family far from the query: the node holding the prefix
        // leaf also has children, so when the bound collapses right after
        // its members verify, the child BoundStates are never pushed.
        let far = pts(&[(6.5, 0.5), (7.5, 0.5)]);
        let mut trajs = vec![Trajectory::new(1, far.clone())];
        for i in 0..4u64 {
            let mut ext = far.clone();
            ext.push(Point::new(7.5, 1.5 + i as f64));
            trajs.push(Trajectory::new(2 + i, ext));
        }
        let store = store_of(&trajs);
        let trie = RpTrie::build(
            &store,
            grid8(),
            RpTrieConfig::for_measure(Measure::Frechet).with_np(0),
        );
        let src = CollapseAfterFirstPublish(AtomicBool::new(false));
        let stats = trie.search(&store, &query(), None, &src);
        assert!(
            stats.bounds_abandoned > 0,
            "expected skipped child bound pushes, stats {stats:?}"
        );
    }

    #[test]
    fn optimized_and_unoptimized_tries_agree() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let q = query();
        let opt = RpTrie::build(
            &store,
            grid8(),
            RpTrieConfig::for_measure(Measure::Hausdorff).with_optimize(true),
        );
        let unopt = RpTrie::build(
            &store,
            grid8(),
            RpTrieConfig::for_measure(Measure::Hausdorff).with_optimize(false),
        );
        for k in 1..=5 {
            let a: Vec<u64> = opt.top_k(&store, &q, k).hits.iter().map(|h| h.id).collect();
            let b: Vec<u64> = unopt.top_k(&store, &q, k).hits.iter().map(|h| h.id).collect();
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn dense_level_variations_agree() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let q = query();
        for dense in [0u8, 1, 2, 4] {
            let trie = RpTrie::build(
                &store,
                grid8(),
                RpTrieConfig::for_measure(Measure::Frechet).with_dense_levels(dense),
            );
            let ids: Vec<u64> = trie.top_k(&store, &q, 3).hits.iter().map(|h| h.id).collect();
            assert_eq!(ids.len(), 3, "dense={dense}");
            assert_eq!(ids[0], 1, "dense={dense}");
        }
    }
}
