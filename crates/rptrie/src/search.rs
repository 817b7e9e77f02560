//! Best-first top-k search over frozen RP-Tries (Section IV-A,
//! Algorithm 2 of the paper's appendix): one frontier over a slice of
//! partitions' tries, in which the tries built on one grid are walked
//! as one virtual trie, their union.

use crate::bounds::{BoundState, Columns};
use crate::pivot::pivot_lower_bound;
use crate::{Hit, LeafRef, NodeId, RpTrie};
use repose_distance::{bound_exceeds, DistScratch, SharedTopK};
use repose_model::{Point, TrajId, TrajStore};
use repose_zorder::ZValue;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Counters describing how much work a query did — used by the experiment
/// harness to show pruning power.
///
/// The node and leaf counters count label paths: a path that several
/// tries of one search share (built on one grid) counts once, as it
/// would in one trie built over their union.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Paths popped from the frontier, once per path however many tries
    /// hold it.
    pub nodes_visited: usize,
    /// Child paths discarded before entering the frontier: by `LBo`, or
    /// because every trie holding the path lost to its own `LBp`.
    pub nodes_pruned: usize,
    /// Popped paths at which a reference trajectory ends in at least one
    /// trie: once per path, however many tries' leaves it gates.
    pub leaves_visited: usize,
    /// Visited leaf paths none of whose tries' leaves passed their own
    /// `LBt`/`LBp`.
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
    /// incremental `BoundState` was never pushed for these children
    /// (distinct child labels, however many tries hold each). The check
    /// runs before each lane group of children — one child for most
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

/// Frontier entry: one label path of the searched tries, with its lower
/// bound and the incremental bound state of Algorithm 1 (`t.r`, `t.cmax`
/// in the paper's pseudocode). A path's bound state depends only on its
/// labels and the grid, so one entry stands for every trie on that grid
/// holding the path: its *members*, the `(partition, node)` pairs
/// `arena[start..end]` of the search's member arena, ascending by
/// partition. An entry without a state is one member's leaf, deferred to
/// its own bound.
struct Frontier {
    lb: f64,
    /// The first member: the tie order.
    first: (u32, NodeId),
    start: u32,
    end: u32,
    state: Option<BoundState>,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        // min-heap on lb; ties toward the lower first partition, then the
        // shallower node id, for stability
        other.lb.total_cmp(&self.lb).then_with(|| other.first.cmp(&self.first))
    }
}

/// What the search keeps per partition: the trie and store it reads,
/// and the query's distances to that trie's own pivots.
struct Part<'a> {
    trie: &'a RpTrie,
    store: &'a TrajStore,
    /// dqp: distances from the query to every pivot (Section IV-D).
    dqp: Vec<f64>,
}

impl Part<'_> {
    /// `LBp` of this partition's `node`.
    fn lbp(&self, node: NodeId) -> f64 {
        pivot_lower_bound(&self.dqp, self.trie.frozen().hr(node))
    }
}

/// The children of one popped entry, merged across its members: each
/// distinct label once, ascending (`labels`, as [`BoundState::expand`]
/// takes them), with the members holding it. Recycled across the
/// search's expansions.
#[derive(Default)]
struct MergedChildren {
    /// Every member's child list, back to back.
    kids: Vec<(ZValue, NodeId)>,
    /// Per member with children: `(partition, cursor, end)` into `kids`.
    runs: Vec<(u32, usize, usize)>,
    labels: Vec<ZValue>,
    /// Label `i`'s members are `members[spans[i]..spans[i + 1]]`.
    spans: Vec<usize>,
    members: Vec<(u32, NodeId)>,
}

impl MergedChildren {
    /// K-way merges the child lists of the nodes `of`, each already in
    /// ascending label order; members keep `of`'s partition order.
    fn merge(&mut self, searched: &[Part], of: &[(u32, NodeId)]) {
        self.kids.clear();
        self.runs.clear();
        for &(p, node) in of {
            let start = self.kids.len();
            searched[p as usize].trie.frozen().children_into(node, &mut self.kids);
            if self.kids.len() > start {
                self.runs.push((p, start, self.kids.len()));
            }
        }
        self.labels.clear();
        self.spans.clear();
        self.members.clear();
        while let Some(label) =
            self.runs.iter().filter(|r| r.1 < r.2).map(|r| self.kids[r.1].0).min()
        {
            self.labels.push(label);
            self.spans.push(self.members.len());
            for run in &mut self.runs {
                if run.1 < run.2 && self.kids[run.1].0 == label {
                    self.members.push((run.0, self.kids[run.1].1));
                    run.1 += 1;
                }
            }
        }
        self.spans.push(self.members.len());
    }

    /// The members holding label `ci`.
    fn members_of(&self, ci: usize) -> &[(u32, NodeId)] {
        &self.members[self.spans[ci]..self.spans[ci + 1]]
    }
}

pub(crate) fn search(
    parts: &[(&RpTrie, &TrajStore)],
    query: &[Point],
    filter: Option<&(dyn Fn(TrajId) -> bool + Sync)>,
    collector: &SharedTopK,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let Some(&(first, _)) = parts.first() else {
        return stats;
    };
    if query.is_empty() {
        return stats;
    }
    let measure = first.config().measure;
    let params = first.config().params;
    debug_assert!(
        parts
            .iter()
            .all(|(t, _)| t.config().measure == measure && t.config().params == params),
        "one search spans partitions of one deployment"
    );

    // One scratch for the whole search: every pivot distance and leaf
    // verification below reuses it, so a warm worker thread's verification
    // loop performs zero heap allocations (`DistScratch` is per-thread).
    DistScratch::with_thread(|scratch| {
    let mut searched: Vec<Part> = Vec::with_capacity(parts.len());
    for &(trie, store) in parts {
        if store.is_empty() {
            continue;
        }
        let dqp = trie.pivots().query_distances_in(trie.config(), query, scratch);
        stats.exact_computations += dqp.len();
        searched.push(Part { trie, store, dqp });
    }
    // One frontier over every partition, one entry per label path: the
    // roots of all tries on one grid enter it as one entry, and from then
    // on paths pop in global bound order, whichever tries hold them. The
    // member sets of all entries live in one arena, appended as entries
    // enter the frontier.
    let mut frontier: BinaryHeap<Frontier> = BinaryHeap::new();
    let mut arena: Vec<(u32, NodeId)> = Vec::with_capacity(searched.len());
    for (pi, part) in searched.iter().enumerate() {
        let grid = part.trie.grid();
        if searched[..pi].iter().any(|q| q.trie.grid() == grid) {
            continue;
        }
        let start = arena.len();
        arena.extend(
            searched
                .iter()
                .enumerate()
                .skip(pi)
                .filter(|(_, q)| q.trie.grid() == grid)
                .map(|(qi, q)| (qi as u32, q.trie.frozen().root())),
        );
        frontier.push(Frontier {
            lb: 0.0,
            first: arena[start],
            start: start as u32,
            end: arena.len() as u32,
            state: Some(BoundState::new(measure, &params, query)),
        });
    }
    // The query's own prefilter summary, computed once: paired with the
    // per-member summaries stored in each leaf it yields an O(1) lower
    // bound per verification candidate.
    let qsum = &params.summary_of(query);

    // The live pruning threshold `dk` is the collector's bound, re-read at
    // every decision so hits other searches publish tighten this one
    // mid-flight.
    let dk = || collector.bound();

    let pivots = searched.iter().any(|part| !part.dqp.is_empty());
    // Verifies `leaves` (each a member `(partition, node)`, its leaf
    // payload and the payload's bound) under the *live* k-th distance: a
    // leaf is gated by its bound when the kernel reaches it, and the
    // leaves that pass feed one candidate stream, so lane groups fill
    // across partitions. The kernel returns the exact distance only when
    // it beats dk and abandons (cheaply) when it cannot. Within a leaf
    // members go in leaf order; hidden ones are skipped before they
    // count, and the prefilter bound comes from the member summary frozen
    // into the leaf — O(1) per candidate instead of O(m+n); the
    // candidate's points are a contiguous arena slice. Returns whether any
    // leaf passed its gate.
    let mut verify = |leaves: &[(u32, NodeId, LeafRef, f64)], stats: &mut SearchStats| {
        let mut passed = false;
        let cands = leaves
            .iter()
            .filter(|&&(_, _, _, bound)| {
                let pass = bound < dk();
                passed |= pass;
                pass
            })
            .flat_map(|&(p, _, leaf, _)| {
                let store = searched[p as usize].store;
                leaf.members.iter().zip(leaf.summaries).filter_map(move |(&mi, sum)| {
                    let id = store.id(mi as usize);
                    if filter.is_some_and(|f| !f(id)) {
                        return None;
                    }
                    let lb = params.summary_lower_bound(measure, qsum, sum);
                    Some((lb, id, store.points(mi as usize)))
                })
            });
        let (scored, abandoned) = params.verify(measure, query, cands, collector, scratch);
        stats.exact_computations += scored;
        stats.exact_abandoned += abandoned;
        passed
    };
    let mut leaves: Vec<(u32, NodeId, LeafRef, f64)> = Vec::new();
    let mut merged = MergedChildren::default();
    let mut columns = Columns::default();
    while let Some(entry) = frontier.pop() {
        // Step 2): stop as soon as the best unexplored bound cannot beat dk.
        if entry.lb >= dk() {
            break;
        }
        let Some(state) = entry.state else {
            // A leaf deferred to its own bound (below) reached the top.
            let (p, node) = arena[entry.start as usize];
            let leaf = searched[p as usize].trie.frozen().leaf(node).expect("a deferred leaf");
            verify(&[(p, node, leaf, entry.lb)], &mut stats);
            continue;
        };
        stats.nodes_visited += 1;
        // A member whose own `LBp` lost to dk since the entry was pushed
        // leaves it. The one whose `LBp` the entry was pushed under stays
        // (`lb < dk`), so the entry keeps a member.
        let (start, mut end) = (entry.start as usize, entry.end as usize);
        if pivots {
            let bound = dk();
            let mut kept = start;
            for i in start..end {
                let (p, node) = arena[i];
                if searched[p as usize].lbp(node) < bound {
                    arena[kept] = (p, node);
                    kept += 1;
                }
            }
            end = kept;
        }
        let grid = searched[entry.first.0 as usize].trie.grid();

        // Leaf payloads at this path ('$'-terminated reference
        // trajectory), one per member that has one, each bounded by its
        // own `LBt` and `LBp`. The best of them verifies now, as the one
        // leaf of a one-trie path does, and with it every leaf bounded no
        // worse than it or than the path (all of a DTW path's leaves, whose
        // `LBt` is the path's). Each remaining one still beating dk waits
        // in the frontier for its own bound, by when dk may have tightened
        // past it: otherwise one pop would verify every trie's copy of a
        // popular short path under the loose dk of its turn.
        leaves.clear();
        for &(p, node) in &arena[start..end] {
            let part = &searched[p as usize];
            if let Some(leaf) = part.trie.frozen().leaf(node) {
                let bound = state.lbt(grid, &leaf, query.len()).max(part.lbp(node));
                leaves.push((p, node, leaf, bound));
            }
        }
        if !leaves.is_empty() {
            stats.leaves_visited += 1;
            let best = leaves.iter().map(|l| l.3).fold(f64::INFINITY, f64::min);
            let now = entry.lb.max(best);
            let mut deferred = false;
            leaves.retain(|&(p, node, _, bound)| {
                if bound <= now || bound >= dk() {
                    return true;
                }
                arena.push((p, node));
                frontier.push(Frontier {
                    lb: bound,
                    first: (p, node),
                    start: arena.len() as u32 - 1,
                    end: arena.len() as u32,
                    state: None,
                });
                deferred = true;
                false
            });
            if !verify(&leaves, &mut stats) && !deferred {
                stats.leaves_pruned += 1;
            }
        }

        // Step 3): expand children with fresh incremental bounds, one lane
        // group of distinct labels at a time (`BoundState::expand`: DTW
        // siblings side by side in recycled columns, the other measures
        // one child at a time); a label shared by several members is
        // pushed once. dk may have tightened since this entry was popped
        // (its own leaf hits above, or a concurrently searching
        // partition). Bounds only grow along a path (`lbo` is monotone
        // per measure, `HR` intervals shrink), so once the popped path's
        // own bound exceeds the live dk no extension can win: the
        // remaining groups are never pushed.
        merged.merge(&searched, &arena[start..end]);
        let lb = entry.lb;
        stats.bounds_abandoned += state.expand(
            query,
            grid,
            &params,
            &merged.labels,
            &mut columns,
            || !bound_exceeds(lb, dk()),
            |ci, state| {
                // A member whose own `LBp` already loses is dropped; the
                // child enters under the weakest of the remaining ones.
                let (bound, lbo) = (dk(), state.lbo(grid));
                if lbo < bound {
                    let start = arena.len();
                    let mut lbp = f64::INFINITY;
                    for &(p, node) in merged.members_of(ci) {
                        let member_lbp = searched[p as usize].lbp(node);
                        if member_lbp < bound {
                            arena.push((p, node));
                            lbp = lbp.min(member_lbp);
                        }
                    }
                    if arena.len() > start {
                        frontier.push(Frontier {
                            lb: lbo.max(lbp),
                            first: arena[start],
                            start: start as u32,
                            end: arena.len() as u32,
                            state: Some(state),
                        });
                        return None;
                    }
                }
                stats.nodes_pruned += 1;
                Some(state)
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

    /// [`paper_dataset_top_k_stats_are_pinned`]'s table: `top_k` at k = 1,
    /// 2 and 5, each as `[nodes_visited, nodes_pruned, leaves_visited,
    /// leaves_pruned, exact_computations, exact_abandoned,
    /// bounds_abandoned]`.
    fn pinned_stats(measure: Measure) -> Vec<SearchStats> {
        let rows: [[usize; 7]; 3] = match measure {
            Measure::Hausdorff | Measure::Frechet => {
                [[7, 0, 2, 0, 4, 0, 0], [7, 0, 2, 0, 4, 0, 0], [19, 0, 5, 0, 7, 0, 0]]
            }
            Measure::Dtw => [[9, 2, 2, 0, 2, 1, 0], [9, 2, 2, 0, 2, 0, 0], [19, 0, 5, 0, 5, 0, 0]],
            Measure::Lcss => [[15, 0, 2, 0, 2, 0, 0], [19, 0, 5, 2, 3, 0, 0], [19, 0, 5, 0, 5, 0, 0]],
            Measure::Edr => [[8, 0, 1, 0, 1, 0, 0], [9, 0, 2, 0, 2, 0, 0], [19, 0, 5, 0, 5, 0, 0]],
            Measure::Erp => [[9, 1, 2, 0, 4, 0, 0], [12, 0, 3, 0, 5, 1, 0], [19, 0, 5, 0, 7, 0, 0]],
        };
        rows.iter()
            .map(|r| SearchStats {
                nodes_visited: r[0],
                nodes_pruned: r[1],
                leaves_visited: r[2],
                leaves_pruned: r[3],
                exact_computations: r[4],
                exact_abandoned: r[5],
                bounds_abandoned: r[6],
            })
            .collect()
    }

    /// The one-element search's work on the paper's running example,
    /// pinned per measure: a change to the frontier that moves any counter
    /// of the per-partition search shows here.
    #[test]
    fn paper_dataset_top_k_stats_are_pinned() {
        let trajs = paper_dataset();
        let store = store_of(&trajs);
        let params = MeasureParams::with_eps(1.5);
        for measure in Measure::ALL {
            let config = RpTrieConfig::for_measure(measure).with_params(params).with_np(2);
            let trie = RpTrie::build(&store, grid8(), config);
            let got: Vec<SearchStats> =
                [1, 2, 5].iter().map(|&k| trie.top_k(&store, &query(), k).stats).collect();
            assert_eq!(got, pinned_stats(measure), "{measure}");
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
            RpTrie::search(&[(&trie, &store)], &q, Some(&no_t1), &c);
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
            let (sa, sb) = (
                RpTrie::search(&[(&t0, &p0)], &q, None, &c),
                RpTrie::search(&[(&t1, &p1)], &q, None, &c),
            );

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
        use std::sync::atomic::{AtomicBool, Ordering};

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
        // Another partition finding a perfect hit mid-search: the filter
        // publishes one on its first call, at the first leaf, so the bound
        // is zero by the time that leaf's node expands its children.
        let c = SharedTopK::new(1);
        let published = AtomicBool::new(false);
        let filter = |_: TrajId| {
            if !published.swap(true, Ordering::Relaxed) {
                c.publish(0.0, 999);
            }
            true
        };
        let stats = RpTrie::search(&[(&trie, &store)], &query(), Some(&filter), &c);
        assert!(
            stats.bounds_abandoned > 0,
            "expected skipped child bound pushes, stats {stats:?}"
        );
        assert_eq!(c.hits()[0].id, 999);
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
