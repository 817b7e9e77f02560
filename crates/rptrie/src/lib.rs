//! The Reference Point Trie (RP-Trie) — the paper's core index
//! (Sections III and IV).
//!
//! Trajectories are discretized into reference trajectories (sequences of
//! grid-cell z-values); the trie indexes those sequences. Query processing
//! traverses the trie best-first, ordered by incrementally-computed lower
//! bounds:
//!
//! * `LBo` — one-side lower bound on internal nodes (Definition 6),
//! * `LBt` — two-side lower bound on leaf nodes (Definition 7),
//! * `LBp` — pivot-based lower bound for metric measures (Section IV-D).
//!
//! There is one search (Algorithm 2): [`RpTrie::search`]. It keeps no
//! result heap of its own: it prunes with, and publishes every accepted
//! hit into, the query's [`SharedTopK`] collector, whose pool is the
//! answer — the paper's local heap and its driver-side merge in one.
//! The optional id filter is what the layers above add.
//! [`RpTrie::top_k`] is the same search under a private collector and no
//! filter.
//!
//! [`SharedTopK`]: repose_distance::SharedTopK
//!
//! The physical layout is the paper's succinct two-layer structure: bitmap
//! (LOUDS-dense) upper levels and byte-serialized lower levels. For the
//! order-independent Hausdorff measure, the builder applies the z-value
//! re-arrangement optimization (Section III-C): a greedy hitting-set
//! construction that maximizes prefix sharing.
//!
//! ```
//! use repose_model::{Mbr, Point, TrajStore};
//! use repose_rptrie::{RpTrie, RpTrieConfig};
//! use repose_distance::Measure;
//! use repose_zorder::Grid;
//!
//! // The flat point arena queries read contiguous memory from.
//! let mut store = TrajStore::new();
//! for i in 0..30u64 {
//!     let y = (i % 6) as f64;
//!     let pts: Vec<Point> = (0..5).map(|j| Point::new(j as f64, y)).collect();
//!     store.push(i, &pts);
//! }
//! let grid = Grid::new(Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)), 3);
//! let trie = RpTrie::build(&store, grid, RpTrieConfig::for_measure(Measure::Hausdorff));
//!
//! let query = vec![Point::new(0.0, 0.3), Point::new(4.0, 0.3)];
//! let result = trie.top_k(&store, &query, 3);
//! assert_eq!(result.hits[0].id, 0); // the y = 0 row is nearest
//! // Best-first search visited the trie instead of scanning everything.
//! assert!(result.stats.exact_computations < store.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bounds;
mod builder;
mod config;
mod frozen;
#[cfg(test)]
mod frozen_tests;
mod pivot;
mod search;

pub use builder::{BuildTrie, ZSeqPolicy};
pub use config::RpTrieConfig;
pub use frozen::{FrozenTrie, FrozenTrieParts, LeafRef, NodeId};
pub use pivot::{select_pivots, PivotSet};
pub use repose_distance::Hit;
pub use search::{SearchResult, SearchStats};

use repose_distance::{Measure, MeasureParams, SharedTopK, ThresholdSource};
use repose_model::{Point, TrajId, TrajStore};
use repose_zorder::Grid;

/// A built RP-Trie over one partition of trajectories.
///
/// The trie does not own the trajectories; queries must be given the same
/// [`TrajStore`] the index was built from (this mirrors the paper's
/// `RpTraj` packaging of `(trajectory array, RP-Trie)` inside one RDD
/// element — the owning pair lives in the `repose` crate). The store is a
/// flat point arena, so leaf verification reads contiguous memory instead
/// of chasing per-trajectory heap islands.
#[derive(Debug, Clone)]
pub struct RpTrie {
    frozen: FrozenTrie,
    grid: Grid,
    config: RpTrieConfig,
    pivots: PivotSet,
    built_over: usize,
}

impl RpTrie {
    /// Builds an RP-Trie over `trajs` using `grid` for discretization.
    ///
    /// Policy decisions made from `config.measure` (Section VI):
    /// * Hausdorff — full z-value dedup + greedy re-arrangement (when
    ///   `config.optimize`), pivots enabled;
    /// * Frechet — consecutive dedup, pivots enabled;
    /// * ERP — raw sequence, pivots enabled;
    /// * DTW / LCSS / EDR — basic trie, no pivots.
    pub fn build(store: &TrajStore, grid: Grid, config: RpTrieConfig) -> Self {
        let pivots = if config.measure.is_metric() && config.np > 0 {
            select_pivots(store, &config)
        } else {
            PivotSet::empty()
        };
        let build = BuildTrie::construct(store, &grid, &config, &pivots);
        let frozen = build.freeze(&grid, &config);
        RpTrie { frozen, grid, config, pivots, built_over: store.len() }
    }

    /// Reassembles a trie from prebuilt parts — the archive attach path,
    /// which must not re-run construction. `built_over` is the length of
    /// the [`TrajStore`] the frozen trie's member slots index into; every
    /// query asserts its store against it.
    pub fn from_parts(
        frozen: FrozenTrie,
        grid: Grid,
        config: RpTrieConfig,
        pivots: PivotSet,
        built_over: usize,
    ) -> Self {
        RpTrie { frozen, grid, config, pivots, built_over }
    }

    /// The store length this trie was built over (see
    /// [`RpTrie::from_parts`]).
    pub fn built_over(&self) -> usize {
        self.built_over
    }

    /// Runs a plain top-k query (Algorithm 2): [`RpTrie::search`] under a
    /// collector of its own, with no filter. `store` must be the arena the
    /// trie was built over.
    pub fn top_k(&self, store: &TrajStore, query: &[Point], k: usize) -> SearchResult {
        let collector = SharedTopK::new(k);
        let stats = self.search(store, query, None, &collector);
        SearchResult { hits: collector.hits(), stats }
    }

    /// The one local search. It scores this trie's trajectories into
    /// `collector` and returns its work counters.
    ///
    /// * `filter` — restricts which *indexed* trajectories qualify
    ///   (tombstone checks, the temporal windows of `repose::temporal`).
    ///   Pruning stays sound under any filter: bounds hold for supersets
    ///   of the qualifying trajectories, and `dk` only tightens from
    ///   accepted hits.
    /// * `collector` — the query's top-k (normally a [`SharedTopK`] every
    ///   partition of one query shares). The search re-reads its bound at
    ///   every pruning decision and publishes every accepted exact
    ///   distance into it, so concurrently executing partitions tighten
    ///   each other mid-flight. The bound always over-approximates the
    ///   global k-th distance, so once every search has run the
    ///   collector's pool is the exact answer (see [`SharedTopK`] for the
    ///   argument).
    ///
    /// Exact: the collector ends up holding brute force's top-k over the
    /// accepted indexed trajectories and whatever else was published into
    /// it, up to tie resolution.
    pub fn search(
        &self,
        store: &TrajStore,
        query: &[Point],
        filter: Option<&(dyn Fn(TrajId) -> bool + Sync)>,
        collector: &dyn ThresholdSource,
    ) -> SearchStats {
        assert_eq!(
            store.len(),
            self.built_over,
            "query must use the trajectory store the index was built over"
        );
        search::search(self, store, query, filter, collector)
    }

    /// A cheap lower bound on the distance from `query` to *every*
    /// trajectory indexed by this trie: the minimum one-cell `LBo` over
    /// the root's children (no pivot distances are computed, so this costs
    /// `O(children × |query|)` and no exact kernel invocations).
    ///
    /// `INFINITY` for an empty trie. Used by the serving layer to schedule
    /// the most promising partitions of a query first; for measures
    /// without a sound internal bound (LCSS) this returns `0.0` and the
    /// caller falls back to its default ordering.
    pub fn root_bound(&self, query: &[Point]) -> f64 {
        if query.is_empty() {
            return 0.0;
        }
        let kids = self.frozen.children(self.frozen.root());
        if kids.is_empty() {
            return f64::INFINITY;
        }
        if self.config.measure == Measure::Lcss {
            return 0.0;
        }
        let base = bounds::BoundState::new(self.config.measure, &self.config.params, query);
        let mut best = f64::INFINITY;
        for (z, _) in kids {
            let mut st = base.clone();
            st.push(query, &self.grid, z, &self.config.params);
            best = best.min(st.lbo(&self.grid));
        }
        best
    }

    /// The frozen physical trie.
    pub fn frozen(&self) -> &FrozenTrie {
        &self.frozen
    }

    /// The discretization grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The build configuration.
    pub fn config(&self) -> &RpTrieConfig {
        &self.config
    }

    /// The selected pivot trajectories (empty for non-metric measures).
    pub fn pivots(&self) -> &PivotSet {
        &self.pivots
    }

    /// Number of trie nodes (Fig. 7's "# of trie nodes").
    pub fn node_count(&self) -> usize {
        self.frozen.node_count()
    }

    /// Approximate index size in bytes (the paper's IS metric).
    pub fn mem_bytes(&self) -> usize {
        self.frozen.mem_bytes() + self.pivots.mem_bytes()
    }

    /// The measure this index serves.
    pub fn measure(&self) -> Measure {
        self.config.measure
    }

    /// The measure parameters this index serves.
    pub fn params(&self) -> MeasureParams {
        self.config.params
    }
}
