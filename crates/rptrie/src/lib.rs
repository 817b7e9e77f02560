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
//! There is one search (Algorithm 2): [`RpTrie::search`]. It runs over
//! a slice of partitions' tries at once — one frontier, label paths
//! popped in global lower-bound order across the slice, the tries built
//! on one grid searched as one virtual trie, their union — and the
//! paper's local search over one partition is its one-element case. It keeps no result
//! heap of its own: it prunes with, and publishes every accepted hit
//! into, the query's [`SharedTopK`] collector, whose pool is the answer —
//! the paper's local heap and its driver-side merge in one. The optional
//! id filter is what the layers above add. [`RpTrie::top_k`] is the
//! one-element search under a private collector and no filter.
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

use repose_distance::{Measure, MeasureParams, SharedTopK};
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

    /// Runs a plain top-k query (Algorithm 2): [`RpTrie::search`] over
    /// this one trie, under a collector of its own and with no filter.
    /// `store` must be the arena the trie was built over.
    pub fn top_k(&self, store: &TrajStore, query: &[Point], k: usize) -> SearchResult {
        let collector = SharedTopK::new(k);
        let stats = RpTrie::search(&[(self, store)], query, None, &collector);
        SearchResult { hits: collector.hits(), stats }
    }

    /// The one local search: best-first over every trie of `parts` at
    /// once. It scores their trajectories into `collector` and returns
    /// the summed work counters.
    ///
    /// * `parts` — `(trie, store)` pairs of one deployment (one measure,
    ///   one parameter set), each store the arena its trie was built
    ///   over. All of their nodes share one frontier, so the search pops
    ///   in global bound order: a partition whose subtrees cannot beat
    ///   the k-th distance found in another is never descended. A
    ///   frontier entry is one label path and carries every `(partition,
    ///   node)` holding it among the tries built on one grid: a path's
    ///   incremental bound state depends only on its labels and the
    ///   grid, so it is pushed once per distinct child label, not once
    ///   per trie. Each member keeps its own pivot distances: a member
    ///   whose own `LBp` loses to the k-th distance leaves the path, the
    ///   path enters under the weakest remaining `LBp`, and at a leaf
    ///   each member's payload is gated by its own `LBt` and `LBp`
    ///   before the survivors verify as one candidate stream. Entries
    ///   order by `(lower bound, first member's partition, first
    ///   member's node)`; tries on different grids stay separate entries.
    ///   One pair is the paper's per-partition local search.
    /// * `filter` — restricts which *indexed* trajectories qualify
    ///   (tombstone checks, the temporal windows of `repose::temporal`).
    ///   Pruning stays sound under any filter: bounds hold for supersets
    ///   of the qualifying trajectories, and `dk` only tightens from
    ///   accepted hits.
    /// * `collector` — the query's top-k (normally a [`SharedTopK`] every
    ///   search of one query shares). The search re-reads its bound at
    ///   every pruning decision and publishes every accepted exact
    ///   distance into it, so concurrently executing searches tighten
    ///   each other mid-flight. The bound always over-approximates the
    ///   global k-th distance, so once every search has run the
    ///   collector's pool is the exact answer (see [`SharedTopK`] for the
    ///   argument).
    ///
    /// Exact: the collector ends up holding brute force's top-k over the
    /// accepted indexed trajectories and whatever else was published into
    /// it, up to tie resolution.
    pub fn search(
        parts: &[(&RpTrie, &TrajStore)],
        query: &[Point],
        filter: Option<&(dyn Fn(TrajId) -> bool + Sync)>,
        collector: &SharedTopK,
    ) -> SearchStats {
        for (trie, store) in parts {
            assert_eq!(
                store.len(),
                trie.built_over,
                "query must use the trajectory store the index was built over"
            );
        }
        search::search(parts, query, filter, collector)
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
