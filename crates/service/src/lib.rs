//! Online serving layer over a REPOSE deployment: concurrent top-k
//! queries, dynamic inserts/deletes, compaction, and an LRU result cache.
//!
//! The paper's pipeline is build-once/query-forever: [`repose::Repose`]
//! freezes every partition's RP-Trie at construction. This crate adds the
//! online path a production deployment needs, without giving up exactness:
//!
//! * **Writes** go to one append-only *delta log* of arena segments
//!   (flat `TrajStore`s — the frozen layout's contiguous-scan property,
//!   extended to the write path) plus a tombstone map
//!   ([`ReposeService::insert`] / [`ReposeService::remove`] —
//!   upsert/delete semantics). Frozen tries are never mutated, and a
//!   delta row joins a partition only when compaction places it.
//! * **Queries** ([`ReposeService::query`]) search every frozen partition
//!   *and* the delta log against one live `SharedTopK` collector: delta
//!   candidates are scanned cheapest-stored-summary-bound first under the
//!   global threshold (hopeless ones abandoned or skipped), the survivors
//!   seed the trie search (`RpTrie::search`), and every accepted
//!   hit published anywhere tightens every later scan and descent —
//!   across partitions. A query runs as one *frontier task* per pool
//!   thread, in **wall-clock parallel** on a persistent worker pool: each
//!   task owns every `G`-th partition and every `G`-th live delta row and
//!   searches all of them in one best-first frontier, so nodes pop in
//!   global lower-bound order instead of one partition's heap at a time;
//!   [`ReposeService::query_batch`] is the same engine admitting a whole
//!   batch onto the pool with per-query collectors. Results are exactly
//!   what a freshly rebuilt index over the same live data would return.
//! * **Compaction** ([`ReposeService::compact`]) rebuilds every partition
//!   in place off-line — its frozen survivors plus the live delta rows
//!   whose id maps to it, on the deployment's grid — and swaps the
//!   deployment in atomically; readers are only blocked for the pointer
//!   swap.
//! * **Caching**: results are cached per (exact coordinate bits, k,
//!   measure) in a [`QueryCache`] and invalidated by effect: every write
//!   is noted in a ring, and an entry is served only if no write since
//!   its fill touches a hit id or, for an upsert, has an O(1) summary
//!   bound at or below the k-th distance (or lands on an answer short of
//!   k). A hit is bitwise the answer a search would give after the latest
//!   completed write; a compaction evicts nothing. The shard coordinator
//!   keeps its own `QueryCache` and notes every write it sends.
//! * **Durability & failure model** (opt-in via
//!   [`ServiceConfig::durability`], which has the details): every
//!   acknowledged write is logged *before* it is applied. The log's base
//!   is a checksummed zero-copy archive generation of the frozen
//!   deployment ([`repose_archive`]), installed at construction and by
//!   every compaction, which then truncates the log;
//!   [`ReposeService::recover`] attaches the newest usable generation and
//!   replays the log past it, restoring the exact acknowledged state
//!   after a crash (bitwise-identical query answers), and
//!   [`ReposeService::scrub`] re-verifies the live generation's checksums
//!   online. Overload is refused *explicitly*:
//!   [`ServiceConfig::max_inflight_queries`] sheds excess load with a
//!   typed [`ServiceError::Overloaded`]. Every admitted query is answered
//!   exactly; only the shard coordinator, which meets lost and slow
//!   shards, ever returns a degraded answer.
//!
//! Module map: `service` holds the config, the struct with its locked
//! `ServeState`, constructors, accessors and `stats()`; each path through
//! that state is one file — `query` (the one read engine), `write` (the
//! one `commit` behind every write entrance, the one `ServeState::apply`
//! recovery shares), `compact` (also the live-row rule) and `recover`.
//!
//! ```
//! use repose::{Repose, ReposeConfig};
//! use repose_distance::Measure;
//! use repose_model::{Dataset, Point, Trajectory};
//! use repose_service::ReposeService;
//!
//! let trajs: Vec<Trajectory> = (0..50)
//!     .map(|i| {
//!         let y = (i % 5) as f64;
//!         Trajectory::new(i, (0..8).map(|j| Point::new(j as f64, y)).collect())
//!     })
//!     .collect();
//! let repose = Repose::build(
//!     &Dataset::from_trajectories(trajs),
//!     ReposeConfig::new(Measure::Hausdorff).with_partitions(4).with_delta(0.5),
//! );
//! let service = ReposeService::new(repose);
//!
//! let query: Vec<Point> = (0..8).map(|j| Point::new(j as f64, 0.1)).collect();
//! assert_eq!(service.query(&query, 3).unwrap().hits.len(), 3);
//!
//! // Insert a brand-new, perfectly matching trajectory: visible at once.
//! service.insert(Trajectory::new(
//!     999,
//!     (0..8).map(|j| Point::new(j as f64, 0.1)).collect(),
//! )).unwrap();
//! let out = service.query(&query, 3).unwrap();
//! assert_eq!(out.hits[0].id, 999);
//!
//! // Merge the delta into freshly rebuilt frozen tries; answers unchanged.
//! service.compact().unwrap();
//! assert_eq!(service.query(&query, 3).unwrap().hits[0].id, 999);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod compact;
mod delta;
mod error;
mod query;
mod recover;
mod service;
mod stats;
mod write;

pub use cache::{CacheKey, QueryCache};
pub use error::ServiceError;
pub use query::ServiceOutcome;
pub use recover::RecoveryReport;
pub use service::{ReposeService, ServiceConfig};
pub use stats::ServiceStats;

// Durability types callers need to configure [`ServiceConfig::durability`]
// or drive fault-injection tests, re-exported for convenience.
pub use repose_durability::{DurabilityConfig, FailAction, FailPlan, FsyncPolicy, WalError};

// Archive types callers need to interpret [`ReposeService::scrub`] reports
// or inspect generations written via [`ServiceConfig::archive`].
pub use repose_archive::{ArchiveError, ScrubReport};
