//! Online serving layer over a REPOSE deployment: concurrent top-k
//! queries, dynamic inserts/deletes, compaction, and an LRU result cache.
//!
//! The paper's pipeline is build-once/query-forever: [`repose::Repose`]
//! freezes every partition's RP-Trie at construction. This crate adds the
//! online path a production deployment needs, without giving up exactness:
//!
//! * **Writes** go to per-partition append-only *delta arena segments*
//!   (flat `TrajStore`s — the frozen layout's contiguous-scan property,
//!   extended to the write path) plus a tombstone map
//!   ([`ReposeService::insert`] / [`ReposeService::remove`] —
//!   upsert/delete semantics). Frozen tries are never mutated.
//! * **Queries** ([`ReposeService::query`]) search every frozen partition
//!   *and* its delta against one live `SharedTopK` collector: delta
//!   candidates are scanned cheapest-stored-summary-bound first under the
//!   global threshold (hopeless ones abandoned or skipped), the survivors
//!   seed the trie search (`RpTrie::search`), and every accepted
//!   hit published anywhere tightens every later scan and descent —
//!   across partitions. The per-partition tasks run **wall-clock
//!   parallel** on a persistent worker pool, dispatched in *bound order*
//!   (most promising partition first, so it publishes first);
//!   [`ReposeService::query_batch`] is the same engine admitting a whole
//!   batch onto the pool with per-query collectors. Results are exactly what a freshly
//!   rebuilt index over the same live data would return.
//! * **Compaction** ([`ReposeService::compact`]) rebuilds *only the
//!   partitions dirtied since the last compact* off-line and swaps the
//!   deployment in atomically; readers are only blocked for the pointer
//!   swap. [`ReposeService::compact_full`] forces the global re-partition.
//! * **Caching**: results are cached per (exact coordinate bits, k,
//!   measure) in a [`QueryCache`] and invalidated by a global write
//!   version — a cache hit is never staler than the latest completed
//!   write. The shard coordinator keeps its own `QueryCache`.
//! * **Durability & failure model** (opt-in via
//!   [`ServiceConfig::durability`]): every acknowledged write is logged
//!   *before* it is applied, compaction checkpoints truncate the log, and
//!   [`ReposeService::recover`] rebuilds the exact acknowledged state
//!   after a crash (bitwise-identical query answers). Overload is
//!   refused *explicitly*: [`ServiceConfig::max_inflight_queries`] sheds
//!   excess load with a typed [`ServiceError::Overloaded`]. Every
//!   admitted query is answered exactly; only the shard coordinator,
//!   which meets lost and slow shards, ever returns a degraded answer.
//! * **Persistent archives** (opt-in via [`ServiceConfig::archive`],
//!   which has the details): construction and every compaction install a
//!   checksummed zero-copy archive of the frozen deployment
//!   ([`repose_archive`]) that [`ReposeService::recover`] attaches
//!   instead of rebuilding; [`ReposeService::scrub`] re-verifies the live
//!   generation's checksums online.
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
