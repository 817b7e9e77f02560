//! REPOSE: distributed top-k trajectory similarity search with local
//! reference point tries — the paper's end-to-end framework (Section V).
//!
//! Every query front of [`Repose`] — [`Repose::query`],
//! [`Repose::query_batch`] and [`Repose::query_where`] — is the same
//! distributed job: one task per partition running
//! [`repose_rptrie::RpTrie::search`] against one shared top-k collector
//! per query, whose pool is the global top-k.
//!
//! ```
//! use repose::{Repose, ReposeConfig, PartitionStrategy};
//! use repose_distance::Measure;
//! use repose_model::{Dataset, Point, Trajectory};
//!
//! // A toy dataset: straight trips at different offsets.
//! let trajs: Vec<Trajectory> = (0..100)
//!     .map(|i| {
//!         let y = (i % 10) as f64;
//!         Trajectory::new(i, (0..12).map(|j| Point::new(j as f64, y)).collect())
//!     })
//!     .collect();
//! let dataset = Dataset::from_trajectories(trajs);
//!
//! let config = ReposeConfig::new(Measure::Hausdorff)
//!     .with_partitions(4)
//!     .with_delta(0.5);
//! let repose = Repose::build(&dataset, config);
//!
//! let query: Vec<Point> = (0..12).map(|j| Point::new(j as f64, 0.2)).collect();
//! let outcome = repose.query(&query, 3);
//! // The ten y = 0 trips (ids 0, 10, …, 90) tie for closest; which three
//! // of them make the cut is not fixed.
//! assert_eq!(outcome.hits.len(), 3);
//! assert!(outcome.hits.iter().all(|h| h.dist == 0.2 && h.id % 10 == 0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod framework;
mod partition;
pub mod temporal;

pub use config::ReposeConfig;
pub use framework::{PartitionView, QueryOutcome, Repose};
pub use partition::{partition_slots, PartitionStrategy};
pub use repose_distance::Hit;
pub use temporal::{TemporalRepose, TimeWindow};
