//! Core trajectory data model for the REPOSE reproduction.
//!
//! This crate defines the geometric primitives ([`Point`], [`Mbr`], [`Segment`]),
//! the [`Trajectory`] type, and the [`Dataset`] container together with the
//! preprocessing rules the paper applies (drop trajectories shorter than 10
//! points, split trajectories longer than 1,000 points).
//!
//! Everything downstream — the distance measures, the z-order discretization,
//! the RP-Trie, and the distributed framework — is built on these types.
//!
//! ```
//! use repose_model::{Dataset, Point, Trajectory};
//!
//! let trip = Trajectory::new(7, vec![Point::new(0.0, 0.0), Point::new(1.0, 2.0)]);
//! assert_eq!(trip.len(), 2);
//!
//! let mut dataset = Dataset::new();
//! dataset.push(trip);
//! assert_eq!(dataset.len(), 1);
//! let square = dataset.enclosing_square().expect("non-empty dataset");
//! assert!(square.contains(Point::new(1.0, 2.0)));
//! ```

#![warn(missing_docs)]

mod dataset;
mod error;
pub mod io;
mod mbr;
mod point;
mod segment;
mod store;
mod trajectory;
pub mod wire;

pub use dataset::{Dataset, DatasetStats, PreprocessConfig};
pub use error::ModelError;
pub use mbr::{enclosing_square_of, Mbr};
pub use point::Point;
pub use segment::Segment;
pub use store::TrajStore;
pub use trajectory::{TrajId, Trajectory};
