//! Z-order discretization of trajectories (Section III-A of the paper) and
//! the geohash encoding used by the heterogeneous global partitioning
//! strategy (Section V-B).
//!
//! A square region `A` with side `U` is partitioned by a regular `l x l`
//! grid with cell side `δ` (`l = U/δ`, a power of two). Every cell has a
//! z-value (bit-interleaved coordinates) and a *reference point* (its
//! center); a trajectory maps to the *reference trajectory* of the cells its
//! points fall in.
//!
//! ```
//! use repose_model::{Mbr, Point};
//! use repose_zorder::{interleave, Grid};
//!
//! // An 8x8 grid (level 3) over a 8-unit square: cell side 1.
//! let grid = Grid::new(Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)), 3);
//! assert_eq!(grid.cells_per_side(), 8);
//! assert_eq!(grid.delta(), 1.0);
//!
//! // A point's z-value is its bit-interleaved cell coordinates, and its
//! // reference point is that cell's center.
//! let p = Point::new(2.5, 1.5);
//! assert_eq!(grid.cell_of(p), (2, 1));
//! assert_eq!(grid.z_value(p), interleave(2, 1, 3));
//! let rp = grid.reference_point(grid.z_value(p));
//! assert_eq!((rp.x, rp.y), (2.5, 1.5));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod geohash;
mod grid;
mod zcurve;

pub use geohash::{geohash_cell, geohash_key, GeohashKey};
pub use grid::{Grid, ZValue};
pub use zcurve::{deinterleave, interleave};
