//! The six trajectory similarity measures REPOSE supports (Sections II and
//! VI of the paper): Hausdorff, Frechet, DTW, LCSS, EDR, and ERP.
//!
//! Each measure's exact distance is written once per *algorithm*:
//!
//! * a frozen seed kernel in [`mod@reference`] — the oracle every test compares
//!   bits against, never called in production;
//! * one threshold-aware, early-abandoning kernel in [`within`]. The
//!   unbounded distance *is* that kernel at `+∞`
//!   (`within(+∞).unwrap_or(+∞)`), so there is no separate "full" dynamic
//!   program to keep in agreement with it. Hausdorff alone also keeps its
//!   one-pass unbounded kernel, a different algorithm from its two-pass
//!   threshold kernel.
//!
//! No algorithm has a second, SIMD copy. Where lanes measurably pay, the
//! one kernel is written over a lane type with `f64` as its 1-lane instance,
//! and [`backend`] picks the width: the Hausdorff kernels and the DTW
//! nearest-neighbour stage run at the active width, and lane-batched DTW /
//! Fréchet / ERP verification pushes the measure's column recurrence for up
//! to [`BATCH_LANES`] candidates against one query at once.
//!
//! Every entry point takes the shape [`MeasureParams`] gives it — `distance`,
//! `distance_within`, and their `*_in` forms over a caller-owned
//! [`DistScratch`]; the per-measure free functions (`dtw(a, b)`, …) are the
//! classic unbounded forms only.
//!
//! Each dynamic-program measure (Fréchet, DTW, ERP, EDR, LCSS) has one
//! column recurrence, and both the exact kernels and the RP-Trie's
//! *incremental bounds* push it (Section IV-C, Algorithm 1): when a
//! reference trajectory grows by one point, only one new column of the
//! distance matrix is computed, in `O(m)`, from the previous one. The
//! columns ([`DtwColumn`], [`FrechetColumn`], [`ErpColumn`], [`EdrColumn`],
//! [`LcssColumn`]) take their ground cost from the caller — the cell
//! distance `d'` for a bound, the point's exact cost for a kernel. DTW's
//! column also pushes a node's siblings side by side
//! ([`DtwColumn::push_cells`]), in SIMD lanes where the backend has them.
//!
//! The query's one top-k lives here too: [`SharedTopK`], the collector
//! every search of one query — trie descent, delta scan, baseline
//! refinement ([`MeasureParams::refine_by_bound`]) — prunes with and
//! publishes into, and whose pool is the query's answer.
//!
//! The lint attributes confine `unsafe` to the AVX2 lane type
//! (`simd::avx2`), the one dispatch site that enters it, and the
//! summaries' `Pod` impl.
//!
//! ```
//! use repose_distance::{hausdorff, Measure, MeasureParams};
//! use repose_model::Point;
//!
//! let a = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
//! let b = vec![Point::new(0.0, 3.0), Point::new(1.0, 3.0)];
//! assert_eq!(hausdorff(&a, &b), 3.0);
//!
//! // The uniform entry point used by the index: measure + params.
//! let params = MeasureParams::with_eps(0.5);
//! assert_eq!(params.distance(Measure::Hausdorff, &a, &b), 3.0);
//! assert!(Measure::Hausdorff.is_metric());
//! assert!(!Measure::Dtw.is_metric());
//!
//! // Threshold-aware verification: the early-abandoning kernel returns the
//! // exact distance below the threshold and refutes the candidate (usually
//! // far cheaper than the full kernel) at or above it.
//! assert_eq!(params.distance_within(Measure::Hausdorff, &a, &b, 5.0), Some(3.0));
//! assert_eq!(params.distance_within(Measure::Hausdorff, &a, &b, 2.0), None);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
mod column;
mod dtw;
mod edr;
mod erp;
mod frechet;
mod hausdorff;
mod lcss;
mod measure;
pub mod reference;
mod scratch;
pub(crate) mod simd;
mod shared;
mod summary;
pub mod within;

pub use backend::{active_backend, available_backends, force_backend, Backend};
pub use column::{DpColumn, DtwColumn, EdrColumn, ErpColumn, FrechetColumn, LcssColumn};
pub use dtw::dtw;
pub use edr::edr;
pub use erp::erp;
pub use frechet::frechet;
pub use hausdorff::{hausdorff, HausdorffState};
pub use lcss::{lcss_distance, lcss_length};
pub use measure::{Measure, MeasureParams, RefineEvent, BATCH_LANES};
pub use scratch::DistScratch;
pub use shared::{Hit, SharedTopK, ThresholdSource};
pub use summary::TrajSummary;
pub use within::{bound_exceeds, just_above};
