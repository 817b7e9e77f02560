use crate::{Mbr, Point, Segment};
use serde::{Deserialize, Serialize};

/// Identifier of a trajectory within a [`crate::Dataset`].
pub type TrajId = u64;

/// A finite, time-ordered sequence of sample points (Definition 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Unique identifier inside its dataset.
    pub id: TrajId,
    /// The ordered sample points.
    pub points: Vec<Point>,
}

impl Trajectory {
    /// Creates a trajectory from an id and points.
    pub fn new(id: TrajId, points: Vec<Point>) -> Self {
        Trajectory { id, points }
    }

    /// Number of sample points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trajectory has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Tightest bounding rectangle, or `None` when empty.
    pub fn mbr(&self) -> Option<Mbr> {
        Mbr::from_points(&self.points)
    }

    /// First sample point, if any.
    pub fn first(&self) -> Option<Point> {
        self.points.first().copied()
    }

    /// Last sample point, if any.
    pub fn last(&self) -> Option<Point> {
        self.points.last().copied()
    }

    /// Decomposes the trajectory into its line segments, tagged with the
    /// trajectory id and the segment's position. Used by the DFT baseline.
    pub fn segments(&self) -> Vec<Segment> {
        self.points
            .windows(2)
            .enumerate()
            .map(|(i, w)| Segment::new(self.id, i as u32, w[0], w[1]))
            .collect()
    }

    /// Splits the trajectory into chunks of at most `max_len` points,
    /// assigning fresh ids starting at `next_id`. Consecutive chunks share no
    /// points (the paper splits long trajectories "into multiple
    /// trajectories" without further detail; we use disjoint chunks).
    ///
    /// Returns the chunks and the next unused id.
    pub fn split(&self, max_len: usize, mut next_id: TrajId) -> (Vec<Trajectory>, TrajId) {
        assert!(max_len > 0, "max_len must be positive");
        if self.len() <= max_len {
            return (vec![self.clone()], next_id);
        }
        let mut out = Vec::with_capacity(self.len().div_ceil(max_len));
        for chunk in self.points.chunks(max_len) {
            out.push(Trajectory::new(next_id, chunk.to_vec()));
            next_id += 1;
        }
        (out, next_id)
    }

    /// Returns `true` when every point has finite coordinates.
    pub fn is_finite(&self) -> bool {
        self.points.iter().all(Point::is_finite)
    }

    /// Approximate in-memory size in bytes (id + point storage).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<TrajId>() + self.points.len() * std::mem::size_of::<Point>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(id: TrajId, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(id, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn basic_accessors() {
        let t = traj(7, &[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.first(), Some(Point::new(0.0, 0.0)));
        assert_eq!(t.last(), Some(Point::new(1.0, 1.0)));
    }

    #[test]
    fn empty_trajectory() {
        let t = Trajectory::new(0, vec![]);
        assert!(t.is_empty());
        assert!(t.mbr().is_none());
        assert_eq!(t.first(), None);
        assert!(t.segments().is_empty());
    }

    #[test]
    fn mbr_covers_points() {
        let t = traj(1, &[(0.0, 5.0), (2.0, -1.0), (4.0, 3.0)]);
        let m = t.mbr().unwrap();
        assert_eq!(m.min, Point::new(0.0, -1.0));
        assert_eq!(m.max, Point::new(4.0, 5.0));
    }

    #[test]
    fn segments_are_consecutive_pairs() {
        let t = traj(3, &[(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)]);
        let segs = t.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].traj_id, 3);
        assert_eq!(segs[0].seg_idx, 0);
        assert_eq!(segs[1].seg_idx, 1);
        assert_eq!(segs[0].b, segs[1].a);
    }

    #[test]
    fn split_short_returns_clone() {
        let t = traj(0, &[(0.0, 0.0), (1.0, 1.0)]);
        let (chunks, next) = t.split(10, 100);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], t);
        assert_eq!(next, 100);
    }

    #[test]
    fn split_long_produces_disjoint_chunks_and_new_ids() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        let t = traj(0, &pts);
        let (chunks, next) = t.split(4, 50);
        assert_eq!(chunks.len(), 3);
        assert_eq!(next, 53);
        assert_eq!(chunks[0].len(), 4);
        assert_eq!(chunks[1].len(), 4);
        assert_eq!(chunks[2].len(), 2);
        let total: usize = chunks.iter().map(Trajectory::len).sum();
        assert_eq!(total, 10);
        assert_eq!(chunks[0].id, 50);
        assert_eq!(chunks[2].id, 52);
    }

    #[test]
    #[should_panic(expected = "max_len must be positive")]
    fn split_zero_panics() {
        traj(0, &[(0.0, 0.0)]).split(0, 0);
    }

    #[test]
    fn mem_bytes_scales_with_len() {
        let t = traj(0, &[(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(t.mem_bytes(), 8 + 2 * 16);
    }
}
