use crate::{Mbr, Point, TrajId};
use serde::{Deserialize, Serialize};

/// A directed line segment of a trajectory, tagged with its origin.
///
/// The DFT baseline (Xie et al., PVLDB'17) indexes trajectories at segment
/// granularity; this type is its unit of storage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Trajectory the segment belongs to.
    pub traj_id: TrajId,
    /// Zero-based position of the segment within its trajectory.
    pub seg_idx: u32,
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    pub fn new(traj_id: TrajId, seg_idx: u32, a: Point, b: Point) -> Self {
        Segment { traj_id, seg_idx, a, b }
    }

    /// Bounding rectangle of the segment.
    pub fn mbr(&self) -> Mbr {
        Mbr::new(self.a, self.b)
    }

    /// Segment midpoint — the "centroid" DFT partitions by.
    pub fn centroid(&self) -> Point {
        self.a.midpoint(&self.b)
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.a.dist(&self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(0, 0, Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn mbr_and_centroid() {
        let s = seg(0.0, 0.0, 4.0, 2.0);
        assert_eq!(s.centroid(), Point::new(2.0, 1.0));
        let m = s.mbr();
        assert_eq!(m.min, Point::new(0.0, 0.0));
        assert_eq!(m.max, Point::new(4.0, 2.0));
    }

    #[test]
    fn degenerate_segment_is_point_distance() {
        let s = seg(1.0, 1.0, 1.0, 1.0);
        assert_eq!(s.length(), 0.0);
    }
}
