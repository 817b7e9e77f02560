use crate::{deinterleave, interleave};
use repose_model::{Mbr, Point};

/// A z-value: the bit-interleaved coordinates of a grid cell.
pub type ZValue = u64;

/// The regular `l x l` grid over the enclosing square region `A`
/// (Section III-A).
///
/// `l` is always a power of two. Constructing a grid from a requested cell
/// side `δ` rounds `l = U/δ` up to the next power of two and recomputes the
/// *effective* `δ = U/l` (so the effective `δ` is at most the requested one:
/// fidelity never degrades).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    region: Mbr,
    level: u8,
    l: u32,
    delta: f64,
}

impl Grid {
    /// Creates a grid with `2^level` cells per side over `region`.
    ///
    /// `region` must be a square (width == height up to floating point); it
    /// typically comes from `Dataset::enclosing_square`. `level` must be in
    /// `1..=31`.
    pub fn new(region: Mbr, level: u8) -> Self {
        assert!((1..=31).contains(&level), "level must be in 1..=31");
        assert!(
            (region.width() - region.height()).abs() <= 1e-9 * region.width().max(1.0),
            "region must be square"
        );
        let l = 1u32 << level;
        let delta = region.width() / l as f64;
        Grid { region, level, l, delta }
    }

    /// Creates the coarsest grid whose cell side is at most `delta`.
    pub fn with_delta(region: Mbr, delta: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        let u = region.width();
        let need = (u / delta).ceil().max(2.0);
        let level = (need.log2().ceil() as u8).clamp(1, 31);
        Grid::new(region, level)
    }

    /// The enclosing region `A`.
    pub fn region(&self) -> Mbr {
        self.region
    }

    /// Cells per side (`l`).
    pub fn cells_per_side(&self) -> u32 {
        self.l
    }

    /// Bits per coordinate (`log2 l`).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Effective cell side length `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// `√2 δ / 2`: the maximum distance between any point of a cell and the
    /// cell's reference point — the slack term of the paper's lower bounds.
    pub fn half_diagonal(&self) -> f64 {
        std::f64::consts::SQRT_2 * self.delta * 0.5
    }

    /// Grid coordinates of the cell containing `p`. Points outside the
    /// region are clamped to the border cells.
    pub fn cell_of(&self, p: Point) -> (u32, u32) {
        let fx = (p.x - self.region.min.x) / self.delta;
        let fy = (p.y - self.region.min.y) / self.delta;
        let ix = (fx.floor() as i64).clamp(0, (self.l - 1) as i64) as u32;
        let iy = (fy.floor() as i64).clamp(0, (self.l - 1) as i64) as u32;
        (ix, iy)
    }

    /// Z-value of the cell containing `p`.
    pub fn z_value(&self, p: Point) -> ZValue {
        let (ix, iy) = self.cell_of(p);
        interleave(ix, iy, self.level)
    }

    /// The reference point (cell center) of the cell with z-value `z`.
    pub fn reference_point(&self, z: ZValue) -> Point {
        let (ix, iy) = deinterleave(z, self.level);
        Point::new(
            self.region.min.x + (ix as f64 + 0.5) * self.delta,
            self.region.min.y + (iy as f64 + 0.5) * self.delta,
        )
    }

    /// The rectangle of the cell with z-value `z`.
    pub fn cell_mbr(&self, z: ZValue) -> Mbr {
        let (ix, iy) = deinterleave(z, self.level);
        let min = Point::new(
            self.region.min.x + ix as f64 * self.delta,
            self.region.min.y + iy as f64 * self.delta,
        );
        Mbr::new(min, Point::new(min.x + self.delta, min.y + self.delta))
    }

    /// Converts a trajectory into its sequence of z-values
    /// `Z = <z1, ..., zn>` (Definition 4).
    pub fn z_sequence(&self, points: &[Point]) -> Vec<ZValue> {
        points.iter().map(|p| self.z_value(*p)).collect()
    }

    /// Converts a trajectory into its reference trajectory
    /// `τ* = <p*_1, ..., p*_n>` (Definition 4).
    pub fn reference_trajectory(&self, points: &[Point]) -> Vec<Point> {
        points
            .iter()
            .map(|p| {
                let (ix, iy) = self.cell_of(*p);
                Point::new(
                    self.region.min.x + (ix as f64 + 0.5) * self.delta,
                    self.region.min.y + (iy as f64 + 0.5) * self.delta,
                )
            })
            .collect()
    }

    /// Z-sequence with *consecutive duplicate* z-values collapsed.
    ///
    /// Collapsing consecutive duplicates is lossless for prefix sharing in
    /// the trie and keeps reference trajectories short for slow-moving
    /// objects.
    pub fn z_sequence_dedup(&self, points: &[Point]) -> Vec<ZValue> {
        let mut out: Vec<ZValue> = Vec::with_capacity(points.len());
        for p in points {
            let z = self.z_value(*p);
            if out.last() != Some(&z) {
                out.push(z);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_grid(level: u8) -> Grid {
        Grid::new(Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)), level)
    }

    #[test]
    fn paper_running_example_grid() {
        // Fig. 1: 8x8 grid over [0,8)^2, cell side 1.
        let g = unit_grid(3);
        assert_eq!(g.cells_per_side(), 8);
        assert_eq!(g.delta(), 1.0);
        // Cell with horizontal coord 010=2, vertical 101=5 has z 011001.
        assert_eq!(g.z_value(Point::new(2.5, 5.5)), 0b011001);
    }

    #[test]
    fn with_delta_rounds_up_to_power_of_two() {
        let region = Mbr::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let g = Grid::with_delta(region, 3.0); // 10/3 = 3.3 -> l = 4
        assert_eq!(g.cells_per_side(), 4);
        assert!(g.delta() <= 3.0);
        assert_eq!(g.delta(), 2.5);
    }

    #[test]
    fn reference_point_is_cell_center() {
        let g = unit_grid(3);
        let z = g.z_value(Point::new(2.2, 5.9));
        assert_eq!(g.reference_point(z), Point::new(2.5, 5.5));
    }

    #[test]
    fn cell_mbr_contains_its_points() {
        let g = unit_grid(3);
        let p = Point::new(3.7, 1.2);
        let m = g.cell_mbr(g.z_value(p));
        assert!(m.contains(p));
        assert_eq!(m.width(), 1.0);
    }

    #[test]
    fn out_of_region_points_clamp() {
        let g = unit_grid(3);
        assert_eq!(g.cell_of(Point::new(-5.0, 100.0)), (0, 7));
        assert_eq!(g.cell_of(Point::new(8.0, 8.0)), (7, 7)); // right edge
    }

    #[test]
    fn half_diagonal_value() {
        let g = unit_grid(3);
        assert!((g.half_diagonal() - (2.0f64).sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn z_sequence_dedup_collapses_runs() {
        let g = unit_grid(3);
        let pts = [
            Point::new(0.1, 0.1),
            Point::new(0.2, 0.3), // same cell
            Point::new(1.5, 0.1), // new cell
            Point::new(0.4, 0.4), // back to the first cell: kept (non-consecutive)
        ];
        let z = g.z_sequence_dedup(&pts);
        assert_eq!(z.len(), 3);
        assert_eq!(z[0], z[2]);
    }

    #[test]
    fn reference_trajectory_matches_z_sequence() {
        let g = unit_grid(4);
        let pts = [Point::new(1.1, 2.3), Point::new(6.7, 0.2)];
        let rt = g.reference_trajectory(&pts);
        let zs = g.z_sequence(&pts);
        for (rp, z) in rt.iter().zip(zs) {
            assert_eq!(*rp, g.reference_point(z));
        }
    }

    #[test]
    #[should_panic(expected = "region must be square")]
    fn non_square_region_panics() {
        Grid::new(Mbr::new(Point::new(0.0, 0.0), Point::new(4.0, 8.0)), 3);
    }

    proptest! {
        #[test]
        fn point_within_half_diagonal_of_reference(
            x in 0.0f64..8.0, y in 0.0f64..8.0, level in 1u8..8
        ) {
            // The foundation of every lower bound in the paper:
            // d(p, p*) <= √2 δ/2 for p in the cell of p*.
            let g = unit_grid(level);
            let p = Point::new(x, y);
            let rp = g.reference_point(g.z_value(p));
            prop_assert!(p.dist(&rp) <= g.half_diagonal() + 1e-12);
        }

        #[test]
        fn z_roundtrip_cell(ix in 0u32..16, iy in 0u32..16) {
            let g = unit_grid(4);
            let z = interleave(ix, iy, 4);
            let c = g.reference_point(z);
            prop_assert_eq!(g.cell_of(c), (ix, iy));
            prop_assert_eq!(g.z_value(c), z);
        }
    }
}
