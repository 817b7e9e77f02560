use crate::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned minimum bounding rectangle.
///
/// Used by the grid (`repose-zorder`), the R-tree substrate of the DFT
/// baseline, and the DITA baseline's pivot MBRs. An `Mbr` is always
/// non-degenerate in the sense `min.x <= max.x && min.y <= max.y` when built
/// through the provided constructors.
/// `repr(C)` so an `Mbr` embedded in an archived summary record has a
/// defined, build-independent byte layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Mbr {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Mbr {
    /// Creates an MBR from two corner points, normalizing the corner order.
    pub fn new(a: Point, b: Point) -> Self {
        Mbr {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The degenerate MBR covering a single point.
    pub fn from_point(p: Point) -> Self {
        Mbr { min: p, max: p }
    }

    /// Builds the tightest MBR enclosing all `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_points(points: &[Point]) -> Option<Self> {
        let first = points.first()?;
        let mut mbr = Mbr::from_point(*first);
        for p in &points[1..] {
            mbr.expand(*p);
        }
        Some(mbr)
    }

    /// An "empty" MBR that acts as the identity for [`Mbr::union`]:
    /// expanding it with any point yields that point's MBR.
    pub fn empty() -> Self {
        Mbr {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Returns `true` if this is the identity element from [`Mbr::empty`].
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Grows the MBR in place to cover `p`.
    pub fn expand(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// The smallest MBR covering both `self` and `other`.
    pub fn union(&self, other: &Mbr) -> Mbr {
        Mbr {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Whether the closed rectangles intersect.
    pub fn intersects(&self, other: &Mbr) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Whether `p` lies inside the closed rectangle.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether `other` is fully contained in `self` (closed containment).
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        self.contains(other.min) && self.contains(other.max)
    }

    /// Rectangle width (x span).
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Rectangle height (y span).
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Rectangle area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// Minimum Euclidean distance from `p` to the rectangle
    /// (zero when `p` is inside).
    ///
    /// The DTW lower bound of the paper (Eq. 15) uses this as `d'(q_i, g_j)`,
    /// the distance between a query point and a grid cell.
    pub fn min_dist(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Minimum Euclidean distance between two rectangles (zero if they
    /// intersect).
    pub fn min_dist_mbr(&self, other: &Mbr) -> f64 {
        let dx = (self.min.x - other.max.x).max(0.0).max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y).max(0.0).max(other.min.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

/// The square region with side `max(width, height)` centered on the
/// points' tight bounding box — the region `A` of Section III-A. `None`
/// when `points` yields nothing.
///
/// Every point lies inside the square: `center ∓ side / 2` can round past
/// the box it was computed from (for x-extremes 0.3 and 1.0 the left edge
/// comes out at 0.30000000000000004), so each edge is clamped to the tight
/// box and moves only when it missed. The sides then agree to within a
/// few ulps.
///
/// Shared by [`crate::Dataset::enclosing_square`],
/// [`crate::TrajStore::enclosing_square`] and the serving layer's
/// compaction when a write leaves the region, so the squaring rule cannot
/// drift between them.
pub fn enclosing_square_of<'a>(points: impl Iterator<Item = &'a Point>) -> Option<Mbr> {
    let mut mbr = Mbr::empty();
    for p in points {
        mbr.expand(*p);
    }
    if mbr.is_empty() {
        return None;
    }
    let side = mbr.width().max(mbr.height());
    let c = mbr.center();
    let half = side * 0.5;
    Some(Mbr {
        min: Point::new((c.x - half).min(mbr.min.x), (c.y - half).min(mbr.min.y)),
        max: Point::new((c.x + half).max(mbr.max.x), (c.y + half).max(mbr.max.y)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbr(x0: f64, y0: f64, x1: f64, y1: f64) -> Mbr {
        Mbr::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn new_normalizes_corners() {
        let m = Mbr::new(Point::new(5.0, 1.0), Point::new(2.0, 4.0));
        assert_eq!(m.min, Point::new(2.0, 1.0));
        assert_eq!(m.max, Point::new(5.0, 4.0));
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Point::new(1.0, 2.0),
            Point::new(-3.0, 5.0),
            Point::new(4.0, 0.5),
        ];
        let m = Mbr::from_points(&pts).unwrap();
        for p in pts {
            assert!(m.contains(p));
        }
        assert_eq!(m.min, Point::new(-3.0, 0.5));
        assert_eq!(m.max, Point::new(4.0, 5.0));
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(Mbr::from_points(&[]).is_none());
    }

    #[test]
    fn empty_is_union_identity() {
        let e = Mbr::empty();
        assert!(e.is_empty());
        let m = mbr(0.0, 0.0, 1.0, 1.0);
        assert_eq!(e.union(&m), m);
        assert_eq!(m.union(&e), m);
    }

    #[test]
    fn union_covers_both() {
        let a = mbr(0.0, 0.0, 1.0, 1.0);
        let b = mbr(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_mbr(&a));
        assert!(u.contains_mbr(&b));
    }

    #[test]
    fn intersects_is_symmetric_and_correct() {
        let a = mbr(0.0, 0.0, 2.0, 2.0);
        let b = mbr(1.0, 1.0, 3.0, 3.0);
        let c = mbr(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching edges count as intersecting (closed rectangles).
        let d = mbr(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let m = mbr(0.0, 0.0, 2.0, 2.0);
        assert_eq!(m.min_dist(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(m.min_dist(Point::new(0.0, 0.0)), 0.0);
    }

    #[test]
    fn min_dist_outside() {
        let m = mbr(0.0, 0.0, 2.0, 2.0);
        assert_eq!(m.min_dist(Point::new(5.0, 2.0)), 3.0);
        assert_eq!(m.min_dist(Point::new(5.0, 6.0)), 5.0); // 3-4-5 triangle
    }

    #[test]
    fn min_dist_mbr_zero_when_overlapping() {
        let a = mbr(0.0, 0.0, 2.0, 2.0);
        let b = mbr(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.min_dist_mbr(&b), 0.0);
        let c = mbr(5.0, 0.0, 6.0, 2.0);
        assert_eq!(a.min_dist_mbr(&c), 3.0);
    }

    #[test]
    fn enclosing_square_keeps_its_extreme_points() {
        let pts = [Point::new(0.3, 0.0), Point::new(1.0, 0.0)];
        let sq = enclosing_square_of(pts.iter()).unwrap();
        for p in pts {
            assert!(sq.contains(p), "{p:?} outside {sq:?}");
        }
        assert_eq!(sq.min.x, 0.3, "an edge that did not miss stays put");
    }

    proptest::proptest! {
        #[test]
        fn enclosing_square_covers_every_point(
            coords in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..12),
        ) {
            let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let sq = enclosing_square_of(pts.iter()).unwrap();
            for p in &pts {
                proptest::prop_assert!(sq.contains(*p), "{:?} outside {:?}", p, sq);
            }
            let scale = [sq.min.x, sq.min.y, sq.max.x, sq.max.y]
                .iter()
                .fold(1.0f64, |m, v| m.max(v.abs()));
            let tol = 8.0 * f64::EPSILON * scale;
            proptest::prop_assert!(
                (sq.width() - sq.height()).abs() <= tol,
                "not square: {} x {}",
                sq.width(),
                sq.height()
            );
        }
    }

    #[test]
    fn center_and_area() {
        let m = mbr(0.0, 0.0, 4.0, 2.0);
        assert_eq!(m.center(), Point::new(2.0, 1.0));
        assert_eq!(m.area(), 8.0);
        assert_eq!(m.width(), 4.0);
        assert_eq!(m.height(), 2.0);
    }
}
