//! The column recurrences of the five dynamic-program measures, each
//! written once.
//!
//! A column is the DP state of a fixed query (the rows) against a
//! reference sequence that grows one element at a time: pushing an element
//! computes one new column from the previous one in `O(m)`. Two callers
//! push the same columns and differ only in the ground cost they supply:
//!
//! * the RP-Trie's incremental bounds (Section VI, Algorithm 1) push
//!   reference *cells* with an optimistic cost — the cell distance `d'`, a
//!   reference point's distance, or "could match" for EDR/LCSS — and read
//!   the newest column's minimum as `LBo` and its last cell as `LBt`;
//! * the exact threshold kernels ([`crate::within`]) push the candidate's
//!   points with their exact cost over a [`crate::DistScratch`] buffer, and
//!   abandon once the column proves the distance reaches the threshold.
//!
//! Every recurrence walks the column with zipped iterators and carries the
//! diagonal predecessor in a register, so the inner loop has no bounds
//! checks. A cell is the same expression of the same operands whichever way
//! the matrix is walked (row-major seed oracle, column-major here), `f64`
//! `min`/`max` of non-NaN values is exact and `u32` arithmetic is exact, so
//! every walk gives the seed kernels' bits.
//!
//! The DTW/Fréchet and ERP recurrences are written over
//! [`crate::backend::Lanes`], so the same source pushes one column (`f64`:
//! the trie bounds and the single-pair kernels) or several side by side
//! (AVX2 lanes: batched verification's candidates, in `crate::simd::batch`,
//! and a trie node's DTW siblings, [`DtwColumn::push_cells`]). Where a
//! transition reads and writes its cells is a [`Rows`] accessor: a column in
//! place, or a sibling group reading one parent and writing each child.
//! EDR's and LCSS's integer columns have one lane only.
//!
//! The recurrences are `#[inline(always)]`: a column is as short as a
//! query (tens of points), so a call per column is measurable — on a
//! 2-vCPU x86-64 VM, EDR's exact kernel ran about a quarter slower when the
//! compiler declined to inline its column push.

use crate::backend::{dispatch, Kernel, Lanes};
use repose_model::{Mbr, Point};

/// `d ⊕ pred`: DTW adds the ground cost to the cheapest predecessor,
/// Fréchet takes the larger of the two.
#[inline(always)]
fn step<V: Lanes, const MAX: bool>(d: V, pred: V) -> V {
    if MAX {
        d.max(pred)
    } else {
        d + pred
    }
}

/// Where a DTW/Fréchet column transition reads `f_{i,j-1}` and writes
/// `f_{i,j}`, for `V::W` columns side by side.
pub(crate) trait Rows<V> {
    /// Replaces each row's cell `c`, in row order, by `cell(c, q)`, `q` the
    /// row's query point.
    fn update(self, query: &[Point], cell: impl FnMut(V, &Point) -> V);
}

/// A column held in place, row `i`'s `W` lanes at `[i * W, (i + 1) * W)`.
impl<V: Lanes> Rows<V> for &mut [f64] {
    #[inline(always)]
    fn update(self, query: &[Point], mut cell: impl FnMut(V, &Point) -> V) {
        for (c, q) in self.chunks_exact_mut(V::W).zip(query) {
            cell(V::load(c), q).store(c);
        }
    }
}

/// One DTW (`MAX = false`, Eq. 15) or discrete-Fréchet (`MAX = true`,
/// Eq. 9) column transition in each of `V`'s lanes; `ground(q)` is the
/// ground cost of query point `q` against the new reference element.
/// Returns the new column's minimum.
///
/// The first column is `f_{i,1} = d(q_i, p_1) ⊕ f_{i-1,1}`, a prefix sum
/// (running max) seeded with `f_{0,0} = 0` — row 1 takes `d ⊕ 0 = d` for
/// the non-negative costs — and never reads `col`. Later columns' row 1
/// takes `min(+∞, f_{1,j-1}, +∞) = f_{1,j-1}` exactly, with no branch.
#[inline(always)]
pub(crate) fn advance<V: Lanes, const MAX: bool>(
    col: impl Rows<V>,
    first: bool,
    query: &[Point],
    ground: impl Fn(&Point) -> V,
) -> V {
    let inf = V::splat(f64::INFINITY);
    // diag = f_{i-1,j-1}, up = f_{i-1,j}; in the first column `up` starts
    // as f_{0,0}, row 1's one finite predecessor.
    let (mut diag, mut cmin) = (inf, inf);
    let mut up = V::splat(if first { 0.0 } else { f64::INFINITY });
    // One closure with one call site: LLVM then inlines it, and in the AVX2
    // instance a closure left out of line runs without the wide registers.
    col.update(query, |old, q| {
        let pred = if first { up } else { diag.min(old).min(up) };
        let new = step::<V, MAX>(ground(q), pred);
        (diag, up) = (old, new);
        cmin = cmin.min(new);
        new
    });
    cmin
}

/// Two [`advance`] transitions (not the first column) in one pass: the
/// buffer holds column `j-1` on entry and column `j+1` on exit.
///
/// Each cell is computed from exactly the same operands in the same order
/// as two successive [`advance`] calls — results are bit-identical — but
/// the two columns' serial min-chains interleave in the pipeline, so the
/// chain-latency-bound DP runs substantially faster. Returns both
/// columns' minima (callers that abandon check them in column order).
#[inline(always)]
pub(crate) fn advance2<const MAX: bool>(
    col: &mut [f64],
    query: &[Point],
    ground1: impl Fn(&Point) -> f64,
    ground2: impl Fn(&Point) -> f64,
) -> (f64, f64) {
    debug_assert_eq!(col.len(), query.len());
    let (mut cmin1, mut cmin2) = (f64::INFINITY, f64::INFINITY);
    // a = f_{i-1,j-1}, b = f_{i-1,j}, c2 = f_{i-1,j+1}.
    let (mut a, mut b, mut c2) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (c, q) in col.iter_mut().zip(query) {
        let old = *c; // f_{i,j-1}
        let v1 = step::<f64, MAX>(ground1(q), a.min(old).min(b));
        let v2 = step::<f64, MAX>(ground2(q), b.min(v1).min(c2));
        a = old;
        b = v1;
        c2 = v2;
        *c = v2;
        if v1 < cmin1 {
            cmin1 = v1;
        }
        if v2 < cmin2 {
            cmin2 = v2;
        }
    }
    (cmin1, cmin2)
}

/// Incremental DTW (`MAX = false`) or discrete-Fréchet (`MAX = true`)
/// column (Sections VI-A and VI-B): the last column of the distance matrix
/// between a fixed query (rows) and a reference sequence growing one
/// element at a time,
///
/// ```text
/// f_{i,j} = d(q_i, p*_j) ⊕ min(f_{i-1,j-1}, f_{i-1,j}, f_{i,j-1})
/// ```
///
/// with `⊕` = `+` (Eq. 15) or `max` (Eq. 9). `cmin` of the newest column is
/// the one-side bound (Eqs. 13, 7) and `last` (`f_{m,n}`) the two-side bound
/// (Eqs. 14, 8). The ground cost is caller-supplied, so the trie search can
/// use the minimum distance from a query point to a grid *cell* (`d'`),
/// which DTW needs because it does not obey the triangle inequality.
#[derive(Debug, Clone)]
pub struct DpColumn<const MAX: bool> {
    pub(crate) col: Vec<f64>,
    pub(crate) cmin: f64,
    len: usize,
}

/// The incremental DTW column (see [`DpColumn`]).
pub type DtwColumn = DpColumn<false>;

/// The incremental discrete-Fréchet column (see [`DpColumn`]).
pub type FrechetColumn = DpColumn<true>;

impl<const MAX: bool> DpColumn<MAX> {
    /// State for a query with `m` points, before any reference element.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "query must be non-empty");
        DpColumn { col: vec![0.0; m], cmin: f64::INFINITY, len: 0 }
    }

    /// Number of reference elements consumed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no reference element has been consumed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes the next reference point with Euclidean ground distance.
    pub fn push(&mut self, query: &[Point], p: Point) {
        self.push_with(query, |q| q.dist(&p));
    }

    /// Pushes the next reference element with a caller-supplied ground
    /// distance `d(q_i, ·)`.
    pub fn push_with(&mut self, query: &[Point], ground: impl Fn(&Point) -> f64) {
        debug_assert_eq!(query.len(), self.col.len());
        self.cmin = advance::<f64, MAX>(&mut self.col[..], self.len == 0, query, ground);
        self.len += 1;
    }

    /// Minimum of the most recently added column (the one-side bound).
    pub fn cmin(&self) -> f64 {
        self.cmin
    }

    /// `f_{m,n}` between the query and the consumed reference prefix (the
    /// two-side bound). Only meaningful when `len() > 0`.
    pub fn last(&self) -> f64 {
        *self.col.last().expect("non-empty query")
    }
}

impl DtwColumn {
    /// Sibling expansion: `children[s]` becomes this column with one more
    /// reference element whose ground cost is `cells[s].min_dist(q)` — bit
    /// for bit `self.clone()` followed by
    /// `push_with(query, |q| cells[s].min_dist(*q))` — without allocating
    /// when the children's buffers already fit (any column of a query of
    /// this length does; their old contents are overwritten).
    ///
    /// The siblings advance `W` per pass over the query, the active
    /// backend's lane count, and the parent column is read once per pass.
    pub fn push_cells(&self, query: &[Point], cells: &[Mbr], children: &mut [DtwColumn]) {
        assert_eq!(cells.len(), children.len(), "one cell per child");
        debug_assert_eq!(query.len(), self.col.len());
        for child in children.iter_mut() {
            child.col.resize(self.col.len(), 0.0);
            child.len = self.len + 1;
        }
        dispatch(PushCells { parent: self, query, cells, children });
    }
}

/// [`DtwColumn::push_cells`] at one lane width: lane `s` pushes `cells[s]`
/// onto the parent (lanes past the last sibling repeat it and are never
/// written back).
struct PushCells<'a> {
    parent: &'a DtwColumn,
    query: &'a [Point],
    cells: &'a [Mbr],
    children: &'a mut [DtwColumn],
}

impl Kernel for PushCells<'_> {
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(self) {
        let (parent, first) = (&self.parent.col[..], self.parent.len == 0);
        for (cells, kids) in self.cells.chunks(V::W).zip(self.children.chunks_mut(V::W)) {
            let cell = |s: usize| &cells[s.min(cells.len() - 1)];
            let (lo_x, lo_y) = (V::from_fn(|s| cell(s).min.x), V::from_fn(|s| cell(s).min.y));
            let (hi_x, hi_y) = (V::from_fn(|s| cell(s).max.x), V::from_fn(|s| cell(s).max.y));
            // `Mbr::min_dist`'s operation order. Where the two `max`es meet
            // a signed zero they may pick the other zero than `f64::max`;
            // squaring erases the difference.
            let ground = |q: &Point| {
                let (qx, qy, zero) = (V::splat(q.x), V::splat(q.y), V::splat(0.0));
                let dx = (lo_x - qx).max(zero).max(qx - hi_x);
                let dy = (lo_y - qy).max(zero).max(qy - hi_y);
                (dx * dx + dy * dy).sqrt()
            };
            let rows = Siblings { parent, kids: &mut *kids };
            let cmin = advance::<V, false>(rows, first, self.query, ground);
            for (kid, c) in kids.iter_mut().zip(cmin.to_array()) {
                kid.cmin = c;
            }
        }
    }
}

/// A sibling group's column: every lane reads the shared parent's cell and
/// lane `s` writes child `s`'s.
struct Siblings<'a> {
    parent: &'a [f64],
    kids: &'a mut [DtwColumn],
}

impl<V: Lanes> Rows<V> for Siblings<'_> {
    #[inline(always)]
    fn update(self, query: &[Point], mut cell: impl FnMut(V, &Point) -> V) {
        for (i, (&old, q)) in self.parent.iter().zip(query).enumerate() {
            let new = cell(V::splat(old), q);
            for (kid, v) in self.kids.iter_mut().zip(new.to_array()) {
                kid.col[i] = v;
            }
        }
    }
}

/// The ERP boundary column `f_{i,0}` (delete the first `i` query points)
/// in each of `V`'s lanes, into `col` (`m + 1` rows of `W`), and each query
/// point's gap cost `d(q_i, g)`, into `qgap` (`m` long).
#[inline(always)]
pub(crate) fn erp_init<V: Lanes>(col: &mut [f64], qgap: &mut [f64], query: &[Point], gap: Point) {
    let mut rows = col.chunks_exact_mut(V::W);
    let mut acc = 0.0;
    V::splat(acc).store(rows.next().expect("boundary row"));
    for ((c, g), q) in rows.zip(qgap).zip(query) {
        *g = q.dist(&gap);
        acc += *g;
        V::splat(acc).store(c);
    }
}

/// One ERP column transition (recurrence in the [`crate::Measure::Erp`] docs) in
/// each of `V`'s lanes, over a column laid out as [`erp_init`] leaves it:
/// the new element's gap cost is `rgap`, its match cost against query point
/// `q` is `ground(q)`. Row 0 is the all-reference-gaps boundary. Returns
/// the new column's minimum, boundary cell included.
#[inline(always)]
pub(crate) fn erp_advance<V: Lanes>(
    col: &mut [f64],
    query: &[Point],
    qgap: &[f64],
    rgap: V,
    ground: impl Fn(&Point) -> V,
) -> V {
    let (c0, rest) = col.split_at_mut(V::W);
    let mut diag = V::load(c0);
    let mut up = diag + rgap;
    up.store(c0);
    let mut cmin = up;
    for ((c, q), &g) in rest.chunks_exact_mut(V::W).zip(query).zip(qgap) {
        // `up` is the loop-carried term: min it in last, so one add and one
        // min, not two, sit on the chain.
        let old = V::load(c);
        let new = (diag + ground(q)).min(old + rgap).min(up + V::splat(g));
        new.store(c);
        (diag, up) = (old, new);
        cmin = cmin.min(new);
    }
    cmin
}

/// Incremental ERP column with gap point `g` (recurrence in the
/// [`crate::Measure::Erp`] docs): `m + 1` cells, row 0 the all-reference-gaps
/// boundary. The exact ERP kernel pushes the same recurrence.
#[derive(Debug, Clone)]
pub struct ErpColumn {
    col: Vec<f64>,
    qgap: Vec<f64>,
    cmin: f64,
}

impl ErpColumn {
    /// State for `query` with gap point `gap`, before any reference element.
    pub fn new(query: &[Point], gap: Point) -> Self {
        let (mut col, mut qgap) = (vec![0.0; query.len() + 1], vec![0.0; query.len()]);
        erp_init::<f64>(&mut col, &mut qgap, query, gap);
        ErpColumn { col, qgap, cmin: f64::INFINITY }
    }

    /// Pushes the next reference element: its gap cost `rgap` and its
    /// match cost `ground(q)` against each query point.
    pub fn push_with(&mut self, query: &[Point], rgap: f64, ground: impl Fn(&Point) -> f64) {
        self.cmin = erp_advance::<f64>(&mut self.col, query, &self.qgap, rgap, ground);
    }

    /// Minimum of the newest column; 0 before any push (or past overflow).
    pub fn cmin(&self) -> f64 {
        if self.cmin.is_finite() {
            self.cmin
        } else {
            0.0
        }
    }

    /// The last cell of the column: ERP of the query and the consumed prefix.
    pub fn last(&self) -> f64 {
        *self.col.last().expect("non-empty column")
    }
}

/// One EDR column transition: substitution is free where `matches(q)`,
/// every edit costs 1. `col` holds `m + 1` rows, row 0 the boundary.
/// Returns the new column's minimum.
#[inline(always)]
pub(crate) fn edr_advance(
    col: &mut [u32],
    query: &[Point],
    matches: impl Fn(&Point) -> bool,
) -> u32 {
    let (c0, rest) = col.split_first_mut().expect("boundary row");
    let mut diag = *c0;
    *c0 += 1;
    let (mut up, mut cmin) = (*c0, *c0);
    for (c, q) in rest.iter_mut().zip(query) {
        // As in `erp_advance`, the loop-carried `up` goes last.
        let new = (diag + u32::from(!matches(q))).min(*c + 1).min(up + 1);
        diag = *c;
        *c = new;
        up = new;
        cmin = cmin.min(new);
    }
    cmin
}

/// Incremental EDR column: `m + 1` cells, row 0 the boundary; free
/// substitution where the caller's predicate says the points may match,
/// unit cost for every other edit. The exact EDR kernel pushes the same
/// recurrence.
#[derive(Debug, Clone)]
pub struct EdrColumn {
    col: Vec<u32>,
    cmin: u32,
}

impl EdrColumn {
    /// State for a query with `m` points: `f_{i,0} = i` deletions.
    pub fn new(m: usize) -> Self {
        EdrColumn { col: (0..=m as u32).collect(), cmin: u32::MAX }
    }

    /// Pushes the next reference element; `matches(q)` says whether it may
    /// match query point `q`.
    pub fn push_with(&mut self, query: &[Point], matches: impl Fn(&Point) -> bool) {
        self.cmin = edr_advance(&mut self.col, query, matches);
    }

    /// Minimum of the newest column; 0 before any push.
    pub fn cmin(&self) -> f64 {
        if self.cmin == u32::MAX {
            0.0
        } else {
            f64::from(self.cmin)
        }
    }

    /// The last cell of the column: EDR of the query and the consumed prefix.
    pub fn last(&self) -> f64 {
        f64::from(*self.col.last().expect("non-empty column"))
    }
}

/// One LCSS column transition: the match count grows along the diagonal
/// where `matches(q)`, and is carried from the better neighbour elsewhere.
/// `col` holds the `m` query rows; the all-zero boundary row is implicit.
///
/// A match cell takes `f_{i-1,j-1} + 1` alone: no LCS prefix value exceeds
/// its diagonal neighbour's by more than 1, under any match relation, so
/// `max` with the other two neighbours could never change it.
#[inline(always)]
pub(crate) fn lcss_advance(col: &mut [u32], query: &[Point], matches: impl Fn(&Point) -> bool) {
    let (mut diag, mut up) = (0u32, 0u32);
    for (c, q) in col.iter_mut().zip(query) {
        let new = if matches(q) { diag + 1 } else { up.max(*c) };
        diag = *c;
        *c = new;
        up = new;
    }
}

/// Incremental LCSS column: the match counts of every query prefix against
/// the consumed sequence. The exact LCSS kernel pushes the same recurrence;
/// pushed with an optimistic match predicate it bounds the LCSS length from
/// *above* for every trajectory whose reference prefix is the consumed cell
/// sequence.
#[derive(Debug, Clone)]
pub struct LcssColumn {
    col: Vec<u32>,
}

impl LcssColumn {
    /// State for a query with `m` points, before any reference element.
    pub fn new(m: usize) -> Self {
        LcssColumn { col: vec![0; m] }
    }

    /// Pushes the next reference element; `matches(q)` says whether it may
    /// match query point `q`.
    pub fn push_with(&mut self, query: &[Point], matches: impl Fn(&Point) -> bool) {
        lcss_advance(&mut self.col, query, matches);
    }

    /// The match count of the whole query against the consumed prefix.
    pub fn max_len(&self) -> u32 {
        self.col.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{edr, erp};
    use crate::within::{could_match, lcss_length_within};
    use crate::DistScratch;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// The unit grid cell holding `p`, as the trie sees it.
    fn cell(p: &Point) -> Mbr {
        let lo = Point::new(p.x.floor(), p.y.floor());
        Mbr::new(lo, Point::new(lo.x + 1.0, lo.y + 1.0))
    }

    fn push_erp(col: &mut ErpColumn, q: &[Point], p: &Point, gap: Point) {
        let c = cell(p);
        col.push_with(q, c.min_dist(gap), |a| c.min_dist(*a));
    }

    /// ERP pushed with cell costs must lower-bound the exact ERP against
    /// any trajectory whose points lie in the pushed cells.
    #[test]
    fn erp_column_lower_bounds_exact() {
        let gap = Point::new(0.0, 0.0);
        let q = pts(&[(0.4, 0.3), (1.2, 1.7), (3.6, 2.2)]);
        let t = pts(&[(0.6, 0.6), (2.5, 1.5), (3.5, 2.5), (5.5, 5.5)]);
        let mut col = ErpColumn::new(&q, gap);
        for p in &t {
            push_erp(&mut col, &q, p, gap);
        }
        let exact = erp(&q, &t, gap);
        assert!(col.last() <= exact + 1e-9, "lbt {} > exact {exact}", col.last());
        assert!(col.cmin() <= exact + 1e-9);
    }

    #[test]
    fn erp_cmin_monotone() {
        let q = pts(&[(0.4, 0.3), (1.2, 1.7)]);
        let t = pts(&[(7.5, 7.5), (6.5, 6.5), (5.5, 7.5)]);
        let gap = Point::new(0.0, 0.0);
        let mut col = ErpColumn::new(&q, gap);
        let mut prev = 0.0;
        for p in &t {
            push_erp(&mut col, &q, p, gap);
            assert!(col.cmin() >= prev - 1e-12);
            prev = col.cmin();
        }
    }

    #[test]
    fn edr_column_lower_bounds_exact() {
        let eps = 0.4;
        let q = pts(&[(0.4, 0.3), (1.2, 1.7), (3.6, 2.2)]);
        let t = pts(&[(0.6, 0.6), (2.5, 1.5), (3.5, 2.5), (5.5, 5.5)]);
        let mut col = EdrColumn::new(q.len());
        for p in &t {
            col.push_with(&q, |a| could_match(*a, &cell(p), eps));
        }
        let exact = edr(&q, &t, eps);
        assert!(col.last() <= exact + 1e-9);
        assert!(col.cmin() <= exact + 1e-9);
    }

    #[test]
    fn edr_cmin_monotone() {
        let q = pts(&[(0.4, 0.3), (1.2, 1.7), (2.0, 2.0)]);
        let t = pts(&[(7.5, 7.5), (6.5, 6.5), (5.5, 7.5), (4.5, 7.5)]);
        let mut col = EdrColumn::new(q.len());
        let mut prev = 0.0;
        for p in &t {
            col.push_with(&q, |a| could_match(*a, &cell(p), 0.1));
            assert!(col.cmin() >= prev);
            prev = col.cmin();
        }
    }

    #[test]
    fn lcss_column_upper_bounds_exact_length() {
        let eps = 0.4;
        let q = pts(&[(0.4, 0.3), (1.2, 1.7), (3.6, 2.2), (5.0, 5.0)]);
        let t = pts(&[(0.6, 0.6), (1.4, 1.6), (3.5, 2.5), (5.5, 5.5)]);
        let mut col = LcssColumn::new(q.len());
        for p in &t {
            col.push_with(&q, |a| could_match(*a, &cell(p), eps));
        }
        let exact = lcss_length_within(&q, &t, eps, f64::INFINITY, &mut DistScratch::new())
            .expect("a finite achievable-match bound never reaches +inf");
        assert!(col.max_len() >= exact, "{} < {exact}", col.max_len());
        assert!(col.max_len() <= q.len().min(t.len()) as u32);
    }
}
