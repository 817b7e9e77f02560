//! The seed (pre-scratch) kernel implementations, preserved verbatim.
//!
//! The scratch-threaded kernels in the sibling modules are required to be
//! **bit-identical** to these: every value they return must equal, bit for
//! bit, what the original per-call-allocating kernels computed. This
//! module keeps those originals alive as the test oracle only: the
//! bitwise-agreement property tests (`tests/scratch_agreement.rs`,
//! `tests/within_agreement.rs`) pit every kernel against its original
//! here, the workspace's `tests/invariants.rs` checks the batched leaf
//! verification against it on a datagen set, and `tests/bound_columns.rs`
//! pits the trie's five bound columns against their seed copies here.
//!
//! Production code must not call into this module.

use crate::within::prefilter_rejects;
use crate::{Measure, MeasureParams};
use repose_model::{Mbr, Point};

/// Verbatim copy of the seed `FrechetColumn` (owned `vec!` column,
/// linear-space values, indexed inner loop) — the current
/// [`crate::FrechetColumn`] shares the refactor's fused recurrence, so the
/// seed loop shape is preserved here instead.
pub struct SeedFrechetColumn {
    col: Vec<f64>,
    cmin: f64,
    len: usize,
}

impl SeedFrechetColumn {
    /// State for a query with `m` points.
    pub fn new(m: usize) -> Self {
        SeedFrechetColumn { col: vec![0.0; m], cmin: f64::INFINITY, len: 0 }
    }

    #[allow(clippy::needless_range_loop)] // i also indexes the DP column
    /// Consumes one reference element with ground cost `ground`.
    pub fn push_with<F: Fn(&Point) -> f64>(&mut self, query: &[Point], ground: F) {
        let m = self.col.len();
        let mut cmin = f64::INFINITY;
        if self.len == 0 {
            let mut acc = 0.0f64;
            for i in 0..m {
                let d = ground(&query[i]);
                acc = if i == 0 { d } else { acc.max(d) };
                self.col[i] = acc;
                if acc < cmin {
                    cmin = acc;
                }
            }
        } else {
            let mut prev_im1 = self.col[0];
            for i in 0..m {
                let d = ground(&query[i]);
                let best_pred = if i == 0 {
                    self.col[0]
                } else {
                    prev_im1.min(self.col[i]).min(self.col[i - 1])
                };
                prev_im1 = self.col[i];
                self.col[i] = d.max(best_pred);
                if self.col[i] < cmin {
                    cmin = self.col[i];
                }
            }
        }
        self.cmin = cmin;
        self.len += 1;
    }

    /// Minimum of the newest column.
    pub fn cmin(&self) -> f64 {
        self.cmin
    }

    /// The column's last cell.
    pub fn last(&self) -> f64 {
        *self.col.last().expect("non-empty query")
    }
}

/// Verbatim copy of the seed `DtwColumn` (see [`SeedFrechetColumn`]).
pub struct SeedDtwColumn {
    col: Vec<f64>,
    cmin: f64,
    len: usize,
}

impl SeedDtwColumn {
    /// State for a query with `m` points.
    pub fn new(m: usize) -> Self {
        SeedDtwColumn { col: vec![0.0; m], cmin: f64::INFINITY, len: 0 }
    }

    #[allow(clippy::needless_range_loop)] // i also indexes the DP column
    /// Consumes one reference element with ground cost `ground`.
    pub fn push_with<F: Fn(&Point) -> f64>(&mut self, query: &[Point], ground: F) {
        let m = self.col.len();
        let mut cmin = f64::INFINITY;
        if self.len == 0 {
            let mut acc = 0.0;
            for i in 0..m {
                acc += ground(&query[i]);
                self.col[i] = acc;
                if acc < cmin {
                    cmin = acc;
                }
            }
        } else {
            let mut prev_im1 = self.col[0];
            for i in 0..m {
                let d = ground(&query[i]);
                let best_pred = if i == 0 {
                    self.col[0]
                } else {
                    prev_im1.min(self.col[i]).min(self.col[i - 1])
                };
                prev_im1 = self.col[i];
                self.col[i] = d + best_pred;
                if self.col[i] < cmin {
                    cmin = self.col[i];
                }
            }
        }
        self.cmin = cmin;
        self.len += 1;
    }

    /// Minimum of the newest column.
    pub fn cmin(&self) -> f64 {
        self.cmin
    }

    /// The column's last cell.
    pub fn last(&self) -> f64 {
        *self.col.last().expect("non-empty query")
    }
}

/// Verbatim copy of the seed trie bound `ErpColumn` (indexed inner loop,
/// the cell's costs computed in the push) — the oracle of
/// [`crate::ErpColumn`]. Row 0 is the all-reference-gaps boundary, so the
/// column has `m + 1` entries.
#[derive(Debug, Clone)]
pub struct SeedErpColumn {
    col: Vec<f64>,
    /// `d(q_i, g)` per query point, precomputed.
    qgap: Vec<f64>,
    gap: Point,
    cmin: f64,
}

impl SeedErpColumn {
    /// State for `query` with gap point `gap`.
    pub fn new(query: &[Point], gap: Point) -> Self {
        let qgap: Vec<f64> = query.iter().map(|q| q.dist(&gap)).collect();
        // f_{i,0} = sum of query gap costs (delete all query points so far).
        let mut col = Vec::with_capacity(query.len() + 1);
        col.push(0.0);
        for &g in &qgap {
            col.push(col.last().unwrap() + g);
        }
        SeedErpColumn { col, qgap, gap, cmin: f64::INFINITY }
    }

    /// Consumes one reference cell.
    pub fn push(&mut self, query: &[Point], cell: Mbr) {
        let rgap = cell.min_dist(self.gap);
        let mut cmin;
        let mut prev_im1 = self.col[0];
        self.col[0] += rgap;
        cmin = self.col[0];
        for i in 1..self.col.len() {
            let matchc = cell.min_dist(query[i - 1]);
            let old = self.col[i];
            self.col[i] = (prev_im1 + matchc)
                .min(old + rgap)
                .min(self.col[i - 1] + self.qgap[i - 1]);
            prev_im1 = old;
            if self.col[i] < cmin {
                cmin = self.col[i];
            }
        }
        self.cmin = cmin;
    }

    /// Minimum of the newest column (0 at the root).
    pub fn cmin(&self) -> f64 {
        if self.cmin.is_finite() {
            self.cmin
        } else {
            0.0 // no reference cell consumed yet (root)
        }
    }

    /// The column's last cell.
    pub fn last(&self) -> f64 {
        *self.col.last().expect("non-empty column")
    }
}

/// Verbatim copy of the seed trie bound `EdrColumn` — the oracle of
/// [`crate::EdrColumn`]: substitution cost is 0 iff the query point's
/// `ε`-box intersects the cell, otherwise 1; insert/delete cost 1.
#[derive(Debug, Clone)]
pub struct SeedEdrColumn {
    col: Vec<u32>,
    cmin: u32,
}

impl SeedEdrColumn {
    /// State for a query with `m` points.
    pub fn new(m: usize) -> Self {
        // f_{i,0} = i deletions of query points.
        SeedEdrColumn { col: (0..=m as u32).collect(), cmin: u32::MAX }
    }

    fn can_match(q: Point, cell: &Mbr, eps: f64) -> bool {
        q.x >= cell.min.x - eps
            && q.x <= cell.max.x + eps
            && q.y >= cell.min.y - eps
            && q.y <= cell.max.y + eps
    }

    /// Consumes one reference cell.
    pub fn push(&mut self, query: &[Point], cell: Mbr, eps: f64) {
        let mut prev_im1 = self.col[0];
        self.col[0] += 1;
        let mut cmin = self.col[0];
        for i in 1..self.col.len() {
            let sub = u32::from(!Self::can_match(query[i - 1], &cell, eps));
            let old = self.col[i];
            self.col[i] = (prev_im1 + sub).min(old + 1).min(self.col[i - 1] + 1);
            prev_im1 = old;
            cmin = cmin.min(self.col[i]);
        }
        self.cmin = cmin;
    }

    /// Minimum of the newest column (0 at the root).
    pub fn cmin(&self) -> f64 {
        if self.cmin == u32::MAX {
            0.0
        } else {
            f64::from(self.cmin)
        }
    }

    /// The column's last cell.
    pub fn last(&self) -> f64 {
        f64::from(*self.col.last().expect("non-empty column"))
    }
}

/// Verbatim copy of the seed trie bound `LcssColumn` (an `m + 1` column
/// whose match cell takes the `max` of all three neighbours) — the oracle
/// of [`crate::LcssColumn`].
#[derive(Debug, Clone)]
pub struct SeedLcssColumn {
    col: Vec<u32>,
}

impl SeedLcssColumn {
    /// State for a query with `m` points.
    pub fn new(m: usize) -> Self {
        SeedLcssColumn { col: vec![0; m + 1] }
    }

    /// Consumes one reference cell.
    pub fn push(&mut self, query: &[Point], cell: Mbr, eps: f64) {
        let mut prev_im1 = self.col[0];
        for i in 1..self.col.len() {
            let old = self.col[i];
            self.col[i] = if SeedEdrColumn::can_match(query[i - 1], &cell, eps) {
                (prev_im1 + 1).max(old).max(self.col[i - 1])
            } else {
                old.max(self.col[i - 1])
            };
            prev_im1 = old;
        }
    }

    /// Upper bound on the LCSS length (last row of the DP).
    pub fn max_len(&self) -> u32 {
        *self.col.last().expect("non-empty column")
    }
}

/// Verbatim copy of the seed directed-Hausdorff threshold pass (branchy
/// point-at-a-time inner loop; the current kernel uses a chunked,
/// vectorizable min instead).
fn seed_directed_within_sq(from: &[Point], to: &[Point], thr_sq: f64) -> Option<f64> {
    let mut worst = 0.0f64;
    for a in from {
        let mut best = f64::INFINITY;
        for b in to {
            let d = a.dist_sq(b);
            if d < best {
                best = d;
                if best <= worst {
                    break;
                }
            }
        }
        if best > worst {
            if best >= thr_sq {
                return None;
            }
            worst = best;
        }
    }
    Some(worst)
}

/// Seed threshold-aware Hausdorff (point-at-a-time directed passes).
pub fn hausdorff_within(t1: &[Point], t2: &[Point], threshold: f64) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let thr_sq = if threshold < f64::MAX.sqrt() {
        threshold * threshold
    } else {
        f64::INFINITY
    };
    let a = seed_directed_within_sq(t1, t2, thr_sq)?;
    let b = seed_directed_within_sq(t2, t1, thr_sq)?;
    let d = a.max(b).sqrt();
    (d < threshold).then_some(d)
}

/// Seed Hausdorff: per-call `vec!` of column minima.
pub fn hausdorff(t1: &[Point], t2: &[Point]) -> f64 {
    if t1.is_empty() || t2.is_empty() {
        return if t1.is_empty() && t2.is_empty() { 0.0 } else { f64::INFINITY };
    }
    let mut col_min = vec![f64::INFINITY; t2.len()];
    let mut worst_row = 0.0f64;
    for a in t1 {
        let mut row_min = f64::INFINITY;
        for (j, b) in t2.iter().enumerate() {
            let d = a.dist_sq(b);
            if d < row_min {
                row_min = d;
            }
            if d < col_min[j] {
                col_min[j] = d;
            }
        }
        if row_min > worst_row {
            worst_row = row_min;
        }
    }
    let worst_col = col_min.iter().cloned().fold(0.0f64, f64::max);
    worst_row.max(worst_col).sqrt()
}

/// Seed Fréchet: linear-space values (one `sqrt` per matrix cell) through
/// a freshly allocated column.
pub fn frechet(t1: &[Point], t2: &[Point]) -> f64 {
    if t1.is_empty() || t2.is_empty() {
        return if t1.is_empty() && t2.is_empty() { 0.0 } else { f64::INFINITY };
    }
    let mut col = SeedFrechetColumn::new(t1.len());
    for p in t2 {
        col.push_with(t1, |q| q.dist(p));
    }
    col.last()
}

/// Seed DTW: a freshly allocated column per call.
pub fn dtw(t1: &[Point], t2: &[Point]) -> f64 {
    if t1.is_empty() || t2.is_empty() {
        return if t1.is_empty() && t2.is_empty() { 0.0 } else { f64::INFINITY };
    }
    let mut col = SeedDtwColumn::new(t1.len());
    for p in t2 {
        col.push_with(t1, |q| q.dist(p));
    }
    col.last()
}

/// Seed ERP: two `vec!` rows per call, and `d(p_j, gap)` recomputed in
/// every cell of the inner loop.
pub fn erp(t1: &[Point], t2: &[Point], gap: Point) -> f64 {
    let (m, n) = (t1.len(), t2.len());
    if m == 0 {
        return t2.iter().map(|p| p.dist(&gap)).sum();
    }
    if n == 0 {
        return t1.iter().map(|p| p.dist(&gap)).sum();
    }
    let mut prev = Vec::with_capacity(n + 1);
    prev.push(0.0);
    for p in t2 {
        prev.push(prev.last().unwrap() + p.dist(&gap));
    }
    let mut cur = vec![0.0f64; n + 1];
    for a in t1 {
        let gap_a = a.dist(&gap);
        cur[0] = prev[0] + gap_a;
        for (j, b) in t2.iter().enumerate() {
            cur[j + 1] = (prev[j] + a.dist(b))
                .min(prev[j + 1] + gap_a)
                .min(cur[j] + b.dist(&gap));
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Seed EDR: two `vec!` rows per call.
pub fn edr(t1: &[Point], t2: &[Point], eps: f64) -> f64 {
    let (m, n) = (t1.len(), t2.len());
    if m == 0 || n == 0 {
        return (m + n) as f64;
    }
    let mut prev: Vec<u32> = (0..=n as u32).collect();
    let mut cur = vec![0u32; n + 1];
    for (i, a) in t1.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, b) in t2.iter().enumerate() {
            let subcost =
                u32::from(!((a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps));
            cur[j + 1] = (prev[j] + subcost)
                .min(prev[j + 1] + 1)
                .min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n] as f64
}

/// Seed LCSS distance: two `vec!` rows per call.
pub fn lcss_distance(t1: &[Point], t2: &[Point], eps: f64) -> f64 {
    if t1.is_empty() || t2.is_empty() {
        return if t1.is_empty() && t2.is_empty() { 0.0 } else { 1.0 };
    }
    let n = t2.len();
    let mut prev = vec![0usize; n + 1];
    let mut cur = vec![0usize; n + 1];
    for a in t1 {
        for (j, b) in t2.iter().enumerate() {
            cur[j + 1] = if (a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let l = prev[n] as f64;
    1.0 - l / t1.len().min(t2.len()) as f64
}

/// Seed measure dispatch (the pre-refactor
/// [`MeasureParams::distance`]).
pub fn distance(params: &MeasureParams, measure: Measure, t1: &[Point], t2: &[Point]) -> f64 {
    match measure {
        Measure::Hausdorff => hausdorff(t1, t2),
        Measure::Frechet => frechet(t1, t2),
        Measure::Dtw => dtw(t1, t2),
        Measure::Lcss => lcss_distance(t1, t2, params.eps),
        Measure::Edr => edr(t1, t2, params.eps),
        Measure::Erp => erp(t1, t2, params.erp_gap),
    }
}

fn empty_case(both_zero: bool, threshold: f64) -> Option<f64> {
    let d = if both_zero { 0.0 } else { f64::INFINITY };
    (d < threshold).then_some(d)
}

/// Seed threshold-aware Fréchet (allocating column, linear-space values).
pub fn frechet_within(t1: &[Point], t2: &[Point], threshold: f64) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let mut col = SeedFrechetColumn::new(t1.len());
    for p in t2 {
        col.push_with(t1, |q| q.dist(p));
        if col.cmin() >= threshold {
            return None;
        }
    }
    let d = col.last();
    (d < threshold).then_some(d)
}

/// Seed threshold-aware DTW (allocating column).
pub fn dtw_within(t1: &[Point], t2: &[Point], threshold: f64) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let mut col = SeedDtwColumn::new(t1.len());
    for p in t2 {
        col.push_with(t1, |q| q.dist(p));
        if col.cmin() >= threshold {
            return None;
        }
    }
    let d = col.last();
    (d < threshold).then_some(d)
}

/// Seed threshold-aware ERP (allocating rows, per-cell gap distances).
pub fn erp_within(t1: &[Point], t2: &[Point], gap: Point, threshold: f64) -> Option<f64> {
    let (m, n) = (t1.len(), t2.len());
    if m == 0 {
        let d: f64 = t2.iter().map(|p| p.dist(&gap)).sum();
        return (d < threshold).then_some(d);
    }
    if n == 0 {
        let d: f64 = t1.iter().map(|p| p.dist(&gap)).sum();
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let mut prev = Vec::with_capacity(n + 1);
    prev.push(0.0);
    for p in t2 {
        prev.push(prev.last().unwrap() + p.dist(&gap));
    }
    let mut cur = vec![0.0f64; n + 1];
    for a in t1 {
        let gap_a = a.dist(&gap);
        cur[0] = prev[0] + gap_a;
        let mut row_min = cur[0];
        for (j, b) in t2.iter().enumerate() {
            cur[j + 1] = (prev[j] + a.dist(b))
                .min(prev[j + 1] + gap_a)
                .min(cur[j] + b.dist(&gap));
            if cur[j + 1] < row_min {
                row_min = cur[j + 1];
            }
        }
        if row_min >= threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[n];
    (d < threshold).then_some(d)
}

/// Seed threshold-aware EDR (allocating rows).
pub fn edr_within(t1: &[Point], t2: &[Point], eps: f64, threshold: f64) -> Option<f64> {
    let (m, n) = (t1.len(), t2.len());
    if m == 0 || n == 0 {
        let d = (m + n) as f64;
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let mut prev: Vec<u32> = (0..=n as u32).collect();
    let mut cur = vec![0u32; n + 1];
    for (i, a) in t1.iter().enumerate() {
        cur[0] = i as u32 + 1;
        let mut row_min = cur[0];
        for (j, b) in t2.iter().enumerate() {
            let subcost =
                u32::from(!((a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps));
            cur[j + 1] = (prev[j] + subcost)
                .min(prev[j + 1] + 1)
                .min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if f64::from(row_min) >= threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = f64::from(prev[n]);
    (d < threshold).then_some(d)
}

/// Seed threshold-aware LCSS (allocating rows).
pub fn lcss_distance_within(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        let d = if t1.is_empty() && t2.is_empty() { 0.0 } else { 1.0 };
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    let (m, n) = (t1.len(), t2.len());
    let minlen = m.min(n);
    let mut prev = vec![0u32; n + 1];
    let mut cur = vec![0u32; n + 1];
    for (i, a) in t1.iter().enumerate() {
        for (j, b) in t2.iter().enumerate() {
            cur[j + 1] = if (a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        let achievable = (cur[n] as usize + (m - 1 - i)).min(minlen);
        if 1.0 - achievable as f64 / minlen as f64 >= threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let l = prev[n] as f64;
    let d = 1.0 - l / t1.len().min(t2.len()) as f64;
    (d < threshold).then_some(d)
}

/// Seed threshold-aware dispatch with a caller-held lower bound (the
/// pre-refactor form of [`MeasureParams::distance_within_from_lb_in`] —
/// what leaf verification called before the scratch refactor).
pub fn distance_within_from_lb(
    params: &MeasureParams,
    measure: Measure,
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    lb: f64,
) -> Option<f64> {
    if prefilter_rejects(lb, threshold) {
        return None;
    }
    match measure {
        Measure::Hausdorff => hausdorff_within(t1, t2, threshold),
        Measure::Frechet => frechet_within(t1, t2, threshold),
        Measure::Dtw => dtw_within(t1, t2, threshold),
        Measure::Lcss => lcss_distance_within(t1, t2, params.eps, threshold),
        Measure::Edr => edr_within(t1, t2, params.eps, threshold),
        Measure::Erp => erp_within(t1, t2, params.erp_gap, threshold),
    }
}
