//! Per-measure incremental lower-bound state carried by each frontier entry
//! of the best-first search (Sections IV and VI).
//!
//! Every state supports `push` (consume one more reference cell in `O(m)`,
//! Algorithm 1), `lbo` (one-side bound for internal-node pruning) and
//! `lbt` (two-side bound for leaf pruning). Soundness per measure:
//!
//! * **Hausdorff** — Eq. 2 / Eq. 3 verbatim.
//! * **Frechet** — Eq. 7 / Eq. 8, with the leaf slack tightened from
//!   `√2δ/2` to the leaf's stored `Dmax` (≤ `√2δ/2` by construction).
//! * **DTW** — Eq. 13 / Eq. 14, ground distance `d'` = min distance from the
//!   query point to the reference *cell*.
//! * **ERP** — DTW-style optimistic DP: match cost `d'(q_i, cell_j)`,
//!   reference-gap cost `minDist(cell_j, g)`, query-gap cost `d(q_i, g)`.
//!   Every cost underestimates its exact counterpart, so any alignment of
//!   the true trajectory induces a cheaper alignment of the cell sequence.
//! * **EDR** — optimistic edit DP: substitution is free iff the `ε`-box of
//!   the query point intersects the cell.
//! * **LCSS** — optimistic match DP gives an *upper* bound on the LCSS
//!   length; only the leaf bound is usable (internal `lbo` is 0), because
//!   the distance normalizer `min(m, n)` needs the member lengths.
//!
//! The DP states are `repose-distance`'s columns ([`DtwColumn`],
//! [`FrechetColumn`], [`ErpColumn`], [`EdrColumn`], [`LcssColumn`]): each
//! measure has one recurrence, which the exact kernels push with exact
//! costs and these bounds push with the optimistic ones above.
//!
//! A popped node's children are evaluated by one [`BoundState::expand`]
//! call. DTW advances its siblings side by side
//! ([`DtwColumn::push_cells`]) into columns the search recycles
//! ([`Columns`]); the other measures clone the parent state for every
//! child but the last and push one cell into each.

use crate::frozen::LeafRef;
use crate::NodeId;
use repose_distance::within::could_match;
use repose_distance::{
    active_backend, DtwColumn, EdrColumn, ErpColumn, FrechetColumn, HausdorffState, LcssColumn,
    Measure, MeasureParams, BATCH_LANES,
};
use repose_model::{Mbr, Point};
use repose_zorder::{Grid, ZValue};

/// One search's spare DTW columns: an expanded parent and a pruned child
/// return theirs here, and sibling expansion writes into them, so a warm
/// search allocates a column only when more states are alive at once than
/// ever before.
#[derive(Default)]
pub(crate) struct Columns {
    free: Vec<DtwColumn>,
    /// The lane group being expanded.
    group: Vec<DtwColumn>,
}

/// Incremental bound state for one root-to-node path.
#[derive(Debug, Clone)]
pub(crate) enum BoundState {
    Hausdorff(HausdorffState),
    Frechet(FrechetColumn),
    Dtw(DtwColumn),
    Erp(ErpColumn),
    Edr(EdrColumn),
    Lcss(LcssColumn),
}

impl BoundState {
    /// Fresh state at the root (no reference cell consumed).
    pub fn new(measure: Measure, params: &MeasureParams, query: &[Point]) -> Self {
        let m = query.len();
        match measure {
            Measure::Hausdorff => BoundState::Hausdorff(HausdorffState::new(m)),
            Measure::Frechet => BoundState::Frechet(FrechetColumn::new(m)),
            Measure::Dtw => BoundState::Dtw(DtwColumn::new(m)),
            Measure::Erp => BoundState::Erp(ErpColumn::new(query, params.erp_gap)),
            Measure::Edr => BoundState::Edr(EdrColumn::new(m)),
            Measure::Lcss => BoundState::Lcss(LcssColumn::new(m)),
        }
    }

    /// Consumes the reference cell `z` (the label of the child node being
    /// entered), updating intermediate results in `O(m)`.
    pub fn push(&mut self, query: &[Point], grid: &Grid, z: ZValue, params: &MeasureParams) {
        let may_match = |cell: Mbr| move |q: &Point| could_match(*q, &cell, params.eps);
        match self {
            BoundState::Hausdorff(s) => s.push(query, grid.reference_point(z)),
            BoundState::Frechet(s) => s.push(query, grid.reference_point(z)),
            BoundState::Dtw(s) => {
                let cell = grid.cell_mbr(z);
                s.push_with(query, |q| cell.min_dist(*q));
            }
            BoundState::Erp(s) => {
                let cell = grid.cell_mbr(z);
                s.push_with(query, cell.min_dist(params.erp_gap), |q| cell.min_dist(*q));
            }
            BoundState::Edr(s) => s.push_with(query, may_match(grid.cell_mbr(z))),
            BoundState::Lcss(s) => s.push_with(query, may_match(grid.cell_mbr(z))),
        }
    }

    /// Expands every child of the node this state belongs to: child `ci`'s
    /// state is this one with `kids[ci].0` pushed, handed to
    /// `visit(ci, state)`, which gives it back if the child is pruned.
    ///
    /// Children go in lane groups, in `kids` order: DTW advances the
    /// active backend's lane count of siblings per pass, recycling columns
    /// through `columns`; every other measure, one child per group.
    /// `live()` is asked before each group; once it says no, the remaining
    /// children are skipped and their count is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn expand(
        self,
        query: &[Point],
        grid: &Grid,
        params: &MeasureParams,
        kids: &[(ZValue, NodeId)],
        columns: &mut Columns,
        mut live: impl FnMut() -> bool,
        mut visit: impl FnMut(usize, BoundState) -> Option<BoundState>,
    ) -> usize {
        let BoundState::Dtw(parent) = self else {
            let mut parent = Some(self);
            for (ci, &(z, _)) in kids.iter().enumerate() {
                if !live() {
                    return kids.len() - ci;
                }
                // The last child takes the parent state by move.
                let mut state = if ci + 1 == kids.len() { parent.take() } else { parent.clone() }
                    .expect("only the last child takes the parent state");
                state.push(query, grid, z, params);
                visit(ci, state);
            }
            return 0;
        };
        let lanes = active_backend().lanes();
        let mut cells = [Mbr::empty(); BATCH_LANES];
        let mut skipped = 0;
        for (g, group) in kids.chunks(lanes).enumerate() {
            if !live() {
                skipped = kids.len() - g * lanes;
                break;
            }
            for (cell, &(z, _)) in cells.iter_mut().zip(group) {
                *cell = grid.cell_mbr(z);
                let spare = columns.free.pop().unwrap_or_else(|| DtwColumn::new(query.len()));
                columns.group.push(spare);
            }
            parent.push_cells(query, &cells[..group.len()], &mut columns.group);
            for (s, child) in columns.group.drain(..).enumerate() {
                let pruned = visit(g * lanes + s, BoundState::Dtw(child));
                if let Some(BoundState::Dtw(column)) = pruned {
                    columns.free.push(column);
                }
            }
        }
        columns.free.push(parent);
        skipped
    }

    /// One-side lower bound `LBo` for pruning the subtree below this node.
    pub fn lbo(&self, grid: &Grid) -> f64 {
        let slack = grid.half_diagonal();
        match self {
            BoundState::Hausdorff(s) => (s.cmax() - slack).max(0.0),
            BoundState::Frechet(s) => (s.cmin() - slack).max(0.0),
            BoundState::Dtw(s) => s.cmin(),
            BoundState::Erp(s) => s.cmin(),
            BoundState::Edr(s) => s.cmin(),
            // LCSS has no sound internal bound (the normalizer is unknown).
            BoundState::Lcss(_) => 0.0,
        }
    }

    /// Two-side lower bound `LBt` for the trajectories stored in a leaf.
    pub fn lbt(&self, grid: &Grid, leaf: &LeafRef<'_>, query_len: usize) -> f64 {
        let slack = grid.half_diagonal();
        match self {
            BoundState::Hausdorff(s) => (s.full() - leaf.dmax).max(0.0),
            // Dmax <= √2δ/2 for Frechet; use the tighter stored value.
            BoundState::Frechet(s) => (s.last() - leaf.dmax.min(slack)).max(0.0),
            BoundState::Dtw(s) => s.last(),
            BoundState::Erp(s) => s.last(),
            BoundState::Edr(s) => s.last(),
            BoundState::Lcss(s) => {
                let denom = query_len.min(leaf.nmin as usize).max(1) as f64;
                (1.0 - s.max_len() as f64 / denom).max(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_model::Mbr;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn grid8() -> Grid {
        Grid::new(Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)), 3)
    }

    #[test]
    fn bound_state_dispatch_runs_for_all_measures() {
        let g = grid8();
        let q = pts(&[(0.4, 0.3), (1.2, 1.7), (3.6, 2.2)]);
        let params = MeasureParams::with_eps(0.4);
        let leaf = LeafRef { members: &[0], summaries: &[], dmax: 0.5, nmin: 3 };
        for m in Measure::ALL {
            let mut st = BoundState::new(m, &params, &q);
            for z in [g.z_value(q[0]), g.z_value(q[1])] {
                st.push(&q, &g, z, &params);
            }
            let lbo = st.lbo(&g);
            let lbt = st.lbt(&g, &leaf, q.len());
            assert!(lbo >= 0.0 && lbo.is_finite(), "{m}: lbo {lbo}");
            assert!(lbt >= 0.0 && lbt.is_finite(), "{m}: lbt {lbt}");
        }
    }

    #[test]
    fn hausdorff_lbo_matches_eq_2() {
        // Query far from the pushed cells: LBo = directed dist - √2δ/2.
        let g = grid8();
        let q = pts(&[(0.5, 0.5)]);
        let params = MeasureParams::default();
        let mut st = BoundState::new(Measure::Hausdorff, &params, &q);
        let z = g.z_value(Point::new(7.5, 0.5)); // ref point (7.5, 0.5)
        st.push(&q, &g, z, &params);
        let expect = (7.0 - g.half_diagonal()).max(0.0);
        assert!((st.lbo(&g) - expect).abs() < 1e-12);
    }

    #[test]
    fn lcss_lbt_uses_nmin() {
        let g = grid8();
        let q = pts(&[(0.5, 0.5), (1.5, 1.5), (2.5, 2.5), (3.5, 3.5)]);
        let params = MeasureParams::with_eps(0.1);
        let mut st = BoundState::new(Measure::Lcss, &params, &q);
        // push one matching cell
        st.push(&q, &g, g.z_value(q[0]), &params);
        assert_eq!(st.lbo(&g), 0.0, "LCSS internal bound must stay zero");
        // leaf with min member length 2: denom = min(4, 2) = 2, L_ub = 1
        let leaf = LeafRef { members: &[0], summaries: &[], dmax: 0.0, nmin: 2 };
        assert!((st.lbt(&g, &leaf, q.len()) - 0.5).abs() < 1e-12);
    }
}
