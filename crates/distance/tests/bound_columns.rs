//! The trie's incremental bound columns against their seed copies in
//! `repose_distance::reference`, bit for bit.
//!
//! Each DP measure's column is shared by the exact kernel and the trie
//! bound, so a change to the recurrence that kept the exact kernels right
//! could still move a bound. This suite pushes random cell sequences into
//! all five columns — DTW with the cell distance `d'` as ground cost,
//! Fréchet with the cell's reference point, ERP with cell match and gap
//! costs, EDR and LCSS with the optimistic "could match" — and checks
//! `cmin`, `last` and `max_len` after every push, the root state included.

use proptest::prelude::*;
use repose_distance::reference::{
    SeedDtwColumn, SeedEdrColumn, SeedErpColumn, SeedFrechetColumn, SeedLcssColumn,
};
use repose_distance::within::could_match;
use repose_distance::{DtwColumn, EdrColumn, ErpColumn, FrechetColumn, LcssColumn};
use repose_model::{Mbr, Point};

/// Coordinates on a coarse lattice, so cells touch query points and ties
/// between DP predecessors are common.
fn coord() -> impl Strategy<Value = (f64, f64)> {
    (-4i32..12, -4i32..12).prop_map(|(x, y)| (x as f64 * 0.5, y as f64 * 0.5))
}

fn cell() -> impl Strategy<Value = Mbr> {
    (coord(), 0i32..4, 0i32..4).prop_map(|((x, y), w, h)| {
        Mbr::new(Point::new(x, y), Point::new(x + w as f64 * 0.5, y + h as f64 * 0.5))
    })
}

fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bound_columns_match_their_seeds(
        query in proptest::collection::vec(coord(), 1..9),
        cells in proptest::collection::vec(cell(), 1..12),
        eps in prop_oneof![Just(0.0), Just(0.25), Just(1.0)],
        gap in coord(),
    ) {
        let q = pts(&query);
        let gap = Point::new(gap.0, gap.1);
        let (mut dtw, mut dtw_seed) = (DtwColumn::new(q.len()), SeedDtwColumn::new(q.len()));
        let (mut fr, mut fr_seed) = (FrechetColumn::new(q.len()), SeedFrechetColumn::new(q.len()));
        let (mut erp, mut erp_seed) = (ErpColumn::new(&q, gap), SeedErpColumn::new(&q, gap));
        let (mut edr, mut edr_seed) = (EdrColumn::new(q.len()), SeedEdrColumn::new(q.len()));
        let (mut lcss, mut lcss_seed) = (LcssColumn::new(q.len()), SeedLcssColumn::new(q.len()));
        for (step, c) in std::iter::once(None).chain(cells.iter().map(Some)).enumerate() {
            if let Some(c) = c {
                let rp = c.center();
                dtw.push_with(&q, |p| c.min_dist(*p));
                dtw_seed.push_with(&q, |p| c.min_dist(*p));
                fr.push(&q, rp);
                fr_seed.push_with(&q, |p| p.dist(&rp));
                erp.push_with(&q, c.min_dist(gap), |p| c.min_dist(*p));
                erp_seed.push(&q, *c);
                edr.push_with(&q, |p| could_match(*p, c, eps));
                edr_seed.push(&q, *c, eps);
                lcss.push_with(&q, |p| could_match(*p, c, eps));
                lcss_seed.push(&q, *c, eps);
            }
            let bits = |a: f64, b: f64| (a.to_bits(), b.to_bits());
            let cases = [
                ("dtw cmin", bits(dtw.cmin(), dtw_seed.cmin())),
                ("dtw last", bits(dtw.last(), dtw_seed.last())),
                ("frechet cmin", bits(fr.cmin(), fr_seed.cmin())),
                ("frechet last", bits(fr.last(), fr_seed.last())),
                ("erp cmin", bits(erp.cmin(), erp_seed.cmin())),
                ("erp last", bits(erp.last(), erp_seed.last())),
                ("edr cmin", bits(edr.cmin(), edr_seed.cmin())),
                ("edr last", bits(edr.last(), edr_seed.last())),
            ];
            for (what, (got, want)) in cases {
                prop_assert_eq!(got, want, "{} after {} pushes", what, step);
            }
            prop_assert_eq!(lcss.max_len(), lcss_seed.max_len(), "lcss after {} pushes", step);
        }
    }
}
