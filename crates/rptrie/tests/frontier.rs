//! One search over several tries: `RpTrie::search` over a slice of
//! partitions pops every partition's label paths from one frontier in
//! global bound order, one entry per path the tries on one grid share.
//! Split a random dataset into 1–5 tries (on one grid or on grids of
//! several resolutions, each with its own pivots, some possibly empty),
//! search the slice under one `SharedTopK`, and the answer must be brute
//! force's.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use repose_distance::{Measure, MeasureParams, SharedTopK};
use repose_model::{Mbr, Point, TrajStore, Trajectory};
use repose_rptrie::{RpTrie, RpTrieConfig};
use repose_zorder::Grid;

fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

/// Checks `hits` against brute force over the trajectories `accepts`
/// admits: the distance sequence bit for bit, every hit strictly below
/// the k-th distance by id too, and every hit at the k-th distance a
/// distinct admitted id at exactly that distance (Definition 3 lets a tie
/// straddling the k-th slot keep any of its ids).
fn check_against_brute_force(
    hits: &[repose_distance::Hit],
    trajs: &[Trajectory],
    query: &[Point],
    measure: Measure,
    params: MeasureParams,
    k: usize,
    accepts: &dyn Fn(u64) -> bool,
) -> Result<(), TestCaseError> {
    let mut expect: Vec<(u64, u64)> = trajs
        .iter()
        .filter(|t| accepts(t.id))
        .map(|t| (params.distance(measure, query, &t.points).to_bits(), t.id))
        .collect();
    expect.sort_unstable();
    expect.truncate(k);
    let got: Vec<(u64, u64)> = hits.iter().map(|h| (h.dist.to_bits(), h.id)).collect();
    let dists = |v: &[(u64, u64)]| v.iter().map(|e| e.0).collect::<Vec<_>>();
    prop_assert_eq!(
        dists(&got),
        dists(&expect),
        "{} k={}: distances",
        measure,
        k
    );
    let Some(&(kth, _)) = expect.last() else {
        return Ok(());
    };
    let below = |v: &[(u64, u64)]| v.iter().copied().filter(|e| e.0 < kth).collect::<Vec<_>>();
    prop_assert_eq!(
        below(&got),
        below(&expect),
        "{} k={}: hits below the k-th",
        measure,
        k
    );
    let mut ids: Vec<u64> = got.iter().map(|e| e.1).collect();
    ids.sort_unstable();
    ids.dedup();
    prop_assert_eq!(ids.len(), got.len(), "{} k={}: an id twice", measure, k);
    for &(bits, id) in &got {
        prop_assert!(
            accepts(id),
            "{} k={}: filtered id {} returned",
            measure,
            k,
            id
        );
        let t = trajs.iter().find(|t| t.id == id).expect("hit id exists");
        let exact = params.distance(measure, query, &t.points);
        prop_assert_eq!(
            bits,
            exact.to_bits(),
            "{} k={}: wrong distance for {}",
            measure,
            k,
            id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_frontier_over_split_tries_matches_brute_force(
        raw in proptest::collection::vec(
            proptest::collection::vec((0.0f64..32.0, 0.0f64..32.0), 1..8),
            1..30,
        ),
        parts in 1usize..6,
        deal in proptest::collection::vec(0usize..5, 30..31),
        query in proptest::collection::vec((0.0f64..32.0, 0.0f64..32.0), 1..6),
        level in 1u8..5,
        shared_grid in any::<bool>(),
    ) {
        let trajs: Vec<Trajectory> = raw
            .into_iter()
            .enumerate()
            .map(|(i, p)| Trajectory::new(i as u64, pts(&p)))
            .collect();
        let query = pts(&query);
        let params = MeasureParams::with_eps(1.5);
        // Deal the trajectories at random; a partition may stay empty.
        let stores: Vec<TrajStore> = (0..parts)
            .map(|pi| {
                let mine: Vec<Trajectory> = trajs
                    .iter()
                    .zip(&deal)
                    .filter(|(_, &d)| d % parts == pi)
                    .map(|(t, _)| t.clone())
                    .collect();
                TrajStore::from_trajectories(&mine)
            })
            .collect();
        let region = Mbr::new(Point::new(0.0, 0.0), Point::new(32.0, 32.0));
        let all = trajs.len();
        let odd = |id: u64| id % 2 == 1;
        for measure in Measure::ALL {
            // Each partition its own pivots (and, for Hausdorff, its own
            // z-value re-arrangement), and either one grid, whose tries
            // merge into shared frontier entries that pivots prune member
            // by member, or grids of several resolutions, which stay
            // apart.
            let tries: Vec<RpTrie> = stores
                .iter()
                .enumerate()
                .map(|(pi, store)| {
                    let level = if shared_grid { level } else { level + (pi % 3) as u8 };
                    RpTrie::build(
                        store,
                        Grid::new(region, level),
                        RpTrieConfig::for_measure(measure).with_params(params).with_np(2),
                    )
                })
                .collect();
            let slice: Vec<(&RpTrie, &TrajStore)> = tries.iter().zip(&stores).collect();
            for k in [1, 3, 7, all] {
                for filter in [None, Some(&odd as &(dyn Fn(u64) -> bool + Sync))] {
                    let collector = SharedTopK::new(k);
                    let stats = RpTrie::search(&slice, &query, filter, &collector);
                    prop_assert!(stats.exact_abandoned <= stats.exact_computations);
                    let accepts = |id: u64| filter.is_none_or(|f| f(id));
                    check_against_brute_force(
                        &collector.hits(),
                        &trajs,
                        &query,
                        measure,
                        params,
                        k,
                        &accepts,
                    )?;
                }
            }
        }
    }
}

/// A random walk per trajectory over the `[0, 32)²` square.
fn random_walks(rng: &mut StdRng, n: usize) -> Vec<Trajectory> {
    (0..n)
        .map(|i| {
            let len = rng.random_range(2..12usize);
            let (mut x, mut y) = (rng.random_range(2.0..30.0), rng.random_range(2.0..30.0));
            let mut points = Vec::with_capacity(len);
            for _ in 0..len {
                points.push(Point::new(x, y));
                x = (x + rng.random_range(-2.0..2.0)).clamp(0.0, 31.9);
                y = (y + rng.random_range(-2.0..2.0)).clamp(0.0, 31.9);
            }
            Trajectory::new(i as u64, points)
        })
        .collect()
}

/// Tries on one grid are searched as one virtual trie: their union. A
/// dataset dealt round-robin into 4 tries on one grid, searched as one
/// slice, answers like brute force and like one trie built over the whole
/// dataset, and walks that trie's paths: it pops the same paths and
/// visits the same leaves. The three configurations are the ones whose
/// paths and bounds do not depend on which trajectories share a trie: no
/// pivots (each trie's pivots would be its own), and no z-value
/// re-arrangement (the optimized Hausdorff trie orders a path by its
/// whole dataset). The slice bounds each member trie's leaf by its own
/// `Dmax` and may verify it later, at that bound, so its verification
/// counts may differ; but in both searches every member whose distance
/// is below a path's bound is verified before that path pops, so the
/// stop test decides alike.
///
/// Continuous coordinates leave no `lb` ties at the stop test, so both
/// searches pop the same paths. They do leave ties *below* it:
/// Hausdorff's and Fréchet's `LBo` clamp at 0, so many near-query paths
/// share `lb = 0`, and the two searches order such a tie differently
/// (the union trie by node id, the slice by first member). Which of them
/// verifies first decides whether a sibling's child is pruned at
/// expansion or pushed and left unpopped, so `nodes_pruned` may differ by
/// a few; it is not compared.
#[test]
fn shared_grid_slice_searches_like_its_union_trie() {
    let mut rng = StdRng::seed_from_u64(51);
    let trajs = random_walks(&mut rng, 240);
    let union = TrajStore::from_trajectories(&trajs);
    let stores: Vec<TrajStore> = (0..4)
        .map(|pi| {
            let mine: Vec<Trajectory> = trajs.iter().skip(pi).step_by(4).cloned().collect();
            TrajStore::from_trajectories(&mine)
        })
        .collect();
    let grid = Grid::new(Mbr::new(Point::new(0.0, 0.0), Point::new(32.0, 32.0)), 4);
    let params = MeasureParams::default();
    let configs = [
        RpTrieConfig::for_measure(Measure::Dtw),
        RpTrieConfig::for_measure(Measure::Frechet).with_np(0),
        RpTrieConfig::for_measure(Measure::Hausdorff).with_optimize(false).with_np(0),
    ];
    let queries: Vec<Vec<Point>> =
        random_walks(&mut rng, 12).into_iter().map(|t| t.points).collect();
    for config in configs {
        let measure = config.measure;
        let tries: Vec<RpTrie> =
            stores.iter().map(|s| RpTrie::build(s, grid.clone(), config)).collect();
        let slice: Vec<(&RpTrie, &TrajStore)> = tries.iter().zip(&stores).collect();
        let whole = RpTrie::build(&union, grid.clone(), config);
        for (qi, query) in queries.iter().enumerate() {
            for k in [1, 5, 20] {
                let merged = SharedTopK::new(k);
                let got = RpTrie::search(&slice, query, None, &merged);
                let single = SharedTopK::new(k);
                let want = RpTrie::search(&[(&whole, &union)], query, None, &single);
                check_against_brute_force(
                    &merged.hits(),
                    &trajs,
                    query,
                    measure,
                    params,
                    k,
                    &|_| true,
                )
                .unwrap();
                let bits = |c: &SharedTopK| {
                    c.hits().iter().map(|h| h.dist.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(&merged), bits(&single), "{measure} q{qi} k={k}: distances");
                let walk = |s: repose_rptrie::SearchStats| (s.nodes_visited, s.leaves_visited);
                assert_eq!(walk(got), walk(want), "{measure} q{qi} k={k}: {got:?} vs {want:?}");
            }
        }
    }
}
