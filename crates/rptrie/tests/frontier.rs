//! One search over several tries: `RpTrie::search` over a slice of
//! partitions pops every partition's nodes from one frontier in global
//! bound order. Split a random dataset into 1–5 tries (each with its own
//! grid resolution and pivots, some possibly empty), search the slice
//! under one `SharedTopK`, and the answer must be brute force's.

use proptest::prelude::*;
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
            // Each partition its own grid resolution and its own pivots.
            let tries: Vec<RpTrie> = stores
                .iter()
                .enumerate()
                .map(|(pi, store)| {
                    RpTrie::build(
                        store,
                        Grid::new(region, level + (pi % 3) as u8),
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
