//! The result cache's effect test against an uncached twin: random
//! upserts, deletes, compactions and repeated queries run on a cached
//! service and on one with `cache_capacity: 0`, and every answer's
//! distance bits must agree.
//!
//! Ids are checked too, wherever they are unique: an entry filled when no
//! row tied at its k-th distance must, while it is served, name exactly the
//! ids a fresh search does. The effect test lets no write through that
//! could add such a tie, so a served answer that differs there is stale.

use proptest::prelude::*;
use repose::{Hit, Repose, ReposeConfig};
use repose_distance::{Measure, MeasureParams};
use repose_model::{Dataset, Point, Trajectory};
use repose_service::{ReposeService, ServiceConfig};
use std::collections::{BTreeMap, HashMap};

/// Ids are drawn from a small universe so writes land on hits.
const IDS: u64 = 12;

fn points(raw: &[(f64, f64)]) -> Vec<Point> {
    raw.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

fn arb_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..16.0, 0.0f64..16.0), 1..6)
}

/// One op: `(roll, id, points, k, query index)`. The roll picks an
/// upsert of `points`; of `points` moved far off (a row whose summary bound
/// clears most answers); of a copy of a query (a row at distance 0 from
/// it, so a second copy ties the first); a delete, a compaction or a
/// query.
type Op = (u32, u64, Vec<(f64, f64)>, usize, usize);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u32..100, 0u64..IDS, arb_points(), 1usize..5, 0usize..3), 20..70)
}

/// Runs `ops` on both services and returns what the cache did:
/// (revalidated hits, stale entries).
fn run(
    measure: Measure,
    initial: &[Vec<(f64, f64)>],
    queries: &[Vec<Point>],
    ops: &[Op],
) -> (u64, u64) {
    let params = MeasureParams::with_eps(0.5);
    let rcfg = ReposeConfig::new(measure).with_partitions(2).with_delta(0.7).with_params(params);
    let mut live: BTreeMap<u64, Vec<Point>> =
        initial.iter().enumerate().map(|(id, raw)| (id as u64, points(raw))).collect();
    let build = |cache_capacity| {
        let trajs = live.iter().map(|(&id, pts)| Trajectory::new(id, pts.clone())).collect();
        let cfg = ServiceConfig { cache_capacity, pool_threads: 1, ..Default::default() };
        ReposeService::with_config(Repose::build(&Dataset::from_trajectories(trajs), rcfg), cfg)
    };
    let (cached, twin) = (build(16), build(0));
    // (query index, k) -> whether the entry was filled with no row tied at
    // its k-th distance.
    let mut unique_at_fill: HashMap<(usize, usize), bool> = HashMap::new();

    for (i, (roll, id, raw, k, qi)) in ops.iter().enumerate() {
        let (id, k, q) = (*id, *k, &queries[*qi]);
        match roll {
            0..=39 => {
                let pts = match roll {
                    0..=24 => points(raw),
                    25..=32 => raw.iter().map(|&(x, y)| Point::new(x + 64.0, y + 64.0)).collect(),
                    _ => q.clone(),
                };
                for s in [&cached, &twin] {
                    s.insert(Trajectory::new(id, pts.clone())).unwrap();
                }
                live.insert(id, pts);
            }
            40..=54 => {
                for s in [&cached, &twin] {
                    s.remove(id).unwrap();
                }
                live.remove(&id);
            }
            55..=59 => {
                for s in [&cached, &twin] {
                    s.compact().unwrap();
                }
            }
            _ => {
                let got = cached.query(q, k).unwrap();
                let want = twin.query(q, k).unwrap();
                let bits = |hits: &[Hit]| hits.iter().map(|h| h.dist.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.hits), bits(&want.hits), "op {i}: {measure} k={k} query {qi}");
                if !got.cache_hit {
                    let mut dists: Vec<f64> =
                        live.values().map(|pts| params.distance(measure, q, pts)).collect();
                    dists.sort_by(f64::total_cmp);
                    let unique = dists.len() <= k || dists[k - 1].to_bits() != dists[k].to_bits();
                    unique_at_fill.insert((*qi, k), unique);
                } else if unique_at_fill[&(*qi, k)] {
                    let ids = |hits: &[Hit]| hits.iter().map(|h| h.id).collect::<Vec<_>>();
                    let (got, want) = (ids(&got.hits), ids(&want.hits));
                    assert_eq!(got, want, "op {i}: stale ids, {measure} k={k}");
                }
            }
        }
    }
    let stats = cached.stats();
    (stats.cache_revalidated, stats.cache_stale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every answer the cached service gives is bitwise the uncached
    /// twin's, across every write, compaction and measure.
    #[test]
    fn cached_answers_equal_uncached_ones(
        measure_idx in 0usize..6,
        initial in proptest::collection::vec(arb_points(), 1..10),
        queries in proptest::collection::vec(arb_points(), 3..4),
        ops in arb_ops(),
    ) {
        let queries: Vec<Vec<Point>> = queries.iter().map(|raw| points(raw)).collect();
        run(Measure::ALL[measure_idx], &initial, &queries, &ops);
    }
}

/// The interleavings above do exercise the walk: across a fixed batch of
/// them, entries are both revalidated and refused.
#[test]
fn the_interleavings_revalidate_and_refuse() {
    let mut rng = proptest::TestRng::for_case("the_interleavings_revalidate_and_refuse", 0);
    let (mut revalidated, mut stale) = (0, 0);
    for measure in Measure::ALL {
        let initial = proptest::collection::vec(arb_points(), 1..10).sample_value(&mut rng);
        let queries = proptest::collection::vec(arb_points(), 3..4).sample_value(&mut rng);
        let queries: Vec<Vec<Point>> = queries.iter().map(|raw| points(raw)).collect();
        let ops = arb_ops().sample_value(&mut rng);
        let (r, s) = run(measure, &initial, &queries, &ops);
        revalidated += r;
        stale += s;
    }
    assert!(revalidated > 0 && stale > 0, "revalidated {revalidated}, stale {stale}");
}
