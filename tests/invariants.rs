//! Property-based integration tests of the paper's core invariants: every
//! lower bound must actually lower-bound the exact distances, and the index
//! answer must always equal the scan answer, for randomized datasets.

use proptest::prelude::*;
use repose_datagen::{sample_queries, PaperDataset};
use repose_distance::{
    bound_exceeds, just_above, reference, DistScratch, Measure, MeasureParams, SharedTopK,
};
use repose_model::{Dataset, Mbr, Point, TrajStore, Trajectory};
use repose_rptrie::{RpTrie, RpTrieConfig};
use repose_zorder::Grid;

/// Random trajectory set in [0, 64)^2 with modest lengths.
fn arb_trajectories() -> impl Strategy<Value = Vec<Trajectory>> {
    repose_testkit::arb_trajectories(64.0, 1..40, 2..12)
}

fn region() -> Mbr {
    repose_testkit::square(64.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant: for random data, random queries, every
    /// measure, and every k — the RP-Trie answer equals brute force.
    #[test]
    fn rptrie_always_matches_brute_force(
        trajs in arb_trajectories(),
        query in proptest::collection::vec((0.0f64..64.0, 0.0f64..64.0), 1..10),
        level in 2u8..6,
        k in 1usize..8,
        measure_idx in 0usize..6,
    ) {
        let measure = Measure::ALL[measure_idx];
        let query: Vec<Point> = query.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let params = MeasureParams::with_eps(2.0);
        let grid = Grid::new(region(), level);
        let store = TrajStore::from_trajectories(&trajs);
        let trie = RpTrie::build(
            &store,
            grid,
            RpTrieConfig::for_measure(measure).with_params(params).with_np(3),
        );
        let got = trie.top_k(&store, &query, k).hits;

        let mut expect: Vec<(f64, u64)> = trajs
            .iter()
            .map(|t| (params.distance(measure, &query, &t.points), t.id))
            .collect();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        expect.truncate(k);
        // Ties may resolve differently (Definition 3 permits any tied
        // subset), so compare the distance vector and verify each reported
        // distance is exact.
        prop_assert_eq!(got.len(), expect.len());
        for (h, e) in got.iter().zip(&expect) {
            prop_assert!((h.dist - e.0).abs() < 1e-9,
                "distance vector differs: {} vs {}", h.dist, e.0);
            let t = trajs.iter().find(|t| t.id == h.id).expect("known id");
            let true_d = params.distance(measure, &query, &t.points);
            prop_assert!((h.dist - true_d).abs() < 1e-9, "reported distance wrong");
        }
    }

    /// Pivot-interval containment: distances from any trajectory to any
    /// pivot must fall inside the root HR interval.
    #[test]
    fn hr_intervals_cover_all_distances(
        trajs in arb_trajectories(),
        measure_idx in 0usize..3,
    ) {
        let measure = [Measure::Hausdorff, Measure::Frechet, Measure::Erp][measure_idx];
        let params = MeasureParams::default();
        let grid = Grid::new(region(), 4);
        let trie = RpTrie::build(
            &TrajStore::from_trajectories(&trajs),
            grid,
            RpTrieConfig::for_measure(measure).with_params(params).with_np(2),
        );
        let hr = trie.frozen().hr(trie.frozen().root());
        for (pi, pivot) in trie.pivots().pivots().iter().enumerate() {
            for t in &trajs {
                let d = params.distance(measure, &t.points, pivot);
                prop_assert!(d >= hr[2 * pi] - 1e-9 && d <= hr[2 * pi + 1] + 1e-9);
            }
        }
    }
}

#[test]
fn sampled_queries_always_rank_themselves_first() {
    // A dataset member queried against the index must come back as the top
    // hit with distance 0 for every measure (identity law, end to end).
    let dataset = repose_datagen::PaperDataset::SF.generate(0.05, 77);
    let queries = sample_queries(&dataset, 3, 123);
    let store = TrajStore::from_trajectories(dataset.trajectories());
    let grid = Grid::with_delta(dataset.enclosing_square().unwrap(), 0.05);
    for measure in Measure::ALL {
        let trie = RpTrie::build(
            &store,
            grid.clone(),
            RpTrieConfig::for_measure(measure).with_params(MeasureParams::with_eps(0.01)),
        );
        for q in &queries {
            let r = trie.top_k(&store, &q.points, 1);
            assert_eq!(r.hits[0].id, q.id, "{measure}");
            assert!(r.hits[0].dist.abs() < 1e-12, "{measure}");
        }
    }
}

/// The production leaf-verification path, `MeasureParams::verify`, is
/// bit-identical to the frozen seed kernels on whichever backend the
/// process runs (CI forces each in turn). The candidates are every
/// trajectory the O(1) summary bound lets through at the true k-th
/// distance, verified under `just_above(kth)` as trie leaves are: one
/// pass under a collector seeded at `dk` with room for all of them, so its
/// bound stays at `dk` and it publishes exactly the reference's `Some`s,
/// each with the reference's bits. A refusal must match too: a DTW
/// candidate the nearest-neighbour stage refuses is not published, so the
/// reference must abandon it as well.
#[test]
fn batched_verification_is_bitwise_the_reference() {
    let ds = PaperDataset::TDrive;
    let data = ds.generate(0.03, 11);
    let store = TrajStore::from_trajectories(data.trajectories());
    let query = &sample_queries(&data, 1, 11)[0].points;
    let k = 3;
    let mut scratch = DistScratch::new();
    let mut refused = 0;
    for measure in Measure::ALL {
        let params = MeasureParams::with_eps(ds.paper_delta(measure));
        let mut dists: Vec<f64> = (0..store.len())
            .map(|s| reference::distance(&params, measure, query, store.points(s)))
            .collect();
        dists.sort_by(f64::total_cmp);
        let kth = dists[k - 1];
        let qsum = params.summary_of(query);
        let cands: Vec<(f64, u64, &[Point])> = (0..store.len())
            .filter_map(|s| {
                let pts = store.points(s);
                let lb = params.summary_lower_bound(measure, &qsum, &params.summary_of(pts));
                (!bound_exceeds(lb, kth)).then_some((lb, store.id(s), pts))
            })
            .collect();
        let dk = just_above(kth);
        let mut want_hits = Vec::new();
        for &(lb, id, pts) in &cands {
            let want = reference::distance_within_from_lb(&params, measure, query, pts, dk, lb);
            want_hits.extend(want.map(|d| (d.to_bits(), id)));
        }
        let all = SharedTopK::with_initial_bound(cands.len(), dk);
        let counts = params.verify(measure, query, cands.iter().copied(), &all, &mut scratch);
        want_hits.sort_unstable();
        let published: Vec<(u64, u64)> =
            all.hits().iter().map(|h| (h.dist.to_bits(), h.id)).collect();
        assert_eq!(published, want_hits, "{measure}");
        assert_eq!(counts, (cands.len(), cands.len() - want_hits.len()), "{measure}");
        // The k nearest always survive `dk`; the rest exercise refusals.
        assert!(want_hits.len() >= k, "{measure}");
        refused += counts.1;
    }
    assert!(refused > 0, "no candidate was refused: the check saw no abandon path");
}

#[test]
fn dataset_stats_survive_partition_roundtrip() {
    use repose::{PartitionStrategy, Repose, ReposeConfig};
    let dataset = repose_datagen::PaperDataset::Porto.generate(0.02, 3);
    for strategy in [
        PartitionStrategy::Heterogeneous,
        PartitionStrategy::Homogeneous,
        PartitionStrategy::Random,
    ] {
        let config = ReposeConfig::new(Measure::Hausdorff)
            .with_partitions(7)
            .with_strategy(strategy)
            .with_seed(1);
        let repose = Repose::build(&dataset, config);
        let total_pts: usize = (0..repose.num_partitions())
            .map(|pi| {
                let store = repose.partition_view(pi).store;
                (0..store.len()).map(|slot| store.points(slot).len()).sum::<usize>()
            })
            .sum();
        assert_eq!(repose.num_partitions(), 7, "{strategy:?}");
        assert_eq!(total_pts, dataset.stats().total_points, "{strategy:?}");
    }
}

#[test]
fn grid_fidelity_improves_with_finer_delta() {
    // Finer grids must never make the reference trajectory a worse
    // Hausdorff approximation of the original.
    let dataset = repose_datagen::PaperDataset::TDrive.generate(0.02, 9);
    let sq = dataset.enclosing_square().unwrap();
    let coarse = Grid::with_delta(sq, 0.5);
    let fine = Grid::with_delta(sq, 0.05);
    for t in dataset.trajectories().iter().take(20) {
        let rc = coarse.reference_trajectory(&t.points);
        let rf = fine.reference_trajectory(&t.points);
        let dc = reference::hausdorff(&t.points, &rc);
        let df = reference::hausdorff(&t.points, &rf);
        assert!(df <= dc + 1e-12, "fine {df} vs coarse {dc}");
        assert!(dc <= coarse.half_diagonal() + 1e-12);
        assert!(df <= fine.half_diagonal() + 1e-12);
    }
}

#[test]
fn dataset_roundtrips_through_serde() {
    let dataset = repose_datagen::PaperDataset::Rome.generate(0.02, 4);
    let json = serde_json::to_string(&dataset).unwrap();
    let back: Dataset = serde_json::from_str(&json).unwrap();
    assert_eq!(dataset.trajectories(), back.trajectories());
}
