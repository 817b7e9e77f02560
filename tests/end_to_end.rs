//! Cross-crate integration tests: the full pipeline from synthetic data
//! generation through distributed indexing to query answers, checked
//! against brute force for every measure, every partitioning strategy, and
//! every algorithm.

use repose::{PartitionStrategy, Repose, ReposeConfig};
use repose_baselines::{BaselinePlacement, Dft, DftConfig, Dita, DitaConfig, LinearScan};
use repose_cluster::ClusterConfig;
use repose_datagen::{sample_queries, PaperDataset};
use repose_distance::{Measure, MeasureParams};
use repose_model::{Dataset, Point, Trajectory};

fn brute_force(
    d: &Dataset,
    q: &[Point],
    k: usize,
    m: Measure,
    p: MeasureParams,
) -> Vec<(u64, f64)> {
    let mut v: Vec<(f64, u64)> = d
        .trajectories()
        .iter()
        .map(|t| (p.distance(m, q, &t.points), t.id))
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    v.truncate(k);
    v.into_iter().map(|(d, i)| (i, d)).collect()
}

fn small_cluster() -> ClusterConfig {
    ClusterConfig { workers: 4, cores_per_worker: 2 }
}

/// Asserts `got` is a valid top-k: same multiset of distances as the brute
/// force answer (ties may be resolved differently — Definition 3 permits
/// any tied subset), and every reported distance is the trajectory's true
/// distance.
fn assert_valid_topk(
    got: &[(u64, f64)],
    expect: &[(u64, f64)],
    d: &Dataset,
    q: &[Point],
    m: Measure,
    p: MeasureParams,
    ctx: &str,
) {
    assert_eq!(got.len(), expect.len(), "{ctx}: wrong result size");
    for ((_, gd), (_, ed)) in got.iter().zip(expect) {
        assert!((gd - ed).abs() < 1e-9, "{ctx}: distance vector differs: {gd} vs {ed}");
    }
    let idx = d.id_index();
    for (id, dist) in got {
        let t = &d.trajectories()[idx[id]];
        let true_d = p.distance(m, q, &t.points);
        assert!((dist - true_d).abs() < 1e-9, "{ctx}: reported distance wrong for {id}");
    }
}

#[test]
fn repose_agrees_with_brute_force_on_synthetic_data() {
    let dataset = PaperDataset::SF.generate(0.08, 3);
    let queries = sample_queries(&dataset, 3, 17);
    let params = MeasureParams::with_eps(0.01);
    for measure in Measure::ALL {
        let cfg = ReposeConfig::new(measure)
            .with_cluster(small_cluster())
            .with_partitions(8)
            .with_delta(PaperDataset::SF.paper_delta(measure))
            .with_params(params);
        let repose = Repose::build(&dataset, cfg);
        for q in &queries {
            let got: Vec<(u64, f64)> = repose
                .query(&q.points, 10)
                .hits
                .iter()
                .map(|h| (h.id, h.dist))
                .collect();
            let expect = brute_force(&dataset, &q.points, 10, measure, params);
            assert_valid_topk(&got, &expect, &dataset, &q.points, measure, params, measure.name());
        }
    }
}

#[test]
fn all_algorithms_agree_on_hausdorff_and_frechet() {
    let dataset = PaperDataset::TDrive.generate(0.06, 9);
    let queries = sample_queries(&dataset, 2, 31);
    let params = MeasureParams::default();
    for measure in [Measure::Hausdorff, Measure::Frechet] {
        let repose = Repose::build(
            &dataset,
            ReposeConfig::new(measure)
                .with_cluster(small_cluster())
                .with_partitions(8)
                .with_delta(PaperDataset::TDrive.paper_delta(measure)),
        );
        let ls = LinearScan::build(&dataset, small_cluster(), 8, measure, params);
        let dft = Dft::build(
            &dataset,
            DftConfig {
                cluster: small_cluster(),
                num_partitions: 8,
                sample_factor: 5,
                placement: BaselinePlacement::Homogeneous,
                seed: 1,
            },
            measure,
            params,
        );
        for q in &queries {
            let k = 20;
            let want: Vec<u64> = brute_force(&dataset, &q.points, k, measure, params)
                .into_iter()
                .map(|e| e.0)
                .collect();
            let r: Vec<u64> = repose.query(&q.points, k).hits.iter().map(|h| h.id).collect();
            let l: Vec<u64> = ls.query(&q.points, k).hits.iter().map(|h| h.id).collect();
            let f: Vec<u64> = dft.query(&q.points, k).hits.iter().map(|h| h.id).collect();
            assert_eq!(r, want, "REPOSE {measure}");
            assert_eq!(l, want, "LS {measure}");
            assert_eq!(f, want, "DFT {measure}");
            if Dita::supports(measure) {
                let dita = Dita::build(
                    &dataset,
                    DitaConfig {
                        cluster: small_cluster(),
                        num_partitions: 8,
                        nl: 16,
                        c_factor: 5,
                        placement: BaselinePlacement::Homogeneous,
                    },
                    measure,
                    params,
                );
                let t: Vec<u64> =
                    dita.query(&q.points, k).hits.iter().map(|h| h.id).collect();
                assert_eq!(t, want, "DITA {measure}");
            }
        }
    }
}

#[test]
fn partitioning_strategies_preserve_results_on_generated_data() {
    let dataset = PaperDataset::Porto.generate(0.03, 13);
    let q = &sample_queries(&dataset, 1, 5)[0];
    let mut answers = Vec::new();
    for strategy in [
        PartitionStrategy::Heterogeneous,
        PartitionStrategy::Homogeneous,
        PartitionStrategy::Random,
    ] {
        let cfg = ReposeConfig::new(Measure::Hausdorff)
            .with_cluster(small_cluster())
            .with_partitions(6)
            .with_delta(0.05)
            .with_strategy(strategy);
        let repose = Repose::build(&dataset, cfg);
        answers.push(
            repose
                .query(&q.points, 15)
                .hits
                .iter()
                .map(|h| h.id)
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0], answers[2]);
}

#[test]
fn preprocessing_pipeline_roundtrip() {
    // Long trajectories get split, short ones dropped, and the result is
    // still queryable.
    let mut trajs = Vec::new();
    for i in 0..30u64 {
        let len = match i % 3 {
            0 => 5,    // dropped
            1 => 40,   // kept
            _ => 2500, // split into 3 (1000+1000+500)
        };
        trajs.push(Trajectory::new(
            i,
            (0..len)
                .map(|j| Point::new(j as f64 * 0.01 + i as f64, i as f64))
                .collect(),
        ));
    }
    let dataset = Dataset::from_trajectories(trajs).preprocess(Default::default());
    assert!(dataset.trajectories().iter().all(|t| t.len() >= 10 && t.len() <= 1000));
    let cfg = ReposeConfig::new(Measure::Hausdorff)
        .with_cluster(small_cluster())
        .with_partitions(4)
        .with_delta(0.5);
    let repose = Repose::build(&dataset, cfg);
    let q = &dataset.trajectories()[0];
    let out = repose.query(&q.points, 5);
    assert_eq!(out.hits[0].id, q.id);
}

#[test]
fn query_trajectories_not_in_dataset_work() {
    let dataset = PaperDataset::Rome.generate(0.1, 23);
    let cfg = ReposeConfig::new(Measure::Dtw)
        .with_cluster(small_cluster())
        .with_partitions(4)
        .with_delta(0.05);
    let repose = Repose::build(&dataset, cfg);
    // A synthetic query that is in the region but not in the dataset.
    let q: Vec<Point> = (0..15).map(|i| Point::new(0.3 + i as f64 * 0.01, 0.4)).collect();
    let out = repose.query(&q, 5);
    assert_eq!(out.hits.len(), 5);
    let expect = brute_force(&dataset, &q, 5, Measure::Dtw, MeasureParams::default());
    assert_eq!(
        out.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
        expect.iter().map(|e| e.0).collect::<Vec<_>>()
    );
}
