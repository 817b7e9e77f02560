//! Shared-threshold execution vs independent per-partition search
//! (`Repose::query` vs `Repose::query_independent`) — the wall-clock view
//! of the `scale` experiment.

mod common;

use common::{bench_cfg, small_workload};
use criterion::{criterion_group, criterion_main, Criterion};
use repose::{Repose, ReposeConfig};
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cfg = bench_cfg();
    let (data, queries) = small_workload(PaperDataset::TDrive);
    let r = Repose::build(
        &data,
        ReposeConfig::new(Measure::Hausdorff)
            .with_cluster(cfg.cluster)
            .with_partitions(cfg.partitions)
            .with_delta(PaperDataset::TDrive.paper_delta(Measure::Hausdorff)),
    );
    let q = &queries[0].points;
    let mut group = c.benchmark_group("shared_threshold_scale");
    group.sample_size(10);
    group.bench_function("independent", |b| {
        b.iter(|| black_box(r.query_independent(q, cfg.k)))
    });
    group.bench_function("shared", |b| b.iter(|| black_box(r.query(q, cfg.k))));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
