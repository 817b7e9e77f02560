//! Archive roundtrip: a deployment written to disk and attached back from
//! the mapped file must answer every query *bitwise identically* to the
//! original, for all six measures — the restart path is only millisecond-
//! fast if it is also exactly right.

use repose::{Repose, ReposeConfig};
use repose_archive::{latest_valid, list_generations, write_archive, Archive, ArchiveMeta};
use repose_cluster::ClusterConfig;
use repose_distance::Measure;
use repose_durability::FailPlan;
use repose_testkit::{tie_dataset, tie_queries};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "repose-archive-rt-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(measure: Measure) -> ReposeConfig {
    ReposeConfig::new(measure)
        .with_cluster(ClusterConfig { workers: 2, cores_per_worker: 2 })
        .with_partitions(4)
}

/// Asserts two deployments answer every fixed query identically: the
/// distance bit patterns rank by rank, and the ids at every rank whose
/// distance is unique in the answer and below its k-th distance. Where
/// distances tie — inside the answer, or at the k-th slot with a candidate
/// left out — Definition 3 admits any of the tied trajectories, and the
/// concurrent query resolves them by arrival order.
fn assert_same_answers(a: &Repose, b: &Repose, context: &str) {
    for (qi, q) in tie_queries().iter().enumerate() {
        let (x, y) = (a.query(q, 7).hits, b.query(q, 7).hits);
        let bits = |hits: &[repose::Hit]| hits.iter().map(|h| h.dist.to_bits()).collect::<Vec<_>>();
        let (xb, yb) = (bits(&x), bits(&y));
        assert_eq!(xb, yb, "{context}: query {qi} distances differ");
        let kth = *xb.last().expect("non-empty answer");
        for (rank, (hx, hy)) in x.iter().zip(&y).enumerate() {
            let d = xb[rank];
            if d != kth && xb.iter().filter(|&&o| o == d).count() == 1 {
                assert_eq!(hx.id, hy.id, "{context}: query {qi} rank {rank} ids differ");
            }
        }
    }
}

#[test]
fn attach_answers_bitwise_identically_for_all_measures() {
    for measure in [
        Measure::Hausdorff,
        Measure::Frechet,
        Measure::Dtw,
        Measure::Lcss,
        Measure::Edr,
        Measure::Erp,
    ] {
        let dir = scratch("measures");
        let built = Repose::build(&tie_dataset(0..40), config(measure));

        let path = write_archive(&dir, &built, 17, &FailPlan::new()).unwrap();
        let archive = Archive::open(&path, &FailPlan::new()).unwrap();
        assert_eq!(archive.op_seq(), 17);
        let attached = archive.attach().unwrap();

        assert_same_answers(&attached, &built, &format!("{measure:?} attached vs built"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn attach_is_zero_copy_over_the_mapping() {
    let dir = scratch("zero-copy");
    let built = Repose::build(&tie_dataset(0..40), config(Measure::Hausdorff));
    let path = write_archive(&dir, &built, 1, &FailPlan::new()).unwrap();
    let archive = Archive::open(&path, &FailPlan::new()).unwrap();
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    assert!(archive.is_mapped(), "linux/x86-64 attach should be a real mmap");
    let attached = archive.attach().unwrap();
    for pi in 0..attached.num_partitions() {
        let view = attached.partition_view(pi);
        // Mapped sections report zero owned heap bytes: the arenas live
        // in the file mapping, not in copies.
        assert_eq!(view.store.mem_bytes(), 0, "partition {pi} store was copied");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generations_install_in_sequence_and_latest_wins() {
    let dir = scratch("gens");
    let built = Repose::build(&tie_dataset(0..30), config(Measure::Hausdorff));
    let p1 = write_archive(&dir, &built, 5, &FailPlan::new()).unwrap();
    let p2 = write_archive(&dir, &built, 9, &FailPlan::new()).unwrap();
    assert_ne!(p1, p2);
    assert_eq!(list_generations(&dir).len(), 2);

    let scan = latest_valid(&dir, &FailPlan::new());
    assert!(scan.rejected.is_empty());
    assert_eq!(scan.best.unwrap().op_seq(), 9, "newest generation wins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heap_fallback_answers_identically_to_the_mapping() {
    let dir = scratch("heap");
    let built = Repose::build(&tie_dataset(0..30), config(Measure::Frechet));
    let path = write_archive(&dir, &built, 3, &FailPlan::new()).unwrap();

    let mapped = Archive::open(&path, &FailPlan::new()).unwrap().attach().unwrap();
    let heap = Archive::open_heap(&path).unwrap().attach().unwrap();
    assert_same_answers(&mapped, &heap, "mapped vs heap");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_is_clean_on_a_valid_archive() {
    let dir = scratch("scrub");
    let built = Repose::build(&tie_dataset(0..30), config(Measure::Hausdorff));
    let path = write_archive(&dir, &built, 1, &FailPlan::new()).unwrap();
    let archive = Archive::open(&path, &FailPlan::new()).unwrap();
    let report = archive.scrub();
    assert!(report.is_clean(), "unexpected corruption: {:?}", report.corrupt);
    // 13 array sections per partition + 1 meta.
    assert_eq!(report.sections, 4 * 13 + 1);
    assert_eq!(report.bytes, archive.file_len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Archives written before a `ClusterConfig` field was retired still
/// carry it inside the meta section's cluster object. The meta must still
/// read, to the same configuration: fields the reader does not know are
/// skipped.
#[test]
fn meta_with_a_retired_cluster_field_still_reads() {
    let dir = scratch("retired-field");
    let built = Repose::build(&tie_dataset(0..30), config(Measure::Hausdorff));
    let path = write_archive(&dir, &built, 1, &FailPlan::new()).unwrap();
    let meta = Archive::open(&path, &FailPlan::new()).unwrap().meta().clone();
    let json = serde_json::to_string(&meta).unwrap();
    let old = json.replacen(
        "\"cores_per_worker\":2",
        "\"cores_per_worker\":2,\"retired_field\":3",
        1,
    );
    assert_ne!(old, json, "the cluster object was found");
    let read: ArchiveMeta = serde_json::from_str(&old).unwrap();
    assert_eq!(read.config, meta.config);
    assert_eq!(read.region, meta.region);
    let _ = std::fs::remove_dir_all(&dir);
}
