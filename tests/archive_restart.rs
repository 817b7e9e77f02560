//! Crash restarts at the service level: a durable service's archive
//! generation is its log's base, so it must restart by attaching the
//! newest valid generation and replaying only the WAL tail — and the
//! result must be **bitwise identical** to a volatile service that
//! received the same writes, for every measure.
//!
//! The robustness half: corrupt generations are quarantined loudly and
//! recovery falls back to the previous generation with a longer replay;
//! with no generation left it fails typed, never serving a wrong answer.

use repose::{Repose, ReposeConfig};
use repose_archive::{list_generations, write_archive, ArchiveError};
use repose_distance::{Measure, MeasureParams};
use repose_durability::{DurabilityConfig, FailAction, FailPlan, FsyncPolicy};
use repose_model::TrajStore;
use repose_service::{ReposeService, ServiceConfig, ServiceError};
use repose_testkit::{sorted_dist_bits, tie_dataset, tie_queries, tie_traj};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const PARTITIONS: usize = 4;

fn repose_config(measure: Measure) -> ReposeConfig {
    ReposeConfig::new(measure)
        .with_partitions(PARTITIONS)
        .with_delta(0.7)
        .with_params(MeasureParams::with_eps(0.5))
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("repose-arcrestart-{tag}-{}-{n}", std::process::id()))
}

fn archived_config(wal: &Path, arc: &Path) -> ServiceConfig {
    ServiceConfig {
        cache_capacity: 0,
        pool_threads: 1,
        durability: Some(DurabilityConfig::new(wal).with_fsync(FsyncPolicy::Always)),
        archive: Some(arc.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// Sorted hit-distance bit patterns of the fixed queries — bit-exact
/// state fingerprint.
fn fingerprint(svc: &ReposeService, k: usize) -> Vec<Vec<u64>> {
    tie_queries()
        .iter()
        .map(|q| sorted_dist_bits(svc.query(q, k).expect("query").hits.iter().map(|h| h.dist)))
        .collect()
}

/// Writes [`drive`] acknowledges.
const DRIVEN_WRITES: u64 = 15;

/// Drives the canonical workload: a burst, a compaction (which installs
/// an archive generation at the checkpoint sequence), then a tail of
/// writes that only the WAL holds.
fn drive(svc: &ReposeService) {
    for i in 0..8u64 {
        svc.insert(tie_traj(500 + i)).expect("insert");
    }
    svc.remove(3).expect("remove");
    svc.compact().expect("compact");
    for i in 8..13u64 {
        svc.insert(tie_traj(500 + i)).expect("insert");
    }
    svc.remove(500).expect("remove");
}

#[test]
fn archive_restart_matches_full_rebuild_for_every_measure() {
    for measure in Measure::ALL {
        let (wal, arc) = (fresh_dir("eq-wal"), fresh_dir("eq-arc"));
        let cfg = repose_config(measure);
        let svc = ReposeService::try_with_config(
            Repose::build(&tie_dataset(0..40), cfg),
            archived_config(&wal, &arc),
        )
        .expect("archived service");
        drive(&svc);
        let want = fingerprint(&svc, 7);
        assert_eq!(
            svc.stats().archive_generations,
            2,
            "{measure}: construction + compaction must both install generations"
        );
        drop(svc);

        // Attach + WAL tail.
        let (recovered, report) = ReposeService::recover(cfg, archived_config(&wal, &arc))
            .expect("archive recovery");
        assert!(report.from_archive, "{measure}: valid archive was not attached");
        assert_eq!(report.archives_quarantined, 0, "{measure}");
        assert_eq!(report.last_seq, DRIVEN_WRITES, "{measure}");
        assert!(
            report.replayed_records < DRIVEN_WRITES && report.replayed_records >= 6,
            "{measure}: expected only the post-compaction tail, replayed {} past seq {}",
            report.replayed_records,
            report.archive_op_seq
        );

        // Reference: a volatile service built over the same data that
        // received the same writes.
        let volatile = ReposeService::with_config(
            Repose::build(&tie_dataset(0..40), cfg),
            ServiceConfig { cache_capacity: 0, pool_threads: 1, ..ServiceConfig::default() },
        );
        drive(&volatile);

        assert_eq!(recovered.len(), volatile.len(), "{measure}: live count diverged");
        let got = fingerprint(&recovered, 7);
        assert_eq!(got, fingerprint(&volatile, 7), "{measure}: restart vs volatile diverged");
        assert_eq!(got, want, "{measure}: restart diverged from pre-crash state");

        let _ = std::fs::remove_dir_all(&wal);
        let _ = std::fs::remove_dir_all(&arc);
    }
}

#[test]
fn corrupt_newest_generation_is_quarantined_and_recovery_degrades() {
    let (wal, arc) = (fresh_dir("q-wal"), fresh_dir("q-arc"));
    let cfg = repose_config(Measure::Hausdorff);
    let svc = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..40), cfg),
        archived_config(&wal, &arc),
    )
    .expect("archived service");
    drive(&svc);
    let want = fingerprint(&svc, 7);
    drop(svc);

    // Flip one byte in the *newest* generation.
    let gens = list_generations(&arc);
    assert_eq!(gens.len(), 2, "construction + compaction generations");
    let newest = gens.last().unwrap().1.clone();
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, bytes).unwrap();

    // Recovery quarantines it. The log reaches back to the older
    // generation (construction's, at sequence 0), so it attaches and
    // every acknowledged write replays on top of it.
    let (recovered, report) =
        ReposeService::recover(cfg, archived_config(&wal, &arc)).expect("recovery");
    assert_eq!(report.archives_quarantined, 1, "corrupt generation not quarantined");
    assert!(report.from_archive);
    assert_eq!(report.archive_op_seq, 0, "the predecessor must attach");
    assert_eq!(report.replayed_records, DRIVEN_WRITES, "every acknowledged write replays");
    assert!(!newest.exists(), "corrupt file left in place");
    assert!(arc.join(".quarantine").is_dir(), "quarantine evidence missing");
    assert_eq!(fingerprint(&recovered, 7), want, "fallback recovery diverged");

    // The recovery-time compaction path still works and installs a fresh,
    // usable generation.
    recovered.compact().expect("compact");
    let want2 = fingerprint(&recovered, 7);
    drop(recovered);
    let (again, report2) =
        ReposeService::recover(cfg, archived_config(&wal, &arc)).expect("second recovery");
    assert_eq!(report2.archive_op_seq, DRIVEN_WRITES, "fresh generation must attach");
    assert_eq!(report2.replayed_records, 0);
    assert_eq!(fingerprint(&again, 7), want2);

    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&arc);
}

/// A generation is the log's only base, so with every generation gone
/// recovery fails typed and touches nothing.
#[test]
fn every_generation_destroyed_is_a_typed_error() {
    let (wal, arc) = (fresh_dir("gone-wal"), fresh_dir("gone-arc"));
    let cfg = repose_config(Measure::Dtw);
    let svc = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        archived_config(&wal, &arc),
    )
    .expect("archived service");
    drive(&svc);
    drop(svc);

    let _ = std::fs::remove_dir_all(&arc);
    let journal = || {
        let mut files: Vec<_> =
            std::fs::read_dir(&wal).unwrap().map(|e| e.unwrap().path()).collect();
        files.sort();
        files
    };
    let before = journal();
    let err = ReposeService::recover(cfg, archived_config(&wal, &arc)).map(drop);
    assert!(
        matches!(&err, Err(ServiceError::NoUsableGeneration { dir }) if *dir == arc),
        "expected NoUsableGeneration, got {err:?}"
    );
    assert_eq!(journal(), before, "a failed recovery must leave the journal as it was");
    let _ = std::fs::remove_dir_all(&wal);
}

/// An I/O error opening a generation says nothing about its bytes: the
/// recovery fails typed, quarantines nothing, and a retry recovers.
#[test]
fn io_error_opening_a_generation_is_retried_not_quarantined() {
    let (wal, arc) = (fresh_dir("io-wal"), fresh_dir("io-arc"));
    let cfg = repose_config(Measure::Frechet);
    let svc = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        archived_config(&wal, &arc),
    )
    .expect("archived service");
    drive(&svc);
    let want = fingerprint(&svc, 5);
    drop(svc);

    let plan = FailPlan::new();
    plan.arm("arc.map", FailAction::IoError, 0);
    let faulty = || ServiceConfig {
        durability: Some(DurabilityConfig::new(&wal).with_failpoints(plan.clone())),
        ..archived_config(&wal, &arc)
    };
    let err = ReposeService::recover(cfg, faulty()).map(drop);
    assert!(
        matches!(err, Err(ServiceError::Archive(ArchiveError::Io { .. }))),
        "expected a typed I/O error, got {err:?}"
    );
    assert_eq!(list_generations(&arc).len(), 2, "a valid generation was quarantined");
    assert!(!arc.join(".quarantine").exists());

    let (recovered, report) = ReposeService::recover(cfg, faulty()).expect("retry");
    assert_eq!(report.archives_quarantined, 0);
    assert_eq!(report.archive_op_seq, 9, "the newest generation attaches");
    assert_eq!(fingerprint(&recovered, 5), want, "retried recovery diverged");
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&arc);
}

#[test]
fn scrub_counts_sections_and_stats_track_generations() {
    let (wal, arc) = (fresh_dir("scrub-wal"), fresh_dir("scrub-arc"));
    let cfg = repose_config(Measure::Frechet);
    let svc = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        archived_config(&wal, &arc),
    )
    .expect("archived service");

    let report = svc.scrub().expect("an archived service must have a scrub target");
    assert!(report.is_clean(), "fresh generation scrubbed dirty: {:?}", report.corrupt);
    // 13 array sections per partition + 1 meta section.
    assert_eq!(report.sections, PARTITIONS * 13 + 1);
    let stats = svc.stats();
    assert_eq!(stats.scrubs, 1);
    assert_eq!(stats.scrub_corruptions, 0);
    assert_eq!(stats.archive_generations, 1);

    // Compaction rolls the scrub target onto the new generation.
    drive(&svc);
    assert!(svc.scrub().expect("scrub").is_clean());
    assert_eq!(svc.stats().archive_generations, 2);
    assert_eq!(svc.stats().scrubs, 2);
    drop(svc);

    // A volatile, archive-less service has nothing to scrub.
    let plain = ReposeService::with_config(
        Repose::build(&tie_dataset(0..10), cfg),
        ServiceConfig { cache_capacity: 0, pool_threads: 1, ..ServiceConfig::default() },
    );
    assert!(plain.scrub().is_none());
    assert_eq!(plain.stats().scrubs, 0);

    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&arc);
}

#[test]
fn generations_are_pruned_to_the_retention_limit() {
    let (wal, arc) = (fresh_dir("prune-wal"), fresh_dir("prune-arc"));
    let cfg = repose_config(Measure::Hausdorff);
    let svc = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..20), cfg),
        archived_config(&wal, &arc),
    )
    .expect("archived service");
    for round in 0..4u64 {
        svc.insert(tie_traj(900 + round)).expect("insert");
        svc.compact().expect("compact");
    }
    assert_eq!(svc.stats().archive_generations, 5, "1 construction + 4 compactions");
    assert_eq!(
        list_generations(&arc).len(),
        2,
        "retention must keep exactly the newest generation plus one fallback"
    );
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&arc);
}

/// A compaction rebuilds every partition in place, so a partition no
/// write touched must come back exactly as it was: building each
/// partition from its own rows, in arena order, on the deployment's region
/// writes a byte-identical archive, for every measure.
#[test]
fn rebuilding_every_partition_in_place_writes_an_identical_archive() {
    for measure in Measure::ALL {
        let built = Repose::build(&tie_dataset(0..120), repose_config(measure));
        let stores: Vec<TrajStore> = (0..PARTITIONS)
            .map(|pi| {
                let store = built.partition_view(pi).store;
                let mut copy = TrajStore::new();
                for slot in 0..store.len() {
                    copy.push_from(store, slot);
                }
                copy
            })
            .collect();
        let rebuilt = Repose::build_from_parts(stores, built.region(), *built.config());
        let image = |deployment: &Repose| {
            let dir = fresh_dir("inplace");
            let path = write_archive(&dir, deployment, 7, &FailPlan::new()).expect("write");
            let bytes = std::fs::read(&path).expect("read back");
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        assert!(image(&built) == image(&rebuilt), "{measure}: the in-place rebuild differs");
    }
}
