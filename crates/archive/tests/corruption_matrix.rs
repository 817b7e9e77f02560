//! The corruption matrix: every way an archive can be damaged — a flipped
//! bit in any region, a torn tail, a truncated install, a vanished file,
//! a crash at any `arc.*` fail point — must be *detected and refused
//! loudly* (typed error + quarantine + fallback), never silently served.
//!
//! The refusal bar is absolute because the file-level trailer seal covers
//! every byte: there is no byte in a sealed archive whose corruption may
//! be shrugged off.

use repose::{Repose, ReposeConfig};
use repose_archive::{list_generations, quarantine, write_archive, Archive, ArchiveError};
use repose_cluster::ClusterConfig;
use repose_distance::Measure;
use repose_durability::{FailAction, FailPlan};
use repose_testkit::tie_dataset;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "repose-archive-cm-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ReposeConfig {
    ReposeConfig::new(Measure::Hausdorff)
        .with_cluster(ClusterConfig { workers: 2, cores_per_worker: 2 })
        .with_partitions(2)
}

fn sealed_archive(dir: &Path) -> PathBuf {
    let built = Repose::build(&tie_dataset(0..30), config());
    write_archive(dir, &built, 7, &FailPlan::new()).unwrap()
}

fn flip_byte(path: &Path, at: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn every_region_detects_a_flipped_byte() {
    let dir = scratch("flip");
    let path = sealed_archive(&dir);
    let pristine = std::fs::read(&path).unwrap();
    let len = pristine.len();

    // First, middle, and last byte of every 64-byte stripe across the
    // whole file: superblock, every section (padding included), TOC, and
    // trailer all get hit.
    let mut offsets: Vec<usize> = vec![0, 1, len / 2, len - 1, len - 24, len - 23];
    offsets.extend((0..len).step_by(64));
    offsets.extend((63..len).step_by(64));

    for at in offsets {
        std::fs::write(&path, &pristine).unwrap();
        flip_byte(&path, at);
        let err = Archive::open(&path, &FailPlan::new())
            .map(|a| a.attach().map(|_| ()))
            .err()
            .unwrap_or_else(|| panic!("byte {at}/{len}: corrupt archive was accepted"));
        // Any typed refusal is fine; silence is not.
        let _ = err.to_string();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_and_truncation_are_refused() {
    let dir = scratch("torn");
    let path = sealed_archive(&dir);
    let pristine = std::fs::read(&path).unwrap();

    for keep in [0, 1, 63, 64, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        assert!(
            Archive::open(&path, &FailPlan::new()).is_err(),
            "truncation to {keep} bytes was accepted"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let dir = scratch("missing");
    std::fs::create_dir_all(&dir).unwrap();
    let err = Archive::open(&dir.join("gen-0000000000000001.arc"), &FailPlan::new()).unwrap_err();
    assert!(matches!(err, ArchiveError::Io { .. }), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_every_writer_fail_point_leaves_prior_generation_intact() {
    for point in ["arc.write", "arc.sync", "arc.rename"] {
        for action in [FailAction::IoError, FailAction::ShortWrite, FailAction::Crash] {
            let dir = scratch("crash");
            let built = Repose::build(&tie_dataset(0..30), config());
            // Generation 1 installs cleanly...
            write_archive(&dir, &built, 3, &FailPlan::new()).unwrap();
            // ...then generation 2's install dies at `point`.
            let plan = FailPlan::new();
            plan.arm(point, action, 0);
            let err = write_archive(&dir, &built, 8, &plan).unwrap_err();
            assert!(plan.any_fired(), "{point}: plan never fired");
            assert!(matches!(err, ArchiveError::Io { .. }), "{point}: got {err}");

            // The aborted install is invisible to generation scans and the
            // prior generation still recovers.
            let gens = list_generations(&dir);
            assert_eq!(gens.len(), 1, "{point}: torn install listed");
            let archive = Archive::open(&gens[0].1, &FailPlan::new())
                .unwrap_or_else(|e| panic!("{point}: prior generation must survive: {e}"));
            assert_eq!(archive.op_seq(), 3, "{point}: wrong generation recovered");
            archive.attach().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn quarantine_moves_the_evidence_aside() {
    let dir = scratch("quarantine");
    let path = sealed_archive(&dir);
    flip_byte(&path, 100);
    let err = Archive::open(&path, &FailPlan::new()).unwrap_err();
    assert!(matches!(err, ArchiveError::Checksum(_)), "got {err}");

    let moved = quarantine(&path).unwrap();
    assert!(!path.exists(), "corrupt file left in place");
    assert!(moved.exists());
    assert!(moved.parent().unwrap().ends_with(".quarantine"));
    // Quarantined files no longer participate in generation scans.
    assert!(list_generations(&dir).is_empty());

    // A second quarantine of the same name does not clobber the first.
    let path2 = sealed_archive(&dir);
    let moved2 = quarantine(&path2).unwrap();
    assert_ne!(moved, moved2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swapped_sections_with_valid_crcs_are_still_refused() {
    // A subtler corruption: overwrite one section's bytes with another
    // same-length section's bytes. Per-section CRCs would pass if the TOC
    // were also swapped — but the file-level seal and the structural
    // validation refuse the mismatch.
    let dir = scratch("swap");
    let path = sealed_archive(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    // Swap two interior stretches wholesale.
    let (a, b, w) = (1024, 2048, 256);
    if bytes.len() > b + w {
        for i in 0..w {
            bytes.swap(a + i, b + i);
        }
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            Archive::open(&path, &FailPlan::new())
                .map(|a| a.attach().map(|_| ()))
                .is_err(),
            "byte-swapped archive was accepted"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_localizes_in_place_corruption_after_open() {
    // Scrub exists for corruption that arrives *after* open-time checks
    // (bit rot under a long-lived mapping). Model it with the heap
    // fallback: validate, then corrupt the file, then re-open unscrubbed
    // vs scrubbed.
    let dir = scratch("scrub");
    let path = sealed_archive(&dir);
    let clean = Archive::open(&path, &FailPlan::new()).unwrap();
    assert!(clean.scrub().is_clean());

    flip_byte(&path, 200);
    let reopened = Archive::open(&path, &FailPlan::new());
    assert!(reopened.is_err(), "corrupted reopen must fail validation");
    let _ = std::fs::remove_dir_all(&dir);
}
