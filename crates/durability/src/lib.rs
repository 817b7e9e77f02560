//! Durability and failure model for the REPOSE serving layer.
//!
//! The serving layer (`repose-service`) keeps its delta writes in memory;
//! this crate makes them survive crashes and makes the failure behaviour
//! testable:
//!
//! * [`record`] — the length-prefixed, CRC-checksummed, sequence-stamped
//!   on-disk record format shared by WAL segments and base snapshots.
//! * [`wal`] — the [`Wal`] writer: commits under a configurable
//!   [`FsyncPolicy`], segment rotation aligned with delta-segment seals,
//!   atomic base snapshots, and checkpoint truncation.
//! * [`replay()`](crate::replay()) — crash recovery: newest complete snapshot + ordered log
//!   replay, with a torn-tail policy that never drops an
//!   fsync-acknowledged record and never papers over mid-log corruption.
//! * [`failpoint`] — a deterministic, per-instance fault-injection
//!   registry ([`FailPlan`]) the WAL and archive writers consult at named
//!   points ([`POINTS`]), so tests can crash either write path at any
//!   site and prove recovery.
//! * [`spec`] — the one fault-plan type ([`spec::Plan`]) and its
//!   exactly-once countdown registry; [`FailPlan`] is its instantiation
//!   here, the shard layer's `NetFaultPlan` its other one.
//!
//! The format stores coordinates via `f64::to_bits`, so recovered
//! trajectories are bit-identical to what was acknowledged — queries after
//! recovery return bitwise-identical distances.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod failpoint;
pub mod record;
pub mod replay;
pub mod spec;
pub mod wal;

pub use failpoint::{FailAction, FailPlan, ARC_POINTS, POINTS, WAL_POINTS};
pub use record::{crc32, DecodeError, WalRecord};
pub use replay::{replay, Replayed};
pub use wal::{
    write_snapshot, DurabilityConfig, FsyncPolicy, SegmentInfo, Wal, WalCounters, WalError,
};

#[cfg(test)]
mod tests {
    use super::*;
    use repose_model::Point;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test (no tempfile dependency).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "repose-durability-{}-{}-{}",
            tag,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pts(n: u64) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64 * 0.5, -(i as f64))).collect()
    }

    fn fresh(dir: &PathBuf) -> (DurabilityConfig, Wal) {
        let cfg = DurabilityConfig::new(dir);
        let wal = Wal::create(&cfg).unwrap();
        write_snapshot(dir, 0, std::iter::empty(), &cfg.failpoints).unwrap();
        (cfg, wal)
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = scratch("roundtrip");
        let (_cfg, mut wal) = fresh(&dir);
        wal.append(&WalRecord::Upsert { seq: 1, id: 10, points: pts(4) }).unwrap();
        wal.append(&WalRecord::Upsert { seq: 2, id: 11, points: pts(2) }).unwrap();
        wal.append(&WalRecord::Delete { seq: 3, id: 10 }).unwrap();
        drop(wal);

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.base_seq, 0);
        assert!(replayed.base.is_empty());
        assert_eq!(replayed.last_seq, 3);
        assert_eq!(replayed.torn_bytes, 0);
        assert_eq!(replayed.records.len(), 3);
        assert_eq!(replayed.records[2], WalRecord::Delete { seq: 3, id: 10 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_journal() {
        let dir = scratch("nonempty");
        let (cfg, wal) = fresh(&dir);
        drop(wal);
        assert!(matches!(Wal::create(&cfg), Err(WalError::DirNotEmpty { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = scratch("torn");
        let (cfg, mut wal) = fresh(&dir);
        wal.append(&WalRecord::Upsert { seq: 1, id: 1, points: pts(3) }).unwrap();
        cfg.failpoints.arm("wal.flush", FailAction::ShortWrite, 0);
        let err = wal.append(&WalRecord::Upsert { seq: 2, id: 2, points: pts(3) });
        assert!(matches!(err, Err(WalError::Injected { point: "wal.flush", .. })));
        assert!(wal.is_dead());
        assert!(matches!(
            wal.append(&WalRecord::Delete { seq: 3, id: 1 }),
            Err(WalError::Dead)
        ));
        drop(wal);

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.len(), 1, "acknowledged record survives");
        assert!(replayed.torn_bytes > 0, "the torn prefix is detected and dropped");
        assert_eq!(replayed.last_seq, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let dir = scratch("midlog");
        let (_cfg, mut wal) = fresh(&dir);
        wal.append(&WalRecord::Upsert { seq: 1, id: 1, points: pts(2) }).unwrap();
        wal.rotate().unwrap();
        wal.append(&WalRecord::Upsert { seq: 2, id: 2, points: pts(2) }).unwrap();
        drop(wal);
        // Flip a byte in the middle of the FIRST (non-final) segment.
        let seg1 = dir.join("wal-00000001.log");
        let mut bytes = std::fs::read(&seg1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg1, &bytes).unwrap();
        assert!(matches!(replay(&dir), Err(WalError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_prunes_covered_segments_and_old_snapshots() {
        let dir = scratch("checkpoint");
        let (cfg, mut wal) = fresh(&dir);
        wal.append(&WalRecord::Upsert { seq: 1, id: 1, points: pts(2) }).unwrap();
        wal.append(&WalRecord::Upsert { seq: 2, id: 2, points: pts(2) }).unwrap();
        wal.rotate().unwrap();
        wal.append(&WalRecord::Upsert { seq: 3, id: 3, points: pts(2) }).unwrap();
        // Snapshot reflecting everything up to seq 2, then checkpoint it.
        let live = [(1u64, pts(2)), (2u64, pts(2))];
        write_snapshot(
            &dir,
            2,
            live.iter().map(|(id, p)| (*id, p.as_slice())),
            &cfg.failpoints,
        )
        .unwrap();
        wal.checkpoint(2).unwrap();
        drop(wal);

        assert!(!dir.join("wal-00000001.log").exists(), "covered segment pruned");
        assert!(!dir.join(format!("base-{:016x}.snap", 0)).exists(), "old snapshot pruned");

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.base_seq, 2);
        assert_eq!(replayed.base.len(), 2);
        // Only seq-3 upsert remains to replay (seq <= 2 covered by the base).
        let data: Vec<_> = replayed
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Upsert { .. } | WalRecord::Delete { .. }))
            .collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_after_recovery_continues_the_log() {
        let dir = scratch("resume");
        let (cfg, mut wal) = fresh(&dir);
        wal.append(&WalRecord::Upsert { seq: 1, id: 1, points: pts(2) }).unwrap();
        drop(wal);
        let replayed = replay(&dir).unwrap();
        let mut wal = Wal::resume(
            &cfg,
            replayed.segments.clone(),
            replayed.next_segment_index,
            replayed.last_seq,
        )
        .unwrap();
        wal.append(&WalRecord::Upsert { seq: 2, id: 2, points: pts(2) }).unwrap();
        drop(wal);
        let again = replay(&dir).unwrap();
        assert_eq!(again.records.len(), 2);
        assert_eq!(again.last_seq, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_snapshot_leaves_no_visible_snapshot() {
        let dir = scratch("snapcrash");
        let (cfg, mut wal) = fresh(&dir);
        wal.append(&WalRecord::Upsert { seq: 1, id: 1, points: pts(2) }).unwrap();
        cfg.failpoints.arm("wal.snapshot", FailAction::Crash, 0);
        let live = [(1u64, pts(2))];
        let err = write_snapshot(
            &dir,
            1,
            live.iter().map(|(id, p)| (*id, p.as_slice())),
            &cfg.failpoints,
        );
        assert!(matches!(err, Err(WalError::Injected { point: "wal.snapshot", .. })));
        drop(wal);
        // Recovery still works off the base-0 snapshot + the log.
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.base_seq, 0);
        assert_eq!(replayed.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_rotation_by_size() {
        let dir = scratch("rotate");
        let cfg = DurabilityConfig::new(&dir).with_segment_bytes(64);
        let mut wal = Wal::create(&cfg).unwrap();
        write_snapshot(&dir, 0, std::iter::empty(), &cfg.failpoints).unwrap();
        for seq in 1..=8 {
            wal.append(&WalRecord::Upsert { seq, id: seq, points: pts(4) }).unwrap();
        }
        drop(wal);
        let replayed = replay(&dir).unwrap();
        assert!(replayed.segments.len() > 1, "tiny segment budget forces rotation");
        assert_eq!(
            replayed
                .records
                .iter()
                .filter(|r| matches!(r, WalRecord::Upsert { .. }))
                .count(),
            8,
            "every record survives across rotations"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
