//! Durability and failure model for the REPOSE serving layer.
//!
//! The serving layer (`repose-service`) keeps its delta writes in memory;
//! this crate makes them survive crashes and makes the failure behaviour
//! testable:
//!
//! * [`record`] — the length-prefixed, CRC-checksummed, sequence-stamped
//!   on-disk record format of WAL segments.
//! * [`wal`] — the [`Wal`] writer: commits under a configurable
//!   [`FsyncPolicy`], segment rotation, and checkpoint truncation.
//! * [`replay()`](crate::replay()) — crash recovery's log half: ordered
//!   segment replay above the newest checkpoint, with a torn-tail policy
//!   that never drops an fsync-acknowledged record and never papers over
//!   mid-log corruption.
//! * [`failpoint`] — a deterministic, per-instance fault-injection
//!   registry ([`FailPlan`]) the WAL and archive writers consult at named
//!   points ([`POINTS`]), so tests can crash either write path at any
//!   site and prove recovery.
//! * [`spec`] — the one fault-plan type ([`spec::Plan`]) and its
//!   exactly-once countdown registry; [`FailPlan`] is its instantiation
//!   here, the shard layer's `NetFaultPlan` its other one.
//!
//! The log's base is not here: it is an archive generation the serving
//! layer installs (`repose-archive`) before each checkpoint, and recovery
//! attaches one and replays this log past its sequence.
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

pub use failpoint::{FailAction, FailPlan, POINTS};
pub use record::{crc32, DecodeError, WalRecord};
pub use replay::{replay, Replayed};
pub use wal::{DurabilityConfig, FsyncPolicy, SegmentInfo, Wal, WalCounters, WalError};

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
        assert_eq!(replayed.checkpoint_seq, 0);
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
    fn checkpoint_prunes_covered_segments() {
        let dir = scratch("checkpoint");
        let (_cfg, mut wal) = fresh(&dir);
        wal.append(&WalRecord::Upsert { seq: 1, id: 1, points: pts(2) }).unwrap();
        wal.append(&WalRecord::Upsert { seq: 2, id: 2, points: pts(2) }).unwrap();
        wal.rotate().unwrap();
        wal.append(&WalRecord::Upsert { seq: 3, id: 3, points: pts(2) }).unwrap();
        // A base reflecting everything up to seq 2 is durable elsewhere.
        wal.checkpoint(2).unwrap();
        drop(wal);

        assert!(!dir.join("wal-00000001.log").exists(), "covered segment pruned");

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.checkpoint_seq, 2);
        // Only seq-3 upsert remains to replay (seq <= 2 covered by the base).
        let seqs: Vec<u64> = replayed.records.iter().map(WalRecord::seq).collect();
        assert_eq!(seqs, [3]);
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
    fn segment_rotation_by_size() {
        let dir = scratch("rotate");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let mut wal = Wal::create(&cfg).unwrap();
        // Four records of just over a quarter of the rotation size (16
        // bytes a point, plus a header) fill the first segment past it, so
        // the fifth opens a second one.
        let points = wal::SEGMENT_BYTES / 4 / 16;
        for seq in 1..=5 {
            wal.append(&WalRecord::Upsert { seq, id: seq, points: pts(points) }).unwrap();
        }
        drop(wal);
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.segments.len(), 2, "crossing the size rotates once");
        let seqs: Vec<u64> = replayed.records.iter().map(WalRecord::seq).collect();
        assert_eq!(seqs, [1, 2, 3, 4, 5], "every record survives across rotations");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
