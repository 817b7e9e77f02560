//! Property tests for the WAL record format and torn-tail policy.
//!
//! Three contracts, exercised over random inputs:
//!
//! 1. every record type roundtrips bit-exactly through encode/decode
//!    (coordinates included — arbitrary `u64` bit patterns, NaNs and all);
//! 2. a single bit flip anywhere in a framed stream is always detected
//!    (never silently decoded as a different valid stream);
//! 3. tearing the tail of a log never drops an fsync-acknowledged record.

use proptest::prelude::*;
use repose_durability::{
    replay, DurabilityConfig, FailAction, FsyncPolicy, Wal, WalRecord,
};
use repose_model::Point;
use repose_testkit::{build_record, record_point_bits as bits_of};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "repose-walprops-{}-{}-{}",
        tag,
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_record_roundtrips_bit_exactly(
        kind in any::<u8>(),
        seq in any::<u64>(),
        id in any::<u64>(),
        bits in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..20),
    ) {
        let record = build_record(kind, seq, id, &bits);
        let buf = record.to_bytes();
        let mut cur = buf.as_slice();
        let back = WalRecord::decode(&mut cur).unwrap().expect("one record");
        prop_assert!(cur.is_empty());
        prop_assert_eq!(back.seq(), record.seq());
        // Coordinate equality must be bitwise, not float-==, so compare
        // the bit patterns (NaN != NaN under float comparison).
        prop_assert_eq!(bits_of(&back), bits_of(&record));
        prop_assert_eq!(
            std::mem::discriminant(&back),
            std::mem::discriminant(&record)
        );
    }

    #[test]
    fn single_bit_flip_is_always_detected(
        seq in any::<u64>(),
        id in any::<u64>(),
        bits in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..6),
        flip_at in any::<u32>(),
    ) {
        let record = build_record(0, seq, id, &bits);
        let good = record.to_bytes();
        let pos = flip_at as usize % (good.len() * 8);
        let mut bad = good.clone();
        bad[pos / 8] ^= 1 << (pos % 8);
        let mut cur = bad.as_slice();
        match WalRecord::decode(&mut cur) {
            Err(_) => {}
            Ok(decoded) => {
                // A flip in the length prefix can make the frame claim
                // more bytes than remain — decode must NOT succeed with
                // different content.
                prop_assert!(
                    decoded.as_ref().map(bits_of) == Some(bits_of(&record))
                        && decoded.as_ref().map(WalRecord::seq) == Some(record.seq()),
                    "bit flip at {} silently decoded as {:?}",
                    pos,
                    decoded
                );
            }
        }
    }

    #[test]
    fn torn_tail_never_drops_an_acknowledged_record(
        n_acked in 1usize..12,
        sizes in proptest::collection::vec(0u64..6, 12..13),
    ) {
        let dir = scratch("ttail");
        let cfg = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Always);
        let mut wal = Wal::create(&cfg).unwrap();
        for seq in 1..=n_acked as u64 {
            let n_pts = sizes[(seq as usize - 1) % sizes.len()];
            let points: Vec<Point> =
                (0..n_pts).map(|i| Point::new(i as f64, seq as f64)).collect();
            // `Always` policy: returning Ok is the fsync acknowledgement.
            wal.append(&WalRecord::Upsert { seq, id: seq, points }).unwrap();
        }
        // The next write tears mid-flush, exactly as a crash would.
        cfg.failpoints.arm("wal.flush", FailAction::ShortWrite, 0);
        let torn = wal.append(&WalRecord::Upsert {
            seq: n_acked as u64 + 1,
            id: 999,
            points: vec![Point::new(1.0, 2.0); 4],
        });
        prop_assert!(torn.is_err());
        drop(wal);

        let replayed = replay(&dir).unwrap();
        let seqs: Vec<u64> = replayed.records.iter().map(WalRecord::seq).collect();
        let want: Vec<u64> = (1..=n_acked as u64).collect();
        prop_assert_eq!(seqs, want, "every acknowledged record, nothing else");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
