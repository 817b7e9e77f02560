//! The replication-log contract: a follower that applies a leader's
//! `Replicate` stream — including the duplicated, re-sent, overlapping
//! deliveries a hostile network produces — ends with a WAL **byte
//! identical** to the leader's, because `apply_replica` adopts the
//! leader's sequence numbers, skips duplicates without re-logging, and
//! refuses gaps instead of diverging.

use proptest::prelude::*;
use repose::{Repose, ReposeConfig};
use repose_distance::{Measure, MeasureParams};
use repose_durability::{DurabilityConfig, WalRecord};
use repose_model::{Point, Trajectory};
use repose_service::{ReposeService, ServiceConfig, ServiceError};
use repose_shard::{
    Loopback, Message, NetFault, NetFaultPlan, Role, ShardWorker, Transport, WorkerConfig,
};
use repose_testkit::{build_record, tie_dataset};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("repose-repl-{tag}-{}-{n}", std::process::id()))
}

fn repose_config() -> ReposeConfig {
    ReposeConfig::new(Measure::Hausdorff)
        .with_partitions(4)
        .with_delta(0.7)
        .with_params(MeasureParams::with_eps(0.5))
}

fn service_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        cache_capacity: 0,
        pool_threads: 1,
        durability: Some(DurabilityConfig::new(dir)),
        ..ServiceConfig::default()
    }
}

fn durable_service(dir: &Path) -> ReposeService {
    let repose = Repose::build(&tie_dataset(0..10), repose_config());
    ReposeService::try_with_config(repose, service_config(dir)).expect("durable service")
}

/// One query's answer as `(distance bits, id)` pairs — bitwise comparable.
fn answer_bits(service: &ReposeService) -> Vec<(u64, u64)> {
    let query = [Point::new(0.0, 0.5), Point::new(3.0, 1.5), Point::new(7.0, 0.5)];
    let out = service.query(&query, 6).expect("query");
    out.hits.iter().map(|h| (h.dist.to_bits(), h.id)).collect()
}

/// All WAL segment bytes under `dir`, concatenated in segment order.
fn wal_bytes(dir: &Path) -> Vec<u8> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("journal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    let mut bytes = Vec::new();
    for s in &segments {
        bytes.extend(std::fs::read(s).expect("segment"));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core property: however the leader's log is chunked and re-sent
    /// (overlapping suffixes, duplicate batches — exactly the worker's
    /// resend-the-unacked-suffix discipline under drops and duplications),
    /// the follower's WAL comes out byte-identical to the leader's.
    #[test]
    fn hostile_replicate_stream_yields_byte_identical_wal(
        ops in proptest::collection::vec(
            // (is_insert, id, points): finite coordinates, data records only.
            (any::<bool>(), 0u64..32, proptest::collection::vec(
                (-1.0e6f64..1.0e6, -1.0e6f64..1.0e6), 1..6)),
            1..16),
        // For each delivery round: how far to rewind before resending.
        rewinds in proptest::collection::vec(0usize..8, 1..6),
    ) {
        let ldir = fresh_dir("leader");
        let fdir = fresh_dir("follower");
        let leader = durable_service(&ldir);
        let follower = durable_service(&fdir);

        // Drive the leader; its log is the records its writes returned —
        // what a replicating worker forwards.
        let mut log: Vec<WalRecord> = Vec::new();
        for (is_insert, id, pts) in &ops {
            let points: Vec<Point> =
                pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            log.push(if *is_insert {
                leader.insert_acked(Trajectory::new(*id, points)).expect("leader insert")
            } else {
                leader.remove_acked(*id).expect("leader remove")
            });
        }

        // Deliver to the follower in overlapping, duplicated chunks: each
        // round rewinds a few records and replays to some later point —
        // the worker's whole-suffix resend under retries, concentrated.
        let mut delivered = 0usize;
        let mut round = 0usize;
        while delivered < log.len() {
            let rewind = rewinds[round % rewinds.len()].min(delivered);
            let until = (delivered + 1 + round % 3).min(log.len());
            for r in &log[delivered - rewind..until] {
                let fresh = follower.apply_replica(r).expect("no gaps in a resent prefix");
                prop_assert_eq!(fresh, r.seq() > delivered as u64, "seq {}", r.seq());
            }
            delivered = until;
            round += 1;
        }
        // One full duplicate replay of everything: all skipped, no re-log.
        for r in &log {
            prop_assert_eq!(follower.apply_replica(r).expect("duplicate replay"), false);
        }

        prop_assert_eq!(follower.op_seq(), leader.op_seq());
        let (lb, fb) = (wal_bytes(&ldir), wal_bytes(&fdir));
        prop_assert_eq!(lb, fb, "follower WAL diverged from leader WAL");

        // Three entrances, one state: the node that took the writes, the
        // replica, and a service recovered from the leader's directory.
        let (len, answer) = (leader.len(), answer_bits(&leader));
        let (ls, fs) = (leader.stats(), follower.stats());
        prop_assert_eq!(ls.inserts + ls.deletes, log.len() as u64);
        prop_assert_eq!((fs.inserts, fs.deletes), (ls.inserts, ls.deletes));
        prop_assert_eq!(follower.len(), len);
        prop_assert_eq!(answer_bits(&follower), answer.clone(), "follower answers differently");
        drop(leader);
        let (recovered, report) =
            ReposeService::recover(repose_config(), service_config(&ldir)).expect("recover");
        prop_assert_eq!(report.replayed_records, log.len() as u64);
        prop_assert_eq!(recovered.op_seq(), follower.op_seq());
        prop_assert_eq!(recovered.len(), len);
        prop_assert_eq!(answer_bits(&recovered), answer, "recovered service answers differently");
        drop(recovered);
        drop(follower);
        std::fs::remove_dir_all(&ldir).ok();
        std::fs::remove_dir_all(&fdir).ok();
    }

    /// Records generated over the full raw bit-pattern space (shared
    /// generator with the durability property suite) roundtrip the
    /// protocol's `Replicate` frame bit-exactly — the wire cannot corrupt
    /// what replication then logs.
    #[test]
    fn replicate_frames_carry_records_bit_exactly(
        kinds in proptest::collection::vec((any::<u8>(), any::<u64>(),
            proptest::collection::vec((any::<u64>(), any::<u64>()), 0..5)), 1..8),
    ) {
        let records: Vec<WalRecord> = kinds
            .iter()
            .enumerate()
            .map(|(i, (kind, id, bits))| build_record(*kind, i as u64 + 1, *id, bits))
            .collect();
        let msg = Message::Replicate { records: records.clone() };
        let bytes = msg.encode_frame();
        let mut cur = bytes.as_slice();
        let back = Message::decode_frame(&mut cur)
            .expect("decode")
            .expect("one frame");
        prop_assert!(cur.is_empty());
        match back {
            // NaN coordinates make float equality useless; the encoded
            // bytes are the bit-exact comparison.
            Message::Replicate { records: got } => prop_assert_eq!(
                got.iter().map(WalRecord::to_bytes).collect::<Vec<_>>(),
                records.iter().map(WalRecord::to_bytes).collect::<Vec<_>>()
            ),
            other => prop_assert!(false, "wrong variant: {:?}", other),
        }
    }
}

/// A gap (lost predecessor) is refused with the typed error and leaves
/// the follower unchanged, so the leader's suffix-resend can heal it.
#[test]
fn replication_gap_is_refused_not_absorbed() {
    let dir = fresh_dir("gap");
    let follower = durable_service(&dir);
    let r1 = WalRecord::Delete { seq: 1, id: 3 };
    let r3 = WalRecord::Delete { seq: 3, id: 4 };
    assert!(follower.apply_replica(&r1).expect("in sequence"));
    let err = follower.apply_replica(&r3).expect_err("a gap must be refused");
    assert!(
        matches!(err, ServiceError::ReplicationGap { expected: 2, got: 3 }),
        "wrong error: {err}"
    );
    assert_eq!(follower.op_seq(), 1, "a refused record must not advance the sequence");
    // The healing resend: 2 then 3 apply cleanly.
    assert!(follower.apply_replica(&WalRecord::Delete { seq: 2, id: 4 }).unwrap());
    assert!(follower.apply_replica(&r3).unwrap());
    drop(follower);
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica is a service edge like any other: a record with a non-finite
/// coordinate — which the wire carries bit-exactly — is refused exactly
/// as `insert` refuses it, before the log and before the sequence moves.
#[test]
fn non_finite_replicated_record_is_refused_like_a_local_insert() {
    let dir = fresh_dir("nonfinite");
    let follower = durable_service(&dir);
    let (len, wal) = (follower.len(), wal_bytes(&dir));
    let points = vec![Point::new(f64::NAN, 1.0), Point::new(2.0, f64::INFINITY)];
    let local = follower.insert(Trajectory::new(9999, points.clone())).expect_err("local edge");
    assert!(matches!(local, ServiceError::InvalidInput(_)), "wrong error: {local}");

    let frame = Message::Replicate { records: vec![WalRecord::Upsert { seq: 1, id: 9999, points }] }
        .encode_frame();
    let decoded = Message::decode_frame(&mut frame.as_slice()).expect("decode").expect("one frame");
    let Message::Replicate { records } = decoded else { panic!("wrong variant: {decoded:?}") };
    let err = follower.apply_replica(&records[0]).expect_err("a non-finite record must be refused");
    assert!(matches!(err, ServiceError::InvalidInput(_)), "wrong error: {err}");
    assert_eq!(follower.op_seq(), 0, "a refused record must not advance the sequence");
    assert_eq!(follower.len(), len);
    assert_eq!(follower.stats().inserts, 0);
    assert_eq!(wal_bytes(&dir), wal, "a refused record must not reach the log");

    // The sequence slot is still free for a finite record.
    let finite = WalRecord::Upsert { seq: 1, id: 9999, points: vec![Point::new(1.0, 1.0)] };
    assert!(follower.apply_replica(&finite).expect("in sequence"));
    assert_eq!((follower.op_seq(), follower.len()), (1, len + 1));
    drop(follower);
    std::fs::remove_dir_all(&dir).ok();
}

/// End to end through the real worker pair and transport, with the
/// replication link armed hostile (a duplicated and a reordered frame):
/// every write acks, and the two WALs come out byte-identical.
#[test]
fn worker_replication_survives_dup_and_reorder_byte_identically() {
    let ldir = fresh_dir("wl");
    let fdir = fresh_dir("wf");
    // Heartbeats are pushed past the test horizon below, so the fault
    // countdowns hit deterministic frames: replica0.rx sees the startup
    // heartbeat then only Replicates (hit 1 = Replicate for write 1,
    // duplicated — so write 1 acks twice); shard0.rx sees Upserts and
    // Acks alternating, shifted by that double-ack (hit 4 = the Ack for
    // write 2, held back until the leader's resend produces the next Ack
    // on the same link).
    let faults = NetFaultPlan::new();
    faults.arm("replica0.rx", NetFault::Duplicate, 1);
    faults.arm("shard0.rx", NetFault::Reorder, 4);
    let transport = Arc::new(Loopback::new(
        vec!["coord".into(), "shard0".into(), "replica0".into()],
        faults.clone(),
    ));
    let leader_svc = Arc::new(durable_service(&ldir));
    let follower_svc = Arc::new(durable_service(&fdir));
    let wcfg = WorkerConfig {
        heartbeat_every: Duration::from_secs(30),
        heartbeat_timeout: Duration::from_secs(60),
        ..WorkerConfig::default()
    };
    let h1 = {
        let w = ShardWorker::new(
            1,
            0,
            Role::Leader { follower: Some(2) },
            Arc::clone(&leader_svc),
            Arc::clone(&transport) as Arc<dyn Transport>,
            wcfg,
        );
        std::thread::spawn(move || w.run())
    };
    let h2 = {
        let w = ShardWorker::new(
            2,
            0,
            Role::Follower { leader: 1 },
            Arc::clone(&follower_svc),
            Arc::clone(&transport) as Arc<dyn Transport>,
            wcfg,
        );
        std::thread::spawn(move || w.run())
    };

    for i in 0..8u64 {
        let wid = i + 1;
        let points = vec![Point::new(i as f64, 1.0), Point::new(i as f64 + 1.0, 2.0)];
        transport.send(0, 1, &Message::Upsert { wid, id: 100 + i, points });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            assert!(
                std::time::Instant::now() < deadline,
                "write {wid} never acknowledged"
            );
            match transport.recv_timeout(0, Duration::from_millis(50)) {
                Some((_, Message::WriteOk { wid: w, .. })) if w == wid => break,
                Some((_, Message::WriteRefused { wid: w, reason })) if w == wid => {
                    panic!("write {wid} refused: {reason:?}")
                }
                _ => {}
            }
        }
    }
    assert!(faults.any_fired(), "the armed replication faults never fired");
    transport.shutdown_all();
    h1.join().expect("leader worker");
    h2.join().expect("follower worker");
    assert_eq!(leader_svc.op_seq(), follower_svc.op_seq());
    assert_eq!(
        wal_bytes(&ldir),
        wal_bytes(&fdir),
        "follower WAL diverged from leader WAL under dup+reorder"
    );
    std::fs::remove_dir_all(&ldir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}
