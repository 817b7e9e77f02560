//! Crash-loop harness for the durability layer: kill the write path at
//! every registered fail point — the WAL's and the archive generation
//! install's, across construction, compaction and recovery — recover from
//! the journal directory, and prove the recovered service answers
//! **bitwise-identically** to a shadow service that applied exactly the
//! acknowledged writes — for all six measures.
//!
//! The contract under test (`FsyncPolicy::Always`):
//!
//! * `Ok` from `insert`/`remove` means the write is durable — it must
//!   survive any later crash, torn write, or I/O error.
//! * `Err` means the write was **not** acknowledged — it must never
//!   appear after recovery, even when the failure left a torn tail of
//!   the record in the final segment.
//!
//! The overload contract rides along: a full admission gate sheds load
//! with a typed `Overloaded` error (counted in
//! `ServiceStats::queries_shed`), and every query it admits is answered
//! exactly — the service never degrades an answer.

use repose::{Repose, ReposeConfig};
use repose_distance::{Measure, MeasureParams};
use repose_durability::{DurabilityConfig, FailAction, FailPlan, FsyncPolicy, WalError, POINTS};
use repose_model::Trajectory;
use repose_service::{ReposeService, ServiceConfig, ServiceError};
use repose_testkit::{sorted_dist_bits, tie_dataset, tie_queries, tie_traj};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PARTITIONS: usize = 4;

fn repose_config(measure: Measure) -> ReposeConfig {
    ReposeConfig::new(measure)
        .with_partitions(PARTITIONS)
        .with_delta(0.7)
        .with_params(MeasureParams::with_eps(0.5))
}

/// A fresh, unique journal directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "repose-crash-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// One acknowledged write, replayable onto a shadow service.
#[derive(Clone)]
enum Op {
    Upsert(Trajectory),
    Delete(u64),
}

/// Drives a fixed mixed workload (two insert/delete bursts with a
/// compaction after each) against `svc`, recording exactly the writes the
/// service acknowledged. Errors are expected — the armed fail point kills
/// the WAL mid-burst — and simply stop that operation from being recorded.
fn drive_workload(svc: &ReposeService) -> (Vec<Op>, usize) {
    let mut acked: Vec<Op> = Vec::new();
    let mut refused = 0usize;
    fn track(
        res: Result<(), ServiceError>,
        op: Op,
        acked: &mut Vec<Op>,
        refused: &mut usize,
    ) {
        match res {
            Ok(()) => acked.push(op),
            Err(_) => *refused += 1,
        }
    }

    for i in 0..10u64 {
        let t = tie_traj(200 + i);
        track(svc.insert(t.clone()), Op::Upsert(t), &mut acked, &mut refused);
    }
    for id in [3u64, 17] {
        track(svc.remove(id), Op::Delete(id), &mut acked, &mut refused);
    }
    // Compaction exercises wal.rotate / arc.* / wal.checkpoint; a failure
    // here is a refused *checkpoint*, never a lost write.
    if svc.compact().is_err() {
        refused += 1;
    }
    for i in 10..20u64 {
        let t = tie_traj(200 + i);
        track(svc.insert(t.clone()), Op::Upsert(t), &mut acked, &mut refused);
    }
    track(svc.remove(44), Op::Delete(44), &mut acked, &mut refused);
    if svc.compact().is_err() {
        refused += 1;
    }
    (acked, refused)
}

/// How many hits of `point` to let pass before firing, so the failure
/// lands mid-workload: each `arc.*` point is hit once at construction
/// (generation 0) and the per-append points several times per burst.
fn countdown_for(point: &str) -> u32 {
    match point {
        "wal.append" | "wal.flush" | "wal.sync" => 5,
        p if p.starts_with("arc.") => 1,
        _ => 0,
    }
}

/// The core crash loop: for every registered fail point × every measure,
/// crash, recover, and compare against the acknowledged-writes shadow.
#[test]
fn recovery_matches_acknowledged_writes_at_every_fail_point() {
    let actions = [FailAction::Crash, FailAction::ShortWrite, FailAction::IoError];
    for (mi, &measure) in Measure::ALL.iter().enumerate() {
        for (pi, &point) in POINTS.iter().enumerate() {
            // Cycle the action so every (point, action) pair is covered
            // across the measure sweep; all three are fail-stop.
            let action = actions[(mi + pi) % actions.len()];
            let dir = fresh_dir("loop");
            let plan = FailPlan::new();
            plan.arm(point, action, countdown_for(point));

            let cfg = repose_config(measure);
            let svc = ReposeService::try_with_config(
                Repose::build(&tie_dataset(0..60), cfg),
                ServiceConfig {
                    cache_capacity: 0,
                    pool_threads: 1,
                    durability: Some(
                        DurabilityConfig::new(&dir)
                            .with_fsync(FsyncPolicy::Always)
                            .with_failpoints(plan.clone()),
                    ),
                    ..ServiceConfig::default()
                },
            )
            .expect("durable service construction");

            let (acked, refused) = drive_workload(&svc);
            assert!(
                plan.any_fired(),
                "{measure} {point}: the armed fail point never fired"
            );
            assert!(
                refused > 0,
                "{measure} {point}: the injected failure refused no operation"
            );
            drop(svc);

            // Recover from the journal alone (no fail plan this time).
            let (recovered, report) = ReposeService::recover(
                cfg,
                ServiceConfig {
                    cache_capacity: 0,
                    pool_threads: 1,
                    durability: Some(DurabilityConfig::new(&dir)),
                    ..ServiceConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("{measure} {point}: recovery failed: {e}"));
            assert!(
                report.replayed_records as usize <= acked.len(),
                "{measure} {point}: replayed more records than were acknowledged"
            );
            assert_eq!(
                recovered.stats().recovered_records,
                report.replayed_records
            );

            // Shadow: a volatile service holding exactly the acknowledged
            // writes, in acknowledgment order.
            let shadow = ReposeService::with_config(
                Repose::build(&tie_dataset(0..60), cfg),
                ServiceConfig {
                    cache_capacity: 0,
                    pool_threads: 1,
                    ..ServiceConfig::default()
                },
            );
            for op in &acked {
                match op {
                    Op::Upsert(t) => shadow.insert(t.clone()).expect("shadow insert"),
                    Op::Delete(id) => shadow.remove(*id).expect("shadow remove"),
                }
            }

            assert_eq!(
                recovered.len(),
                shadow.len(),
                "{measure} {point}: live count diverged after recovery"
            );
            for q in &tie_queries() {
                for k in [3usize, 9] {
                    let r = recovered.query(q, k).expect("recovered query");
                    let s = shadow.query(q, k).expect("shadow query");
                    assert_eq!(
                        sorted_dist_bits(r.hits.iter().map(|h| h.dist)),
                        sorted_dist_bits(s.hits.iter().map(|h| h.dist)),
                        "{measure} {point} ({action:?}) k={k}: recovered state \
                         differs from the acknowledged-writes shadow"
                    );
                    assert!(!r.degraded, "exact path must never report degraded");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A torn tail never surfaces an unacknowledged write and never drops an
/// acknowledged one: the recovered state is exactly the acknowledged
/// prefix of the burst.
#[test]
fn torn_tail_recovers_exactly_the_acknowledged_prefix() {
    let dir = fresh_dir("torn");
    let plan = FailPlan::new();
    // The 8th flush tears mid-record: inserts 1..=7 acknowledged, the 8th
    // half-written and refused.
    plan.arm("wal.flush", FailAction::ShortWrite, 7);
    let cfg = repose_config(Measure::Hausdorff);
    let svc = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        ServiceConfig {
            cache_capacity: 0,
            pool_threads: 1,
            durability: Some(
                DurabilityConfig::new(&dir)
                    .with_fsync(FsyncPolicy::Always)
                    .with_failpoints(plan),
            ),
            ..ServiceConfig::default()
        },
    )
    .expect("durable service");

    let mut acked = 0u64;
    let mut first_err = None;
    for i in 0..12u64 {
        match svc.insert(tie_traj(300 + i)) {
            Ok(()) => acked += 1,
            Err(e) => {
                first_err.get_or_insert(i);
                assert!(
                    matches!(e, ServiceError::Durability(_)),
                    "expected a durability error, got {e}"
                );
            }
        }
    }
    assert_eq!(acked, 7, "exactly the writes before the torn flush are acked");
    assert_eq!(first_err, Some(7), "the torn write itself must be refused");
    drop(svc);

    let (recovered, report) = ReposeService::recover(
        cfg,
        ServiceConfig {
            cache_capacity: 0,
            pool_threads: 1,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServiceConfig::default()
        },
    )
    .expect("recovery");
    assert_eq!(report.replayed_records, 7);
    assert!(report.torn_bytes > 0, "the torn frame must be truncated");
    assert_eq!(recovered.len(), tie_dataset(0..30).len() + 7);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery is idempotent: recovering the same journal twice (or three
/// times) is a no-op yielding bitwise-identical state. The regression this
/// pins down: replay used to *count* a torn tail without truncating it, so
/// the first recovery's `Wal::resume` opened a fresh segment, the torn
/// bytes were stranded in a now non-final segment, and the second recovery
/// refused the journal as corrupt.
#[test]
fn recovery_is_idempotent_after_a_torn_tail() {
    let dir = fresh_dir("idem");
    let plan = FailPlan::new();
    plan.arm("wal.flush", FailAction::ShortWrite, 5);
    let cfg = repose_config(Measure::Hausdorff);
    let svc = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        ServiceConfig {
            cache_capacity: 0,
            pool_threads: 1,
            durability: Some(
                DurabilityConfig::new(&dir)
                    .with_fsync(FsyncPolicy::Always)
                    .with_failpoints(plan),
            ),
            ..ServiceConfig::default()
        },
    )
    .expect("durable service");
    let mut acked = 0u64;
    for i in 0..9u64 {
        if svc.insert(tie_traj(600 + i)).is_ok() {
            acked += 1;
        }
    }
    assert_eq!(acked, 5, "the torn flush refuses the 6th write");
    drop(svc);

    let durable_only = || ServiceConfig {
        cache_capacity: 0,
        pool_threads: 1,
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServiceConfig::default()
    };
    let (first, report1) =
        ReposeService::recover(cfg, durable_only()).expect("first recovery");
    assert!(report1.torn_bytes > 0, "the torn frame must be found once");
    let q = &tie_queries()[0];
    let want = sorted_dist_bits(
        first.query(q, 5).expect("query").hits.iter().map(|h| h.dist),
    );
    let (want_len, want_seq) = (first.len(), report1.last_seq);
    drop(first);

    // The torn tail was physically truncated, so every later recovery of
    // the same journal is a clean no-op.
    for round in 2..=3 {
        let (again, report) = ReposeService::recover(cfg, durable_only())
            .unwrap_or_else(|e| panic!("recovery #{round} must be a no-op, got: {e}"));
        assert_eq!(report.torn_bytes, 0, "recovery #{round} found torn bytes again");
        assert_eq!(report.replayed_records, report1.replayed_records, "#{round}");
        assert_eq!(report.last_seq, want_seq, "#{round}");
        assert_eq!(again.len(), want_len, "#{round}");
        assert_eq!(
            sorted_dist_bits(
                again.query(q, 5).expect("query").hits.iter().map(|h| h.dist)
            ),
            want.clone(),
            "recovery #{round} diverged from the first"
        );
        drop(again);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction seals the log before any generation claims its records.
/// Under `FsyncPolicy::Never` a crash at that seal loses the unsynced
/// tail; a generation installed first would claim writes the log lost,
/// and once later writes carried the log past its sequence, a recovery
/// would attach it over them.
#[test]
fn a_crash_sealing_the_log_leaves_no_generation_ahead_of_it() {
    let dir = fresh_dir("seal");
    let cfg = repose_config(Measure::Hausdorff);
    let config = |plan: FailPlan| ServiceConfig {
        cache_capacity: 0,
        pool_threads: 1,
        durability: Some(
            DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never).with_failpoints(plan),
        ),
        ..ServiceConfig::default()
    };
    let plan = FailPlan::new();
    plan.arm("wal.rotate", FailAction::Crash, 0);
    let svc = ReposeService::try_with_config(Repose::build(&tie_dataset(0..30), cfg), config(plan))
        .expect("durable service");
    for i in 0..6u64 {
        svc.insert(tie_traj(700 + i)).expect("insert");
    }
    assert!(svc.compact().is_err(), "the crash at the seal must refuse the checkpoint");
    drop(svc);

    let (first, _) = ReposeService::recover(cfg, config(FailPlan::new())).expect("recovery");
    for i in 0..8u64 {
        first.insert(tie_traj(800 + i)).expect("insert");
    }
    let state = |svc: &ReposeService| {
        let answers: Vec<_> = tie_queries()
            .iter()
            .map(|q| sorted_dist_bits(svc.query(q, 9).expect("query").hits.iter().map(|h| h.dist)))
            .collect();
        (svc.len(), answers)
    };
    let before = state(&first);
    drop(first);
    let (again, report) = ReposeService::recover(cfg, config(FailPlan::new())).expect("again");
    assert_eq!(report.archive_op_seq, 0, "only construction's generation may attach");
    assert_eq!(state(&again), before, "a generation ahead of the log attached");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every admitted query is answered exactly: single or batched, pooled
/// or inline, it is never `degraded` and reports one task time per
/// search frontier, `min(pool_threads, PARTITIONS)` of them (only the
/// shard coordinator degrades an answer).
#[test]
fn admitted_queries_search_every_partition_and_are_never_degraded() {
    for (pool_threads, frontiers) in [(1, 1), (2, 2)] {
        let svc = ReposeService::with_config(
            Repose::build(&tie_dataset(0..40), repose_config(Measure::Frechet)),
            ServiceConfig {
                cache_capacity: 0,
                pool_threads,
                max_inflight_queries: 1,
                ..ServiceConfig::default()
            },
        );
        let queries = tie_queries();
        let single = queries.iter().map(|q| svc.query(q, 7).expect("query"));
        let batch = svc.query_batch(&queries, 7).expect("batch");
        for out in single.chain(batch) {
            assert!(!out.degraded, "pool_threads={pool_threads}");
            assert!(!out.cache_hit);
            assert_eq!(out.partition_times.len(), frontiers, "pool_threads={pool_threads}");
        }
        assert_eq!(svc.stats().queries_shed, 0);
    }
}

/// A bounded admission gate sheds concurrent load with the typed
/// `Overloaded` error instead of queueing without bound — and what it
/// sheds is counted.
#[test]
fn admission_gate_sheds_concurrent_load_with_typed_error() {
    let svc = Arc::new(ReposeService::with_config(
        Repose::build(&tie_dataset(0..100), repose_config(Measure::Hausdorff)),
        ServiceConfig {
            cache_capacity: 0, // every query must take the gate
            pool_threads: 1,
            max_inflight_queries: 1,
            ..ServiceConfig::default()
        },
    ));
    let qs = tie_queries();
    let shed = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for r in 0..4usize {
            let svc = Arc::clone(&svc);
            let qs = qs.clone();
            let shed = Arc::clone(&shed);
            let served = Arc::clone(&served);
            s.spawn(move || {
                for i in 0..200 {
                    match svc.query(&qs[(r + i) % qs.len()], 5) {
                        Ok(out) => {
                            assert!(!out.degraded);
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::Overloaded { in_flight, limit }) => {
                            assert_eq!(limit, 1);
                            assert!(in_flight >= 1);
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error under load: {e}"),
                    }
                }
            });
        }
    });
    let shed = shed.load(Ordering::Relaxed);
    let served = served.load(Ordering::Relaxed);
    assert!(served > 0, "the gate must keep serving under load");
    assert!(shed > 0, "4 threads against a 1-slot gate never overlapped");
    let stats = svc.stats();
    assert_eq!(stats.queries_shed, shed);
    assert_eq!(stats.queries, served + shed);
}

/// Unbounded admission (the default) never sheds.
#[test]
fn unbounded_admission_never_sheds() {
    let svc = ReposeService::with_config(
        Repose::build(&tie_dataset(0..30), repose_config(Measure::Hausdorff)),
        ServiceConfig { cache_capacity: 0, pool_threads: 1, ..ServiceConfig::default() },
    );
    for q in &tie_queries() {
        svc.query(q, 3).expect("unbounded admission refused a query");
    }
    assert_eq!(svc.stats().queries_shed, 0);
}

/// Durable writes and checkpoints show up in the service stats, and a
/// second service cannot accidentally re-create a journal over an
/// existing one, nor number its generations after a stranger's.
#[test]
fn durable_stats_and_journal_exclusivity() {
    let dir = fresh_dir("stats");
    let cfg = repose_config(Measure::Hausdorff);
    let svc = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        ServiceConfig {
            cache_capacity: 0,
            pool_threads: 1,
            durability: Some(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Always)),
            ..ServiceConfig::default()
        },
    )
    .expect("durable service");
    // The layout: generation 0 is the log's base, beside the first segment.
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("durability dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["gen-0000000000000001.arc", "wal-00000001.log"]);
    for i in 0..5u64 {
        svc.insert(tie_traj(400 + i)).expect("insert");
    }
    svc.compact().expect("compact");
    let stats = svc.stats();
    assert!(stats.wal_bytes > 0, "durable writes must be counted");
    assert!(stats.wal_fsyncs >= 5, "Always policy syncs every append");
    assert_eq!(stats.recovered_records, 0, "fresh service recovered nothing");

    // Re-creating over the live journal directory must be refused.
    let err = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        ServiceConfig {
            cache_capacity: 0,
            pool_threads: 1,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServiceConfig::default()
        },
    );
    assert!(
        matches!(err, Err(ServiceError::Durability(_))),
        "creating a journal over an existing one must fail typed"
    );

    // A fresh journal whose generation directory holds another service's
    // generations is refused before anything is created.
    let fresh_wal = fresh_dir("stats-wal");
    let err = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        ServiceConfig {
            cache_capacity: 0,
            pool_threads: 1,
            durability: Some(DurabilityConfig::new(&fresh_wal)),
            archive: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    );
    let refused = matches!(
        &err,
        Err(ServiceError::Durability(WalError::DirNotEmpty { dir: d })) if *d == dir
    );
    assert!(refused, "a non-empty generation directory must be refused typed");
    assert!(!fresh_wal.exists(), "a refused construction must create no journal");

    // A failed install of generation 0 is a typed error, not a service.
    let plan = FailPlan::new();
    plan.arm("arc.write", FailAction::IoError, 0);
    let err = ReposeService::try_with_config(
        Repose::build(&tie_dataset(0..30), cfg),
        ServiceConfig {
            cache_capacity: 0,
            pool_threads: 1,
            durability: Some(DurabilityConfig::new(&fresh_wal).with_failpoints(plan)),
            ..ServiceConfig::default()
        },
    );
    assert!(matches!(err, Err(ServiceError::Archive(_))), "install failure must fail typed");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_wal);
}
