//! The fault matrix: the sharded scatter-gather path against a healthy
//! network and against every deterministic network fault, compared
//! bitwise (distance multisets) with the single-node serving path.
//!
//! Four contracts:
//!
//! 1. **All-healthy identity** — for all six measures, the cluster's
//!    answer is bitwise identical to the single-node pooled path.
//! 2. **Single faults** — drop, delay-past-deadline, duplicate, reorder,
//!    crash, partition each yield either the exact answer (a deadline
//!    retry recovered it) or an answer correctly flagged `degraded` with
//!    an accurate `shards_failed` — never a silently truncated "exact"
//!    one. Degraded answers are never cached.
//! 3. **Leader crash mid-burst** — a leader crash during a write burst
//!    loses zero acknowledged writes: after follower promotion, queries
//!    match a shadow service that applied every acknowledged write.
//! 4. **One frame per partition** — a shard streams each partition's hits
//!    as one `Hits` frame; losing, doubling or delaying exactly the batch
//!    that precedes its own `Done` never shortens an answer silently, and
//!    a healthy query costs at most one such frame per partition of the
//!    deployment.

use repose::{Repose, ReposeConfig};
use repose_distance::{Measure, MeasureParams};
use repose_model::{Dataset, Point, Trajectory};
use repose_service::{ReposeService, ServiceConfig};
use repose_shard::{
    NetFault, NetFaultPlan, ShardCluster, ShardClusterConfig, Transport, WorkerConfig,
};
use repose_testkit::{sorted_dist_bits, tie_dataset, tie_queries, tie_traj};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const SHARDS: usize = 3;
/// The deployment's partition count: each shard builds 4 of the 12.
const PARTITIONS: usize = 12;

fn repose_config(measure: Measure) -> ReposeConfig {
    ReposeConfig::new(measure)
        .with_partitions(PARTITIONS)
        .with_delta(0.7)
        .with_params(MeasureParams::with_eps(0.5))
}

/// Cluster knobs tight enough that fault recovery stays sub-second but
/// loose enough that a healthy run never trips a spurious timeout.
fn cluster_config(replicate: bool) -> ShardClusterConfig {
    ShardClusterConfig {
        shards: SHARDS,
        replicate,
        attempt_timeout: Duration::from_millis(400),
        max_retries: 2,
        write_timeout: Duration::from_millis(300),
        write_retries: 10,
        worker: WorkerConfig {
            heartbeat_every: Duration::from_millis(15),
            heartbeat_timeout: Duration::from_millis(100),
            ..WorkerConfig::default()
        },
        ..ShardClusterConfig::default()
    }
}

fn single_node(dataset: Dataset, measure: Measure) -> ReposeService {
    ReposeService::with_config(
        Repose::build(&dataset, repose_config(measure)),
        ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() },
    )
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("repose-shard-{tag}-{}-{n}", std::process::id()))
}

/// Contract 1: with a healthy network the cluster answer is bitwise
/// identical to the single-node pooled path, for every measure; and the
/// repeat of a query is served from the coordinator cache, identically.
#[test]
fn all_healthy_matches_single_node_for_all_measures() {
    for &measure in Measure::ALL.iter() {
        let reference = single_node(tie_dataset(0..60), measure);
        let mut cluster = ShardCluster::build(
            tie_dataset(0..60),
            repose_config(measure),
            cluster_config(true),
            NetFaultPlan::new(),
            None,
        );
        for q in &tie_queries() {
            for k in [3usize, 9] {
                let want = reference.query(q, k).expect("single-node query");
                let got = cluster.query(q, k);
                assert!(!got.degraded, "{measure} k={k}: healthy run degraded");
                assert_eq!(got.shards_failed, 0, "{measure} k={k}");
                assert_eq!(
                    sorted_dist_bits(got.hits.iter().map(|h| h.dist)),
                    sorted_dist_bits(want.hits.iter().map(|h| h.dist)),
                    "{measure} k={k}: sharded answer diverged from single node"
                );
                let again = cluster.query(q, k);
                assert!(again.cache_hit, "{measure} k={k}: exact answer not cached");
                assert_eq!(
                    sorted_dist_bits(again.hits.iter().map(|h| h.dist)),
                    sorted_dist_bits(want.hits.iter().map(|h| h.dist)),
                );
            }
        }
        cluster.shutdown();
    }
}

/// Runs one query under `fault` armed at `site` and checks the outcome
/// against the single-node reference: exact, or correctly degraded.
/// Returns the outcome for scenario-specific assertions.
fn run_fault_scenario(
    site: &str,
    fault: NetFault,
    after: u32,
    replicate: bool,
) -> (repose_shard::ShardOutcome, Vec<u64>, NetFaultPlan) {
    let measure = Measure::Hausdorff;
    let reference = single_node(tie_dataset(0..60), measure);
    let faults = NetFaultPlan::new();
    faults.arm(site, fault, after);
    let mut cluster = ShardCluster::build(
        tie_dataset(0..60),
        repose_config(measure),
        cluster_config(replicate),
        faults.clone(),
        None,
    );
    let q = &tie_queries()[0];
    let k = 9;
    let want = sorted_dist_bits(
        reference.query(q, k).expect("reference").hits.iter().map(|h| h.dist),
    );
    let got = cluster.query(q, k);
    assert!(
        got.degraded == (got.shards_failed > 0),
        "{site}: degraded flag and shards_failed disagree"
    );
    if !got.degraded {
        assert_eq!(
            sorted_dist_bits(got.hits.iter().map(|h| h.dist)),
            want,
            "{site}: non-degraded answer must be exact"
        );
    }
    // Degraded answers must never be served from the cache.
    if got.degraded {
        let again = cluster.query(q, k);
        assert!(!again.cache_hit, "{site}: degraded answer was cached");
    }
    cluster.shutdown();
    (got, want, faults)
}

/// A dropped reply costs an attempt, never correctness: the deadline
/// retry earns the exact answer back.
#[test]
fn fault_drop_recovers_exactly() {
    let (out, want, faults) = run_fault_scenario("coord.rx", NetFault::Drop, 2, true);
    assert!(faults.any_fired(), "the drop never fired");
    assert!(!out.degraded, "a single drop must be survivable with a replica");
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
    assert!(out.retries > 0, "losing a reply message must have cost a retry");
}

/// A delay past the attempt deadline behaves like a slow shard: retried,
/// and exact.
#[test]
fn fault_delay_past_deadline_recovers_exactly() {
    let (out, want, faults) =
        run_fault_scenario("coord.rx", NetFault::Delay(Duration::from_millis(600)), 1, true);
    assert!(faults.any_fired(), "the delay never fired");
    assert!(!out.degraded);
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
}

/// A duplicated reply is absorbed by id-dedup: exact, no degradation.
#[test]
fn fault_duplicate_is_deduplicated() {
    let (out, want, faults) = run_fault_scenario("coord.rx", NetFault::Duplicate, 1, true);
    assert!(faults.any_fired(), "the duplicate never fired");
    assert!(!out.degraded);
    assert_eq!(out.shards_failed, 0);
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
}

/// A reordered reply (a `Done` can overtake its own hits) must not
/// truncate the answer: the hits-received-vs-`Done.hits_sent` accounting
/// keeps the shard incomplete until every hit landed.
#[test]
fn fault_reorder_never_truncates() {
    let (out, want, faults) = run_fault_scenario("coord.rx", NetFault::Reorder, 1, true);
    assert!(faults.any_fired(), "the reorder never fired");
    assert!(!out.degraded);
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
}

/// A crashed shard with a replica: the first deadline retry goes to the
/// replica, which answers, and the answer stays exact.
#[test]
fn fault_crash_with_replica_stays_exact() {
    let (out, want, faults) = run_fault_scenario("shard1", NetFault::Crash, 0, true);
    assert!(faults.any_fired(), "the crash never fired");
    assert!(!out.degraded, "a crashed leader must fail over to its replica");
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
    assert_eq!((out.retries, out.hedges), (1, 0), "failover is exactly one retry");
}

/// A partitioned shard with a replica: same failover contract as a crash,
/// but the node stays alive behind the partition.
#[test]
fn fault_partition_with_replica_stays_exact() {
    let (out, want, faults) = run_fault_scenario("shard2", NetFault::Partition, 0, true);
    assert!(faults.any_fired(), "the partition never fired");
    assert!(!out.degraded);
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
}

/// A crashed shard with **no** replica exhausts its retries and degrades
/// honestly: `degraded` set, `shards_failed` accurate, and the partial
/// answer is exactly the merged answer of the surviving shards.
#[test]
fn fault_crash_without_replica_degrades_honestly() {
    let measure = Measure::Hausdorff;
    let faults = NetFaultPlan::new();
    faults.arm("shard1", NetFault::Crash, 0);
    let mut cluster = ShardCluster::build(
        tie_dataset(0..60),
        repose_config(measure),
        cluster_config(false),
        faults.clone(),
        None,
    );
    // The exact answer over the surviving shards' subsets.
    let survivors = Dataset::from_trajectories(
        tie_dataset(0..60)
            .into_trajectories()
            .into_iter()
            .filter(|t| (t.id % SHARDS as u64) != 1)
            .collect::<Vec<Trajectory>>(),
    );
    let reference = single_node(survivors, measure);
    let q = &tie_queries()[0];
    let k = 9;
    let out = cluster.query(q, k);
    assert!(faults.any_fired(), "the crash never fired");
    assert!(out.degraded, "an unreachable shard with no replica must degrade");
    assert_eq!(out.shards_failed, 1, "exactly one shard was lost");
    assert!(out.retries > 0, "degradation must come after the retry budget");
    assert_eq!(
        sorted_dist_bits(out.hits.iter().map(|h| h.dist)),
        sorted_dist_bits(
            reference.query(q, k).expect("survivor reference").hits.iter().map(|h| h.dist)
        ),
        "the partial answer must be exact over the surviving shards"
    );
    let again = cluster.query(q, k);
    assert!(!again.cache_hit, "a degraded answer must never be cached");
    cluster.shutdown();
}

/// Contract 3: a leader crash in the middle of a write burst loses zero
/// acknowledged writes. The follower promotes itself, the coordinator
/// adopts it, every burst write eventually acknowledges, and the
/// post-crash cluster answers bitwise-identically to a single-node shadow
/// that applied exactly the acknowledged writes.
#[test]
fn leader_crash_mid_burst_loses_no_acknowledged_write() {
    let measure = Measure::Hausdorff;
    let dir = fresh_dir("crash");
    let faults = NetFaultPlan::new();
    // Fires mid-burst: shard0 traffic includes heartbeats, upserts,
    // replication rounds and acks; a handful of writes land first.
    faults.arm("shard0", NetFault::Crash, 25);
    let mut cluster = ShardCluster::build(
        tie_dataset(0..60),
        repose_config(measure),
        cluster_config(true),
        faults.clone(),
        Some(&dir),
    );

    let shadow = single_node(tie_dataset(0..60), measure);
    let mut promotions = 0u32;
    for i in 0..24u64 {
        // Ids cycle through all shards; shard 0 takes every third write.
        let t = tie_traj(300 + i);
        let out = cluster
            .insert(t.clone())
            .unwrap_or_else(|e| panic!("write {i} must eventually ack: {e}"));
        if out.promoted {
            promotions += 1;
        }
        shadow.insert(t).expect("shadow insert");
    }
    for id in [301u64, 306, 312] {
        let out = cluster.remove(id).expect("remove must eventually ack");
        if out.promoted {
            promotions += 1;
        }
        shadow.remove(id).expect("shadow remove");
    }
    assert!(faults.any_fired(), "the leader crash never fired");
    assert!(
        cluster.transport().is_crashed(1),
        "shard0's original leader (node 1) must be dead"
    );
    assert!(promotions >= 1, "some write must have been acked by the promoted replica");
    assert_ne!(cluster.leader_of(0), 1, "the coordinator must have adopted the replica");

    for q in &tie_queries() {
        for k in [3usize, 9] {
            let got = cluster.query(q, k);
            assert!(!got.degraded, "the promoted replica must serve shard 0 exactly");
            let want = shadow.query(q, k).expect("shadow query");
            assert_eq!(
                sorted_dist_bits(got.hits.iter().map(|h| h.dist)),
                sorted_dist_bits(want.hits.iter().map(|h| h.dist)),
                "k={k}: an acknowledged write went missing after the crash"
            );
        }
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes and reads against a healthy replicated cluster: log-before-ack
/// end to end, then exact reads that include the written data.
#[test]
fn healthy_writes_replicate_and_serve() {
    let measure = Measure::Frechet;
    let mut cluster = ShardCluster::build(
        tie_dataset(0..30),
        repose_config(measure),
        cluster_config(true),
        NetFaultPlan::new(),
        None,
    );
    let shadow = single_node(tie_dataset(0..30), measure);
    for i in 0..9u64 {
        let t = tie_traj(500 + i);
        let out = cluster.insert(t.clone()).expect("insert");
        assert!(!out.promoted, "no promotion on a healthy network");
        shadow.insert(t).expect("shadow insert");
    }
    cluster.remove(503).expect("remove");
    shadow.remove(503).expect("shadow remove");
    // Every shard's replica must have applied its leader's log.
    for shard in 0..SHARDS {
        assert_eq!(
            cluster.leader_service(shard).op_seq(),
            cluster.replica_service(shard).op_seq(),
            "shard {shard}: follower lag after acked writes"
        );
    }
    for q in &tie_queries() {
        let got = cluster.query(q, 5);
        let want = shadow.query(q, 5).expect("shadow");
        assert!(!got.degraded);
        assert_eq!(
            sorted_dist_bits(got.hits.iter().map(|h| h.dist)),
            sorted_dist_bits(want.hits.iter().map(|h| h.dist)),
        );
    }
    cluster.shutdown();
}

/// Arms `fault` on the last `Hits` frame shard 0 sends for one query —
/// the batch right before its own `Done` — and returns the outcome with
/// the exact answer's distance bits and the network counters.
///
/// The cluster is unreplicated, so everything shard 0 transmits is query
/// traffic (`shard0.tx` sees its `Hits` frames, then its `Done`), and k
/// is the whole dataset, so no bound ever prunes a partition and the
/// number of frames is the shard's count of non-empty partitions — known
/// before the query runs.
fn run_last_batch_scenario(
    fault: NetFault,
    max_retries: u32,
) -> (repose_shard::ShardOutcome, Vec<u64>, repose_shard::NetStats) {
    let measure = Measure::Hausdorff;
    let k = 60;
    let reference = single_node(tie_dataset(0..60), measure);
    let faults = NetFaultPlan::new();
    let mut cluster = ShardCluster::build(
        tie_dataset(0..60),
        repose_config(measure),
        ShardClusterConfig { max_retries, ..cluster_config(false) },
        faults.clone(),
        None,
    );
    let q = &tie_queries()[0];
    // Count the frames the worker sends: one per partition that adds
    // collector entries not streamed before.
    let (mut batches, mut sent) = (0u32, std::collections::HashSet::new());
    cluster
        .leader_service(0)
        .query_scatter(q, k, f64::INFINITY, |c| {
            let fresh = c.hits().iter().filter(|h| sent.insert(h.id)).count();
            batches += u32::from(fresh > 0);
        })
        .expect("shard 0 dry run");
    assert!(batches >= 2, "the scenario needs a batch before the last one");
    faults.arm("shard0.tx", fault, batches - 1);

    let want = sorted_dist_bits(
        reference.query(q, k).expect("reference").hits.iter().map(|h| h.dist),
    );
    let got = cluster.query(q, k);
    assert!(faults.any_fired(), "{fault:?}: the arm never fired");
    assert_eq!(got.degraded, got.shards_failed > 0);
    let stats = cluster.transport().net_stats();
    cluster.shutdown();
    (got, want, stats)
}

/// A dropped batch leaves the attempt short of its `Done.hits_sent`: the
/// shard stays incomplete and the retry re-earns the whole answer.
#[test]
fn dropped_hits_batch_is_retried_to_an_exact_answer() {
    let (out, want, stats) = run_last_batch_scenario(NetFault::Drop, 2);
    assert_eq!(stats.dropped, 1);
    assert!(out.retries >= 1, "only a retry can replace a lost batch");
    assert!(!out.degraded);
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
}

/// With no retry budget the same loss must surface as `degraded` — a
/// `Done` alone never completes a shard whose batch went missing.
#[test]
fn dropped_hits_batch_without_retries_degrades_never_truncates() {
    let (out, want, _) = run_last_batch_scenario(NetFault::Drop, 0);
    assert!(out.degraded, "an answer missing a batch must say so");
    assert_eq!(out.shards_failed, 1);
    assert_ne!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
}

/// A batch delivered twice counts once: per-attempt accounting is by
/// distinct id, so the attempt completes on its `Done` with no retry.
#[test]
fn duplicated_hits_batch_counts_once() {
    let (out, want, stats) = run_last_batch_scenario(NetFault::Duplicate, 2);
    assert_eq!(stats.duplicated, 1);
    assert_eq!((out.retries, out.degraded), (0, false));
    assert_eq!(out.hits.len(), 60, "no id answered twice");
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
}

/// The last batch held back past its own `Done`: the `Done` arrives
/// first, finds the attempt short, and the late batch completes it.
#[test]
fn hits_batch_overtaken_by_its_done_still_completes() {
    let (out, want, stats) = run_last_batch_scenario(NetFault::Reorder, 2);
    assert_eq!(stats.reordered, 1);
    assert_eq!((out.retries, out.degraded), (0, false));
    assert_eq!(sorted_dist_bits(out.hits.iter().map(|h| h.dist)), want);
}

/// The frame budget of a healthy query, on the transport's deterministic
/// counter: besides one `Query` and one `Done` per shard and the counted
/// `Tighten`s, a shard sends one hit-carrying frame per non-empty
/// partition — never one per hit. (Unreplicated: no heartbeats share the
/// counter.)
#[test]
fn healthy_query_costs_at_most_one_hit_frame_per_partition() {
    let measure = Measure::Hausdorff;
    let mut cluster = ShardCluster::build(
        tie_dataset(0..60),
        repose_config(measure),
        ShardClusterConfig { cache_capacity: 0, ..cluster_config(false) },
        NetFaultPlan::new(),
        None,
    );
    // k = a shard's whole subset: every shard streams at least k hits.
    let k = 60 / SHARDS;
    for q in &tie_queries() {
        let before = cluster.transport().net_stats().sent;
        let out = cluster.query(q, k);
        let sent = cluster.transport().net_stats().sent - before;
        assert_eq!((out.retries, out.hedges, out.degraded), (0, 0, false));
        let hit_frames = sent - 2 * SHARDS as u64 - u64::from(out.tightenings);
        assert!(
            (1..=PARTITIONS as u64).contains(&hit_frames),
            "{hit_frames} hit-carrying frames for {} hits over {PARTITIONS} partitions",
            out.hits.len()
        );
    }
    cluster.shutdown();
}

/// Non-finite coordinates never reach the wire: a query degrades at once
/// with every shard failed, an insert is refused with zero attempts, no
/// frame is sent for either (so no retry ladder runs and no shard thread
/// meets an undecodable frame), and the cluster keeps answering exactly.
/// (Unreplicated: no heartbeats share the counter.)
#[test]
fn non_finite_input_is_refused_before_any_frame_is_sent() {
    let measure = Measure::Hausdorff;
    let reference = single_node(tie_dataset(0..60), measure);
    let mut cluster = ShardCluster::build(
        tie_dataset(0..60),
        repose_config(measure),
        cluster_config(false),
        NetFaultPlan::new(),
        None,
    );
    let q = &tie_queries()[0];
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut points = q.clone();
        points[1] = Point::new(points[1].x, bad);
        let before = cluster.transport().net_stats().sent;

        let out = cluster.query(&points, 5);
        assert!(out.degraded && !out.cache_hit && out.hits.is_empty(), "{bad}");
        assert_eq!((out.shards_failed, out.retries, out.hedges), (SHARDS as u32, 0, 0), "{bad}");
        assert!(!cluster.query(&points, 5).cache_hit, "{bad}: a refusal was cached");

        let refused = cluster.insert(Trajectory::new(7_000, points)).unwrap_err();
        assert_eq!((refused.shard, refused.attempts), (7_000 % SHARDS, 0), "{bad}");

        assert_eq!(cluster.transport().net_stats().sent, before, "{bad}: a frame was sent");
    }
    let want = reference.query(q, 5).expect("reference");
    let got = cluster.query(q, 5);
    assert!(!got.degraded);
    assert_eq!(
        sorted_dist_bits(got.hits.iter().map(|h| h.dist)),
        sorted_dist_bits(want.hits.iter().map(|h| h.dist)),
    );
    cluster.shutdown();
}
