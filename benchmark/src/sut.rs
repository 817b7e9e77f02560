//! The benchmark surface: every call the benchmark makes into the system
//! under test goes through this file and nowhere else, so a refactor of
//! the crates knows exactly which entry points must keep compiling (the
//! list is in `benchmark/README.md`). Deliberately absent: the variants
//! ROADMAP plans to delete (`query_two_phase`, `query_independent`,
//! `top_k_seeded/_where/_bounded`, `refine_by_bound*`).
//!
//! The wrappers add nothing but the benchmark's fixed parameters. Types
//! are re-exported so the other modules import from here only.

pub use repose::{QueryOutcome, Repose, ReposeConfig};
pub use repose_archive::Archive;
pub use repose_cluster::WorkerPool;
pub use repose_distance::Measure;
pub use repose_durability::{FsyncPolicy, Wal, WalRecord};
pub use repose_model::{Dataset, Point, TrajId, Trajectory};
pub use repose_rptrie::{Hit, SearchResult, SearchStats};
pub use repose_service::{
    RecoveryReport, ReposeService, ServiceConfig, ServiceOutcome, ServiceStats,
};
pub use repose_shard::{Message, ShardCluster, ShardOutcome};

use repose_datagen::PaperDataset;
use repose_distance::{Backend, MeasureParams};
use repose_durability::{DurabilityConfig, FailPlan};
use repose_shard::{NetFaultPlan, ShardClusterConfig};
use std::path::{Path, PathBuf};

/// Results per query (the paper's default).
pub const K: usize = 100;
/// Partitions per deployment.
pub const PARTITIONS: usize = 16;
/// Shards of the `shard_scatter` cluster (each with one replica).
pub const SHARDS: usize = 2;
/// The dataset every workload generates.
const DATASET: PaperDataset = PaperDataset::TDrive;

pub const MEASURES: [Measure; 6] = Measure::ALL;

/// The measure's name as metric names spell it: `hausdorff`, `dtw`, ...
pub fn measure_key(m: Measure) -> String {
    m.name().to_ascii_lowercase()
}

// ---- datagen -----------------------------------------------------------

pub fn generate(scale: f64, seed: u64) -> Dataset {
    DATASET.generate(scale, seed)
}

pub fn sample_queries(data: &Dataset, n: usize, seed: u64) -> Vec<Trajectory> {
    repose_datagen::sample_queries(data, n, seed)
}

// ---- core / rptrie -----------------------------------------------------

/// The deployment configuration of every workload: the paper's grid side
/// for the dataset, 16 partitions, everything else `ReposeConfig::new`.
pub fn repose_config(measure: Measure) -> ReposeConfig {
    ReposeConfig::new(measure)
        .with_partitions(PARTITIONS)
        .with_delta(DATASET.paper_delta(measure))
}

pub fn build(data: &Dataset, measure: Measure) -> Repose {
    Repose::build(data, repose_config(measure))
}

pub fn core_query(repose: &Repose, query: &[Point]) -> QueryOutcome {
    repose.query(query, K)
}

/// One partition's local search, on the calling thread, under its own
/// threshold — so its counts repeat exactly.
pub fn partition_top_k(repose: &Repose, partition: usize, query: &[Point]) -> SearchResult {
    let view = repose.partition_view(partition);
    view.trie.top_k(view.store, query, K)
}

pub fn index_bytes(repose: &Repose) -> usize {
    repose.index_bytes()
}

pub fn partition_sizes(repose: &Repose) -> Vec<usize> {
    repose.partition_sizes()
}

/// Single-thread seconds the per-partition trie builds took, summed.
pub fn trie_build_work_s(repose: &Repose) -> f64 {
    repose.build_stats().total_work.as_secs_f64()
}

// ---- distance ----------------------------------------------------------

fn params() -> MeasureParams {
    MeasureParams::default()
}

pub fn distance(measure: Measure, a: &[Point], b: &[Point]) -> f64 {
    params().distance(measure, a, b)
}

pub fn distance_within(measure: Measure, a: &[Point], b: &[Point], threshold: f64) -> Option<f64> {
    params().distance_within(measure, a, b, threshold)
}

pub fn lower_bound(measure: Measure, a: &[Point], b: &[Point]) -> f64 {
    params().lower_bound(measure, a, b)
}

pub fn active_backend() -> &'static str {
    repose_distance::active_backend().name()
}

/// Runs `f` with the kernels forced onto the scalar backend, then puts the
/// backend that was active back. Process-wide: call it only while nothing
/// else computes distances.
pub fn with_scalar_backend<R>(f: impl FnOnce() -> R) -> R {
    let active = repose_distance::active_backend();
    repose_distance::force_backend(Backend::Scalar);
    let r = f();
    repose_distance::force_backend(active);
    r
}

// ---- cluster -----------------------------------------------------------

pub fn default_pool_threads() -> usize {
    repose_cluster::default_pool_threads()
}

pub fn worker_pool(threads: usize) -> WorkerPool {
    WorkerPool::new(threads)
}

/// One `WorkerPool::scope` of `tasks` tasks that each bump a counter.
pub fn pool_scope_counting(pool: &WorkerPool, tasks: usize) -> usize {
    let done = std::sync::atomic::AtomicUsize::new(0);
    pool.scope(|s| {
        for _ in 0..tasks {
            s.submit(|| {
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    done.into_inner()
}

// ---- service -----------------------------------------------------------

/// Where a durable service keeps its WAL and its archive generations.
#[derive(Debug, Clone)]
pub struct DurableDirs {
    pub wal: PathBuf,
    pub archive: PathBuf,
}

/// `ServiceConfig::default()` with the given cache capacity and pool
/// size; `dirs` turns on the WAL (with `fsync`) and the archive.
pub fn service_config(
    cache_capacity: usize,
    pool_threads: usize,
    dirs: Option<(&DurableDirs, FsyncPolicy)>,
) -> ServiceConfig {
    ServiceConfig {
        cache_capacity,
        pool_threads,
        durability: dirs.map(|(d, fsync)| DurabilityConfig::new(&d.wal).with_fsync(fsync)),
        archive: dirs.map(|(d, _)| d.archive.clone()),
        ..ServiceConfig::default()
    }
}

pub fn start_service(repose: Repose, config: ServiceConfig) -> ReposeService {
    ReposeService::try_with_config(repose, config).expect("service start")
}

pub type ServiceResult<T> = Result<T, repose_service::ServiceError>;

pub fn service_query(service: &ReposeService, query: &[Point]) -> ServiceResult<ServiceOutcome> {
    service.query(query, K)
}

pub fn service_query_batch(
    service: &ReposeService,
    queries: &[Vec<Point>],
) -> ServiceResult<Vec<ServiceOutcome>> {
    service.query_batch(queries, K)
}

pub fn service_insert(service: &ReposeService, traj: Trajectory) -> ServiceResult<()> {
    service.insert(traj)
}

pub fn service_remove(service: &ReposeService, id: TrajId) -> ServiceResult<()> {
    service.remove(id)
}

pub fn service_compact(service: &ReposeService) -> ServiceResult<usize> {
    service.compact()
}

pub fn service_stats(service: &ReposeService) -> ServiceStats {
    service.stats()
}

pub fn service_recover(
    measure: Measure,
    config: ServiceConfig,
) -> ServiceResult<(ReposeService, RecoveryReport)> {
    ReposeService::recover(repose_config(measure), config)
}

// ---- shard -------------------------------------------------------------

/// Two shards, each with a replica; coordinator cache off so every query
/// scatters. Everything else is `ShardClusterConfig::default()`.
pub fn cluster_build(data: Dataset, measure: Measure) -> ShardCluster {
    let cfg = ShardClusterConfig {
        shards: SHARDS,
        replicate: true,
        cache_capacity: 0,
        ..ShardClusterConfig::default()
    };
    ShardCluster::build(data, repose_config(measure), cfg, NetFaultPlan::new(), None)
}

pub fn cluster_query(cluster: &mut ShardCluster, query: &[Point]) -> ShardOutcome {
    cluster.query(query, K)
}

/// `Err` carries the attempts made.
pub fn cluster_insert(cluster: &mut ShardCluster, traj: Trajectory) -> Result<(), u32> {
    cluster.insert(traj).map(|_| ()).map_err(|e| e.attempts)
}

/// The same query against one shard leader's own service, bypassing the
/// coordinator.
pub fn leader_query(
    cluster: &ShardCluster,
    shard: usize,
    query: &[Point],
) -> ServiceResult<ServiceOutcome> {
    cluster.leader_service(shard).query(query, K)
}

/// Frames handed to the transport so far.
pub fn frames_sent(cluster: &ShardCluster) -> u64 {
    cluster.transport().net_stats().sent
}

pub fn cluster_shutdown(cluster: &mut ShardCluster) {
    cluster.shutdown();
}

pub fn query_message(measure: Measure, query: &[Point]) -> Message {
    Message::Query {
        qid: 1,
        attempt: 0,
        k: K as u32,
        measure,
        seed_dk: f64::INFINITY,
        points: query.to_vec(),
    }
}

pub fn hit_message(hit: &Hit) -> Message {
    Message::Hit {
        qid: 1,
        attempt: 0,
        id: hit.id,
        dist: hit.dist,
    }
}

pub fn encode_frame(msg: &Message) -> Vec<u8> {
    msg.encode_frame()
}

pub fn decode_frame(frame: &[u8]) -> Message {
    let mut cur = frame;
    Message::decode_frame(&mut cur)
        .expect("a frame this process encoded decodes")
        .expect("one frame")
}

// ---- durability --------------------------------------------------------

pub fn wal_create(dir: &Path, fsync: FsyncPolicy) -> Wal {
    Wal::create(&DurabilityConfig::new(dir).with_fsync(fsync)).expect("fresh WAL directory")
}

pub fn upsert_record(seq: u64, traj: &Trajectory) -> WalRecord {
    WalRecord::Upsert {
        seq,
        id: traj.id,
        points: traj.points.clone(),
    }
}

pub fn wal_append(wal: &mut Wal, record: &WalRecord) {
    wal.append(record).expect("WAL append");
}

/// `(bytes handed to the OS, fsync calls)` so far.
pub fn wal_counters(wal: &Wal) -> (u64, u64) {
    let c = wal.counters();
    (c.bytes_written, c.fsyncs)
}

// ---- archive -----------------------------------------------------------

pub fn write_archive(dir: &Path, repose: &Repose) -> PathBuf {
    std::fs::create_dir_all(dir).expect("archive directory");
    repose_archive::write_archive(dir, repose, 0, &FailPlan::new()).expect("archive write")
}

pub fn archive_open(path: &Path) -> Archive {
    Archive::open(path, &FailPlan::new()).expect("archive this process wrote opens")
}

pub fn archive_attach(archive: &Archive) -> Repose {
    archive
        .attach()
        .expect("archive this process wrote attaches")
}

/// `(bytes checksummed, corrupt regions)`.
pub fn archive_scrub(archive: &Archive) -> (u64, usize) {
    let report = archive.scrub();
    (report.bytes, report.corrupt.len())
}
