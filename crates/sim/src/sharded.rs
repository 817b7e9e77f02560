//! The sharded driver: the full coordinator/worker/replica topology from
//! [`repose_shard`] built over the simulated network ([`SimNet`]) and a
//! virtual clock, every worker running as an inline message pump on the
//! simulation's single thread.
//!
//! Timeouts are scaled down (milliseconds of *virtual* time) so retries,
//! heartbeat timeouts and follower promotions all fire within a
//! scenario's time horizon; the code paths exercised are exactly the
//! production ones — same coordinator, same workers, same wire frames.
//!
//! # Write-failure uncertainty
//!
//! A sharded write that fails may still have been applied (the leader
//! logs before it replicates; at-least-once with idempotent upserts), so
//! the driver reports failed writes to the oracle as *uncertain* — the
//! answer checker then admits either world but nothing else. Acknowledged
//! writes are certain, and the oracle insists they are never lost.

use crate::net::{SimNet, SimNode};
use crate::oracle::ShadowOracle;
use crate::scenario::{Scenario, SimOp};
use crate::{PlantedBug, SimReport, Verdict};
use repose_cluster::{BackoffConfig, Clock, SimClock};
use repose_distance::MeasureParams;
use repose_model::{Dataset, Trajectory};
use repose_shard::fault::{parse_site, SiteRole};
use repose_shard::{
    Message, NetFault, NetFaultPlan, NodeId, ShardCluster, ShardClusterConfig, Transport,
    WorkerConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// A [`repose_shard::ShardWorker`] adapted to the pump interface: each
/// delivered frame runs the worker's real handler, then replays any
/// frames the handler stashed — those it read right after a query reply,
/// or while waiting for a replication ack.
struct WorkerPump(repose_shard::ShardWorker);

impl SimNode for WorkerPump {
    fn on_message(&mut self, from: NodeId, msg: Message) -> bool {
        self.0.on_message(from, msg) && self.0.drain_pending()
    }
    fn on_tick(&mut self) {
        self.0.on_tick();
    }
}

/// Whether `site` names a node that exists in this scenario's topology
/// (hand-edited repro files can name nodes that don't).
fn site_in_topology(site: &str, shards: usize, replicate: bool) -> bool {
    parse_site(site).is_some_and(|s| match s.role {
        SiteRole::Coord => true,
        SiteRole::Shard => s.index < shards,
        SiteRole::Replica => replicate && s.index < shards,
    })
}

/// Virtual-time tuning: everything in low milliseconds so a scenario's
/// `AdvanceTime` jumps (up to ~400ms) cross every timer threshold.
fn sim_cluster_config(sc: &Scenario) -> ShardClusterConfig {
    ShardClusterConfig {
        shards: sc.shards,
        replicate: sc.replicate,
        attempt_timeout: Duration::from_millis(40),
        max_retries: 2,
        backoff: BackoffConfig {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(20),
        },
        write_timeout: Duration::from_millis(40),
        write_retries: 4,
        cache_capacity: 32,
        seed: sc.seed,
        worker: WorkerConfig {
            heartbeat_every: Duration::from_millis(5),
            heartbeat_timeout: Duration::from_millis(30),
            ack_timeout: Duration::from_millis(15),
            backoff: BackoffConfig {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(10),
            },
            seed: sc.seed ^ 0x77,
        },
    }
}

pub(crate) fn run_sharded(sc: &Scenario, planted: Option<PlantedBug>) -> SimReport {
    let clock = Arc::new(SimClock::new());
    let faults = NetFaultPlan::new();
    let mut labels = vec!["coord".to_string()];
    labels.extend((0..sc.shards).map(|i| format!("shard{i}")));
    if sc.replicate {
        labels.extend((0..sc.shards).map(|i| format!("replica{i}")));
    }
    let net = SimNet::new(
        labels,
        faults.clone(),
        Arc::clone(&clock),
        Duration::from_millis(1),
    );

    let params = MeasureParams::with_eps(0.5);
    let rcfg = repose::ReposeConfig::new(sc.measure)
        .with_partitions(2 * sc.shards)
        .with_delta(0.7)
        .with_params(params)
        .with_seed(sc.seed);
    let trajs: Vec<Trajectory> = sc
        .initial
        .iter()
        .map(|(id, pts)| Trajectory::new(*id, pts.clone()))
        .collect();
    let (mut cluster, workers) = ShardCluster::build_nodes(
        Dataset::from_trajectories(trajs),
        rcfg,
        sim_cluster_config(sc),
        None,
        Arc::new(net.clone()) as Arc<dyn Transport>,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    for worker in workers {
        let node = worker.node();
        net.register_pump(node, Box::new(WorkerPump(worker)));
    }

    let mut oracle = ShadowOracle::new(sc.measure, params, &sc.initial);
    let mut events: Vec<String> = Vec::new();
    let mut verdict = Verdict::Ok;

    'ops: for (i, op) in sc.ops.iter().enumerate() {
        match op {
            SimOp::ArmFault { site, action, after } => {
                match action.parse::<NetFault>() {
                    Ok(f) if site_in_topology(site, sc.shards, sc.replicate) => {
                        faults.arm(site, f, *after);
                        events.push(format!("[{i}] arm {site}={action}:{after}"));
                    }
                    _ => events.push(format!(
                        "[{i}] skip fault {site}={action} (not a sharded site here)"
                    )),
                }
            }
            SimOp::Upsert { id, points } => {
                match cluster.insert(Trajectory::new(*id, points.clone())) {
                    Ok(out) => {
                        oracle.committed_upsert(*id, points);
                        events.push(format!(
                            "[{i}] upsert id={id} seq={} attempts={} promoted={}",
                            out.seq, out.attempts, out.promoted
                        ));
                    }
                    Err(failed) => {
                        // May or may not have applied: at-least-once.
                        oracle.uncertain_upsert(*id, points);
                        events.push(format!(
                            "[{i}] upsert id={id} FAILED attempts={}",
                            failed.attempts
                        ));
                    }
                }
            }
            SimOp::Delete { id } => match cluster.remove(*id) {
                Ok(out) => {
                    oracle.committed_delete(*id);
                    events.push(format!(
                        "[{i}] delete id={id} seq={} attempts={} promoted={}",
                        out.seq, out.attempts, out.promoted
                    ));
                }
                Err(failed) => {
                    oracle.uncertain_delete(*id);
                    events.push(format!(
                        "[{i}] delete id={id} FAILED attempts={}",
                        failed.attempts
                    ));
                }
            },
            SimOp::Query { k, points } => {
                let out = cluster.query(points, *k);
                let mut hits = out.hits;
                if matches!(planted, Some(PlantedBug::TruncateTopK)) {
                    hits.pop();
                }
                let rendered: Vec<String> = hits
                    .iter()
                    .map(|h| format!("{}:{:016x}", h.id, h.dist.to_bits()))
                    .collect();
                events.push(format!(
                    "[{i}] query k={k} degraded={} failed={} retries={} cache={} hits=[{}]",
                    out.degraded,
                    out.shards_failed,
                    out.retries,
                    out.cache_hit,
                    rendered.join(",")
                ));
                if let Err(reason) = oracle.verify(points, *k, &hits, out.degraded) {
                    verdict = Verdict::Failed { op: i, reason };
                    break 'ops;
                }
            }
            // Single-node ops: nothing to do here, but the op index must
            // stay aligned with the scenario for shrinking and logs.
            SimOp::Compact => events.push(format!("[{i}] compact (no-op sharded)")),
            SimOp::Restart => events.push(format!("[{i}] restart (no-op sharded)")),
            SimOp::AdvanceTime { micros } => {
                clock.advance(Duration::from_micros(*micros));
                net.kick();
                events.push(format!("[{i}] advance {micros}us"));
            }
        }
    }

    cluster.shutdown();
    SimReport { seed: sc.seed, events, verdict }
}
