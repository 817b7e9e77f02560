//! The single-node driver: one durable [`ReposeService`] (WAL with
//! `fsync`-always, persistent archives) driven through a [`Scenario`]'s
//! op stream, with `wal.*` / `arc.*` fail points armed mid-run and every
//! failure answered the way an operator would — crash the process and
//! recover from disk.
//!
//! # Write-failure certainty
//!
//! Durability fail points are exactly-once and `fsync` is `Always`, so a
//! *failed* write here is not ambiguous the way a sharded one is: the
//! driver crash-restarts and retries the same idempotent write until it
//! acknowledges, and only then tells the oracle. Acknowledged state is
//! therefore always **certain** in this mode, which arms the oracle's
//! strictest check: every answer (a single service never degrades one)
//! must match the brute-force top-k bitwise.

use crate::oracle::ShadowOracle;
use crate::scenario::{Scenario, SimOp};
use crate::{PlantedBug, SimReport, Verdict};
use repose::{Repose, ReposeConfig};
use repose_distance::MeasureParams;
use repose_durability::{DurabilityConfig, FailAction, FailPlan, FsyncPolicy};
use repose_model::{Dataset, Trajectory};
use repose_service::{ReposeService, ServiceConfig};

/// Crash-restart cycles one op may trigger before the driver declares
/// the write (or the recovery) wedged. Fail points are exactly-once, so
/// any honest run converges well below this.
const MAX_RESTARTS_PER_OP: u32 = 8;

/// Replaces the dead service with one recovered from disk. Retries the
/// recovery itself (a pending fail point can kill a recovery attempt,
/// and arms are exactly-once, so retrying makes progress).
fn restart(
    svc: &mut Option<ReposeService>,
    rcfg: &ReposeConfig,
    mk_cfg: &dyn Fn() -> ServiceConfig,
    events: &mut Vec<String>,
    i: usize,
) -> Result<(), String> {
    drop(svc.take());
    for _ in 0..MAX_RESTARTS_PER_OP {
        match ReposeService::recover(*rcfg, mk_cfg()) {
            Ok((s, rep)) => {
                events.push(format!(
                    "[{i}] recovered replayed={} from_archive={} torn={}",
                    rep.replayed_records, rep.from_archive, rep.torn_bytes
                ));
                *svc = Some(s);
                return Ok(());
            }
            Err(_) => events.push(format!("[{i}] recovery attempt failed; retrying")),
        }
    }
    Err("recovery did not succeed within the restart budget".into())
}

pub(crate) fn run_single(sc: &Scenario, planted: Option<PlantedBug>) -> SimReport {
    let dir = crate::fresh_dir("single");
    let plan = FailPlan::new();
    let params = MeasureParams::with_eps(0.5);
    let rcfg = ReposeConfig::new(sc.measure)
        .with_partitions(2)
        .with_delta(0.7)
        .with_params(params)
        .with_seed(sc.seed);
    let mk_cfg = {
        let dir = dir.clone();
        let plan = plan.clone();
        move || ServiceConfig {
            cache_capacity: 32,
            pool_threads: 1,
            max_inflight_queries: 0,
            durability: Some(
                DurabilityConfig::new(dir.join("wal"))
                    .with_fsync(FsyncPolicy::Always)
                    .with_failpoints(plan.clone()),
            ),
            archive: Some(dir.join("arc")),
        }
    };

    let mut events: Vec<String> = Vec::new();
    let mut verdict = Verdict::Ok;
    let fail = |op: usize, reason: String| Verdict::Failed { op, reason };

    let trajs: Vec<Trajectory> = sc
        .initial
        .iter()
        .map(|(id, pts)| Trajectory::new(*id, pts.clone()))
        .collect();
    let repose = Repose::build(&Dataset::from_trajectories(trajs), rcfg);
    let mut svc = match ReposeService::try_with_config(repose, mk_cfg()) {
        Ok(s) => Some(s),
        Err(_) => {
            let _ = std::fs::remove_dir_all(&dir);
            return SimReport {
                seed: sc.seed,
                events,
                verdict: fail(0, "service construction failed with no faults armed".into()),
            };
        }
    };
    let mut oracle = ShadowOracle::new(sc.measure, params, &sc.initial);

    'ops: for (i, op) in sc.ops.iter().enumerate() {
        match op {
            SimOp::ArmFault { site, action, after } => {
                match action.parse::<FailAction>() {
                    Ok(a) if repose_durability::POINTS.contains(&site.as_str()) => {
                        plan.arm(site, a, *after);
                        events.push(format!("[{i}] arm {site}={action}:{after}"));
                    }
                    _ => events.push(format!(
                        "[{i}] skip fault {site}={action} (not a single-node site)"
                    )),
                }
            }
            SimOp::Upsert { id, .. } | SimOp::Delete { id } => {
                let upsert = match op {
                    SimOp::Upsert { points, .. } => Some(points),
                    _ => None,
                };
                let what = if upsert.is_some() { "upsert" } else { "delete" };
                let mut restarts = 0;
                loop {
                    let s = svc.as_ref().expect("service is live between ops");
                    let logged = match upsert {
                        Some(points) => s.insert_acked(Trajectory::new(*id, points.clone())),
                        None => s.remove_acked(*id),
                    };
                    match logged {
                        Ok(record) => {
                            match upsert {
                                Some(points) => oracle.committed_upsert(*id, points),
                                None => oracle.committed_delete(*id),
                            }
                            events.push(format!("[{i}] {what} id={id} seq={}", record.seq()));
                            break;
                        }
                        Err(_) => {
                            events.push(format!("[{i}] {what} id={id} refused; crash-restart"));
                            restarts += 1;
                            if restarts > MAX_RESTARTS_PER_OP {
                                verdict =
                                    fail(i, format!("{what} wedged past the restart budget"));
                                break 'ops;
                            }
                            if let Err(e) = restart(&mut svc, &rcfg, &mk_cfg, &mut events, i) {
                                verdict = fail(i, e);
                                break 'ops;
                            }
                        }
                    }
                }
            }
            SimOp::Query { k, points } => {
                let s = svc.as_ref().expect("service is live between ops");
                match s.query(points, *k) {
                    Err(e) => {
                        verdict = fail(i, format!("query errored: {e:?}"));
                        break 'ops;
                    }
                    Ok(out) => {
                        let mut hits = out.hits;
                        if matches!(planted, Some(PlantedBug::TruncateTopK)) {
                            hits.pop();
                        }
                        let rendered: Vec<String> = hits
                            .iter()
                            .map(|h| format!("{}:{:016x}", h.id, h.dist.to_bits()))
                            .collect();
                        events.push(format!(
                            "[{i}] query k={k} degraded={} cache={} hits=[{}]",
                            out.degraded,
                            out.cache_hit,
                            rendered.join(",")
                        ));
                        if let Err(reason) = oracle.verify(points, *k, &hits, out.degraded) {
                            verdict = fail(i, reason);
                            break 'ops;
                        }
                    }
                }
            }
            SimOp::Compact => {
                let s = svc.as_ref().expect("service is live between ops");
                match s.compact() {
                    Ok(rebuilt) => events.push(format!("[{i}] compact rebuilt={rebuilt}")),
                    Err(_) => {
                        // A failed checkpoint can leave the WAL dead;
                        // recover exactly like an operator would.
                        events.push(format!("[{i}] compact failed; crash-restart"));
                        if let Err(e) = restart(&mut svc, &rcfg, &mk_cfg, &mut events, i) {
                            verdict = fail(i, e);
                            break 'ops;
                        }
                    }
                }
            }
            SimOp::Restart => {
                events.push(format!("[{i}] crash-restart"));
                if let Err(e) = restart(&mut svc, &rcfg, &mk_cfg, &mut events, i) {
                    verdict = fail(i, e);
                    break 'ops;
                }
            }
            // Nothing in a single service reads time; the op is only logged.
            SimOp::AdvanceTime { micros } => events.push(format!("[{i}] advance {micros}us")),
        }
    }

    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    SimReport { seed: sc.seed, events, verdict }
}
