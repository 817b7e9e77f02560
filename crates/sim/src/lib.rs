//! Deterministic whole-system simulation for REPOSE.
//!
//! One seed drives everything: the workload (upserts, deletes, queries,
//! compactions, crash-restarts), the fault schedule (durability fail
//! points and network faults from the same registries the fault-injection
//! tests use), and the passage of time (a virtual [`SimClock`] that only
//! moves when the simulation moves it). Running the same seed twice
//! produces byte-identical event logs and verdicts, so any failure is a
//! repro by construction.
//!
//! Two deployment shapes are simulated, chosen by the seed:
//!
//! * **Single-node durable** — a full [`repose_service::ReposeService`]
//!   with a WAL (`fsync` always) and persistent archives, crash-restarted
//!   through real recovery whenever a fail point bites.
//! * **Sharded volatile** — the real coordinator/worker/replica stack
//!   from [`repose_shard`] over a simulated [`Transport`](repose_shard::Transport)
//!   that delivers, drops, delays, duplicates, reorders, partitions and
//!   crashes according to the schedule — in virtual time, on one thread.
//!
//! Every query answer is checked against a [`ShadowOracle`] of
//! acknowledged writes: answers must be exact (bitwise, for all six
//! distance measures) or honestly flagged as degraded. Failing schedules
//! are minimized by [`shrink`] into small serializable repros.
//!
//! [`SimClock`]: repose_cluster::SimClock

#![forbid(unsafe_code)]

mod net;
mod oracle;
mod scenario;
mod sharded;
mod shrink;
mod single;

pub use net::{SimNet, SimNode};
pub use oracle::ShadowOracle;
pub use scenario::{Scenario, SimMode, SimOp};
pub use shrink::{shrink, Shrunk};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A deliberately introduced bug, used to prove the harness *can* catch
/// and shrink real failures (a simulator that never fails proves
/// nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// Silently drop the last hit of every query answer — the classic
    /// truncating-merge bug.
    TruncateTopK,
}

/// Did the scenario uphold the oracle's contract?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every answer was exact or honestly degraded.
    Ok,
    /// Op `op` produced an answer the oracle rejected (or the system
    /// wedged); `reason` is the oracle's explanation.
    Failed { op: usize, reason: String },
}

/// The outcome of one simulation run. `events` is a deterministic log —
/// the same seed always yields the same bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    pub seed: u64,
    pub events: Vec<String>,
    pub verdict: Verdict,
}

impl SimReport {
    pub fn failed(&self) -> bool {
        matches!(self.verdict, Verdict::Failed { .. })
    }
}

/// Runs one scenario to completion and reports the verdict.
pub fn run_scenario(sc: &Scenario, planted: Option<PlantedBug>) -> SimReport {
    match sc.mode {
        SimMode::SingleNode => single::run_single(sc, planted),
        SimMode::Sharded => sharded::run_sharded(sc, planted),
    }
}

/// Generates the scenario for `seed` and runs it.
pub fn run_seed(seed: u64, planted: Option<PlantedBug>) -> SimReport {
    run_scenario(&Scenario::generate(seed), planted)
}

/// A unique scratch directory for one simulated deployment's WAL and
/// archives. Collision-proof across processes and runs within a process.
pub(crate) fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "repose-sim-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create sim scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_twice_is_byte_identical() {
        for seed in [3u64, 11] {
            let a = run_seed(seed, None);
            let b = run_seed(seed, None);
            assert_eq!(a, b, "seed {seed} diverged between runs");
        }
    }

    #[test]
    fn clean_seeds_pass_the_oracle() {
        for seed in 0..6u64 {
            let r = run_seed(seed, None);
            assert_eq!(
                r.verdict,
                Verdict::Ok,
                "seed {seed} failed:\n{}",
                r.events.join("\n")
            );
        }
    }

    #[test]
    fn planted_truncation_is_caught_and_shrinks() {
        // Find a seed the planted bug trips on (any seed whose scenario
        // queries with k small enough that dropping a hit is wrong).
        let seed = (0..64u64)
            .find(|&s| run_seed(s, Some(PlantedBug::TruncateTopK)).failed())
            .expect("some seed within 64 must trip the planted bug");
        let sc = Scenario::generate(seed);
        let shrunk = shrink(&sc, Some(PlantedBug::TruncateTopK), 300);
        assert!(
            run_scenario(&shrunk.scenario, Some(PlantedBug::TruncateTopK)).failed(),
            "shrunk scenario must still fail"
        );
        assert!(
            shrunk.scenario.ops.len() <= 20,
            "repro did not shrink: {} ops",
            shrunk.scenario.ops.len()
        );
        // And the repro survives serialization.
        let round = Scenario::from_json(&shrunk.scenario.to_json()).expect("repro parses");
        assert!(run_scenario(&round, Some(PlantedBug::TruncateTopK)).failed());
    }
}
