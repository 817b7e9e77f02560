//! A deterministic in-process distributed in-memory compute substrate — the
//! repository's stand-in for the paper's Spark cluster (1 master + 16
//! workers × 4 cores).
//!
//! # Why a simulation is faithful here
//!
//! Every distributed claim of the paper (load balance, computing-resource
//! utilization, per-partition query time, makespan as the number of
//! partitions grows) is a function of *how long each partition's local work
//! takes* and *how partitions are scheduled onto worker cores*. This crate
//! executes partition closures on a physical thread pool, records each
//! partition's CPU-work duration, and then *simulates* the cluster schedule
//! (per-worker core queues, Spark-style in-order task dispatch) to produce
//! the distributed makespan. The simulated makespan is independent of how
//! many physical cores the host happens to have.
//!
//! The paper's `RpTrieRDD.mapPartitions` + `collect` becomes one call,
//! [`Cluster::run_partitions`]: a closure runs once per partition of a
//! plain slice, results come back in partition order, and the measured
//! times come back scheduled onto the modeled cluster as a [`JobStats`].
//!
//! ```
//! use repose_cluster::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::new(ClusterConfig { workers: 2, cores_per_worker: 2 });
//! let parts: Vec<Vec<i32>> = (0..4).map(|p| (p * 25..(p + 1) * 25).collect()).collect();
//!
//! // mapPartitions + collect, with per-partition durations measured.
//! let (sums, job) = cluster.run_partitions(&parts, |_pi, part| part.iter().sum::<i32>());
//! assert_eq!(sums.iter().sum::<i32>(), (0..100).sum::<i32>());
//!
//! // The measured durations are scheduled onto the modeled 2x2 cluster.
//! assert_eq!(job.partition_times.len(), 4);
//! assert!(job.makespan <= job.total_work);
//! ```

#![warn(missing_docs)]

mod admission;
mod backoff;
mod clock;
mod executor;
mod pool;
mod stats;

pub use admission::{AdmissionGate, AdmissionPermit};
pub use backoff::{Backoff, BackoffConfig};
pub use clock::{Clock, SimClock, SystemClock};
pub use executor::Cluster;
pub use pool::{default_pool_threads, PoolScope, WorkerPool};
pub use stats::{list_schedule, JobStats, LatencySummary, SimTime};

/// Cluster topology: the paper's default is 16 workers with 4 cores each
/// and one partition per core (64 partitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub workers: usize,
    /// Cores per worker node.
    pub cores_per_worker: usize,
}

impl ClusterConfig {
    /// The paper's experimental cluster (Section VII-A).
    pub fn paper_default() -> Self {
        ClusterConfig { workers: 16, cores_per_worker: 4 }
    }

    /// Total cores — the natural default number of partitions.
    pub fn total_cores(&self) -> usize {
        self.workers * self.cores_per_worker
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_topology() {
        let c = ClusterConfig::paper_default();
        assert_eq!(c.workers, 16);
        assert_eq!(c.cores_per_worker, 4);
        assert_eq!(c.total_cores(), 64);
    }
}
