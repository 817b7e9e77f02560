use crate::{ClusterConfig, JobStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The simulated cluster: a topology plus a physical thread pool that
/// executes partition closures and measures their single-core durations.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    pool_threads: usize,
}

impl Cluster {
    /// A cluster with the given topology, using as many physical threads as
    /// the host offers ([`crate::default_pool_threads`] — the same sizing
    /// rule as [`crate::WorkerPool`]).
    pub fn new(config: ClusterConfig) -> Self {
        Cluster { config, pool_threads: crate::default_pool_threads() }
    }

    /// Runs `f` once per partition (Spark's `mapPartitions` + `collect`)
    /// and schedules the measured times with [`Cluster::schedule`].
    ///
    /// Results come back in partition order. Each partition is timed as
    /// one cold run of `f` on one host thread.
    ///
    /// # Panics
    /// Re-raises the first panic of any partition task.
    pub fn run_partitions<T, R, F>(&self, parts: &[T], f: F) -> (Vec<R>, JobStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let started = Instant::now();
        let n = parts.len();
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<(R, Duration)>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.pool_threads.min(n))
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let p = next.fetch_add(1, Ordering::Relaxed);
                            if p >= n {
                                return done;
                            }
                            let t0 = Instant::now();
                            let r = f(p, &parts[p]);
                            done.push((p, r, t0.elapsed()));
                        }
                    })
                })
                .collect();
            for worker in workers {
                let done = worker.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                for (p, r, dt) in done {
                    slots[p] = Some((r, dt));
                }
            }
        });
        let host_wall = started.elapsed();
        let (results, times) = slots
            .into_iter()
            .map(|slot| slot.expect("every partition ran"))
            .unzip();
        (results, self.schedule(times, host_wall))
    }

    /// Schedules per-partition single-core times onto the modeled
    /// topology, partition `p` on worker `p % workers` (Spark's default
    /// placement).
    pub fn schedule(&self, partition_times: Vec<Duration>, host_wall: Duration) -> JobStats {
        let assignment = (0..partition_times.len()).collect();
        JobStats::simulate(
            partition_times,
            assignment,
            self.config.workers,
            self.config.cores_per_worker,
            host_wall,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig { workers: 4, cores_per_worker: 2 })
    }

    #[test]
    fn run_partitions_collects_in_order() {
        let parts: Vec<Vec<i32>> = (0..8).map(|p| (p * 10..p * 10 + 10).collect()).collect();
        let (sums, job) = cluster().run_partitions(&parts, |pi, part| (pi, part.iter().sum::<i32>()));
        let expect: Vec<(usize, i32)> =
            parts.iter().enumerate().map(|(pi, p)| (pi, p.iter().sum())).collect();
        assert_eq!(sums, expect);
        assert_eq!(job.partition_times.len(), parts.len());
    }

    #[test]
    fn job_stats_integration() {
        let c = cluster();
        let parts: Vec<u64> = (0..11).collect();
        let (_, job) = c.run_partitions(&parts, |_, &x| (0..x * 1000).sum::<u64>());
        let expect = JobStats::simulate(
            job.partition_times.clone(),
            (0..parts.len()).collect(),
            4,
            2,
            job.host_wall,
        );
        assert_eq!(job.assignment, expect.assignment);
        assert_eq!(job.worker_times, expect.worker_times);
        assert_eq!(job.makespan, expect.makespan);
        assert_eq!(job.total_work, expect.total_work);
        assert!(job.makespan <= job.total_work);
    }

    #[test]
    fn empty_dataset() {
        let (r, job) = cluster().run_partitions(&[] as &[i32], |_, &x| x);
        assert!(r.is_empty());
        assert!(job.partition_times.is_empty());
        assert_eq!(job.makespan, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "partition 3 failed")]
    fn panicking_task_reraises() {
        cluster().run_partitions(&[0, 1, 2, 3, 4], |pi, _| {
            assert!(pi != 3, "partition {pi} failed");
        });
    }
}
