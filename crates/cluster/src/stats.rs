use std::time::Duration;

/// A simulated wall-clock duration on the modeled cluster.
pub type SimTime = Duration;

/// List-schedules task durations (in submission order) onto `cores`
/// identical cores; returns the finishing time of the last task.
///
/// This models Spark's task dispatch inside one executor: tasks are handed
/// to the first core that frees up, in order.
pub fn list_schedule(durations: &[Duration], cores: usize) -> Duration {
    assert!(cores > 0, "need at least one core");
    let mut free = vec![Duration::ZERO; cores];
    for &d in durations {
        // earliest-free core
        let (idx, _) = free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("cores > 0");
        free[idx] += d;
    }
    free.into_iter().max().unwrap_or(Duration::ZERO)
}

/// Work/latency accounting for one distributed job.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Measured single-core duration of each partition's closure.
    pub partition_times: Vec<Duration>,
    /// Which worker each partition is assigned to.
    pub assignment: Vec<usize>,
    /// Simulated busy time per worker (list schedule over its cores).
    pub worker_times: Vec<Duration>,
    /// Simulated distributed wall time: max over workers.
    pub makespan: SimTime,
    /// Sum of all partition durations (total cluster work).
    pub total_work: Duration,
    /// Physical wall time of the host execution (informational only).
    pub host_wall: Duration,
}

impl JobStats {
    /// Builds the simulated schedule for the measured partition times.
    pub fn simulate(
        partition_times: Vec<Duration>,
        assignment: Vec<usize>,
        workers: usize,
        cores_per_worker: usize,
        host_wall: Duration,
    ) -> Self {
        assert_eq!(partition_times.len(), assignment.len());
        let mut per_worker: Vec<Vec<Duration>> = vec![Vec::new(); workers];
        for (p, &w) in assignment.iter().enumerate() {
            per_worker[w % workers].push(partition_times[p]);
        }
        let worker_times: Vec<Duration> = per_worker
            .iter()
            .map(|d| list_schedule(d, cores_per_worker))
            .collect();
        let makespan = worker_times.iter().copied().max().unwrap_or(Duration::ZERO);
        let total_work = partition_times.iter().sum();
        JobStats {
            partition_times,
            assignment,
            worker_times,
            makespan,
            total_work,
            host_wall,
        }
    }

    /// Load imbalance: max worker busy time over mean worker busy time
    /// (1.0 = perfectly balanced). The paper's heterogeneous partitioning
    /// claim is that this stays near 1.
    pub fn imbalance(&self) -> f64 {
        if self.worker_times.is_empty() {
            return 1.0;
        }
        let max = self.makespan.as_secs_f64();
        let mean = self
            .worker_times
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>()
            / self.worker_times.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Fraction of workers that did any work — the paper's
    /// computing-resource-utilization concern (Section V-A).
    pub fn worker_utilization(&self) -> f64 {
        if self.worker_times.is_empty() {
            return 0.0;
        }
        self.worker_times.iter().filter(|t| **t > Duration::ZERO).count() as f64
            / self.worker_times.len() as f64
    }
}

/// Order statistics over a set of measured call latencies — the reporting
/// unit for mixed read/write serving workloads (`repose-service`): counts
/// alone hide tail behaviour, so QPS is always paired with p50/p95/p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (50th percentile).
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes `samples` (order irrelevant). Percentiles use the
    /// nearest-rank method; an empty sample set yields all-zero stats.
    pub fn from_durations(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                mean: Duration::ZERO,
                p50: Duration::ZERO,
                p95: Duration::ZERO,
                p99: Duration::ZERO,
                max: Duration::ZERO,
            };
        }
        samples.sort_unstable();
        let n = samples.len();
        let pick = |q: f64| -> Duration {
            // Nearest-rank: smallest sample with cumulative share >= q.
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            samples[rank - 1]
        };
        let total: Duration = samples.iter().sum();
        LatencySummary {
            count: n,
            mean: total / n as u32,
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: samples[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn list_schedule_single_core_sums() {
        assert_eq!(list_schedule(&[ms(2), ms(3), ms(5)], 1), ms(10));
    }

    #[test]
    fn list_schedule_parallel() {
        // 4 tasks of 1ms on 4 cores = 1ms
        assert_eq!(list_schedule(&[ms(1); 4], 4), ms(1));
        // 5 tasks of 1ms on 4 cores = 2ms
        assert_eq!(list_schedule(&[ms(1); 5], 4), ms(2));
    }

    #[test]
    fn list_schedule_in_order_dispatch() {
        // In-order dispatch: [4,1,1,1,1] on 2 cores ->
        // core0: 4; core1: 1+1+1+1 = 4 -> makespan 4
        assert_eq!(list_schedule(&[ms(4), ms(1), ms(1), ms(1), ms(1)], 2), ms(4));
        // but [1,1,1,1,4]: core0: 1+1+4=6? dispatch: t0->c0(1), t1->c1(1),
        // t2->c0(2), t3->c1(2), t4->c0(6) -> makespan 6
        assert_eq!(list_schedule(&[ms(1), ms(1), ms(1), ms(1), ms(4)], 2), ms(6));
    }

    #[test]
    fn empty_schedule() {
        assert_eq!(list_schedule(&[], 8), Duration::ZERO);
    }

    #[test]
    fn simulate_balanced_vs_skewed() {
        // 8 partitions on 2 workers x 2 cores, round-robin assignment
        let balanced = JobStats::simulate(
            vec![ms(10); 8],
            (0..8).map(|i| i % 2).collect(),
            2,
            2,
            ms(1),
        );
        assert_eq!(balanced.makespan, ms(20));
        assert!((balanced.imbalance() - 1.0).abs() < 1e-9);
        assert_eq!(balanced.worker_utilization(), 1.0);

        // all heavy partitions on worker 0
        let skewed = JobStats::simulate(
            vec![ms(10), ms(10), ms(10), ms(10), ms(0), ms(0), ms(0), ms(0)],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
            2,
            2,
            ms(1),
        );
        assert_eq!(skewed.makespan, ms(20));
        assert!(skewed.imbalance() > 1.9);
    }

    #[test]
    fn utilization_counts_idle_workers() {
        let s = JobStats::simulate(vec![ms(5), ms(5)], vec![0, 0], 4, 1, ms(1));
        assert_eq!(s.worker_utilization(), 0.25);
        assert_eq!(s.total_work, ms(10));
    }

    #[test]
    fn latency_summary_order_statistics() {
        // 1..=100 ms: nearest-rank percentiles are exact.
        let samples: Vec<Duration> = (1..=100).rev().map(ms).collect();
        let s = LatencySummary::from_durations(samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, ms(50));
        assert_eq!(s.p95, ms(95));
        assert_eq!(s.p99, ms(99));
        assert_eq!(s.max, ms(100));
        assert_eq!(s.mean, ms(50) + Duration::from_micros(500));
    }

    #[test]
    fn latency_summary_small_and_empty() {
        let empty = LatencySummary::from_durations(Vec::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, Duration::ZERO);
        let one = LatencySummary::from_durations(vec![ms(7)]);
        assert_eq!((one.p50, one.p95, one.p99, one.max), (ms(7), ms(7), ms(7), ms(7)));
    }

    #[test]
    fn empty_job_stats() {
        let s = JobStats::simulate(vec![], vec![], 4, 2, ms(0));
        assert_eq!(s.makespan, Duration::ZERO);
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.worker_utilization(), 0.0);
    }

    proptest::proptest! {
        #[test]
        fn schedule_invariants(
            durs in proptest::collection::vec(0u64..100, 0..40),
            cores in 1usize..8,
            workers in 1usize..8,
        ) {
            let durations: Vec<Duration> = durs.iter().map(|&d| ms(d)).collect();
            // list_schedule is bounded below by the longest task and the
            // mean load, and above by the serial sum.
            let span = list_schedule(&durations, cores);
            let total: Duration = durations.iter().sum();
            let longest = durations.iter().copied().max().unwrap_or(Duration::ZERO);
            proptest::prop_assert!(span <= total);
            proptest::prop_assert!(span >= longest);
            proptest::prop_assert!(span.as_secs_f64() >= total.as_secs_f64() / cores as f64 - 1e-9);

            // JobStats invariants with round-robin assignment.
            let assignment: Vec<usize> = (0..durations.len()).map(|i| i % workers).collect();
            let s = JobStats::simulate(durations.clone(), assignment, workers, cores, ms(1));
            proptest::prop_assert!(s.makespan >= longest);
            proptest::prop_assert!(s.makespan <= total);
            proptest::prop_assert!(s.imbalance() >= 1.0 - 1e-9);
            proptest::prop_assert!(s.worker_utilization() <= 1.0);
        }
    }
}
