use crate::PartitionStrategy;
use repose_cluster::ClusterConfig;
use repose_distance::{Measure, MeasureParams};
use repose_rptrie::RpTrieConfig;

/// Configuration of a REPOSE deployment.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReposeConfig {
    /// Simulated cluster topology (paper: 16 workers × 4 cores).
    pub cluster: ClusterConfig,
    /// Number of data partitions of the whole deployment (paper default:
    /// 64, one per core). A sharded deployment splits the count across its
    /// shards: each shard node builds `num_partitions.div_ceil(shards)`.
    pub num_partitions: usize,
    /// Global partitioning strategy (paper: heterogeneous).
    pub strategy: PartitionStrategy,
    /// Grid cell side `δ` (per-dataset tuning in Section VII-A).
    pub delta: f64,
    /// Local RP-Trie configuration (measure, `Np`, optimization, ...).
    pub trie: RpTrieConfig,
    /// Seed for partitioning and pivot sampling.
    pub seed: u64,
}

impl ReposeConfig {
    /// The paper's defaults for a measure: 16×4 cluster, 64 partitions,
    /// heterogeneous partitioning, `Np = 5`.
    pub fn new(measure: Measure) -> Self {
        ReposeConfig {
            cluster: ClusterConfig::paper_default(),
            num_partitions: ClusterConfig::paper_default().total_cores(),
            strategy: PartitionStrategy::Heterogeneous,
            delta: 0.05,
            trie: RpTrieConfig::for_measure(measure),
            seed: 0xC0FFEE,
        }
    }

    /// Overrides the cluster topology (keeps `num_partitions`).
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Overrides the number of partitions.
    pub fn with_partitions(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one partition");
        self.num_partitions = n;
        self
    }

    /// Overrides the partitioning strategy.
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the grid cell side.
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        self.delta = delta;
        self
    }

    /// Overrides the measure parameters (LCSS/EDR `ε`, ERP gap).
    pub fn with_params(mut self, params: MeasureParams) -> Self {
        self.trie = self.trie.with_params(params);
        self
    }

    /// Overrides the trie configuration wholesale.
    pub fn with_trie(mut self, trie: RpTrieConfig) -> Self {
        self.trie = trie;
        self
    }

    /// Overrides the number of pivots.
    pub fn with_np(mut self, np: usize) -> Self {
        self.trie = self.trie.with_np(np);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured measure.
    pub fn measure(&self) -> Measure {
        self.trie.measure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ReposeConfig::new(Measure::Hausdorff);
        assert_eq!(c.cluster.workers, 16);
        assert_eq!(c.num_partitions, 64);
        assert_eq!(c.strategy, PartitionStrategy::Heterogeneous);
        assert_eq!(c.trie.np, 5);
        assert_eq!(c.measure(), Measure::Hausdorff);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        ReposeConfig::new(Measure::Dtw).with_partitions(0);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn non_positive_delta_rejected() {
        ReposeConfig::new(Measure::Dtw).with_delta(0.0);
    }
}
