//! The one build front every experiment goes through: load a dataset,
//! build an algorithm on the paper's parameters for it, time a query
//! batch, report the three Table IV metrics.

use repose::{Repose, ReposeConfig};
use repose_baselines::{BaselinePlacement, Dft, DftConfig, Dita, DitaConfig, LinearScan};
use repose_cluster::ClusterConfig;
use repose_datagen::{sample_queries, PaperDataset};
use repose_distance::{Measure, MeasureParams};
use repose_model::{Dataset, Trajectory};

/// The algorithms of Table IV and Figs. 6, 8 and 9, in table order.
pub const ALGOS: [&str; 4] = ["REPOSE", "DITA", "DFT", "LS"];

/// The datasets of the paper's parameter and variant studies (Tables
/// V–IX, Fig. 6).
pub const STUDY_DATASETS: [PaperDataset; 3] =
    [PaperDataset::TDrive, PaperDataset::Xian, PaperDataset::Osm];

/// Shared experiment knobs.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale factor (1.0 = the datagen base sizes).
    pub scale: f64,
    /// Queries per measurement (paper: 100; default here: 5).
    pub queries: usize,
    /// Top-k (paper default 100).
    pub k: usize,
    /// Number of partitions (paper default 64).
    pub partitions: usize,
    /// Simulated cluster.
    pub cluster: ClusterConfig,
    /// RNG seed.
    pub seed: u64,
    /// Seeds to soak in the `sim` experiment, starting at `seed`.
    pub sim_seeds: usize,
    /// Repro file for the `sim` experiment: replay this shrunk schedule
    /// instead of generating scenarios from seeds.
    pub sim_repro: Option<String>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1.0,
            queries: 5,
            k: 100,
            partitions: 64,
            cluster: ClusterConfig::paper_default(),
            seed: 0xE5E5,
            sim_seeds: 50,
            sim_repro: None,
        }
    }
}

impl ExpConfig {
    /// The defaults overridden by the `experiments` binary's flags (every
    /// argument after the experiment name), each a `--flag value` pair.
    pub fn from_args(args: &[String]) -> Result<ExpConfig, String> {
        fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| format!("{flag}: cannot parse {value:?}"))
        }
        let mut cfg = ExpConfig::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => cfg.scale = parse(flag, value()?)?,
                "--queries" => cfg.queries = parse(flag, value()?)?,
                "--k" => cfg.k = parse(flag, value()?)?,
                "--partitions" => cfg.partitions = parse(flag, value()?)?,
                "--seed" => cfg.seed = parse(flag, value()?)?,
                "--seeds" => cfg.sim_seeds = parse(flag, value()?)?,
                "--repro" => cfg.sim_repro = Some(value()?.clone()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(cfg)
    }

    /// The REPOSE deployment over `ds` under `measure`: this experiment's
    /// cluster, partitions and seed, with the paper's δ and measure
    /// parameters ([`params_for`]) for the dataset. Tables V–VII and
    /// Fig. 7 override one knob of it.
    pub fn repose_config(&self, ds: PaperDataset, measure: Measure) -> ReposeConfig {
        ReposeConfig::new(measure)
            .with_cluster(self.cluster)
            .with_partitions(self.partitions)
            .with_delta(ds.paper_delta(measure))
            .with_params(params_for(ds, measure))
            .with_seed(self.seed)
    }
}

/// A built algorithm instance, for sweeps that reuse one index across many
/// queries/k values.
pub enum Algo {
    /// REPOSE deployment.
    Repose(Repose),
    /// DITA baseline.
    Dita(Dita),
    /// DFT baseline.
    Dft(Dft),
    /// Linear scan.
    Ls(LinearScan),
}

impl Algo {
    /// Mean simulated distributed query time (seconds, the paper's QT) over
    /// a batch. REPOSE answers through [`Repose::query`], the
    /// shared-threshold path that ships.
    pub fn batch_secs(&self, queries: &[Trajectory], k: usize) -> f64 {
        if queries.is_empty() {
            return 0.0;
        }
        let total: f64 = queries
            .iter()
            .map(|q| {
                let q = &q.points;
                let qt = match self {
                    Algo::Repose(r) => r.query(q, k).query_time(),
                    Algo::Dita(d) => d.query(q, k).job.makespan,
                    Algo::Dft(d) => d.query(q, k).job.makespan,
                    Algo::Ls(l) => l.query(q, k).job.makespan,
                };
                qt.as_secs_f64()
            })
            .sum();
        total / queries.len() as f64
    }

    /// Index bytes and construction seconds (the paper's IS and IT);
    /// `None` for the index-free linear scan, where the paper prints "/".
    pub fn index_cost(&self) -> Option<(u64, f64)> {
        let (bytes, time) = match self {
            Algo::Repose(r) => (r.index_bytes(), r.index_time()),
            Algo::Dita(d) => (d.index_bytes(), d.index_time()),
            Algo::Dft(d) => (d.index_bytes(), d.index_time()),
            Algo::Ls(_) => return None,
        };
        Some((bytes as u64, time.as_secs_f64()))
    }
}

/// Builds one algorithm over `ds`'s `data` with the paper's parameters for
/// `ds` under `measure`; `placement` places a baseline's partitions.
/// `None` when the measure is unsupported (DITA×Hausdorff,
/// DFT×{LCSS,EDR,ERP}).
pub fn build_algo(
    name: &str,
    data: &Dataset,
    ds: PaperDataset,
    measure: Measure,
    placement: BaselinePlacement,
    exp: &ExpConfig,
) -> Option<Algo> {
    let params = params_for(ds, measure);
    match name {
        "REPOSE" => Some(Algo::Repose(Repose::build(data, exp.repose_config(ds, measure)))),
        "DITA" => Dita::supports(measure).then(|| {
            let (cluster, num_partitions) = (exp.cluster, exp.partitions);
            let paper = DitaConfig::paper_default();
            let cfg = DitaConfig { cluster, num_partitions, placement, ..paper };
            Algo::Dita(Dita::build(data, cfg, measure, params))
        }),
        "DFT" => matches!(measure, Measure::Hausdorff | Measure::Frechet | Measure::Dtw).then(|| {
            let (cluster, num_partitions, seed) = (exp.cluster, exp.partitions, exp.seed);
            let paper = DftConfig::paper_default();
            let cfg = DftConfig { cluster, num_partitions, placement, seed, ..paper };
            Algo::Dft(Dft::build(data, cfg, measure, params))
        }),
        "LS" => {
            let ls = LinearScan::build(data, exp.cluster, exp.partitions, measure, params);
            Some(Algo::Ls(ls))
        }
        other => panic!("unknown algorithm {other}"),
    }
}

/// Generates a dataset + its query batch for an experiment.
pub fn load(ds: PaperDataset, exp: &ExpConfig) -> (Dataset, Vec<Trajectory>) {
    let data = ds.generate(exp.scale, exp.seed);
    let queries = sample_queries(&data, exp.queries, exp.seed ^ 0xABCD);
    (data, queries)
}

/// Measure parameters used throughout the experiments: ε tied to the
/// dataset's grid cell (like the paper ties δ to the dataset).
pub fn params_for(ds: PaperDataset, measure: Measure) -> MeasureParams {
    MeasureParams::with_eps(ds.paper_delta(measure))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A config whose every experiment finishes in well under a second.
    pub(crate) fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.02,
            queries: 2,
            k: 5,
            partitions: 4,
            cluster: ClusterConfig { workers: 2, cores_per_worker: 2 },
            seed: 1,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn from_args_parses_flags_and_rejects_bad_input() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cfg = ExpConfig::from_args(&args("--scale 0.5 --k 7 --seed 3 --repro r.json"))
            .expect("valid flags");
        assert_eq!((cfg.scale, cfg.k, cfg.seed), (0.5, 7, 3));
        assert_eq!(cfg.sim_repro.as_deref(), Some("r.json"));
        assert_eq!(cfg.queries, ExpConfig::default().queries);

        assert_eq!(
            ExpConfig::from_args(&args("--queries 2 --scale")).unwrap_err(),
            "--scale needs a value"
        );
        assert_eq!(
            ExpConfig::from_args(&args("--readers 4")).unwrap_err(),
            "unknown flag --readers"
        );
        assert_eq!(
            ExpConfig::from_args(&args("--partitions four")).unwrap_err(),
            "--partitions: cannot parse \"four\""
        );
    }

    #[test]
    fn all_runners_produce_measurements() {
        let exp = tiny();
        let ds = PaperDataset::TDrive;
        let (data, queries) = load(ds, &exp);
        for name in ALGOS {
            let placement = BaselinePlacement::Homogeneous;
            let algo = build_algo(name, &data, ds, Measure::Frechet, placement, &exp)
                .expect("every algorithm supports Frechet");
            assert!(algo.batch_secs(&queries, exp.k) > 0.0, "{name}");
            match algo.index_cost() {
                Some((bytes, secs)) => assert!(bytes > 0 && secs >= 0.0, "{name}"),
                None => assert_eq!(name, "LS"),
            }
        }
    }
}
