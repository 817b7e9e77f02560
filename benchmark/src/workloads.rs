//! What the four workloads share: run parameters, generated inputs, the
//! repeated set-up, the brute-force correctness gate and the closed-loop
//! window.

pub mod batch_dtw;
pub mod serve_mixed;
pub mod shard_scatter;
pub mod single_hausdorff;

use crate::host::{self, HostSpeed};
use crate::stats::{median, rate_per_s, Latencies, SplitMix64};
use crate::sut::{self, Dataset, Hit, Measure, Point, TrajId, Trajectory};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 4] = [
    "single_hausdorff",
    "batch_dtw",
    "serve_mixed",
    "shard_scatter",
];

/// Queries checked against brute force before (and, where writes happen,
/// after) the timed window.
pub const VALIDATION_QUERIES: usize = 16;
/// Requests of the traced pass (and of its untraced twin).
pub const TRACED_REQUESTS: usize = 500;
/// Ids of written trajectories start here, clear of every generated id.
pub const WRITE_ID_BASE: TrajId = 1_000_000_000;

/// One run's parameters. Only `seed` varies between the driver's runs.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    pub warmup: Duration,
    /// Dataset scale: 50.0 = 120,000 trajectories.
    pub scale: f64,
    /// How many times the set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    pub trace: bool,
    /// Scratch and span files go here (inside the checkout).
    pub out_dir: PathBuf,
}

/// What one workload run hands back to `main`.
#[derive(Debug)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub metrics: Vec<(String, f64)>,
    /// Sample counts, workload-specific extras and notes for the `all`
    /// document; not part of the driver contract.
    pub detail: Value,
}

/// The inputs every workload derives from `--seed`. The system under test
/// sees these, never the seed.
#[derive(Debug)]
pub struct Inputs {
    pub data: Dataset,
    /// Distinct query trajectories, shuffled.
    pub queries: Vec<Trajectory>,
    pub validation: Vec<Trajectory>,
}

const QUERY_STREAM: usize = 16_384;

/// The dataset is the same on every run; `--seed` picks the queries, their
/// order and the writes. A per-seed dataset moves the generator's 40
/// hotspots, and with them the index size (4.7 to 6.6 bytes a point over
/// ten seeds) and every latency, by more than any bound could absorb; the
/// regression gate needs runs that differ only in what is asked.
pub const DATASET_SEED: u64 = 42;

impl Inputs {
    pub fn generate(scale: f64, seed: u64) -> Inputs {
        let data = sut::generate(scale, DATASET_SEED);
        let mut rng = SplitMix64::new(seed ^ 0x5155_4552);
        // `sample_queries` returns dataset order; shuffle so the stream
        // does not walk the generator's id order.
        let mut queries = sut::sample_queries(&data, QUERY_STREAM, rng.next_u64());
        for i in (1..queries.len()).rev() {
            queries.swap(i, rng.below(i + 1));
        }
        let validation = sut::sample_queries(&data, VALIDATION_QUERIES, rng.next_u64());
        Inputs {
            data,
            queries,
            validation,
        }
    }

    /// Trajectories to write: a second, independent `generate` call,
    /// re-id'd above every generated id.
    pub fn write_pool(scale: f64, seed: u64) -> Vec<Trajectory> {
        let mut pool =
            sut::generate(scale, (DATASET_SEED ^ seed).wrapping_add(1)).into_trajectories();
        for (i, t) in pool.iter_mut().enumerate() {
            t.id = WRITE_ID_BASE + i as TrajId;
        }
        pool
    }
}

/// What `single_hausdorff` and `batch_dtw` set up: the generated inputs
/// behind a volatile service with the result cache off and the default
/// pool.
pub struct QueryService {
    pub inputs: Inputs,
    pub service: sut::ReposeService,
    pub index_bytes: usize,
}

impl QueryService {
    pub fn set_up(p: &Params, measure: Measure) -> QueryService {
        let inputs = Inputs::generate(p.scale, p.seed);
        let repose = sut::build(&inputs.data, measure);
        let index_bytes = sut::index_bytes(&repose);
        let config = sut::service_config(0, sut::default_pool_threads(), None);
        QueryService {
            inputs,
            service: sut::start_service(repose, config),
            index_bytes,
        }
    }
}

/// Runs `set_up` `reps` times, dropping each system before building the
/// next, and returns the last one with the wall-clock seconds each took.
pub fn timed_setups<S>(reps: usize, mut set_up: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut raw_s = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(set_up());
        raw_s.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), raw_s)
}

/// The live set a correct answer is computed over: the generated dataset
/// with the acknowledged writes laid over it.
#[derive(Debug, Default)]
pub struct Shadow {
    /// `Some` = upserted points, `None` = deleted.
    pub overlay: HashMap<TrajId, Option<Vec<Point>>>,
}

impl Shadow {
    pub fn upsert(&mut self, t: &Trajectory) {
        self.overlay.insert(t.id, Some(t.points.clone()));
    }

    pub fn delete(&mut self, id: TrajId) {
        self.overlay.insert(id, None);
    }

    fn live<'a>(&'a self, data: &'a Dataset) -> impl Iterator<Item = &'a [Point]> + 'a {
        data.trajectories()
            .iter()
            .filter(|t| !self.overlay.contains_key(&t.id))
            .map(|t| t.points.as_slice())
            .chain(self.overlay.values().flatten().map(Vec::as_slice))
    }

    /// The exact top-k distances of `query` by full scan, ascending, as
    /// bit patterns.
    fn brute_force(&self, data: &Dataset, measure: Measure, query: &[Point]) -> Vec<u64> {
        let mut dists: Vec<f64> = self
            .live(data)
            .map(|t| sut::distance(measure, query, t))
            .collect();
        dists.sort_by(f64::total_cmp);
        dists.truncate(sut::K);
        dists.into_iter().map(f64::to_bits).collect()
    }
}

/// The sorted distance multiset of an answer, as bit patterns — the
/// repo's exactness contract (tied ids may resolve either way).
pub fn dist_bits(hits: &[Hit]) -> Vec<u64> {
    let mut d: Vec<f64> = hits.iter().map(|h| h.dist).collect();
    d.sort_by(f64::total_cmp);
    d.into_iter().map(f64::to_bits).collect()
}

/// The correctness gate: every validation query's answer must equal the
/// brute-force scan of the live shadow set bit for bit. `answer` returns
/// `None` for an errored or degraded reply. Returns the mismatches.
pub fn validate(
    data: &Dataset,
    shadow: &Shadow,
    measure: Measure,
    queries: &[Trajectory],
    mut answer: impl FnMut(&[Point]) -> Option<Vec<Hit>>,
) -> usize {
    let got: Vec<Option<Vec<u64>>> = queries
        .iter()
        .map(|q| answer(&q.points).map(|h| dist_bits(&h)))
        .collect();
    // The scans are the expensive half; nothing is being timed, so use
    // every core.
    let threads = sut::default_pool_threads().clamp(1, queries.len().max(1));
    let chunk = queries.len().div_ceil(threads).max(1);
    let expected: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                s.spawn(move || {
                    qs.iter()
                        .map(|q| shadow.brute_force(data, measure, &q.points))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("validation scan panicked"))
            .collect()
    });
    got.iter()
        .zip(&expected)
        .filter(|(g, e)| g.as_ref() != Some(*e))
        .count()
}

/// The cheap per-reply check of the timed window (a full scan per reply
/// would be the workload): a full, ascending top-k.
pub fn plausible(hits: &[Hit]) -> bool {
    hits.len() == sut::K && hits.windows(2).all(|w| w[0].dist <= w[1].dist)
}

/// What one operation of a closed loop did.
pub enum Done {
    /// A query call that answered this many queries.
    Queries(usize),
    /// Something else that succeeded (a write); it takes the client's time
    /// but is no query latency.
    Other,
    /// It failed: counted, and no latency worth reporting.
    Failed,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Queries answered (a batch call answers several).
    pub queries: usize,
}

/// One closed-loop client's window.
#[derive(Debug)]
pub struct Measured {
    /// Query-call latencies at reference host speed: the gated ones.
    pub latency: Latencies,
    /// The same calls as the wall clock read them.
    pub raw_latency: Latencies,
    pub tally: Tally,
    /// Wall-clock length of the window actually run.
    pub elapsed: Duration,
    /// Time spent inside operations, at reference host speed.
    pub busy: Duration,
    /// Median host slowdown factor while it ran.
    pub host_factor: f64,
}

/// One closed-loop client: issues `op` back to back until `window` of wall
/// clock has passed, timing every call and gauging the host between calls
/// (see [`crate::host`]).
pub fn closed_loop(window: Duration, mut op: impl FnMut() -> Done) -> Measured {
    let mut m = Measured {
        latency: Latencies::default(),
        raw_latency: Latencies::default(),
        tally: Tally::default(),
        elapsed: Duration::ZERO,
        busy: Duration::ZERO,
        host_factor: 1.0,
    };
    let mut speed = HostSpeed::new();
    let start = Instant::now();
    loop {
        let factor = speed.factor();
        let t0 = Instant::now();
        m.elapsed = t0.duration_since(start);
        if m.elapsed >= window {
            m.host_factor = speed.median_factor();
            return m;
        }
        let done = op();
        let raw = t0.elapsed();
        let dt = host::at_reference_speed(raw, factor);
        m.tally.attempted += 1;
        m.busy += dt;
        match done {
            Done::Queries(n) => {
                m.latency.push(dt);
                m.raw_latency.push(raw);
                m.tally.queries += n;
            }
            Done::Other => {}
            Done::Failed => m.tally.failed += 1,
        }
    }
}

pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh scratch directory under `out_dir`, removed by [`Scratch::drop`].
#[derive(Debug)]
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(out_dir: &std::path::Path, label: &str) -> Scratch {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir.join(format!("tmp-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The six end-to-end metrics, in `BENCHMARK.json` order, from a
/// workload's set-up time, its timed window and its index size.
pub struct EndToEnd<'a> {
    /// Wall-clock seconds of each set-up repetition.
    pub setup_raw_s: &'a [f64],
    pub window: &'a Measured,
    pub index_bytes: usize,
    pub points: usize,
}

impl EndToEnd<'_> {
    /// The metric list, plus the sample counts and the raw wall-clock
    /// readings that go in the detail.
    pub fn finish(&self) -> (Vec<(String, f64)>, Value) {
        let w = self.window;
        let s = w
            .latency
            .summary()
            .expect("a window with no completed call");
        let raw = w.raw_latency.summary().expect("as many raw samples");
        let metrics = vec![
            // A set-up is too short and too parallel to gauge the host
            // beside it; the window that follows it is the nearest steady
            // reading of the host's speed.
            (
                "setup_s".to_string(),
                median(self.setup_raw_s) / w.host_factor,
            ),
            ("query_p50_ms".to_string(), ms(s.p50_ns)),
            ("query_p95_ms".to_string(), ms(s.p95_ns)),
            (
                "queries_per_s".to_string(),
                rate_per_s(w.tally.queries, w.busy),
            ),
            ("peak_rss_mb".to_string(), peak_rss_mb()),
            (
                "index_bytes_per_point".to_string(),
                self.index_bytes as f64 / self.points as f64,
            ),
        ];
        let samples = json!({
            "latency_samples": s.samples,
            "samples_beyond_p95": s.beyond_p95,
            "supported_tail_percentile": s.tail.map(|t| t.0),
            "supported_tail_ms": s.tail.map(|t| ms(t.1)),
            "queries": w.tally.queries,
            "window_s": w.elapsed.as_secs_f64(),
            "host_factor": w.host_factor,
            "raw_query_p50_ms": ms(raw.p50_ns),
            "raw_query_p95_ms": ms(raw.p95_ns),
            "raw_queries_per_s": rate_per_s(w.tally.queries, w.elapsed),
            "raw_setup_s": self.setup_raw_s,
        });
        (metrics, samples)
    }
}

pub fn total_points(data: &Dataset) -> usize {
    data.trajectories().iter().map(Trajectory::len).sum()
}
