//! The per-layer half of a traced run: the replays the traced passes share,
//! and the probe suite that times each layer from outside, one crate at a
//! time, on the same 120k-trajectory inputs as the workloads.
//!
//! Every probe calls public functions through `sut` and reads the outcome
//! structs they already return. Each metric's doc line in
//! `benchmark/README.md` ends with the end-to-end metric it should move.

use crate::stats::{median, Latencies, SplitMix64};
use crate::sut::{
    self, Dataset, FsyncPolicy, Hit, Measure, Point, Repose, ReposeService, SearchStats, Trajectory,
};
use crate::trace::{self, Tracer};
use crate::workloads::{
    shard_scatter, Inputs, Params, RunOutput, Scratch, DATASET_SEED, VALIDATION_QUERIES,
    WRITE_ID_BASE,
};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

/// Candidates per request the traced passes push through
/// `distance_within`.
const TRACE_CANDIDATES: usize = 128;
/// Candidates per query of the `distance.*` probes, over four queries.
const PROBE_CANDIDATES: usize = 1_024;
const PROBE_CANDIDATE_QUERIES: usize = 4;

/// A deployment a traced workload already built, with its build time.
pub struct Prebuilt {
    pub measure: Measure,
    pub repose: Repose,
    pub build_s: f64,
}

pub fn count_search(t: &mut Tracer, s: &SearchStats) {
    t.count("nodes_visited", s.nodes_visited as u64);
    t.count("exact", s.exact_computations as u64);
    t.count("abandoned", s.exact_abandoned as u64);
}

/// Replays one answered query below the service: the same query through
/// `Repose::query` on the twin deployment, then partition by partition
/// through `RpTrie::top_k`, then down to the kernels. Call it inside a
/// `replay` span.
pub fn replay_below_service(
    t: &mut Tracer,
    rid: u64,
    twin: &Repose,
    measure: Measure,
    query: &[Point],
    kth: f64,
    data: &Dataset,
) {
    t.span("core.query", rid, |t| {
        let out = sut::core_query(twin, query);
        count_search(t, &out.search);
    });
    for partition in 0..sut::PARTITIONS {
        t.span("rptrie.top_k", rid, |t| {
            let r = sut::partition_top_k(twin, partition, query);
            count_search(t, &r.stats);
        });
    }
    replay_distance(t, rid, measure, query, kth, data);
}

/// The kernel layer of a replay: `distance_within` over a fixed sample of
/// candidates, under the answer's own k-th distance.
pub fn replay_distance(
    t: &mut Tracer,
    rid: u64,
    measure: Measure,
    query: &[Point],
    kth: f64,
    data: &Dataset,
) {
    let trajs = data.trajectories();
    t.span("distance.within", rid, |t| {
        let mut rng = SplitMix64::new(rid);
        let mut abandoned = 0u64;
        for _ in 0..TRACE_CANDIDATES {
            let c = &trajs[rng.below(trajs.len())].points;
            abandoned += u64::from(sut::distance_within(measure, query, c, kth).is_none());
        }
        t.count("pairs", TRACE_CANDIDATES as u64);
        t.count("abandoned", abandoned);
    });
}

/// Ends a traced run: writes the span file, derives the `trace.*` metrics,
/// runs the probe suite, and assembles the output.
#[allow(clippy::too_many_arguments)]
pub fn finish_traced(
    p: &Params,
    workload: &str,
    tracer: &Tracer,
    untraced: &Latencies,
    traced: &Latencies,
    inputs: Inputs,
    prebuilt: Vec<Prebuilt>,
    mismatches: usize,
    failed: u64,
) -> RunOutput {
    let spans = tracer.spans();
    let path = p.out_dir.join(format!("trace-{workload}.json"));
    let text = serde_json::to_string(&trace::to_json(workload, spans)).expect("span file");
    std::fs::write(&path, text).expect("span file inside the checkout");

    let summary = trace::summarize(spans);
    let mut metrics = vec![
        (
            "trace.overhead_share".to_string(),
            traced.p50_ns() / untraced.p50_ns() - 1.0,
        ),
        (
            "trace.spans_per_request".to_string(),
            summary.spans as f64 / summary.requests.max(1) as f64,
        ),
        (
            "trace.root_us".to_string(),
            summary.root_ns as f64 / 1e3 / summary.requests.max(1) as f64,
        ),
        (
            "trace.self_sum_vs_root".to_string(),
            summary.self_sum_ns() as f64 / summary.root_ns.max(1) as f64,
        ),
    ];
    for layer in TRACE_LAYERS {
        metrics.push((
            format!("trace.self_us.{layer}"),
            summary.self_us_per_request(layer),
        ));
    }

    let mut suite = Suite::new(p, inputs, prebuilt);
    suite.run();
    metrics.extend(suite.metrics);

    let requests = untraced.len() as u64 + summary.requests as u64;
    let mut counts = serde_json::Map::new();
    for (name, v) in &summary.counts {
        counts.insert(name.clone(), json!(*v));
    }
    RunOutput {
        correct: mismatches == 0 && failed == 0 && suite.failures.is_empty(),
        attempted: requests + VALIDATION_QUERIES as u64,
        failed: failed + mismatches as u64 + suite.failures.len() as u64,
        metrics,
        detail: json!({
            "span_file": format!("benchmark/out/trace-{workload}.json"),
            "trace": json!({
                "requests": summary.requests,
                "spans": summary.spans,
                "untraced_p50_us": untraced.p50_ns() / 1e3,
                "traced_p50_us": traced.p50_ns() / 1e3,
                "counts": serde_json::Value::Object(counts),
            }),
            "probe_failures": suite.failures,
            "validation_mismatches": mismatches,
        }),
    }
}

/// Layers a span can belong to; `request` and `replay` are the harness's
/// own brackets.
pub const TRACE_LAYERS: [&str; 8] = [
    "request",
    "replay",
    "service",
    "core",
    "rptrie",
    "distance",
    "durability",
    "shard",
];

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The probe suite. Metrics are pushed in the order of `BENCHMARK.json`'s
/// `per_layer` list; `main` checks the two agree.
struct Suite<'a> {
    p: &'a Params,
    inputs: Inputs,
    prebuilt: Vec<Prebuilt>,
    metrics: Vec<(String, f64)>,
    failures: Vec<String>,
}

/// Queries of the service and shard probes (the same ones, so the two
/// compare).
const SERVICE_PROBE_QUERIES: usize = 200;

/// Single-node figures for the shard probes' queries: the pooled service's
/// miss p50, and the sequential service's exact computations (summed; the
/// shard leaders run sequentially too, so the counts compare).
struct SingleNode {
    pooled_p50_us: f64,
    exact_computations: usize,
}

/// What the sweep hands on to the later probes.
struct SweepOut {
    hausdorff: Repose,
    hausdorff_build_s: f64,
}

impl<'a> Suite<'a> {
    fn new(p: &'a Params, inputs: Inputs, prebuilt: Vec<Prebuilt>) -> Self {
        Suite {
            p,
            inputs,
            prebuilt,
            metrics: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn run(&mut self) {
        self.datagen();
        let sweep = self.sweep();
        self.cluster();
        let attached = self.archive(&sweep);
        self.durability();
        let single = self.service(sweep.hausdorff, attached);
        self.shard(single);
    }

    fn datagen(&mut self) {
        let scale = self.p.scale;
        let s = secs(|| {
            black_box(sut::generate(scale, DATASET_SEED));
        });
        self.put("datagen.generate_s", s);
    }

    /// `distance.*`, `rptrie.*` and `core.*`: one deployment per measure,
    /// built, probed and dropped in turn. Hausdorff's is kept for the
    /// service and archive probes.
    fn sweep(&mut self) -> SweepOut {
        let mut kept: Option<(Repose, f64)> = None;
        for measure in sut::MEASURES {
            let key = sut::measure_key(measure);
            let pre = self.prebuilt.iter().position(|b| b.measure == measure);
            let (repose, build_s) = match pre {
                Some(i) => {
                    let b = self.prebuilt.swap_remove(i);
                    (b.repose, b.build_s)
                }
                None => {
                    let t0 = Instant::now();
                    let r = sut::build(&self.inputs.data, measure);
                    (r, t0.elapsed().as_secs_f64())
                }
            };

            // EDR and LCSS pop ~10^6 trie nodes per query: four queries
            // there, sixteen elsewhere.
            let n = if matches!(measure, Measure::Edr | Measure::Lcss) {
                4
            } else {
                16
            };
            let queries: Vec<Trajectory> = self.inputs.queries.iter().take(n).cloned().collect();

            let mut core_us = Vec::with_capacity(n);
            let mut kth = Vec::with_capacity(n);
            for q in &queries {
                let t0 = Instant::now();
                let out = sut::core_query(&repose, &q.points);
                core_us.push(t0.elapsed().as_secs_f64() * 1e6);
                kth.push(out.hits.last().map_or(f64::INFINITY, |h| h.dist));
            }

            let mut top_k_us = Vec::with_capacity(n);
            let mut total = SearchStats::default();
            for q in &queries {
                let t0 = Instant::now();
                for partition in 0..sut::PARTITIONS {
                    total.merge(&sut::partition_top_k(&repose, partition, &q.points).stats);
                }
                top_k_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let bounds_evaluated = total.nodes_visited
                + total.nodes_pruned
                + total.leaves_visited
                + total.leaves_pruned;

            self.distance(measure, &queries, &kth);
            self.put(format!("rptrie.top_k_us.{key}"), mean(&top_k_us));
            self.put(
                format!("rptrie.nodes_visited_per_query.{key}"),
                total.nodes_visited as f64 / n as f64,
            );
            self.put(
                format!("rptrie.exact_per_query.{key}"),
                total.exact_computations as f64 / n as f64,
            );
            self.put(
                format!("rptrie.abandoned_share.{key}"),
                ratio(
                    total.exact_abandoned as f64,
                    total.exact_computations as f64,
                ),
            );
            self.put(
                format!("rptrie.pruned_share.{key}"),
                ratio(
                    (total.nodes_pruned + total.leaves_pruned) as f64,
                    bounds_evaluated as f64,
                ),
            );
            self.put(format!("core.query_us.{key}"), mean(&core_us));

            if measure == Measure::Hausdorff {
                let points = crate::workloads::total_points(&self.inputs.data);
                let sizes = sut::partition_sizes(&repose);
                let max = sizes.iter().copied().max().unwrap_or(0) as f64;
                let avg = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
                self.put("rptrie.build_s", sut::trie_build_work_s(&repose));
                self.put(
                    "rptrie.mem_bytes_per_point",
                    sut::index_bytes(&repose) as f64 / points as f64,
                );
                self.put("core.build_s", build_s);
                self.put("core.partition_imbalance", ratio(max, avg));
                kept = Some((repose, build_s));
            }
        }
        let (hausdorff, hausdorff_build_s) = kept.expect("Hausdorff is one of the measures");
        SweepOut {
            hausdorff,
            hausdorff_build_s,
        }
    }

    /// `distance.*` for one measure: the kernels over sampled candidate
    /// pairs, each query under its own true k-th distance.
    fn distance(&mut self, measure: Measure, queries: &[Trajectory], kth: &[f64]) {
        let key = sut::measure_key(measure);
        let trajs = self.inputs.data.trajectories();
        let mut rng = SplitMix64::new(0xD157);
        let pairs: Vec<(&[Point], &[Point], f64)> = queries
            .iter()
            .zip(kth)
            .take(PROBE_CANDIDATE_QUERIES)
            .flat_map(|(q, &kth)| {
                let picks: Vec<usize> = (0..PROBE_CANDIDATES)
                    .map(|_| rng.below(trajs.len()))
                    .collect();
                picks
                    .into_iter()
                    .map(move |i| (q.points.as_slice(), trajs[i].points.as_slice(), kth))
            })
            .collect();
        let n = pairs.len() as f64;
        let full = |out: &mut Vec<u64>| {
            secs(|| {
                out.extend(
                    pairs
                        .iter()
                        .map(|(q, c, _)| sut::distance(measure, q, c).to_bits()),
                )
            })
        };

        let mut active_bits = Vec::with_capacity(pairs.len());
        let full_s = full(&mut active_bits);
        let mut scalar_bits = Vec::with_capacity(pairs.len());
        let scalar_s = sut::with_scalar_backend(|| full(&mut scalar_bits));
        if active_bits != scalar_bits {
            self.failures.push(format!(
                "{key}: scalar and {} kernels disagree",
                sut::active_backend()
            ));
        }
        let mut abandoned = 0usize;
        let within_s = secs(|| {
            for (q, c, kth) in &pairs {
                abandoned +=
                    usize::from(black_box(sut::distance_within(measure, q, c, *kth)).is_none());
            }
        });
        let lb_s = secs(|| {
            for (q, c, _) in &pairs {
                black_box(sut::lower_bound(measure, q, c));
            }
        });

        self.put(format!("distance.full_ns_per_pair.{key}"), full_s * 1e9 / n);
        self.put(
            format!("distance.within_ns_per_pair.{key}"),
            within_s * 1e9 / n,
        );
        self.put(
            format!("distance.within_abandon_share.{key}"),
            abandoned as f64 / n,
        );
        self.put(
            format!("distance.lower_bound_ns_per_pair.{key}"),
            lb_s * 1e9 / n,
        );
        self.put(
            format!("distance.simd_speedup.{key}"),
            ratio(scalar_s, full_s),
        );
    }

    fn cluster(&mut self) {
        let pool = sut::worker_pool(sut::default_pool_threads());
        let scopes: Vec<f64> = (0..2_000)
            .map(|_| {
                secs(|| {
                    black_box(sut::pool_scope_counting(&pool, sut::PARTITIONS));
                }) * 1e6
            })
            .collect();
        const TASKS: usize = 4_096;
        let many = median(
            &(0..9)
                .map(|_| {
                    secs(|| {
                        black_box(sut::pool_scope_counting(&pool, TASKS));
                    })
                })
                .collect::<Vec<_>>(),
        );
        self.put("cluster.pool_scope_us", median(&scopes));
        self.put("cluster.pool_task_ns", many * 1e9 / TASKS as f64);
    }

    /// `archive.*`; returns the attached deployment for the durable
    /// service probes (which only write to it).
    fn archive(&mut self, sweep: &SweepOut) -> (Repose, Scratch) {
        let scratch = Scratch::new(&self.p.out_dir, "archive");
        let t0 = Instant::now();
        let path = sut::write_archive(&scratch.0, &sweep.hausdorff);
        let write_s = t0.elapsed().as_secs_f64();
        let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

        let t0 = Instant::now();
        let archive = sut::archive_open(&path);
        let attached = sut::archive_attach(&archive);
        let attach_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (scrubbed, corrupt) = sut::archive_scrub(&archive);
        let scrub_s = t0.elapsed().as_secs_f64();
        if corrupt > 0 {
            self.failures
                .push(format!("archive scrub found {corrupt} corrupt regions"));
        }

        let points = crate::workloads::total_points(&self.inputs.data);
        self.put("archive.write_s", write_s);
        self.put(
            "archive.file_bytes_per_point",
            file_bytes as f64 / points as f64,
        );
        self.put("archive.attach_ms", attach_s * 1e3);
        self.put(
            "archive.scrub_mb_per_s",
            ratio(scrubbed as f64 / 1e6, scrub_s),
        );
        self.put(
            "archive.rebuild_vs_attach_ratio",
            ratio(sweep.hausdorff_build_s, attach_s),
        );
        (attached, scratch)
    }

    /// `durability.*`: the WAL alone under both fsync policies, then a
    /// recovery with no archive to attach (a small deployment, so the
    /// figure is the replay, not the index rebuild).
    fn durability(&mut self) {
        const APPENDS: usize = 400;
        const REPLAYED: usize = 20_000;
        let writes = Inputs::write_pool(self.p.scale.min(10.0), self.p.seed);
        let append_us = |policy: FsyncPolicy, suite: &mut Self| {
            let scratch = Scratch::new(&suite.p.out_dir, "wal");
            let mut wal = sut::wal_create(&scratch.0, policy);
            let mut lat = Latencies::default();
            let mut user_bytes = 0usize;
            for (i, t) in writes.iter().take(APPENDS).enumerate() {
                let record = sut::upsert_record(i as u64 + 1, t);
                user_bytes += 8 + t.points.len() * std::mem::size_of::<Point>();
                let t0 = Instant::now();
                sut::wal_append(&mut wal, &record);
                lat.push(t0.elapsed());
            }
            let (bytes, fsyncs) = sut::wal_counters(&wal);
            (
                lat.p50_ns() / 1e3,
                fsyncs as f64 / APPENDS as f64,
                bytes as f64 / user_bytes as f64,
            )
        };
        let (always_us, fsyncs_per_write, amplification) = append_us(FsyncPolicy::Always, self);
        let (never_us, _, _) = append_us(FsyncPolicy::Never, self);

        let small = sut::generate(1.0, DATASET_SEED);
        let scratch = Scratch::new(&self.p.out_dir, "replay");
        let dirs = sut::DurableDirs {
            wal: scratch.0.join("wal"),
            archive: scratch.0.join("none"),
        };
        let mut config = sut::service_config(0, 1, Some((&dirs, FsyncPolicy::Never)));
        config.archive = None;
        let service = sut::start_service(sut::build(&small, Measure::Hausdorff), config.clone());
        for t in writes.iter().cycle().take(REPLAYED) {
            if sut::service_insert(&service, t.clone()).is_err() {
                self.failures.push("durable insert refused".to_string());
                break;
            }
        }
        drop(service);
        let replay_rate = match sut::service_recover(Measure::Hausdorff, config) {
            Ok((_, report)) if report.replayed_records == REPLAYED as u64 => {
                report.replayed_records as f64 / report.wall_time.as_secs_f64()
            }
            _ => {
                self.failures
                    .push("recovery without an archive lost records".to_string());
                f64::NAN
            }
        };

        self.put("durability.append_us.always", always_us);
        self.put("durability.append_us.never", never_us);
        self.put("durability.fsyncs_per_write", fsyncs_per_write);
        self.put("durability.wal_bytes_per_user_byte", amplification);
        self.put("durability.replay_records_per_s", replay_rate);
    }

    /// `service.*`. Returns the single-node figures the shard probes
    /// compare against.
    fn service(&mut self, hausdorff: Repose, attached: (Repose, Scratch)) -> SingleNode {
        let queries: Vec<&[Point]> = self
            .inputs
            .queries
            .iter()
            .skip(64)
            .take(SERVICE_PROBE_QUERIES)
            .map(|q| q.points.as_slice())
            .collect();
        let threads = sut::default_pool_threads();

        // Sequential twin first (it needs its own deployment).
        let seq = sut::start_service(
            sut::build(&self.inputs.data, Measure::Hausdorff),
            sut::service_config(0, 1, None),
        );
        let (mut seq_us, mut seq_overhead_us) = (Vec::new(), Vec::new());
        let mut seq_exact = 0usize;
        for q in &queries {
            if let Ok(o) = sut::service_query(&seq, q) {
                seq_exact += o.search.exact_computations;
                let work: f64 = o
                    .partition_times
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e6)
                    .sum();
                seq_us.push(o.latency.as_secs_f64() * 1e6);
                seq_overhead_us.push(o.latency.as_secs_f64() * 1e6 - work);
            }
        }
        drop(seq);

        // Pooled, cached service: misses, then the same queries as hits.
        let pooled = sut::start_service(hausdorff, sut::service_config(1_024, threads, None));
        // Per answered query: latency, pool utilization, summed partition
        // work (all in microseconds).
        let run = |service: &ReposeService| {
            let (mut lat, mut util, mut work) = (Vec::new(), Vec::new(), Vec::new());
            for q in &queries {
                let t0 = Instant::now();
                let out = sut::service_query(service, q);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                if let Ok(o) = out {
                    lat.push(us);
                    let w: f64 = o
                        .partition_times
                        .iter()
                        .map(|d| d.as_secs_f64() * 1e6)
                        .sum();
                    work.push(w);
                    util.push(w / (us * threads as f64));
                }
            }
            (lat, util, work)
        };
        let (miss_us, util, work0) = run(&pooled);
        let (hit_us, _, _) = run(&pooled);
        // `stats()` clones and sorts its latency reservoirs: time it with
        // them full.
        for _ in 0..25 {
            run(&pooled);
        }
        let stats_us = median(
            &(0..9)
                .map(|_| {
                    secs(|| {
                        black_box(sut::service_stats(&pooled));
                    }) * 1e6
                })
                .collect::<Vec<_>>(),
        );

        // The serve_mixed traced stream's shape (45 reads, 5 writes) for a
        // hit rate that repeats exactly.
        let writes = Inputs::write_pool(self.p.scale.min(10.0), self.p.seed);
        let zipf = crate::stats::Zipf::new(queries.len(), 1.0);
        let mut rng = SplitMix64::new(0xCAC4E);
        let before = sut::service_stats(&pooled);
        let mut next_write = writes.iter();
        for op in 0..1_000 {
            if op % 50 < 45 {
                let _ = sut::service_query(&pooled, queries[zipf.sample(&mut rng)]);
            } else if let Some(t) = next_write.next() {
                let _ = sut::service_insert(&pooled, t.clone());
            }
        }
        let after = sut::service_stats(&pooled);
        let reads =
            (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
        let hit_rate = ratio((after.cache_hits - before.cache_hits) as f64, reads as f64);

        // Volatile inserts, then the same misses again over the delta.
        const INSERTS: usize = 2_000;
        let mut insert = Latencies::default();
        for t in next_write.by_ref().take(INSERTS) {
            let t0 = Instant::now();
            if sut::service_insert(&pooled, t.clone()).is_ok() {
                insert.push(t0.elapsed());
            }
        }
        let delta_len = sut::service_stats(&pooled).delta_len;
        let (_, _, work1) = run(&pooled);
        let delta_scan = ratio(mean(&work1) - mean(&work0), delta_len as f64 / 1e3);
        let compact_s = secs(|| {
            if sut::service_compact(&pooled).is_err() {
                self.failures.push("compaction refused".to_string());
            }
        });
        let rebuilt = sut::service_stats(&pooled).last_compact_rebuilt;
        drop(pooled);

        // Durable service over the attached deployment: fsync'd writes,
        // then a crash and an archive-attaching recovery.
        const DURABLE_WRITES: usize = 1_000;
        let (attached, _archive_scratch) = attached;
        let scratch = Scratch::new(&self.p.out_dir, "durable");
        let dirs = sut::DurableDirs {
            wal: scratch.0.join("wal"),
            archive: scratch.0.join("archive"),
        };
        let config = sut::service_config(1_024, threads, Some((&dirs, FsyncPolicy::Always)));
        let durable = sut::start_service(attached, config.clone());
        let mut durable_lat = Latencies::default();
        let t0 = Instant::now();
        for t in writes.iter().rev().take(DURABLE_WRITES) {
            let t1 = Instant::now();
            if sut::service_insert(&durable, t.clone()).is_ok() {
                durable_lat.push(t1.elapsed());
            }
        }
        let burst_per_s = crate::stats::rate_per_s(durable_lat.len(), t0.elapsed());
        drop(durable);
        let t0 = Instant::now();
        let recovered = sut::service_recover(Measure::Hausdorff, config);
        let recover_s = t0.elapsed().as_secs_f64();
        match &recovered {
            Ok((_, report)) if report.last_seq == durable_lat.len() as u64 => {}
            _ => self
                .failures
                .push("archive recovery lost acknowledged writes".to_string()),
        }
        drop(recovered);

        let single_p50_us = median(&miss_us);
        self.put("service.query_miss_us", single_p50_us);
        self.put("service.query_hit_us", median(&hit_us));
        self.put("service.seq_overhead_us", median(&seq_overhead_us));
        self.put("service.pool_utilization", mean(&util));
        self.put(
            "service.pooled_vs_seq_ratio",
            ratio(single_p50_us, median(&seq_us)),
        );
        self.put("service.insert_volatile_us", insert.p50_ns() / 1e3);
        self.put("service.delta_scan_us_per_kentry", delta_scan);
        self.put("service.compact_s", compact_s);
        self.put("service.compact_rebuilt_partitions", rebuilt as f64);
        self.put("service.cache_hit_rate", hit_rate);
        self.put("service.stats_snapshot_us", stats_us);
        self.put("service.insert_durable_us", durable_lat.p50_ns() / 1e3);
        self.put("service.write_burst_per_s", burst_per_s);
        self.put("service.recover_s", recover_s);
        SingleNode {
            pooled_p50_us: single_p50_us,
            exact_computations: seq_exact,
        }
    }

    /// `shard.*`: the wire codec alone, then a healthy two-shard cluster
    /// against each leader's own service and the single-node figure.
    fn shard(&mut self, single: SingleNode) {
        const QUERIES: usize = SERVICE_PROBE_QUERIES;
        const WRITES: usize = 200;
        const CODEC_REPS: usize = 20_000;
        let measure = shard_scatter::MEASURE;
        let queries: Vec<&[Point]> = self
            .inputs
            .queries
            .iter()
            .skip(64)
            .take(QUERIES)
            .map(|q| q.points.as_slice())
            .collect();

        let query_msg = sut::query_message(measure, queries[0]);
        let hit_msg = sut::hit_message(&Hit { id: 7, dist: 0.25 });
        let codec = |msg: &sut::Message| {
            let enc = secs(|| {
                for _ in 0..CODEC_REPS {
                    black_box(sut::encode_frame(black_box(msg)));
                }
            });
            let frame = sut::encode_frame(msg);
            let dec = secs(|| {
                for _ in 0..CODEC_REPS {
                    black_box(sut::decode_frame(black_box(&frame)));
                }
            });
            (enc * 1e9 / CODEC_REPS as f64, dec * 1e9 / CODEC_REPS as f64)
        };
        let (enc_q, dec_q) = codec(&query_msg);
        let (enc_h, dec_h) = codec(&hit_msg);

        let mut cluster = sut::cluster_build(self.inputs.data.clone(), measure);
        let mut coord_us = Vec::with_capacity(QUERIES);
        let mut slowest_leader_us = Vec::with_capacity(QUERIES);
        let (mut tighten, mut retries, mut hedges) = (0u64, 0u64, 0u64);
        let mut leader_exact = 0usize;
        let frames0 = sut::frames_sent(&cluster);
        for q in &queries {
            let t0 = Instant::now();
            let out = sut::cluster_query(&mut cluster, q);
            coord_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if out.degraded {
                self.failures
                    .push("healthy cluster answered degraded".to_string());
            }
            tighten += u64::from(out.tightenings);
            retries += u64::from(out.retries);
            hedges += u64::from(out.hedges);
        }
        let frames = sut::frames_sent(&cluster) - frames0;
        for q in &queries {
            let mut slowest = 0.0f64;
            for shard in 0..sut::SHARDS {
                if let Ok(o) = sut::leader_query(&cluster, shard, q) {
                    slowest = slowest.max(o.latency.as_secs_f64() * 1e6);
                    leader_exact += o.search.exact_computations;
                }
            }
            slowest_leader_us.push(slowest);
        }
        let mut write = Latencies::default();
        let writes = Inputs::write_pool(self.p.scale.min(1.0), self.p.seed);
        for (i, t) in writes.iter().take(WRITES).enumerate() {
            let mut t = t.clone();
            t.id = WRITE_ID_BASE * 2 + i as u64;
            let t0 = Instant::now();
            match sut::cluster_insert(&mut cluster, t) {
                Ok(()) => write.push(t0.elapsed()),
                Err(_) => self.failures.push("replicated write refused".to_string()),
            }
        }
        sut::cluster_shutdown(&mut cluster);
        drop(cluster);

        let coord_p50 = median(&coord_us);
        let n = QUERIES as f64;
        self.put("shard.encode_ns.query", enc_q);
        self.put("shard.decode_ns.query", dec_q);
        self.put("shard.encode_ns.hit", enc_h);
        self.put("shard.decode_ns.hit", dec_h);
        self.put("shard.frames_per_query", frames as f64 / n);
        self.put("shard.tightenings_per_query", tighten as f64 / n);
        self.put(
            "shard.scatter_overhead_us",
            coord_p50 - median(&slowest_leader_us),
        );
        self.put(
            "shard.work_inflation",
            ratio(leader_exact as f64, single.exact_computations as f64),
        );
        self.put("shard.replicated_write_us", write.p50_ns() / 1e3);
        self.put("shard.retries_per_query", retries as f64 / n);
        self.put("shard.hedges_per_query", hedges as f64 / n);
        self.put(
            "shard.vs_single_ratio",
            ratio(coord_p50, single.pooled_p50_us),
        );
    }
}
