//! `shard_scatter`: one client against a `ShardCluster` of two shards,
//! each with a replica, coordinator cache off. The client issues the same
//! Hausdorff query stream as `single_hausdorff`, and every 20th operation
//! is an `insert` through the coordinator.
//!
//! Why: identical queries to `single_hausdorff`, so `query_p50_ms` here
//! minus there is the price of protocol framing, `Tighten` traffic,
//! loopback locking and replication — the layers that do all their work
//! here and none elsewhere.

use super::{
    closed_loop, plausible, timed_setups, total_points, validate, Done, EndToEnd, Inputs, Measured,
    Params, RunOutput, Shadow, TRACED_REQUESTS,
};
use crate::probes;
use crate::stats::Latencies;
use crate::sut::{self, Dataset, Hit, Measure, Point, ShardCluster, Trajectory};
use crate::trace::Tracer;
use serde_json::json;
use std::time::{Duration, Instant};

pub const MEASURE: Measure = Measure::Hausdorff;
/// Every `WRITE_EVERY`-th operation is an insert.
pub const WRITE_EVERY: usize = 20;

struct System {
    inputs: Inputs,
    writes: Vec<Trajectory>,
    cluster: ShardCluster,
}

fn set_up(p: &Params) -> System {
    let inputs = Inputs::generate(p.scale, p.seed);
    let writes = Inputs::write_pool(p.scale.min(1.0), p.seed);
    let cluster = sut::cluster_build(inputs.data.clone(), MEASURE);
    System {
        inputs,
        writes,
        cluster,
    }
}

fn answer(cluster: &mut ShardCluster, query: &[Point]) -> Option<Vec<Hit>> {
    let out = sut::cluster_query(cluster, query);
    (!out.degraded).then_some(out.hits)
}

/// Index bytes of the sharded deployment's leaders. The cluster does not
/// expose its deployments, and builds are deterministic, so the shard
/// subsets are built once more here (outside `setup_s`).
fn leader_index_bytes(data: &Dataset) -> usize {
    (0..sut::SHARDS as u64)
        .map(|shard| {
            let subset: Vec<Trajectory> = data
                .trajectories()
                .iter()
                .filter(|t| t.id % sut::SHARDS as u64 == shard)
                .cloned()
                .collect();
            sut::index_bytes(&sut::build(&Dataset::from_trajectories(subset), MEASURE))
        })
        .sum()
}

/// The client: queries back to back, every 20th operation an insert.
/// Query latencies go to `latency`, insert latencies to `write_latency`.
struct Client<'a> {
    queries: std::iter::Cycle<std::slice::Iter<'a, Trajectory>>,
    writes: std::slice::Iter<'a, Trajectory>,
    ops: usize,
}

enum Op<'a> {
    Query(&'a [Point]),
    Insert(&'a Trajectory),
}

impl<'a> Client<'a> {
    fn new(inputs: &'a Inputs, writes: &'a [Trajectory]) -> Self {
        Client {
            queries: inputs.queries.iter().cycle(),
            writes: writes.iter(),
            ops: 0,
        }
    }

    fn next(&mut self) -> Op<'a> {
        self.ops += 1;
        if self.ops.is_multiple_of(WRITE_EVERY) {
            if let Some(t) = self.writes.next() {
                return Op::Insert(t);
            }
        }
        Op::Query(&self.queries.next().expect("cycled stream").points)
    }
}

/// One window of the client's stream. Insert latencies go to
/// `write_latency`; acknowledged inserts are laid over `shadow`.
fn run_window(
    window: Duration,
    client: &mut Client<'_>,
    cluster: &mut ShardCluster,
    shadow: &mut Shadow,
    write_latency: &mut Latencies,
) -> Measured {
    closed_loop(window, || match client.next() {
        Op::Query(q) => match answer(cluster, q) {
            Some(hits) if plausible(&hits) => Done::Queries(1),
            _ => Done::Failed,
        },
        Op::Insert(t) => {
            let t0 = Instant::now();
            match sut::cluster_insert(cluster, t.clone()) {
                Ok(()) => {
                    write_latency.push(t0.elapsed());
                    shadow.upsert(t);
                    Done::Other
                }
                Err(_) => Done::Failed,
            }
        }
    })
}

pub fn run(p: &Params) -> RunOutput {
    let (mut sys, setup_raw_s) = timed_setups(if p.trace { 1 } else { p.setup_reps }, || set_up(p));
    let mut shadow = Shadow::default();
    let mut mismatches = validate(
        &sys.inputs.data,
        &shadow,
        MEASURE,
        &sys.inputs.validation,
        |q| answer(&mut sys.cluster, q),
    );
    if p.trace {
        return traced(p, sys, mismatches);
    }

    let mut client = Client::new(&sys.inputs, &sys.writes);
    let cluster = &mut sys.cluster;
    run_window(
        p.warmup,
        &mut client,
        cluster,
        &mut shadow,
        &mut Latencies::default(),
    );
    let mut write_latency = Latencies::default();
    let window = run_window(
        p.window,
        &mut client,
        cluster,
        &mut shadow,
        &mut write_latency,
    );
    // The inserts are live now: the gate again, over the grown set.
    mismatches += validate(
        &sys.inputs.data,
        &shadow,
        MEASURE,
        &sys.inputs.validation,
        |q| answer(cluster, q),
    );
    sut::cluster_shutdown(cluster);

    let e2e = EndToEnd {
        setup_raw_s: &setup_raw_s,
        window: &window,
        index_bytes: leader_index_bytes(&sys.inputs.data),
        points: total_points(&sys.inputs.data),
    };
    let (metrics, samples) = e2e.finish();
    let writes = write_latency.summary();
    let tally = window.tally;
    RunOutput {
        correct: mismatches == 0 && tally.failed == 0,
        attempted: tally.attempted + 2 * sys.inputs.validation.len() as u64,
        failed: tally.failed + mismatches as u64,
        metrics,
        detail: json!({
            "samples": samples,
            "extra": json!({
                "raw_write_p50_us": writes.map(|s| super::us(s.p50_ns)),
                "write_samples": writes.map(|s| s.samples),
            }),
            "validation_mismatches": mismatches,
        }),
    }
}

/// The traced pass: the first requests of the stream untraced, then the
/// same requests (the inserts overwrite themselves) with a span around each
/// real call, then each query replayed one layer down: every leader's own
/// service, and the frames its answer needs (one query, k hits).
fn traced(p: &Params, mut sys: System, mismatches: usize) -> RunOutput {
    let mut failed = 0u64;
    let mut untraced = Latencies::default();
    // The first pass is not measured: it leaves the two measured passes
    // over the same requests equally warm.
    for measured in [false, true] {
        let mut client = Client::new(&sys.inputs, &sys.writes);
        for _ in 0..TRACED_REQUESTS {
            match client.next() {
                Op::Query(q) => {
                    let t0 = Instant::now();
                    let ok = answer(&mut sys.cluster, q).is_some_and(|h| plausible(&h));
                    if measured {
                        untraced.push(t0.elapsed());
                        failed += u64::from(!ok);
                    }
                }
                Op::Insert(t) => {
                    failed += u64::from(sut::cluster_insert(&mut sys.cluster, t.clone()).is_err());
                }
            }
        }
    }

    let mut tracer = Tracer::new();
    let mut traced = Latencies::default();
    let mut answered: Vec<(u64, &[Point], Vec<Hit>)> = Vec::new();
    let mut client = Client::new(&sys.inputs, &sys.writes);
    for rid in 0..TRACED_REQUESTS as u64 {
        let cluster = &mut sys.cluster;
        match client.next() {
            Op::Query(q) => {
                let t0 = Instant::now();
                let out = tracer.span("request", rid, |t| {
                    t.span("shard.query", rid, |t| {
                        let frames0 = sut::frames_sent(cluster);
                        let out = sut::cluster_query(cluster, q);
                        t.count("frames", sut::frames_sent(cluster) - frames0);
                        t.count("tightenings", u64::from(out.tightenings));
                        t.count("retries", u64::from(out.retries));
                        t.count("hedges", u64::from(out.hedges));
                        out
                    })
                });
                traced.push(t0.elapsed());
                failed += u64::from(out.degraded || !plausible(&out.hits));
                answered.push((rid, q, out.hits));
            }
            Op::Insert(traj) => {
                let ok = tracer.span("request", rid, |t| {
                    t.span("shard.insert", rid, |_| {
                        sut::cluster_insert(cluster, traj.clone())
                    })
                });
                failed += u64::from(ok.is_err());
            }
        }
    }
    for (rid, q, hits) in &answered {
        let (rid, cluster) = (*rid, &sys.cluster);
        tracer.span("replay", rid, |t| {
            for shard in 0..sut::SHARDS {
                t.span("service.query", rid, |t| {
                    if let Ok(o) = sut::leader_query(cluster, shard, q) {
                        probes::count_search(t, &o.search);
                    }
                });
            }
            let frames: Vec<Vec<u8>> = t.span("shard.encode", rid, |t| {
                let frames: Vec<Vec<u8>> = std::iter::once(sut::query_message(MEASURE, q))
                    .chain(hits.iter().map(sut::hit_message))
                    .map(|m| sut::encode_frame(&m))
                    .collect();
                t.count("bytes", frames.iter().map(Vec::len).sum::<usize>() as u64);
                frames
            });
            t.span("shard.decode", rid, |_| {
                for f in &frames {
                    std::hint::black_box(sut::decode_frame(f));
                }
            });
        });
    }
    drop(answered);

    sut::cluster_shutdown(&mut sys.cluster);
    let System {
        inputs, cluster, ..
    } = sys;
    drop(cluster);
    probes::finish_traced(
        p,
        "shard_scatter",
        &tracer,
        &untraced,
        &traced,
        inputs,
        Vec::new(),
        mismatches,
        failed,
    )
}
