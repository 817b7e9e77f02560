//! `batch_dtw`: one client issuing `ReposeService::query_batch` calls of
//! eight distinct DTW queries, result cache off.
//!
//! Why: the same service layer used differently (batch admission, the
//! rank-major interleave, one collector per query) on the measure where
//! exact verification and the incremental DP bounds do most of the work
//! (~8k verifications per query). A kernel or batching change shows here
//! and should not move `single_hausdorff`.
//!
//! A query's latency is its batch call's: every query of a batch waits for
//! the whole call. `queries_per_s` counts queries, not batches.

use super::{
    closed_loop, plausible, timed_setups, total_points, validate, Done, EndToEnd, Params,
    QueryService, RunOutput, Shadow,
};
use crate::probes::{self, Prebuilt};
use crate::stats::Latencies;
use crate::sut::{self, Hit, Measure, Point, ReposeService};
use crate::trace::Tracer;
use serde_json::json;
use std::time::Instant;

pub const MEASURE: Measure = Measure::Dtw;
pub const BATCH: usize = 8;
/// Batches of the traced pass: each replays 8 queries three layers down,
/// so 24 batches cost about what 500 single Hausdorff requests do.
const TRACED_BATCHES: usize = 24;

/// One batch call; `None` if the call or any of its answers failed.
fn answer_batch(service: &ReposeService, batch: &[Vec<Point>]) -> Option<Vec<Vec<Hit>>> {
    let outs = sut::service_query_batch(service, batch).ok()?;
    (outs.len() == batch.len() && outs.iter().all(|o| !o.degraded))
        .then(|| outs.into_iter().map(|o| o.hits).collect())
}

pub fn run(p: &Params) -> RunOutput {
    let (sys, setup_raw_s) = timed_setups(if p.trace { 1 } else { p.setup_reps }, || {
        QueryService::set_up(p, MEASURE)
    });
    // The gate goes through the batch entry point too, two batches of 8.
    let mut answers = Vec::new();
    for chunk in sys.inputs.validation.chunks(BATCH) {
        let batch: Vec<Vec<Point>> = chunk.iter().map(|q| q.points.clone()).collect();
        match answer_batch(&sys.service, &batch) {
            Some(hits) => answers.extend(hits.into_iter().map(Some)),
            None => answers.extend(batch.iter().map(|_| None)),
        }
    }
    let mut answers = answers.into_iter();
    let mismatches = validate(
        &sys.inputs.data,
        &Shadow::default(),
        MEASURE,
        &sys.inputs.validation,
        |_| answers.next().flatten(),
    );
    let batches: Vec<Vec<Vec<Point>>> = sys
        .inputs
        .queries
        .chunks_exact(BATCH)
        .map(|c| c.iter().map(|q| q.points.clone()).collect())
        .collect();
    if p.trace {
        return traced(p, sys, &batches, mismatches);
    }

    let mut stream = batches.iter().cycle();
    let mut op = || {
        let batch = stream.next().expect("cycled stream");
        match answer_batch(&sys.service, batch) {
            Some(answers) if answers.iter().all(|h| plausible(h)) => Done::Queries(answers.len()),
            _ => Done::Failed,
        }
    };
    closed_loop(p.warmup, &mut op);
    let window = closed_loop(p.window, &mut op);

    let e2e = EndToEnd {
        setup_raw_s: &setup_raw_s,
        window: &window,
        index_bytes: sys.index_bytes,
        points: total_points(&sys.inputs.data),
    };
    let (metrics, samples) = e2e.finish();
    let tally = window.tally;
    RunOutput {
        correct: mismatches == 0 && tally.failed == 0,
        attempted: tally.attempted + sys.inputs.validation.len() as u64,
        failed: tally.failed + mismatches as u64,
        metrics,
        detail: json!({
            "samples": samples,
            "batch": BATCH,
            "validation_mismatches": mismatches,
        }),
    }
}

fn traced(
    p: &Params,
    sys: QueryService,
    batches: &[Vec<Vec<Point>>],
    mismatches: usize,
) -> RunOutput {
    let t0 = Instant::now();
    let twin = sut::build(&sys.inputs.data, MEASURE);
    let twin_build_s = t0.elapsed().as_secs_f64();
    let requests = &batches[..TRACED_BATCHES.min(batches.len())];

    // One unmeasured pass first, so that the two measured passes over the
    // same requests run equally warm.
    for batch in requests {
        std::hint::black_box(answer_batch(&sys.service, batch));
    }
    let mut untraced = Latencies::default();
    let mut failed = 0u64;
    for batch in requests {
        let t0 = Instant::now();
        let ok = answer_batch(&sys.service, batch)
            .is_some_and(|answers| answers.iter().all(|h| plausible(h)));
        untraced.push(t0.elapsed());
        failed += u64::from(!ok);
    }

    let mut tracer = Tracer::new();
    let mut traced = Latencies::default();
    let mut kth: Vec<Vec<f64>> = Vec::with_capacity(requests.len());
    for (rid, batch) in requests.iter().enumerate() {
        let t0 = Instant::now();
        let outs = tracer.span("request", rid as u64, |t| {
            t.span("service.query_batch", rid as u64, |t| {
                let outs = sut::service_query_batch(&sys.service, batch);
                if let Ok(outs) = &outs {
                    t.count("queries", outs.len() as u64);
                    for o in outs {
                        probes::count_search(t, &o.search);
                    }
                }
                outs
            })
        });
        traced.push(t0.elapsed());
        failed += u64::from(outs.is_err());
        kth.push(
            outs.unwrap_or_default()
                .iter()
                .map(|o| o.hits.last().map_or(f64::INFINITY, |h| h.dist))
                .collect(),
        );
    }
    for (rid, (batch, kth)) in requests.iter().zip(kth).enumerate() {
        tracer.span("replay", rid as u64, |t| {
            for (q, kth) in batch.iter().zip(kth) {
                probes::replay_below_service(
                    t,
                    rid as u64,
                    &twin,
                    MEASURE,
                    q,
                    kth,
                    &sys.inputs.data,
                );
            }
        });
    }

    let QueryService {
        inputs, service, ..
    } = sys;
    drop(service);
    probes::finish_traced(
        p,
        "batch_dtw",
        &tracer,
        &untraced,
        &traced,
        inputs,
        vec![Prebuilt {
            measure: MEASURE,
            repose: twin,
            build_s: twin_build_s,
        }],
        mismatches,
        failed,
    )
}
