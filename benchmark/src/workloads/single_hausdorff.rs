//! `single_hausdorff`: one client, one Hausdorff query at a time through
//! `ReposeService::query`, result cache off, every query distinct.
//!
//! Why: the paper's headline interactive query. At ~2 ms per query split
//! into 16 pool tasks, pool dispatch, `SharedTopK` traffic, the leaf
//! prefilter and trie descent dominate and the DP kernels do little — the
//! workload on which ROADMAP's "pooled dispatch doubles small-query
//! latency" finding must show.

use super::{
    closed_loop, plausible, timed_setups, total_points, validate, Done, EndToEnd, Params,
    QueryService, RunOutput, Shadow, TRACED_REQUESTS,
};
use crate::probes::{self, Prebuilt};
use crate::stats::Latencies;
use crate::sut::{self, Hit, Measure, Point, ReposeService};
use crate::trace::Tracer;
use serde_json::json;
use std::time::Instant;

pub const MEASURE: Measure = Measure::Hausdorff;

fn answer(service: &ReposeService, query: &[Point]) -> Option<Vec<Hit>> {
    let out = sut::service_query(service, query).ok()?;
    (!out.degraded).then_some(out.hits)
}

pub fn run(p: &Params) -> RunOutput {
    let (sys, setup_raw_s) = timed_setups(if p.trace { 1 } else { p.setup_reps }, || {
        QueryService::set_up(p, MEASURE)
    });
    let mismatches = validate(
        &sys.inputs.data,
        &Shadow::default(),
        MEASURE,
        &sys.inputs.validation,
        |q| answer(&sys.service, q),
    );
    if p.trace {
        return traced(p, sys, mismatches);
    }

    let mut stream = sys.inputs.queries.iter().cycle();
    let mut op = || {
        let q = stream.next().expect("cycled stream");
        match answer(&sys.service, &q.points) {
            Some(hits) if plausible(&hits) => Done::Queries(1),
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
            "validation_mismatches": mismatches,
        }),
    }
}

/// The traced pass: the first requests of the same stream, once untraced
/// (for the overhead figure), once with a span around each real call, and
/// then replayed one layer down at a time — on a twin deployment built
/// from the same inputs, because the service owns its own.
fn traced(p: &Params, sys: QueryService, mismatches: usize) -> RunOutput {
    let t0 = Instant::now();
    let twin = sut::build(&sys.inputs.data, MEASURE);
    let twin_build_s = t0.elapsed().as_secs_f64();
    let requests: Vec<&[Point]> = sys
        .inputs
        .queries
        .iter()
        .take(TRACED_REQUESTS)
        .map(|q| q.points.as_slice())
        .collect();

    // One unmeasured pass first, so that the two measured passes over the
    // same requests run equally warm.
    for q in &requests {
        std::hint::black_box(answer(&sys.service, q));
    }
    let mut untraced = Latencies::default();
    let mut failed = 0u64;
    for q in &requests {
        let t0 = Instant::now();
        let ok = answer(&sys.service, q).is_some_and(|h| plausible(&h));
        untraced.push(t0.elapsed());
        failed += u64::from(!ok);
    }

    let mut tracer = Tracer::new();
    let mut traced = Latencies::default();
    let mut kth = Vec::with_capacity(requests.len());
    for (rid, q) in requests.iter().enumerate() {
        let t0 = Instant::now();
        let out = tracer.span("request", rid as u64, |t| {
            t.span("service.query", rid as u64, |t| {
                let out = sut::service_query(&sys.service, q);
                if let Ok(o) = &out {
                    probes::count_search(t, &o.search);
                    t.count("delta_candidates", o.delta_candidates as u64);
                }
                out
            })
        });
        traced.push(t0.elapsed());
        failed += u64::from(out.is_err());
        kth.push(
            out.ok()
                .and_then(|o| o.hits.last().map(|h| h.dist))
                .unwrap_or(f64::INFINITY),
        );
    }
    for (rid, (q, kth)) in requests.iter().zip(kth).enumerate() {
        tracer.span("replay", rid as u64, |t| {
            probes::replay_below_service(t, rid as u64, &twin, MEASURE, q, kth, &sys.inputs.data);
        });
    }

    let QueryService {
        inputs, service, ..
    } = sys;
    drop(service);
    probes::finish_traced(
        p,
        "single_hausdorff",
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
