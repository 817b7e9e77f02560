//! Kernel experiment (beyond the paper): what the flat trajectory arena,
//! reusable DP scratch, and the SIMD verification backends buy on the
//! exact-verification hot path, per measure **and per backend**.
//!
//! The scalar backend runs every arm for all six measures. Each SIMD
//! backend the host CPU supports (SSE4.1, then AVX2) is then forced
//! process-wide and reruns only what it executes differently from scalar:
//! every arm for Hausdorff (the one measure with packed single-pair
//! kernels), the batched scan alone for DTW / Fréchet / ERP (lane-batched
//! verification; one pair at a time they run the scalar kernel on every
//! backend), and nothing for LCSS / EDR. Up to three comparisons per row,
//! all against the **seed path** preserved verbatim in
//! [`repose_distance::reference`]:
//!
//! * **full kernel** — exhaustively score every candidate with the
//!   unbounded kernel: per-call-allocating seed kernels over
//!   `Vec<Trajectory>` heap islands vs the scratch-threaded kernels over
//!   one contiguous [`TrajStore`] arena.
//! * **leaf-verification scan** — the realistic verification loop: score
//!   each candidate that survives the O(1) summary prefilter with the
//!   threshold-aware kernel under the true k-th distance, exactly like
//!   trie-leaf verification, one candidate at a time. Most surviving
//!   candidates abandon after a few DP rows, so fixed per-call costs
//!   dominate: the regime the zero-allocation work targets.
//! * **batched scan** — the same loop through
//!   `distance_within_batch_in`, the production leaf/refinement path:
//!   lane-batched multi-candidate verification for DTW/Fréchet/ERP
//!   (candidates share each query column load), sequential fallback for
//!   the other measures.
//!
//! DTW rows also show the verification **cascade** a candidate passes
//! under that k-th distance — `summary_refused / nn_refused / dp_abandoned /
//! accepted` — with the nearest-neighbour stage's decision recomputed here
//! from its definition (the stage itself is crate-private) and its
//! soundness asserted against the seed DTW.
//!
//! Timing is min-of-repeats per arm. Bit-identity of every arm against
//! the seed path is asserted in-run, per backend — the experiment is
//! itself a differential test, not just a stopwatch.

use crate::runner::{load, params_for, ExpConfig};
use crate::{fmt_secs, print_table};
use repose_datagen::PaperDataset;
use repose_distance::{
    available_backends, bound_exceeds, force_backend, just_above, reference, Backend,
    DistScratch, Measure, TrajSummary,
};
use repose_model::{Dataset, Point, TrajStore};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

const REPEATS: usize = 5;

fn timed<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("at least one repeat"))
}

struct MeasureRow {
    full_seed_s: f64,
    scan_seed_s: f64,
    /// The two single-pair arms; `None` where the backend runs the scalar
    /// single-pair kernels.
    full_arena_s: Option<f64>,
    scan_arena_s: Option<f64>,
    scan_batch_s: f64,
    abandoned: usize,
    scanned: usize,
    /// DTW only: where each candidate's verification ended.
    cascade: Option<Cascade>,
}

/// The fate of every candidate of one DTW leaf-verification scan, stage by
/// stage: refused by the O(1) summary bound, refused by the point-level
/// nearest-neighbour bound, abandoned inside the dynamic program, accepted.
#[derive(Clone, Copy)]
struct Cascade {
    summary_refused: usize,
    nn_refused: usize,
    dp_abandoned: usize,
    accepted: usize,
}

/// The bound the DTW nearest-neighbour stage applies, from its definition:
/// the larger of `Σ_i min_j d(q_i, c_j)` and `Σ_j min_i d(q_i, c_j)`, each
/// summed in index order.
fn dtw_nn_bound(query: &[Point], cand: &[Point]) -> f64 {
    let nearest_sum = |from: &[Point], to: &[Point]| -> f64 {
        from.iter()
            .map(|p| to.iter().map(|q| p.dist(q)).fold(f64::INFINITY, f64::min))
            .sum()
    };
    nearest_sum(query, cand).max(nearest_sum(cand, query))
}

/// Whether `backend` has single-pair kernels of its own for `measure`
/// (`Some(true)`), only lane-batched ones (`Some(false)`), or runs exactly
/// the scalar code (`None` — nothing to measure).
fn backend_specific(backend: Backend, measure: Measure) -> Option<bool> {
    match (backend, measure) {
        (Backend::Scalar, _) | (_, Measure::Hausdorff) => Some(true),
        (_, Measure::Dtw | Measure::Frechet | Measure::Erp) => Some(false),
        (_, Measure::Lcss | Measure::Edr) => None,
    }
}

/// One (backend, measure) row, or `None` where there is nothing
/// backend-specific to measure.
#[allow(clippy::too_many_lines)]
fn run_measure(
    data: &Dataset,
    store: &TrajStore,
    query: &[Point],
    measure: Measure,
    params: &repose_distance::MeasureParams,
    k: usize,
    backend: Backend,
) -> Option<MeasureRow> {
    let single_pair = backend_specific(backend, measure)?;
    let qsum = params.summary_of(query);
    let summaries: Vec<TrajSummary> = data
        .trajectories()
        .iter()
        .map(|t| params.summary_of(&t.points))
        .collect();
    let mut scratch = DistScratch::new();

    // -- Full kernel: seed (alloc, heap islands) vs arena + scratch. --
    let (full_seed_s, seed_dists) = timed(|| {
        data.trajectories()
            .iter()
            .map(|t| black_box(reference::distance(params, measure, query, &t.points)))
            .collect::<Vec<f64>>()
    });
    let full_arena_s = single_pair.then(|| {
        let (full_arena_s, arena_dists) = timed(|| {
            (0..store.len())
                .map(|s| {
                    black_box(params.distance_in(measure, query, store.points(s), &mut scratch))
                })
                .collect::<Vec<f64>>()
        });
        assert_eq!(
            seed_dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            arena_dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            "{measure} on {backend}: arena kernels diverged from the seed kernels"
        );
        full_arena_s
    });

    // The true k-th distance: the selectivity an ideal index hands every
    // leaf verification. `just_above` keeps the k-th candidate itself
    // scoreable, as the running-top-k loops do.
    let mut sorted = seed_dists.clone();
    sorted.sort_by(f64::total_cmp);
    let kth = sorted[k.clamp(1, sorted.len()) - 1];
    let dk = just_above(kth);

    // Candidates that reach the kernels: summary bound cannot refute them
    // at the cutoff (same fp-margined test the scan loops use).
    let kernel_cands: Vec<(usize, f64)> = summaries
        .iter()
        .enumerate()
        .filter_map(|(s, summary)| {
            let lb = params.summary_lower_bound(measure, &qsum, summary);
            (!bound_exceeds(lb, kth)).then_some((s, lb))
        })
        .collect();

    // -- Leaf-verification scan under dk over the kernel candidates. --
    let (scan_seed_s, seed_scan) = timed(|| {
        let mut abandoned = 0usize;
        for &(slot, lb) in &kernel_cands {
            let pts = &data.trajectories()[slot].points;
            if black_box(reference::distance_within_from_lb(
                params, measure, query, pts, dk, lb,
            ))
            .is_none()
            {
                abandoned += 1;
            }
        }
        abandoned
    });
    let scan_arena_s = single_pair.then(|| {
        let (scan_arena_s, arena_scan) = timed(|| {
            let mut abandoned = 0usize;
            for &(slot, lb) in &kernel_cands {
                if black_box(params.distance_within_from_lb_in(
                    measure,
                    query,
                    store.points(slot),
                    dk,
                    lb,
                    &mut scratch,
                ))
                .is_none()
                {
                    abandoned += 1;
                }
            }
            abandoned
        });
        assert_eq!(
            seed_scan, arena_scan,
            "{measure} on {backend}: scan decisions diverged"
        );
        scan_arena_s
    });

    // -- Batched scan: the production multi-candidate verification path. --
    let cand_refs: Vec<(f64, &[Point])> = kernel_cands
        .iter()
        .map(|&(slot, lb)| (lb, store.points(slot)))
        .collect();
    let mut batch_out = vec![None; cand_refs.len()];
    let (scan_batch_s, batch_abandoned) = timed(|| {
        params.distance_within_batch_in(
            measure,
            query,
            &cand_refs,
            dk,
            &mut scratch,
            &mut batch_out,
        );
        black_box(batch_out.iter().filter(|o| o.is_none()).count())
    });
    assert_eq!(
        seed_scan, batch_abandoned,
        "{measure} on {backend}: batched scan decisions diverged"
    );
    // Full bitwise identity of the batched lane results vs the seed path,
    // candidate by candidate — the differential matrix, in-run.
    for (&(slot, lb), got) in kernel_cands.iter().zip(&batch_out) {
        let pts = &data.trajectories()[slot].points;
        let want = reference::distance_within_from_lb(params, measure, query, pts, dk, lb);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{measure} on {backend}: batched lane result diverged from seed"
        );
    }

    // The DTW cascade under the cutoff `kth` (threshold `dk`), over every
    // candidate. `bound_exceeds(lb, kth)` is the refusal test both bound
    // stages apply at `dk = just_above(kth)`.
    let cascade = (measure == Measure::Dtw).then(|| {
        let mut c = Cascade {
            summary_refused: summaries.len() - kernel_cands.len(),
            nn_refused: 0,
            dp_abandoned: 0,
            accepted: 0,
        };
        for (&(slot, _), got) in kernel_cands.iter().zip(&batch_out) {
            if bound_exceeds(dtw_nn_bound(query, store.points(slot)), kth) {
                assert!(
                    seed_dists[slot] >= dk,
                    "DTW on {backend}: the nearest-neighbour bound refused slot {slot} under \
                     {dk} but its seed DTW is {}",
                    seed_dists[slot]
                );
                c.nn_refused += 1;
            } else if got.is_none() {
                c.dp_abandoned += 1;
            } else {
                c.accepted += 1;
            }
        }
        c
    });

    Some(MeasureRow {
        cascade,
        full_seed_s,
        scan_seed_s,
        full_arena_s,
        scan_arena_s,
        scan_batch_s,
        abandoned: seed_scan,
        scanned: kernel_cands.len(),
    })
}

/// Runs the kernel comparison: all six measures on the scalar backend,
/// then on each available SIMD backend (forced process-wide for its pass;
/// the widest backend is restored afterwards) the measures and arms that
/// backend executes differently (see the module docs).
pub fn run(exp: &ExpConfig) -> Value {
    let ds = PaperDataset::TDrive;
    let (data, queries) = load(ds, exp);
    if data.is_empty() || queries.is_empty() {
        eprintln!("[kernels] nothing to measure (empty dataset or --queries 0)");
        return Value::Array(Vec::new());
    }
    let store = TrajStore::from_trajectories(data.trajectories());
    let query = &queries[0].points;

    let backends = available_backends();
    let widest = *backends.last().expect("scalar is always available");
    let mut rows = Vec::new();
    let mut out = Vec::new();
    // Headline: geomean over measures of the production (batched) scan
    // speedup on the widest backend — the path live queries actually take.
    // Backends run narrowest first, so each measure ends on the row of the
    // widest backend that has kernels of its own for it.
    let mut headline = [1.0f64; Measure::ALL.len()];
    for &backend in &backends {
        force_backend(backend);
        for (mi, measure) in Measure::ALL.into_iter().enumerate() {
            let params = params_for(ds, measure);
            let Some(r) = run_measure(&data, &store, query, measure, &params, exp.k, backend)
            else {
                continue;
            };
            let ratio = |seed: f64, new: f64| if new > 0.0 { seed / new } else { 0.0 };
            let full_speedup = r.full_arena_s.map(|new| ratio(r.full_seed_s, new));
            let scan_speedup = r.scan_arena_s.map(|new| ratio(r.scan_seed_s, new));
            let batch_speedup = ratio(r.scan_seed_s, r.scan_batch_s);
            headline[mi] = batch_speedup.max(f64::MIN_POSITIVE);
            let secs = |s: Option<f64>| s.map_or("-".to_string(), fmt_secs);
            let times = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.2}x"));
            rows.push(vec![
                backend.name().to_string(),
                measure.name().to_string(),
                fmt_secs(r.full_seed_s),
                secs(r.full_arena_s),
                times(full_speedup),
                fmt_secs(r.scan_seed_s),
                secs(r.scan_arena_s),
                times(scan_speedup),
                fmt_secs(r.scan_batch_s),
                times(Some(batch_speedup)),
                format!("{}/{}", r.abandoned, r.scanned),
                r.cascade.map_or("-".to_string(), |c| {
                    format!(
                        "{}/{}/{}/{}",
                        c.summary_refused, c.nn_refused, c.dp_abandoned, c.accepted
                    )
                }),
            ]);
            out.push(json!({
                "backend": backend.name(),
                "measure": measure.name(),
                "full_seed_s": r.full_seed_s,
                "full_arena_s": r.full_arena_s,
                "full_speedup": full_speedup,
                "scan_seed_s": r.scan_seed_s,
                "scan_arena_s": r.scan_arena_s,
                "scan_speedup": scan_speedup,
                "scan_batch_s": r.scan_batch_s,
                "batch_speedup": batch_speedup,
                "scan_abandoned": r.abandoned,
                "scanned": r.scanned,
                "cascade": r.cascade.map(|c| json!({
                    "summary_refused": c.summary_refused,
                    "nn_refused": c.nn_refused,
                    "dp_abandoned": c.dp_abandoned,
                    "accepted": c.accepted,
                })),
            }));
        }
    }
    force_backend(widest);
    let scan_speedup_geomean =
        headline.iter().product::<f64>().powf(1.0 / Measure::ALL.len() as f64);
    out.push(json!({
        "summary": true,
        "backends": backends.iter().map(|b| b.name()).collect::<Vec<_>>(),
        "headline_backend": widest.name(),
        "scan_speedup_geomean": scan_speedup_geomean,
        "scale": exp.scale,
        "k": exp.k,
    }));
    println!(
        "\n== kernels: SIMD backends + arena/scratch vs seed path, k = {}, scale {} ==",
        exp.k, exp.scale
    );
    print_table(
        &[
            "Backend", "Measure", "full seed", "full arena", "speedup", "scan seed",
            "scan arena", "speedup", "scan batch", "speedup", "abandoned",
            "sum/nn/dp/ok",
        ],
        &rows,
    );
    println!(
        "leaf-verification scan speedup (geomean, batched, {}): {scan_speedup_geomean:.2}x",
        widest.name()
    );
    Value::Array(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_cluster::ClusterConfig;

    #[test]
    fn kernels_experiment_reports_bit_identical_speedups() {
        let exp = ExpConfig {
            scale: 0.03,
            queries: 1,
            k: 3,
            partitions: 4,
            cluster: ClusterConfig { workers: 2, cores_per_worker: 2, timing_repeats: 1 },
            seed: 11,
            ..ExpConfig::default()
        };
        let v = run(&exp);
        let rows = v.as_array().expect("rows + summary");
        let n_backends = available_backends().len();
        // Scalar: all six; each SIMD backend: Hausdorff + the three
        // lane-batched measures.
        let n_rows = 6 + 4 * (n_backends - 1);
        assert_eq!(rows.len(), n_rows + 1, "per-backend rows + summary");
        for row in rows.iter().take(n_rows) {
            // run() itself asserts bitwise agreement; here check shape.
            let scalar = row["backend"].as_str().unwrap() == "scalar";
            let single_pair = scalar || row["measure"].as_str().unwrap() == "Hausdorff";
            assert!(row["full_seed_s"].as_f64().unwrap() >= 0.0);
            assert_eq!(row["scan_speedup"].as_f64().is_some(), single_pair);
            assert_eq!(row["full_speedup"].as_f64().is_some(), single_pair);
            assert!(row["batch_speedup"].as_f64().unwrap() > 0.0);
            let scanned = row["scanned"].as_u64().unwrap();
            let abandoned = row["scan_abandoned"].as_u64().unwrap();
            assert!(abandoned <= scanned);
            // The cascade is a DTW column, and it accounts for every
            // candidate: the two kernel-side refusals are the scan's
            // abandons.
            let cascade = &row["cascade"];
            let is_dtw = row["measure"].as_str().unwrap() == "DTW";
            assert_eq!(*cascade == Value::Null, !is_dtw);
            if is_dtw {
                let count = |key: &str| cascade[key].as_u64().unwrap();
                assert_eq!(count("nn_refused") + count("dp_abandoned"), abandoned);
                assert_eq!(abandoned + count("accepted"), scanned);
            }
        }
        let summary = &rows[n_rows];
        assert!(summary["summary"].as_bool().unwrap());
        assert!(summary["scan_speedup_geomean"].as_f64().unwrap() > 0.0);
        assert_eq!(
            summary["backends"].as_array().unwrap().len(),
            n_backends
        );
    }
}
