//! Helpers the backend-differential suites share.

use repose_distance::{
    available_backends, force_backend, Backend, DistScratch, Measure, MeasureParams, SharedTopK,
};
use repose_model::Point;
use std::sync::Mutex;

/// The active backend is process-global: tests that force it hold this lock
/// so two forcing tests never interleave. (Non-forcing tests in the same
/// binary are unaffected either way — every backend is bit-identical, which
/// is the very property under test.)
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per backend the CPU supports, each forced in turn, and
/// leaves the widest one active.
pub fn for_each_backend(mut f: impl FnMut(Backend)) {
    let _guard = BACKEND_LOCK.lock().unwrap();
    let all = available_backends();
    for &b in &all {
        force_backend(b);
        f(b);
    }
    force_backend(*all.last().expect("scalar is always available"));
}

/// What `MeasureParams::verify` makes of each candidate at a fixed
/// threshold: a collector seeded at `thr` with room for every candidate
/// keeps its bound there throughout, so slot `i` holds candidate `i`'s
/// accepted distance, or `None` where the threshold refuted it.
pub fn verify_at(
    params: &MeasureParams,
    m: Measure,
    query: &[Point],
    cands: &[(f64, &[Point])],
    thr: f64,
    scratch: &mut DistScratch,
) -> Vec<Option<f64>> {
    let collector = SharedTopK::with_initial_bound(cands.len(), thr);
    let ided = cands.iter().enumerate().map(|(i, &(lb, c))| (lb, i as u64, c));
    let (scored, abandoned) = params.verify(m, query, ided, &collector, scratch);
    let mut out = vec![None; cands.len()];
    for h in collector.hits() {
        out[h.id as usize] = Some(h.dist);
    }
    assert_eq!(scored, cands.len());
    assert_eq!(abandoned, out.iter().filter(|d| d.is_none()).count());
    out
}
