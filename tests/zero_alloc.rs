//! Zero-allocation verification path: a counting global allocator proves
//! that warm verification kernels allocate nothing, and that warm index /
//! service queries do not allocate per verification.
//!
//! Three layers of evidence, from strict to end-to-end:
//!
//! 1. **Kernel-strict** — with a warm [`DistScratch`], a loop of exact and
//!    threshold-aware verifications over a [`TrajStore`] arena performs
//!    **exactly zero** heap allocations, for all six measures.
//! 2. **Index** — a warm `RpTrie::top_k` still allocates for its search
//!    structure (frontier heap, the bound states of the nodes it keeps in
//!    the frontier), but the count must not scale with the number of leaf
//!    verifications: growing a leaf's membership ~10× adds hundreds of
//!    verifications and the allocation count must grow by less than one
//!    per extra verification (the seed kernels allocated at least one DP
//!    buffer each). Nor may it scale with child evaluations: a DTW search
//!    recycles the columns of expanded and pruned nodes, so ~8× more
//!    pruned children add almost no allocations (cloning the parent state
//!    per child added one each).
//! 3. **Service** — same decoupling for a warm `ReposeService::query`
//!    whose delta backlog (scored by `refine_by_bound`) grows, plus
//!    thread-scratch footprint stability across the warm query.
//!
//! All measuring tests serialize on one mutex so the global counter only
//! sees the code under test.

use repose::{Repose, ReposeConfig};
use repose_distance::{DistScratch, Measure, MeasureParams, SharedTopK};
use repose_model::{Point, TrajStore, Trajectory};
use repose_rptrie::{RpTrie, RpTrieConfig};
use repose_service::{ReposeService, ServiceConfig};
use repose_zorder::Grid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measuring sections so concurrent tests in this binary
/// cannot pollute the counter.
static MEASURE: Mutex<()> = Mutex::new(());

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Minimum allocation count over three runs. The counter is global, so a
/// concurrent one-off allocation elsewhere in the process (libtest still
/// spawning a sibling test thread that will park on [`MEASURE`]) can
/// pollute a single window; it cannot pollute all three, while a real
/// per-call allocation shows up in every one.
fn min_allocs_during(mut f: impl FnMut()) -> u64 {
    (0..3).map(|_| allocs_during(&mut f)).min().unwrap()
}

/// Locks [`MEASURE`] even if a failed sibling poisoned it: each test's
/// measurement is independent, and the cascade of bogus `PoisonError`
/// failures would bury the real one.
fn measure_lock() -> std::sync::MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

use repose_testkit::arena;

#[test]
fn warm_kernels_allocate_exactly_zero() {
    let _g = measure_lock();
    let store = arena(24, 48, 1.3);
    let query: Vec<Point> = (0..40).map(|j| Point::new(j as f64 * 0.33, 0.4)).collect();
    let params = MeasureParams::with_eps(0.5);
    let mut scratch = DistScratch::new();

    let verify_all = |scratch: &mut DistScratch| {
        for m in Measure::ALL {
            for slot in 0..store.len() {
                let pts = store.points(slot);
                let d = params.distance_in(m, &query, pts, scratch);
                // Threshold-aware: one surviving pass, one abandoning pass.
                let lb = params.lower_bound(m, &query, pts);
                let pass =
                    params.distance_within_from_lb_in(m, &query, pts, d + 1.0, lb, scratch);
                assert_eq!(pass.map(f64::to_bits), Some(d.to_bits()));
                let refute =
                    params.distance_within_from_lb_in(m, &query, pts, d * 0.5, lb, scratch);
                assert!(refute.is_none() || d == 0.0);
            }
        }
    };

    // Warm-up: buffers grow to the largest trajectory involved.
    verify_all(&mut scratch);
    let fp = scratch.footprint();

    // Steady state: the entire verification loop — six measures, full and
    // threshold-aware kernels, every candidate — allocates NOTHING.
    let allocs = min_allocs_during(|| verify_all(&mut scratch));
    assert_eq!(allocs, 0, "warm verification kernels must not allocate");
    assert_eq!(scratch.footprint(), fp, "warm scratch must not grow");
}

#[test]
fn warm_trie_query_allocations_do_not_scale_with_verifications() {
    let _g = measure_lock();
    // Decoys sharing one coarse grid cell sequence: they all land in the
    // same leaf, so extra members add verifications without adding trie
    // nodes. Allocation growth must stay decoupled from verification
    // growth (the seed kernels allocated >= 1 buffer per verification).
    let query: Vec<Point> = (0..12).map(|j| Point::new(j as f64 * 0.3, 1.0)).collect();
    let grid = Grid::new(
        repose_model::Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)),
        1,
    );
    let build = |members: u64| {
        let mut store = TrajStore::new();
        for i in 0..members {
            let jit = (i % 16) as f64 * 0.07;
            let pts: Vec<Point> =
                (0..12).map(|j| Point::new(j as f64 * 0.3 + jit, 1.0 + jit)).collect();
            store.push(i, &pts);
        }
        let trie = RpTrie::build(
            &store,
            grid.clone(),
            RpTrieConfig::for_measure(Measure::Dtw).with_params(MeasureParams::with_eps(0.5)),
        );
        (store, trie)
    };

    let measure_warm = |store: &TrajStore, trie: &RpTrie| {
        // Warm: thread scratch + one full query.
        let r = trie.top_k(store, &query, 3);
        let verifications = r.stats.exact_computations;
        let a1 = min_allocs_during(|| {
            let _ = trie.top_k(store, &query, 3);
        });
        let a2 = min_allocs_during(|| {
            let _ = trie.top_k(store, &query, 3);
        });
        assert_eq!(a1, a2, "warm queries must be allocation-deterministic");
        (a1, verifications)
    };

    let (small_store, small_trie) = build(12);
    let (big_store, big_trie) = build(120);
    let (a_small, v_small) = measure_warm(&small_store, &small_trie);
    let (a_big, v_big) = measure_warm(&big_store, &big_trie);
    assert!(
        v_big >= v_small + 50,
        "setup broken: big index should verify many more members ({v_small} -> {v_big})"
    );
    let alloc_growth = a_big as i64 - a_small as i64;
    let verif_growth = (v_big - v_small) as i64;
    assert!(
        alloc_growth < verif_growth,
        "allocations grew with verifications: +{alloc_growth} allocs for +{verif_growth} \
         verifications (per-verification allocation is back)"
    );
}

#[test]
fn warm_dtw_trie_query_recycles_child_columns() {
    let _g = measure_lock();
    // One trajectory equals the query; the decoys share its opening cell
    // and then scatter over a fine grid. That cell's node verifies the
    // match (dk = 0) before it expands its hundreds of children, which are
    // all evaluated and pruned: the bigger index evaluates many more
    // children without keeping more bound states alive.
    let query = vec![Point::new(0.1, 0.1), Point::new(0.15, 0.1)];
    let grid = Grid::new(
        repose_model::Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)),
        5,
    );
    let build = |decoys: u64| {
        let mut store = TrajStore::new();
        store.push(0, &query);
        let mut h = 0x2545_f491_4f6c_dd1du64;
        let mut coord = || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            (h % 8000) as f64 * 0.001
        };
        for i in 1..=decoys {
            let mut pts = query.clone();
            pts.extend((0..3).map(|_| Point::new(coord(), coord())));
            store.push(i, &pts);
        }
        let trie = RpTrie::build(&store, grid.clone(), RpTrieConfig::for_measure(Measure::Dtw));
        (store, trie)
    };
    let measure_warm = |store: &TrajStore, trie: &RpTrie| {
        let r = trie.top_k(store, &query, 1);
        assert_eq!(r.hits[0].dist, 0.0);
        // Every evaluated child is popped or pruned (or left in the
        // frontier); the root is popped without being a child.
        let children = r.stats.nodes_visited + r.stats.nodes_pruned - 1;
        let allocs = min_allocs_during(|| {
            let _ = trie.top_k(store, &query, 1);
        });
        (allocs, children)
    };
    let (small_store, small_trie) = build(40);
    let (big_store, big_trie) = build(400);
    let (a_small, c_small) = measure_warm(&small_store, &small_trie);
    let (a_big, c_big) = measure_warm(&big_store, &big_trie);
    assert!(
        c_big >= c_small + 200,
        "setup broken: big index should evaluate many more children ({c_small} -> {c_big})"
    );
    // Cloning the parent state for every child but the last allocated one
    // column per extra child; recycled columns leave only the logarithmic
    // growth of the search's own vectors.
    let alloc_growth = a_big as i64 - a_small as i64;
    let child_growth = (c_big - c_small) as i64;
    assert!(
        alloc_growth * 10 < child_growth,
        "allocations grew with child evaluations: +{alloc_growth} allocs for +{child_growth} \
         children (per-child bound states are back)"
    );
}

#[test]
fn warm_service_query_allocations_do_not_scale_with_delta_verifications() {
    let _g = measure_lock();
    let query: Vec<Point> = (0..24).map(|j| Point::new(j as f64 * 0.3, 0.5)).collect();

    let build_service = |delta: u64| {
        let base = arena(60, 24, 0.9).to_trajectories();
        let repose = Repose::build(
            &repose_model::Dataset::from_trajectories(base),
            ReposeConfig::new(Measure::Frechet).with_partitions(2).with_delta(0.8),
        );
        // Cache off: every query must walk the real verification path.
        // Pool off: allocation counts must be deterministic run to run,
        // and pooled execution's publish counts (hence collector heap
        // growth) legitimately vary with thread interleaving.
        let svc = ReposeService::with_config(
            repose,
            ServiceConfig { cache_capacity: 0, pool_threads: 1, ..ServiceConfig::default() },
        );
        for i in 0..delta {
            let jit = (i % 9) as f64 * 0.11;
            svc.insert(Trajectory::new(
                10_000 + i,
                (0..24).map(|j| Point::new(j as f64 * 0.3 + jit, 0.5 + jit)).collect(),
            ))
            .unwrap();
        }
        svc
    };

    let measure_warm = |svc: &ReposeService| {
        let out = svc.query(&query, 5).unwrap(); // warm thread scratch + snapshot
        assert!(!out.cache_hit);
        let fp_before = DistScratch::thread_footprint();
        let mut verifications = 0;
        let a1 = min_allocs_during(|| {
            verifications = svc.query(&query, 5).unwrap().search.exact_computations;
        });
        let a2 = min_allocs_during(|| {
            let _ = svc.query(&query, 5);
        });
        assert_eq!(a1, a2, "warm service queries must be allocation-deterministic");
        assert_eq!(
            DistScratch::thread_footprint(),
            fp_before,
            "warm service query grew the thread scratch"
        );
        (a1, verifications)
    };

    let small = build_service(12);
    let big = build_service(96);
    let (a_small, v_small) = measure_warm(&small);
    let (a_big, v_big) = measure_warm(&big);
    assert!(
        v_big >= v_small + 40,
        "setup broken: bigger delta should add verifications ({v_small} -> {v_big})"
    );
    let alloc_growth = a_big as i64 - a_small as i64;
    let verif_growth = (v_big - v_small) as i64;
    assert!(
        alloc_growth < verif_growth,
        "service allocations grew with verifications: +{alloc_growth} allocs for \
         +{verif_growth} verifications"
    );
}

/// The refinement loop (`refine_by_bound`) with a warm scratch
/// and a reusable candidate buffer allocates only for its own bookkeeping
/// (the collector and the answer read from it), independent of candidate
/// count.
#[test]
fn warm_refinement_loop_allocations_independent_of_candidates() {
    let _g = measure_lock();
    let params = MeasureParams::with_eps(0.5);
    let query: Vec<Point> = (0..24).map(|j| Point::new(j as f64 * 0.3, 0.5)).collect();
    let mut scratch = DistScratch::new();

    let run = |store: &TrajStore, scratch: &mut DistScratch| -> u64 {
        let cands: Vec<(f64, u64, &[Point])> = (0..store.len())
            .map(|s| {
                (
                    params.lower_bound(Measure::Dtw, &query, store.points(s)),
                    store.id(s),
                    store.points(s),
                )
            })
            .collect();
        allocs_during(|| {
            let collector = SharedTopK::new(4);
            params.refine_by_bound(Measure::Dtw, &query, &collector, cands, |_| {}, scratch);
            assert_eq!(collector.hits().len(), 4);
        })
    };

    let small = arena(20, 24, 0.4);
    let big = arena(200, 24, 0.4);
    // Warm on the big arena first so buffers are final-size.
    let _ = run(&big, &mut scratch);
    let a_small = run(&small, &mut scratch);
    let a_big = run(&big, &mut scratch);
    // 180 extra candidates, all scored or bound-skipped: the scan itself
    // must not allocate per candidate (seed kernels did).
    assert!(
        (a_big as i64 - a_small as i64) < 20,
        "refinement allocations scale with candidates: {a_small} -> {a_big}"
    );
}
