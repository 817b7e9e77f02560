//! Exactness of the serving layer's pooled execution and incremental
//! compaction — the PR-5 stress harness extension.
//!
//! * **Pooled ≡ sequential**: `ReposeService::query` / `query_batch` on a
//!   worker pool of at least 4 threads must return *distance-identical*
//!   results (bit-for-bit equal sorted distance multisets — the paper's
//!   Definition 3 permits tied *ids* to differ) to the sequential path
//!   (`pool_threads: 1`), for all six measures, under heavy k-th-boundary
//!   ties, with live delta buffers and tombstones in play. Each reported
//!   distance must also be the candidate's true exact distance.
//! * **Incremental ≡ full**: `compact()` (selective per-partition
//!   rebuild) must leave the service answering exactly like
//!   `compact_full()` (global re-partition) and like a from-scratch
//!   rebuild over the same live set, under interleaved writes — and its
//!   rebuild counters must prove only dirtied partitions were touched.
//!
//! Comparisons repeat across several queries and k values (including k
//! cutting through tie groups) to shake out pool interleavings.

use repose::{Repose, ReposeConfig};
use repose_distance::{Measure, MeasureParams};
use repose_model::{Dataset, Point, Trajectory};
use repose_service::{ReposeService, ServiceConfig, ServiceOutcome};
use repose_testkit::{sentinels, tie_dataset, tie_queries as queries, tie_traj};
use std::sync::Arc;

const POOL_THREADS: usize = 4;

fn config(measure: Measure, partitions: usize) -> ReposeConfig {
    ReposeConfig::new(measure)
        .with_partitions(partitions)
        .with_delta(0.7)
        .with_params(MeasureParams::with_eps(0.5))
}

fn service(measure: Measure, pool_threads: usize) -> ReposeService {
    let svc = ReposeService::with_config(
        Repose::build(&tie_dataset(0..100), config(measure, 8)),
        // Cache off so every query exercises the search path under test.
        ServiceConfig { cache_capacity: 0, pool_threads, ..ServiceConfig::default() },
    );
    // A live delta on every partition + tombstones over frozen data:
    // the pooled path must handle all three sources at once.
    for id in 100..140 {
        svc.insert(tie_traj(id)).unwrap();
    }
    for id in [3u64, 17, 44, 90] {
        svc.remove(id).unwrap();
    }
    for id in 55..60 {
        // Upserts: moved copies shadow frozen originals.
        let mut t = tie_traj(id);
        for p in &mut t.points {
            p.y += 2.5;
        }
        svc.insert(t).unwrap();
    }
    svc
}

fn sorted_dist_bits(o: &ServiceOutcome) -> Vec<u64> {
    repose_testkit::sorted_dist_bits(o.hits.iter().map(|h| h.dist))
}

/// The live set `service(measure, _)` constructs, for truth checking.
fn live_set() -> Vec<Trajectory> {
    let mut live: Vec<Trajectory> = (0..140u64)
        .filter(|&id| !matches!(id, 3 | 17 | 44 | 90) && !(55..60).contains(&id))
        .map(tie_traj)
        .collect();
    for id in 55..60 {
        let mut t = tie_traj(id);
        for p in &mut t.points {
            p.y += 2.5;
        }
        live.push(t);
    }
    live.extend(sentinels());
    live
}

/// Acceptance criterion: pooled parallel `query` returns bitwise the same
/// distance multisets as the sequential path for all six measures, with k
/// values that cut straight through duplicate groups (k = 3, 7 inside
/// 5-sized tie groups).
#[test]
fn pooled_query_matches_sequential_for_every_measure() {
    for measure in Measure::ALL {
        let pooled = service(measure, POOL_THREADS);
        assert_eq!(pooled.pool_threads(), POOL_THREADS);
        let sequential = service(measure, 1);
        assert_eq!(sequential.pool_threads(), 1);
        let params = MeasureParams::with_eps(0.5);
        let live = live_set();
        for q in &queries() {
            for k in [1usize, 3, 7, 25] {
                // Repeat to shake out pool interleavings.
                for round in 0..3 {
                    let p = pooled.query(q, k).unwrap();
                    let s = sequential.query(q, k).unwrap();
                    assert_eq!(
                        sorted_dist_bits(&p),
                        sorted_dist_bits(&s),
                        "{measure} k={k} round={round}: pooled and sequential \
                         distance multisets differ"
                    );
                    // Every reported distance is its id's true distance.
                    for h in &p.hits {
                        let t = live.iter().find(|t| t.id == h.id).expect("live id");
                        let truth = params.distance(measure, q, &t.points);
                        assert_eq!(
                            h.dist.to_bits(),
                            truth.to_bits(),
                            "{measure} k={k}: reported distance is not exact"
                        );
                    }
                }
            }
        }
    }
}

/// Acceptance criterion for the batch path: every query of a pooled batch
/// answers exactly like the sequential path's individual queries.
#[test]
fn pooled_query_batch_matches_sequential_for_every_measure() {
    for measure in Measure::ALL {
        let pooled = service(measure, POOL_THREADS);
        let sequential = service(measure, 1);
        let qs = queries();
        for k in [1usize, 7, 25] {
            let batch = pooled.query_batch(&qs, k).unwrap();
            assert_eq!(batch.len(), qs.len());
            for (q, b) in qs.iter().zip(&batch) {
                let s = sequential.query(q, k).unwrap();
                assert_eq!(
                    sorted_dist_bits(b),
                    sorted_dist_bits(&s),
                    "{measure} k={k}: batch query differs from sequential"
                );
                assert!(!b.cache_hit);
                assert!(b.delta_candidates > 0, "delta must be scanned");
            }
        }
    }
}

/// Pooled queries racing writers stay well-formed and converge to a
/// rebuild — the PR-1 stress harness re-run on the pooled path.
#[test]
fn pooled_queries_race_writers_and_compactions() {
    let measure = Measure::Hausdorff;
    let svc = Arc::new(service(measure, POOL_THREADS));
    let qs = queries();
    let mut handles = Vec::new();
    for w in 0..2u64 {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                svc.insert(tie_traj(500 + w * 100 + i)).unwrap();
                if i % 9 == 0 {
                    svc.compact().unwrap();
                }
            }
        }));
    }
    for r in 0..3usize {
        let svc = Arc::clone(&svc);
        let qs = qs.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..30 {
                let out = svc.query(&qs[(r + round) % qs.len()], 10).unwrap();
                for w in out.hits.windows(2) {
                    assert!(
                        w[0].dist < w[1].dist
                            || (w[0].dist == w[1].dist && w[0].id < w[1].id),
                        "unsorted or duplicated hits under racing writes"
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }

    // Final state answers like a from-scratch rebuild of the same live set.
    let mut live = live_set();
    for w in 0..2u64 {
        for i in 0..25 {
            live.push(tie_traj(500 + w * 100 + i));
        }
    }
    let rebuilt = Repose::build(&Dataset::from_trajectories(live), config(measure, 8));
    for q in &qs {
        let got = svc.query(q, 12).unwrap();
        let want = rebuilt.query(q, 12);
        let mut gd: Vec<u64> = got.hits.iter().map(|h| h.dist.to_bits()).collect();
        let mut wd: Vec<u64> = want.hits.iter().map(|h| h.dist.to_bits()).collect();
        gd.sort_unstable();
        wd.sort_unstable();
        assert_eq!(gd, wd, "post-race pooled state differs from rebuilt index");
    }
}

/// Acceptance criterion: incremental compaction rebuilds *only* dirtied
/// partitions (counter-asserted) and answers exactly like the full
/// rebuild under interleaved writes.
#[test]
fn incremental_compact_matches_full_rebuild_and_counts_dirty_partitions() {
    let measure = Measure::Frechet;
    let n = 8usize;
    let incremental = service(measure, POOL_THREADS);
    let full = service(measure, POOL_THREADS);

    // Round 1: both services compact their identical backlogs.
    let a = incremental.compact().unwrap();
    let b = full.compact_full().unwrap();
    assert_eq!(a, b, "live counts diverged");
    let stats = incremental.stats();
    assert_eq!(stats.partitions, n);
    // The initial backlog touches every partition (inserts 100..140 cover
    // all residues mod 8), so the first compact legitimately rebuilds all.
    assert_eq!(stats.last_compact_rebuilt, n);
    assert_eq!(full.stats().last_compact_rebuilt, n);

    // Round 2: writes confined to delta partition 1 (ids ≡ 1 mod 8;
    // fresh ids, so no frozen partition is tombstone-dirtied elsewhere).
    for svc in [&incremental, &full] {
        for base in [2001u64, 2003, 2009, 2011] {
            svc.insert(tie_traj(base * 8 + 1)).unwrap();
        }
    }
    let a = incremental.compact().unwrap();
    let b = full.compact_full().unwrap();
    assert_eq!(a, b);
    let inc_stats = incremental.stats();
    assert!(
        inc_stats.last_compact_rebuilt < n,
        "incremental compact rebuilt all {n} partitions for a 2-partition write set"
    );
    assert_eq!(
        full.stats().last_compact_rebuilt,
        n,
        "compact_full must rebuild everything"
    );
    assert!(inc_stats.partitions_rebuilt < full.stats().partitions_rebuilt);

    // Round 3: a no-op compact rebuilds nothing and changes nothing
    // (distance multisets — tied ids may legitimately differ between
    // pooled runs, Definition 3).
    let before: Vec<Vec<u64>> = queries()
        .iter()
        .map(|q| sorted_dist_bits(&incremental.query(q, 9).unwrap()))
        .collect();
    incremental.compact().unwrap();
    assert_eq!(incremental.stats().last_compact_rebuilt, 0);
    let after: Vec<Vec<u64>> = queries()
        .iter()
        .map(|q| sorted_dist_bits(&incremental.query(q, 9).unwrap()))
        .collect();
    assert_eq!(before, after, "no-op compact changed answers");

    // Round 4: a single delete dirties exactly one partition.
    incremental.remove(10).unwrap(); // a frozen id (in exactly one partition)
    full.remove(10).unwrap();
    incremental.compact().unwrap();
    assert_eq!(incremental.stats().last_compact_rebuilt, 1);

    // Throughout: both services agree with a from-scratch rebuild.
    let mut live = live_set();
    for base in [2001u64, 2003, 2009, 2011] {
        live.push(tie_traj(base * 8 + 1));
    }
    live.retain(|t| t.id != 10);
    let rebuilt = Repose::build(&Dataset::from_trajectories(live), config(measure, 8));
    full.compact_full().unwrap();
    for q in &queries() {
        let i = incremental.query(q, 11).unwrap();
        let f = full.query(q, 11).unwrap();
        let r = rebuilt.query(q, 11);
        let key = |hits: &[repose::Hit]| {
            let mut d: Vec<u64> = hits.iter().map(|h| h.dist.to_bits()).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(key(&i.hits), key(&f.hits), "incremental != full");
        assert_eq!(key(&i.hits), key(&r.hits), "incremental != rebuilt");
    }
}

/// Writes that leave the frozen region force the documented fall back to
/// a full rebuild (region + grid must be recomputed for soundness).
#[test]
fn out_of_region_writes_fall_back_to_full_rebuild() {
    let svc = service(Measure::Hausdorff, 1);
    svc.compact().unwrap();
    svc.insert(Trajectory::new(
        9_999_999,
        vec![Point::new(500.0, 500.0)], // far outside the sentinel fence
    ))
    .unwrap();
    let before = svc.len();
    svc.compact().unwrap();
    assert_eq!(svc.len(), before);
    assert_eq!(
        svc.stats().last_compact_rebuilt,
        8,
        "out-of-region write must trigger the full rebuild"
    );
    let q: Vec<Point> = vec![Point::new(499.0, 499.0)];
    assert_eq!(svc.query(&q, 1).unwrap().hits[0].id, 9_999_999);
}

/// A repeated batch is served entirely from the cache and agrees with the
/// batch that filled it.
#[test]
fn repeat_batches_are_served_from_cache_and_agree() {
    let measure = Measure::Frechet;
    let svc = ReposeService::with_config(
        Repose::build(&tie_dataset(0..100), config(measure, 8)),
        ServiceConfig { cache_capacity: 64, pool_threads: POOL_THREADS, ..ServiceConfig::default() },
    );
    let qs = queries();
    let first = svc.query_batch(&qs, 5).unwrap();
    let second = svc.query_batch(&qs, 5).unwrap();
    for (a, b) in first.iter().zip(&second) {
        assert!(!a.cache_hit);
        assert!(b.cache_hit, "repeat batch should be all cache hits");
        assert_eq!(
            a.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            b.hits.iter().map(|h| h.id).collect::<Vec<_>>()
        );
    }
}

/// Duplicate queries inside one pooled batch collapse onto a single
/// execution: the twins report as cache hits with the same answer, and
/// only one search's work is charged.
#[test]
fn duplicate_batch_queries_share_one_execution() {
    let svc = ReposeService::with_config(
        Repose::build(&tie_dataset(0..100), config(Measure::Hausdorff, 8)),
        ServiceConfig { cache_capacity: 64, pool_threads: POOL_THREADS, ..ServiceConfig::default() },
    );
    let q = queries().remove(0);
    let batch = svc.query_batch(&[q.clone(), q.clone(), q.clone()], 6).unwrap();
    assert_eq!(batch.len(), 3);
    assert!(!batch[0].cache_hit, "first copy executes");
    assert!(batch[1].cache_hit && batch[2].cache_hit, "twins are served, not searched");
    assert_eq!(batch[1].search.exact_computations, 0);
    for twin in &batch[1..] {
        assert_eq!(
            twin.hits.iter().map(|h| (h.dist.to_bits(), h.id)).collect::<Vec<_>>(),
            batch[0].hits.iter().map(|h| (h.dist.to_bits(), h.id)).collect::<Vec<_>>(),
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.cache_misses, 1, "one execution for three identical queries");
    assert_eq!(stats.cache_hits, 2);
}

/// Bound-ordered scheduling surfaces per-partition task times; the most
/// promising partition's early publish keeps total verification work at
/// or below the old arbitrary-order path (structural sanity, not timing).
#[test]
fn partition_times_are_reported_per_partition() {
    let svc = service(Measure::Hausdorff, POOL_THREADS);
    let out = svc.query(&queries()[0], 5).unwrap();
    assert_eq!(out.partition_times.len(), 8);
    // Cache hit path reports no partition times.
    let cached_svc = ReposeService::with_config(
        Repose::build(&tie_dataset(0..40), config(Measure::Hausdorff, 4)),
        ServiceConfig { cache_capacity: 8, pool_threads: POOL_THREADS, ..ServiceConfig::default() },
    );
    cached_svc.query(&queries()[0], 3).unwrap();
    let hit = cached_svc.query(&queries()[0], 3).unwrap();
    assert!(hit.cache_hit);
    assert!(hit.partition_times.is_empty());
}
