//! Integration tests of the online serving layer: exactness of the
//! trie + delta search, cache invalidation, upsert/delete semantics, and
//! concurrency (interleaved writers/readers, queries racing compaction).

use repose::{Hit, Repose, ReposeConfig};
use repose_distance::{Measure, MeasureParams};
use repose_model::{Dataset, Point, Trajectory};
use repose_service::{ReposeService, ServiceConfig, ServiceError, ServiceOutcome};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Deterministic pseudo-random trajectory `id` with jittered coordinates
/// (distinct ids never tie in distance).
fn traj(id: u64) -> Trajectory {
    let gx = (id % 7) as f64 * 11.0;
    let gy = (id / 7 % 5) as f64 * 13.0;
    let jit = (id % 101) as f64 * 1e-4 + (id % 13) as f64 * 3e-6;
    Trajectory::new(
        id,
        (0..10)
            .map(|s| Point::new(gx + s as f64 * 0.4 + jit, gy + jit * 0.7))
            .collect(),
    )
}

fn dataset(ids: impl Iterator<Item = u64>) -> Dataset {
    Dataset::from_trajectories(ids.map(traj).collect())
}

fn config(measure: Measure) -> ReposeConfig {
    ReposeConfig::new(measure)
        .with_partitions(6)
        .with_delta(0.7)
        .with_params(MeasureParams::with_eps(0.5))
}

fn queries() -> Vec<Vec<Point>> {
    [(0.1, 0.2), (11.3, 13.1), (22.7, 26.2), (33.0, 39.5), (5.0, 50.0)]
        .iter()
        .map(|&(x, y)| (0..10).map(|s| Point::new(x + s as f64 * 0.4, y)).collect())
        .collect()
}

/// Ids returned by a service query.
fn served_ids(service: &ReposeService, q: &[Point], k: usize) -> Vec<u64> {
    service.query(q, k).unwrap().hits.iter().map(|h| h.id).collect()
}

/// An answer's distances as bit patterns, in order.
fn dist_bits(hits: &[Hit]) -> Vec<u64> {
    hits.iter().map(|h| h.dist.to_bits()).collect()
}

/// Ids returned by a freshly built offline deployment.
fn rebuilt_ids(data: &Dataset, cfg: ReposeConfig, q: &[Point], k: usize) -> Vec<u64> {
    let r = Repose::build(data, cfg);
    r.query(q, k).hits.iter().map(|h| h.id).collect()
}

#[test]
fn delta_search_is_exact_for_every_measure() {
    for measure in Measure::ALL {
        let cfg = config(measure);
        let params = MeasureParams::with_eps(0.5);
        let service = ReposeService::new(Repose::build(&dataset(0..80), cfg));
        // Buffer 40 more trajectories without compacting.
        for id in 80..120 {
            service.insert(traj(id)).unwrap();
        }
        let full = dataset(0..120);
        for q in &queries() {
            for k in [1, 7, 30] {
                let got = service.query(q, k).unwrap();
                let want = Repose::build(&full, cfg).query(q, k);
                if matches!(measure, Measure::Lcss | Measure::Edr) {
                    // Quantized measures tie freely; Definition 3 permits
                    // any tied subset. Compare the distance vector and
                    // check every reported distance is the true one.
                    assert_eq!(got.hits.len(), want.hits.len(), "{measure} k={k}");
                    for (g, w) in got.hits.iter().zip(&want.hits) {
                        assert!(
                            (g.dist - w.dist).abs() < 1e-9,
                            "{measure} k={k}: distance vector differs"
                        );
                        let t = full
                            .trajectories()
                            .iter()
                            .find(|t| t.id == g.id)
                            .expect("known id");
                        let true_d = params.distance(measure, q, &t.points);
                        assert!(
                            (g.dist - true_d).abs() < 1e-9,
                            "{measure} k={k}: reported distance is wrong"
                        );
                    }
                } else {
                    // Continuous measures on jittered data: no ties, the
                    // id lists must agree exactly.
                    assert_eq!(
                        got.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
                        want.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
                        "{measure} k={k}: trie+delta differs from rebuilt index"
                    );
                }
            }
        }
    }
}

/// `traj` moved by `(dx, dy)`.
fn shifted(mut t: Trajectory, dx: f64, dy: f64) -> Trajectory {
    for p in &mut t.points {
        p.x += dx;
        p.y += dy;
    }
    t
}

/// One query's hits through each front: `query`, `query_batch` (beside a
/// second query) and `query_scatter` with no seed.
fn fronts(service: &ReposeService, q: &[Point], k: usize) -> [(&'static str, Vec<Hit>); 3] {
    let single = service.query(q, k).unwrap().hits;
    let batch = [q.to_vec(), queries()[1].clone()];
    let batched = service.query_batch(&batch, k).unwrap().swap_remove(0).hits;
    let scattered = service.query_scatter(q, k, f64::INFINITY).unwrap().hits;
    [("query", single), ("query_batch", batched), ("query_scatter", scattered)]
}

#[test]
fn upsert_and_delete_semantics() {
    let params = MeasureParams::with_eps(0.5);
    let q: Vec<Point> = (0..10).map(|s| Point::new(s as f64 * 0.4, 0.0)).collect();
    let ids = |hits: &[Hit]| hits.iter().map(|h| h.id).collect::<Vec<_>>();
    for measure in Measure::ALL {
        let cfg = config(measure);
        // Cache off: every front must search.
        let service = ReposeService::with_config(
            Repose::build(&dataset(0..30), cfg),
            ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() },
        );
        assert_eq!(service.len(), 30);

        // Delete a frozen trajectory: it must vanish from results.
        let victim = served_ids(&service, &q, 1)[0];
        service.remove(victim).unwrap();
        for (front, hits) in fronts(&service, &q, 30) {
            assert!(!ids(&hits).contains(&victim), "{measure} {front}");
        }
        assert_eq!(service.len(), 29);

        // Re-insert it moved elsewhere (upsert): reappears with new geometry.
        service.insert(shifted(traj(victim), 100.0, 100.0)).unwrap();
        assert_eq!(service.len(), 30);
        let far_q: Vec<Point> = (0..10)
            .map(|s| Point::new(100.0 + s as f64 * 0.4, 100.0))
            .collect();
        for (front, hits) in fronts(&service, &far_q, 1) {
            assert_eq!(ids(&hits), vec![victim], "{measure} {front}");
        }

        // Upsert the id twice more: still one live copy, latest geometry
        // wins. Every fifth frozen id moves too, so the checks below do not
        // hinge on which partitions hold an id's frozen row and its delta
        // version.
        service.insert(traj(victim)).unwrap();
        let moved: Vec<u64> = (0..30).filter(|&i| i == victim || i % 5 == 2).collect();
        let latest = |id: u64| shifted(traj(id), 0.0, 0.6);
        for &id in &moved {
            service.insert(latest(id)).unwrap();
        }
        assert_eq!(service.len(), 30);

        // Deleting a never-inserted id is a no-op.
        service.remove(9999).unwrap();
        assert_eq!(service.len(), 30);

        // Each upserted id comes back once, at its new distance, although
        // its tombstoned frozen row lies closer to a query on top of it.
        for &id in &moved {
            let at = traj(id).points;
            let frozen_d = params.distance(measure, &at, &at);
            let new_d = params.distance(measure, &at, &latest(id).points);
            assert!(frozen_d < new_d, "{measure}: the frozen row must lie closer");
            for (front, hits) in fronts(&service, &at, 30) {
                let mine: Vec<&Hit> = hits.iter().filter(|h| h.id == id).collect();
                assert_eq!(mine.len(), 1, "{measure} {front}: id {id} must appear once");
                assert_eq!(mine[0].dist.to_bits(), new_d.to_bits(), "{measure} {front} {id}");
            }
        }

        // Everything still matches a from-scratch rebuild. Quantized
        // measures tie freely (Definition 3 permits any tied subset), so
        // for them only the distances must agree.
        let final_trajs: Vec<Trajectory> = (0..30)
            .map(|i| if moved.contains(&i) { latest(i) } else { traj(i) })
            .collect();
        let rebuilt = Repose::build(&Dataset::from_trajectories(final_trajs), cfg);
        let quantized = matches!(measure, Measure::Lcss | Measure::Edr);
        let key = |hits: &[Hit]| -> Vec<(u64, u64)> {
            hits.iter()
                .map(|h| (h.dist.to_bits(), if quantized { 0 } else { h.id }))
                .collect()
        };
        for k in [1, 5, 30] {
            let want = key(&rebuilt.query(&q, k).hits);
            for (front, hits) in fronts(&service, &q, k) {
                assert_eq!(key(&hits), want, "{measure} {front} k={k}");
            }
        }
    }
}

#[test]
fn cached_results_reflect_every_write() {
    let cfg = config(Measure::Hausdorff);
    let service = ReposeService::new(Repose::build(&dataset(0..40), cfg));
    let q: Vec<Point> = (0..10).map(|s| Point::new(s as f64 * 0.4, 0.05)).collect();

    // Prime the cache, then verify a hit.
    let first = service.query(&q, 5).unwrap();
    assert!(!first.cache_hit);
    let second = service.query(&q, 5).unwrap();
    assert!(second.cache_hit, "repeat query should hit the cache");
    assert_eq!(
        first.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
        second.hits.iter().map(|h| h.id).collect::<Vec<_>>()
    );

    // Insert a trajectory that must dominate this query: the previously
    // cached answer is now stale and must not be served.
    let winner = Trajectory::new(777, q.clone());
    service.insert(winner).unwrap();
    let after = service.query(&q, 5).unwrap();
    assert!(!after.cache_hit, "cache served a stale result across a write");
    assert_eq!(after.hits[0].id, 777);
    assert!(after.hits[0].dist.abs() < 1e-12);

    // Deletes invalidate too.
    service.remove(777).unwrap();
    let post_delete = service.query(&q, 5).unwrap();
    assert!(!post_delete.cache_hit);
    assert_ne!(post_delete.hits[0].id, 777);

    // Compaction keeps the live set and every distance, so it evicts
    // nothing: the cached answer is served, bitwise a fresh search's.
    let pre = served_ids(&service, &q, 5);
    service.compact().unwrap();
    let post = service.query(&q, 5).unwrap();
    assert!(post.cache_hit, "a compaction evicted a cached answer");
    assert_eq!(pre, post.hits.iter().map(|h| h.id).collect::<Vec<_>>());
    let fresh = service.query_scatter(&q, 5, f64::INFINITY).unwrap();
    assert_eq!(dist_bits(&post.hits), dist_bits(&fresh.hits));

    let stats = service.stats();
    assert!(stats.cache_hits >= 2);
    assert!(stats.cache_misses >= 3);
    assert_eq!(stats.cache_stale, 2, "the insert's and the delete's");
    assert_eq!(stats.cache_revalidated, 0, "nothing to walk across a compaction");
    assert!(stats.cache_hit_rate() > 0.0);
}

/// The cache key is the query's exact coordinate bits: a query a hair
/// away from a cached one is searched afresh and answered with its own
/// distances, bitwise those of a brute-force scan.
#[test]
fn near_identical_query_is_not_served_a_cached_neighbour() {
    let (measure, params) = (Measure::Hausdorff, MeasureParams::with_eps(0.5));
    let data = dataset(0..60);
    let service = ReposeService::new(Repose::build(&data, config(measure)));
    let q: Vec<Point> = (0..10).map(|s| Point::new(s as f64 * 0.4, 0.05)).collect();
    let mut near = q.clone();
    near[9].y += 1e-9;

    assert!(!service.query(&q, 5).unwrap().cache_hit);
    let got = service.query(&near, 5).unwrap();
    assert!(!got.cache_hit, "a different query was served from the cache");
    let mut want: Vec<u64> = data
        .trajectories()
        .iter()
        .map(|t| params.distance(measure, &near, &t.points).to_bits())
        .collect();
    want.sort_unstable();
    want.truncate(5);
    assert_eq!(got.hits.iter().map(|h| h.dist.to_bits()).collect::<Vec<_>>(), want);
}

#[test]
fn compaction_drains_deltas_and_preserves_answers() {
    let cfg = config(Measure::Frechet);
    let service = ReposeService::new(Repose::build(&dataset(0..50), cfg));
    for id in 50..90 {
        service.insert(traj(id)).unwrap();
    }
    for id in [3, 17, 60] {
        service.remove(id).unwrap();
    }
    let before: Vec<Vec<u64>> = queries()
        .iter()
        .map(|q| served_ids(&service, q, 12))
        .collect();
    let stats = service.stats();
    assert!(stats.delta_len > 0 && stats.tombstones > 0);

    let rebuilt = service.compact().unwrap();
    assert_eq!(rebuilt, 87); // 50 + 40 - 3 deletes
    let stats = service.stats();
    assert_eq!(
        (stats.delta_len, stats.tombstones),
        (0, 0),
        "compaction must drain fully-covered deltas and tombstones"
    );

    let after: Vec<Vec<u64>> = queries()
        .iter()
        .map(|q| served_ids(&service, q, 12))
        .collect();
    assert_eq!(before, after, "compaction changed query answers");
    assert_eq!(service.stats().compactions, 1);
}

/// Acceptance criterion: ≥4 threads interleaving inserts and queries; the
/// final state must answer exactly like a from-scratch rebuild over the
/// same live data.
#[test]
fn interleaved_writers_and_readers_converge_to_rebuild() {
    let cfg = config(Measure::Hausdorff);
    let service = Arc::new(ReposeService::new(Repose::build(&dataset(0..60), cfg)));
    let qs = queries();

    // 3 writer threads × 30 inserts each, disjoint id ranges, racing
    // 3 reader threads issuing queries the whole time.
    let mut handles = Vec::new();
    for w in 0..3u64 {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            for i in 0..30 {
                service.insert(traj(1000 + w * 100 + i)).unwrap();
                if i % 7 == 0 {
                    // Delete some frozen ids.
                    service.remove(w * 10 + i % 10).unwrap();
                }
            }
        }));
    }
    for r in 0..3usize {
        let service = Arc::clone(&service);
        let qs = qs.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..40 {
                let q = &qs[(r + round) % qs.len()];
                let out = service.query(q, 10).unwrap();
                // Mid-stream answers must be well-formed: sorted, deduped.
                for w in out.hits.windows(2) {
                    assert!(
                        w[0].dist < w[1].dist
                            || (w[0].dist == w[1].dist && w[0].id < w[1].id)
                    );
                    assert_ne!(w[0].id, w[1].id, "duplicate id served");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }

    // Reconstruct the exact live set the interleaving produced.
    let mut deleted = std::collections::HashSet::new();
    for w in 0..3u64 {
        for i in 0..30 {
            if i % 7 == 0 {
                deleted.insert(w * 10 + i % 10);
            }
        }
    }
    let mut live: Vec<Trajectory> = (0..60)
        .filter(|id| !deleted.contains(id))
        .map(traj)
        .collect();
    for w in 0..3u64 {
        for i in 0..30 {
            live.push(traj(1000 + w * 100 + i));
        }
    }
    let full = Dataset::from_trajectories(live);
    assert_eq!(service.len(), full.len());
    for q in &qs {
        for k in [1, 10, 50] {
            assert_eq!(
                served_ids(&service, q, k),
                rebuilt_ids(&full, cfg, q, k),
                "k={k}: post-race state differs from rebuilt index"
            );
        }
    }

    // ...and the same equivalence must hold after compaction.
    service.compact().unwrap();
    for q in &qs {
        assert_eq!(served_ids(&service, q, 25), rebuilt_ids(&full, cfg, q, 25));
    }
}

/// Readers racing `compact()` must never observe partial state: every
/// answer equals the (unchanging) logical answer, whether it was computed
/// against the old frozen state, the new one, or either plus deltas.
#[test]
fn queries_racing_compaction_never_see_partial_state() {
    let cfg = config(Measure::Hausdorff);
    let service = Arc::new(ReposeService::with_config(
        Repose::build(&dataset(0..70), cfg),
        // Disable the cache so every query exercises the search path.
        ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() },
    ));
    for id in 70..100 {
        service.insert(traj(id)).unwrap();
    }
    let expected: Vec<Vec<u64>> = {
        let full = dataset(0..100);
        queries()
            .iter()
            .map(|q| rebuilt_ids(&full, cfg, q, 15))
            .collect()
    };

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for r in 0..4usize {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let qs = queries();
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            let mut rounds = 0u32;
            while !stop.load(Ordering::Relaxed) || rounds < 5 {
                let qi = (r + rounds as usize) % qs.len();
                let got = service.query(&qs[qi], 15).unwrap();
                assert_eq!(
                    got.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
                    expected[qi],
                    "query observed partial compaction state"
                );
                rounds += 1;
            }
        }));
    }
    // Compact repeatedly while the readers hammer away.
    for _ in 0..3 {
        service.compact().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("reader panicked");
    }
    assert_eq!(service.stats().compactions, 3);
}

#[test]
fn service_on_empty_deployment() {
    let cfg = config(Measure::Hausdorff);
    let service = ReposeService::new(Repose::build(&Dataset::new(), cfg));
    assert!(service.is_empty());
    let q = vec![Point::new(0.0, 0.0)];
    assert!(service.query(&q, 3).unwrap().hits.is_empty());

    // Grow it purely through the online path.
    for id in 0..12 {
        service.insert(traj(id)).unwrap();
    }
    assert_eq!(service.len(), 12);
    let out = service.query(&queries()[0], 5).unwrap();
    assert_eq!(out.hits.len(), 5);
    assert_eq!(
        served_ids(&service, &queries()[0], 5),
        rebuilt_ids(&dataset(0..12), cfg, &queries()[0], 5)
    );
    service.compact().unwrap();
    assert_eq!(service.len(), 12);
    assert_eq!(
        served_ids(&service, &queries()[0], 5),
        rebuilt_ids(&dataset(0..12), cfg, &queries()[0], 5)
    );
}

#[test]
fn delta_scan_abandons_hopeless_candidates() {
    // A large uncompacted write burst, mostly far from the query: the
    // lower-bound-sorted delta scan must refute most candidates without
    // full-cost exact scoring, while the answer stays exact.
    let cfg = config(Measure::Hausdorff);
    let service = ReposeService::new(Repose::build(&dataset(0..40), cfg));
    for id in 40..120 {
        service.insert(traj(id)).unwrap();
    }
    let q = &queries()[0];
    let out = service.query(q, 3).unwrap();
    assert!(out.delta_candidates > 0, "delta must be scanned");
    assert!(
        out.search.exact_abandoned > 0,
        "hopeless delta candidates should be abandoned, outcome scanned {} / abandoned {}",
        out.delta_candidates,
        out.search.exact_abandoned
    );
    assert_eq!(
        out.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
        rebuilt_ids(&dataset(0..120), cfg, q, 3)
    );
}

#[test]
fn batch_queries_and_latency_stats() {
    let cfg = config(Measure::Hausdorff);
    let service = ReposeService::new(Repose::build(&dataset(0..40), cfg));
    for id in 40..50 {
        service.insert(traj(id)).unwrap();
    }
    let qs = queries();
    let outcomes = service.query_batch(&qs, 6).unwrap();
    assert_eq!(outcomes.len(), qs.len());
    for (q, o) in qs.iter().zip(&outcomes) {
        assert_eq!(
            o.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            served_ids(&service, q, 6)
        );
        assert!(o.delta_candidates > 0, "delta must be scanned");
    }
    let stats = service.stats();
    assert!(stats.queries >= 10);
    assert_eq!(stats.inserts, 10);
    assert!(stats.read_latency.count > 0);
    assert!(stats.write_latency.count == 10);
    assert!(stats.read_latency.p99 >= stats.read_latency.p50);
}

/// The three query fronts are one engine: over frozen data + live delta
/// entries + tombstones, `query`, `query_batch` and an unseeded
/// `query_scatter` run the same search stage (one frontier task per pool
/// thread), so at one pool thread they agree exactly — tie resolution,
/// work counters and task count included. A `query_scatter` seeded with
/// the k-th distance keeps every distance, ties at the seed included.
#[test]
fn three_fronts_one_engine_for_every_measure() {
    let k = 9;
    let (q, q2) = (&queries()[1], &queries()[2]);
    for measure in Measure::ALL {
        let service = |pool_threads| {
            let svc = ReposeService::with_config(
                Repose::build(&dataset(0..80), config(measure)),
                // Cache off: every front must search.
                ServiceConfig { cache_capacity: 0, pool_threads, ..ServiceConfig::default() },
            );
            for id in 80..110 {
                svc.insert(traj(id)).unwrap();
            }
            for id in [8u64, 15, 36, 85] {
                svc.remove(id).unwrap();
            }
            svc
        };
        let fronts = |svc: &ReposeService| {
            let single = svc.query(q, k).unwrap();
            let batched = svc.query_batch(&[q.clone(), q2.clone()], k).unwrap().swap_remove(0);
            let scattered = svc.query_scatter(q, k, f64::INFINITY).unwrap();
            [single, batched, scattered]
        };
        let list = |o: &ServiceOutcome| -> Vec<(u64, u64)> {
            o.hits.iter().map(|h| (h.dist.to_bits(), h.id)).collect()
        };
        let dists = |o: &ServiceOutcome| -> Vec<u64> {
            o.hits.iter().map(|h| h.dist.to_bits()).collect()
        };

        let sequential = service(1);
        let [single, batched, scattered] = fronts(&sequential);
        assert_eq!(single.hits.len(), k, "{measure}");
        assert!(single.delta_candidates > 0, "{measure}: delta must be scanned");
        assert_eq!(single.partition_times.len(), 1, "{measure}: one frontier");
        for (name, other) in [("query_batch", &batched), ("query_scatter", &scattered)] {
            assert_eq!(list(&single), list(other), "{measure}: query vs {name}");
            assert_eq!(single.search, other.search, "{measure}: query vs {name}");
            assert_eq!(single.delta_candidates, other.delta_candidates, "{measure}: {name}");
            assert_eq!(
                single.partition_times.len(),
                other.partition_times.len(),
                "{measure}: query vs {name}"
            );
        }
        let kth = single.hits[k - 1].dist;
        let seeded = sequential.query_scatter(q, k, kth).unwrap();
        assert_eq!(dists(&seeded), dists(&single), "{measure}: seeded query_scatter");

        // Pooled: interleavings may resolve ties differently (Definition
        // 3), the distances may not differ. Four pool threads over six
        // partitions: four frontiers, for every front.
        for o in &fronts(&service(4)) {
            assert_eq!(dists(o), dists(&single), "{measure}: pooled distances differ");
            assert_eq!(o.partition_times.len(), 4, "{measure}");
        }
    }
}

/// Trajectories with one NaN, +∞ or −∞ coordinate, in either dimension.
fn non_finite_inputs() -> Vec<Vec<Point>> {
    let mut out = Vec::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for p in [Point::new(bad, 1.0), Point::new(1.0, bad)] {
            let mut pts = queries()[0].clone();
            pts[4] = p;
            out.push(pts);
        }
    }
    out
}

fn small_service() -> ReposeService {
    ReposeService::new(Repose::build(&dataset(0..40), config(Measure::Dtw)))
}

#[test]
fn query_rejects_non_finite_coordinates() {
    let service = small_service();
    for q in non_finite_inputs() {
        assert!(matches!(service.query(&q, 3), Err(ServiceError::InvalidInput("query"))));
    }
    assert_eq!(service.query(&queries()[0], 3).unwrap().hits.len(), 3);
}

#[test]
fn query_batch_rejects_non_finite_coordinates() {
    // Pooled and sequential batch paths both refuse the whole call.
    for pool_threads in [1, 2] {
        let service = ReposeService::with_config(
            Repose::build(&dataset(0..40), config(Measure::Dtw)),
            ServiceConfig { pool_threads, ..ServiceConfig::default() },
        );
        for q in non_finite_inputs() {
            let batch = vec![queries()[0].clone(), q, queries()[1].clone()];
            assert!(matches!(
                service.query_batch(&batch, 3),
                Err(ServiceError::InvalidInput("query"))
            ));
        }
        assert_eq!(service.query_batch(&queries()[..2], 3).unwrap().len(), 2);
    }
}

#[test]
fn query_scatter_rejects_non_finite_coordinates() {
    let service = small_service();
    for q in non_finite_inputs() {
        let r = service.query_scatter(&q, 3, f64::INFINITY);
        assert!(matches!(r, Err(ServiceError::InvalidInput("query"))));
    }
    assert_eq!(service.query_scatter(&queries()[0], 3, f64::INFINITY).unwrap().hits.len(), 3);
}

#[test]
fn query_scatter_rejects_nan_and_negative_seeds() {
    let service = small_service();
    for seed in [-1.0, f64::NAN, f64::NEG_INFINITY] {
        let r = service.query_scatter(&queries()[0], 3, seed);
        assert!(matches!(r, Err(ServiceError::InvalidInput("seed"))), "{seed}");
    }
    for seed in [0.0, -0.0, f64::INFINITY] {
        assert!(service.query_scatter(&queries()[0], 3, seed).is_ok(), "{seed}");
    }
}

#[test]
fn insert_rejects_non_finite_coordinates_and_leaves_state_unchanged() {
    let service = small_service();
    let before = served_ids(&service, &queries()[0], 5);
    for (i, pts) in non_finite_inputs().into_iter().enumerate() {
        let r = service.insert_acked(Trajectory::new(1000 + i as u64, pts));
        assert!(matches!(r, Err(ServiceError::InvalidInput("inserted trajectory"))));
    }
    assert_eq!(service.len(), 40);
    assert_eq!(service.stats().inserts, 0);
    assert_eq!(served_ids(&service, &queries()[0], 5), before);
}
