use crate::{merge_top_k, refine_top_k, BaselineOutcome, BaselinePlacement};
use repose_cluster::{Cluster, ClusterConfig};
use repose_distance::{bound_exceeds, Hit, Measure, MeasureParams};
use repose_model::{Dataset, Mbr, Point, TrajStore};
use repose_zorder::geohash_cell;
use std::time::{Duration, Instant};

/// DITA configuration (Section VII-A: `NL = 32`, pivot size 4, neighbor
/// distance pivot selection).
#[derive(Debug, Clone, Copy)]
pub struct DitaConfig {
    /// Simulated cluster topology.
    pub cluster: ClusterConfig,
    /// Number of partitions.
    pub num_partitions: usize,
    /// Maximum pivot points per trajectory (`NL`).
    pub nl: usize,
    /// Candidate budget factor: threshold halving stops when the candidate
    /// count drops below `C·k`.
    pub c_factor: usize,
    /// Homogeneous (paper DITA) or heterogeneous (Heter-DITA, Table VIII).
    pub placement: BaselinePlacement,
}

impl DitaConfig {
    /// The paper's settings on the default cluster.
    pub fn paper_default() -> Self {
        DitaConfig {
            cluster: ClusterConfig::paper_default(),
            num_partitions: ClusterConfig::paper_default().total_cores(),
            nl: 32,
            c_factor: 5,
            placement: BaselinePlacement::Homogeneous,
        }
    }
}

/// One DITA partition: the trajectory arena plus, per slot, the pivot
/// points (first, last, and high-curvature interior points — the
/// neighbor-distance strategy).
#[derive(Debug)]
struct DitaPartition {
    store: TrajStore,
    pivots: Vec<Vec<Point>>,
}

/// The DITA baseline: pivot-based distributed trajectory search.
///
/// Top-k works the way the paper describes DITA's adaptation: estimate a
/// range threshold, halve it until the candidate count falls below `C·k`,
/// refine candidates exactly, then run a final range query at the k-th
/// exact distance (Section VII-A, baseline 2). No Hausdorff support.
#[derive(Debug)]
pub struct Dita {
    cluster: Cluster,
    config: DitaConfig,
    parts: Vec<DitaPartition>,
    region_diag: f64,
    measure: Measure,
    params: MeasureParams,
    index_time: Duration,
    index_bytes: usize,
}

/// Pivot selection: first + last + interior points with the largest
/// neighbor distance `d(p_{i-1}, p_i) + d(p_i, p_{i+1})`.
fn select_pivots(points: &[Point], nl: usize) -> Vec<Point> {
    let n = points.len();
    if n <= 2 || nl <= 2 {
        let mut p = vec![points[0]];
        if n > 1 {
            p.push(points[n - 1]);
        }
        return p;
    }
    let mut scored: Vec<(f64, usize)> = (1..n - 1)
        .map(|i| {
            (
                points[i - 1].dist(&points[i]) + points[i].dist(&points[i + 1]),
                i,
            )
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut idx: Vec<usize> = scored.iter().take(nl - 2).map(|s| s.1).collect();
    idx.sort_unstable();
    let mut pivots = Vec::with_capacity(idx.len() + 2);
    pivots.push(points[0]);
    pivots.extend(idx.into_iter().map(|i| points[i]));
    pivots.push(points[n - 1]);
    pivots
}

/// Lower bound on `D(query, t)` from endpoints and pivots. Valid for
/// Frechet and DTW: both must align `(q_1, p_1)` and `(q_m, p_n)`, and both
/// are bounded below by `max_j min_i d(q_i, p_j)` over any subset of `t`'s
/// points (every reference point is matched by some query point).
fn pivot_lb(query: &[Point], points: &[Point], pivots: &[Point]) -> f64 {
    let q1 = query[0];
    let qm = *query.last().expect("non-empty query");
    let p1 = points[0];
    let pn = *points.last().expect("non-empty trajectory");
    let mut lb = q1.dist(&p1).max(qm.dist(&pn));
    for pv in pivots {
        let mut best = f64::INFINITY;
        for q in query {
            let d = q.dist(pv);
            if d < best {
                best = d;
            }
        }
        if best > lb {
            lb = best;
        }
    }
    lb
}

/// Measure-aware candidate lower bound: the pivot bound where it is valid
/// (Frechet and DTW — see [`pivot_lb`]), strengthened by the measure's own
/// `O(m+n)` prefilter bound. For LCSS and EDR only the prefilter bound is
/// sound: their distances live on the `[0, 1]` / edit-count scales, which
/// the Euclidean pivot bound does not lower-bound.
fn measure_lb(
    measure: Measure,
    params: &MeasureParams,
    query: &[Point],
    points: &[Point],
    pivots: &[Point],
) -> f64 {
    let base = params.lower_bound(measure, query, points);
    match measure {
        Measure::Frechet | Measure::Dtw => base.max(pivot_lb(query, points, pivots)),
        _ => base,
    }
}

impl Dita {
    /// Whether DITA supports `measure` (no Hausdorff, no ERP — Section I).
    pub fn supports(measure: Measure) -> bool {
        matches!(
            measure,
            Measure::Frechet | Measure::Dtw | Measure::Edr | Measure::Lcss
        )
    }

    /// Builds the pivot representation and partitions trajectories by
    /// (first point, last point) order — DITA "places trajectories with
    /// close first and last points in the same partition".
    pub fn build(
        dataset: &Dataset,
        config: DitaConfig,
        measure: Measure,
        params: MeasureParams,
    ) -> Self {
        assert!(
            Self::supports(measure),
            "DITA does not support {measure} (Section I)"
        );
        let t0 = Instant::now();
        let region = dataset
            .enclosing_square()
            .unwrap_or_else(|| Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let region_diag = region.min.dist(&region.max);

        // Order by (first-point cell, last-point cell).
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        let keys: Vec<(u64, u64)> = dataset
            .trajectories()
            .iter()
            .map(|t| {
                (
                    geohash_cell(t.first().expect("non-empty"), &region, 6),
                    geohash_cell(t.last().expect("non-empty"), &region, 6),
                )
            })
            .collect();
        order.sort_by_key(|&i| (keys[i], dataset.trajectories()[i].id));

        let n = config.num_partitions;
        let mut parts: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
        match config.placement {
            BaselinePlacement::Homogeneous => {
                let chunk = order.len().div_ceil(n).max(1);
                for (i, ti) in order.into_iter().enumerate() {
                    parts[(i / chunk).min(n - 1)].push(ti);
                }
            }
            BaselinePlacement::Heterogeneous => {
                for (i, ti) in order.into_iter().enumerate() {
                    parts[i % n].push(ti);
                }
            }
        }

        let cluster = Cluster::new(config.cluster);
        let all = dataset.trajectories();
        let (parts, build_stats) = cluster.run_partitions(&parts, |_, members| {
            let mut store = TrajStore::new();
            let mut pivots = Vec::with_capacity(members.len());
            for &ti in members {
                let t = &all[ti];
                store.push(t.id, &t.points);
                pivots.push(select_pivots(&t.points, config.nl));
            }
            DitaPartition { store, pivots }
        });
        let index_time = t0.elapsed() - build_stats.host_wall + build_stats.makespan;
        let index_bytes = parts
            .iter()
            .map(|p| {
                p.pivots
                    .iter()
                    .map(|pv| pv.capacity() * std::mem::size_of::<Point>() + 16)
                    .sum::<usize>()
            })
            .sum();
        Dita {
            cluster,
            config,
            parts,
            region_diag,
            measure,
            params,
            index_time,
            index_bytes,
        }
    }

    /// One timed pass over every partition. A query's passes form one
    /// job: each pass adds its per-partition times and host wall into
    /// `acc`, which the query schedules once at the end.
    fn pass<R: Send>(
        &self,
        acc: &mut (Vec<Duration>, Duration),
        f: impl Fn(usize, &DitaPartition) -> R + Sync,
    ) -> Vec<R> {
        let (out, job) = self.cluster.run_partitions(&self.parts, f);
        for (a, t) in acc.0.iter_mut().zip(&job.partition_times) {
            *a += *t;
        }
        acc.1 += job.host_wall;
        out
    }

    /// Distributed top-k by iterative threshold halving + final range
    /// refinement.
    pub fn query(&self, query: &[Point], k: usize) -> BaselineOutcome {
        let measure = self.measure;
        let params = self.params;
        let mut acc = (vec![Duration::ZERO; self.parts.len()], Duration::ZERO);
        if k == 0 || query.is_empty() {
            let job = self.cluster.schedule(acc.0, acc.1);
            return BaselineOutcome { hits: Vec::new(), job };
        }

        // Phase 0: one timed pass computing every candidate's lower bound;
        // the halving loop and phases 2/3 all reuse these values.
        let lbs = self.pass(&mut acc, |_, part| {
            (0..part.store.len())
                .map(|li| {
                    measure_lb(measure, &params, query, part.store.points(li), &part.pivots[li])
                })
                .collect::<Vec<f64>>()
        });

        // Phase 1: halve the range threshold until < C·k candidates
        // survive the lower-bound test (accumulating the cost of every
        // counting pass into the query's schedule). The halving count is
        // capped: quantized measures (LCSS/EDR) can have many candidates
        // with a lower bound of exactly zero, which no finite threshold
        // excludes — correctness never depends on r, only the candidate
        // budget does.
        let budget = (self.c_factor_k(k)).max(k);
        let mut r = self.region_diag;
        for _ in 0..64 {
            let half = r * 0.5;
            let count: usize = self
                .pass(&mut acc, |pi, _| lbs[pi].iter().filter(|&&lb| lb <= half).count())
                .into_iter()
                .sum();
            if count < budget {
                break;
            }
            r *= 0.5;
        }

        // Phase 2: refine the surviving candidates exactly under a running
        // local top-k threshold (their lower bound orders the scan, the
        // early-abandoning kernel refutes the losers); the union's k-th
        // distance is a correct (conservative) range for the final pass —
        // each partition's k best are exact, and the global k-th only
        // depends on those.
        let locals = self.pass(&mut acc, |pi, part| {
            let cands: Vec<(f64, u64, &[Point])> = part
                .store
                .iter()
                .zip(&lbs[pi])
                .filter_map(|((id, pts), &lb)| {
                    // fp-safety-margined gate: an ulp-overshooting bound
                    // must never exclude a candidate whose exact distance
                    // is within the range (see `bound_exceeds`)
                    (!bound_exceeds(lb, r)).then_some((lb, id, pts))
                })
                .collect();
            refine_top_k(cands, query, measure, &params, k, f64::INFINITY)
        });
        let mut phase2: Vec<Hit> = locals.into_iter().flatten().collect();
        phase2.sort_by(Hit::cmp_by_dist_then_id);
        let dk = if phase2.len() >= k {
            phase2[k - 1].dist
        } else {
            f64::INFINITY // too few candidates: fall back to a full range
        };

        // Phase 3: final range query at dk over all partitions (correct
        // top-k: every true hit has exact distance <= dk, hence lb <= dk,
        // and phase 2 guarantees at least k candidates at or below dk —
        // so capping the refinement at dk drops no answer).
        let locals = self.pass(&mut acc, |pi, part| {
            let cands: Vec<(f64, u64, &[Point])> = part
                .store
                .iter()
                .zip(&lbs[pi])
                .filter_map(|((id, pts), &lb)| {
                    // same margin as above: every true hit has exact
                    // distance <= dk, so its (possibly ulp-overshooting)
                    // bound must not disqualify it here
                    (!bound_exceeds(lb, dk)).then_some((lb, id, pts))
                })
                .collect();
            refine_top_k(cands, query, measure, &params, k, dk)
        });

        let job = self.cluster.schedule(acc.0, acc.1);
        let hits = merge_top_k(locals.into_iter().flatten().collect(), k);
        BaselineOutcome { hits, job }
    }

    fn c_factor_k(&self, k: usize) -> usize {
        self.config.c_factor * k
    }

    /// Index size in bytes (pivot representation).
    pub fn index_bytes(&self) -> usize {
        self.index_bytes
    }

    /// Simulated index construction time.
    pub fn index_time(&self) -> Duration {
        self.index_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_model::Trajectory;

    fn dataset() -> Dataset {
        Dataset::from_trajectories(
            (0..60u64)
                .map(|i| {
                    let y = (i % 12) as f64;
                    let x0 = (i / 12) as f64 * 3.0;
                    Trajectory::new(
                        i,
                        (0..10).map(|j| Point::new(x0 + j as f64 * 0.3, y)).collect(),
                    )
                })
                .collect(),
        )
    }

    fn small_cfg() -> DitaConfig {
        DitaConfig {
            cluster: ClusterConfig { workers: 2, cores_per_worker: 2 },
            num_partitions: 4,
            nl: 8,
            c_factor: 5,
            placement: BaselinePlacement::Homogeneous,
        }
    }

    fn brute(d: &Dataset, q: &[Point], k: usize, m: Measure) -> Vec<u64> {
        let p = MeasureParams::default();
        let mut v: Vec<(f64, u64)> = d
            .trajectories()
            .iter()
            .map(|t| (p.distance(m, q, &t.points), t.id))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v.truncate(k);
        v.into_iter().map(|e| e.1).collect()
    }

    #[test]
    fn matches_brute_force_frechet_and_dtw() {
        let d = dataset();
        let q: Vec<Point> = (0..10).map(|j| Point::new(j as f64 * 0.3, 5.4)).collect();
        for m in [Measure::Frechet, Measure::Dtw] {
            let dita = Dita::build(&d, small_cfg(), m, MeasureParams::default());
            for k in [1, 3, 10] {
                let got: Vec<u64> = dita.query(&q, k).hits.iter().map(|h| h.id).collect();
                assert_eq!(got, brute(&d, &q, k, m), "{m} k={k}");
            }
        }
    }

    /// LCSS/EDR distances are not on the Euclidean scale, so the pivot
    /// bound must not prune for them — the distance vector has to match
    /// brute force exactly (ids tie freely under quantized measures).
    #[test]
    fn matches_brute_force_lcss_and_edr() {
        let params = MeasureParams::with_eps(0.2);
        // A near-perfect LCSS match with a far outlier pivot (huge
        // Euclidean bound, tiny LCSS distance) among near-miss decoys —
        // the scenario a Euclidean bound would wrongly refute.
        let mut trajs: Vec<Trajectory> = vec![Trajectory::new(
            0,
            (0..9)
                .map(|j| Point::new(j as f64, 0.05))
                .chain([Point::new(60.0, 60.0)])
                .collect(),
        )];
        for i in 1..40u64 {
            let y = 3.0 + (i % 7) as f64;
            trajs.push(Trajectory::new(
                i,
                (0..10).map(|j| Point::new(j as f64, y)).collect(),
            ));
        }
        let d = Dataset::from_trajectories(trajs);
        let q: Vec<Point> = (0..10).map(|j| Point::new(j as f64, 0.0)).collect();
        for m in [Measure::Lcss, Measure::Edr] {
            let dita = Dita::build(&d, small_cfg(), m, params);
            for k in [1, 3, 7] {
                let got = dita.query(&q, k);
                let mut expect: Vec<(f64, u64)> = d
                    .trajectories()
                    .iter()
                    .map(|t| (params.distance(m, &q, &t.points), t.id))
                    .collect();
                expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                assert_eq!(got.hits.len(), k, "{m} k={k}");
                assert_eq!(got.hits[0].id, 0, "{m} k={k}: outlier-pivot match lost");
                for (h, e) in got.hits.iter().zip(&expect) {
                    assert_eq!(
                        h.dist.to_bits(),
                        e.0.to_bits(),
                        "{m} k={k}: distance vector differs from brute force"
                    );
                }
            }
        }
    }

    #[test]
    fn heterogeneous_placement_matches_too() {
        let d = dataset();
        let q: Vec<Point> = (0..10).map(|j| Point::new(j as f64 * 0.3, 2.1)).collect();
        let mut cfg = small_cfg();
        cfg.placement = BaselinePlacement::Heterogeneous;
        let dita = Dita::build(&d, cfg, Measure::Frechet, MeasureParams::default());
        let got: Vec<u64> = dita.query(&q, 5).hits.iter().map(|h| h.id).collect();
        assert_eq!(got, brute(&d, &q, 5, Measure::Frechet));
    }

    #[test]
    fn pivot_selection_keeps_endpoints() {
        let pts: Vec<Point> = (0..20).map(|i| Point::new(i as f64, (i % 3) as f64)).collect();
        let p = select_pivots(&pts, 6);
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], pts[0]);
        assert_eq!(*p.last().unwrap(), *pts.last().unwrap());
    }

    #[test]
    fn pivot_lb_is_a_lower_bound() {
        let d = dataset();
        let q: Vec<Point> = (0..10).map(|j| Point::new(j as f64 * 0.3, 5.4)).collect();
        let params = MeasureParams::default();
        for t in d.trajectories().iter().take(20) {
            let pivots = select_pivots(&t.points, 8);
            let lb = pivot_lb(&q, &t.points, &pivots);
            for m in [Measure::Frechet, Measure::Dtw] {
                let exact = params.distance(m, &q, &t.points);
                assert!(lb <= exact + 1e-9, "{m}: lb {lb} > exact {exact}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "DITA does not support")]
    fn rejects_hausdorff() {
        Dita::build(&dataset(), small_cfg(), Measure::Hausdorff, MeasureParams::default());
    }

    #[test]
    fn supports_flags() {
        assert!(Dita::supports(Measure::Frechet));
        assert!(Dita::supports(Measure::Dtw));
        assert!(!Dita::supports(Measure::Hausdorff));
        assert!(!Dita::supports(Measure::Erp));
    }
}
