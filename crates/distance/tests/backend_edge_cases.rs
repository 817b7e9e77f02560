//! Per-backend edge-case tests for the verification kernels: the boundary
//! shapes where vector code classically diverges from scalar code — lengths
//! below one vector, lane remainders, lane groups the prefilter or the DTW
//! nearest-neighbour stage thins out, exact-zero distances at zero-adjacent
//! thresholds, and points coinciding with the ERP gap — all checked bit-for-bit against the
//! seed `reference` kernels on every backend the host CPU supports. Sibling
//! expansion of the DTW trie bound is checked the same way against the
//! one-child-at-a-time push.

mod common;

use common::{for_each_backend, verify_at};
use repose_distance::{
    just_above, reference, DistScratch, DtwColumn, Measure, MeasureParams, SharedTopK,
};
use repose_model::{Mbr, Point};

const GAP: Point = Point::new(0.0, 0.0);

/// A deterministic wiggly trajectory of `n` points.
fn traj(n: usize, seed: u64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let i = i as u64;
            let x = ((i.wrapping_mul(seed).wrapping_add(7)) % 23) as f64 * 0.5;
            let y = ((i.wrapping_mul(seed ^ 0x9e37).wrapping_add(3)) % 19) as f64 * 0.5;
            Point::new(x, y)
        })
        .collect()
}

fn assert_all_measures_agree(a: &[Point], b: &[Point], label: &str) {
    let params = MeasureParams::with_eps(0.5);
    for_each_backend(|backend| {
        let mut scratch = DistScratch::new();
        for m in Measure::ALL {
            let seed = reference::distance(&params, m, a, b);
            let got = params.distance_in(m, a, b, &mut scratch);
            assert_eq!(
                got.to_bits(),
                seed.to_bits(),
                "{label}: {m} on {backend}: {got} != reference {seed}"
            );
            let lb = params.lower_bound(m, a, b);
            for thr in [seed, just_above(seed), f64::INFINITY] {
                let want = reference::distance_within_from_lb(&params, m, a, b, thr, lb);
                let got = params.distance_within_from_lb_in(m, a, b, thr, lb, &mut scratch);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{label}: {m} on {backend} thr={thr}"
                );
            }
        }
    });
}

/// Lengths 1–3 sit below one AVX2 point-load (4 points): everything runs
/// in boundary/remainder code.
#[test]
fn tiny_lengths() {
    for la in 1..=3usize {
        for lb in 1..=3usize {
            let a = traj(la, 11);
            let b = traj(lb, 29);
            assert_all_measures_agree(&a, &b, &format!("lengths {la}x{lb}"));
        }
    }
}

/// Single-point trajectories against longer ones: one-row DPs and one-cell
/// columns.
#[test]
fn single_point_against_long() {
    let p = vec![Point::new(1.5, 2.5)];
    for n in [1usize, 2, 3, 4, 5, 8, 17] {
        let t = traj(n, 13);
        assert_all_measures_agree(&p, &t, &format!("1x{n}"));
        assert_all_measures_agree(&t, &p, &format!("{n}x1"));
    }
}

/// Lane-remainder lengths around the AVX2 (4) width, plus chunked-Hausdorff
/// (8) boundaries: every `n % 4 != 0` and `n % 8 != 0` tail path runs.
#[test]
fn lane_remainders() {
    for &(la, lb) in &[(4usize, 5usize), (5, 4), (6, 7), (7, 6), (8, 9), (15, 17), (17, 15)] {
        let a = traj(la, 3);
        let b = traj(lb, 5);
        assert_all_measures_agree(&a, &b, &format!("lengths {la}x{lb}"));
    }
}

/// Identical trajectories have exact distance 0: threshold 0 must refute
/// (strict `<`), its successor must keep the exact 0 — on every backend.
#[test]
fn identical_trajectories_at_zero_thresholds() {
    let params = MeasureParams::with_eps(0.5);
    for n in [1usize, 3, 4, 7, 16] {
        let t = traj(n, 17);
        for_each_backend(|backend| {
            let mut scratch = DistScratch::new();
            for m in Measure::ALL {
                assert_eq!(
                    params.distance_in(m, &t, &t, &mut scratch).to_bits(),
                    0.0f64.to_bits(),
                    "{m} on {backend}: identical trajectories (n={n})"
                );
                let lb = params.lower_bound(m, &t, &t);
                assert_eq!(
                    params.distance_within_from_lb_in(m, &t, &t, 0.0, lb, &mut scratch),
                    None,
                    "{m} on {backend}: threshold 0 must refute"
                );
                assert_eq!(
                    params
                        .distance_within_from_lb_in(
                            m,
                            &t,
                            &t,
                            just_above(0.0),
                            lb,
                            &mut scratch
                        )
                        .map(f64::to_bits),
                    Some(0.0f64.to_bits()),
                    "{m} on {backend}: just_above(0) must keep the exact 0"
                );
            }
        });
    }
}

/// Points coinciding with the ERP gap point make gap costs exactly 0 —
/// ties between the three DP predecessors everywhere.
#[test]
fn erp_coincident_with_gap() {
    let on_gap: Vec<Point> = vec![GAP; 5];
    let mixed = vec![GAP, Point::new(1.0, 0.0), GAP, Point::new(0.0, 1.0)];
    let other = traj(6, 7);
    let params = MeasureParams::default();
    for (a, b) in [
        (on_gap.clone(), other.clone()),
        (mixed.clone(), other),
        (on_gap, mixed),
    ] {
        for_each_backend(|backend| {
            let mut scratch = DistScratch::new();
            let seed = reference::erp(&a, &b, GAP);
            let got = params.distance_in(Measure::Erp, &a, &b, &mut scratch);
            assert_eq!(got.to_bits(), seed.to_bits(), "erp on {backend}");
            let lb = params.lower_bound(Measure::Erp, &a, &b);
            for thr in [seed, just_above(seed), f64::INFINITY] {
                let want =
                    reference::distance_within_from_lb(&params, Measure::Erp, &a, &b, thr, lb);
                let got = params
                    .distance_within_from_lb_in(Measure::Erp, &a, &b, thr, lb, &mut scratch);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "erp_within on {backend} thr={thr}"
                );
            }
        });
    }
}

/// Empty inputs never reach a SIMD kernel (the dispatchers' guards settle
/// them first), but the conventions must hold under every forced backend.
#[test]
fn empty_inputs_on_every_backend() {
    let a = traj(3, 19);
    let params = MeasureParams::with_eps(0.5);
    let empty: &[Point] = &[];
    for_each_backend(|backend| {
        let mut scratch = DistScratch::new();
        for m in Measure::ALL {
            for (x, y) in [(empty, empty), (a.as_slice(), empty), (empty, a.as_slice())] {
                let seed = reference::distance(&params, m, x, y);
                let got = params.distance_in(m, x, y, &mut scratch);
                assert_eq!(got.to_bits(), seed.to_bits(), "{m} on {backend}: empty case");
            }
        }
    });
}

/// Batched verification with ragged lengths straddling the lane width:
/// every group shape from 1 to 6 candidates, including empty candidates
/// (settled by the sequential fallback inside the group). Then groups in
/// which one lane retires in the first column — its one-point candidate
/// ends, or its first point is too far from the query's first — while the
/// other lanes run at least 8 more columns past it: every slot must equal
/// the frozen reference.
#[test]
fn batched_ragged_groups() {
    let query = traj(9, 23);
    let lens = [1usize, 2, 3, 4, 5, 6];
    let cand_pts: Vec<Vec<Point>> = lens.iter().map(|&n| traj(n, n as u64 + 31)).collect();
    let params = MeasureParams::default();
    for m in [Measure::Dtw, Measure::Frechet, Measure::Erp] {
        let dists: Vec<f64> = cand_pts
            .iter()
            .map(|c| reference::distance(&params, m, &query, c))
            .collect();
        let mid = dists.iter().copied().fold(0.0f64, f64::max) * 0.6 + 1e-9;
        for take in 1..=cand_pts.len() {
            let cands: Vec<(f64, &[Point])> = cand_pts[..take]
                .iter()
                .map(|c| (params.lower_bound(m, &query, c), c.as_slice()))
                .collect();
            for_each_backend(|backend| {
                let mut scratch = DistScratch::new();
                let out = verify_at(&params, m, &query, &cands, mid, &mut scratch);
                for (i, &(lb, c)) in cands.iter().enumerate() {
                    let want =
                        params.distance_within_from_lb_in(m, &query, c, mid, lb, &mut scratch);
                    assert_eq!(
                        out[i].map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{m} on {backend}, group of {take}, lane {i}"
                    );
                }
            });
        }
    }
    // Far from the ERP gap, so an unmatched point costs more than any
    // near candidate's whole distance.
    let far_off = |p: &Point| Point::new(p.x + 50.0, p.y + 50.0);
    let query: Vec<Point> = traj(12, 23).iter().map(far_off).collect();
    let near = |n: usize, dx: f64, dy: f64| -> Vec<Point> {
        query[..n].iter().map(|p| Point::new(p.x + dx, p.y + dy)).collect()
    };
    let first = query[0];
    let far = *query.iter().max_by(|a, b| a.dist(&first).total_cmp(&b.dist(&first))).unwrap();
    let one_point = near(1, 0.25, -0.125);
    // Starts at the query point farthest from the query's first, then
    // follows the query: its first column's minimum, `d(q_1, p_1)`, already
    // refutes it, while every point has a near neighbour, so the DTW
    // nearest-neighbour stage lets it into a lane.
    let late_start: Vec<Point> = std::iter::once(far).chain(near(12, 0.25, -0.125)).collect();
    let nn_sum = |from: &[Point], to: &[Point]| -> f64 {
        from.iter().map(|p| to.iter().map(|q| p.dist(q)).fold(f64::INFINITY, f64::min)).sum()
    };
    for m in [Measure::Dtw, Measure::Frechet, Measure::Erp] {
        let dist = |c: &[Point]| reference::distance(&params, m, &query, c);
        let (a, b, c) = (near(12, 0.25, -0.125), near(10, -0.125, 0.25), near(9, 0.5, 0.0));
        let ends: Vec<&[Point]> = vec![&one_point, &a, &b, &c];
        let d = near(12, -0.25, 0.375);
        let abandons: Vec<&[Point]> = vec![&a, &late_start, &d, &a];
        let ends_thr = just_above(ends.iter().map(|c| dist(c)).fold(0.0f64, f64::max));
        let abandons_thr = just_above(dist(&a).max(dist(&d)));
        assert!(first.dist(&far) >= abandons_thr, "{m}: the late start must abandon at once");
        let nn = nn_sum(&query, &late_start).max(nn_sum(&late_start, &query));
        assert!(m != Measure::Dtw || nn < abandons_thr, "the late start must pass the NN stage");
        for (group, thr) in [(ends, ends_thr), (abandons, abandons_thr)] {
            // Zero lower bounds: every candidate reaches the lanes.
            let cands: Vec<(f64, &[Point])> = group.iter().map(|&c| (0.0, c)).collect();
            for_each_backend(|backend| {
                let mut scratch = DistScratch::new();
                let out = verify_at(&params, m, &query, &cands, thr, &mut scratch);
                for (i, &(lb, c)) in cands.iter().enumerate() {
                    let want = reference::distance_within_from_lb(&params, m, &query, c, thr, lb);
                    assert_eq!(
                        out[i].map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{m} on {backend}, retiring group, lane {i}"
                    );
                }
            });
        }
    }
}

/// A lane group in which exactly one candidate survives the prefilter: the
/// group is not worth a vector, so the survivor is scored by the sequential
/// kernel — which for DTW/Fréchet/ERP is the scalar kernel on every backend.
/// `[far, near, far, far]` is one 4-lane group with one survivor, in the
/// second lane; the scalar backend scores the four one at a time.
#[test]
fn batched_group_with_one_survivor() {
    let query = traj(9, 23);
    let near = traj(7, 41);
    let far: Vec<Vec<Point>> = (0..3u64)
        .map(|i| traj(5 + i as usize, 43 + i).iter().map(|p| Point::new(p.x + 1e6, p.y)).collect())
        .collect();
    let group: [&[Point]; 4] = [&far[0], &near, &far[1], &far[2]];
    let params = MeasureParams::default();
    for m in [Measure::Dtw, Measure::Frechet, Measure::Erp] {
        let thr = just_above(reference::distance(&params, m, &query, &near));
        let cands: Vec<(f64, &[Point])> =
            group.iter().map(|&c| (params.lower_bound(m, &query, c), c)).collect();
        let survivors = cands.iter().filter(|&&(lb, _)| lb < thr).count();
        assert_eq!(survivors, 1, "{m}: the fixture must leave exactly one survivor");
        for_each_backend(|backend| {
            let mut scratch = DistScratch::new();
            let out = verify_at(&params, m, &query, &cands, thr, &mut scratch);
            for (i, &(lb, c)) in cands.iter().enumerate() {
                let want = reference::distance_within_from_lb(&params, m, &query, c, thr, lb);
                assert_eq!(
                    out[i].map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{m} on {backend}, lane {i}"
                );
            }
            assert!(out[1].is_some(), "{m} on {backend}: the near candidate must survive");
        });
    }
}

/// Lane groups the DTW nearest-neighbour stage thins to 0, 1, 2, 3 and W
/// survivors (3 leaves one lane of the vector idle). Zero lower bounds keep
/// the summary prefilter out of the way, so the far candidates are refused
/// by the stage itself; a sole survivor
/// goes straight to the scalar dynamic program, several to the lane-batched
/// one — and every slot still equals the frozen reference, on every backend.
#[test]
fn batched_dtw_groups_thinned_by_the_nn_stage() {
    let query = traj(9, 23);
    let near: Vec<Vec<Point>> = [7usize, 9, 4, 10]
        .iter()
        .map(|&n| traj(n, 23).iter().map(|p| Point::new(p.x + 0.25, p.y - 0.125)).collect())
        .collect();
    let far: Vec<Vec<Point>> = [5usize, 1, 8, 6]
        .iter()
        .map(|&n| traj(n, 43).iter().map(|p| Point::new(p.x + 1e6, p.y)).collect())
        .collect();
    let params = MeasureParams::default();
    let dtw = |c: &[Point]| reference::dtw(&query, c);
    let thr = just_above(near.iter().map(|c| dtw(c)).fold(0.0f64, f64::max));
    assert!(far.iter().all(|c| dtw(c) > thr), "the fixture's far candidates must be refused");
    // `true` = a near candidate in that lane.
    let patterns: [[bool; 4]; 6] = [
        [false, false, false, false],
        [false, true, false, false],
        [true, false, false, true],
        [true, true, false, true],
        [true, true, true, true],
        [false, false, true, true],
    ];
    for pattern in patterns {
        let cands: Vec<(f64, &[Point])> = pattern
            .iter()
            .enumerate()
            .map(|(i, &is_near)| (0.0, if is_near { &near[i][..] } else { &far[i][..] }))
            .collect();
        for_each_backend(|backend| {
            let mut scratch = DistScratch::new();
            let out = verify_at(&params, Measure::Dtw, &query, &cands, thr, &mut scratch);
            for (i, &(lb, c)) in cands.iter().enumerate() {
                let want =
                    reference::distance_within_from_lb(&params, Measure::Dtw, &query, c, thr, lb);
                assert_eq!(
                    out[i].map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{pattern:?} on {backend}, lane {i}"
                );
                assert_eq!(out[i].is_some(), pattern[i], "{pattern:?} on {backend}, lane {i}");
            }
        });
    }
}

/// Sibling expansion of the DTW trie bound: every child's column and `cmin`
/// equal a clone of the parent pushed with that child's cell, bit for bit,
/// on every backend. 1–9 siblings cover lane groups of 1..`W` plus a
/// remainder; the root parent takes the first-column recurrence, the deep
/// one the general step; cells touching the query at signed zeros exercise
/// the packed ground cost's `max`es; the children's buffers start as fresh,
/// recycled (stale contents) and wrongly sized columns.
#[test]
fn dtw_sibling_push_matches_clone_and_push() {
    let cell = |x: f64, y: f64, w: f64| Mbr::new(Point::new(x, y), Point::new(x + w, y + w));
    let cells: Vec<Mbr> = (0..9u64)
        .map(|i| match i % 3 {
            0 => cell(-0.0, -0.0, 0.5),
            1 => cell(i as f64 * 0.7, 3.0 - i as f64 * 0.4, 0.25),
            _ => cell(-(i as f64), i as f64 * 0.5, 1.0),
        })
        .collect();
    // Debug prints every f64 in round-trip form: equal strings are equal bits.
    let bits = |c: &DtwColumn| format!("{c:?}");
    for m in 1..=9usize {
        let mut query = traj(m, 61);
        query[0] = Point::new(0.0, 0.0);
        let root = DtwColumn::new(m);
        let mut deep = DtwColumn::new(m);
        for p in traj(3, 67) {
            deep.push(&query, p);
        }
        for parent in [&root, &deep] {
            for n in 1..=cells.len() {
                let cells = &cells[..n];
                let want: Vec<String> = cells
                    .iter()
                    .map(|c| {
                        let mut child = parent.clone();
                        child.push_with(&query, |q| c.min_dist(*q));
                        bits(&child)
                    })
                    .collect();
                for_each_backend(|backend| {
                    let mut children: Vec<DtwColumn> = (0..n)
                        .map(|s| match s % 3 {
                            0 => DtwColumn::new(m),
                            1 => deep.clone(),
                            _ => DtwColumn::new(m + 2),
                        })
                        .collect();
                    parent.push_cells(&query, cells, &mut children);
                    let got: Vec<String> = children.iter().map(bits).collect();
                    let depth = parent.len();
                    assert_eq!(got, want, "m={m}, {n} siblings, parent len {depth} on {backend}");
                });
            }
        }
    }
}

/// `MeasureParams::verify` compares strictly against the live bound, so
/// a tie with an outside cap survives only through the collector's seed:
/// seeded at `just_above(cap)`, a candidate at exactly `cap` is kept and
/// one at `cap.next_up()` is refused, and a candidate tied with the live
/// k-th distance is refused.
#[test]
fn verify_is_strict_and_a_just_above_seed_keeps_the_cap() {
    let params = MeasureParams::with_eps(0.5);
    let origin = [Point::new(0.0, 0.0)];
    let cap = 3.0f64;
    let at_cap = [Point::new(cap, 0.0)];
    let past_cap = [Point::new(cap.next_up(), 0.0)];
    for_each_backend(|backend| {
        let mut scratch = DistScratch::new();
        for m in [Measure::Hausdorff, Measure::Frechet, Measure::Dtw, Measure::Erp] {
            assert_eq!(params.distance(m, &origin, &at_cap), cap, "{m}");
            assert_eq!(params.distance(m, &origin, &past_cap), cap.next_up(), "{m}");
            // Room for both: the bound stays at the seed throughout.
            let seeded = SharedTopK::with_initial_bound(2, just_above(cap));
            let cands = [(0.0, 1, &past_cap[..]), (0.0, 2, &at_cap[..])];
            let got = params.verify(m, &origin, cands, &seeded, &mut scratch);
            assert_eq!(got, (2, 1), "{m} on {backend}");
            let hits: Vec<(u64, u64)> =
                seeded.hits().iter().map(|h| (h.id, h.dist.to_bits())).collect();
            assert_eq!(hits, [(2, cap.to_bits())], "{m} on {backend}");

            // A tie with the live k-th distance is not accepted.
            let live = SharedTopK::new(1);
            live.publish(cap, 9);
            let got = params.verify(m, &origin, [(0.0, 1, &at_cap[..])], &live, &mut scratch);
            assert_eq!(got, (1, 1), "{m} on {backend}");
            assert_eq!(live.hits()[0].id, 9, "{m} on {backend}");
        }
    });
}

/// `verify`'s `(scored, abandoned)` and published hits equal a reference
/// that reads the bound at the same cadence — once per
/// `Measure::batch_lanes` candidates — but scores each candidate alone
/// with the sequential kernel, on every backend.
#[test]
fn verify_counts_match_a_one_at_a_time_reference() {
    let params = MeasureParams::with_eps(0.5);
    let query = traj(9, 5);
    let pool: Vec<Vec<Point>> = (0..23).map(|i| traj(3 + i % 11, 17 + i as u64)).collect();
    for_each_backend(|backend| {
        let mut scratch = DistScratch::new();
        for m in Measure::ALL {
            let cands: Vec<(f64, u64, &[Point])> = pool
                .iter()
                .enumerate()
                .map(|(i, c)| (params.lower_bound(m, &query, c), i as u64, c.as_slice()))
                .collect();
            let want = SharedTopK::new(3);
            let mut abandoned = 0;
            for group in cands.chunks(m.batch_lanes()) {
                let bound = want.bound();
                for &(lb, id, c) in group {
                    match params.distance_within_from_lb_in(m, &query, c, bound, lb, &mut scratch) {
                        Some(d) => want.publish(d, id),
                        None => abandoned += 1,
                    }
                }
            }
            let got = SharedTopK::new(3);
            let counts = params.verify(m, &query, cands.iter().copied(), &got, &mut scratch);
            assert_eq!(counts, (cands.len(), abandoned), "{m} on {backend}");
            assert!(abandoned > 0, "{m}: the pool exercised no refusal");
            let bits = |c: &SharedTopK| -> Vec<(u64, u64)> {
                c.hits().iter().map(|h| (h.id, h.dist.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{m} on {backend}");
        }
    });
}
