//! Shared seeded generators and comparison helpers for the workspace
//! integration tests.
//!
//! The exactness suites (`tests/shared_threshold.rs`,
//! `tests/pooled_service.rs`, `tests/zero_alloc.rs`, `tests/invariants.rs`)
//! all need the same ingredients: deterministic tie-heavy datasets whose
//! k-th boundaries cut through duplicate groups, flat trajectory arenas for
//! allocation counting, raw-coordinate-to-[`Trajectory`] lifting for
//! proptest strategies, and bit-exact distance-multiset comparison. They
//! each grew a private copy; this crate is the single shared one, so a
//! change to a generator (e.g. widening a tie group) propagates to every
//! suite instead of silently diverging.
//!
//! Everything here is deterministic: generators are either closed-form in
//! their arguments or driven by an explicit proptest strategy — no ambient
//! randomness, so failures reproduce across runs and hosts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use proptest::prelude::*;
use repose_durability::WalRecord;
use repose_model::{Dataset, Mbr, Point, TrajStore, Trajectory};

/// Lifts `(x, y)` pairs into [`Point`]s.
pub fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

/// Lifts raw per-trajectory coordinate lists into [`Trajectory`]s with
/// sequential ids — the common tail of every proptest dataset strategy.
pub fn trajectories_from_raw(raw: Vec<Vec<(f64, f64)>>) -> Vec<Trajectory> {
    raw.into_iter()
        .enumerate()
        .map(|(i, p)| Trajectory::new(i as u64, pts(&p)))
        .collect()
}

/// The sorted distance multiset of a result, as exact bits.
///
/// The paper's Definition 3 permits tied *ids* to resolve differently
/// between two exact executions, so exactness tests compare this multiset
/// (bit-for-bit, never an epsilon) instead of id lists.
pub fn sorted_dist_bits(dists: impl IntoIterator<Item = f64>) -> Vec<u64> {
    let mut d: Vec<u64> = dists.into_iter().map(f64::to_bits).collect();
    d.sort_unstable();
    d
}

/// The square region `[0, extent]^2`.
pub fn square(extent: f64) -> Mbr {
    Mbr::new(Point::new(0.0, 0.0), Point::new(extent, extent))
}

/// Deterministic tie-heavy trajectory: ids fall into groups of 5 sharing
/// one base cell in `[0, 64]^2`; even groups are *exact duplicates*
/// (maximal ties at every k boundary), odd groups carry tiny per-id jitter
/// (distinct distances). Every query against a `tie_traj` dataset faces
/// heavy k-th-boundary ties — the worst case for shared strict thresholds.
pub fn tie_traj(id: u64) -> Trajectory {
    let group = id / 5; // 5 ids per duplicate group
    let gx = (group % 8) as f64 * 7.0;
    let gy = (group / 8 % 8) as f64 * 7.0;
    let jit = if group.is_multiple_of(2) { 0.0 } else { (id % 5) as f64 * 1e-3 };
    Trajectory::new(
        id,
        (0..8)
            .map(|s| Point::new(gx + s as f64 * 0.5 + jit, gy + jit))
            .collect(),
    )
}

/// Region fence posts: extreme corners so `enclosing_square` always covers
/// every trajectory [`tie_traj`] can produce (delta inserts included —
/// compaction never has to grow the region unless a test arranges it).
pub fn sentinels() -> Vec<Trajectory> {
    vec![
        Trajectory::new(1_000_000, vec![Point::new(-1.0, -1.0)]),
        Trajectory::new(1_000_001, vec![Point::new(64.0, 64.0)]),
    ]
}

/// A [`tie_traj`] dataset over `ids`, fenced by [`sentinels`].
pub fn tie_dataset(ids: std::ops::Range<u64>) -> Dataset {
    let mut trajs: Vec<Trajectory> = ids.map(tie_traj).collect();
    trajs.extend(sentinels());
    Dataset::from_trajectories(trajs)
}

/// Five fixed query trajectories probing distinct [`tie_traj`] cells (on a
/// duplicate group, on a jitter group, between cells, near the far fence).
pub fn tie_queries() -> Vec<Vec<Point>> {
    [(0.2, 0.1), (7.3, 7.2), (21.5, 14.0), (35.1, 48.9), (10.0, 3.0)]
        .iter()
        .map(|&(x, y)| (0..8).map(|s| Point::new(x + s as f64 * 0.5, y)).collect())
        .collect()
}

/// A flat [`TrajStore`] arena of `n` deterministic trajectories of `len`
/// points spread over `spread`-spaced rows — the fixture the allocation
/// counting tests verify kernels against.
pub fn arena(n: u64, len: usize, spread: f64) -> TrajStore {
    let mut store = TrajStore::new();
    for i in 0..n {
        let y = (i % 7) as f64 * spread;
        let x0 = (i / 7) as f64 * 0.9;
        let points: Vec<Point> = (0..len)
            .map(|j| Point::new(x0 + j as f64 * 0.31, y + (j % 3) as f64 * 0.2))
            .collect();
        store.push(i, &points);
    }
    store
}

/// Strategy: a query-sized point list inside `[0, extent)^2`.
pub fn arb_points(
    extent: f64,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..extent, 0.0..extent), len)
        .prop_map(|raw| pts(&raw))
}

/// Strategy: `count` random trajectories of `len` points each inside
/// `[0, extent)^2`, with sequential ids.
pub fn arb_trajectories(
    extent: f64,
    count: std::ops::Range<usize>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Trajectory>> {
    proptest::collection::vec(
        proptest::collection::vec((0.0..extent, 0.0..extent), len),
        count,
    )
    .prop_map(trajectories_from_raw)
}

/// A random WAL record built from raw integers: `kind` selects the
/// variant and the `u64` bit patterns become coordinates, so NaNs,
/// infinities, -0.0 and subnormals all appear. Shared by the durability
/// property tests and the shard replication-log suite, so both exercise
/// the identical record space.
pub fn build_record(kind: u8, seq: u64, id: u64, bits: &[(u64, u64)]) -> WalRecord {
    match kind % 3 {
        0 => WalRecord::Upsert {
            seq,
            id,
            points: bits
                .iter()
                .map(|&(x, y)| Point::new(f64::from_bits(x), f64::from_bits(y)))
                .collect(),
        },
        1 => WalRecord::Delete { seq, id },
        _ => WalRecord::Checkpoint { seq },
    }
}

/// The coordinate bit patterns of a record's points (empty for
/// non-upserts) — bitwise comparison, because NaN != NaN under float
/// equality.
pub fn record_point_bits(r: &WalRecord) -> Vec<(u64, u64)> {
    match r {
        WalRecord::Upsert { points, .. } => {
            points.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tie_groups_are_exact_duplicates_on_even_groups() {
        // Group 0 (even): ids 0..5 identical geometry.
        let base = tie_traj(0);
        for id in 1..5 {
            assert_eq!(tie_traj(id).points, base.points);
        }
        // Group 1 (odd): ids 5..10 pairwise distinct.
        for id in 6..10 {
            assert_ne!(tie_traj(id).points, tie_traj(5).points);
        }
    }

    #[test]
    fn sorted_dist_bits_is_order_insensitive() {
        let a = sorted_dist_bits([3.0, 1.0, 2.0]);
        let b = sorted_dist_bits([2.0, 3.0, 1.0]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1.0f64.to_bits(), 2.0f64.to_bits(), 3.0f64.to_bits()]);
    }

    #[test]
    fn arena_is_deterministic() {
        let a = arena(6, 9, 1.1);
        let b = arena(6, 9, 1.1);
        assert_eq!(a.len(), 6);
        for i in 0..a.len() {
            assert_eq!(a.points(i), b.points(i));
        }
    }
}
