//! The query's one top-k: a collector every search of one logical query
//! prunes with and publishes into, and whose pool *is* the answer once
//! they have all finished.
//!
//! # How the bound works
//!
//! Each search publishes every exact distance it accepts. The collector
//! keeps the best `k` published `(dist, id)` pairs in a mutex-guarded
//! bounded heap; whenever the pool holds `k` entries, its worst
//! distance is a sound **upper bound on the global k-th distance** — any
//! `k` real candidate distances have a k-th smallest no smaller than the
//! k-th smallest over *all* candidates. Adding entries can only lower that
//! worst distance, so the bound is monotone non-increasing, which makes a
//! lock-free read path possible: the current bound is cached in an
//! [`AtomicU64`] holding the distance's IEEE-754 bits (for non-negative
//! floats, bit order equals numeric order), updated with `fetch_min` after
//! each publish. Readers pay one relaxed atomic load per refresh — never
//! the mutex.
//!
//! # Why the pool is the exact answer
//!
//! Every search prunes with [`SharedTopK::bound`]. The bound
//! over-approximates the global k-th distance at all times, so any
//! candidate it rejects has an exact distance at least the final global
//! k-th distance — it could only ever appear in the answer as a tie at the
//! k-th slot, and by the time the bound has tightened to the k-th distance
//! the pool already holds `k` published hits at or below it. The pool
//! evicts an entry only for a better `(dist, id)` one, so once every
//! search has finished it holds `k` hits whose distance multiset equals the
//! exact answer's (Definition 3 of the paper permits any tied subset).
//! Nothing is merged afterwards: [`SharedTopK::hits`] is the answer.
//!
//! The pool does not deduplicate: `k` distinct trajectories come out
//! because each id is published at most once per collector (see
//! [`SharedTopK`] for why that holds).

use repose_model::TrajId;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A scored search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Trajectory id.
    pub id: TrajId,
    /// Distance to the query.
    pub dist: f64,
}

impl Hit {
    /// The canonical result ordering: ascending distance, ties broken by
    /// ascending id. Pass to `sort_by`.
    pub fn cmp_by_dist_then_id(a: &Hit, b: &Hit) -> std::cmp::Ordering {
        a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
    }
}

/// One logical query's top-k collector (see module docs): a live,
/// monotonically tightening pruning threshold shared between concurrently
/// executing searches, and their answer.
///
/// Every partition's local search (and, in the serving layer, every delta
/// scan) runs against the same collector — the trie descent reads its
/// bound, and the one verification step ([`crate::MeasureParams::verify`])
/// that the trie leaves, the delta scan and the baselines all run
/// publishes into it — so a hit found anywhere prunes everywhere. Create
/// with [`SharedTopK::new`], hand out `&SharedTopK` (it is `Sync`), and
/// read the answer with [`SharedTopK::hits`] once the searches are done.
///
/// The contract searchers rely on, because they prune with whatever
/// [`SharedTopK::bound`] returns:
///
/// * `bound()` is always a **sound upper bound on the global k-th
///   distance** over everything published so far (and hence over the final
///   answer — adding candidates only lowers the k-th distance);
/// * `bound()` is **monotone non-increasing** across calls;
/// * `publish` accepts only **exact** distances of real candidates (never
///   lower bounds).
///
/// Callers publish each id **at most once per collector**, so one
/// trajectory occupies one result slot without the collector checking.
/// That holds because:
///
/// * tombstones leave each id one live row in a deployment, so the trie
///   leaves and the delta scan of one service never both accept it;
/// * shards own disjoint ids (`id % shards`);
/// * the shard coordinator folds one reply per shard and drops any later
///   one (a retry's, a duplicated or a held-back frame).
pub struct SharedTopK {
    k: usize,
    /// Bit-encoded cached bound (non-negative f64 bits order numerically).
    bound_bits: AtomicU64,
    /// Best `k` published hits as `(distance bits, id)`, worst on top —
    /// non-negative distances' bits order like the distances, so this is
    /// the canonical `(distance, id)` order.
    pool: Mutex<BinaryHeap<(u64, TrajId)>>,
}

impl SharedTopK {
    /// A collector for a top-`k` query, starting from an infinite bound.
    pub fn new(k: usize) -> Self {
        SharedTopK::with_initial_bound(k, f64::INFINITY)
    }

    /// A collector whose bound starts at `initial` — for callers that
    /// already hold a sound upper bound on the global k-th distance (a
    /// coordinator's bound at scatter time, a baseline's range cap).
    ///
    /// A top-0 collector admits nothing: its bound starts at zero, so
    /// every search under it stops at its first bound check.
    pub fn with_initial_bound(k: usize, initial: f64) -> Self {
        assert!(initial >= 0.0, "distance bounds are non-negative");
        let initial = if k == 0 { 0.0 } else { initial };
        SharedTopK {
            k,
            bound_bits: AtomicU64::new(initial.to_bits()),
            pool: Mutex::new(BinaryHeap::with_capacity(k + 1)),
        }
    }

    /// Current upper bound on the global k-th distance (monotone
    /// non-increasing; `INFINITY` until `k` hits were published). Reading
    /// a stale value is sound: bounds only ever tighten.
    pub fn bound(&self) -> f64 {
        f64::from_bits(self.bound_bits.load(Ordering::Acquire))
    }

    /// Publishes the exact distance of candidate `id`. Each id is
    /// published at most once per collector (the type docs say why that
    /// holds); the pool does not check, so a repeat would fill two slots.
    pub fn publish(&self, dist: f64, id: TrajId) {
        debug_assert!(dist >= 0.0 && !dist.is_nan(), "exact distances are non-negative");
        if self.k == 0 {
            return;
        }
        let mut pool = self.pool.lock().expect("shared top-k pool");
        // `+ 0.0` turns a -0.0 (the wire accepts one) into +0.0, whose
        // bits order first.
        pool.push(((dist + 0.0).to_bits(), id));
        if pool.len() > self.k {
            pool.pop();
        }
        if pool.len() == self.k {
            let kth = pool.peek().expect("full pool").0;
            // fetch_min keeps the bound monotone under racing publishers:
            // whichever k-th value is smallest wins, and every k-th value
            // ever computed is a valid upper bound.
            self.bound_bits.fetch_min(kth, Ordering::AcqRel);
        }
    }

    /// The pool, ascending by `(distance, id)`: the best `k` hits published
    /// so far — the query's answer once every search under this collector
    /// has finished.
    pub fn hits(&self) -> Vec<Hit> {
        let pool = self.pool.lock().expect("shared top-k pool");
        pool.clone()
            .into_sorted_vec()
            .into_iter()
            .map(|(bits, id)| Hit { id, dist: f64::from_bits(bits) })
            .collect()
    }
}

impl std::fmt::Debug for SharedTopK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTopK")
            .field("k", &self.k)
            .field("bound", &self.bound())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(hits: &[Hit]) -> Vec<(f64, u64)> {
        hits.iter().map(|h| (h.dist, h.id)).collect()
    }

    #[test]
    fn bound_is_kth_of_published() {
        let s = SharedTopK::new(3);
        assert_eq!(s.bound(), f64::INFINITY);
        s.publish(5.0, 1);
        s.publish(2.0, 2);
        assert_eq!(s.bound(), f64::INFINITY, "fewer than k hits bound nothing");
        s.publish(9.0, 3);
        assert_eq!(s.bound(), 9.0);
        s.publish(1.0, 4); // evicts 9.0
        assert_eq!(s.bound(), 5.0);
        s.publish(0.5, 5);
        assert_eq!(s.bound(), 2.0);
        assert_eq!(pairs(&s.hits()), [(0.5, 5), (1.0, 4), (2.0, 2)]);
    }

    #[test]
    fn negative_zero_ranks_first() {
        let s = SharedTopK::new(1);
        s.publish(1.0, 1);
        s.publish(-0.0, 2);
        assert_eq!(s.bound(), 0.0);
        assert_eq!(s.hits()[0].id, 2);
    }

    #[test]
    fn ties_at_the_kth_slot_resolve_by_id() {
        let s = SharedTopK::new(2);
        for id in [5, 3, 9, 1] {
            s.publish(2.0, id);
        }
        assert_eq!(pairs(&s.hits()), [(2.0, 1), (2.0, 3)]);
    }

    #[test]
    fn initial_bound_only_tightens() {
        let s = SharedTopK::with_initial_bound(2, 3.5);
        assert_eq!(s.bound(), 3.5);
        s.publish(10.0, 1);
        s.publish(11.0, 2);
        assert_eq!(s.bound(), 3.5, "a looser pool k-th must not loosen the bound");
        s.publish(1.0, 3);
        s.publish(2.0, 4);
        assert_eq!(s.bound(), 2.0);
    }

    #[test]
    fn zero_k_is_inert() {
        let s = SharedTopK::new(0);
        assert_eq!(s.bound(), 0.0, "a top-0 query admits nothing");
        s.publish(1.0, 1);
        assert_eq!(s.bound(), 0.0);
        assert!(s.hits().is_empty());
    }

    /// Many threads publish concurrently, each id once: the final bound
    /// must equal the k-th smallest published distance, the pool must hold
    /// exactly the `k` smallest published `(distance, id)` pairs, and the
    /// bound observed by any thread must never increase.
    #[test]
    fn fetch_min_under_contention() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        const K: usize = 10;
        for round in 0..20u64 {
            // deterministic pseudo-random positive distance of `id`
            let dist_of = |id: u64| {
                let h = (id ^ (round * 0x9E37_79B9)).wrapping_mul(0x2545_F491_4F6C_DD1D);
                (h % 1_000_000) as f64 / 1000.0
            };
            let s = SharedTopK::new(K);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let s = &s;
                    scope.spawn(move || {
                        let mut last = f64::INFINITY;
                        for i in 0..PER_THREAD {
                            let id = t * PER_THREAD + i;
                            let dist = dist_of(id);
                            s.publish(dist, id);
                            let b = s.bound();
                            assert!(b <= last, "bound went up: {last} -> {b}");
                            last = b;
                        }
                    });
                }
            });
            // Recompute the k best (distance, id) pairs over all ids.
            let mut all: Vec<(f64, u64)> =
                (0..THREADS * PER_THREAD).map(|id| (dist_of(id), id)).collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            all.truncate(K);
            assert_eq!(s.bound(), all[K - 1].0, "round {round}");
            let bits = |v: &[(f64, u64)]| -> Vec<(u64, u64)> {
                v.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
            };
            assert_eq!(bits(&pairs(&s.hits())), bits(&all), "round {round}");
        }
    }
}
