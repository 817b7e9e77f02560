//! The LRU result cache, shared by the service and the shard coordinator.
//!
//! A key is the measure, `k` and the query's exact coordinate bit
//! patterns: only a bit-identical query is served a cached answer, so a
//! cache hit returns exactly the distances a search would.
//!
//! # Invalidation by effect
//!
//! The owner numbers its writes consecutively and notes each one
//! ([`QueryCache::note`]) before it publishes that number as its current
//! version; an entry is stamped with the version its owner loaded before
//! searching. A lookup at a newer version walks the writes since the stamp
//! and serves the entry, re-stamped, only if none of them can change its
//! answer:
//!
//! * the write's id is not among the entry's hits, so neither a delete nor
//!   the old row an upsert hides was in the answer; and
//! * for an upsert, the entry holds `k` hits and the new row's O(1)
//!   summary bound to the query
//!   ([`MeasureParams::summary_lower_bound`]) lies strictly above the
//!   k-th distance, so the row can neither enter the answer nor tie at
//!   its k-th distance.
//!
//! Any other write drops the entry, and so does a version step the cache
//! holds no write for: one older than its ring of the last `RING` writes
//! reaches, or one never noted. A compaction keeps the live set and every
//! distance, so it is no write here.

use repose_distance::{Measure, MeasureParams, TrajSummary};
use repose_model::{Point, TrajId};
use repose_rptrie::Hit;
use std::collections::{HashMap, VecDeque};

/// Writes the cache remembers. An entry filled before the oldest of them
/// is refused whole.
const RING: usize = 1024;

/// A cache key: measure, k, and the query's coordinate bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    measure: Measure,
    k: usize,
    poly: Vec<(u64, u64)>,
}

impl CacheKey {
    /// The key of the top-`k` query `query` under `measure`.
    pub fn new(measure: Measure, query: &[Point], k: usize) -> Self {
        CacheKey {
            measure,
            k,
            poly: query.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect(),
        }
    }
}

/// One noted write: an upsert's new row summary, or `None` for a delete.
struct Write {
    seq: u64,
    id: TrajId,
    row: Option<TrajSummary>,
}

struct Entry {
    hits: Vec<Hit>,
    /// The hits' ids, sorted.
    ids: Vec<TrajId>,
    /// The query's summary, for the upsert bound.
    query: TrajSummary,
    /// The version the answer is known to hold at.
    stamp: u64,
    last_used: u64,
}

impl Entry {
    /// Whether write `w` leaves this top-`k` answer exactly as it is.
    fn survives(&self, w: &Write, measure: Measure, k: usize, params: &MeasureParams) -> bool {
        if self.ids.binary_search(&w.id).is_ok() {
            return false;
        }
        w.row.as_ref().is_none_or(|row| {
            let lb = params.summary_lower_bound(measure, &self.query, row);
            self.hits.len() == k && self.hits.last().is_none_or(|kth| lb > kth.dist)
        })
    }
}

/// An LRU map from queries to top-k hit lists that drops an entry only
/// when a write since its fill could change it (see module docs).
pub struct QueryCache {
    capacity: usize,
    params: MeasureParams,
    clock: u64,
    entries: HashMap<CacheKey, Entry>,
    /// The last `RING` noted writes, oldest first.
    writes: VecDeque<Write>,
    revalidated: u64,
    stale: u64,
}

impl QueryCache {
    /// An empty cache of `capacity` entries (0 disables caching) whose
    /// upsert bound scores under `params` — the deployment's, so write
    /// summaries noted by the owner compare with the cache's own.
    pub fn new(capacity: usize, params: MeasureParams) -> Self {
        QueryCache {
            capacity,
            params,
            clock: 0,
            entries: HashMap::new(),
            writes: VecDeque::new(),
            revalidated: 0,
            stale: 0,
        }
    }

    /// The entry for `key`, if every write noted up to `version` since its
    /// stamp leaves its answer unchanged; the survivor is re-stamped at
    /// `version`, so the next lookup starts from there. A refused entry
    /// is dropped.
    pub fn get(&mut self, key: &CacheKey, version: u64) -> Option<Vec<Hit>> {
        self.clock += 1;
        let e = self.entries.get_mut(key)?;
        if e.stamp < version {
            let from = self.writes.partition_point(|w| w.seq <= e.stamp);
            let mut walked = 0;
            let survives = self.writes.range(from..).take_while(|w| w.seq <= version).all(|w| {
                walked += 1;
                e.survives(w, key.measure, key.k, &self.params)
            }) && walked == version - e.stamp;
            if !survives {
                self.entries.remove(key);
                self.stale += 1;
                return None;
            }
            e.stamp = version;
            self.revalidated += 1;
        }
        e.last_used = self.clock;
        Some(e.hits.clone())
    }

    /// Caches a copy of `hits` for `key`, the answer at version `stamp` or
    /// later, evicting the least-recently-used entry when full. A disabled
    /// cache copies nothing.
    pub fn put(&mut self, key: CacheKey, stamp: u64, hits: &[Hit]) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Evict the least-recently-used entry. Linear scan: the
            // capacity is small (default 1024) and eviction is off the
            // cache-hit fast path.
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
            }
        }
        let query: Vec<Point> = key
            .poly
            .iter()
            .map(|&(x, y)| Point::new(f64::from_bits(x), f64::from_bits(y)))
            .collect();
        let mut ids: Vec<TrajId> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        let entry = Entry {
            hits: hits.to_vec(),
            ids,
            query: self.params.summary_of(&query),
            stamp,
            last_used: self.clock,
        };
        self.entries.insert(key, entry);
    }

    /// Notes write `seq` to `id`: an upsert whose new row summarizes to
    /// `row` under the cache's parameters, or a delete (`row: None`).
    /// `seq` is one above the previous note's. A disabled cache notes
    /// nothing.
    pub fn note(&mut self, seq: u64, id: TrajId, row: Option<TrajSummary>) {
        if self.capacity == 0 {
            return;
        }
        if self.writes.len() == RING {
            self.writes.pop_front();
        }
        self.writes.push_back(Write { seq, id, row });
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Hits served after walking at least one write.
    pub(crate) fn revalidated(&self) -> u64 {
        self.revalidated
    }

    /// Entries dropped because of writes since their fill.
    pub(crate) fn stale(&self) -> u64 {
        self.stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: Measure = Measure::Hausdorff;

    fn params() -> MeasureParams {
        MeasureParams::default()
    }

    fn query(x: f64) -> Vec<Point> {
        vec![Point::new(x, 0.0), Point::new(x + 1.0, 0.0)]
    }

    fn key(x: f64, k: usize) -> CacheKey {
        CacheKey::new(M, &query(x), k)
    }

    fn hits(id: u64) -> Vec<Hit> {
        vec![Hit { id, dist: 1.0 }]
    }

    /// The summary of a row at height `y` over the queries' span.
    fn row(y: f64) -> Option<TrajSummary> {
        Some(params().summary_of(&[Point::new(0.0, y), Point::new(1.0, y)]))
    }

    /// A cache holding the top-1 answer `hits(7)` (distance 1.0) of query
    /// `key(0.0, 1)`, stamped at version 0.
    fn primed() -> QueryCache {
        let mut c = QueryCache::new(8, params());
        c.put(key(0.0, 1), 0, &hits(7));
        c
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let mut c = primed();
        assert!(c.get(&key(0.0, 1), 0).is_some());
        assert!(c.get(&key(0.0, 1), 1).is_none(), "served across an unnoted write");
        assert_eq!(c.len(), 0, "stale entry should be dropped");
    }

    #[test]
    fn unaffecting_writes_keep_the_entry() {
        let mut c = primed();
        c.note(1, 3, None); // a delete of a non-hit
        c.note(2, 4, row(50.0)); // a far upsert of a non-hit
        assert_eq!(c.get(&key(0.0, 1), 2), Some(hits(7)));
        assert_eq!((c.revalidated(), c.stale()), (1, 0));
    }

    #[test]
    fn a_delete_of_a_hit_is_a_miss() {
        let mut c = primed();
        c.note(1, 7, None);
        assert!(c.get(&key(0.0, 1), 1).is_none());
        assert_eq!((c.len(), c.stale()), (0, 1), "the refused entry is dropped");
    }

    #[test]
    fn an_upsert_of_a_hit_is_a_miss_however_far() {
        let mut c = primed();
        c.note(1, 7, row(1e9));
        assert!(c.get(&key(0.0, 1), 1).is_none());
    }

    #[test]
    fn an_upsert_bounded_at_the_kth_distance_is_a_miss() {
        let row = row(2.0).unwrap();
        let q = params().summary_of(&query(0.0));
        let lb = params().summary_lower_bound(M, &q, &row);
        assert!(lb > 0.0);
        // The k-th distance equals the bound: a new tie is possible.
        let mut c = QueryCache::new(8, params());
        c.put(key(0.0, 1), 0, &[Hit { id: 7, dist: lb }]);
        c.note(1, 3, Some(row));
        assert!(c.get(&key(0.0, 1), 1).is_none(), "bound == k-th distance served");
        // One ulp below the bound, the row cannot enter.
        let below = f64::from_bits(lb.to_bits() - 1);
        c.put(key(0.0, 1), 0, &[Hit { id: 7, dist: below }]);
        assert!(c.get(&key(0.0, 1), 1).is_some());
    }

    #[test]
    fn any_upsert_misses_an_entry_short_of_k_hits() {
        let mut c = QueryCache::new(8, params());
        c.put(key(0.0, 2), 0, &hits(7));
        c.put(key(1.0, 2), 0, &[]);
        c.note(1, 3, row(1e9));
        assert!(c.get(&key(0.0, 2), 1).is_none(), "the far row would be the 2nd hit");
        assert!(c.get(&key(1.0, 2), 1).is_none(), "the far row would be the 1st hit");
    }

    #[test]
    fn an_entry_older_than_the_ring_is_a_miss() {
        let mut c = primed();
        for seq in 1..=RING as u64 + 1 {
            c.note(seq, 1000 + seq, None);
        }
        assert!(c.get(&key(0.0, 1), RING as u64 + 1).is_none(), "write 1 was forgotten");
        assert_eq!(c.stale(), 1);
    }

    #[test]
    fn a_survivor_is_restamped() {
        let mut c = primed();
        c.note(1, 3, None);
        assert!(c.get(&key(0.0, 1), 1).is_some());
        assert!(c.get(&key(0.0, 1), 1).is_some());
        assert_eq!(c.revalidated(), 1, "the second lookup walked nothing");
        // Write 1 leaves the ring; the entry, stamped 1 now, needs only
        // the writes after it.
        for seq in 2..=RING as u64 + 1 {
            c.note(seq, 1000 + seq, None);
        }
        assert!(c.get(&key(0.0, 1), RING as u64 + 1).is_some());
    }

    #[test]
    fn a_lookup_walks_only_writes_up_to_its_version() {
        let mut c = primed();
        c.note(1, 3, None);
        c.note(2, 7, None); // noted, not yet published
        assert!(c.get(&key(0.0, 1), 1).is_some());
        assert!(c.get(&key(0.0, 1), 2).is_none());
    }

    #[test]
    fn key_is_the_exact_coordinate_bits() {
        let a = CacheKey::new(Measure::Hausdorff, &[Point::new(1.0, 2.0)], 3);
        assert_eq!(a, CacheKey::new(Measure::Hausdorff, &[Point::new(1.0, 2.0)], 3));
        let one_ulp = CacheKey::new(
            Measure::Hausdorff,
            &[Point::new(1.0, f64::from_bits(2.0f64.to_bits() + 1))],
            3,
        );
        assert_ne!(a, one_ulp, "a query one ulp away is a different query");
        assert_ne!(a, CacheKey::new(Measure::Hausdorff, &[Point::new(1.0, 2.0)], 4));
        assert_ne!(a, CacheKey::new(Measure::Dtw, &[Point::new(1.0, 2.0)], 3));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = QueryCache::new(2, params());
        c.put(key(1.0, 1), 1, &hits(1));
        c.put(key(2.0, 1), 1, &hits(2));
        assert!(c.get(&key(1.0, 1), 1).is_some()); // touch 1 -> 2 is LRU
        c.put(key(3.0, 1), 1, &hits(3));
        assert!(c.get(&key(2.0, 1), 1).is_none(), "LRU entry survived");
        assert!(c.get(&key(1.0, 1), 1).is_some());
        assert!(c.get(&key(3.0, 1), 1).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = QueryCache::new(0, params());
        c.put(key(1.0, 1), 1, &hits(1));
        c.note(2, 1, None);
        assert!(c.get(&key(1.0, 1), 1).is_none());
        assert!(c.writes.is_empty(), "a disabled cache notes nothing");
    }
}
