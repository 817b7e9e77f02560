//! The LRU result cache, shared by the service and the shard coordinator.
//!
//! A key is the measure, `k` and the query's exact coordinate bit
//! patterns: only a bit-identical query is served a cached answer, so a
//! cache hit returns exactly the distances a search would. Every entry is
//! stamped with its owner's *write version*; any insert/delete/compact
//! bumps the version, so stale entries are never served — they are lazily
//! dropped when next touched.

use repose_distance::Measure;
use repose_model::Point;
use repose_rptrie::Hit;
use std::collections::HashMap;

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

struct Entry {
    hits: Vec<Hit>,
    version: u64,
    last_used: u64,
}

/// A version-checked LRU map from queries to top-k hit lists.
pub struct QueryCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<CacheKey, Entry>,
}

impl QueryCache {
    /// An empty cache of `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        QueryCache { capacity, clock: 0, entries: HashMap::new() }
    }

    /// A hit only if the entry was produced at the current write version.
    pub fn get(&mut self, key: &CacheKey, current_version: u64) -> Option<Vec<Hit>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(key) {
            Some(e) if e.version == current_version => {
                e.last_used = clock;
                Some(e.hits.clone())
            }
            Some(_) => {
                // Stale: written before the last mutation. Drop it.
                self.entries.remove(key);
                None
            }
            None => None,
        }
    }

    /// Caches `hits` for `key`, computed at write version `version`,
    /// evicting the least-recently-used entry when full.
    pub fn put(&mut self, key: CacheKey, version: u64, hits: Vec<Hit>) {
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
        self.entries
            .insert(key, Entry { hits, version, last_used: self.clock });
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(x: f64, k: usize) -> CacheKey {
        CacheKey::new(Measure::Hausdorff, &[Point::new(x, 0.0)], k)
    }

    fn hits(id: u64) -> Vec<Hit> {
        vec![Hit { id, dist: 1.0 }]
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let mut c = QueryCache::new(8);
        c.put(key(1.0, 5), 1, hits(1));
        assert!(c.get(&key(1.0, 5), 1).is_some());
        assert!(c.get(&key(1.0, 5), 2).is_none(), "stale version served");
        assert_eq!(c.len(), 0, "stale entry should be dropped");
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
        let mut c = QueryCache::new(2);
        c.put(key(1.0, 1), 1, hits(1));
        c.put(key(2.0, 1), 1, hits(2));
        assert!(c.get(&key(1.0, 1), 1).is_some()); // touch 1 -> 2 is LRU
        c.put(key(3.0, 1), 1, hits(3));
        assert!(c.get(&key(2.0, 1), 1).is_none(), "LRU entry survived");
        assert!(c.get(&key(1.0, 1), 1).is_some());
        assert!(c.get(&key(3.0, 1), 1).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = QueryCache::new(0);
        c.put(key(1.0, 1), 1, hits(1));
        assert!(c.get(&key(1.0, 1), 1).is_none());
    }
}
