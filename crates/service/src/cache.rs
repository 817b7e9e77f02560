//! The LRU result cache.
//!
//! Keys quantize the query polyline onto a fine integer lattice, so two
//! float-wise-identical (or nearly identical, within ~1e-7 of a
//! coordinate unit) queries with the same `k` and measure share an entry.
//! Every entry is stamped with the service's *write version*; any
//! insert/delete/compact bumps the version, so stale entries are never
//! served — they are lazily dropped when next touched.

use repose_distance::Measure;
use repose_model::Point;
use repose_rptrie::Hit;
use std::collections::HashMap;

/// Lattice scale for query quantization: coordinates are rounded to
/// multiples of 1e-7, well below any distance the indexes distinguish.
const QUANT_SCALE: f64 = 1e7;

/// A cache key: measure, k, and the quantized polyline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    measure: Measure,
    k: usize,
    poly: Vec<(i64, i64)>,
}

impl CacheKey {
    pub(crate) fn new(measure: Measure, query: &[Point], k: usize) -> Self {
        CacheKey {
            measure,
            k,
            poly: query
                .iter()
                .map(|p| ((p.x * QUANT_SCALE).round() as i64, (p.y * QUANT_SCALE).round() as i64))
                .collect(),
        }
    }
}

struct Entry {
    hits: Vec<Hit>,
    version: u64,
    last_used: u64,
}

/// A version-checked LRU map from queries to top-k hit lists.
pub(crate) struct QueryCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<CacheKey, Entry>,
}

impl QueryCache {
    pub(crate) fn new(capacity: usize) -> Self {
        QueryCache { capacity, clock: 0, entries: HashMap::new() }
    }

    /// A hit only if the entry was produced at the current write version.
    pub(crate) fn get(&mut self, key: &CacheKey, current_version: u64) -> Option<Vec<Hit>> {
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

    pub(crate) fn put(&mut self, key: CacheKey, version: u64, hits: Vec<Hit>) {
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
    fn quantization_bridges_float_noise() {
        let a = CacheKey::new(Measure::Hausdorff, &[Point::new(1.0, 2.0)], 3);
        let b = CacheKey::new(
            Measure::Hausdorff,
            &[Point::new(1.0 + 1e-12, 2.0 - 1e-12)],
            3,
        );
        assert_eq!(a, b);
        let c = CacheKey::new(Measure::Hausdorff, &[Point::new(1.1, 2.0)], 3);
        assert_ne!(a, c);
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
