//! Serving-side operation counters and latency tracking.

use repose_cluster::LatencySummary;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How many recent latency samples each reservoir keeps. Old samples are
/// overwritten ring-buffer style, so percentiles describe recent traffic.
const RESERVOIR: usize = 4096;

#[derive(Debug, Default)]
pub(crate) struct Reservoir {
    samples: Vec<Duration>,
    next: usize,
}

impl Reservoir {
    fn record(&mut self, d: Duration) {
        if self.samples.len() < RESERVOIR {
            self.samples.push(d);
        } else {
            self.samples[self.next] = d;
            self.next = (self.next + 1) % RESERVOIR;
        }
    }
}

/// Internal mutable counters of a `ReposeService`.
#[derive(Debug, Default)]
pub(crate) struct ServiceCounters {
    pub(crate) queries: AtomicU64,
    pub(crate) inserts: AtomicU64,
    pub(crate) deletes: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) last_compact_rebuilt: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    /// Queries rejected at the admission gate.
    pub(crate) queries_shed: AtomicU64,
    /// Data records replayed by [`crate::ReposeService::recover`] (0 for a
    /// fresh service).
    pub(crate) recovered_records: AtomicU64,
    /// Archive generations successfully installed (construction +
    /// compactions).
    pub(crate) archive_generations: AtomicU64,
    /// Completed [`crate::ReposeService::scrub`] passes.
    pub(crate) scrubs: AtomicU64,
    /// Corrupt regions found across all scrub passes (0 = every scrubbed
    /// byte re-verified against its recorded checksum).
    pub(crate) scrub_corruptions: AtomicU64,
    pub(crate) read_latency: Mutex<Reservoir>,
    pub(crate) write_latency: Mutex<Reservoir>,
}

impl ServiceCounters {
    pub(crate) fn record_read(&self, d: Duration) {
        self.read_latency.lock().expect("stats lock").record(d);
    }

    pub(crate) fn record_write(&self, d: Duration) {
        self.write_latency.lock().expect("stats lock").record(d);
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(
        &self,
        delta_len: usize,
        tombstones: usize,
        (cached, revalidated, stale): (usize, u64, u64),
        partitions: usize,
        wal: repose_durability::WalCounters,
    ) -> ServiceStats {
        ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            last_compact_rebuilt: self.last_compact_rebuilt.load(Ordering::Relaxed) as usize,
            partitions,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_revalidated: revalidated,
            cache_stale: stale,
            delta_len,
            tombstones,
            cached_queries: cached,
            wal_bytes: wal.bytes_written,
            wal_fsyncs: wal.fsyncs,
            recovered_records: self.recovered_records.load(Ordering::Relaxed),
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
            archive_generations: self.archive_generations.load(Ordering::Relaxed),
            scrubs: self.scrubs.load(Ordering::Relaxed),
            scrub_corruptions: self.scrub_corruptions.load(Ordering::Relaxed),
            read_latency: LatencySummary::from_durations(
                self.read_latency.lock().expect("stats lock").samples.clone(),
            ),
            write_latency: LatencySummary::from_durations(
                self.write_latency.lock().expect("stats lock").samples.clone(),
            ),
        }
    }
}

/// A point-in-time snapshot of a service's operational counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Queries served (cache hits included).
    pub queries: u64,
    /// Inserts/upserts accepted.
    pub inserts: u64,
    /// Deletes accepted.
    pub deletes: u64,
    /// Completed compactions.
    pub compactions: u64,
    /// Partitions the most recent compaction rebuilt: the partition
    /// count, since every compaction rebuilds each partition (0 before any
    /// compaction).
    pub last_compact_rebuilt: usize,
    /// Partitions in the deployment.
    pub partitions: usize,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that had to search.
    pub cache_misses: u64,
    /// Cache hits served after walking at least one write since the
    /// entry's fill or last hit (a share of `cache_hits`).
    pub cache_revalidated: u64,
    /// Cache entries dropped by a lookup because of writes since their
    /// fill: one could change the answer, or the cache no longer holds
    /// them all (a share of `cache_misses`).
    pub cache_stale: u64,
    /// Entries currently buffered in the delta log (superseded entries
    /// included — this is the compaction backlog).
    pub delta_len: usize,
    /// Live tombstone records (ids hidden from the frozen index).
    pub tombstones: usize,
    /// Entries currently in the result cache.
    pub cached_queries: usize,
    /// Bytes the WAL has handed to the OS across its segments (archive
    /// generations not included; 0 for a volatile service).
    pub wal_bytes: u64,
    /// `fsync` calls the WAL has issued (0 for a volatile service).
    pub wal_fsyncs: u64,
    /// Data records (upserts + deletes) replayed at recovery (0 for a
    /// fresh service).
    pub recovered_records: u64,
    /// Queries rejected at the admission gate under overload.
    pub queries_shed: u64,
    /// Archive generations successfully installed by this service
    /// (construction + compactions; 0 for a volatile or a recovered
    /// service until it compacts).
    pub archive_generations: u64,
    /// Completed online [`crate::ReposeService::scrub`] passes.
    pub scrubs: u64,
    /// Corrupt regions found across all scrub passes (anything non-zero
    /// means the current archive generation must not be trusted for the
    /// next restart; it will be quarantined by recovery).
    pub scrub_corruptions: u64,
    /// Recent query latencies (host wall time, reservoir-sampled).
    pub read_latency: LatencySummary,
    /// Recent insert/delete latencies.
    pub write_latency: LatencySummary,
}

impl ServiceStats {
    /// Cache hit rate over all queries so far (0 when no queries).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}
