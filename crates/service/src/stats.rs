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
    pub(crate) partitions_rebuilt: AtomicU64,
    pub(crate) last_compact_rebuilt: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    /// Queries rejected at the admission gate.
    pub(crate) queries_shed: AtomicU64,
    /// Data records replayed by [`crate::ReposeService::recover`] (0 for a
    /// fresh service).
    pub(crate) recovered_records: AtomicU64,
    /// Snapshot bytes written by compaction checkpoints (the WAL's own
    /// counters cover only its segments).
    pub(crate) snapshot_bytes: AtomicU64,
    /// Archive generations successfully installed (construction +
    /// compactions).
    pub(crate) archive_generations: AtomicU64,
    /// Archive installs that failed. An archive is a restart accelerator,
    /// not the source of truth, so a failed install degrades gracefully:
    /// it is counted here and serving continues on the WAL alone.
    pub(crate) archive_write_failures: AtomicU64,
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
        cached: usize,
        partitions: usize,
        wal: repose_durability::WalCounters,
    ) -> ServiceStats {
        ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            partitions_rebuilt: self.partitions_rebuilt.load(Ordering::Relaxed),
            last_compact_rebuilt: self.last_compact_rebuilt.load(Ordering::Relaxed) as usize,
            partitions,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            delta_len,
            tombstones,
            cached_queries: cached,
            wal_bytes: wal.bytes_written + self.snapshot_bytes.load(Ordering::Relaxed),
            wal_fsyncs: wal.fsyncs,
            recovered_records: self.recovered_records.load(Ordering::Relaxed),
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
            archive_generations: self.archive_generations.load(Ordering::Relaxed),
            archive_write_failures: self.archive_write_failures.load(Ordering::Relaxed),
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
    /// Partitions rebuilt across all compactions so far. Incremental
    /// compaction rebuilds only dirtied partitions, so this grows by the
    /// dirty count per compact — not by the partition count.
    pub partitions_rebuilt: u64,
    /// Partitions the most recent compaction rebuilt (0 before any
    /// compaction).
    pub last_compact_rebuilt: usize,
    /// Partitions in the deployment (the rebuild counters' denominator).
    pub partitions: usize,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that had to search.
    pub cache_misses: u64,
    /// Delta-log entries currently buffered across partitions
    /// (superseded entries included — this is the compaction backlog).
    pub delta_len: usize,
    /// Live tombstone records (ids hidden from the frozen index).
    pub tombstones: usize,
    /// Entries currently in the result cache.
    pub cached_queries: usize,
    /// Bytes the durability layer has handed to the OS (WAL segments plus
    /// compaction snapshots; 0 for a volatile service).
    pub wal_bytes: u64,
    /// `fsync` calls the WAL has issued (0 for a volatile service).
    pub wal_fsyncs: u64,
    /// Data records (upserts + deletes) replayed at recovery (0 for a
    /// fresh service).
    pub recovered_records: u64,
    /// Queries rejected at the admission gate under overload.
    pub queries_shed: u64,
    /// Archive generations successfully installed by this service
    /// (construction + compactions; 0 without
    /// [`crate::ServiceConfig::archive`]).
    pub archive_generations: u64,
    /// Archive installs that failed and were degraded past (the service
    /// keeps serving on the WAL alone — an archive only accelerates
    /// restarts, it is never the source of truth).
    pub archive_write_failures: u64,
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
