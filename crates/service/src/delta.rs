//! The per-partition write-ahead delta log, stored as append-only
//! [`TrajStore`] arena segments.
//!
//! Writes never touch a frozen RP-Trie. Each partition owns an
//! append-only log of entries; a global tombstone map `id -> sequence`
//! records, for every id ever written, the sequence of its *latest* write
//! (insert *or* delete). Together they give upsert/delete semantics
//! without mutating anything in place:
//!
//! * a **frozen** trajectory is live iff its id has no tombstone;
//! * a **delta** entry is live iff its sequence is >= the tombstone
//!   sequence for its id (only the latest write per id qualifies; a
//!   later delete out-sequences every earlier entry).
//!
//! # Arena segments
//!
//! Entries live in [`DeltaSegment`]s: each segment packs its trajectories
//! into one flat [`TrajStore`] arena plus a parallel `(sequence,
//! summary)` table — the same contiguous-scan layout the frozen partitions
//! use, extended to the write path. A query-time delta scan therefore
//! walks linear memory even through a large uncompacted write burst;
//! [`Trajectory`](repose_model::Trajectory) remains the I/O edge only
//! (the points are copied into the arena at insert time and the owned
//! value is dropped).
//!
//! Snapshots are O(#segments): a query clones the `Arc` per segment. The
//! writer appends *in place* into the newest segment while it is uniquely
//! owned; the moment a snapshot is outstanding (`Arc` shared), the next
//! write starts a fresh segment — so snapshots are immutable views and
//! writes never copy old data. Between snapshots, one segment grows
//! contiguously.
//!
//! Each entry's [`TrajSummary`] is computed once at insert time — the same
//! per-member prefilter summaries the frozen tries store in their leaves —
//! so the query-time delta scan gets O(1) lower bounds without re-walking
//! candidate trajectories.
//!
//! Because the log is append-only, compaction can snapshot a prefix,
//! rebuild offline, and then drain exactly that prefix — concurrent
//! writes land beyond the snapshot length and survive untouched.

use repose_distance::TrajSummary;
use repose_model::{Point, TrajId, TrajStore};
use std::collections::HashMap;
use std::sync::Arc;

/// One immutable-once-shared run of delta entries: a flat trajectory
/// arena plus per-slot write metadata.
#[derive(Debug, Default)]
pub(crate) struct DeltaSegment {
    /// The segment's trajectories (slot order = append order).
    pub(crate) store: TrajStore,
    /// `(sequence, summary)` for each slot of `store`.
    pub(crate) meta: Vec<(u64, TrajSummary)>,
}

impl DeltaSegment {
    /// Whether slot `slot` is live under `tombstones`.
    pub(crate) fn is_live(&self, slot: usize, tombstones: &HashMap<TrajId, u64>) -> bool {
        let seq = self.meta[slot].0;
        tombstones
            .get(&self.store.id(slot))
            .is_none_or(|&ts| seq >= ts)
    }
}

/// A query/compaction snapshot of one partition's log: shared immutable
/// segments, in append order.
pub(crate) type DeltaSnapshot = Vec<Arc<DeltaSegment>>;

/// Total entries across a snapshot's segments.
pub(crate) fn snapshot_len(snapshot: &DeltaSnapshot) -> usize {
    snapshot.iter().map(|s| s.store.len()).sum()
}

/// One partition's append-only write log.
#[derive(Debug, Default)]
pub(crate) struct DeltaLog {
    segments: Vec<Arc<DeltaSegment>>,
    /// Total entries across segments (including superseded ones).
    entries: usize,
    /// Monotone write epoch: bumped on every push, never reset. Compaction
    /// records the epoch it covered; `epoch > compacted_epoch` means this
    /// partition's log changed since the last compact (the incremental-
    /// compaction dirtiness test).
    epoch: u64,
    /// Set by [`DeltaLog::seal`]: the next push must start a fresh
    /// segment even if the tail is uniquely owned.
    sealed: bool,
}

impl DeltaLog {
    /// Appends a write with its global sequence number and its
    /// insert-time prefilter summary. Appends in place while the newest
    /// segment is uniquely owned; starts a new segment when a snapshot
    /// still references it (or after a [`DeltaLog::seal`]).
    pub(crate) fn push(&mut self, seq: u64, id: TrajId, points: &[Point], summary: TrajSummary) {
        let appended = !self.sealed
            && match self.segments.last_mut().map(Arc::get_mut) {
                Some(Some(seg)) => {
                    seg.store.push(id, points);
                    seg.meta.push((seq, summary));
                    true
                }
                _ => false,
            };
        if !appended {
            let mut seg = DeltaSegment::default();
            seg.store.push(id, points);
            seg.meta.push((seq, summary));
            self.segments.push(Arc::new(seg));
            self.sealed = false;
        }
        self.entries += 1;
        self.epoch += 1;
    }

    /// Seals the current tail segment: the next push starts a fresh one.
    /// Used when replaying a WAL segment-seal record, so recovered segment
    /// boundaries mirror the logged ones.
    pub(crate) fn seal(&mut self) {
        if !self.segments.is_empty() {
            self.sealed = true;
        }
    }

    /// Number of log entries (including superseded ones).
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// The log's write epoch (see the field docs).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// O(#segments) immutable snapshot: `Arc` clones only. Any write after
    /// this call lands in a segment the snapshot does not reference.
    pub(crate) fn snapshot(&self) -> DeltaSnapshot {
        self.segments.clone()
    }

    /// Removes the first `n` entries — the compacted prefix. Fully covered
    /// segments are dropped whole; a partially covered segment's tail is
    /// re-packed into a fresh arena (arena-to-arena range copies).
    pub(crate) fn drain_prefix(&mut self, mut n: usize) {
        n = n.min(self.entries);
        self.entries -= n;
        let mut kept: Vec<Arc<DeltaSegment>> = Vec::with_capacity(self.segments.len());
        for seg in self.segments.drain(..) {
            if n >= seg.store.len() {
                n -= seg.store.len();
                continue;
            }
            if n > 0 {
                let mut tail = DeltaSegment::default();
                for slot in n..seg.store.len() {
                    tail.store.push_from(&seg.store, slot);
                    tail.meta.push(seg.meta[slot]);
                }
                kept.push(Arc::new(tail));
                n = 0;
            } else {
                kept.push(seg);
            }
        }
        self.segments = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_distance::MeasureParams;
    use repose_model::Point;

    fn push(log: &mut DeltaLog, seq: u64, id: TrajId) {
        let points = vec![Point::new(id as f64, 0.0)];
        let summary = MeasureParams::default().summary_of(&points);
        log.push(seq, id, &points, summary);
    }

    fn live_ids(log: &DeltaLog, tomb: &HashMap<TrajId, u64>) -> Vec<TrajId> {
        log.snapshot()
            .iter()
            .flat_map(|seg| {
                (0..seg.store.len())
                    .filter(|&slot| seg.is_live(slot, tomb))
                    .map(|slot| seg.store.id(slot))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn last_write_wins() {
        let mut log = DeltaLog::default();
        let mut tomb = HashMap::new();
        // upsert id 1 twice: only the later entry is live
        push(&mut log, 1, 1);
        tomb.insert(1, 1);
        push(&mut log, 3, 1);
        tomb.insert(1, 3);
        assert_eq!(live_ids(&log, &tomb), vec![1]);
    }

    #[test]
    fn delete_out_sequences_insert() {
        let mut log = DeltaLog::default();
        let mut tomb = HashMap::new();
        push(&mut log, 1, 2);
        tomb.insert(2, 1);
        // delete at seq 2
        tomb.insert(2, 2);
        assert!(live_ids(&log, &tomb).is_empty());
        // re-insert at seq 3
        push(&mut log, 3, 2);
        tomb.insert(2, 3);
        assert_eq!(live_ids(&log, &tomb), vec![2]);
    }

    #[test]
    fn drain_prefix_keeps_tail() {
        let mut log = DeltaLog::default();
        push(&mut log, 1, 1);
        push(&mut log, 2, 2);
        push(&mut log, 3, 3);
        log.drain_prefix(2);
        assert_eq!(log.len(), 1);
        assert_eq!(log.snapshot()[0].store.id(0), 3);
        log.drain_prefix(10); // over-long drain is clamped
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn writes_extend_one_arena_until_snapshotted() {
        let mut log = DeltaLog::default();
        push(&mut log, 1, 1);
        push(&mut log, 2, 2);
        // No snapshot outstanding: both writes share one contiguous arena.
        assert_eq!(log.snapshot().len(), 1);
        assert_eq!(log.snapshot()[0].store.len(), 2);

        // Hold a snapshot across a write: the write must not mutate the
        // shared segment; it starts a new one.
        let snap = log.snapshot();
        push(&mut log, 3, 3);
        assert_eq!(snap[0].store.len(), 2, "snapshot changed under a writer");
        let now = log.snapshot();
        assert_eq!(now.len(), 2);
        assert_eq!(now[1].store.id(0), 3);
        assert_eq!(log.len(), 3);

        // Snapshot released: appends go in place again.
        drop(snap);
        drop(now);
        push(&mut log, 4, 4);
        assert_eq!(log.snapshot().len(), 2, "writer should reuse the unshared tail");
    }

    #[test]
    fn drain_prefix_splits_a_segment() {
        let mut log = DeltaLog::default();
        for i in 0..5 {
            push(&mut log, i + 1, i);
        }
        assert_eq!(log.snapshot().len(), 1);
        log.drain_prefix(3); // mid-segment
        assert_eq!(log.len(), 2);
        let segs = log.snapshot();
        assert_eq!(snapshot_len(&segs), 2);
        assert_eq!(segs[0].store.id(0), 3);
        assert_eq!(segs[0].store.id(1), 4);
    }

    #[test]
    fn entries_carry_insert_time_summaries() {
        let mut log = DeltaLog::default();
        let points = vec![Point::new(9.0, 0.0)];
        let summary = MeasureParams::default().summary_of(&points);
        log.push(1, 9, &points, summary);
        let segs = log.snapshot();
        assert_eq!(segs[0].meta[0].1.len, 1);
        assert_eq!(segs[0].meta[0].1.first, points[0]);
    }

    #[test]
    fn seal_forces_a_fresh_segment() {
        let mut log = DeltaLog::default();
        push(&mut log, 1, 1);
        push(&mut log, 2, 2);
        log.seal();
        push(&mut log, 3, 3);
        let segs = log.snapshot();
        assert_eq!(segs.len(), 2, "post-seal write starts a new segment");
        assert_eq!(segs[0].store.len(), 2);
        assert_eq!(segs[1].store.id(0), 3);
        // Sealing an empty log is a no-op; the first push creates segment 1.
        let mut empty = DeltaLog::default();
        empty.seal();
        push(&mut empty, 1, 1);
        assert_eq!(empty.snapshot().len(), 1);
    }

    #[test]
    fn epoch_counts_every_push_and_survives_drain() {
        let mut log = DeltaLog::default();
        assert_eq!(log.epoch(), 0);
        push(&mut log, 1, 1);
        push(&mut log, 2, 2);
        assert_eq!(log.epoch(), 2);
        log.drain_prefix(2);
        assert_eq!(log.epoch(), 2, "epoch is monotone, not reset by drains");
        push(&mut log, 3, 3);
        assert_eq!(log.epoch(), 3);
    }
}
