//! Compaction: folding the delta logs into rebuilt frozen partitions and
//! checkpointing the WAL behind the result by installing it as an archive
//! generation — plus the one statement of which rows are live.

use crate::delta::{snapshot_len, DeltaLog};
use crate::error::ServiceError;
use crate::query::Snapshot;
use crate::service::ReposeService;
use crate::stats::ServiceCounters;
use repose::Repose;
use repose_archive::{prune_generations, quarantine, write_archive, Archive, ArchiveError};
use repose_durability::FailPlan;
use repose_model::TrajStore;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How many installed archive generations a service retains: the one it
/// just wrote plus one predecessor to fall back to if the newest is later
/// found corrupt. Older generations are pruned on every install, and the
/// log is checkpointed to the oldest one kept.
const ARCHIVE_GENERATIONS_KEPT: usize = 2;

/// Installs `deployment`, current through `op_seq`, as a fresh generation
/// in `dir`, re-opens it through full validation — proving end to end
/// that a restart could attach these exact bytes — and only then prunes
/// to [`ARCHIVE_GENERATIONS_KEPT`]. A generation that fails the read-back
/// is quarantined, leaving its predecessors as they were.
pub(crate) fn install_generation(
    dir: &Path,
    deployment: &Repose,
    op_seq: u64,
    failpoints: &FailPlan,
) -> Result<Archive, ArchiveError> {
    let path = write_archive(dir, deployment, op_seq, failpoints)?;
    let archive = Archive::open(&path, failpoints).inspect_err(|_| drop(quarantine(&path)))?;
    prune_generations(dir, ARCHIVE_GENERATIONS_KEPT);
    Ok(archive)
}

/// The live rows of a snapshot as `(arena, slot)` pairs — the liveness
/// rule compaction, the dirtiness test and [`ReposeService::len`] share.
impl Snapshot {
    /// Partition `pi`'s frozen survivors (rows whose id has no tombstone),
    /// in arena order.
    pub(crate) fn frozen_live(&self, pi: usize) -> impl Iterator<Item = (&TrajStore, usize)> {
        let store = self.frozen.partition_view(pi).store;
        (0..store.len())
            .filter(move |&slot| !self.tombstones.contains_key(&store.id(slot)))
            .map(move |slot| (store, slot))
    }

    /// Partition `pi`'s live delta rows (each id's latest write, unless a
    /// delete out-sequenced it), in append order.
    pub(crate) fn delta_live(&self, pi: usize) -> impl Iterator<Item = (&TrajStore, usize)> {
        self.deltas[pi].iter().flat_map(move |seg| {
            (0..seg.store.len())
                .filter(move |&slot| seg.is_live(slot, &self.tombstones))
                .map(move |slot| (&seg.store, slot))
        })
    }
}

/// Copies `rows` into a fresh arena (one contiguous range copy each).
fn gather<'a>(rows: impl Iterator<Item = (&'a TrajStore, usize)>) -> TrajStore {
    let mut arena = TrajStore::new();
    for (store, slot) in rows {
        arena.push_from(store, slot);
    }
    arena
}

impl ReposeService {
    /// Folds every buffered write into rebuilt frozen tries —
    /// **incrementally**: only partitions whose delta log changed since
    /// the last compact (per-partition epoch counters) or whose frozen
    /// data is hit by a tombstone are rebuilt; every other partition's
    /// arena and trie are shared with the previous deployment untouched
    /// (`Arc` clones via [`Repose::rebuild_partitions`]).
    ///
    /// The rebuild runs without holding the state lock — readers and
    /// writers proceed against the old state — and the new deployment is
    /// installed with a brief write-locked swap that drains exactly the
    /// compacted delta prefix. Writes that land mid-rebuild stay buffered
    /// and survive into the next compaction. Returns the number of
    /// trajectories in the rebuilt deployment.
    ///
    /// Incremental compaction keeps each rebuilt partition's existing data
    /// placement (frozen survivors + its own delta arrivals) and reuses
    /// the deployment's region grid; if a live delta point falls *outside*
    /// that region — where reference-point discretization would clamp and
    /// lose bound soundness — the compaction transparently falls back to
    /// [`ReposeService::compact_full`]'s global re-partition.
    ///
    /// With durability enabled a completed compaction also **checkpoints**
    /// the WAL: the log rotates to a new segment (aligned with the
    /// delta-segment seal), the rebuilt deployment is installed as a fresh
    /// archive generation, and every segment the generation it replaced
    /// fully covers is pruned — so recovery time tracks the write volume
    /// since the compaction before last, not service lifetime. If the
    /// install fails, the rebuilt deployment still serves, the log keeps
    /// its older base, and the error is returned.
    pub fn compact(&self) -> Result<usize, ServiceError> {
        self.compact_inner(false)
    }

    /// [`ReposeService::compact`] forced to rebuild the *whole*
    /// deployment: the live set is re-partitioned globally (fresh region,
    /// fresh placement), like the offline build. Use it to restore
    /// partition balance after long runs of skewed writes; plain
    /// `compact` is the cheap steady-state operation.
    pub fn compact_full(&self) -> Result<usize, ServiceError> {
        self.compact_inner(true)
    }

    fn compact_inner(&self, force_full: bool) -> Result<usize, ServiceError> {
        let _gate = self.compact_gate.lock().map_err(|_| ServiceError::StatePoisoned)?;

        // Phase 1: consistent snapshot.
        let (snap, epochs, compacted_epochs, seq_snapshot) = {
            let s = self.state.read().map_err(|_| ServiceError::StatePoisoned)?;
            let epochs: Vec<u64> = s.deltas.iter().map(DeltaLog::epoch).collect();
            (s.snapshot(), epochs, s.compacted_epochs.clone(), s.op_seq)
        };
        let frozen = &snap.frozen;
        let n = frozen.num_partitions();

        // Selective rebuild reuses the frozen region's grid; live points
        // outside it would discretize unsoundly — fall back to the global
        // rebuild, which recomputes the region. (Checked lazily: a forced
        // full rebuild skips the scan over every live delta point.)
        let in_region = || {
            let region = frozen.region();
            (0..n)
                .flat_map(|pi| snap.delta_live(pi))
                .all(|(store, slot)| store.points(slot).iter().all(|p| region.contains(*p)))
        };

        // Phase 2: rebuild offline from the live snapshot.
        let (new_frozen, rebuilt_parts) = if force_full || !in_region() {
            // Global re-partition: the live set as one flat arena (all
            // frozen survivors, then all live delta rows — placement
            // depends on this order), dealt out afresh.
            let frozen_rows = (0..n).flat_map(|pi| snap.frozen_live(pi));
            let live = gather(frozen_rows.chain((0..n).flat_map(|pi| snap.delta_live(pi))));
            (Arc::new(Repose::build_from_store(&live, *frozen.config())), n)
        } else {
            // Incremental: a partition is dirty when its delta epoch moved
            // past the last compacted epoch or a tombstone hides one of
            // its frozen rows; the rest keep their trie + arena by `Arc`.
            let replacements: Vec<(usize, TrajStore)> = (0..n)
                .filter(|&pi| {
                    epochs[pi] > compacted_epochs[pi]
                        || snap.frozen_live(pi).count() < frozen.partition_view(pi).store.len()
                })
                .map(|pi| (pi, gather(snap.frozen_live(pi).chain(snap.delta_live(pi)))))
                .collect();
            match replacements.len() {
                0 => (Arc::clone(frozen), 0),
                count => (Arc::new(frozen.rebuild_partitions(replacements)), count),
            }
        };

        // Phase 3: atomic install.
        {
            let mut s = self.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            for (log, compacted) in s.deltas.iter_mut().zip(&snap.deltas) {
                log.drain_prefix(snapshot_len(compacted));
            }
            s.compacted_epochs.copy_from_slice(&epochs);
            // Tombstones at or before the snapshot are fully reflected in
            // the rebuilt deployment; later ones still apply.
            Arc::make_mut(&mut s.tombstones).retain(|_, seq| *seq > seq_snapshot);
            s.frozen = Arc::clone(&new_frozen);
        }
        self.version.fetch_add(1, Ordering::Release);
        ServiceCounters::bump(&self.counters.compactions);
        self.counters.partitions_rebuilt.fetch_add(rebuilt_parts as u64, Ordering::Relaxed);
        self.counters.last_compact_rebuilt.store(rebuilt_parts as u64, Ordering::Relaxed);

        // Phase 4 (durable services): make `new_frozen`, which reflects
        // exactly the operations with seq <= seq_snapshot, the log's
        // newest base. The log lock is taken alone (writers go
        // state -> wal, so no cycle) and never across the install.
        if let (Some(wal), Some(arc)) = (&self.wal, &self.archive) {
            let lock_wal = || wal.lock().map_err(|_| ServiceError::StatePoisoned);
            // 1. Seal and fsync every record the generation will claim.
            lock_wal()?.rotate()?;
            // 2. Install it, validated by read-back.
            let archive = install_generation(&arc.dir, &new_frozen, seq_snapshot, &arc.failpoints)?;
            ServiceCounters::bump(&self.counters.archive_generations);
            let mut current = arc.current.lock().unwrap_or_else(|e| e.into_inner());
            let replaced = std::mem::replace(&mut *current, archive).op_seq();
            drop(current);
            // 3. The replaced generation is now the oldest kept: the log
            // must reach back to it, and no further.
            lock_wal()?.checkpoint(replaced)?;
        }
        Ok(new_frozen.partition_sizes().iter().sum())
    }
}
