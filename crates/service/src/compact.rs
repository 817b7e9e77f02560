//! Compaction: folding the delta log into rebuilt frozen partitions and
//! checkpointing the WAL behind the result by installing it as an archive
//! generation — plus the one statement of which rows are live. It is the
//! only code that places a delta row in a partition.

use crate::delta::{snapshot_len, DeltaSegment};
use crate::error::ServiceError;
use crate::query::Snapshot;
use crate::service::ReposeService;
use crate::stats::ServiceCounters;
use repose::Repose;
use repose_archive::{prune_generations, quarantine, write_archive, Archive, ArchiveError};
use repose_durability::FailPlan;
use repose_model::{enclosing_square_of, TrajStore};
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
/// rule compaction, the query's delta scan and [`ReposeService::len`]
/// share.
impl Snapshot {
    /// Partition `pi`'s frozen survivors (rows whose id has no tombstone),
    /// in arena order.
    pub(crate) fn frozen_live(&self, pi: usize) -> impl Iterator<Item = (&TrajStore, usize)> {
        let store = self.frozen.partition_view(pi).store;
        (0..store.len())
            .filter(move |&slot| !self.tombstones.contains_key(&store.id(slot)))
            .map(move |slot| (store, slot))
    }

    /// The live delta rows (each id's latest write, unless a delete
    /// out-sequenced it), in append order, with their segment so a caller
    /// can read the stored summary too.
    pub(crate) fn delta_live(&self) -> impl Iterator<Item = (&DeltaSegment, usize)> {
        self.delta.iter().flat_map(move |seg| {
            (0..seg.store.len())
                .filter(move |&slot| seg.is_live(slot, &self.tombstones))
                .map(move |slot| (&**seg, slot))
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
    /// Folds every buffered write into rebuilt frozen tries: each
    /// partition `pi` is rebuilt in place from its frozen survivors then
    /// the live delta rows with `id % partitions == pi`, in append order,
    /// on the deployment's grid. Placement never changes,
    /// and neither does the region while every live delta point lies
    /// inside it; a point outside grows the region to the enclosing square
    /// of the old one and the delta points, so reference-point
    /// discretization stays sound.
    ///
    /// The rebuild runs without holding the state lock — readers and
    /// writers proceed against the old state — and the new deployment is
    /// installed with a brief write-locked swap that drains exactly the
    /// compacted delta prefix. Writes that land mid-rebuild stay buffered
    /// and survive into the next compaction. Returns the number of
    /// trajectories in the rebuilt deployment.
    ///
    /// With durability enabled a completed compaction also **checkpoints**
    /// the WAL: the log rotates to a new segment, the rebuilt deployment
    /// is installed as a fresh archive generation, and every segment the
    /// generation it replaced fully covers is pruned — so recovery time
    /// tracks the write volume since the compaction before last, not
    /// service lifetime. If the install fails, the rebuilt deployment
    /// still serves, the log keeps its older base, and the error is
    /// returned.
    pub fn compact(&self) -> Result<usize, ServiceError> {
        let _gate = self.compact_gate.lock().map_err(|_| ServiceError::StatePoisoned)?;

        // Phase 1: consistent snapshot.
        let (snap, seq_snapshot) = {
            let s = self.state.read().map_err(|_| ServiceError::StatePoisoned)?;
            (s.snapshot(), s.op_seq)
        };
        let frozen = &snap.frozen;
        let n = frozen.num_partitions();

        // Phase 2: rebuild offline from the live snapshot, each live delta
        // row placed in partition `id % n`.
        let mut placed: Vec<Vec<(&TrajStore, usize)>> = vec![Vec::new(); n];
        for (seg, slot) in snap.delta_live() {
            placed[seg.store.id(slot) as usize % n].push((&seg.store, slot));
        }
        let delta_points = || placed.iter().flatten().flat_map(|&(store, slot)| store.points(slot));
        let old = frozen.region();
        let region = if delta_points().all(|p| old.contains(*p)) {
            old
        } else {
            enclosing_square_of([old.min, old.max].iter().chain(delta_points()))
                .expect("the old corners are points")
        };
        let parts = placed.into_iter().enumerate();
        let parts = parts.map(|(pi, rows)| gather(snap.frozen_live(pi).chain(rows)));
        let new_frozen =
            Arc::new(Repose::build_from_parts(parts.collect(), region, *frozen.config()));

        // Phase 3: atomic install.
        {
            let mut s = self.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            s.delta.drain_prefix(snapshot_len(&snap.delta));
            // Tombstones at or before the snapshot are fully reflected in
            // the rebuilt deployment; later ones still apply.
            Arc::make_mut(&mut s.tombstones).retain(|_, seq| *seq > seq_snapshot);
            s.frozen = Arc::clone(&new_frozen);
        }
        // The live set and every answer's distances are unchanged, so the
        // write version is too: cached answers survive a compaction.
        ServiceCounters::bump(&self.counters.compactions);
        self.counters.last_compact_rebuilt.store(n as u64, Ordering::Relaxed);

        // Phase 4 (durable services): make `new_frozen`, which reflects
        // exactly the operations with seq <= seq_snapshot, the log's
        // newest base. The log lock is taken alone (writers go
        // state -> wal, so no cycle) and never across the install.
        if let (Some(wal), Some(arc)) = (&self.wal, &self.archive) {
            let lock_wal = || wal.lock().map_err(|_| ServiceError::StatePoisoned);
            // 1. Rotate, fsyncing every record the generation will claim.
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

#[cfg(test)]
mod tests {
    use crate::{ReposeService, ServiceConfig};
    use repose::{Repose, ReposeConfig};
    use repose_distance::{Measure, MeasureParams};
    use repose_model::{Dataset, Point, Trajectory};

    const PARTITIONS: usize = 4;
    const FAR: u64 = 9_999;

    /// Offsets chosen so that squaring the region's own corners again
    /// moves its lower y edge by an ulp: only the keep branch keeps it.
    fn line(id: u64) -> Trajectory {
        let (x, y) = (0.1 + (id % 7) as f64, 2.2 + (id / 7) as f64);
        Trajectory::new(id, (0..6).map(|j| Point::new(x + j as f64 * 0.5, y)).collect())
    }

    /// A sequential, cache-less service over lines `0..40`.
    fn service(measure: Measure, params: MeasureParams) -> ReposeService {
        let frozen: Vec<Trajectory> = (0..40).map(line).collect();
        let cfg = ReposeConfig::new(measure)
            .with_partitions(PARTITIONS)
            .with_delta(0.7)
            .with_params(params);
        let built = Repose::build(&Dataset::from_trajectories(frozen), cfg);
        let config = ServiceConfig { cache_capacity: 0, pool_threads: 1, ..Default::default() };
        ReposeService::with_config(built, config)
    }

    /// Writes and deletes inside the frozen region leave the region, and
    /// with it the grid every trie is built on, bit for bit.
    #[test]
    fn an_in_region_compaction_keeps_the_region_bit_for_bit() {
        let svc = service(Measure::Frechet, MeasureParams::default());
        let bits = |svc: &ReposeService| {
            let r = svc.snapshot().frozen.region();
            [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits)
        };
        let before = bits(&svc);
        svc.insert(line(12)).unwrap();
        svc.insert(Trajectory::new(77, vec![Point::new(0.6, 2.7), Point::new(6.1, 7.2)])).unwrap();
        svc.remove(3).unwrap();
        svc.compact().unwrap();
        assert_eq!(bits(&svc), before);
    }

    /// A write far outside the frozen region grows the region to cover it
    /// and keeps every frozen survivor in its partition; each live delta
    /// row joins partition `id % PARTITIONS` after the survivors, in
    /// append order — an upsert over a frozen id moves that row there too
    /// — and the rebuilt deployment answers every measure exactly.
    #[test]
    fn a_write_outside_the_region_grows_it_and_keeps_placement() {
        let far = Trajectory::new(FAR, vec![Point::new(500.0, 500.0), Point::new(501.0, 499.0)]);
        let shifted = |id, dy| {
            let points = line(id).points.iter().map(|p| Point::new(p.x, p.y + dy)).collect();
            Trajectory::new(id, points)
        };
        let (moved, again) = (shifted(12, 0.3), shifted(101, -0.45));
        let mut live: Vec<Trajectory> =
            (0..40).filter(|&id| id != 5 && id != 12).map(line).collect();
        live.extend([far.clone(), line(100), moved.clone(), again.clone()]);
        // Each partition's live delta rows, in append order.
        let tail = |pi: usize| match pi {
            0 => vec![100, 12],
            1 => vec![101],
            3 => vec![FAR],
            _ => vec![],
        };
        let near = vec![Point::new(1.1, 4.2), Point::new(2.6, 4.2)];
        let at_far = vec![Point::new(500.2, 500.1)];
        let params = MeasureParams::with_eps(0.5);
        for measure in Measure::ALL {
            let svc = service(measure, params);
            svc.remove(5).unwrap();
            svc.insert(far.clone()).unwrap();
            for id in [100, 101, 102] {
                svc.insert(line(id)).unwrap();
            }
            svc.insert(moved.clone()).unwrap();
            svc.insert(again.clone()).unwrap();
            svc.remove(102).unwrap();
            let old = svc.snapshot().frozen;
            assert!(!far.points.iter().all(|p| old.region().contains(*p)));
            assert_eq!(svc.compact().unwrap(), live.len());
            assert_eq!(svc.stats().last_compact_rebuilt, PARTITIONS);

            let new = svc.snapshot().frozen;
            assert!(far.points.iter().all(|p| new.region().contains(*p)), "{measure}");
            assert!(new.region().contains_mbr(&old.region()), "{measure}: region shrank");
            for pi in 0..PARTITIONS {
                let ids = |store: &repose_model::TrajStore| -> Vec<u64> {
                    (0..store.len()).map(|s| store.id(s)).collect()
                };
                let mut kept = ids(old.partition_view(pi).store);
                kept.retain(|&id| id != 5 && id != 12);
                kept.extend(tail(pi));
                assert_eq!(ids(new.partition_view(pi).store), kept, "{measure}: partition {pi}");
            }

            assert_eq!(svc.query(&at_far, 1).unwrap().hits[0].id, FAR, "{measure}");
            for q in [&near, &at_far] {
                let mut truth: Vec<f64> =
                    live.iter().map(|t| params.distance(measure, q, &t.points)).collect();
                truth.sort_unstable_by(f64::total_cmp);
                for k in [1, 5, live.len()] {
                    let got: Vec<u64> =
                        svc.query(q, k).unwrap().hits.iter().map(|h| h.dist.to_bits()).collect();
                    let want: Vec<u64> = truth[..k].iter().map(|d| d.to_bits()).collect();
                    assert_eq!(got, want, "{measure} k={k}: answer differs from brute force");
                }
            }
        }
    }
}
