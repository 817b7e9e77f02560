//! The write path: one `commit` behind every entrance (`insert`, `remove`,
//! their `_acked` forms, `apply_replica`) — finite-coordinate check, state
//! write lock, sequence decision, WAL append (lock order state → wal; an
//! append error returns with the state untouched), [`ServeState::apply`],
//! the cache note and the version publish, then counters and write latency
//! — and one applier, which recovery's replay of already-committed records
//! calls alone.

use crate::error::ServiceError;
use crate::query::check_finite;
use crate::service::{ReposeService, ServeState};
use crate::stats::ServiceCounters;
use repose_distance::{MeasureParams, TrajSummary};
use repose_durability::WalRecord;
use repose_model::{TrajId, Trajectory};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A record entering `commit`, and where its sequence comes from.
enum Entrance<'a> {
    /// A local write: stamped `op_seq + 1` under the state lock.
    Local(&'a mut WalRecord),
    /// A leader's record: its sequence must be the next one here.
    Replica(&'a WalRecord),
}

impl ServeState {
    /// The one applier. A data record adopts its sequence, tombstones its
    /// id (hiding the frozen row and every earlier delta row) and, for an
    /// upsert, appends the new live row to the delta log with the same
    /// O(1)-prefilter summary the frozen tries store per leaf member —
    /// paid once per write instead of per query, and returned for the
    /// result cache's note. Which partition the row joins is compaction's
    /// decision alone. A checkpoint changes nothing here (`replay`
    /// consumes checkpoints while choosing what to skip).
    pub(crate) fn apply(
        &mut self,
        record: &WalRecord,
        params: MeasureParams,
    ) -> Option<TrajSummary> {
        let (&seq, &id) = match record {
            WalRecord::Upsert { seq, id, .. } | WalRecord::Delete { seq, id } => (seq, id),
            WalRecord::Checkpoint { .. } => return None,
        };
        self.op_seq = seq;
        Arc::make_mut(&mut self.tombstones).insert(id, seq);
        let WalRecord::Upsert { points, .. } = record else { return None };
        let summary = params.summary_of(points);
        self.delta.push(seq, id, points, summary);
        Some(summary)
    }
}

impl ReposeService {
    /// Inserts `traj`, replacing any live trajectory with the same id
    /// (upsert). Visible to every query that starts after this returns.
    /// The points are copied into the delta log's arena segment
    /// ([`Trajectory`] is only the I/O edge).
    ///
    /// With durability enabled the write is logged **before** it is
    /// applied: `Ok` means durable to the configured
    /// [`repose_durability::FsyncPolicy`]'s guarantee; on `Err` the
    /// in-memory state is unchanged and the write was not acknowledged.
    pub fn insert(&self, traj: Trajectory) -> Result<(), ServiceError> {
        self.insert_acked(traj).map(drop)
    }

    /// [`ReposeService::insert`], additionally returning the record the
    /// write was logged as (the trajectory's points move into it) — what
    /// a replicating leader forwards to its follower, verbatim.
    pub fn insert_acked(&self, traj: Trajectory) -> Result<WalRecord, ServiceError> {
        let mut record = WalRecord::Upsert { seq: 0, id: traj.id, points: traj.points };
        self.commit(Entrance::Local(&mut record))?;
        Ok(record)
    }

    /// Deletes the trajectory with id `id` (a no-op if absent). Same
    /// durability contract as [`ReposeService::insert`].
    pub fn remove(&self, id: TrajId) -> Result<(), ServiceError> {
        self.remove_acked(id).map(drop)
    }

    /// [`ReposeService::remove`], additionally returning the record the
    /// delete was logged as (see [`ReposeService::insert_acked`]).
    pub fn remove_acked(&self, id: TrajId) -> Result<WalRecord, ServiceError> {
        let mut record = WalRecord::Delete { seq: 0, id };
        self.commit(Entrance::Local(&mut record))?;
        Ok(record)
    }

    /// Applies one record replicated from a leader, adopting the leader's
    /// operation sequence so this replica's WAL and logical state stay
    /// byte-identical to the leader's.
    ///
    /// * a record at or below the current sequence is a duplicate delivery
    ///   (network retry or duplication): it is **not** re-logged or
    ///   re-applied, and `Ok(false)` says so — acknowledging it again is
    ///   safe, which is what makes replication idempotent;
    /// * a record more than one ahead is a gap (a lost predecessor):
    ///   refused with [`ServiceError::ReplicationGap`] so the leader
    ///   retries from the hole instead of the replica silently diverging;
    /// * the next record in sequence is committed exactly like a local
    ///   write: refused if non-finite ([`ServiceError::InvalidInput`]),
    ///   logged **before** it is applied ([`ServiceError::Durability`]
    ///   means not acknowledged).
    ///
    /// Only data records replicate; a [`WalRecord::Checkpoint`] is a
    /// log-lifecycle record each node writes for itself and is rejected
    /// as a gap-free no-op (`Ok(false)`).
    pub fn apply_replica(&self, record: &WalRecord) -> Result<bool, ServiceError> {
        self.commit(Entrance::Replica(record))
    }

    /// The one commit (order: module docs). `Ok(false)` = nothing to do:
    /// a duplicate or a lifecycle record.
    fn commit(&self, entrance: Entrance<'_>) -> Result<bool, ServiceError> {
        let t0 = Instant::now();
        let entering = match &entrance {
            Entrance::Local(record) => &**record,
            Entrance::Replica(record) => *record,
        };
        let (counter, id) = match *entering {
            WalRecord::Upsert { id, ref points, .. } => {
                check_finite(points, "inserted trajectory")?;
                (&self.counters.inserts, id)
            }
            WalRecord::Delete { id, .. } => (&self.counters.deletes, id),
            WalRecord::Checkpoint { .. } => return Ok(false),
        };
        {
            let mut s = self.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            let next = s.op_seq + 1;
            let record: &WalRecord = match entrance {
                Entrance::Local(record) => {
                    let (WalRecord::Upsert { seq, .. } | WalRecord::Delete { seq, .. }) = record
                    else { unreachable!("lifecycle records returned above") };
                    *seq = next;
                    record
                }
                Entrance::Replica(record) if record.seq() <= s.op_seq => return Ok(false),
                Entrance::Replica(record) if record.seq() != next => {
                    return Err(ServiceError::ReplicationGap { expected: next, got: record.seq() })
                }
                Entrance::Replica(record) => record,
            };
            if let Some(wal) = &self.wal {
                wal.lock().map_err(|_| ServiceError::StatePoisoned)?.append(record)?;
            }
            let row = s.apply(record, self.params);
            // Noted before it is published, both under the state lock: a
            // reader that loads the new version finds this write in the
            // cache's ring, and versions publish in sequence order.
            if self.caching {
                self.lock_cache().note(s.op_seq, id, row);
            }
            self.version.store(s.op_seq, Ordering::Release);
        }
        ServiceCounters::bump(counter);
        self.counters.record_write(t0.elapsed());
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use repose::{Repose, ReposeConfig};
    use repose_durability::DurabilityConfig;
    use repose_model::{Dataset, Point};

    /// `(id, seq)` pairs: the tombstones, or the delta log's rows.
    type Writes = Vec<(u64, u64)>;

    /// What `apply` may touch: tombstones, the delta log, `op_seq`.
    fn applied(service: &ReposeService) -> (Writes, Writes, u64) {
        let s = service.state.read().unwrap();
        let mut tombstones: Vec<_> = s.tombstones.iter().map(|(&id, &seq)| (id, seq)).collect();
        tombstones.sort_unstable();
        let log = s.delta.snapshot();
        let rows = log.iter().flat_map(|seg| {
            (0..seg.store.len()).map(|slot| (seg.store.id(slot), seg.meta[slot].0))
        });
        (tombstones, rows.collect(), s.op_seq)
    }

    fn line(id: TrajId) -> Trajectory {
        Trajectory::new(id, (0..4).map(|j| Point::new(j as f64, id as f64)).collect())
    }

    /// A local write, the replicated copy of the record it returned, and
    /// the recovery replay of the record it logged leave the same state,
    /// field by field — and that state is what one `apply` per record says.
    #[test]
    fn every_entrance_applies_a_record_identically() {
        let dir = std::env::temp_dir().join(format!("repose-apply-{}", std::process::id()));
        let rcfg = ReposeConfig::new(repose_distance::Measure::Hausdorff).with_partitions(3);
        let cfg = |durable: bool| ServiceConfig {
            pool_threads: 1,
            durability: durable.then(|| DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let frozen = Dataset::from_trajectories((0..9).map(line).collect());
        let build = |d| ReposeService::with_config(Repose::build(&frozen, rcfg), cfg(d));
        let (leader, twin) = (build(true), build(false));
        // An upsert of a new id, a delete of a frozen id, a delete of an
        // absent id, an upsert over a live delta row.
        let writes = [(true, 100), (false, 3), (false, 777), (true, 100)];
        for (seq, (upsert, id)) in (1..).zip(writes) {
            let res = if upsert { leader.insert_acked(line(id)) } else { leader.remove_acked(id) };
            let record = res.expect("local write");
            assert_eq!(record.seq(), seq);
            assert!(twin.apply_replica(&record).expect("in sequence"));
            assert_eq!(applied(&twin), applied(&leader), "after write {seq}");
        }
        // Both upserts of id 100 sit in the one log, in append order.
        let want = (vec![(3, 2), (100, 4), (777, 3)], vec![(100, 1), (100, 4)], 4);
        assert_eq!(applied(&leader), want);

        // A replayed checkpoint is not data: the delta log keeps its
        // segments, the very same ones, and its length, and `op_seq` does
        // not adopt the checkpoint's sequence.
        let mut state = twin.state.write().unwrap();
        let (segs, len) = (state.delta.snapshot(), state.delta.len());
        state.apply(&WalRecord::Checkpoint { seq: 9 }, MeasureParams::default());
        let now = state.delta.snapshot();
        let same = now.iter().zip(&segs).all(|(a, b)| Arc::ptr_eq(a, b));
        assert!(same && now.len() == segs.len() && state.delta.len() == len && state.op_seq == 4);
        drop(state);

        drop(leader);
        let (recovered, _) = ReposeService::recover(rcfg, cfg(true)).expect("recover");
        assert_eq!(applied(&recovered), applied(&twin));
        std::fs::remove_dir_all(&dir).ok();
    }
}
