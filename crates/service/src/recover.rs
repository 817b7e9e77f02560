//! Crash recovery: rebuilding a service from its durability directory.

use crate::error::ServiceError;
use crate::service::{ReposeService, ServiceConfig};
use repose::{Repose, ReposeConfig};
use repose_archive::{latest_valid, quarantine, Archive};
use repose_durability::Wal;
use repose_model::TrajStore;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What [`ReposeService::recover`] found and rebuilt.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Trajectories restored from the base snapshot.
    pub base_trajectories: usize,
    /// Data records (upserts + deletes) replayed from the log above the
    /// snapshot.
    pub replayed_records: u64,
    /// Dangling bytes truncated from a torn final segment (0 after a
    /// clean shutdown).
    pub torn_bytes: u64,
    /// The restored global operation sequence.
    pub last_seq: u64,
    /// Whether the frozen deployment was *attached* from a persisted
    /// archive generation (mmap + checksum) instead of rebuilt from the
    /// WAL base snapshot. When `true`, only WAL records past
    /// [`RecoveryReport::archive_op_seq`] were replayed.
    pub from_archive: bool,
    /// The operation sequence of the attached archive generation
    /// (`None` when recovery fell back to the full rebuild).
    pub archive_op_seq: Option<u64>,
    /// Archive generations that failed validation and were moved into
    /// the archive directory's `.quarantine/` — loud evidence, never
    /// silently served or silently deleted.
    pub archives_quarantined: usize,
    /// Wall time of the whole recovery (replay + rebuild or attach).
    pub wall_time: Duration,
}

impl ReposeService {
    /// Rebuilds a service from its durability directory after a crash:
    /// loads the newest complete base snapshot, replays every logged
    /// operation above it into fresh delta segments (tolerating a torn
    /// tail — see [`repose_durability::replay()`]), restores the operation
    /// sequence, and reopens the WAL on a fresh segment.
    ///
    /// With [`ServiceConfig::archive`] configured, the newest generation
    /// whose checksums verify, whose configuration matches, and whose
    /// operation sequence the WAL can bridge is *attached* (mmap) as the
    /// frozen deployment instead of rebuilt, and only the WAL records past
    /// its sequence are replayed. Generations that fail validation are
    /// quarantined ([`RecoveryReport::archives_quarantined`]); with none
    /// usable, recovery rebuilds — identical answers, just slower.
    ///
    /// `repose_config` must be the deployment configuration the original
    /// service was built with (measure, partitions, trie parameters);
    /// `config.durability` names the directory and must be `Some`.
    ///
    /// The recovered service answers queries bitwise-identically to one
    /// holding exactly the acknowledged pre-crash writes.
    pub fn recover(
        repose_config: ReposeConfig,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let t0 = Instant::now();
        let dcfg = config.durability.clone().ok_or(ServiceError::DurabilityNotConfigured)?;
        let replayed = repose_durability::replay(&dcfg.dir)?;

        // Archive-first: attach the newest valid, bridgeable generation.
        let mut quarantined = 0usize;
        let mut attached: Option<(Repose, Archive)> = None;
        if let Some(adir) = &config.archive {
            loop {
                let scan = latest_valid(adir, &dcfg.failpoints);
                for (path, _err) in &scan.rejected {
                    if quarantine(path).is_ok() {
                        quarantined += 1;
                    }
                }
                let Some(archive) = scan.best else { break };
                // Usable only if the WAL can bridge from its sequence to
                // the present: records in (archive, last] must all still
                // be in the log. A generation older than the WAL base
                // snapshot is stale (checkpoints pruned its tail) — valid
                // but unusable, so it is skipped, not quarantined.
                let bridgeable = archive.op_seq() >= replayed.base_seq
                    && archive.op_seq() <= replayed.last_seq;
                if !bridgeable || archive.meta().config != repose_config {
                    break;
                }
                match archive.attach() {
                    Ok(repose) => {
                        attached = Some((repose, archive));
                        break;
                    }
                    Err(_) => {
                        // Checksums passed but reconstruction didn't —
                        // quarantine and retry with the next-newest. If
                        // even the quarantine move fails we must stop
                        // rescanning (the same file would be found again)
                        // and fall back to the full rebuild.
                        if quarantine(archive.path()).is_ok() {
                            quarantined += 1;
                        } else {
                            break;
                        }
                    }
                }
            }
        }

        let (repose, current_archive) = match attached {
            Some((repose, archive)) => (repose, Some(archive)),
            None => {
                let mut base = TrajStore::new();
                for (id, points) in &replayed.base {
                    base.push(*id, points);
                }
                (Repose::build_from_store(&base, repose_config), None)
            }
        };
        let (segments, next_index) = (replayed.segments, replayed.next_segment_index);
        let wal = Wal::resume(&dcfg, segments, next_index, replayed.last_seq)?;

        let archive_op_seq = current_archive.as_ref().map(Archive::op_seq);
        // Everything at or below the cutover is already inside the frozen
        // deployment: the attached archive's sequence, or (full rebuild)
        // the base snapshot's — where the filter is vacuous, because
        // `replay` only returns records above the base.
        let cutover = archive_op_seq.unwrap_or(replayed.base_seq);
        let service = ReposeService::assemble(repose, &config, Some(Mutex::new(wal)), cutover);
        if let (Some(state), Some(archive)) = (&service.archive, current_archive) {
            *state.current.lock().unwrap_or_else(|e| e.into_inner()) = Some(archive);
        }
        // Replay the tail through the write path's one applier; these
        // records passed a commit before they were logged.
        let mut data_records = 0u64;
        {
            let mut s = service.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            for record in replayed.records.iter().filter(|r| r.seq() > cutover) {
                data_records += u64::from(s.apply(record, service.params));
            }
            // The resumed WAL continues from `last_seq`; the next local
            // write must too, or two records would share a sequence.
            assert_eq!(s.op_seq, replayed.last_seq, "replay ends at the log's last sequence");
        }
        service.counters.recovered_records.store(data_records, Ordering::Relaxed);
        // Start the cache generation strictly above every pre-crash
        // version so no stale entry could ever match.
        service.version.store(replayed.last_seq + 1, Ordering::Release);
        let report = RecoveryReport {
            base_trajectories: replayed.base.len(),
            replayed_records: data_records,
            torn_bytes: replayed.torn_bytes,
            last_seq: replayed.last_seq,
            from_archive: archive_op_seq.is_some(),
            archive_op_seq,
            archives_quarantined: quarantined,
            wall_time: t0.elapsed(),
        };
        Ok((service, report))
    }
}
