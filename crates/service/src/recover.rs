//! Crash recovery: attaching a service's newest usable archive generation
//! and replaying its write-ahead log past it.

use crate::error::ServiceError;
use crate::service::{ReposeService, ServiceConfig};
use repose::{Repose, ReposeConfig};
use repose_archive::{list_generations, quarantine, Archive, ArchiveError};
use repose_durability::Wal;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// What [`ReposeService::recover`] found and rebuilt.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Data records (upserts + deletes) replayed from the log past the
    /// attached generation.
    pub replayed_records: u64,
    /// Dangling bytes truncated from a torn final segment (0 after a
    /// clean shutdown).
    pub torn_bytes: u64,
    /// The restored global operation sequence.
    pub last_seq: u64,
    /// Whether the frozen deployment was attached from an archive
    /// generation. Always `true`: a generation is the log's only base.
    pub from_archive: bool,
    /// The operation sequence of the attached archive generation; only
    /// log records past it were replayed.
    pub archive_op_seq: u64,
    /// Archive generations that failed validation and were moved into
    /// the generation directory's `.quarantine/` — loud evidence, never
    /// silently served or silently deleted.
    pub archives_quarantined: usize,
    /// Wall time of the whole recovery (replay + attach).
    pub wall_time: Duration,
}

impl ReposeService {
    /// Rebuilds a service from its durability directory after a crash:
    /// attaches (mmap) the newest archive generation whose checksums
    /// verify, whose configuration matches `repose_config` and whose
    /// operation sequence the log bridges — at or above its newest
    /// checkpoint, at or below its last record — then replays every
    /// logged operation past that sequence into fresh delta segments
    /// (tolerating a torn tail — see [`repose_durability::replay()`]),
    /// restores the operation sequence, and reopens the WAL on a fresh
    /// segment.
    ///
    /// A generation that fails validation is quarantined
    /// ([`RecoveryReport::archives_quarantined`]) and the next-newest is
    /// tried; the log reaches back to the oldest generation kept, so the
    /// predecessor of a corrupt newest one is usable. An I/O error
    /// opening a generation says nothing about its bytes: it is returned
    /// as [`ServiceError::Archive`] with every generation left in place,
    /// so a retry can succeed. With no usable generation recovery fails
    /// with [`ServiceError::NoUsableGeneration`]; it never rebuilds.
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
        let (dir, dcfg) = config.generation_dir().ok_or(ServiceError::DurabilityNotConfigured)?;
        let replayed = repose_durability::replay(&dcfg.dir)?;

        let mut quarantined = 0usize;
        let mut attached: Option<(Repose, Archive)> = None;
        for (_, path) in list_generations(&dir).into_iter().rev() {
            let archive = match Archive::open(&path, &dcfg.failpoints) {
                Ok(archive) => archive,
                Err(e @ ArchiveError::Io { .. }) => return Err(e.into()),
                Err(_) => {
                    quarantined += usize::from(quarantine(&path).is_ok());
                    continue;
                }
            };
            // Valid but unusable — older than the log reaches, newer than
            // it holds, or another deployment's — is skipped, not
            // quarantined.
            let bridged = (replayed.checkpoint_seq..=replayed.last_seq).contains(&archive.op_seq());
            if !bridged || archive.meta().config != repose_config {
                continue;
            }
            match archive.attach() {
                Ok(repose) => {
                    attached = Some((repose, archive));
                    break;
                }
                // Checksums passed but reconstruction didn't.
                Err(_) => quarantined += usize::from(quarantine(&path).is_ok()),
            }
        }
        let (repose, archive) = attached.ok_or(ServiceError::NoUsableGeneration { dir })?;

        let (segments, next_index) = (replayed.segments, replayed.next_segment_index);
        let wal = Wal::resume(dcfg, segments, next_index, replayed.last_seq)?;
        // Everything at or below the cutover is already inside the frozen
        // deployment.
        let cutover = archive.op_seq();
        let service = ReposeService::assemble(repose, &config, Some((wal, archive)), cutover);
        // Replay the tail (data records only: `replay` consumed the
        // checkpoints) through the write path's one applier; these records
        // passed a commit before they were logged.
        let mut data_records = 0u64;
        {
            let mut s = service.state.write().map_err(|_| ServiceError::StatePoisoned)?;
            for record in replayed.records.iter().filter(|r| r.seq() > cutover) {
                s.apply(record, service.params);
                data_records += 1;
            }
            // The resumed WAL continues from `last_seq`; the next local
            // write must too, or two records would share a sequence.
            assert_eq!(s.op_seq, replayed.last_seq, "replay ends at the log's last sequence");
        }
        service.counters.recovered_records.store(data_records, Ordering::Relaxed);
        // Publish the replayed sequence. A recovered service's cache starts
        // empty, so no entry predates it; the next write notes `last_seq + 1`.
        service.version.store(replayed.last_seq, Ordering::Release);
        let report = RecoveryReport {
            replayed_records: data_records,
            torn_bytes: replayed.torn_bytes,
            last_seq: replayed.last_seq,
            from_archive: true,
            archive_op_seq: cutover,
            archives_quarantined: quarantined,
            wall_time: t0.elapsed(),
        };
        Ok((service, report))
    }
}
