//! Crash recovery: turn a durability directory back into state.
//!
//! [`replay()`] scans the directory and decodes every WAL segment in
//! rotation order, applying the torn-tail policy:
//!
//! * a decode failure in the **final** segment is a torn tail — the crash
//!   interrupted the last write. Everything before the bad frame is kept,
//!   the dangling bytes are counted in [`Replayed::torn_bytes`] and
//!   physically truncated from the file (so a later replay — recovery is
//!   idempotent — never mistakes them for mid-log corruption once the
//!   resumed writer has made this segment non-final), and recovery
//!   proceeds. This can only ever drop records that were *not*
//!   fsync-acknowledged (rotation seals segments with a flush + sync, so a
//!   sealed, non-final segment is never torn by a clean failure).
//! * a decode failure **anywhere else** is mid-log corruption: replay
//!   refuses with [`WalError::Corrupt`] rather than silently dropping
//!   acknowledged history.
//!
//! Replay reads only segments. The log's base is an archive generation
//! the serving layer attaches, at or above [`Replayed::checkpoint_seq`]:
//! records at or below the newest checkpoint are dropped here, and
//! recovery skips the rest the generation reflects — which also makes
//! replay indifferent to whether checkpoint pruning got around to
//! deleting their segments.

use crate::record::WalRecord;
use crate::wal::{parse_segment_name, SegmentInfo, WalError};
use std::fs;
use std::path::{Path, PathBuf};

/// Everything [`replay()`] recovered from a durability directory.
#[derive(Debug)]
pub struct Replayed {
    /// The newest [`WalRecord::Checkpoint`]'s sequence (0 before the
    /// first): the log holds every record above it, so any base at or
    /// above it can be brought to `last_seq`.
    pub checkpoint_seq: u64,
    /// Log records with sequence above `checkpoint_seq`, in append order:
    /// upserts and deletes only (checkpoints are consumed here).
    pub records: Vec<WalRecord>,
    /// The highest operation sequence seen anywhere in the log.
    pub last_seq: u64,
    /// Dangling bytes truncated from a torn final segment (0 on a clean
    /// shutdown).
    pub torn_bytes: u64,
    /// Scanned segments with their max sequences, for [`crate::Wal::resume`].
    pub segments: Vec<SegmentInfo>,
    /// The rotation index the resumed writer should open next.
    pub next_segment_index: u64,
}

/// Replays the durability directory at `dir` (see the module docs).
pub fn replay(dir: &Path) -> Result<Replayed, WalError> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| WalError::Io { point: "replay.scan", source: e })?;
    for entry in entries.flatten() {
        // Anything but a segment (archive generations, *.tmp) is not ours.
        if let Some(index) = parse_segment_name(&entry.file_name().to_string_lossy()) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_by_key(|&(index, _)| index);
    let next_segment_index = segments.last().map_or(1, |&(index, _)| index + 1);
    let last_index = segments.last().map(|&(index, _)| index);

    let mut records = Vec::new();
    let mut checkpoint_seq = 0u64;
    let mut last_seq = 0u64;
    let mut torn_bytes = 0u64;
    let mut infos = Vec::new();
    for (index, path) in segments {
        let bytes = fs::read(&path).map_err(|e| WalError::Io { point: "replay.read", source: e })?;
        let mut cur = bytes.as_slice();
        let mut max_seq = 0u64;
        loop {
            match WalRecord::decode(&mut cur) {
                Ok(None) => break,
                Ok(Some(record)) => {
                    max_seq = max_seq.max(record.seq());
                    last_seq = last_seq.max(record.seq());
                    match record {
                        WalRecord::Checkpoint { seq } => checkpoint_seq = checkpoint_seq.max(seq),
                        record => records.push(record),
                    }
                }
                Err(reason) => {
                    if Some(index) == last_index {
                        torn_bytes = cur.len() as u64;
                        // Physically drop the dangling bytes so recovery is
                        // idempotent: a resumed writer rotates to a *new*
                        // segment, making this one non-final — if the torn
                        // frame stayed on disk, the next replay would
                        // misread it as mid-log corruption.
                        truncate_segment(&path, (bytes.len() - cur.len()) as u64)?;
                        break;
                    }
                    return Err(WalError::Corrupt {
                        segment: path,
                        offset: (bytes.len() - cur.len()) as u64,
                        reason,
                    });
                }
            }
        }
        infos.push(SegmentInfo { index, path, max_seq });
    }
    records.retain(|record| record.seq() > checkpoint_seq);

    Ok(Replayed {
        checkpoint_seq,
        records,
        last_seq,
        torn_bytes,
        segments: infos,
        next_segment_index,
    })
}

/// Truncates a torn final segment to its clean prefix and syncs it, so
/// the dangling half-frame can never be re-read as corruption by a later
/// replay (recovery must be idempotent).
fn truncate_segment(path: &Path, clean_len: u64) -> Result<(), WalError> {
    let io = |source: std::io::Error| WalError::Io { point: "replay.truncate", source };
    let file = fs::OpenOptions::new().write(true).open(path).map_err(io)?;
    file.set_len(clean_len).map_err(io)?;
    file.sync_all().map_err(io)?;
    Ok(())
}
