//! The write-ahead log writer: fsync policy, segment rotation, and
//! checkpoint truncation.
//!
//! # Durability contract
//!
//! [`Wal::append`] buffers the encoded record and then commits it
//! according to the [`FsyncPolicy`]:
//!
//! * [`FsyncPolicy::Always`] — the record is flushed to the OS **and**
//!   `fsync`ed before `append` returns. An acknowledged write survives
//!   both process and machine crash.
//! * [`FsyncPolicy::Never`] — records are written to the OS on every
//!   append but never `fsync`ed (test/bench baseline).
//!
//! # Fail-stop
//!
//! Any I/O failure (real or injected) marks the WAL **dead**: every later
//! operation returns [`WalError::Dead`]. A half-failed write path must not
//! keep acknowledging operations whose durability is unknown; the owning
//! service surfaces the typed error and the operator recovers from the
//! directory ([`crate::replay()`]).
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/wal-<index>.log   record stream; `index` strictly increasing
//! ```
//!
//! Opening a segment ([`Wal::create`], [`Wal::resume`], [`Wal::rotate`])
//! syncs the directory before the segment takes its first record, so the
//! segment an acknowledged append landed in is itself durable; a
//! checkpoint that prunes segments syncs it again.
//!
//! The log's base is not in this crate: the serving layer checkpoints by
//! installing an archive generation of its frozen deployment
//! (`repose-archive`), by default in this same directory. A
//! [`Wal::checkpoint`] records that every operation at or below `seq` is
//! reflected in the oldest generation the service still keeps, then
//! prunes every sealed segment whose records all fall at or below it.
//! Replay correctness never depends on pruning: recovery skips records
//! at or below the attached generation's sequence regardless.

use crate::failpoint::{FailAction, FailPlan};
use crate::record::WalRecord;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// When `fsync` runs relative to appends (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Flush + `fsync` on every append: acknowledged ⇒ durable.
    Always,
    /// Flush on every append, never `fsync` (tests/benchmarks).
    Never,
}

/// A segment is rotated once it holds this many durably written bytes.
pub(crate) const SEGMENT_BYTES: u64 = 8 << 20;

/// Configuration of the durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments.
    pub dir: PathBuf,
    /// The fsync policy (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Deterministic fault-injection plan (default: empty — nothing
    /// fires). Armed in code; see [`crate::failpoint`].
    pub failpoints: FailPlan,
}

impl DurabilityConfig {
    /// A config with the production defaults (`Always`, no fail points).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            failpoints: FailPlan::new(),
        }
    }

    /// Replaces the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Replaces the fault-injection plan.
    pub fn with_failpoints(mut self, plan: FailPlan) -> Self {
        self.failpoints = plan;
        self
    }
}

/// Errors of the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// A real I/O operation failed at the named point.
    Io {
        /// Which write-path site failed.
        point: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A [`FailPlan`] arm fired at the named point.
    Injected {
        /// Which write-path site the arm was attached to.
        point: &'static str,
        /// The injected action.
        action: FailAction,
    },
    /// The WAL is dead after an earlier failure (fail-stop); recover from
    /// the directory to resume.
    Dead,
    /// A record in a *non-final* position failed to decode — mid-log
    /// corruption, which recovery must not paper over.
    Corrupt {
        /// The corrupt file.
        segment: PathBuf,
        /// Byte offset of the bad frame.
        offset: u64,
        /// Why the frame was rejected.
        reason: crate::record::DecodeError,
    },
    /// A fresh journal (or, in the serving layer, a fresh service's
    /// archive generations) refused a directory that already holds one.
    DirNotEmpty {
        /// The offending directory.
        dir: PathBuf,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { point, source } => write!(f, "wal I/O failure at {point}: {source}"),
            WalError::Injected { point, action } => {
                write!(f, "injected fault at {point}: {action:?}")
            }
            WalError::Dead => write!(f, "wal is dead after an earlier failure; recover to resume"),
            WalError::Corrupt { segment, offset, reason } => write!(
                f,
                "mid-log corruption in {} at byte {offset}: {reason}",
                segment.display()
            ),
            WalError::DirNotEmpty { dir } => write!(
                f,
                "{} already holds a journal or archive generations; \
                 use recovery instead of fresh creation",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

pub(crate) fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.log"))
}

/// A sealed segment the writer (or replayer) knows about.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// The segment's rotation index.
    pub index: u64,
    /// Its path.
    pub path: PathBuf,
    /// The largest record sequence it contains (0 when empty).
    pub max_seq: u64,
}

/// Counters a [`Wal`] exposes for service stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalCounters {
    /// Bytes handed to the OS across all segments.
    pub bytes_written: u64,
    /// `fsync` (`sync_data`) calls issued on segments (the directory
    /// syncs of segment creation and pruning are not counted).
    pub fsyncs: u64,
}

/// The write-ahead log writer (see the module docs).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    plan: FailPlan,
    file: File,
    seg_index: u64,
    seg_path: PathBuf,
    /// Bytes of the current segment already written to the OS.
    seg_written: u64,
    /// Bytes of the current segment covered by a completed `fsync` — what
    /// the simulated-crash model guarantees survives (see [`Wal::inject`]).
    synced_len: u64,
    /// Encoded records not yet handed to the OS.
    pending: Vec<u8>,
    /// Sealed segments, oldest first.
    sealed: Vec<SegmentInfo>,
    /// Largest record seq in the current segment (pending included).
    seg_max_seq: u64,
    last_seq: u64,
    counters: WalCounters,
    dead: bool,
}

impl Wal {
    /// Creates a fresh journal in `cfg.dir` (creating the directory as
    /// needed). Fails with [`WalError::DirNotEmpty`] if the directory
    /// already holds segments — recovering over an existing journal must
    /// be an explicit choice, never an accident.
    pub fn create(cfg: &DurabilityConfig) -> Result<Wal, WalError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("wal.create", e))?;
        let has_journal = fs::read_dir(&cfg.dir)
            .map_err(|e| io_err("wal.create", e))?
            .flatten()
            .any(|entry| parse_segment_name(&entry.file_name().to_string_lossy()).is_some());
        if has_journal {
            return Err(WalError::DirNotEmpty { dir: cfg.dir.clone() });
        }
        Wal::open_at(cfg, Vec::new(), 1, 0)
    }

    /// Reopens a journal after [`crate::replay()`]: starts a *fresh* segment
    /// (never appends into a possibly-torn tail) with the replayer's
    /// segment inventory and last sequence.
    pub fn resume(
        cfg: &DurabilityConfig,
        sealed: Vec<SegmentInfo>,
        next_index: u64,
        last_seq: u64,
    ) -> Result<Wal, WalError> {
        Wal::open_at(cfg, sealed, next_index, last_seq)
    }

    fn open_at(
        cfg: &DurabilityConfig,
        sealed: Vec<SegmentInfo>,
        index: u64,
        last_seq: u64,
    ) -> Result<Wal, WalError> {
        let seg_path = segment_path(&cfg.dir, index);
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&seg_path)
            .map_err(|e| io_err("wal.create", e))?;
        sync_dir(&cfg.dir).map_err(|e| io_err("wal.create", e))?;
        Ok(Wal {
            dir: cfg.dir.clone(),
            fsync: cfg.fsync,
            plan: cfg.failpoints.clone(),
            file,
            seg_index: index,
            seg_path,
            seg_written: 0,
            synced_len: 0,
            pending: Vec::new(),
            sealed,
            seg_max_seq: 0,
            last_seq,
            counters: WalCounters::default(),
            dead: false,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The last sequence successfully appended.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Whether the WAL has fail-stopped.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Durability counters (bytes written, fsyncs issued).
    pub fn counters(&self) -> WalCounters {
        self.counters
    }

    /// Appends `record` and commits it per the fsync policy. On `Ok`, the
    /// record is durable to the policy's guarantee; on `Err`, nothing
    /// about the record is guaranteed and the WAL is dead.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.check_alive()?;
        if self.seg_written >= SEGMENT_BYTES {
            self.rotate()?;
        }
        if let Some(action) = self.plan.hit("wal.append") {
            return Err(self.inject("wal.append", action));
        }
        record.encode(&mut self.pending);
        self.seg_max_seq = self.seg_max_seq.max(record.seq());
        match self.fsync {
            FsyncPolicy::Always => {
                self.flush()?;
                self.sync()?;
            }
            FsyncPolicy::Never => self.flush()?,
        }
        self.last_seq = self.last_seq.max(record.seq());
        Ok(())
    }

    /// Forces pending records to disk (flush + `fsync`), regardless of
    /// policy — the graceful-shutdown path.
    pub fn commit(&mut self) -> Result<(), WalError> {
        self.check_alive()?;
        self.flush()?;
        self.sync()
    }

    /// Seals the current segment (its pending bytes flushed and synced)
    /// and opens the next one. Called automatically when a segment
    /// outgrows 8 MiB (`SEGMENT_BYTES`), and by the service before a
    /// compaction's archive generation claims the log's records.
    pub fn rotate(&mut self) -> Result<(), WalError> {
        self.check_alive()?;
        if let Some(action) = self.plan.hit("wal.rotate") {
            return Err(self.inject("wal.rotate", action));
        }
        self.flush()?;
        self.sync()?;
        self.sealed.push(SegmentInfo {
            index: self.seg_index,
            path: self.seg_path.clone(),
            max_seq: self.seg_max_seq,
        });
        self.seg_index += 1;
        self.seg_path = segment_path(&self.dir, self.seg_index);
        self.file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&self.seg_path)
            .map_err(|e| self.die("wal.rotate", e))?;
        sync_dir(&self.dir).map_err(|e| self.die("wal.rotate", e))?;
        self.seg_written = 0;
        self.synced_len = 0;
        self.seg_max_seq = 0;
        Ok(())
    }

    /// Records that every operation `<= seq` is reflected in a durable
    /// base the caller keeps: appends a [`WalRecord::Checkpoint`], syncs
    /// it, then prunes every sealed segment whose records all fall at or
    /// below `seq`. Pruning is best-effort — recovery skips covered
    /// records by sequence, so a surviving stale segment is dead weight,
    /// not a correctness hazard — but once it pruned a segment the
    /// directory is synced, and a failed sync kills the WAL like any
    /// failed `fsync`.
    pub fn checkpoint(&mut self, seq: u64) -> Result<(), WalError> {
        self.check_alive()?;
        if let Some(action) = self.plan.hit("wal.checkpoint") {
            return Err(self.inject("wal.checkpoint", action));
        }
        WalRecord::Checkpoint { seq }.encode(&mut self.pending);
        self.flush()?;
        self.sync()?;
        let before = self.sealed.len();
        self.sealed.retain(|info| {
            if info.max_seq <= seq {
                let _ = fs::remove_file(&info.path);
                false
            } else {
                true
            }
        });
        if self.sealed.len() < before {
            sync_dir(&self.dir).map_err(|e| self.die("wal.checkpoint", e))?;
        }
        Ok(())
    }

    fn check_alive(&self) -> Result<(), WalError> {
        if self.dead {
            Err(WalError::Dead)
        } else {
            Ok(())
        }
    }

    /// Hands the pending buffer to the OS.
    fn flush(&mut self) -> Result<(), WalError> {
        if let Some(action) = self.plan.hit("wal.flush") {
            return Err(self.inject("wal.flush", action));
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.pending)
            .map_err(|e| self.die("wal.flush", e))?;
        let n = self.pending.len() as u64;
        self.seg_written += n;
        self.counters.bytes_written += n;
        self.pending.clear();
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        if let Some(action) = self.plan.hit("wal.sync") {
            return Err(self.inject("wal.sync", action));
        }
        self.file.sync_data().map_err(|e| self.die("wal.sync", e))?;
        self.counters.fsyncs += 1;
        self.synced_len = self.seg_written;
        Ok(())
    }

    /// Applies an injected action, simulating the crash **adversarially**:
    /// the segment is first truncated back to its last `fsync`ed length —
    /// flushed-but-unsynced bytes are exactly what a machine crash is
    /// allowed to lose, so the simulation always loses them — then
    /// `ShortWrite` and `Crash` land a deterministic torn prefix (half of
    /// the pending bytes) so recovery also faces a realistic partial
    /// frame. All three kill the WAL.
    fn inject(&mut self, point: &'static str, action: FailAction) -> WalError {
        self.dead = true;
        let _ = self.file.set_len(self.synced_len);
        let _ = self.file.seek(SeekFrom::Start(self.synced_len));
        if matches!(action, FailAction::ShortWrite | FailAction::Crash) {
            let torn = self.pending.len() / 2;
            let _ = self.file.write_all(&self.pending[..torn]);
            let _ = self.file.sync_data();
        }
        self.pending.clear();
        WalError::Injected { point, action }
    }

    fn die(&mut self, point: &'static str, source: std::io::Error) -> WalError {
        self.dead = true;
        self.pending.clear();
        WalError::Io { point, source }
    }
}

impl Drop for Wal {
    /// Graceful shutdown flushes the pending buffer (best effort);
    /// a dead WAL is left exactly as the failure left it.
    fn drop(&mut self) {
        if !self.dead && !self.pending.is_empty() {
            let _ = self.commit();
        }
    }
}

/// Makes the directory's entries durable: a segment created or removed
/// survives a crash only once its directory is synced. Segment creation
/// and checkpoint pruning pay one each; appends pay none.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

fn io_err(point: &'static str, source: std::io::Error) -> WalError {
    WalError::Io { point, source }
}

pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let num = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    num.parse().ok()
}
