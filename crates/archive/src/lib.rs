//! Persistent zero-copy archives of frozen REPOSE deployments.
//!
//! A durable service's one checkpoint: its write-ahead log's base is the
//! newest archive generation it installed, at construction and at every
//! compaction, and recovery attaches one and replays the log past it.
//!
//! A deployment's frozen state — per-partition point arenas, slot tables,
//! succinct trie encodings, pivot tables, and summary tables — is laid
//! out in a versioned, sectioned, CRC-32-checksummed file
//! ([`mod@format`]: `RPARCH01`). Every array section is stored as its raw
//! element bytes at an 8-aligned offset, so attaching an archive is
//! *validation*, not deserialization: the file is `mmap`ed once
//! ([`mmap::MappedFile`]) and every array becomes a
//! [`repose_succinct::FlatVec`] view into the mapping. A restart goes
//! from "CSV rebuild in minutes" to "checksum + attach in milliseconds";
//! the only O(data) attach cost is open-time CRC verification plus one
//! popcount pass to rebuild the rank/select directories.
//!
//! Robustness is the headline, not an afterthought:
//!
//! * **Sealed installs** — [`writer::write_archive`] assembles the whole
//!   image (superblock, sections, TOC, trailer) in memory and installs it
//!   tmp + `fsync` + `rename` + dir-`fsync`, so a `gen-*.arc` file is
//!   either complete and sealed or does not exist.
//! * **Layered checksums** — superblock CRC, per-section CRCs, and a
//!   file-level trailer seal; a single flipped bit anywhere is detected
//!   at open ([`Archive::open`]) or by the online [`Archive::scrub`].
//! * **Loud failure** — every validation failure is a typed
//!   [`ArchiveError`]; recovery quarantines bad generations into
//!   `.quarantine/` ([`quarantine`]) and falls back to the previous
//!   generation, which the log still reaches. A corrupt archive is never
//!   served.
//! * **Provable crash safety** — the install and attach paths hit the
//!   `arc.write` / `arc.sync` / `arc.rename` / `arc.map` fail points of
//!   [`repose_durability::FailPlan`], so crash suites abort at every
//!   stage and assert recovery.

#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod meta;
pub mod mmap;
pub mod reader;
pub mod writer;

pub use error::ArchiveError;
pub use meta::{ArchiveMeta, PartitionMeta};
pub use mmap::MappedFile;
pub use reader::{quarantine, Archive, ScrubReport};
pub use writer::{gen_file_name, list_generations, parse_gen_name, prune_generations, write_archive};
