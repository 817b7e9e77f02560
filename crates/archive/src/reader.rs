//! Opening, validating, attaching, and scrubbing installed archives.
//!
//! [`Archive::open`] maps a generation file and validates every integrity
//! layer up front — superblock CRC, trailer seal (length + file CRC),
//! TOC bounds, per-section CRCs, meta consistency. Only a fully valid
//! archive yields an [`Archive`]; everything else is a typed
//! [`ArchiveError`] so the recovery path can quarantine the file loudly
//! and fall back.
//!
//! [`Archive::attach`] then turns the *same mapped bytes* into a serving
//! [`Repose`] deployment: every array section becomes a
//! [`repose_succinct::FlatVec`] view into the mapping (no copies, no
//! pointer fixup), grids are recomputed from region + `delta`, and the
//! rank/select directories are rebuilt with one popcount pass — the only
//! O(data) work on the attach path is checksum verification at open time.

use crate::format::{SectionKind, Superblock, TocEntry, Trailer, NO_PARTITION, SUPERBLOCK_LEN, TOC_ENTRY_LEN, TRAILER_LEN};
use crate::meta::ArchiveMeta;
use crate::mmap::MappedFile;
use crate::ArchiveError;
use repose::Repose;
use repose_distance::TrajSummary;
use repose_durability::{crc32, FailPlan};
use repose_model::{Point, TrajStore};
use repose_rptrie::{FrozenTrie, FrozenTrieParts, RpTrie};
use repose_succinct::{BitVec, ByteBuf, FlatVec, Pod};
use repose_zorder::Grid;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A validated, mapped archive generation, ready to attach or scrub.
#[derive(Debug)]
pub struct Archive {
    path: PathBuf,
    buf: ByteBuf,
    superblock: Superblock,
    toc: Vec<TocEntry>,
    meta: ArchiveMeta,
    mapped: bool,
}

impl Archive {
    /// Opens and fully validates the archive at `path` (see module docs
    /// for the layers). The `arc.map` fail point fires here, modelling a
    /// mapping failure at attach time.
    pub fn open(path: &Path, failpoints: &FailPlan) -> Result<Self, ArchiveError> {
        if failpoints.hit("arc.map").is_some() {
            return Err(ArchiveError::io(
                "arc.map",
                path,
                std::io::Error::other("injected fault at arc.map"),
            ));
        }
        let file = MappedFile::open(path).map_err(|e| ArchiveError::io("map", path, e))?;
        let mapped = file.is_mapped();
        let buf: ByteBuf = Arc::new(file);
        Self::validate(path, buf, mapped)
    }

    /// [`Archive::open`] but forcing the heap (copy-at-open) fallback —
    /// the baseline the `restart` benchmark compares the mapping against.
    pub fn open_heap(path: &Path) -> Result<Self, ArchiveError> {
        let file = MappedFile::open_heap(path).map_err(|e| ArchiveError::io("read", path, e))?;
        let buf: ByteBuf = Arc::new(file);
        Self::validate(path, buf, false)
    }

    fn validate(path: &Path, buf: ByteBuf, mapped: bool) -> Result<Self, ArchiveError> {
        let bytes = buf.bytes();
        let sb = Superblock::decode(bytes)?;
        Trailer::decode_and_verify(bytes)?;
        let body_end = bytes.len() - TRAILER_LEN;

        let toc_off = sb.toc_off as usize;
        let toc_len = sb.toc_len as usize;
        if toc_len != sb.section_count as usize * TOC_ENTRY_LEN
            || toc_off < SUPERBLOCK_LEN
            || toc_off.checked_add(toc_len) != Some(body_end)
        {
            return Err(ArchiveError::Format(format!(
                "TOC [{toc_off}, {toc_off}+{toc_len}) inconsistent with {} sections in a {}-byte file",
                sb.section_count,
                bytes.len()
            )));
        }

        let mut toc = Vec::with_capacity(sb.section_count as usize);
        for i in 0..sb.section_count as usize {
            let at = toc_off + i * TOC_ENTRY_LEN;
            let entry = TocEntry::decode(&bytes[at..at + TOC_ENTRY_LEN])?;
            let (off, len) = (entry.offset as usize, entry.len as usize);
            if off % 8 != 0 || off < SUPERBLOCK_LEN || off.checked_add(len).is_none_or(|e| e > toc_off)
            {
                return Err(ArchiveError::Format(format!(
                    "section {} at [{off}, {off}+{len}) escapes the payload area",
                    entry.label()
                )));
            }
            // Per-section CRCs are deliberately *not* verified here: the
            // trailer seal just checked above covers every body byte
            // (sections, padding, TOC), so re-hashing each section would
            // double the open-time cost for no added detection power.
            // They earn their keep in [`Archive::scrub`], which uses them
            // to *localize* post-open corruption section by section.
            toc.push(entry);
        }

        let meta_entry = toc
            .iter()
            .find(|e| e.kind == SectionKind::Meta && e.partition == NO_PARTITION)
            .copied()
            .ok_or_else(|| ArchiveError::Format("archive has no meta section".into()))?;
        let meta_bytes = &bytes[meta_entry.offset as usize..(meta_entry.offset + meta_entry.len) as usize];
        let meta_str = std::str::from_utf8(meta_bytes)
            .map_err(|_| ArchiveError::Meta("meta section is not UTF-8".into()))?;
        let meta: ArchiveMeta = serde_json::from_str(meta_str)
            .map_err(|e| ArchiveError::Meta(format!("meta does not parse: {e:?}")))?;
        meta.validate(sb.partitions, sb.op_seq)?;

        Ok(Archive { path: path.to_path_buf(), buf, superblock: sb, toc, meta, mapped })
    }

    /// The operation sequence number the archive is current through.
    pub fn op_seq(&self) -> u64 {
        self.superblock.op_seq
    }

    /// The archived deployment configuration.
    pub fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    /// The file this archive was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the bytes are a real kernel mapping (vs the heap fallback).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Total archive size in bytes.
    pub fn file_len(&self) -> u64 {
        self.buf.bytes().len() as u64
    }

    fn section(&self, kind: SectionKind, partition: u32) -> Result<TocEntry, ArchiveError> {
        self.toc
            .iter()
            .find(|e| e.kind == kind && e.partition == partition)
            .copied()
            .ok_or_else(|| {
                ArchiveError::Format(format!(
                    "archive is missing section {}[p{partition}]",
                    kind.name()
                ))
            })
    }

    /// A zero-copy element view of one section.
    fn view<T: Pod>(&self, kind: SectionKind, partition: u32) -> Result<FlatVec<T>, ArchiveError> {
        let entry = self.section(kind, partition)?;
        let size = std::mem::size_of::<T>();
        let len = entry.len as usize;
        if !len.is_multiple_of(size) {
            return Err(ArchiveError::Format(format!(
                "section {} is {len} bytes, not a multiple of element size {size}",
                entry.label()
            )));
        }
        FlatVec::view(self.buf.clone(), entry.offset as usize, len / size)
            .map_err(|e| ArchiveError::Format(format!("section {}: {e}", entry.label())))
    }

    /// Reassembles the full serving deployment over the mapped bytes.
    ///
    /// Structural invariants are re-validated by each layer's `from_parts`
    /// (store prefix-table monotonicity, trie table sizing, bitvec trailing
    /// bits), so even a section that passes its CRC but disagrees with the
    /// meta scalars is refused, never served.
    pub fn attach(&self) -> Result<Repose, ArchiveError> {
        let n = self.meta.partitions.len();
        let grid = Grid::with_delta(self.meta.region, self.meta.config.delta);
        let mut partitions = Vec::with_capacity(n);
        for (pi, pm) in self.meta.partitions.iter().enumerate() {
            let pi32 = pi as u32;
            let bad = |what: &str, e: String| {
                ArchiveError::Format(format!("partition {pi} {what}: {e}"))
            };

            let store = TrajStore::from_parts(
                self.view::<u64>(SectionKind::StoreIds, pi32)?,
                self.view::<u64>(SectionKind::StoreStarts, pi32)?,
                self.view::<Point>(SectionKind::StorePoints, pi32)?,
            )
            .map_err(|e| bad("store", e.to_string()))?;

            let bc_bits = BitVec::from_words(
                self.view::<u64>(SectionKind::TrieBcWords, pi32)?,
                pm.n_dense * pm.m_cells,
            )
            .map_err(|e| bad("dense bitmap", e))?;
            let has_leaf_bits = BitVec::from_words(
                self.view::<u64>(SectionKind::TrieHasLeafWords, pi32)?,
                pm.n_nodes,
            )
            .map_err(|e| bad("leaf bitmap", e))?;

            let frozen = FrozenTrie::from_parts(FrozenTrieParts {
                n_nodes: pm.n_nodes,
                n_dense: pm.n_dense,
                m_cells: pm.m_cells,
                bc_bits,
                sparse_offsets: self.view::<u32>(SectionKind::TrieSparseOffsets, pi32)?,
                sparse_bytes: self.view::<u8>(SectionKind::TrieSparseBytes, pi32)?,
                has_leaf_bits,
                leaf_offsets: self.view::<u64>(SectionKind::LeafOffsets, pi32)?,
                leaf_members: self.view::<u32>(SectionKind::LeafMembers, pi32)?,
                leaf_summaries: self.view::<TrajSummary>(SectionKind::LeafSummaries, pi32)?,
                leaf_dmax: self.view::<f64>(SectionKind::LeafDmax, pi32)?,
                leaf_nmin: self.view::<u32>(SectionKind::LeafNmin, pi32)?,
                hr: self.view::<f64>(SectionKind::Hr, pi32)?,
                np: pm.np,
            })
            .map_err(|e| bad("trie", e))?;

            if store.len() != pm.built_over {
                return Err(ArchiveError::Meta(format!(
                    "partition {pi} store has {} trajectories but the trie was built over {}",
                    store.len(),
                    pm.built_over
                )));
            }
            let trie = RpTrie::from_parts(
                frozen,
                grid.clone(),
                pm.trie,
                pm.pivots.clone(),
                pm.built_over,
            );
            partitions.push((store, trie));
        }
        Ok(Repose::from_built_partitions(partitions, self.meta.region, self.meta.config))
    }

    /// Online integrity scrub: re-verifies the superblock CRC, every
    /// per-section CRC, and the file-level trailer seal against the mapped
    /// bytes as they are *now* — catching bit rot or in-place tampering
    /// that happened after open-time validation.
    pub fn scrub(&self) -> ScrubReport {
        let bytes = self.buf.bytes();
        let mut report = ScrubReport {
            sections: 0,
            bytes: bytes.len() as u64,
            corrupt: Vec::new(),
        };
        if Superblock::decode(bytes).is_err() {
            report.corrupt.push("superblock".to_string());
        }
        for entry in &self.toc {
            report.sections += 1;
            let (off, len) = (entry.offset as usize, entry.len as usize);
            if crc32(&bytes[off..off + len]) != entry.crc {
                report.corrupt.push(entry.label());
            }
        }
        if Trailer::decode_and_verify(bytes).is_err() {
            report.corrupt.push("trailer".to_string());
        }
        report
    }
}

/// What an integrity scrub found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Number of sections checked.
    pub sections: usize,
    /// Total bytes checksummed.
    pub bytes: u64,
    /// Labels of regions that failed their checksum (empty = clean).
    pub corrupt: Vec<String>,
}

impl ScrubReport {
    /// Whether every region verified.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Moves a failed archive into `<dir>/.quarantine/` (creating it as
/// needed), preserving the file for post-mortem instead of deleting
/// evidence. Returns the quarantined path.
pub fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let qdir = dir.join(".quarantine");
    std::fs::create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("quarantine target has no file name"))?;
    let mut dest = qdir.join(name);
    let mut i = 0u32;
    while dest.exists() {
        i += 1;
        dest = qdir.join(format!("{}.{i}", name.to_string_lossy()));
    }
    std::fs::rename(path, &dest)?;
    Ok(dest)
}
