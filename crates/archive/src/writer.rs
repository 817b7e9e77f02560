//! Writing and atomically installing archive generations.
//!
//! The whole archive image is assembled in memory (sections, TOC,
//! superblock, trailer — the trailer seal is computed over the final
//! bytes), then installed crash-atomically: write to `<name>.tmp`,
//! `fsync` the file, `rename` into place, `fsync` the directory. A reader
//! can therefore *never* observe a half-written `gen-*.arc`: either the
//! rename happened and the file is sealed, or the leftovers are `.tmp`
//! files that generation scans ignore.
//!
//! Four fail points cover the install path — `arc.write`, `arc.sync`,
//! `arc.rename` (writer side) and `arc.map` (reader side) — so the crash
//! suites can abort an install at every stage and prove recovery.

use crate::format::{align8, SectionKind, Superblock, TocEntry, Trailer, NO_PARTITION};
use crate::meta::{ArchiveMeta, PartitionMeta};
use crate::ArchiveError;
use repose::Repose;
use repose_durability::{crc32, FailAction, FailPlan};
use repose_succinct::bytes_of;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Filename of generation `seq`.
pub fn gen_file_name(seq: u64) -> String {
    format!("gen-{seq:016x}.arc")
}

/// Parses a generation sequence number out of a `gen-*.arc` filename.
pub fn parse_gen_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("gen-")?.strip_suffix(".arc")?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

/// All installed generations in `dir`, ascending by sequence number.
/// `.tmp` leftovers and foreign files are ignored; a missing directory is
/// simply empty.
pub fn list_generations(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut gens: Vec<(u64, PathBuf)> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| {
                let e = e.ok()?;
                let seq = parse_gen_name(e.file_name().to_str()?)?;
                Some((seq, e.path()))
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    gens.sort_by_key(|(seq, _)| *seq);
    gens
}

/// Removes the oldest installed generations, keeping the newest `keep`.
/// Best-effort (a generation that refuses to unlink is simply left for
/// the next prune); returns how many files were removed.
pub fn prune_generations(dir: &Path, keep: usize) -> usize {
    let gens = list_generations(dir);
    let excess = gens.len().saturating_sub(keep.max(1));
    gens[..excess]
        .iter()
        .filter(|(_, path)| std::fs::remove_file(path).is_ok())
        .count()
}

/// Serializes `deployment` into a fresh archive generation in `dir` and
/// atomically installs it. `op_seq` is the operation sequence number the
/// deployment is current through (recovery replays only WAL records
/// beyond it). Returns the installed path.
pub fn write_archive(
    dir: &Path,
    deployment: &Repose,
    op_seq: u64,
    failpoints: &FailPlan,
) -> Result<PathBuf, ArchiveError> {
    let image = build_image(deployment, op_seq)?;
    let seq = list_generations(dir).last().map_or(1, |(s, _)| s + 1);
    install(dir, &gen_file_name(seq), &image, failpoints)
}

/// Assembles the complete archive image in memory.
fn build_image(deployment: &Repose, op_seq: u64) -> Result<Vec<u8>, ArchiveError> {
    let n = deployment.num_partitions();
    let mut img = vec![0u8; crate::format::SUPERBLOCK_LEN];
    let mut toc: Vec<TocEntry> = Vec::new();
    let mut partitions_meta = Vec::with_capacity(n);

    let push = |img: &mut Vec<u8>, toc: &mut Vec<TocEntry>,
                    kind: SectionKind, partition: u32, bytes: &[u8]| {
        let off = align8(img.len());
        img.resize(off, 0);
        img.extend_from_slice(bytes);
        toc.push(TocEntry {
            kind,
            partition,
            offset: off as u64,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        });
    };

    for pi in 0..n {
        let view = deployment.partition_view(pi);
        let (ids, starts, points) = view.store.as_parts();
        let parts = view.trie.frozen().to_parts();
        let pi32 = pi as u32;

        push(&mut img, &mut toc, SectionKind::StoreIds, pi32, bytes_of(ids));
        push(&mut img, &mut toc, SectionKind::StoreStarts, pi32, bytes_of(starts));
        push(&mut img, &mut toc, SectionKind::StorePoints, pi32, bytes_of(points));
        push(&mut img, &mut toc, SectionKind::TrieBcWords, pi32, bytes_of(parts.bc_bits.as_words()));
        push(&mut img, &mut toc, SectionKind::TrieSparseOffsets, pi32, bytes_of(&parts.sparse_offsets));
        push(&mut img, &mut toc, SectionKind::TrieSparseBytes, pi32, bytes_of(&parts.sparse_bytes));
        push(&mut img, &mut toc, SectionKind::TrieHasLeafWords, pi32, bytes_of(parts.has_leaf_bits.as_words()));
        push(&mut img, &mut toc, SectionKind::LeafOffsets, pi32, bytes_of(&parts.leaf_offsets));
        push(&mut img, &mut toc, SectionKind::LeafMembers, pi32, bytes_of(&parts.leaf_members));
        push(&mut img, &mut toc, SectionKind::LeafSummaries, pi32, bytes_of(&parts.leaf_summaries));
        push(&mut img, &mut toc, SectionKind::LeafDmax, pi32, bytes_of(&parts.leaf_dmax));
        push(&mut img, &mut toc, SectionKind::LeafNmin, pi32, bytes_of(&parts.leaf_nmin));
        push(&mut img, &mut toc, SectionKind::Hr, pi32, bytes_of(&parts.hr));

        partitions_meta.push(PartitionMeta {
            n_nodes: parts.n_nodes,
            n_dense: parts.n_dense,
            m_cells: parts.m_cells,
            np: parts.np,
            built_over: view.trie.built_over(),
            trie: *view.trie.config(),
            pivots: view.trie.pivots().clone(),
        });
    }

    let meta = ArchiveMeta {
        config: *deployment.config(),
        region: deployment.region(),
        op_seq,
        partitions: partitions_meta,
    };
    let meta_json = serde_json::to_string(&meta)
        .map_err(|e| ArchiveError::Meta(format!("meta serialization failed: {e:?}")))?;
    push(&mut img, &mut toc, SectionKind::Meta, NO_PARTITION, meta_json.as_bytes());

    let toc_off = align8(img.len());
    img.resize(toc_off, 0);
    for entry in &toc {
        img.extend_from_slice(&entry.encode());
    }

    let sb = Superblock {
        section_count: toc.len() as u32,
        toc_off: toc_off as u64,
        toc_len: (toc.len() * crate::format::TOC_ENTRY_LEN) as u64,
        op_seq,
        partitions: n as u32,
    };
    img[..crate::format::SUPERBLOCK_LEN].copy_from_slice(&sb.encode());

    let trailer = Trailer {
        file_crc: crc32(&img),
        total_len: (img.len() + crate::format::TRAILER_LEN) as u64,
    };
    img.extend_from_slice(&trailer.encode());
    Ok(img)
}

fn injected(op: &'static str, path: &Path) -> ArchiveError {
    ArchiveError::io(op, path, std::io::Error::other(format!("injected fault at {op}")))
}

/// Atomic install: tmp + fsync + rename + directory fsync, with the three
/// writer-side fail points hit in path order. Any fault leaves at worst a
/// `.tmp` file that no reader ever opens.
fn install(
    dir: &Path,
    name: &str,
    image: &[u8],
    failpoints: &FailPlan,
) -> Result<PathBuf, ArchiveError> {
    std::fs::create_dir_all(dir).map_err(|e| ArchiveError::io("create dir", dir, e))?;
    let tmp = dir.join(format!("{name}.tmp"));
    let dest = dir.join(name);

    let mut file =
        std::fs::File::create(&tmp).map_err(|e| ArchiveError::io("create tmp", &tmp, e))?;
    match failpoints.hit("arc.write") {
        Some(FailAction::IoError) => return Err(injected("arc.write", &tmp)),
        Some(FailAction::ShortWrite) | Some(FailAction::Crash) => {
            // Torn install: half the image lands, never renamed.
            let _ = file.write_all(&image[..image.len() / 2]);
            return Err(injected("arc.write", &tmp));
        }
        None => {
            file.write_all(image).map_err(|e| ArchiveError::io("write tmp", &tmp, e))?;
        }
    }
    if failpoints.hit("arc.sync").is_some() {
        return Err(injected("arc.sync", &tmp));
    }
    file.sync_data().map_err(|e| ArchiveError::io("sync tmp", &tmp, e))?;
    if failpoints.hit("arc.rename").is_some() {
        return Err(injected("arc.rename", &dest));
    }
    std::fs::rename(&tmp, &dest).map_err(|e| ArchiveError::io("rename", &dest, e))?;
    // The rename is durable only once the directory entry is.
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| ArchiveError::io("sync dir", dir, e))?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_names_roundtrip_and_sort() {
        assert_eq!(parse_gen_name(&gen_file_name(1)), Some(1));
        assert_eq!(parse_gen_name(&gen_file_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_gen_name("gen-0000000000000001.arc.tmp"), None);
        assert_eq!(parse_gen_name("base-0000000000000001.snap"), None);
        assert_eq!(parse_gen_name("gen-01.arc"), None, "fixed-width only");
    }
}
