use crate::builder::BuildTrie;
use crate::RpTrieConfig;
use repose_distance::TrajSummary;
use repose_succinct::{varint, BitVec, FlatVec, RankSelect};
use repose_zorder::{Grid, ZValue};

/// Index of a node in the frozen trie (BFS order, root = 0).
pub type NodeId = u32;

/// A borrowed view of one leaf's payload: the trajectories whose reference
/// trajectory ends at that node.
///
/// Leaves are stored structure-of-arrays inside [`FrozenTrie`] (one flat
/// table per field across all leaves), so a leaf "value" is just slices
/// into those tables — equally cheap over an owned trie and over one
/// mapped from an archive.
#[derive(Debug, Clone, Copy)]
pub struct LeafRef<'a> {
    /// Indices into the partition's trajectory slice (`Tid` in Fig. 2).
    pub members: &'a [u32],
    /// Per-member prefilter summaries (parallel to `members`), built once
    /// at construction so verification sites get an O(1) lower bound per
    /// candidate instead of re-walking both trajectories.
    pub summaries: &'a [TrajSummary],
    /// `Dmax`: maximum distance from the members to the leaf's reference
    /// trajectory under the index measure.
    pub dmax: f64,
    /// Shortest member trajectory length (tightens the LCSS leaf bound).
    pub nmin: u32,
}

/// The immutable, succinct physical form of an RP-Trie (Section III-B,
/// "Succinct trie structure").
///
/// Nodes live in BFS order. The upper `dense_levels` levels use the paper's
/// bitmap layout: per dense node, an `M`-bit child bitmap (`Bc`) where `M`
/// is the number of grid cells; child ids fall out of `rank1` over the
/// concatenated bitmaps. Deeper levels are serialized as byte sequences
/// (varint-coded child lists). The paper's `Bl` bitmap (leaf-ness) is kept
/// per *node* (`has_leaf`) rather than per (node, cell) — equivalent
/// information, one bit per node cheaper.
///
/// Every array field is a [`FlatVec`], and leaves are flattened
/// structure-of-arrays behind a prefix-offset table, so the whole trie is
/// either owned (just built) or a set of zero-copy views into one mapped
/// archive buffer ([`FrozenTrie::from_parts`]). The rank directories are
/// rebuilt at attach time from the persisted bitmaps — a single popcount
/// pass, negligible next to the data they index.
#[derive(Debug, Clone)]
pub struct FrozenTrie {
    n_nodes: usize,
    /// Nodes `0..n_dense` are bitmap-encoded (a BFS prefix).
    n_dense: usize,
    /// Bitmap width: number of grid cells.
    m_cells: usize,
    /// Concatenated `Bc` bitmaps of the dense nodes.
    bc: RankSelect,
    /// Byte offsets of each sparse node's child list in `sparse_bytes`.
    sparse_offsets: FlatVec<u32>,
    /// Varint-coded child lists of the sparse nodes.
    sparse_bytes: FlatVec<u8>,
    /// One bit per node: does a reference trajectory end here?
    has_leaf: RankSelect,
    /// Prefix offsets: leaf `i` owns `leaf_members[leaf_offsets[i]..
    /// leaf_offsets[i + 1]]` (and the parallel `leaf_summaries` range).
    /// Always `leaf_count + 1` entries.
    leaf_offsets: FlatVec<u64>,
    /// All leaves' member slots, back to back in leaf order.
    leaf_members: FlatVec<u32>,
    /// All leaves' member summaries, parallel to `leaf_members`.
    leaf_summaries: FlatVec<TrajSummary>,
    /// Per-leaf `Dmax`.
    leaf_dmax: FlatVec<f64>,
    /// Per-leaf shortest member length.
    leaf_nmin: FlatVec<u32>,
    /// Per-node pivot distance intervals: `np` `(lo, hi)` pairs per node,
    /// stored interleaved (`lo, hi, lo, hi, …` — `2 * np` floats per node;
    /// tuples have no defined layout, so the flat form is what archives).
    hr: FlatVec<f64>,
    np: usize,
}

impl FrozenTrie {
    /// Freezes a pointer trie into the succinct layout.
    pub fn from_build(build: &BuildTrie, grid: &Grid, cfg: &RpTrieConfig) -> Self {
        let m_cells = (grid.cells_per_side() as u64 * grid.cells_per_side() as u64) as usize;
        // A dense level costs M bits per node; refuse pathological widths.
        const MAX_DENSE_CELLS: usize = 1 << 16;
        let dense_levels = if m_cells > MAX_DENSE_CELLS { 0 } else { cfg.dense_levels };

        // BFS order with per-node depth.
        let mut bfs: Vec<u32> = Vec::with_capacity(build.node_count());
        let mut depth: Vec<u8> = Vec::with_capacity(build.node_count());
        bfs.push(build.root());
        depth.push(0);
        let mut head = 0;
        while head < bfs.len() {
            let id = bfs[head];
            let d = depth[head];
            head += 1;
            for &c in build.children_of(id) {
                bfs.push(c);
                depth.push(d.saturating_add(1));
            }
        }
        let n_nodes = bfs.len();
        // old arena id -> new BFS id
        let mut remap = vec![0u32; n_nodes];
        for (new_id, &old) in bfs.iter().enumerate() {
            remap[old as usize] = new_id as u32;
        }
        let n_dense = depth.iter().filter(|&&d| d < dense_levels).count();

        // Dense bitmaps.
        let mut bc = BitVec::zeros(n_dense * m_cells);
        for (new_id, &old) in bfs.iter().enumerate().take(n_dense) {
            for &c in build.children_of(old) {
                let label = build.label(c) as usize;
                debug_assert!(label < m_cells);
                bc.set(new_id * m_cells + label, true);
            }
        }

        // Sparse byte lists.
        let mut sparse_offsets = Vec::with_capacity(n_nodes - n_dense + 1);
        let mut sparse_bytes: Vec<u8> = Vec::new();
        sparse_offsets.push(0);
        for &old in bfs.iter().skip(n_dense) {
            let children = build.children_of(old);
            varint::write_u64(&mut sparse_bytes, children.len() as u64);
            if !children.is_empty() {
                // children are contiguous in BFS order (per-parent blocks)
                let first = remap[children[0] as usize];
                debug_assert!(children
                    .iter()
                    .enumerate()
                    .all(|(i, &c)| remap[c as usize] == first + i as u32));
                varint::write_u64(&mut sparse_bytes, u64::from(first));
                // delta-coded, strictly increasing labels
                let mut prev = 0u64;
                for (i, &c) in children.iter().enumerate() {
                    let label = build.label(c);
                    let delta = if i == 0 { label } else { label - prev - 1 };
                    varint::write_u64(&mut sparse_bytes, delta);
                    prev = label;
                }
            }
            sparse_offsets.push(sparse_bytes.len() as u32);
        }

        // Leaves (structure-of-arrays) + HR.
        let mut has_leaf = BitVec::zeros(n_nodes);
        let mut leaf_offsets: Vec<u64> = vec![0];
        let mut leaf_members: Vec<u32> = Vec::new();
        let mut leaf_summaries: Vec<TrajSummary> = Vec::new();
        let mut leaf_dmax: Vec<f64> = Vec::new();
        let mut leaf_nmin: Vec<u32> = Vec::new();
        let np = build.np();
        let mut hr = Vec::with_capacity(if np > 0 { n_nodes * np * 2 } else { 0 });
        for (new_id, &old) in bfs.iter().enumerate() {
            if let Some((members, summaries, dmax, nmin)) = build.leaf_of(old) {
                has_leaf.set(new_id, true);
                leaf_members.extend_from_slice(members);
                leaf_summaries.extend_from_slice(summaries);
                leaf_offsets.push(leaf_members.len() as u64);
                leaf_dmax.push(dmax);
                leaf_nmin.push(nmin);
            }
            if np > 0 {
                for &(lo, hi) in build.hr_of(old) {
                    hr.push(lo);
                    hr.push(hi);
                }
            }
        }

        FrozenTrie {
            n_nodes,
            n_dense,
            m_cells,
            bc: RankSelect::new(bc),
            sparse_offsets: FlatVec::Owned(sparse_offsets),
            sparse_bytes: FlatVec::Owned(sparse_bytes),
            has_leaf: RankSelect::new(has_leaf),
            leaf_offsets: FlatVec::Owned(leaf_offsets),
            leaf_members: FlatVec::Owned(leaf_members),
            leaf_summaries: FlatVec::Owned(leaf_summaries),
            leaf_dmax: FlatVec::Owned(leaf_dmax),
            leaf_nmin: FlatVec::Owned(leaf_nmin),
            hr: FlatVec::Owned(hr),
            np,
        }
    }

    /// Reassembles a frozen trie from its persisted parts (typically
    /// zero-copy views into a mapped archive), revalidating every
    /// structural invariant the accessors rely on and rebuilding the rank
    /// directories.
    ///
    /// Cross-field corruption that per-section checksums cannot catch
    /// (sections individually intact but mutually inconsistent lengths)
    /// fails here with a diagnostic, never a later panic or a wrong
    /// answer.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(parts: FrozenTrieParts) -> Result<Self, String> {
        let FrozenTrieParts {
            n_nodes,
            n_dense,
            m_cells,
            bc_bits,
            sparse_offsets,
            sparse_bytes,
            has_leaf_bits,
            leaf_offsets,
            leaf_members,
            leaf_summaries,
            leaf_dmax,
            leaf_nmin,
            hr,
            np,
        } = parts;
        if n_dense > n_nodes {
            return Err(format!("n_dense {n_dense} exceeds n_nodes {n_nodes}"));
        }
        if bc_bits.len() != n_dense * m_cells {
            return Err(format!(
                "bc bitmap has {} bits, want n_dense {n_dense} x m_cells {m_cells}",
                bc_bits.len()
            ));
        }
        if has_leaf_bits.len() != n_nodes {
            return Err(format!(
                "has_leaf bitmap has {} bits for {n_nodes} nodes",
                has_leaf_bits.len()
            ));
        }
        if sparse_offsets.len() != n_nodes - n_dense + 1 {
            return Err(format!(
                "sparse_offsets has {} entries, want {}",
                sparse_offsets.len(),
                n_nodes - n_dense + 1
            ));
        }
        if sparse_offsets.first() != Some(&0)
            || sparse_offsets.last().copied() != Some(sparse_bytes.len() as u32)
            || sparse_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("sparse_offsets is not a prefix table of sparse_bytes".into());
        }
        let leaf_count = has_leaf_bits.count_ones();
        if leaf_offsets.len() != leaf_count + 1
            || leaf_dmax.len() != leaf_count
            || leaf_nmin.len() != leaf_count
        {
            return Err(format!(
                "leaf tables sized {}/{}/{} for {leaf_count} leaves",
                leaf_offsets.len(),
                leaf_dmax.len(),
                leaf_nmin.len()
            ));
        }
        if leaf_summaries.len() != leaf_members.len() {
            return Err(format!(
                "{} summaries for {} members",
                leaf_summaries.len(),
                leaf_members.len()
            ));
        }
        if leaf_offsets.first() != Some(&0)
            || leaf_offsets.last().copied() != Some(leaf_members.len() as u64)
            || leaf_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("leaf_offsets is not a prefix table of leaf_members".into());
        }
        let want_hr = if np > 0 { n_nodes * np * 2 } else { 0 };
        if hr.len() != want_hr {
            return Err(format!("hr has {} floats, want {want_hr}", hr.len()));
        }
        Ok(FrozenTrie {
            n_nodes,
            n_dense,
            m_cells,
            bc: RankSelect::new(bc_bits),
            sparse_offsets,
            sparse_bytes,
            has_leaf: RankSelect::new(has_leaf_bits),
            leaf_offsets,
            leaf_members,
            leaf_summaries,
            leaf_dmax,
            leaf_nmin,
            hr,
            np,
        })
    }

    /// Decomposes the trie into the parts [`FrozenTrie::from_parts`]
    /// accepts — the archive writer's view. Cheap (bitvec clones are
    /// copy-on-write views or word vectors; everything else is borrowed
    /// into `FlatVec` clones).
    pub fn to_parts(&self) -> FrozenTrieParts {
        FrozenTrieParts {
            n_nodes: self.n_nodes,
            n_dense: self.n_dense,
            m_cells: self.m_cells,
            bc_bits: self.bc.bits().clone(),
            sparse_offsets: self.sparse_offsets.clone(),
            sparse_bytes: self.sparse_bytes.clone(),
            has_leaf_bits: self.has_leaf.bits().clone(),
            leaf_offsets: self.leaf_offsets.clone(),
            leaf_members: self.leaf_members.clone(),
            leaf_summaries: self.leaf_summaries.clone(),
            leaf_dmax: self.leaf_dmax.clone(),
            leaf_nmin: self.leaf_nmin.clone(),
            hr: self.hr.clone(),
            np: self.np,
        }
    }

    /// Total number of nodes (root included).
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of bitmap-encoded (upper level) nodes.
    pub fn dense_count(&self) -> usize {
        self.n_dense
    }

    /// Number of pivots per `HR` entry.
    pub fn np(&self) -> usize {
        self.np
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        0
    }

    /// Appends `(label, child)` pairs of `node` to `out` in ascending label
    /// order.
    pub fn children_into(&self, node: NodeId, out: &mut Vec<(ZValue, NodeId)>) {
        let n = node as usize;
        if n < self.n_dense {
            let start_bit = n * self.m_cells;
            // Base rank gives the BFS id of this node's first child.
            let mut child = 1 + self.bc.rank1(start_bit) as u32;
            let words = self.bc.bits().as_words();
            let mut bit = start_bit;
            let end_bit = start_bit + self.m_cells;
            while bit < end_bit {
                let w = bit / 64;
                let mut word = words[w];
                // mask off bits below `bit` and at/after `end_bit`
                word &= !0u64 << (bit % 64);
                if (w + 1) * 64 > end_bit {
                    let keep = end_bit - w * 64;
                    if keep < 64 {
                        word &= (1u64 << keep) - 1;
                    }
                }
                while word != 0 {
                    let tz = word.trailing_zeros() as usize;
                    let pos = w * 64 + tz;
                    out.push(((pos - start_bit) as ZValue, child));
                    child += 1;
                    word &= word - 1;
                }
                bit = (w + 1) * 64;
            }
        } else {
            let sidx = n - self.n_dense;
            let range =
                self.sparse_offsets[sidx] as usize..self.sparse_offsets[sidx + 1] as usize;
            let mut buf = &self.sparse_bytes[range];
            let count = varint::read_u64(&mut buf) as usize;
            if count == 0 {
                return;
            }
            let first = varint::read_u64(&mut buf) as u32;
            let mut label = 0u64;
            for i in 0..count {
                let delta = varint::read_u64(&mut buf);
                label = if i == 0 { delta } else { label + delta + 1 };
                out.push((label, first + i as u32));
            }
        }
    }

    /// Convenience wrapper over [`FrozenTrie::children_into`].
    pub fn children(&self, node: NodeId) -> Vec<(ZValue, NodeId)> {
        let mut out = Vec::new();
        self.children_into(node, &mut out);
        out
    }

    /// The leaf payload ending at `node`, if any.
    pub fn leaf(&self, node: NodeId) -> Option<LeafRef<'_>> {
        if self.has_leaf.bits().get(node as usize) {
            let i = self.has_leaf.rank1(node as usize);
            let range = self.leaf_offsets[i] as usize..self.leaf_offsets[i + 1] as usize;
            Some(LeafRef {
                members: &self.leaf_members[range.clone()],
                summaries: &self.leaf_summaries[range],
                dmax: self.leaf_dmax[i],
                nmin: self.leaf_nmin[i],
            })
        } else {
            None
        }
    }

    /// The node's pivot-distance intervals as interleaved `lo, hi` floats
    /// (`2 * np` entries; empty when pivots are disabled).
    pub fn hr(&self, node: NodeId) -> &[f64] {
        if self.np == 0 {
            &[]
        } else {
            let s = node as usize * self.np * 2;
            &self.hr[s..s + self.np * 2]
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_dmax.len()
    }

    /// Approximate heap size in bytes — the paper's index-size (IS) metric
    /// for the local index. Views into a mapped archive count as 0 (the
    /// map is accounted once by its owner).
    pub fn mem_bytes(&self) -> usize {
        self.bc.mem_bytes()
            + self.sparse_offsets.mem_bytes()
            + self.sparse_bytes.mem_bytes()
            + self.has_leaf.mem_bytes()
            + self.leaf_offsets.mem_bytes()
            + self.leaf_members.mem_bytes()
            + self.leaf_summaries.mem_bytes()
            + self.leaf_dmax.mem_bytes()
            + self.leaf_nmin.mem_bytes()
            + self.hr.mem_bytes()
    }
}

/// The exploded form of a [`FrozenTrie`] — what an archive stores per
/// partition and what [`FrozenTrie::from_parts`] revalidates.
#[derive(Debug, Clone)]
pub struct FrozenTrieParts {
    /// Total node count.
    pub n_nodes: usize,
    /// Bitmap-encoded BFS-prefix length.
    pub n_dense: usize,
    /// Child-bitmap width (grid cells).
    pub m_cells: usize,
    /// Concatenated dense child bitmaps (`n_dense * m_cells` bits).
    pub bc_bits: BitVec,
    /// Sparse child-list offsets (`n_nodes - n_dense + 1` entries).
    pub sparse_offsets: FlatVec<u32>,
    /// Varint-coded sparse child lists.
    pub sparse_bytes: FlatVec<u8>,
    /// Leaf-ness bitmap (`n_nodes` bits).
    pub has_leaf_bits: BitVec,
    /// Leaf member-range prefix table (`leaf_count + 1` entries).
    pub leaf_offsets: FlatVec<u64>,
    /// Concatenated leaf member slots.
    pub leaf_members: FlatVec<u32>,
    /// Concatenated member summaries (parallel to `leaf_members`).
    pub leaf_summaries: FlatVec<TrajSummary>,
    /// Per-leaf `Dmax`.
    pub leaf_dmax: FlatVec<f64>,
    /// Per-leaf shortest member length.
    pub leaf_nmin: FlatVec<u32>,
    /// Interleaved per-node pivot intervals (`2 * np` floats per node).
    pub hr: FlatVec<f64>,
    /// Pivot count per node.
    pub np: usize,
}
