//! A Sort-Tile-Recursive (STR) bulk-loaded R-tree.
//!
//! Substrate for the DFT baseline (Xie et al., PVLDB'17), which indexes
//! trajectory *segments* in an R-tree per partition and prunes candidate
//! segments by MBR distance. Kept generic over the payload type so tests
//! and other baselines can reuse it.
//!
//! ```
//! use repose_model::{Mbr, Point};
//! use repose_rtree::RTree;
//!
//! // Index unit squares at (i, i) carrying their index as payload.
//! let items: Vec<(Mbr, usize)> = (0..100)
//!     .map(|i| {
//!         let lo = Point::new(i as f64, i as f64);
//!         (Mbr::new(lo, Point::new(lo.x + 1.0, lo.y + 1.0)), i)
//!     })
//!     .collect();
//! let tree = RTree::bulk_load(items);
//! assert_eq!(tree.len(), 100);
//!
//! // Range query: squares 9..=11 intersect [9.5, 11.5]^2.
//! let mut hit: Vec<usize> = tree
//!     .query_intersects(&Mbr::new(Point::new(9.5, 9.5), Point::new(11.5, 11.5)))
//!     .into_iter()
//!     .copied()
//!     .collect();
//! hit.sort_unstable();
//! assert_eq!(hit, vec![9, 10, 11]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use repose_model::{Mbr, Point};

/// Maximum entries per leaf / children per inner node.
const DEFAULT_FANOUT: usize = 16;

#[derive(Debug, Clone)]
enum NodeKind {
    /// `start..end` range into `items`.
    Leaf(usize, usize),
    /// Child node ids.
    Inner(Vec<u32>),
}

#[derive(Debug, Clone)]
struct Node {
    mbr: Mbr,
    kind: NodeKind,
}

/// An immutable R-tree over `(Mbr, T)` items.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    items: Vec<(Mbr, T)>,
    nodes: Vec<Node>,
    root: u32,
    fanout: usize,
}

impl<T> RTree<T> {
    /// Bulk-loads with the default fanout.
    pub fn bulk_load(items: Vec<(Mbr, T)>) -> Self {
        Self::bulk_load_with_fanout(items, DEFAULT_FANOUT)
    }

    /// Bulk-loads with an explicit fanout (must be at least 2).
    pub fn bulk_load_with_fanout(mut items: Vec<(Mbr, T)>, fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut nodes = Vec::new();
        if items.is_empty() {
            nodes.push(Node { mbr: Mbr::empty(), kind: NodeKind::Leaf(0, 0) });
            return RTree { items, nodes, root: 0, fanout };
        }

        // STR: sort by x-center, slice into vertical slabs, sort each slab
        // by y-center, chunk into leaves.
        let n = items.len();
        let n_leaves = n.div_ceil(fanout);
        let n_slabs = (n_leaves as f64).sqrt().ceil() as usize;
        let slab_size = n.div_ceil(n_slabs);
        items.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        let mut level: Vec<u32> = Vec::with_capacity(n_leaves);
        {
            let mut start = 0;
            while start < n {
                let end = (start + slab_size).min(n);
                items[start..end].sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
                let mut ls = start;
                while ls < end {
                    let le = (ls + fanout).min(end);
                    let mut mbr = Mbr::empty();
                    for (m, _) in &items[ls..le] {
                        mbr = mbr.union(m);
                    }
                    nodes.push(Node { mbr, kind: NodeKind::Leaf(ls, le) });
                    level.push((nodes.len() - 1) as u32);
                    ls = le;
                }
                start = end;
            }
        }

        // Build upper levels by chunking (children are already spatially
        // clustered by the STR order).
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(fanout));
            for chunk in level.chunks(fanout) {
                let mut mbr = Mbr::empty();
                for &c in chunk {
                    mbr = mbr.union(&nodes[c as usize].mbr);
                }
                nodes.push(Node { mbr, kind: NodeKind::Inner(chunk.to_vec()) });
                next.push((nodes.len() - 1) as u32);
            }
            level = next;
        }
        let root = level[0];
        RTree { items, nodes, root, fanout }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The tree's bounding rectangle.
    pub fn mbr(&self) -> Mbr {
        self.nodes[self.root as usize].mbr
    }

    /// The configured fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Generic pruned traversal: descends into nodes whose MBR satisfies
    /// `descend` and calls `visit` for every item whose own MBR satisfies
    /// `descend` too.
    pub fn visit<'a>(
        &'a self,
        mut descend: impl FnMut(&Mbr) -> bool,
        mut visit: impl FnMut(&'a Mbr, &'a T),
    ) {
        if self.items.is_empty() {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !descend(&node.mbr) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(s, e) => {
                    for (m, t) in &self.items[*s..*e] {
                        if descend(m) {
                            visit(m, t);
                        }
                    }
                }
                NodeKind::Inner(children) => stack.extend_from_slice(children),
            }
        }
    }

    /// Items whose MBR intersects `query`.
    pub fn query_intersects(&self, query: &Mbr) -> Vec<&T> {
        let mut out = Vec::new();
        self.visit(|m| m.intersects(query), |_, t| out.push(t));
        out
    }

    /// Items whose MBR lies within distance `r` of `p`.
    pub fn query_within_dist(&self, p: Point, r: f64) -> Vec<&T> {
        let mut out = Vec::new();
        self.visit(|m| m.min_dist(p) <= r, |_, t| out.push(t));
        out
    }

    /// Approximate heap size in bytes, including payloads by `size_of`.
    pub fn mem_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<(Mbr, T)>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    std::mem::size_of::<Node>()
                        + match &n.kind {
                            NodeKind::Inner(c) => c.capacity() * 4,
                            NodeKind::Leaf(..) => 0,
                        }
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn grid_items(n: usize) -> Vec<(Mbr, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                (Mbr::new(pt(x, y), pt(x + 0.5, y + 0.5)), i)
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert!(t.query_intersects(&Mbr::new(pt(0.0, 0.0), pt(1.0, 1.0))).is_empty());
        assert!(t.query_within_dist(pt(0.0, 0.0), 100.0).is_empty());
    }

    #[test]
    fn single_item() {
        let t = RTree::bulk_load(vec![(Mbr::from_point(pt(1.0, 1.0)), 7u32)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.query_within_dist(pt(0.0, 0.0), 2.0), vec![&7]);
        assert!(t.query_within_dist(pt(0.0, 0.0), 1.0).is_empty());
    }

    #[test]
    fn intersection_query_exact() {
        let t = RTree::bulk_load(grid_items(100));
        let q = Mbr::new(pt(2.2, 2.2), pt(4.4, 3.3));
        let mut got: Vec<usize> = t.query_intersects(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut expect: Vec<usize> = grid_items(100)
            .into_iter()
            .filter(|(m, _)| m.intersects(&q))
            .map(|(_, i)| i)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn within_dist_query_exact() {
        let t = RTree::bulk_load(grid_items(100));
        let p = pt(5.0, 5.0);
        for r in [0.3, 1.0, 2.5, 20.0] {
            let mut got: Vec<usize> = t.query_within_dist(p, r).into_iter().copied().collect();
            got.sort_unstable();
            let mut expect: Vec<usize> = grid_items(100)
                .into_iter()
                .filter(|(m, _)| m.min_dist(p) <= r)
                .map(|(_, i)| i)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "r={r}");
        }
    }

    #[test]
    fn root_mbr_covers_everything() {
        let t = RTree::bulk_load(grid_items(57));
        for (m, _) in grid_items(57) {
            assert!(t.mbr().contains_mbr(&m));
        }
    }

    #[test]
    fn small_fanout_builds_deep_tree() {
        let t = RTree::bulk_load_with_fanout(grid_items(64), 2);
        let q = Mbr::new(pt(0.0, 0.0), pt(10.0, 10.0));
        assert_eq!(t.query_intersects(&q).len(), 64);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn fanout_one_panics() {
        RTree::bulk_load_with_fanout(grid_items(4), 1);
    }

    proptest! {
        #[test]
        fn query_matches_scan(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..300),
            qx in 0.0f64..100.0, qy in 0.0f64..100.0, r in 0.0f64..50.0,
        ) {
            let items: Vec<(Mbr, usize)> = pts
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (Mbr::from_point(pt(x, y)), i))
                .collect();
            let tree = RTree::bulk_load(items.clone());
            let q = pt(qx, qy);
            let mut got: Vec<usize> = tree.query_within_dist(q, r).into_iter().copied().collect();
            got.sort_unstable();
            let mut expect: Vec<usize> = items
                .iter()
                .filter(|(m, _)| m.min_dist(q) <= r)
                .map(|(_, i)| *i)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
