use crate::{Mbr, Point, TrajId, Trajectory};
use repose_succinct::FlatVec;

/// A flat arena of trajectories: every sample point of every trajectory in
/// one contiguous `Vec<Point>`, plus an `(offset, len)` table keyed by
/// *slot* (the insertion index).
///
/// This is the storage layout of the hot query path. A dataset stored as
/// `Vec<Trajectory>` scatters each trajectory's points into its own heap
/// island, so a leaf-verification scan chases one pointer per candidate and
/// the prefetcher restarts at every trajectory boundary. The arena keeps
/// the scan linear in memory: `points(slot)` is a plain subslice of one
/// allocation, candidates that are verified together were laid out
/// together at build time, and copying a trajectory between stores
/// ([`TrajStore::push_from`]) is a single contiguous `memcpy` with no
/// intermediate [`Trajectory`] allocation.
///
/// A store is frozen at index build / compaction time and only ever grows
/// (`push`); [`Trajectory`] remains the I/O type at the edges
/// (CSV loading, the service's write path, serde of datasets). A built
/// store persists only inside an archive (`repose-archive`), which
/// reassembles it through [`TrajStore::from_parts`].
///
/// ```
/// use repose_model::{Point, TrajStore, Trajectory};
///
/// let mut store = TrajStore::new();
/// let slot = store.push(7, &[Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
/// assert_eq!(store.id(slot), 7);
/// assert_eq!(store.points(slot).len(), 2);
///
/// // Arena-to-arena copy: no per-trajectory heap island in between.
/// let mut other = TrajStore::new();
/// other.push_from(&store, slot);
/// assert_eq!(other.points(0), store.points(slot));
/// ```
/// The three backing arrays live in [`FlatVec`]s, so a store is either
/// owned (build/compaction time) or three zero-copy views into a mapped
/// archive (`starts` is stored as `u64`, not `usize`, so the on-disk
/// layout is platform-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct TrajStore {
    /// Trajectory id per slot.
    ids: FlatVec<TrajId>,
    /// Prefix offsets into `points`: slot `i` owns
    /// `points[starts[i]..starts[i + 1]]`. Always `ids.len() + 1` entries
    /// (a lone `0` when empty).
    starts: FlatVec<u64>,
    /// All sample points, back to back in slot order.
    points: FlatVec<Point>,
}

/// Same as [`TrajStore::new`]. (Deriving `Default` would produce an
/// *empty* `starts` table, violating the `ids.len() + 1` prefix-table
/// invariant — the first push into such a store corrupts it silently.)
impl Default for TrajStore {
    fn default() -> Self {
        TrajStore::new()
    }
}

impl TrajStore {
    /// An empty store.
    pub fn new() -> Self {
        TrajStore {
            ids: FlatVec::new(),
            starts: FlatVec::Owned(vec![0]),
            points: FlatVec::new(),
        }
    }

    /// An empty store with room for `trajs` trajectories totalling
    /// `points` sample points.
    pub fn with_capacity(trajs: usize, points: usize) -> Self {
        TrajStore {
            ids: FlatVec::with_capacity(trajs),
            starts: {
                let mut s = Vec::with_capacity(trajs + 1);
                s.push(0);
                FlatVec::Owned(s)
            },
            points: FlatVec::with_capacity(points),
        }
    }

    /// Reassembles a store from its backing arrays (e.g. mapped archive
    /// sections), validating the cross-field invariant first.
    pub fn from_parts(
        ids: FlatVec<TrajId>,
        starts: FlatVec<u64>,
        points: FlatVec<Point>,
    ) -> Result<Self, crate::ModelError> {
        let store = TrajStore { ids, starts, points };
        store.validate()?;
        Ok(store)
    }

    /// The backing arrays `(ids, starts, points)` — the archive writer's
    /// view of the store. `starts` is the raw `u64` prefix table.
    pub fn as_parts(&self) -> (&[TrajId], &[u64], &[Point]) {
        (&self.ids, &self.starts, &self.points)
    }

    /// Copies a `Trajectory` slice into a fresh arena, preserving order
    /// (slot `i` holds `trajs[i]`).
    pub fn from_trajectories(trajs: &[Trajectory]) -> Self {
        let total: usize = trajs.iter().map(Trajectory::len).sum();
        let mut store = TrajStore::with_capacity(trajs.len(), total);
        for t in trajs {
            store.push(t.id, &t.points);
        }
        store
    }

    /// Appends a trajectory, returning its slot.
    pub fn push(&mut self, id: TrajId, points: &[Point]) -> usize {
        self.ids.push(id);
        self.points.to_mut().extend_from_slice(points);
        self.starts.push(self.points.len() as u64);
        self.ids.len() - 1
    }

    /// Appends slot `slot` of `other` — the arena-to-arena copy path used
    /// by compaction: one contiguous point-range `memcpy`, no intermediate
    /// [`Trajectory`] clone. Returns the new slot.
    pub fn push_from(&mut self, other: &TrajStore, slot: usize) -> usize {
        self.push(other.id(slot), other.points(slot))
    }

    /// Number of trajectories.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id stored at `slot`.
    #[inline]
    pub fn id(&self, slot: usize) -> TrajId {
        self.ids[slot]
    }

    /// The points of `slot`, as a subslice of the shared arena.
    #[inline]
    pub fn points(&self, slot: usize) -> &[Point] {
        &self.points[self.starts[slot] as usize..self.starts[slot + 1] as usize]
    }

    /// Iterates `(id, points)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (TrajId, &[Point])> + '_ {
        (0..self.len()).map(move |i| (self.id(i), self.points(i)))
    }

    /// Materializes owned [`Trajectory`] values (the I/O edge).
    pub fn to_trajectories(&self) -> Vec<Trajectory> {
        self.iter()
            .map(|(id, pts)| Trajectory::new(id, pts.to_vec()))
            .collect()
    }

    /// The square region enclosing every point (see
    /// [`crate::Dataset::enclosing_square`] — both containers share one
    /// squaring rule), or `None` when no points exist.
    pub fn enclosing_square(&self) -> Option<Mbr> {
        crate::mbr::enclosing_square_of(self.points.iter())
    }

    /// Checks the cross-field invariant (`starts` is a monotone prefix
    /// table of length `ids.len() + 1` ending at `points.len()`).
    ///
    /// Stores built through the constructors always satisfy it;
    /// [`TrajStore::from_parts`] checks it on arrays read from untrusted
    /// bytes — accessors index by the table and would panic on a
    /// malformed one.
    pub fn validate(&self) -> Result<(), crate::ModelError> {
        let ok = self.starts.len() == self.ids.len() + 1
            && self.starts.first() == Some(&0)
            && self.starts.last() == Some(&(self.points.len() as u64))
            && self.starts.windows(2).all(|w| w[0] <= w[1]);
        if ok {
            Ok(())
        } else {
            Err(crate::ModelError::CorruptStore)
        }
    }

    /// Approximate heap footprint in bytes (the three backing arrays;
    /// 0 when all three are views of a mapped archive).
    pub fn mem_bytes(&self) -> usize {
        self.ids.mem_bytes() + self.starts.mem_bytes() + self.points.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn default_upholds_the_starts_invariant() {
        let mut s = TrajStore::default();
        assert!(s.validate().is_ok());
        s.push(1, &pts(&[(0.0, 0.0), (1.0, 1.0)]));
        assert!(s.validate().is_ok());
        assert_eq!(s.points(0).len(), 2);
    }

    #[test]
    fn empty_store() {
        let s = TrajStore::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.enclosing_square().is_none());
        assert!(s.iter().next().is_none());
    }

    #[test]
    fn push_and_read_back() {
        let mut s = TrajStore::new();
        let a = s.push(10, &pts(&[(0.0, 0.0), (1.0, 2.0)]));
        let b = s.push(11, &pts(&[(5.0, 5.0)]));
        let c = s.push(12, &[]); // empty trajectories are representable
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.id(1), 11);
        assert_eq!(s.points(0), pts(&[(0.0, 0.0), (1.0, 2.0)]).as_slice());
        assert_eq!(s.points(1), pts(&[(5.0, 5.0)]).as_slice());
        assert!(s.points(2).is_empty());
    }

    #[test]
    fn points_are_one_contiguous_allocation() {
        let mut s = TrajStore::new();
        s.push(0, &pts(&[(0.0, 0.0), (1.0, 0.0)]));
        s.push(1, &pts(&[(2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]));
        let p0 = s.points(0);
        let p1 = s.points(1);
        // Slot 1 starts exactly where slot 0 ends.
        assert_eq!(p0.as_ptr().wrapping_add(p0.len()), p1.as_ptr());
    }

    #[test]
    fn roundtrip_through_trajectories() {
        let trajs = vec![
            Trajectory::new(3, pts(&[(0.0, 1.0), (2.0, 3.0)])),
            Trajectory::new(9, pts(&[(4.0, 5.0)])),
        ];
        let s = TrajStore::from_trajectories(&trajs);
        assert_eq!(s.to_trajectories(), trajs);
    }

    #[test]
    fn push_from_copies_ranges() {
        let mut a = TrajStore::new();
        a.push(1, &pts(&[(0.0, 0.0), (1.0, 1.0)]));
        a.push(2, &pts(&[(9.0, 9.0)]));
        let mut b = TrajStore::new();
        b.push_from(&a, 1);
        b.push_from(&a, 0);
        assert_eq!(b.id(0), 2);
        assert_eq!(b.id(1), 1);
        assert_eq!(b.points(1), a.points(0));
    }

    #[test]
    fn enclosing_square_matches_dataset() {
        let trajs = vec![Trajectory::new(
            0,
            pts(&[(0.0, 0.0), (10.0, 2.0)]),
        )];
        let d = crate::Dataset::from_trajectories(trajs.clone());
        let s = TrajStore::from_trajectories(&trajs);
        assert_eq!(s.enclosing_square(), d.enclosing_square());
    }

    #[test]
    fn validate_accepts_built_and_rejects_malformed() {
        let mut s = TrajStore::new();
        assert!(s.validate().is_ok());
        s.push(1, &pts(&[(0.0, 0.0), (1.0, 1.0)]));
        s.push(2, &pts(&[(2.0, 2.0)]));
        assert!(s.validate().is_ok());
        // Malformed offset tables (as a corrupt archive section could
        // carry) are refused at reassembly instead of panicking later.
        let parts = |starts: Vec<u64>| {
            TrajStore::from_parts(
                FlatVec::Owned(vec![1]),
                FlatVec::Owned(starts),
                FlatVec::Owned(pts(&[(0.0, 0.0)])),
            )
        };
        for bad in [vec![0, 99], vec![0], vec![0, 1, 1], vec![1, 1], vec![]] {
            assert_eq!(parts(bad.clone()), Err(crate::ModelError::CorruptStore), "{bad:?}");
        }
        assert!(parts(vec![0, 1]).is_ok());
    }

    #[test]
    fn parts_roundtrip() {
        let mut s = TrajStore::new();
        s.push(4, &pts(&[(1.0, 2.0), (3.0, 4.0)]));
        s.push(5, &[]);
        let (ids, starts, points) = s.as_parts();
        let back = TrajStore::from_parts(
            FlatVec::Owned(ids.to_vec()),
            FlatVec::Owned(starts.to_vec()),
            FlatVec::Owned(points.to_vec()),
        );
        assert_eq!(back, Ok(s));
    }

    #[test]
    fn mem_bytes_nonzero() {
        let mut s = TrajStore::new();
        s.push(0, &pts(&[(0.0, 0.0)]));
        assert!(s.mem_bytes() >= std::mem::size_of::<Point>());
    }
}
