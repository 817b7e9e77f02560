//! Reusable DP scratch for the exact kernels: the zero-allocation
//! verification path.
//!
//! Every distance kernel needs a column of DP state (and ERP its query's
//! gap costs). Allocating those per call puts the allocator
//! on the hot path of every verification — the dominant cost of a query
//! once the index has pruned (Section VI of the paper). A [`DistScratch`]
//! owns those buffers and is reused across calls: after the first few
//! verifications have grown each buffer to the longest trajectory seen,
//! the kernels run **allocation-free**.
//!
//! Ownership discipline: one scratch per worker thread. Callers that own a
//! loop hold a `DistScratch` explicitly and call the `MeasureParams::*_in`
//! entry points; the classic ones (`dtw(a, b)`,
//! [`crate::MeasureParams::distance`], …) instead borrow the calling
//! thread's scratch via [`DistScratch::with_thread`], which is also how the
//! trie search, the serving layer's delta scans, and the baselines'
//! refinement loops get a warm scratch to pass down.

use std::cell::RefCell;

/// Reusable kernel scratch space (see module docs).
///
/// The buffers are deliberately typed by role, not by kernel: `fa` serves
/// as the DP column (DTW, Fréchet, ERP) or the column-minima row
/// (Hausdorff), `fb` as ERP's query gap costs; `u` is the integer column
/// of EDR and LCSS; `lanes` holds the lane-interleaved column state of
/// batched multi-candidate verification, `W` lanes to a row.
/// A single scratch therefore serves all six measures interchangeably.
#[derive(Debug, Default)]
pub struct DistScratch {
    fa: Vec<f64>,
    fb: Vec<f64>,
    fc: Vec<f64>,
    u: Vec<u32>,
    lanes: Vec<f64>,
}

/// Returns a length-`n` view of `buf` without clearing retained values:
/// for kernels that fully initialize the buffer before reading it, the
/// per-call `memset` is waste the warm path should not pay.
fn grow_uninit<T: Copy + Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if buf.len() < n {
        buf.resize(n, T::default());
    }
    &mut buf[..n]
}

impl DistScratch {
    /// An empty scratch. Buffers grow on first use and are then reused.
    pub fn new() -> Self {
        DistScratch::default()
    }

    /// One `f64` buffer of length `n` with **unspecified contents** — for
    /// kernels that fully initialize it before any read (DTW/Fréchet first
    /// column, Hausdorff after its own `fill`).
    pub(crate) fn f1_uninit(&mut self, n: usize) -> &mut [f64] {
        grow_uninit(&mut self.fa, n)
    }

    /// Three `f64` buffers with **unspecified contents** (ERP's column and
    /// query gap costs, the packed nearest-neighbour sweep's lane arrays;
    /// each writes every entry it reads).
    pub(crate) fn f3_uninit(
        &mut self,
        na: usize,
        nb: usize,
        nc: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (
            grow_uninit(&mut self.fa, na),
            grow_uninit(&mut self.fb, nb),
            grow_uninit(&mut self.fc, nc),
        )
    }

    /// One `u32` column of length `n` with **unspecified contents** (EDR
    /// and LCSS initialize it before the first push).
    pub(crate) fn u1_uninit(&mut self, n: usize) -> &mut [u32] {
        grow_uninit(&mut self.u, n)
    }

    /// `n` `f64`s of lane-interleaved column state, starting on a 64-byte
    /// cache line so that no lane group straddles one, plus an `f64` row of
    /// `nb`, all with **unspecified contents** — the batched
    /// multi-candidate kernels' working set.
    pub(crate) fn lanes(&mut self, n: usize, nb: usize) -> (&mut [f64], &mut [f64]) {
        const LINE: usize = 64 / std::mem::size_of::<f64>();
        let buf = grow_uninit(&mut self.lanes, n + LINE - 1);
        let skip = buf.as_ptr().align_offset(64).min(LINE - 1);
        (&mut buf[skip..skip + n], grow_uninit(&mut self.fa, nb))
    }

    /// Total reserved capacity in bytes across all buffers.
    ///
    /// Stable across calls once the scratch is warm — tests assert this to
    /// prove a warm verification loop never grows (hence never allocates
    /// from) the scratch.
    pub fn footprint(&self) -> usize {
        (self.fa.capacity() + self.fb.capacity() + self.fc.capacity() + self.lanes.capacity())
            * std::mem::size_of::<f64>()
            + self.u.capacity() * std::mem::size_of::<u32>()
    }

    /// Runs `f` with the calling thread's scratch — the per-worker-thread
    /// scratch every classic (non-`_in`) entry point uses.
    ///
    /// Re-entrant calls (a classic kernel invoked from code already
    /// running inside another kernel's scratch scope — e.g. a
    /// `ThresholdSource` or refinement callback that recomputes a
    /// distance) fall back to a fresh temporary scratch: correct, just
    /// not allocation-free for that inner call. The `*_in` entry points
    /// never re-enter.
    pub fn with_thread<R>(f: impl FnOnce(&mut DistScratch) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<DistScratch> = RefCell::new(DistScratch::new());
        }
        SCRATCH.with(|s| match s.try_borrow_mut() {
            Ok(mut scratch) => f(&mut scratch),
            Err(_) => f(&mut DistScratch::new()),
        })
    }

    /// The calling thread's current scratch footprint in bytes (see
    /// [`DistScratch::footprint`]).
    pub fn thread_footprint() -> usize {
        DistScratch::with_thread(|s| s.footprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_sized() {
        let mut s = DistScratch::new();
        assert_eq!(s.u1_uninit(3).len(), 3);
        let (a, b, c) = s.f3_uninit(4, 7, 2);
        assert_eq!((a.len(), b.len(), c.len()), (4, 7, 2));
    }

    #[test]
    fn uninit_buffers_keep_capacity_and_contents() {
        let mut s = DistScratch::new();
        s.f1_uninit(8)[7] = 9.0;
        s.u1_uninit(8)[7] = 9;
        // Shrinking views reuse the same storage without clearing.
        assert_eq!(s.f1_uninit(4).len(), 4);
        assert_eq!(s.f1_uninit(8)[7], 9.0);
        assert_eq!(s.u1_uninit(4).len(), 4);
        assert_eq!(s.u1_uninit(8)[7], 9);
    }

    #[test]
    fn footprint_stabilizes() {
        let mut s = DistScratch::new();
        s.f3_uninit(16, 16, 16);
        s.u1_uninit(16);
        let fp = s.footprint();
        assert!(fp > 0);
        // Smaller and equal requests never grow the footprint.
        s.f3_uninit(8, 16, 2);
        s.u1_uninit(1);
        s.f1_uninit(16);
        s.u1_uninit(16);
        assert_eq!(s.footprint(), fp);
    }

    #[test]
    fn thread_scratch_is_reused() {
        DistScratch::with_thread(|s| {
            s.f1_uninit(32);
        });
        let fp = DistScratch::thread_footprint();
        DistScratch::with_thread(|s| {
            s.f1_uninit(16);
        });
        assert_eq!(DistScratch::thread_footprint(), fp);
    }

    #[test]
    fn reentrant_use_falls_back_instead_of_panicking() {
        // A callback inside a kernel's scratch scope may call a classic
        // entry point; the inner call must get a (fresh) scratch, not a
        // RefCell panic.
        let outer_fp = DistScratch::with_thread(|outer| {
            outer.f1_uninit(8);
            let inner = DistScratch::with_thread(|inner| {
                inner.f1_uninit(4);
                inner.footprint()
            });
            assert!(inner > 0);
            outer.footprint()
        });
        assert!(outer_fp > 0);
    }
}
