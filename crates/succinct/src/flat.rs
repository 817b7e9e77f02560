//! Borrowed-or-mapped typed storage: [`FlatVec`] is a `Vec<T>` while an
//! index is being built or mutated, and a zero-copy view into a shared
//! byte buffer (an `mmap`ed archive section) once attached.
//!
//! Every container of the frozen deployment (point arenas, slot tables,
//! trie bitmaps, leaf summary tables) stores its elements in a `FlatVec`,
//! so the same search code runs unchanged over a freshly built index and
//! over one attached from disk without deserialization.

use crate::pod::{bytes_of, Pod};
use std::ops::Deref;
use std::sync::Arc;

/// A shared, immutable byte buffer backing zero-copy views.
///
/// The bytes must stay valid and unchanged for the lifetime of the value
/// (an `mmap`ed file, or an owned heap allocation). `bytes()` must return
/// the same slice on every call.
pub trait ByteStore: std::fmt::Debug + Send + Sync + 'static {
    /// The backing bytes.
    fn bytes(&self) -> &[u8];
}

/// A cheaply clonable handle to a [`ByteStore`].
pub type ByteBuf = Arc<dyn ByteStore>;

/// An owned, 8-byte-aligned byte buffer.
///
/// Backed by a `Vec<u64>` so the base pointer is always 8-aligned — the
/// heap fallback when `mmap` is unavailable, and the test substrate for
/// view construction. Length is tracked separately (the last word may be
/// partial).
#[derive(Debug)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh 8-aligned allocation.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: the destination is `words.len() * 8 >= bytes.len()` bytes
        // of initialized (zeroed) u64s; u8 writes at any offset are fine.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr() as *mut u8,
                bytes.len(),
            );
        }
        AlignedBytes { words, len: bytes.len() }
    }
}

impl ByteStore for AlignedBytes {
    fn bytes(&self) -> &[u8] {
        // SAFETY: the Vec<u64> allocation is fully initialized and at
        // least `len` bytes long.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

/// Typed element storage that is either owned (mutable, growable) or a
/// zero-copy view into a shared byte buffer (see module docs).
///
/// Dereferences to `&[T]` either way; mutation on a view first copies it
/// out into owned storage (copy-on-write), so build-side code keeps
/// working unchanged.
pub enum FlatVec<T: Pod> {
    /// Heap-owned elements (the build/mutate representation).
    Owned(Vec<T>),
    /// `len` elements starting `off` bytes into `buf` (the mapped
    /// representation). Invariants checked at construction: the range is
    /// in bounds and the element pointer is aligned.
    View {
        /// The backing buffer, shared with every sibling section view.
        buf: ByteBuf,
        /// Byte offset of element 0 within `buf`.
        off: usize,
        /// Element count.
        len: usize,
    },
}

impl<T: Pod> FlatVec<T> {
    /// An empty owned vector.
    pub fn new() -> Self {
        FlatVec::Owned(Vec::new())
    }

    /// An empty owned vector with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        FlatVec::Owned(Vec::with_capacity(cap))
    }

    /// A zero-copy view of `len` elements at byte offset `off` in `buf`.
    ///
    /// Fails (with a diagnostic string for the caller's error type) when
    /// the range leaves the buffer or the element pointer would be
    /// misaligned — both are signs of a corrupt or foreign archive, never
    /// a panic.
    pub fn view(buf: ByteBuf, off: usize, len: usize) -> Result<Self, String> {
        let size = std::mem::size_of::<T>();
        let align = std::mem::align_of::<T>();
        let bytes = len
            .checked_mul(size)
            .ok_or_else(|| format!("section length overflows: {len} x {size}"))?;
        let end = off
            .checked_add(bytes)
            .ok_or_else(|| format!("section range overflows: {off}+{bytes}"))?;
        if end > buf.bytes().len() {
            return Err(format!(
                "section [{off}, {end}) outside buffer of {} bytes",
                buf.bytes().len()
            ));
        }
        if !(buf.bytes().as_ptr() as usize + off).is_multiple_of(align) {
            return Err(format!("section at byte {off} misaligned for align-{align} elements"));
        }
        Ok(FlatVec::View { buf, off, len })
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            FlatVec::Owned(v) => v.as_slice(),
            FlatVec::View { buf, off, len } => {
                // SAFETY: `view()` checked bounds and alignment once; the
                // buffer is immutable and outlives `self` via the Arc, and
                // Pod guarantees any bit pattern is a valid T.
                unsafe {
                    std::slice::from_raw_parts(buf.bytes().as_ptr().add(*off) as *const T, *len)
                }
            }
        }
    }

    /// The elements as raw bytes (for checksumming and archive writes).
    pub fn as_bytes(&self) -> &[u8] {
        bytes_of(self.as_slice())
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            FlatVec::Owned(v) => v.len(),
            FlatVec::View { len, .. } => *len,
        }
    }

    /// Whether there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutable access, copying a view out into owned storage first.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let FlatVec::View { .. } = self {
            *self = FlatVec::Owned(self.as_slice().to_vec());
        }
        match self {
            FlatVec::Owned(v) => v,
            FlatVec::View { .. } => unreachable!("converted above"),
        }
    }

    /// Appends an element (copy-on-write for views).
    pub fn push(&mut self, value: T) {
        self.to_mut().push(value);
    }

    /// Whether this is a zero-copy view (attached) rather than owned.
    pub fn is_view(&self) -> bool {
        matches!(self, FlatVec::View { .. })
    }

    /// Heap bytes owned by this container (0 for a view — the mapped
    /// buffer is accounted once by its owner).
    pub fn mem_bytes(&self) -> usize {
        match self {
            FlatVec::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            FlatVec::View { .. } => 0,
        }
    }
}

impl<T: Pod> Deref for FlatVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Default for FlatVec<T> {
    fn default() -> Self {
        FlatVec::new()
    }
}

impl<T: Pod> From<Vec<T>> for FlatVec<T> {
    fn from(v: Vec<T>) -> Self {
        FlatVec::Owned(v)
    }
}

impl<T: Pod> FromIterator<T> for FlatVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        FlatVec::Owned(iter.into_iter().collect())
    }
}

impl<T: Pod> Clone for FlatVec<T> {
    fn clone(&self) -> Self {
        match self {
            FlatVec::Owned(v) => FlatVec::Owned(v.clone()),
            // Cloning a view is an Arc bump, not a data copy.
            FlatVec::View { buf, off, len } => {
                FlatVec::View { buf: Arc::clone(buf), off: *off, len: *len }
            }
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for FlatVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for FlatVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for FlatVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf_of(bytes: &[u8]) -> ByteBuf {
        Arc::new(AlignedBytes::copy_from(bytes))
    }

    #[test]
    fn owned_push_and_slice() {
        let mut v: FlatVec<u32> = FlatVec::new();
        v.push(7);
        v.push(9);
        assert_eq!(&*v, &[7, 9]);
        assert!(!v.is_view());
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn view_reads_mapped_words() {
        let words: Vec<u64> = vec![3, u64::MAX, 0];
        let buf = buf_of(bytes_of(&words));
        let v = FlatVec::<u64>::view(buf, 0, 3).unwrap();
        assert!(v.is_view());
        assert_eq!(&*v, &[3, u64::MAX, 0]);
        assert_eq!(v.mem_bytes(), 0);
    }

    #[test]
    fn view_at_offset() {
        let words: Vec<u64> = vec![1, 2, 3, 4];
        let buf = buf_of(bytes_of(&words));
        let v = FlatVec::<u64>::view(buf, 16, 2).unwrap();
        assert_eq!(&*v, &[3, 4]);
    }

    #[test]
    fn view_rejects_out_of_bounds_and_misalignment() {
        let words: Vec<u64> = vec![1, 2];
        let buf = buf_of(bytes_of(&words));
        assert!(FlatVec::<u64>::view(Arc::clone(&buf), 0, 3).is_err());
        assert!(FlatVec::<u64>::view(Arc::clone(&buf), 4, 1).is_err());
        assert!(FlatVec::<u64>::view(buf, usize::MAX, 1).is_err());
    }

    #[test]
    fn copy_on_write_preserves_then_diverges() {
        let words: Vec<u64> = vec![10, 20];
        let buf = buf_of(bytes_of(&words));
        let mut v = FlatVec::<u64>::view(buf, 0, 2).unwrap();
        v.push(30);
        assert!(!v.is_view(), "mutation converts to owned");
        assert_eq!(&*v, &[10, 20, 30]);
    }

    #[test]
    fn equality_crosses_representations() {
        let words: Vec<u64> = vec![5, 6];
        let buf = buf_of(bytes_of(&words));
        let view = FlatVec::<u64>::view(buf, 0, 2).unwrap();
        let owned = FlatVec::Owned(vec![5u64, 6]);
        assert_eq!(view, owned);
    }

    #[test]
    fn empty_view_is_fine() {
        let buf = buf_of(&[]);
        let v = FlatVec::<u64>::view(buf, 0, 0).unwrap();
        assert!(v.is_empty());
    }
}
