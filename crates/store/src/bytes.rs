//! A minimal in-repo replacement for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply cloneable, cheaply sliceable immutable byte
//! buffer: clones and sub-slices share one reference-counted allocation,
//! which is what makes [`crate::Payload::slice`] O(1) regardless of
//! payload size.
//!
//! Only the surface the workspace actually uses is provided; this keeps
//! the build hermetic (no registry access) without giving up the
//! zero-copy slicing the data path depends on.

use std::ops::{Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// Size of the shared all-zero backing block served by [`Bytes::zeroed`].
const ZERO_CHUNK: usize = 1 << 16;

static ZEROS: OnceLock<Arc<Vec<u8>>> = OnceLock::new();

/// An immutable, reference-counted byte buffer with O(1) `clone` and
/// O(1) `slice`.
///
/// The backing store is `Arc<Vec<u8>>` rather than `Arc<[u8]>` on
/// purpose: `Arc<[u8]>::from` must move the bytes into a fresh
/// allocation (the refcount lives inline), which would make
/// [`Bytes::from`]`(Vec)` — and therefore every parity/fold result that
/// freezes a scratch buffer — pay a hidden full copy. Wrapping the
/// `Vec` keeps construction O(1) at the price of one extra pointer hop
/// on access.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy the contents out into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// O(1) sub-slice sharing the same allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            std::ops::Bound::Included(&s) => s,
            std::ops::Bound::Excluded(&s) => s + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&e) => e + 1,
            std::ops::Bound::Excluded(&e) => e,
            std::ops::Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice {start}..{end} out of {}", self.len);
        Bytes { buf: Arc::clone(&self.buf), start: self.start + start, len: end - start }
    }

    /// A buffer of `len` zero bytes.
    ///
    /// Lengths up to 64 KiB are O(1) slices of one process-wide zero
    /// block (zero-filling holes in sparse reads allocates nothing);
    /// larger requests allocate. The shared block is never uniquely
    /// owned, so [`Bytes::try_mut`] refuses to hand it out mutably.
    pub fn zeroed(len: usize) -> Bytes {
        if len <= ZERO_CHUNK {
            let arc = ZEROS.get_or_init(|| Arc::new(vec![0u8; ZERO_CHUNK]));
            Bytes { buf: Arc::clone(arc), start: 0, len }
        } else {
            Bytes::from(vec![0u8; len])
        }
    }

    /// Mutable access to the bytes, granted only when this handle is the
    /// sole owner of the backing allocation.
    ///
    /// Returns `None` whenever any clone or sub-slice shares the buffer
    /// — exactly the cases where in-place mutation would be visible
    /// through another handle. Callers that need a mutable view
    /// unconditionally must copy on `None` (see `Payload::xor_assign`).
    pub fn try_mut(&mut self) -> Option<&mut [u8]> {
        let (start, len) = (self.start, self.len);
        Arc::get_mut(&mut self.buf).map(|b| &mut b[start..start + len])
    }

    /// True when this handle is the sole owner of the backing allocation
    /// (i.e. [`Bytes::try_mut`] would succeed).
    pub fn is_unique(&mut self) -> bool {
        Arc::get_mut(&mut self.buf).is_some()
    }

    fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// O(1): the vector is moved behind the refcount, not copied.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes { buf: Arc::new(v), start: 0, len }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{:02x?}", self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(1..2);
        assert_eq!(&s2[..], &[3]);
        assert_eq!(Arc::strong_count(&b.buf), 3);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slice_out_of_range_panics() {
        Bytes::from(vec![0; 3]).slice(1..5);
    }

    #[test]
    fn try_mut_only_when_unique() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        assert!(b.is_unique());
        b.try_mut().unwrap()[0] = 9;
        assert_eq!(&b[..], &[9, 2, 3, 4]);

        let clone = b.clone();
        assert!(b.try_mut().is_none(), "shared buffer must not be mutable");
        drop(clone);
        assert!(b.try_mut().is_some(), "uniqueness returns once clones drop");
    }

    #[test]
    fn try_mut_on_unique_slice_stays_in_window() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let mut s = b.slice(1..4);
        drop(b);
        let m = s.try_mut().unwrap();
        assert_eq!(m, &mut [2, 3, 4]);
        m[1] = 0;
        assert_eq!(&s[..], &[2, 0, 4]);
    }

    #[test]
    fn zeroed_shares_one_allocation_for_small_lengths() {
        let a = Bytes::zeroed(16);
        let mut b = Bytes::zeroed(4096);
        assert!(a.iter().all(|x| *x == 0) && b.iter().all(|x| *x == 0));
        assert!(!b.is_unique(), "small zero buffers share the static block");
        assert!(b.try_mut().is_none(), "the shared zero block must stay immutable");
        let mut big = Bytes::zeroed(ZERO_CHUNK + 1);
        assert_eq!(big.len(), ZERO_CHUNK + 1);
        assert!(big.is_unique(), "oversized zero buffers are freshly allocated");
    }
}
