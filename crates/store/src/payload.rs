//! Write/read payloads: real bytes (contiguous or gathered) or phantom
//! (length-only).

use crate::bytes::Bytes;
use crate::json::{hex_decode, hex_encode, FromJson, Json, JsonError, ToJson};
use csar_parity::xor_into;
use std::fmt;

/// A payload travelling through the CSAR data path.
///
/// `Data` carries real bytes in one contiguous buffer. `Gather` carries
/// real bytes as a rope of shared chunks: [`Payload::concat`] and
/// [`Payload::slice`] build gathers in O(parts) without copying a byte,
/// and the bytes are materialised only at a boundary that genuinely
/// needs them contiguous ([`Payload::flatten`], serialization, or an
/// in-place mutation). `Phantom` carries only a length: the simulator
/// uses it to run experiments at the paper's data scales (up to ~13 GB
/// of written bytes for BTIO Class C under RAID1) while preserving exact
/// transfer-size, storage and cache accounting.
///
/// Equality is *logical*: two payloads are equal when they carry the
/// same bytes, however they are chunked. XOR-combining anything with a
/// phantom yields a phantom of the same length, so parity bookkeeping
/// stays length-correct in phantom runs.
#[derive(Clone)]
pub enum Payload {
    /// Real bytes in one contiguous buffer.
    Data(Bytes),
    /// Real bytes as ≥ 2 non-empty shared chunks, in order.
    Gather(Vec<Bytes>),
    /// A length-only stand-in for `len` bytes.
    Phantom(u64),
}

impl ToJson for Payload {
    fn to_json(&self) -> Json {
        match self {
            Payload::Data(b) => Json::obj([("data", Json::from(hex_encode(b)))]),
            // Serialization is a transport boundary: flatten here, lazily.
            Payload::Gather(_) => {
                let flat = self.to_flat_vec().expect("gather carries real bytes");
                Json::obj([("data", Json::from(hex_encode(&flat)))])
            }
            Payload::Phantom(l) => Json::obj([("phantom", Json::from(*l))]),
        }
    }
}

impl FromJson for Payload {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if let Some(hex) = j.get("data").as_str() {
            return Ok(Payload::Data(Bytes::from(hex_decode(hex)?)));
        }
        if let Some(len) = j.get("phantom").as_u64() {
            return Ok(Payload::Phantom(len));
        }
        Err(JsonError("payload must have a `data` or `phantom` field".into()))
    }
}

impl Payload {
    /// A payload of `len` zero bytes (real).
    ///
    /// Small lengths share the process-wide zero block (no allocation);
    /// see [`Bytes::zeroed`].
    pub fn zeros(len: usize) -> Self {
        Payload::Data(Bytes::zeroed(len))
    }

    /// Construct from a byte vector.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Payload::Data(Bytes::from(v))
    }

    /// Build the canonical payload for a chunk list: `Data` for zero or
    /// one chunk, `Gather` otherwise (maintaining the ≥ 2 non-empty
    /// chunks invariant — callers must not pass empty chunks).
    fn from_chunks(mut chunks: Vec<Bytes>) -> Payload {
        debug_assert!(chunks.iter().all(|c| !c.is_empty()), "gather chunks must be non-empty");
        match chunks.len() {
            0 => Payload::Data(Bytes::new()),
            1 => Payload::Data(chunks.pop().expect("one chunk")),
            _ => Payload::Gather(chunks),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Data(b) => b.len() as u64,
            Payload::Gather(v) => v.iter().map(|c| c.len() as u64).sum(),
            Payload::Phantom(l) => *l,
        }
    }

    /// True when the payload has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when this payload carries real bytes (contiguous or gathered).
    pub fn is_data(&self) -> bool {
        matches!(self, Payload::Data(_) | Payload::Gather(_))
    }

    /// The real byte chunks, in order (empty for phantom).
    ///
    /// This is the zero-copy way to consume a payload: fold the chunks
    /// through a parity accumulator, hash them, or hand each to a
    /// vectored write, without ever flattening.
    pub fn chunks(&self) -> &[Bytes] {
        match self {
            Payload::Data(b) => std::slice::from_ref(b),
            Payload::Gather(v) => v,
            Payload::Phantom(_) => &[],
        }
    }

    /// The real bytes as one contiguous buffer, if any.
    ///
    /// O(1) for `Data` (shares the allocation); a `Gather` is flattened
    /// into a fresh buffer, so hot paths should prefer
    /// [`Payload::chunks`]. `None` for phantom.
    pub fn as_bytes(&self) -> Option<Bytes> {
        match self {
            Payload::Data(b) => Some(b.clone()),
            Payload::Gather(_) => {
                Some(Bytes::from(self.to_flat_vec().expect("gather carries real bytes")))
            }
            Payload::Phantom(_) => None,
        }
    }

    /// Copy the real bytes into a fresh contiguous vector (`None` for
    /// phantom).
    pub fn to_flat_vec(&self) -> Option<Vec<u8>> {
        if !self.is_data() {
            return None;
        }
        let mut out = Vec::with_capacity(self.len() as usize);
        for c in self.chunks() {
            out.extend_from_slice(c);
        }
        Some(out)
    }

    /// Materialise into at most one contiguous buffer.
    ///
    /// `Data` and `Phantom` pass through untouched; a `Gather` is copied
    /// into a single allocation. This is the transport-boundary
    /// operation: everything upstream may stay chunked.
    pub fn flatten(&self) -> Payload {
        match self {
            Payload::Gather(_) => {
                Payload::from_vec(self.to_flat_vec().expect("gather carries real bytes"))
            }
            other => other.clone(),
        }
    }

    /// Cheap sub-range `[start, start + len)`.
    ///
    /// O(1) for `Data`/`Phantom`, O(chunks) for `Gather` — never copies
    /// bytes.
    ///
    /// # Panics
    /// Panics if the range exceeds the payload.
    pub fn slice(&self, start: u64, len: u64) -> Payload {
        assert!(
            start + len <= self.len(),
            "payload slice {}+{} out of {}",
            start,
            len,
            self.len()
        );
        match self {
            Payload::Data(b) => Payload::Data(b.slice(start as usize..(start + len) as usize)),
            Payload::Gather(v) => {
                let mut out: Vec<Bytes> = Vec::new();
                let mut skip = start as usize;
                let mut take = len as usize;
                for c in v {
                    if take == 0 {
                        break;
                    }
                    if skip >= c.len() {
                        skip -= c.len();
                        continue;
                    }
                    let n = (c.len() - skip).min(take);
                    out.push(c.slice(skip..skip + n));
                    skip = 0;
                    take -= n;
                }
                Payload::from_chunks(out)
            }
            Payload::Phantom(_) => Payload::Phantom(len),
        }
    }

    /// Concatenate a sequence of payloads without copying.
    ///
    /// All-data parts produce a `Gather` sharing the inputs' chunks in
    /// O(parts); any phantom part degrades the whole to `Phantom` of the
    /// summed length.
    pub fn concat(parts: &[Payload]) -> Payload {
        let total: u64 = parts.iter().map(Payload::len).sum();
        if !parts.iter().all(Payload::is_data) {
            return Payload::Phantom(total);
        }
        let mut chunks: Vec<Bytes> = Vec::with_capacity(parts.len());
        for p in parts {
            for c in p.chunks() {
                if !c.is_empty() {
                    chunks.push(c.clone());
                }
            }
        }
        Payload::from_chunks(chunks)
    }

    /// XOR `other` into `self` in place.
    ///
    /// When `self` is a uniquely-owned `Data` buffer this mutates it
    /// directly (via `Arc::get_mut`) with **zero** allocation; a shared
    /// or gathered `self` is copied into a private buffer once, after
    /// which further `xor_assign`s are in-place. Any phantom operand
    /// degrades `self` to `Phantom` of its own length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &Payload) {
        assert_eq!(self.len(), other.len(), "xor payloads must have equal length");
        if !(self.is_data() && other.is_data()) {
            *self = Payload::Phantom(self.len());
            return;
        }
        xor_chunks_into(self.data_make_mut(), other);
    }

    /// XOR `other` into `self[offset .. offset + other.len())` in place.
    ///
    /// This is the RMW parity splice (`P' = P ⊕ D_old ⊕ D_new` applied at
    /// the written blocks' intra-group offset) without the slice/concat
    /// copies. Ownership rules match [`Payload::xor_assign`]; any
    /// phantom operand degrades `self` to `Phantom` of its own length
    /// (the same degradation the old slice-and-concat path produced).
    ///
    /// # Panics
    /// Panics if the range exceeds `self`.
    pub fn xor_at(&mut self, offset: u64, other: &Payload) {
        assert!(
            offset + other.len() <= self.len(),
            "xor_at {}+{} out of {}",
            offset,
            other.len(),
            self.len()
        );
        if other.is_empty() {
            return;
        }
        if !(self.is_data() && other.is_data()) {
            *self = Payload::Phantom(self.len());
            return;
        }
        let (start, end) = (offset as usize, (offset + other.len()) as usize);
        xor_chunks_into(&mut self.data_make_mut()[start..end], other);
    }

    /// Overwrite `self[offset .. offset + src.len())` with `src`, in
    /// place when `self` is uniquely owned.
    ///
    /// Replaces the `concat(&[before, src, after])` overlay pattern.
    /// Any phantom operand degrades `self` to `Phantom` of its own
    /// length (matching what the concat would have produced).
    ///
    /// # Panics
    /// Panics if the range exceeds `self`.
    pub fn write_at(&mut self, offset: u64, src: &Payload) {
        assert!(
            offset + src.len() <= self.len(),
            "write_at {}+{} out of {}",
            offset,
            src.len(),
            self.len()
        );
        if src.is_empty() {
            return;
        }
        if !(self.is_data() && src.is_data()) {
            *self = Payload::Phantom(self.len());
            return;
        }
        let dst = self.data_make_mut();
        let mut off = offset as usize;
        for c in src.chunks() {
            dst[off..off + c.len()].copy_from_slice(c);
            off += c.len();
        }
    }

    /// Exclusive contiguous view of the real bytes, copying into a
    /// private buffer only when `self` is shared or gathered.
    ///
    /// # Panics
    /// Panics on phantom (callers check `is_data` first).
    fn data_make_mut(&mut self) -> &mut [u8] {
        let unique = match self {
            Payload::Data(b) => b.is_unique(),
            _ => false,
        };
        if !unique {
            *self = Payload::from_vec(self.to_flat_vec().expect("data_make_mut needs real bytes"));
        }
        match self {
            Payload::Data(b) => b.try_mut().expect("buffer was just made unique"),
            _ => unreachable!("data_make_mut leaves self as Data"),
        }
    }
}

/// XOR `src`'s chunks into `dst` (which must have `src`'s length).
fn xor_chunks_into(dst: &mut [u8], src: &Payload) {
    debug_assert_eq!(dst.len() as u64, src.len());
    let mut off = 0;
    for c in src.chunks() {
        xor_into(&mut dst[off..off + c.len()], c);
        off += c.len();
    }
}

impl PartialEq for Payload {
    /// Logical equality: same bytes regardless of chunking, or same
    /// length for two phantoms. Real bytes never equal a phantom.
    fn eq(&self, other: &Self) -> bool {
        match (self.is_data(), other.is_data()) {
            (false, false) => self.len() == other.len(),
            (true, true) => self.len() == other.len() && chunks_eq(self.chunks(), other.chunks()),
            _ => false,
        }
    }
}

impl Eq for Payload {}

/// Compare two equal-length chunk lists byte-for-byte without flattening.
fn chunks_eq(a: &[Bytes], b: &[Bytes]) -> bool {
    let (mut ai, mut ao) = (0usize, 0usize);
    let (mut bi, mut bo) = (0usize, 0usize);
    loop {
        while ai < a.len() && ao == a[ai].len() {
            ai += 1;
            ao = 0;
        }
        while bi < b.len() && bo == b[bi].len() {
            bi += 1;
            bo = 0;
        }
        match (ai == a.len(), bi == b.len()) {
            (true, true) => return true,
            (true, false) | (false, true) => return false,
            (false, false) => {}
        }
        let n = (a[ai].len() - ao).min(b[bi].len() - bo);
        if a[ai][ao..ao + n] != b[bi][bo..bo + n] {
            return false;
        }
        ao += n;
        bo += n;
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Data(b) if b.len() <= 16 => write!(f, "Data({:02x?})", &b[..]),
            Payload::Data(b) => write!(f, "Data({} bytes)", b.len()),
            Payload::Gather(v) => write!(f, "Gather({} chunks, {} bytes)", v.len(), self.len()),
            Payload::Phantom(l) => write!(f, "Phantom({l})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_emptiness() {
        assert_eq!(Payload::zeros(4).len(), 4);
        assert_eq!(Payload::Phantom(9).len(), 9);
        assert!(Payload::zeros(0).is_empty());
        assert!(!Payload::Phantom(1).is_empty());
    }

    #[test]
    fn slice_of_data() {
        let p = Payload::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(p.slice(1, 3), Payload::from_vec(vec![2, 3, 4]));
    }

    #[test]
    fn slice_of_phantom_keeps_length_only() {
        assert_eq!(Payload::Phantom(10).slice(4, 3), Payload::Phantom(3));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slice_out_of_range_panics() {
        Payload::from_vec(vec![0; 4]).slice(2, 3);
    }

    #[test]
    fn concat_all_data() {
        let p = Payload::concat(&[Payload::from_vec(vec![1, 2]), Payload::from_vec(vec![3])]);
        assert_eq!(p, Payload::from_vec(vec![1, 2, 3]));
    }

    #[test]
    fn concat_with_phantom_degrades() {
        let p = Payload::concat(&[Payload::from_vec(vec![1, 2]), Payload::Phantom(3)]);
        assert_eq!(p, Payload::Phantom(5));
    }

    #[test]
    fn concat_is_zero_copy() {
        let a = Payload::from_vec(vec![1, 2]);
        let b = Payload::from_vec(vec![3, 4]);
        let cat = Payload::concat(&[a.clone(), b]);
        assert!(matches!(cat, Payload::Gather(ref v) if v.len() == 2));
        // The gather shares the inputs' allocations: the first chunk is
        // the same memory as `a`.
        let a_ptr = a.chunks()[0].as_ref().as_ptr();
        assert_eq!(cat.chunks()[0].as_ref().as_ptr(), a_ptr);
        // And flattening materialises the expected bytes.
        assert_eq!(cat.flatten(), Payload::from_vec(vec![1, 2, 3, 4]));
    }

    #[test]
    fn concat_of_single_part_stays_contiguous() {
        let a = Payload::from_vec(vec![7, 8, 9]);
        let cat = Payload::concat(std::slice::from_ref(&a));
        assert!(matches!(cat, Payload::Data(_)));
        assert_eq!(cat, a);
    }

    #[test]
    fn gather_slice_never_copies() {
        let cat = Payload::concat(&[
            Payload::from_vec(vec![1, 2, 3]),
            Payload::from_vec(vec![4, 5]),
            Payload::from_vec(vec![6, 7, 8, 9]),
        ]);
        // Straddles the first two chunks.
        let s = cat.slice(1, 4);
        assert_eq!(s, Payload::from_vec(vec![2, 3, 4, 5]));
        // Entirely inside the last chunk: collapses to contiguous Data.
        let s = cat.slice(6, 2);
        assert!(matches!(s, Payload::Data(_)));
        assert_eq!(s, Payload::from_vec(vec![7, 8]));
    }

    #[test]
    fn equality_ignores_chunk_boundaries() {
        let flat = Payload::from_vec(vec![1, 2, 3, 4, 5]);
        let split_a =
            Payload::concat(&[Payload::from_vec(vec![1, 2]), Payload::from_vec(vec![3, 4, 5])]);
        let split_b = Payload::concat(&[
            Payload::from_vec(vec![1]),
            Payload::from_vec(vec![2, 3]),
            Payload::from_vec(vec![4, 5]),
        ]);
        assert_eq!(flat, split_a);
        assert_eq!(split_a, split_b);
        assert_ne!(split_a, Payload::from_vec(vec![1, 2, 3, 4, 6]));
        assert_ne!(split_a, Payload::Phantom(5));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn xor_length_mismatch_panics() {
        Payload::Phantom(2).xor_assign(&Payload::Phantom(3));
    }

    #[test]
    fn xor_assign_unique_buffer_does_not_reallocate() {
        // The satellite fix: xor_assign's doc used to claim in-place
        // behaviour while delegating to the allocating `xor`. Pointer
        // identity proves the buffer really is mutated in place now.
        let mut acc = Payload::from_vec(vec![0b1100, 0b1010, 0xff]);
        let ptr_before = acc.chunks()[0].as_ref().as_ptr();
        acc.xor_assign(&Payload::from_vec(vec![0b1010, 0b1010, 0x0f]));
        let ptr_after = acc.chunks()[0].as_ref().as_ptr();
        assert_eq!(ptr_before, ptr_after, "uniquely-owned buffer must be reused");
        assert_eq!(acc, Payload::from_vec(vec![0b0110, 0, 0xf0]));
    }

    #[test]
    fn xor_assign_shared_buffer_copies_once_then_reuses() {
        let original = Payload::from_vec(vec![1u8; 8]);
        let mut acc = original.clone(); // shared with `original`
        acc.xor_assign(&Payload::from_vec(vec![2u8; 8]));
        // The shared original must be untouched.
        assert_eq!(original, Payload::from_vec(vec![1u8; 8]));
        assert_eq!(acc, Payload::from_vec(vec![3u8; 8]));
        // After the forced copy the buffer is private: further folds are
        // in place.
        let ptr = acc.chunks()[0].as_ref().as_ptr();
        acc.xor_assign(&Payload::from_vec(vec![3u8; 8]));
        assert_eq!(acc.chunks()[0].as_ref().as_ptr(), ptr);
        assert_eq!(acc, Payload::zeros(8));
    }

    #[test]
    fn xor_assign_with_gather_operand_walks_chunks() {
        let mut acc = Payload::from_vec(vec![0xffu8; 6]);
        let gathered =
            Payload::concat(&[Payload::from_vec(vec![1, 2, 3]), Payload::from_vec(vec![4, 5, 6])]);
        acc.xor_assign(&gathered);
        assert_eq!(acc, Payload::from_vec(vec![254, 253, 252, 251, 250, 249]));
    }

    #[test]
    fn xor_assign_phantom_degrades() {
        let mut p = Payload::from_vec(vec![1, 2, 3]);
        p.xor_assign(&Payload::Phantom(3));
        assert_eq!(p, Payload::Phantom(3));
        // A phantom accumulator stays phantom whatever it folds in.
        p.xor_assign(&Payload::from_vec(vec![1, 2, 3]));
        assert_eq!(p, Payload::Phantom(3));
    }

    #[test]
    fn xor_at_matches_bytewise_reference() {
        let base: Vec<u8> = (0..32).collect();
        let patch: Vec<u8> = (0..8).map(|i| i * 3 + 1).collect();
        // Reference: XOR the patch over bytes 10..18 one byte at a time.
        let mut want = base.clone();
        for (w, p) in want[10..18].iter_mut().zip(&patch) {
            *w ^= p;
        }
        let want = Payload::from_vec(want);
        // In-place splice.
        let mut got = Payload::from_vec(base);
        got.xor_at(10, &Payload::from_vec(patch));
        assert_eq!(got, want);
    }

    #[test]
    fn xor_at_phantom_degrades_whole_payload() {
        let mut p = Payload::from_vec(vec![1, 2, 3, 4]);
        p.xor_at(1, &Payload::Phantom(2));
        assert_eq!(p, Payload::Phantom(4));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn xor_at_out_of_range_panics() {
        let mut p = Payload::from_vec(vec![0; 4]);
        p.xor_at(3, &Payload::from_vec(vec![1, 1]));
    }

    #[test]
    fn write_at_overlays_in_place() {
        let mut p = Payload::from_vec(vec![0u8; 8]);
        let ptr = p.chunks()[0].as_ref().as_ptr();
        p.write_at(2, &Payload::from_vec(vec![7, 8, 9]));
        assert_eq!(p, Payload::from_vec(vec![0, 0, 7, 8, 9, 0, 0, 0]));
        assert_eq!(p.chunks()[0].as_ref().as_ptr(), ptr, "unique overlay must be in place");
        // Gathered source is scattered into place chunk by chunk.
        let src = Payload::concat(&[Payload::from_vec(vec![1]), Payload::from_vec(vec![2, 3])]);
        p.write_at(5, &src);
        assert_eq!(p, Payload::from_vec(vec![0, 0, 7, 8, 9, 1, 2, 3]));
    }

    #[test]
    fn write_at_phantom_degrades() {
        let mut p = Payload::from_vec(vec![1, 2, 3, 4]);
        p.write_at(0, &Payload::Phantom(2));
        assert_eq!(p, Payload::Phantom(4));
        let mut ph = Payload::Phantom(4);
        ph.write_at(0, &Payload::from_vec(vec![1]));
        assert_eq!(ph, Payload::Phantom(4));
    }

    #[test]
    fn as_bytes_flattens_gathers() {
        let cat = Payload::concat(&[Payload::from_vec(vec![1, 2]), Payload::from_vec(vec![3])]);
        assert_eq!(cat.as_bytes().unwrap().to_vec(), vec![1, 2, 3]);
        assert!(Payload::Phantom(3).as_bytes().is_none());
    }


    #[test]
    fn json_roundtrip_flattens_gather() {
        let cat = Payload::concat(&[Payload::from_vec(vec![1, 2]), Payload::from_vec(vec![3])]);
        let back = Payload::from_json(&cat.to_json()).unwrap();
        assert!(matches!(back, Payload::Data(_)));
        assert_eq!(back, cat);
    }
}
