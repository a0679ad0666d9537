//! The XOR kernel.
//!
//! One safe scalar loop over 64-byte chunks. The Swift/RAID word-vs-byte
//! gap the paper cites has collapsed on current compilers: LLVM
//! vectorises a byte loop, a `u64` loop and this chunked loop alike, and
//! the chunked form measured fastest on small blocks (4–8 KiB) and no
//! slower on larger ones (see EXPERIMENTS.md).

/// XOR `src` into `dst` in 64-byte chunks.
///
/// The fixed-size inner loop lets LLVM vectorise it; on most targets
/// this compiles to SIMD loads/xors/stores.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor buffers must have equal length");
    const CHUNK: usize = 64;
    let mut d_it = dst.chunks_exact_mut(CHUNK);
    let mut s_it = src.chunks_exact(CHUNK);
    for (d, s) in (&mut d_it).zip(&mut s_it) {
        for i in 0..CHUNK {
            d[i] ^= s[i];
        }
    }
    for (d, s) in d_it.into_remainder().iter_mut().zip(s_it.remainder()) {
        *d ^= *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Local SplitMix64 copy: csar-parity is the workspace's root crate
    /// and cannot depend on csar-store, where the canonical one lives.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    fn reference_xor(dst: &[u8], src: &[u8]) -> Vec<u8> {
        dst.iter().zip(src).map(|(a, b)| a ^ b).collect()
    }

    #[test]
    fn empty_buffers_are_fine() {
        let mut dst: Vec<u8> = vec![];
        xor_into(&mut dst, &[]);
        assert!(dst.is_empty());
    }

    #[test]
    fn xor_into_handles_every_alignment_offset() {
        // Slice at every offset 0..8 so the chunk boundaries fall at
        // every alignment of the underlying buffer.
        let backing: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let src: Vec<u8> = (0..128).map(|i| (255 - i) as u8).collect();
        for off in 0..8 {
            let mut dst = backing.clone();
            let want = reference_xor(&dst[off..], &src[off..]);
            xor_into(&mut dst[off..], &src[off..]);
            assert_eq!(&dst[off..], &want[..]);
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut dst = [0u8; 3];
        xor_into(&mut dst, &[0u8; 4]);
    }

    #[test]
    fn xor_into_matches_reference() {
        for case in 0u64..100 {
            let mut rng = Rng(0xD00D + case);
            let len = (rng.next() % 4096) as usize;
            let dst = rng.bytes(len);
            let seed = rng.next();
            let src: Vec<u8> = dst
                .iter()
                .enumerate()
                .map(|(i, _)| (seed.wrapping_mul(i as u64 + 1) >> 32) as u8)
                .collect();
            let want = reference_xor(&dst, &src);
            let mut d = dst.clone();
            xor_into(&mut d, &src);
            assert_eq!(&d, &want, "case {case}");
        }
    }

    #[test]
    fn xor_is_involutive() {
        for case in 0u64..100 {
            let mut rng = Rng(0xF00 + case);
            let len = (rng.next() % 2048) as usize;
            let data = rng.bytes(len);
            let src: Vec<u8> = data.iter().map(|b| b.rotate_left(3)).collect();
            let mut d = data.clone();
            xor_into(&mut d, &src);
            xor_into(&mut d, &src);
            assert_eq!(d, data, "case {case}");
        }
    }
}
