//! Seeded property sweep: the XOR kernel and the streaming accumulator
//! must produce bit-identical parity on awkward shapes: odd lengths and
//! misaligned slices.
//!
//! Hermetic by construction: a fixed-seed SplitMix64 generates the
//! inputs, so every run sweeps the same cases.

use csar_parity::{parity_of, xor_into, ParityAccumulator};

/// Local SplitMix64 (csar-parity is the workspace root crate and cannot
/// depend on csar-store, where the canonical copy lives).
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

/// Assert `xor_into` agrees with the byte-wise reference on `dst ^= src`.
fn check(case: &str, dst: &[u8], src: &[u8]) {
    let want = reference_xor(dst, src);
    let mut d = dst.to_vec();
    xor_into(&mut d, src);
    assert_eq!(d, want, "{case}: xor_into diverged (len {})", dst.len());
}

#[test]
fn odd_lengths() {
    let mut rng = Rng(0x0DD5);
    for len in [0usize, 1, 3, 7, 17, 63, 65, 511, 513, 4095, 4097, 65_537] {
        let dst = rng.bytes(len);
        let src = rng.bytes(len);
        check("odd_lengths", &dst, &src);
    }
}

#[test]
fn misaligned_slices() {
    // Slice both operands at every offset 0..16 (independently), so the
    // chunk loop and its remainder run with every alignment of dst *and*
    // src.
    let mut rng = Rng(0xA119);
    let backing_d = rng.bytes(1024 + 16);
    let backing_s = rng.bytes(1024 + 16);
    for d_off in 0..16 {
        for s_off in [0usize, 1, 5, 8, 13] {
            let len = 1024 - d_off.max(s_off);
            check(
                "misaligned_slices",
                &backing_d[d_off..d_off + len],
                &backing_s[s_off..s_off + len],
            );
        }
    }
}

#[test]
fn accumulator_matches_kernel_fold() {
    let mut rng = Rng(0xACC0);
    for case in 0..40 {
        let len = (rng.next() % 1500 + 1) as usize;
        let n = (rng.next() % 6 + 1) as usize;
        let blocks: Vec<Vec<u8>> = (0..n).map(|_| rng.bytes(len)).collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let want = parity_of(&refs);

        // Streaming accumulator.
        let mut acc = ParityAccumulator::new(len);
        for b in &blocks {
            acc.fold(b);
        }
        assert_eq!(acc.current(), &want[..], "case {case}: accumulator diverged");

        // Manual fold through the kernel.
        let mut out = vec![0u8; len];
        for b in &blocks {
            xor_into(&mut out, b);
        }
        assert_eq!(out, want, "case {case}: kernel fold diverged");
    }
}

#[test]
fn accumulator_partial_folds_match_padded_reference() {
    let mut rng = Rng(0xFADE);
    for case in 0..40 {
        let block_len = (rng.next() % 900 + 100) as usize;
        let mut acc = ParityAccumulator::new(block_len);
        let mut want = vec![0u8; block_len];
        for _ in 0..(rng.next() % 5 + 1) {
            let off = (rng.next() as usize) % block_len;
            let len = (rng.next() as usize) % (block_len - off) + 1;
            let part = rng.bytes(len);
            for (i, b) in part.iter().enumerate() {
                want[off + i] ^= b;
            }
            acc.fold_at(off, &part);
        }
        assert_eq!(acc.current(), &want[..], "case {case}: fold_at diverged");
    }
}
