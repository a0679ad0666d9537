//! XOR parity kernels for CSAR.
//!
//! The Swift/RAID paper (and §3 of the CSAR paper) report that computing
//! parity one *word* at a time instead of one *byte* at a time was one of
//! the largest single performance improvements in their distributed RAID
//! implementation. On current compilers that gap has closed: LLVM
//! vectorises byte, word and chunked loops alike, so this crate has one
//! safe chunked kernel, plus the higher-level parity operations the
//! redundancy schemes need:
//!
//! * [`xor_into`] — fold one source into an accumulator;
//! * [`ParityAccumulator`] — streaming parity over the blocks of a parity
//!   group;
//! * [`parity_of`] — one-shot parity of a set of equal-length blocks;
//! * [`reconstruct`] — recover a lost block from the surviving members of
//!   its parity group.
//!
//! All kernels are pure and allocation-free over caller-provided buffers.

mod kernels;

mod accumulator;
mod recover;

pub use accumulator::ParityAccumulator;
pub use kernels::xor_into;
pub use recover::reconstruct;

/// Compute the parity of `blocks` (all equal length) into a fresh vector.
///
/// Returns an empty vector when `blocks` is empty.
///
/// # Panics
/// Panics if the blocks are not all the same length.
pub fn parity_of(blocks: &[&[u8]]) -> Vec<u8> {
    let Some(first) = blocks.first() else {
        return Vec::new();
    };
    let mut acc = first.to_vec();
    for b in &blocks[1..] {
        assert_eq!(b.len(), acc.len(), "parity blocks must have equal length");
        xor_into(&mut acc, b);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_of_empty_is_empty() {
        let blocks: [&[u8]; 0] = [];
        assert!(parity_of(&blocks).is_empty());
    }

    #[test]
    fn parity_of_single_block_is_copy() {
        let b = [1u8, 2, 3, 4];
        assert_eq!(parity_of(&[&b]), b);
    }

    #[test]
    fn parity_of_three_blocks() {
        let a = [0b1010_1010u8; 16];
        let b = [0b0101_0101u8; 16];
        let c = [0b1111_0000u8; 16];
        let p = parity_of(&[&a, &b, &c]);
        for byte in p {
            assert_eq!(byte, 0b1010_1010 ^ 0b0101_0101 ^ 0b1111_0000);
        }
    }

    #[test]
    fn parity_is_self_inverse() {
        let a: Vec<u8> = (0..255).collect();
        let b: Vec<u8> = (0..255).rev().collect();
        let p = parity_of(&[&a, &b]);
        // XOR-ing the parity with one block recovers the other.
        let recovered = parity_of(&[&p, &a]);
        assert_eq!(recovered, b);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn parity_of_unequal_lengths_panics() {
        let a = [0u8; 4];
        let b = [0u8; 5];
        parity_of(&[&a[..], &b[..]]);
    }
}
