//! Streaming parity accumulation over the blocks of a parity group.

use crate::kernels::xor_into;

/// Accumulates the XOR of a sequence of equal-length blocks.
///
/// Blocks are folded in as they arrive, without materialising the
/// whole group twice. The benchmark's `parity.fold_us_per_group` layer
/// and the cost ledger's fold audit time it.
///
/// ```
/// use csar_parity::ParityAccumulator;
/// let mut acc = ParityAccumulator::new(4);
/// acc.fold(&[1, 2, 3, 4]);
/// acc.fold(&[4, 3, 2, 1]);
/// assert_eq!(acc.finish(), vec![5, 1, 1, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct ParityAccumulator {
    buf: Vec<u8>,
    folded: usize,
}

impl ParityAccumulator {
    /// Create an accumulator for blocks of `block_len` bytes.
    pub fn new(block_len: usize) -> Self {
        Self { buf: vec![0u8; block_len], folded: 0 }
    }

    /// Length of the blocks this accumulator accepts.
    pub fn block_len(&self) -> usize {
        self.buf.len()
    }

    /// Number of blocks folded so far.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// XOR `block` into the accumulator.
    ///
    /// # Panics
    /// Panics if `block.len() != self.block_len()`.
    pub fn fold(&mut self, block: &[u8]) {
        assert_eq!(block.len(), self.buf.len(), "block length mismatch in parity fold");
        xor_into(&mut self.buf, block);
        self.folded += 1;
    }

    /// XOR a *partial* block into the accumulator at `offset`.
    ///
    /// Bytes outside `[offset, offset + part.len())` are treated as zero,
    /// which is exactly the semantics needed when a group member arrives
    /// in chunks, or only partly exists (a tail group's missing bytes
    /// read as zeros).
    ///
    /// # Panics
    /// Panics if the range exceeds the block length.
    pub fn fold_at(&mut self, offset: usize, part: &[u8]) {
        assert!(
            offset + part.len() <= self.buf.len(),
            "partial fold out of range: {}+{} > {}",
            offset,
            part.len(),
            self.buf.len()
        );
        xor_into(&mut self.buf[offset..offset + part.len()], part);
        self.folded += 1;
    }

    /// Clear back to all-zero so the accumulator can fold the next group.
    ///
    /// Reuses the existing buffer: no allocation, which is what lets a
    /// long run of whole-group parity computations reach zero steady-state
    /// heap traffic.
    pub fn reset(&mut self) {
        self.buf.fill(0);
        self.folded = 0;
    }

    /// [`reset`](Self::reset) to a (possibly different) block length.
    ///
    /// Reuses the buffer's capacity; only grows the allocation when
    /// `block_len` exceeds every length seen so far.
    pub fn reset_to(&mut self, block_len: usize) {
        self.buf.clear();
        self.buf.resize(block_len, 0);
        self.folded = 0;
    }

    /// Read the current parity without consuming the accumulator.
    pub fn current(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the accumulator, returning the parity block.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity_of;

    #[test]
    fn matches_one_shot_parity() {
        let blocks: Vec<Vec<u8>> = (0u8..5)
            .map(|k| (0..32).map(|i| (i as u8).wrapping_mul(k + 1)).collect())
            .collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let want = parity_of(&refs);

        let mut acc = ParityAccumulator::new(32);
        for b in &blocks {
            acc.fold(b);
        }
        assert_eq!(acc.folded(), 5);
        assert_eq!(acc.finish(), want);
    }

    #[test]
    fn zero_blocks_gives_zero_parity() {
        let acc = ParityAccumulator::new(8);
        assert_eq!(acc.finish(), vec![0u8; 8]);
    }

    #[test]
    fn fold_at_is_zero_padded_fold() {
        let mut acc = ParityAccumulator::new(8);
        acc.fold_at(2, &[0xff, 0xff]);
        assert_eq!(acc.current(), &[0, 0, 0xff, 0xff, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fold_at_past_end_panics() {
        let mut acc = ParityAccumulator::new(4);
        acc.fold_at(3, &[1, 2]);
    }

    #[test]
    fn reset_reuses_the_buffer() {
        let mut acc = ParityAccumulator::new(8);
        acc.fold(&[0xffu8; 8]);
        let before = acc.current().as_ptr();
        acc.reset();
        assert_eq!(acc.folded(), 0);
        assert_eq!(acc.current(), &[0u8; 8]);
        assert_eq!(acc.current().as_ptr(), before, "reset must not reallocate");
    }

    #[test]
    fn reset_to_shrinks_without_realloc() {
        let mut acc = ParityAccumulator::new(16);
        acc.fold(&[1u8; 16]);
        let before = acc.current().as_ptr();
        acc.reset_to(8);
        assert_eq!(acc.block_len(), 8);
        assert_eq!(acc.current(), &[0u8; 8]);
        assert_eq!(acc.current().as_ptr(), before, "shrinking reset must reuse capacity");
        acc.fold(&[3u8; 8]);
        assert_eq!(acc.current(), &[3u8; 8]);
    }
}
