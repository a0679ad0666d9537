//! The §5.2 write-buffering scheme.
//!
//! PVFS I/O daemons use non-blocking receives: whatever fraction of a
//! write has arrived from the socket is written to the local file
//! immediately. That causes partial file-system-block writes; when the
//! block is not cached, the OS must read it from disk before applying the
//! partial write, collapsing overwrite bandwidth. The paper's fix gives
//! each write connection a small buffer (a multiple of the local FS block
//! size): network data accumulates there and is flushed to the file in
//! whole blocks, while non-blocking receives (network concurrency) are
//! retained.
//!
//! [`WriteBuffer`] is a real implementation of that accumulator. The live
//! cluster uses it when applying chunked transfers; the simulator uses
//! its block-alignment arithmetic (via [`WriteBuffer::partial_edge_blocks`])
//! to decide which blocks of a request would still be written partially
//! even with buffering enabled (only the head/tail edges).

use crate::payload::Payload;

/// A block-aligned flush produced by the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushedBlock {
    /// File offset of the flush.
    pub off: u64,
    /// The data to write (whole blocks, except possibly at stream end).
    pub payload: Payload,
    /// True when the flush does not cover whole file-system blocks and
    /// may therefore require a read-modify-write at the file system.
    pub partial: bool,
}

/// Accumulates an incoming byte stream for a write at `base_off` and
/// releases it in file-system-block-aligned pieces.
#[derive(Debug)]
pub struct WriteBuffer {
    block_size: u64,
    total_len: u64,
    /// Bytes consumed from the stream so far.
    consumed: u64,
    /// Pending (not yet flushed) chunks.
    pending: Vec<Payload>,
    pending_len: u64,
    /// Stream offset (absolute) of the start of `pending`.
    pending_base: u64,
}

impl WriteBuffer {
    /// A buffer for a write of `total_len` bytes at file offset `base_off`,
    /// flushing on `block_size` boundaries.
    ///
    /// # Panics
    /// Panics if `block_size` is zero.
    pub fn new(block_size: u64, base_off: u64, total_len: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            total_len,
            consumed: 0,
            pending: Vec::new(),
            pending_len: 0,
            pending_base: base_off,
        }
    }

    /// Bytes still expected from the network.
    pub fn remaining(&self) -> u64 {
        self.total_len - self.consumed
    }

    /// Feed a network chunk; returns any block-aligned flushes now ready.
    ///
    /// # Panics
    /// Panics if more bytes are fed than the write declared.
    pub fn feed(&mut self, chunk: Payload) -> Vec<FlushedBlock> {
        assert!(
            chunk.len() <= self.remaining(),
            "fed {} bytes but only {} remain",
            chunk.len(),
            self.remaining()
        );
        self.consumed += chunk.len();
        self.pending_len += chunk.len();
        self.pending.push(chunk);

        let mut out = Vec::new();
        let end = self.pending_base + self.pending_len;
        // Highest block boundary at or below `end`.
        let boundary = (end / self.block_size) * self.block_size;
        let done = self.remaining() == 0;
        let flush_to = if done { end } else { boundary };
        if flush_to > self.pending_base {
            let flush_len = flush_to - self.pending_base;
            let all = Payload::concat(&self.pending);
            let payload = all.slice(0, flush_len);
            let rest = all.slice(flush_len, all.len() - flush_len);
            let partial = !self.pending_base.is_multiple_of(self.block_size)
                || (!flush_to.is_multiple_of(self.block_size) && done);
            out.push(FlushedBlock { off: self.pending_base, payload, partial });
            self.pending_base = flush_to;
            self.pending_len = rest.len();
            self.pending = if rest.is_empty() { Vec::new() } else { vec![rest] };
        }
        out
    }

    /// The file-system blocks of `[off, off+len)` that a *buffered* write
    /// still touches partially: at most the head and tail blocks.
    ///
    /// Yields block indices (at `block_size` granularity), head first,
    /// without allocating: the server calls this on every write. This is
    /// what the simulator charges pre-reads for when write buffering is ON
    /// and the file pre-exists uncached; with buffering OFF every block of
    /// the range is at risk (see the simulator's disk model).
    pub fn partial_edge_blocks(block_size: u64, off: u64, len: u64) -> impl Iterator<Item = u64> {
        let (mut head, mut tail) = (None, None);
        if len > 0 {
            let first = off / block_size;
            let last = (off + len - 1) / block_size;
            if !off.is_multiple_of(block_size) {
                head = Some(first);
            }
            if !(off + len).is_multiple_of(block_size) && (head.is_none() || last != first) {
                tail = Some(last);
            }
        }
        head.into_iter().chain(tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(v: &[u8]) -> Payload {
        Payload::from_vec(v.to_vec())
    }

    #[test]
    fn aligned_stream_flushes_whole_blocks() {
        let mut wb = WriteBuffer::new(4, 0, 8);
        assert!(wb.feed(data(&[1, 2])).is_empty());
        let f = wb.feed(data(&[3, 4, 5]));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].off, 0);
        assert_eq!(f[0].payload, data(&[1, 2, 3, 4]));
        assert!(!f[0].partial);
        let f = wb.feed(data(&[6, 7, 8]));
        assert_eq!(f[0].off, 4);
        assert_eq!(f[0].payload, data(&[5, 6, 7, 8]));
        assert!(!f[0].partial);
        assert_eq!(wb.remaining(), 0);
    }

    #[test]
    fn unaligned_head_is_partial_flush() {
        // Write of 6 bytes at offset 2, block size 4: blocks are [2..4), [4..8).
        let mut wb = WriteBuffer::new(4, 2, 6);
        let f = wb.feed(data(&[1, 2, 3, 4, 5, 6]));
        // Everything arrives at once and the stream completes: one flush,
        // head-partial.
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].off, 2);
        assert!(f[0].partial);
    }

    #[test]
    fn tail_partial_only_on_final_flush() {
        let mut wb = WriteBuffer::new(4, 0, 6);
        let f = wb.feed(data(&[1, 2, 3, 4]));
        assert_eq!(f.len(), 1);
        assert!(!f[0].partial);
        let f = wb.feed(data(&[5, 6]));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].off, 4);
        assert_eq!(f[0].payload, data(&[5, 6]));
        assert!(f[0].partial);
    }

    #[test]
    fn tiny_chunks_accumulate_instead_of_flushing() {
        // The §5.2 failure mode: 1-byte receives. With buffering they
        // accumulate into one whole-block flush.
        let mut wb = WriteBuffer::new(4, 0, 4);
        let mut flushes = Vec::new();
        for b in [1u8, 2, 3, 4] {
            flushes.extend(wb.feed(data(&[b])));
        }
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].payload, data(&[1, 2, 3, 4]));
        assert!(!flushes[0].partial);
    }

    #[test]
    fn reassembled_stream_matches_input() {
        let mut wb = WriteBuffer::new(8, 3, 20);
        let input: Vec<u8> = (0..20).collect();
        let mut got: Vec<(u64, Vec<u8>)> = Vec::new();
        for chunk in input.chunks(7) {
            for f in wb.feed(data(chunk)) {
                got.push((f.off, f.payload.as_bytes().unwrap().to_vec()));
            }
        }
        // Flushes are contiguous from base_off and reassemble the input.
        let mut reassembled = Vec::new();
        let mut expect_off = 3;
        for (off, bytes) in got {
            assert_eq!(off, expect_off);
            expect_off += bytes.len() as u64;
            reassembled.extend(bytes);
        }
        assert_eq!(reassembled, input);
    }

    #[test]
    #[should_panic(expected = "remain")]
    fn overfeeding_panics() {
        let mut wb = WriteBuffer::new(4, 0, 2);
        wb.feed(data(&[1, 2, 3]));
    }

    #[test]
    fn partial_edge_blocks_cases() {
        let edges = |off, len| WriteBuffer::partial_edge_blocks(4096, off, len).collect::<Vec<_>>();
        // Fully aligned: no partial blocks.
        assert!(edges(0, 8192).is_empty());
        // Unaligned head only.
        assert_eq!(edges(100, 8092), vec![0]);
        // Unaligned tail only.
        assert_eq!(edges(0, 5000), vec![1]);
        // Both edges.
        assert_eq!(edges(100, 8000), vec![0, 1]);
        // Sub-block write entirely inside one block: one entry, not two.
        assert_eq!(edges(10, 20), vec![0]);
        // Zero length.
        assert!(edges(5, 0).is_empty());
    }
}
