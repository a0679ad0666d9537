//! A small freelist pool for block-sized scratch buffers.
//!
//! The parity data path needs short-lived, block-sized mutable scratch:
//! the scrubber's and rebuilder's accumulators, the server's RMW
//! pre-read staging, the cost ledger's fold audit. Allocating
//! those per group puts the allocator on the bandwidth-critical path;
//! the pool hands the same few buffers out repeatedly instead.
//!
//! The pool is only for scratch whose lifetime ends with the operation.
//! A buffer that *escapes* — sent to a server that retains it, returned
//! to the caller — must not be pooled: convert it to an owned
//! `Bytes`/`Payload` instead (see DESIGN.md, "Byte pipeline").

use std::sync::{Arc, Mutex};

/// A freelist of equally-sized scratch buffers.
pub struct BufferPool {
    block_len: usize,
    max_free: usize,
    free: Mutex<Vec<Vec<u8>>>,
    /// Fresh heap allocations performed (buffers created, not reuses).
    allocated: Mutex<usize>,
}

impl BufferPool {
    /// A pool of `block_len`-byte buffers keeping at most `max_free`
    /// idle buffers alive.
    pub fn new(block_len: usize, max_free: usize) -> Arc<Self> {
        Arc::new(Self {
            block_len,
            max_free,
            free: Mutex::new(Vec::new()),
            allocated: Mutex::new(0),
        })
    }

    /// Buffer size this pool serves.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Check out a zeroed buffer; it returns to the pool on drop.
    pub fn get(self: &Arc<Self>) -> PooledBuf {
        let mut buf = match self.free.lock().expect("pool lock").pop() {
            Some(mut b) => {
                b.fill(0);
                b
            }
            None => {
                *self.allocated.lock().expect("pool lock") += 1;
                Vec::new()
            }
        };
        // A fresh (or max_free-overflow-recycled) buffer may be empty.
        buf.resize(self.block_len, 0);
        PooledBuf { buf, pool: Arc::clone(self) }
    }

    /// Idle buffers currently on the freelist.
    pub fn free_count(&self) -> usize {
        self.free.lock().expect("pool lock").len()
    }

    /// Fresh allocations performed over the pool's lifetime. Steady
    /// state is reached when this stops growing.
    pub fn allocations(&self) -> usize {
        *self.allocated.lock().expect("pool lock")
    }

    fn put_back(&self, buf: Vec<u8>) {
        let mut free = self.free.lock().expect("pool lock");
        if free.len() < self.max_free {
            free.push(buf);
        }
        // Otherwise drop: the pool stays small under bursts.
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("block_len", &self.block_len)
            .field("free", &self.free_count())
            .field("allocations", &self.allocations())
            .finish()
    }
}

/// A checked-out scratch buffer; dereferences to `[u8]` and returns to
/// its pool on drop.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<BufferPool>,
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.put_back(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_and_sized() {
        let pool = BufferPool::new(16, 4);
        let mut b = pool.get();
        assert_eq!(&b[..], &[0u8; 16]);
        b[3] = 9;
        drop(b);
        // Reused buffer comes back zeroed.
        let b2 = pool.get();
        assert_eq!(&b2[..], &[0u8; 16]);
    }

    #[test]
    fn steady_state_stops_allocating() {
        let pool = BufferPool::new(64, 2);
        for _ in 0..100 {
            let _a = pool.get();
            let _b = pool.get();
        }
        assert_eq!(pool.allocations(), 2, "two live buffers at a time need two allocations");
        assert_eq!(pool.free_count(), 2);
    }

    #[test]
    fn freelist_is_bounded() {
        let pool = BufferPool::new(8, 1);
        let a = pool.get();
        let b = pool.get();
        let c = pool.get();
        drop(a);
        drop(b);
        drop(c);
        assert_eq!(pool.free_count(), 1, "max_free bounds the idle list");
        assert_eq!(pool.allocations(), 3);
    }
}
