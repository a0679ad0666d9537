//! An LRU model of the I/O server's OS page cache.
//!
//! The CSAR paper's §5.2 and §6 results hinge on page-cache behaviour:
//! reads of cached old data/parity are cheap (Fig. 4b), overwrite of an
//! uncached file forces pre-reads from disk (Figs. 6b/7b), sub-block
//! writes of uncached blocks force a block read before the write (§5.2),
//! and RAID1's doubled write volume overflows the caches for BTIO Class C
//! (Fig. 7a). This model tracks *which* 4 KB blocks are resident, so the
//! simulator can classify each access; timing is charged by the simulator.
//!
//! Every server request passes through it, block by block, so a touch is
//! O(1): one probe of a hash index into a slab of nodes, plus relinking
//! the node at the most-recent end of an intrusive doubly linked list.

use crate::local::StreamKind;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies one local file in the cache: `(file handle, stream)`.
pub type FileKey = (u64, StreamKind);

/// One cached block: `(file, block index)`.
type BlockKey = (FileKey, u64);

/// A multiplicative word hasher in the style of rustc's FxHash. The keys
/// are small integers from this program's own clients (the transport is
/// in-process), so SipHash's flood resistance buys nothing here and
/// costs most of a probe. A server facing untrusted clients over a
/// network would need it back: colliding block indices are easy to pick.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    // `StreamKind`'s derived `Hash` writes its discriminant as an isize.
    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The product's best-mixed bits are its high ones; the table
        // indexes buckets by the low ones.
        self.0.rotate_left(26)
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// End of the recency list.
const NIL: usize = usize::MAX;

/// A slab slot: one resident block and its recency-list neighbours.
#[derive(Debug, Clone)]
struct Node {
    key: BlockKey,
    /// Next older block, or [`NIL`].
    prev: usize,
    /// Next newer block, or [`NIL`].
    next: usize,
}

/// What one probe of a block found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// Resident.
    Hit,
    /// Absent, and now loaded.
    Loaded,
    /// Absent, and left absent.
    Skipped,
}

/// Outcome of classifying a range access against the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeAccess {
    /// Blocks found resident.
    pub hit_blocks: u64,
    /// Blocks that had to come from disk (now resident).
    pub miss_blocks: u64,
    /// Blocks loaded *ahead* of the request by sequential readahead
    /// (also from disk, also now resident). Zero unless readahead is
    /// enabled and the access continued a sequential stream.
    pub prefetched_blocks: u64,
}

impl RangeAccess {
    /// Total blocks the request itself touched (excludes readahead).
    pub fn total(&self) -> u64 {
        self.hit_blocks + self.miss_blocks
    }
}

/// LRU block cache model.
#[derive(Debug, Clone)]
pub struct CacheModel {
    block_size: u64,
    capacity_blocks: u64,
    /// (file, block index) → its slot in `nodes`.
    index: FxHashMap<BlockKey, usize>,
    /// Slab of resident blocks, linked from least to most recently used.
    nodes: Vec<Node>,
    /// Slots of `nodes` whose block was evicted, reused before the slab
    /// grows.
    free: Vec<usize>,
    /// Least recently used slot (the next eviction), or [`NIL`].
    lru: usize,
    /// Most recently used slot, or [`NIL`].
    mru: usize,
    /// Blocks to prefetch past a sequential read (0 = readahead off).
    readahead_blocks: u64,
    /// Per-stream sequential-read detector: next expected block index.
    streams: FxHashMap<FileKey, u64>,
}

impl CacheModel {
    /// A cache of `capacity_bytes` with `block_size`-byte blocks.
    ///
    /// # Panics
    /// Panics if `block_size` is zero.
    pub fn new(block_size: u64, capacity_bytes: u64) -> Self {
        assert!(block_size > 0, "cache block size must be positive");
        Self {
            block_size,
            capacity_blocks: (capacity_bytes / block_size).max(1),
            index: FxHashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            lru: NIL,
            mru: NIL,
            readahead_blocks: 0,
            streams: FxHashMap::default(),
        }
    }

    /// Enable sequential readahead: a read that starts exactly where the
    /// previous read of the same stream ended prefetches up to `blocks`
    /// further blocks. `0` (the default) disables readahead, keeping the
    /// model bit-identical to the paper-reproduction configuration.
    pub fn set_readahead(&mut self, blocks: u64) {
        self.readahead_blocks = blocks;
    }

    /// An effectively unbounded cache (everything stays resident).
    pub fn unbounded(block_size: u64) -> Self {
        Self::new(block_size, u64::MAX / 2)
    }

    /// The modelled file-system block size.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Resident blocks.
    pub fn resident_blocks(&self) -> u64 {
        self.index.len() as u64
    }

    /// Resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_blocks() * self.block_size
    }

    fn block_range(&self, off: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        let first = off / self.block_size;
        let last = (off + len - 1) / self.block_size;
        first..last + 1
    }

    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        match prev {
            NIL => self.lru = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_mru(&mut self, i: usize) {
        self.nodes[i].prev = self.mru;
        self.nodes[i].next = NIL;
        match self.mru {
            NIL => self.lru = i,
            m => self.nodes[m].next = i,
        }
        self.mru = i;
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        self.index.remove(&self.nodes[i].key);
        self.free.push(i);
    }

    /// Look `key` up once. A resident block becomes the most recently
    /// used if `promote`. An absent one is loaded as the most recently
    /// used — evicting the least recently used past capacity — if
    /// `load()` says so, and is otherwise left absent.
    fn probe(&mut self, key: BlockKey, promote: bool, load: impl FnOnce() -> bool) -> Probe {
        match self.index.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get();
                if promote && i != self.mru {
                    self.unlink(i);
                    self.push_mru(i);
                }
                Probe::Hit
            }
            Entry::Vacant(e) => {
                if !load() {
                    return Probe::Skipped;
                }
                let node = Node { key, prev: NIL, next: NIL };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.nodes[i] = node;
                        i
                    }
                    None => {
                        self.nodes.push(node);
                        self.nodes.len() - 1
                    }
                };
                e.insert(i);
                self.push_mru(i);
                // Capacity is at least one block, so this never evicts
                // the block just loaded.
                if self.index.len() as u64 > self.capacity_blocks {
                    self.remove(self.lru);
                }
                Probe::Loaded
            }
        }
    }

    /// Sequential readahead after a read of the blocks `range`: if the
    /// read continued its stream, load up to `readahead_blocks` absent
    /// blocks past it, never at or past `eof` bytes. Returns how many
    /// were loaded.
    fn read_ahead(&mut self, key: FileKey, range: std::ops::Range<u64>, eof: u64) -> u64 {
        if self.readahead_blocks == 0 {
            return 0;
        }
        let mut prefetched = 0;
        if self.streams.get(&key) == Some(&range.start) {
            let eof_block = eof.div_ceil(self.block_size);
            let stop = range.end.saturating_add(self.readahead_blocks).min(eof_block);
            for blk in range.end..stop {
                if self.probe((key, blk), false, || true) == Probe::Loaded {
                    prefetched += 1;
                }
            }
        }
        self.streams.insert(key, range.end);
        prefetched
    }

    /// Classify a *read* of `[off, off+len)`: hits stay resident, misses
    /// are loaded (counted as disk blocks) and become resident.
    pub fn read_range(&mut self, key: FileKey, off: u64, len: u64) -> RangeAccess {
        self.read_range_bounded(key, off, len, u64::MAX)
    }

    /// [`read_range`](Self::read_range) with readahead clamped to `eof`:
    /// blocks starting at or past `eof` bytes are never prefetched
    /// (prefetching past the stored stream would fabricate disk traffic
    /// the real file system could not issue). The request itself is not
    /// clamped — callers already bound it.
    pub fn read_range_bounded(&mut self, key: FileKey, off: u64, len: u64, eof: u64) -> RangeAccess {
        let mut acc = RangeAccess::default();
        let range = self.block_range(off, len);
        for blk in range.clone() {
            match self.probe((key, blk), true, || true) {
                Probe::Hit => acc.hit_blocks += 1,
                _ => acc.miss_blocks += 1,
            }
        }
        if len > 0 {
            acc.prefetched_blocks = self.read_ahead(key, range, eof);
        }
        acc
    }

    /// [`read_range_bounded`](Self::read_range_bounded) of the one block
    /// `blk`, for a caller that knows where the holes are: an absent
    /// block is loaded (a miss) only if `on_disk()` says it holds data.
    /// An absent hole reads as zeros without touching the disk, so
    /// nothing becomes resident, the readahead detector does not move,
    /// and the result is `None`. One hash probe decides all three cases.
    pub fn read_block_bounded(
        &mut self,
        key: FileKey,
        blk: u64,
        eof: u64,
        on_disk: impl FnOnce() -> bool,
    ) -> Option<RangeAccess> {
        let mut acc = RangeAccess::default();
        match self.probe((key, blk), true, on_disk) {
            Probe::Hit => acc.hit_blocks = 1,
            Probe::Loaded => acc.miss_blocks = 1,
            Probe::Skipped => return None,
        }
        acc.prefetched_blocks = self.read_ahead(key, blk..blk + 1, eof);
        Some(acc)
    }

    /// Record a *write* of `[off, off+len)`: written blocks become
    /// resident (dirty pages in the page cache).
    pub fn write_range(&mut self, key: FileKey, off: u64, len: u64) {
        for blk in self.block_range(off, len) {
            self.probe((key, blk), true, || true);
        }
    }

    /// Is the whole range resident? Does not touch LRU order.
    pub fn is_range_cached(&self, key: FileKey, off: u64, len: u64) -> bool {
        self.block_range(off, len).all(|blk| self.contains_block(key, blk))
    }

    /// Is one block resident? Does not touch LRU order.
    pub fn contains_block(&self, key: FileKey, blk: u64) -> bool {
        self.index.contains_key(&(key, blk))
    }

    /// Drop every resident block of every stream of file `fh` — models
    /// "after its contents have been removed from the cache" in the
    /// paper's overwrite experiments.
    pub fn evict_file(&mut self, fh: u64) {
        let mut i = self.lru;
        while i != NIL {
            let next = self.nodes[i].next;
            if self.nodes[i].key.0 .0 == fh {
                self.remove(i);
            }
            i = next;
        }
        self.streams.retain(|(handle, _), _| *handle != fh);
    }

    /// Drop everything.
    pub fn evict_all(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.free.clear();
        self.lru = NIL;
        self.mru = NIL;
        self.streams.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    const DATA: StreamKind = StreamKind::Data;

    impl CacheModel {
        /// Resident blocks, least recently used first.
        fn recency(&self) -> Vec<BlockKey> {
            let mut order = Vec::new();
            let mut i = self.lru;
            while i != NIL {
                order.push(self.nodes[i].key);
                i = self.nodes[i].next;
            }
            order
        }
    }

    /// The O(n) LRU the slab model must agree with: resident blocks in a
    /// `Vec`, least recently used first, searched linearly.
    struct Reference {
        block_size: u64,
        capacity: usize,
        order: Vec<BlockKey>,
        readahead: u64,
        streams: Vec<(FileKey, u64)>,
        /// Sequential reads whose readahead `eof` cut short, and blocks
        /// prefetched: the test asserts both paths ran.
        clamped: u64,
        prefetched: u64,
    }

    impl Reference {
        fn new(block_size: u64, capacity_blocks: usize) -> Self {
            Self {
                block_size,
                capacity: capacity_blocks,
                order: Vec::new(),
                readahead: 0,
                streams: Vec::new(),
                clamped: 0,
                prefetched: 0,
            }
        }

        fn contains(&self, key: BlockKey) -> bool {
            self.order.contains(&key)
        }

        fn touch(&mut self, key: BlockKey) -> bool {
            let hit = match self.order.iter().position(|k| *k == key) {
                Some(p) => {
                    self.order.remove(p);
                    true
                }
                None => false,
            };
            self.order.push(key);
            if self.order.len() > self.capacity {
                self.order.remove(0);
            }
            hit
        }

        fn read(&mut self, key: FileKey, off: u64, len: u64, eof: u64) -> RangeAccess {
            let mut acc = RangeAccess::default();
            if len == 0 {
                return acc;
            }
            let (start, end) = (off / self.block_size, (off + len - 1) / self.block_size + 1);
            for blk in start..end {
                if self.touch((key, blk)) {
                    acc.hit_blocks += 1;
                } else {
                    acc.miss_blocks += 1;
                }
            }
            if self.readahead > 0 {
                let at = self.streams.iter().position(|(k, _)| *k == key);
                if at.is_some_and(|p| self.streams[p].1 == start) {
                    let stop = end.saturating_add(self.readahead).min(eof.div_ceil(self.block_size));
                    self.clamped += u64::from(stop < end + self.readahead);
                    for blk in end..stop {
                        if !self.contains((key, blk)) {
                            self.touch((key, blk));
                            acc.prefetched_blocks += 1;
                        }
                    }
                    self.prefetched += acc.prefetched_blocks;
                }
                match at {
                    Some(p) => self.streams[p].1 = end,
                    None => self.streams.push((key, end)),
                }
            }
            acc
        }

        fn read_block(&mut self, key: FileKey, blk: u64, eof: u64, on_disk: bool) -> Option<RangeAccess> {
            (on_disk || self.contains((key, blk))).then(|| self.read(key, blk * self.block_size, 1, eof))
        }

        fn write(&mut self, key: FileKey, off: u64, len: u64) {
            if len > 0 {
                for blk in off / self.block_size..(off + len - 1) / self.block_size + 1 {
                    self.touch((key, blk));
                }
            }
        }

        fn evict_file(&mut self, fh: u64) {
            self.order.retain(|((handle, _), _)| *handle != fh);
            self.streams.retain(|((handle, _), _)| *handle != fh);
        }

        fn evict_all(&mut self) {
            self.order.clear();
            self.streams.clear();
        }
    }

    #[test]
    fn matches_the_reference_lru_on_random_call_sequences() {
        const BS: u64 = 4096;
        const STREAMS: [StreamKind; 3] = [StreamKind::Data, StreamKind::Parity, StreamKind::Mirror];
        let (mut clamped, mut prefetched) = (0, 0);
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(seed);
            let capacity = if seed % 8 == 7 { 32 } else { 1 + rng.gen_usize(0..8) };
            let files = 2 + rng.gen_range(0..3);
            let mut model = CacheModel::new(BS, capacity as u64 * BS + rng.gen_range(0..BS));
            let mut reference = Reference::new(BS, capacity);
            // Every block any call may reach: requests stay below block
            // 16 and readahead adds at most 4 past them.
            let universe: Vec<BlockKey> = (1..=files)
                .flat_map(|fh| STREAMS.iter().flat_map(move |&st| (0..24).map(move |blk| ((fh, st), blk))))
                .collect();
            for step in 0..500 {
                let key = (1 + rng.gen_range(0..files), STREAMS[rng.gen_usize(0..STREAMS.len())]);
                let off = rng.gen_range(0..12) * BS + rng.gen_range(0..2) * rng.gen_range(0..BS);
                let len = rng.gen_range(0..3) * BS + rng.gen_range(0..2) * rng.gen_range(0..BS);
                let eof = match rng.gen_range(0..3) {
                    0 => u64::MAX,
                    _ => rng.gen_range(0..18 * BS),
                };
                let ctx = format!("seed {seed} step {step} key {key:?} off {off} len {len} eof {eof}");
                match rng.gen_range(0..100) {
                    0..=29 => assert_eq!(
                        model.read_range_bounded(key, off, len, eof),
                        reference.read(key, off, len, eof),
                        "{ctx}"
                    ),
                    30..=49 => {
                        let (blk, on_disk) = (off / BS, rng.gen_bool(0.5));
                        assert_eq!(
                            model.read_block_bounded(key, blk, eof, || on_disk),
                            reference.read_block(key, blk, eof, on_disk),
                            "{ctx}"
                        );
                    }
                    50..=84 => {
                        model.write_range(key, off, len);
                        reference.write(key, off, len);
                    }
                    85..=89 => {
                        model.evict_file(key.0);
                        reference.evict_file(key.0);
                    }
                    90..=91 => {
                        model.evict_all();
                        reference.evict_all();
                    }
                    _ => {
                        let blocks = rng.gen_range(0..5);
                        model.set_readahead(blocks);
                        reference.readahead = blocks;
                    }
                }
                assert_eq!(model.resident_blocks(), reference.order.len() as u64, "{ctx}");
                assert_eq!(model.recency(), reference.order, "{ctx}");
                for &(k, blk) in &universe {
                    assert_eq!(model.contains_block(k, blk), reference.contains((k, blk)), "{ctx}");
                }
            }
            clamped += reference.clamped;
            prefetched += reference.prefetched;
        }
        assert!(clamped > 0 && prefetched > 0, "readahead ran {prefetched} blocks, {clamped} clamped by EOF");
    }

    #[test]
    fn cold_read_is_all_misses_then_hits() {
        let mut c = CacheModel::new(4096, 1 << 20);
        let a = c.read_range((1, DATA), 0, 8192);
        assert_eq!(a, RangeAccess { hit_blocks: 0, miss_blocks: 2, prefetched_blocks: 0 });
        let b = c.read_range((1, DATA), 0, 8192);
        assert_eq!(b, RangeAccess { hit_blocks: 2, miss_blocks: 0, prefetched_blocks: 0 });
    }

    #[test]
    fn block_range_straddles_boundaries() {
        let mut c = CacheModel::new(4096, 1 << 20);
        // 1 byte in block 0 plus 1 byte in block 1.
        let a = c.read_range((1, DATA), 4095, 2);
        assert_eq!(a.total(), 2);
        // Zero-length touches nothing.
        assert_eq!(c.read_range((1, DATA), 0, 0).total(), 0);
    }

    #[test]
    fn writes_populate_cache() {
        let mut c = CacheModel::new(4096, 1 << 20);
        c.write_range((1, DATA), 0, 4096 * 3);
        assert!(c.is_range_cached((1, DATA), 0, 4096 * 3));
        let a = c.read_range((1, DATA), 0, 4096 * 3);
        assert_eq!(a.miss_blocks, 0);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = CacheModel::new(4096, 4096 * 2); // 2 blocks
        c.write_range((1, DATA), 0, 4096); // blk 0
        c.write_range((1, DATA), 4096, 4096); // blk 1
        c.read_range((1, DATA), 0, 1); // touch blk 0 (now newest)
        c.write_range((1, DATA), 8192, 4096); // blk 2 evicts blk 1
        assert!(c.contains_block((1, DATA), 0));
        assert!(!c.contains_block((1, DATA), 1));
        assert!(c.contains_block((1, DATA), 2));
        assert_eq!(c.resident_blocks(), 2);
    }

    #[test]
    fn streams_are_distinct_keys() {
        let mut c = CacheModel::new(4096, 1 << 20);
        c.write_range((1, StreamKind::Data), 0, 4096);
        assert!(!c.is_range_cached((1, StreamKind::Parity), 0, 4096));
    }

    #[test]
    fn evict_file_drops_all_streams_of_that_file_only() {
        let mut c = CacheModel::new(4096, 1 << 20);
        c.write_range((1, StreamKind::Data), 0, 4096);
        c.write_range((1, StreamKind::Parity), 0, 4096);
        c.write_range((2, StreamKind::Data), 0, 4096);
        c.evict_file(1);
        assert!(!c.contains_block((1, StreamKind::Data), 0));
        assert!(!c.contains_block((1, StreamKind::Parity), 0));
        assert!(c.contains_block((2, StreamKind::Data), 0));
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut c = CacheModel::unbounded(4096);
        for i in 0..10_000u64 {
            c.write_range((1, DATA), i * 4096, 4096);
        }
        assert_eq!(c.resident_blocks(), 10_000);
    }

    #[test]
    fn readahead_prefetches_only_on_sequential_streams() {
        let mut c = CacheModel::new(4096, 1 << 20);
        c.set_readahead(4);
        // First read of the stream: not yet sequential, no prefetch.
        let a = c.read_range((1, DATA), 0, 8192);
        assert_eq!(a, RangeAccess { hit_blocks: 0, miss_blocks: 2, prefetched_blocks: 0 });
        // Continuation: prefetch kicks in past the requested range.
        let b = c.read_range((1, DATA), 8192, 8192);
        assert_eq!(b, RangeAccess { hit_blocks: 0, miss_blocks: 2, prefetched_blocks: 4 });
        // The prefetched blocks now hit without further disk traffic.
        let d = c.read_range((1, DATA), 16384, 16384);
        assert_eq!(d.miss_blocks, 0);
        assert_eq!(d.hit_blocks, 4);
        // A random (non-adjacent) read never prefetches.
        let r = c.read_range((1, DATA), 4096 * 100, 4096);
        assert_eq!(r.prefetched_blocks, 0);
    }

    #[test]
    fn readahead_respects_eof_bound() {
        let mut c = CacheModel::new(4096, 1 << 20);
        c.set_readahead(8);
        c.read_range_bounded((1, DATA), 0, 4096, 4096 * 3);
        let b = c.read_range_bounded((1, DATA), 4096, 4096, 4096 * 3);
        assert_eq!(b.prefetched_blocks, 1, "only one block remains before EOF");
    }

    #[test]
    fn readahead_off_by_default_and_streams_reset_on_eviction() {
        let mut c = CacheModel::new(4096, 1 << 20);
        let a = c.read_range((1, DATA), 0, 4096);
        let b = c.read_range((1, DATA), 4096, 4096);
        assert_eq!(a.prefetched_blocks + b.prefetched_blocks, 0);
        c.set_readahead(2);
        c.read_range((1, DATA), 8192, 4096);
        c.evict_file(1);
        // The stream tracker was dropped with the file: the next read is
        // treated as a fresh (non-sequential) access.
        let d = c.read_range((1, DATA), 12288, 4096);
        assert_eq!(d.prefetched_blocks, 0);
    }
}
