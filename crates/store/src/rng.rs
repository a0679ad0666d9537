//! SplitMix64: a tiny, deterministic, seedable PRNG.
//!
//! The std-only replacement for the `rand`/`rand_chacha` crates across
//! the workspace. SplitMix64 (Steele, Lea & Flood 2014) passes BigCrush,
//! has a one-word state, and — unlike a cryptographic generator — makes
//! every test and workload trivially reproducible from its printed seed.
//! Not for cryptographic use.

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded constructor; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[range.start, range.end)`.
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = range.end - range.start;
        // Rejection sampling keeps the draw unbiased.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return range.start + v % span;
            }
        }
    }

    /// Uniform draw from a `usize` range.
    pub fn gen_usize(&mut self, range: core::ops::Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Fill a byte slice with random data.
    pub fn fill_bytes(&mut self, dst: &mut [u8]) {
        for chunk in dst.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7).next_u64()).collect();
        assert!(a.iter().all(|&v| v == a[0]));
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds_and_hit_extremes() {
        let mut rng = SplitMix64::new(42);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.gen_range(10..15);
            assert!((10..15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range should appear");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SplitMix64::new(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
