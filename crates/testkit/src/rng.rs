//! Deterministic pseudo-random number generation.
//!
//! Two small, well-studied generators, implemented from their reference
//! algorithms (Steele/Lea/Flood's SplitMix64 and Blackman/Vigna's
//! xoshiro256**):
//!
//! * [`SplitMix64`] — a 64-bit state mixer, used to seed and to derive
//!   independent per-case seeds from a master seed;
//! * [`Xoshiro256StarStar`] — the workhorse generator behind the property
//!   and bench harnesses.
//!
//! Both are fully deterministic functions of their seed, which is what the
//! property harness's "rerun with the printed seed" contract rests on.

/// Common interface for the in-tree generators.
pub trait Rng {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `usize` in `[0, bound)`; `bound` must be non-zero.
    ///
    /// Uses 128-bit multiply-shift (Lemire's unbiased-enough reduction for
    /// test workloads; the modulo bias of plain `% bound` is avoided).
    fn gen_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_index bound must be non-zero");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as usize
    }

    /// Uniform `u64` in `[lo, hi)`; the range must be non-empty.
    fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range_u64 needs lo < hi, got {lo}..{hi}");
        let span = hi - lo;
        lo + (((self.next_u64() as u128) * (span as u128)) >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)` (53-bit mantissa resolution).
    fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "gen_range_f64 needs lo < hi, got {lo}..{hi}");
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    /// A fair coin flip.
    fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fill `buf` with random bytes.
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// SplitMix64: one 64-bit word of state, period 2^64.
///
/// Its statistical quality is modest but its *stream-splitting* property is
/// exactly what seed derivation needs: successive outputs are well-decorrelated
/// even for adjacent seeds, so `case_seed = SplitMix64(master).nth(k)` gives
/// independent-looking streams per property case.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: 256 bits of state, period 2^256 − 1, excellent statistical
/// quality for non-cryptographic use. State is initialized from the seed via
/// SplitMix64, as the algorithm's authors recommend (an all-zero state is
/// thereby impossible for any seed).
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Generator whose state is expanded from `seed` with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vectors() {
        // Reference outputs for seed 1234567 from the public-domain
        // reference implementation (Vigna, prng.di.unimi.it).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256StarStar::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256StarStar::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed must give the same stream");
        let c: Vec<u64> = {
            let mut r = Xoshiro256StarStar::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "adjacent seeds must diverge");
    }

    #[test]
    fn gen_index_stays_in_bounds_and_covers() {
        let mut r = Xoshiro256StarStar::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let i = r.gen_index(10);
            assert!(i < 10);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets of a small bound get hit");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Xoshiro256StarStar::new(99);
        for _ in 0..1000 {
            let v = r.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
            let v = r.gen_range_f64(1.0, 2.0);
            assert!((1.0..2.0).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_fills_every_length() {
        let mut r = Xoshiro256StarStar::new(3);
        for len in 0..35 {
            let mut buf = vec![0u8; len];
            r.fill_bytes(&mut buf);
            if len >= 16 {
                assert!(buf.iter().any(|&b| b != 0), "16+ random bytes all zero");
            }
        }
    }
}
