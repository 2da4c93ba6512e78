//! The benchmark's own seeded generator.
//!
//! Workload inputs must be a function of `--seed` alone, and identical
//! wherever the benchmark is built. `rand` cannot give that here: the
//! offline stand-in's stream differs from the published crate's. So the
//! benchmark carries SplitMix64 (<https://prng.di.unimi.it/splitmix64.c>).

/// SplitMix64: one `u64` of state, a bijective output function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁵⁰ for the
    /// small `n` used here and identical on every platform.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `len` lowercase ASCII letters.
    pub fn letters(&mut self, len: usize) -> String {
        (0..len).map(|_| char::from(b'a' + self.below(26) as u8)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // First outputs of the reference C implementation for seed 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn equal_seeds_agree_and_different_seeds_differ() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (r.letters(32), r.range(16, 48), r.unit().to_bits())
        };
        assert_eq!(draw(1994), draw(1994));
        assert_ne!(draw(1994), draw(1995));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!((16..=48).contains(&r.range(16, 48)));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
