//! Offline stand-in for `rand` 0.8: `StdRng`, `SeedableRng::seed_from_u64`
//! and `Rng::{gen_range, gen_bool}` over a SplitMix64 stream. The
//! stream differs from upstream's ChaCha12, so seeded values differ; the
//! benchmark itself never draws from this crate (it carries its own
//! generator), only the workspace's simulation code does.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Source of random `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a function of `seed` alone.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Generators.
pub mod rngs {
    /// The standard seeded generator (SplitMix64 here).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(pub(crate) u64);
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng(seed)
    }
}

impl RngCore for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Types `gen_range` can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform in `[low, high)`.
    fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_through<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128;
                (low as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
            fn sample_through<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128 + 1;
                (low as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
        low + (high - low) * unit_f64(rng)
    }
    fn sample_through<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
        low + (high - low) * unit_f64(rng)
    }
}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Range shapes accepted by `gen_range`. One blanket impl per shape, so
/// untyped integer literals infer from the call site.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_below(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_through(rng, *self.start(), *self.end())
    }
}

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
