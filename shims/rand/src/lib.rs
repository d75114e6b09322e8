//! Offline shim for the `rand` crate.
//!
//! Provides [`Rng`] / [`SeedableRng`] and [`rngs::StdRng`] with the methods
//! the workspace generators use: `gen::<f64>()`, `gen::<bool>()`, integer
//! draws, and `gen_range` over half-open and inclusive integer ranges.
//!
//! `StdRng` here is xoshiro256** seeded through SplitMix64. The bit streams
//! do **not** match upstream `rand 0.8` (the workspace only relies on
//! determinism per seed and reasonable uniformity, both of which hold), so
//! seeded data sets are stable across runs of this repo but would change if
//! the real crate were restored.

use std::ops::{Range, RangeInclusive};

/// Seedable generator constructor, like `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core + convenience random methods, like `rand::Rng`.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Draw a value of a supported type (`f64` in [0,1), full-range ints,
    /// `bool`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draw uniformly from an integer range; panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

/// Types drawable via [`Rng::gen`], like `rand::distributions::Standard`.
pub trait Standard {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample<R: Rng>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (uniform_u64(rng, span) as $t)
            }
        }

        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    // Full-width range: every u64 is a valid draw.
                    return rng.next_u64() as $t;
                }
                lo + (uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_range!(u16, u32, u64, usize);

/// Uniform draw in `[0, span)` using Lemire-style rejection to avoid modulo
/// bias.
fn uniform_u64<R: Rng>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256** generator (see module docs for the caveat
    /// that streams differ from upstream `StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the standard way to seed xoshiro.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl Rng for StdRng {
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.gen_range(0usize..5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..=4);
            assert!(v == 3 || v == 4);
        }
        assert_eq!(rng.gen_range(9u64..10), 9);
        assert_eq!(rng.gen_range(5usize..=5), 5);
    }

    #[test]
    fn uniformity_rough() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buckets = [0u32; 16];
        let n = 160_000;
        for _ in 0..n {
            buckets[rng.gen_range(0usize..16)] += 1;
        }
        let expect = n as f64 / 16.0;
        for (i, &b) in buckets.iter().enumerate() {
            let ratio = b as f64 / expect;
            assert!(
                (0.95..1.05).contains(&ratio),
                "bucket {i} ratio {ratio} outside 5%"
            );
        }
    }
}
