//! Offline stand-in for `rand` 0.9: a seedable xoshiro256++ generator
//! behind the `Rng`/`SeedableRng` names the workspace uses. Streams are
//! deterministic per seed but are not the published crate's streams.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    /// xoshiro256++ seeded through splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng { s: [next(), next(), next(), next()] }
    }
}

/// Types `Rng::random` can draw.
pub trait Random {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::random_range` can sample.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<usize> for Range<usize> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + (rng.next_u64() % (self.end - self.start) as u64) as usize
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        lo + (hi - lo) * f64::random(rng)
    }
}

pub trait Rng: RngCore {
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
