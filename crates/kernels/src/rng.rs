//! The workspace's one pseudo-random generator: `xoshiro256++` seeded
//! through `splitmix64`. Deterministic per seed on every platform; the
//! report goldens pin jittered runs to this exact stream.

/// A seeded `xoshiro256++` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// The stream `seed` names: four `splitmix64` outputs as the state.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 { s: [next(), next(), next(), next()] }
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi]`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_the_reference_xoshiro256_plus_plus() {
        // State {1, 2, 3, 4}: the first outputs of the reference C
        // implementation (Blackman & Vigna).
        let mut rng = Xoshiro256 { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41_943_041);
        assert_eq!(rng.next_u64(), 58_720_359);
        assert_eq!(rng.next_u64(), 3_588_806_011_781_223);
    }

    #[test]
    fn seeds_name_streams_and_draws_stay_in_range() {
        let draws = |seed| {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (0..64).map(|_| rng.uniform(-0.05, 0.05)).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        assert!(draws(7).iter().all(|x| (-0.05..=0.05).contains(x)));
        let mut rng = Xoshiro256::seed_from_u64(0);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&rng.unit())));
    }
}
