//! Dev-only property-test kit: a seeded draw source and a case runner.
//!
//! A property is a closure over a [`Gen`]; it draws its inputs and
//! asserts with the ordinary `assert!` family. [`check`] runs it for a
//! fixed number of cases whose seeds derive from the test's name, so a
//! run is the same on every machine and two properties never share a
//! stream. When a case panics, the kit prints the case's seed and every
//! value it drew before the panic continues; [`replay`] re-runs exactly
//! that case from the seed. There is no shrinking: keep draws small.

#![warn(missing_docs)]

use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Draw source of one case: a `splitmix64` stream plus a log of what
/// was drawn from it.
pub struct Gen {
    state: u64,
    drawn: Vec<String>,
}

/// A scalar [`Gen::range`] can draw.
pub trait Draw: Copy + Debug {
    /// One value in `lo..hi`, or `lo..=hi` when `inclusive`.
    fn draw(g: &mut Gen, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! int_draw {
    ($($ty:ty),*) => {$(
        impl Draw for $ty {
            fn draw(g: &mut Gen, lo: $ty, hi: $ty, inclusive: bool) -> $ty {
                assert!(lo < hi || (inclusive && lo == hi), "empty range {lo}..{hi}");
                // A span of zero is the whole of `u64`.
                let span = (hi as u64 - lo as u64).wrapping_add(inclusive as u64);
                let offset = if span == 0 { g.bits() } else { g.bits() % span };
                (lo as u64 + offset) as $ty
            }
        }
    )*};
}

macro_rules! float_draw {
    ($($ty:ty),*) => {$(
        impl Draw for $ty {
            fn draw(g: &mut Gen, lo: $ty, hi: $ty, _inclusive: bool) -> $ty {
                assert!(lo <= hi, "empty range {lo}..{hi}");
                // 53 (24 for `f32`) random bits in `[0, 1)`.
                let unit = (g.bits() >> 11) as f64 / (1u64 << 53) as f64;
                (lo as f64 + (hi as f64 - lo as f64) * unit) as $ty
            }
        }
    )*};
}

int_draw!(u8, u32, u64, usize);
float_draw!(f32, f64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed, drawn: Vec::new() }
    }

    /// The stream's next 64 bits (`splitmix64`).
    fn bits(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    fn log<T: Debug>(&mut self, value: T) -> T {
        self.drawn.push(format!("{value:?}"));
        value
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        let bits = self.bits();
        self.log(bits)
    }

    /// Either boolean.
    pub fn bool(&mut self) -> bool {
        let bit = self.bits() & 1 == 1;
        self.log(bit)
    }

    /// Uniform in `lo..hi` or `lo..=hi`.
    pub fn range<T: Draw>(&mut self, range: impl RangeBounds<T>) -> T {
        let (Bound::Included(&lo), end) = (range.start_bound(), range.end_bound()) else {
            panic!("a draw range starts at an included bound");
        };
        let value = match end {
            Bound::Included(&hi) => T::draw(self, lo, hi, true),
            Bound::Excluded(&hi) => T::draw(self, lo, hi, false),
            Bound::Unbounded => panic!("a draw range has an end"),
        };
        self.log(value)
    }

    /// A vector whose length is drawn from `len`, each item by `item`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.range(len);
        (0..len).map(|_| item(self)).collect()
    }

    /// One of `items`.
    pub fn select<T: Clone + Debug>(&mut self, items: &[T]) -> T {
        let at = usize::draw(self, 0, items.len(), false);
        self.log(items[at].clone())
    }

    /// What one of `arms`, picked uniformly, draws.
    pub fn one_of<T>(&mut self, arms: &[&dyn Fn(&mut Gen) -> T]) -> T {
        let at = usize::draw(self, 0, arms.len(), false);
        arms[at](self)
    }

    /// `None` half the time, otherwise what `item` draws.
    pub fn option<T>(&mut self, item: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| item(self))
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `property` on `cases` cases. The case seeds are a function of
/// the calling test's name (the name libtest gives the test's thread)
/// and the case number.
pub fn check(cases: u32, mut property: impl FnMut(&mut Gen)) {
    let thread = std::thread::current();
    // FNV-1a over the name.
    let name = thread.name().unwrap_or("main").bytes();
    let base =
        name.fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3));
    for case in 0..cases as u64 {
        replay(mix(base.wrapping_add(case.wrapping_mul(GOLDEN))), &mut property);
    }
}

/// Runs `property` on the one case `seed` names — the seed a failing
/// [`check`] printed.
pub fn replay(seed: u64, mut property: impl FnMut(&mut Gen)) {
    let mut g = Gen::new(seed);
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
        eprintln!(
            "testkit: case failed; re-run it with testkit::replay({seed:#x}, ..); drew [{}]",
            g.drawn.join(", ")
        );
        resume_unwind(panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(g: &mut Gen) -> (u64, usize, f64, Vec<u8>, Option<u32>, bool) {
        (
            g.u64(),
            g.range(3usize..=5),
            g.range(-1.0f64..1.0),
            g.vec(0..4, |g| g.range(0u8..=255)),
            g.option(|g| g.select(&[7u32, 9])),
            g.one_of(&[&|_: &mut Gen| true, &|g: &mut Gen| g.bool()]),
        )
    }

    #[test]
    fn a_seed_names_one_case_and_draws_stay_in_range() {
        let mut seen = Vec::new();
        check(200, |g| {
            let (_, n, x, bytes, pick, _) = draws(g);
            assert!((3..=5).contains(&n) && (-1.0..1.0).contains(&x) && bytes.len() < 4);
            assert!(pick.is_none_or(|p| p == 7 || p == 9));
            assert_eq!(g.range(u64::MAX..=u64::MAX), u64::MAX);
            seen.push((n, bytes.len(), pick));
        });
        // Every length and both option arms show up within 200 cases.
        for n in 3..=5 {
            assert!(seen.iter().any(|s| s.0 == n));
        }
        assert!(seen.iter().any(|s| s.2.is_none()) && seen.iter().any(|s| s.2 == Some(9)));

        let (mut first, mut second) = (None, None);
        replay(42, |g| first = Some(draws(g)));
        replay(42, |g| second = Some(draws(g)));
        assert_eq!(first, second);
        replay(43, |g| assert_ne!(Some(draws(g)), first));
    }

    #[test]
    fn a_failing_case_panics_with_the_property_s_own_message() {
        let failed = catch_unwind(|| check(50, |g| assert!(g.range(0u32..10) < 5, "drew high")));
        let message = failed.expect_err("some case draws 5 or more");
        assert_eq!(message.downcast_ref::<&str>(), Some(&"drew high"));
    }
}
