//! The minimum-image convention of a periodic box, bit for bit what
//! `x - L * (x / L).round()` gives, without the division and the libm
//! `round` on nearly every call.
//!
//! For `|x|` clear of `L/2` and below `3L/2`, the rounded quotient is
//! known from `|x|` alone: `±0` below `L/2`, `±1` above it, with the sign
//! of `x`. Near `L/2`, at or beyond `3L/2`, and for non-finite values or
//! box lengths, [`MinImage::images`] computes the quotient as the
//! expression does. The proof that the two agree is in DESIGN.md §4o.

/// Relative half-width of the band around `L/2`, and relative margin
/// below `3L/2`, in which the fast path declines: `2⁻⁴⁰`.
const BAND: f64 = 1.0 / (1u64 << 40) as f64;

/// `|x| / L` below which the rounded quotient is `±0`.
const ZERO_BELOW: f64 = 0.5 * (1.0 - BAND);

/// `|x| / L` above which (and below [`ONE_BELOW`]) it is `±1`.
const ONE_ABOVE: f64 = 0.5 * (1.0 + BAND);

/// `|x| / L` below which (and above [`ONE_ABOVE`]) it is `±1`.
const ONE_BELOW: f64 = 1.5 * (1.0 - BAND);

/// Box lengths whose cutoffs are normal numbers, each computed with one
/// rounding: `2⁻¹⁰⁰⁰ ≤ L ≤ 2¹⁰⁰⁰`. Any other length takes the fallback.
const LEN_RANGE: std::ops::RangeInclusive<f64> =
    f64::from_bits(0x0170_0000_0000_0000)..=f64::from_bits(0x7E70_0000_0000_0000);

/// The minimum image along one axis of a cubic box of edge `L`.
#[derive(Debug, Clone, Copy)]
pub struct MinImage {
    len: f64,
    /// `|x|` below this has a rounded quotient of `±0`.
    zero_below: f64,
    /// `|x|` strictly between these has a rounded quotient of `±1`.
    one_above: f64,
    one_below: f64,
}

impl MinImage {
    /// The minimum image of a box of edge `box_len`.
    pub fn new(box_len: f64) -> Self {
        // NaN cutoffs make every comparison false: every `x` falls back.
        let cutoff = |c: f64| if LEN_RANGE.contains(&box_len) { c * box_len } else { f64::NAN };
        MinImage {
            len: box_len,
            zero_below: cutoff(ZERO_BELOW),
            one_above: cutoff(ONE_ABOVE),
            one_below: cutoff(ONE_BELOW),
        }
    }

    /// The minimum image of a box of edge `box_len`, or `None` when the
    /// box has no positive extent and distances are left unwrapped.
    pub(crate) fn of_box(box_len: f64) -> Option<Self> {
        (box_len > 0.0).then(|| MinImage::new(box_len))
    }

    /// Whole box lengths in `x`: `(x / L).round()`, bit for bit.
    #[inline]
    pub fn images(&self, x: f64) -> f64 {
        let a = x.abs();
        let r = if a > self.one_above { 1.0f64 } else { 0.0 };
        if a < self.zero_below || (a > self.one_above && a < self.one_below) {
            r.copysign(x)
        } else {
            (x / self.len).round()
        }
    }

    /// `x` shifted into the nearest image: `x - L * (x / L).round()`,
    /// bit for bit.
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        x - self.len * self.images(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoffs_are_exact_in_the_constants() {
        assert_eq!(ZERO_BELOW, 0.5 - 2f64.powi(-41));
        assert_eq!(ONE_ABOVE, 0.5 + 2f64.powi(-41));
        assert_eq!(ONE_BELOW, 1.5 - 1.5 * 2f64.powi(-40));
        assert_eq!(*LEN_RANGE.start(), 2f64.powi(-1000));
        assert_eq!(*LEN_RANGE.end(), 2f64.powi(1000));
    }
}
