//! Property test of the exact minimum-image helper: for every box length
//! and every displacement, `MinImage::images` is `(x / L).round()` and
//! `MinImage::apply` is `x - L * (x / L).round()`, bit for bit.
//!
//! Box lengths span the whole exponent range, subnormal and near-overflow
//! ones included, plus the edges of the MD lattices and lengths that must
//! always take the fallback (zero, negative, infinite, NaN). Displacements
//! come from where a shortcut could go wrong: the ±64-ulp neighbourhoods
//! of `±L/2` and `±3L/2`, signed zeros, subnormals, `±2⁵²`, infinities
//! and NaN, and uniformly from `(−2L, 2L)`.
//!
//! `apply` is also odd: `apply(−x)` is `−apply(x)` bit for bit, except
//! that an image of zero is `+0` from both sides (`apply(L)` and
//! `apply(−L)` are both `+0`). The force loop's once-per-pair evaluation
//! rests on this (DESIGN.md §4o). A NaN image (zero, infinite or NaN box)
//! has no sign to keep and is left out.

use kernels::md::MinImage;
use testkit::{check, Gen};

/// A box length: any finite positive exponent (subnormal included) and
/// mantissa, the edge of a lattice the MD engine and the analysis kernels
/// actually see (`f64`, and the frame's `f32` rounded back), or one
/// outside the fast path's range.
fn box_len(g: &mut Gen) -> f64 {
    g.one_of(&[
        &|g: &mut Gen| {
            let exponent = g.range(0u64..=2046);
            let mantissa = g.range(0u64..(1 << 52));
            f64::from_bits(exponent << 52 | mantissa).max(f64::from_bits(1))
        },
        &|g: &mut Gen| g.range(0.5f64..64.0),
        &|g: &mut Gen| {
            let side = g.range(1u64..=12) as f64;
            let len = (side * side * side / g.select(&[0.5, 0.8, 0.9])).cbrt();
            if g.bool() {
                len as f32 as f64
            } else {
                len
            }
        },
        &|g: &mut Gen| g.select(&[0.0, -2.5, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY, f64::NAN]),
    ])
}

/// `c` moved `k` ulps, clamped into the positive finite numbers.
fn ulps_from(c: f64, k: i64) -> f64 {
    let bits = (c.to_bits() as i64 + k).clamp(1, f64::MAX.to_bits() as i64);
    f64::from_bits(bits as u64)
}

/// A displacement to try against a box of edge `len`.
fn displacement(g: &mut Gen, len: f64) -> f64 {
    let x = g.one_of(&[
        &|g: &mut Gen| ulps_from(0.5 * len, g.range(0u64..=128) as i64 - 64),
        &|g: &mut Gen| ulps_from(1.5 * len, g.range(0u64..=128) as i64 - 64),
        &|g: &mut Gen| g.range(-2.0f64..2.0) * len,
        &|g: &mut Gen| g.range(0.0f64..0.5) * len,
        &|g: &mut Gen| g.range(0.5f64..1.5) * len,
        &|g: &mut Gen| f64::from_bits(g.range(0u64..(1 << 52))),
        &|g: &mut Gen| g.select(&[0.0, 2f64.powi(52), f64::INFINITY, f64::NAN]),
    ]);
    if g.bool() {
        -x
    } else {
        x
    }
}

#[test]
fn images_and_apply_equal_the_rounding_expression_bit_for_bit() {
    check(4000, |g| {
        let len = box_len(g);
        let image = MinImage::new(len);
        for _ in 0..16 {
            let x = displacement(g, len);
            let r = (x / len).round();
            assert_eq!(image.images(x).to_bits(), r.to_bits(), "images({x:e}) for L = {len:e}");
            assert_eq!(
                image.apply(x).to_bits(),
                (x - len * r).to_bits(),
                "apply({x:e}) for L = {len:e}"
            );
            let image_x = image.apply(x);
            if x.is_finite() && !image_x.is_nan() {
                let mirrored = image.apply(-x);
                if image_x != 0.0 {
                    assert_eq!(
                        mirrored.to_bits(),
                        (-image_x).to_bits(),
                        "apply(-x) for x = {x:e}, L = {len:e}"
                    );
                } else {
                    assert_eq!(mirrored, 0.0, "apply(-x) for x = {x:e}, L = {len:e}");
                }
            }
        }
    });
}
