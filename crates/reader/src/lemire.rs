//! The Eisel–Lemire fast path: correctly rounded `w × 10^q → binary` via
//! one (sometimes two) 64×128-bit truncated multiplications against a
//! cached table of 128-bit power-of-five significands.
//!
//! Lemire, *Number Parsing at a Gigabyte per
//! Second*, SPE 2021): approximate the product of the decimal coefficient
//! with a 128-bit significand of `10^q`, prove from the truncated bits that
//! rounding cannot be affected by the discarded tail, and otherwise
//! **reject** — the caller falls back to the exact big-integer reader, so
//! the composed routine is correctly rounded by construction.
//!
//! The 128-bit significands come from the static table shared with the
//! printer, [`fpp_float::pow10`]: `T[q]` for `q ≥ 0` (floor-truncated) and
//! `T[q] + 1` for `q < 0` (a ceiling, since `10^q` is never dyadic there) —
//! exactly the convention the uncertainty analysis in DESIGN.md §13
//! assumes. The normalized significand of `10^q` is that of `5^q`.

use fpp_float::{pow10, FloatFormat};

/// Smallest decimal exponent the reader looks up: below `10^-342` even a
/// coefficient of `u64::MAX` (< 1.85×10^19) is under half the smallest
/// subnormal `f64`, so the value rounds to zero under nearest-even without
/// any arithmetic.
pub(crate) const SMALLEST_POWER_OF_TEN: i32 = -342;

/// Largest decimal exponent the reader looks up: above `10^308` any
/// non-zero coefficient overflows `f64` to infinity.
pub(crate) const LARGEST_POWER_OF_TEN: i32 = 308;

/// Format-specific Eisel–Lemire bounds, derived from the IEEE parameters
/// the same way the reference analysis derives them.
pub(crate) trait LemireFloat: FloatFormat + Copy {
    /// Exponents below this certainly round to zero for this format (with
    /// any `u64` coefficient).
    const SMALLEST_POWER: i32;
    /// Exponents above this certainly overflow for this format (with any
    /// non-zero coefficient).
    const LARGEST_POWER: i32;
    /// Inclusive range of `q` in which an exact halfway product is
    /// representable and the round-to-even correction must be applied.
    const MIN_EXPONENT_ROUND_TO_EVEN: i32;
    /// See [`Self::MIN_EXPONENT_ROUND_TO_EVEN`].
    const MAX_EXPONENT_ROUND_TO_EVEN: i32;
    /// Converts the algorithm's (mantissa-with-hidden-bit, biased-exponent)
    /// pair into the concrete positive float.
    fn from_biased(mantissa: u64, biased_exponent: i32) -> Self;
    /// The raw IEEE bit pattern, widened to `u64` (for exact comparisons).
    fn to_bits_u64(self) -> u64;
}

impl LemireFloat for f64 {
    const SMALLEST_POWER: i32 = -342;
    const LARGEST_POWER: i32 = 308;
    const MIN_EXPONENT_ROUND_TO_EVEN: i32 = -4;
    const MAX_EXPONENT_ROUND_TO_EVEN: i32 = 23;
    fn from_biased(mantissa: u64, biased_exponent: i32) -> f64 {
        from_biased::<f64>(mantissa, biased_exponent)
    }
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
}

impl LemireFloat for f32 {
    const SMALLEST_POWER: i32 = -65;
    const LARGEST_POWER: i32 = 38;
    const MIN_EXPONENT_ROUND_TO_EVEN: i32 = -17;
    const MAX_EXPONENT_ROUND_TO_EVEN: i32 = 10;
    fn from_biased(mantissa: u64, biased_exponent: i32) -> f32 {
        from_biased::<f32>(mantissa, biased_exponent)
    }
    fn to_bits_u64(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// Rebuilds a positive float from the algorithm's biased form. `mantissa`
/// carries the hidden bit for normals; biased exponent `0` means subnormal
/// (or zero when the mantissa is also zero).
fn from_biased<F: FloatFormat>(mantissa: u64, biased_exponent: i32) -> F {
    if mantissa == 0 {
        return F::encode(false, 0, 0);
    }
    let exponent = if biased_exponent == 0 {
        F::MIN_EXP
    } else {
        F::MIN_EXP + biased_exponent - 1
    };
    F::encode(false, mantissa, exponent)
}

/// The 128-bit significand of `10^q` as `(hi, lo)` halves, normalized to
/// `[2^127, 2^128)`: floor-truncated for `q ≥ 0`, a ceiling for `q < 0`.
/// Its binary exponent is `⌊q·log2 10⌋ − 127`.
fn significand(q: i32) -> (u64, u64) {
    let t = pow10::significand(q) + u128::from(q < 0);
    ((t >> 64) as u64, t as u64)
}

/// `a × b` as (low, high) 64-bit halves.
fn full_multiplication(a: u64, b: u64) -> (u64, u64) {
    let p = u128::from(a) * u128::from(b);
    (p as u64, (p >> 64) as u64)
}

/// The truncated 128-bit product of the normalized coefficient `w` with the
/// 128-bit significand of `10^q`, returned as (low, high) halves of
/// `(w × M) >> 64`.
///
/// One multiplication by the high half usually suffices: the neglected
/// `w × M_lo` term can only matter when the high word's bits below the
/// needed `precision` are all ones, and exactly then a second
/// multiplication refines the product (Lemire's §5 argument).
fn compute_product_approx(q: i32, w: u64, precision: u32) -> (u64, u64) {
    debug_assert!((SMALLEST_POWER_OF_TEN..=LARGEST_POWER_OF_TEN).contains(&q));
    let mask = if precision < 64 {
        u64::MAX >> precision
    } else {
        u64::MAX
    };
    let (hi, lo) = significand(q);
    let (mut first_lo, mut first_hi) = full_multiplication(w, hi);
    if first_hi & mask == mask {
        let (_, second_hi) = full_multiplication(w, lo);
        first_lo = first_lo.wrapping_add(second_hi);
        if second_hi > first_lo {
            first_hi += 1;
        }
    }
    (first_lo, first_hi)
}

/// Attempts the Eisel–Lemire conversion of the non-negative decimal
/// `w × 10^q` into format `F`, rounding to nearest-even.
///
/// Returns `None` when the truncated product cannot certify the rounding —
/// the caller must fall back to the exact big-integer path. `Some` results
/// are correctly rounded (the adversarial and differential suites check
/// this bit-for-bit against the exact reader and `str::parse`).
pub(crate) fn eisel_lemire<F: LemireFloat>(w: u64, q: i64) -> Option<F> {
    if w == 0 || q < i64::from(F::SMALLEST_POWER) {
        return Some(F::from_biased(0, 0));
    }
    if q > i64::from(F::LARGEST_POWER) {
        return Some(F::infinity(false));
    }
    let q = q as i32;
    let explicit_bits = F::PRECISION as i32 - 1;
    let minimum_exponent = F::MIN_EXP + F::PRECISION as i32 - 2; // −bias
    let infinite_power = F::MAX_EXP - F::MIN_EXP + 2;

    let lz = w.leading_zeros() as i32;
    let w = w << lz;
    let (lo, hi) = compute_product_approx(q, w, (explicit_bits + 3) as u32);
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        // The truncated product is saturated and `5^|q|` does not fit in
        // 128 bits: the discarded tail could flip the rounding. Reject.
        return None;
    }
    let upperbit = (hi >> 63) as i32;
    let mut mantissa = hi >> (upperbit + 64 - explicit_bits - 3);
    let mut power2 = pow10::floor_log2_pow10(q) + 63 + upperbit - lz - minimum_exponent;
    if power2 <= 0 {
        // Subnormal range (or complete underflow).
        if -power2 + 1 >= 64 {
            return Some(F::from_biased(0, 0));
        }
        mantissa >>= -power2 + 1;
        mantissa += mantissa & 1; // round up on half
        mantissa >>= 1;
        // Rounding can carry back up into the smallest normal.
        let biased = i32::from(mantissa >= (1u64 << explicit_bits));
        return Some(F::from_biased(mantissa, biased));
    }
    // Round-to-even correction: if the product is exact (`lo ≤ 1` after a
    // possibly-exact second multiply, within the `q` range where halfway
    // decimals exist) and sits exactly on a halfway pattern, drop the low
    // bit so the round-half-up below lands on the even neighbour.
    if lo <= 1
        && q >= F::MIN_EXPONENT_ROUND_TO_EVEN
        && q <= F::MAX_EXPONENT_ROUND_TO_EVEN
        && mantissa & 3 == 1
        && (mantissa << (upperbit + 64 - explicit_bits - 3)) == hi
    {
        mantissa &= !1u64;
    }
    mantissa += mantissa & 1; // round half up
    mantissa >>= 1;
    if mantissa >= (2u64 << explicit_bits) {
        // The round-up carried out of the mantissa: renormalize.
        mantissa = 1u64 << explicit_bits;
        power2 += 1;
    }
    if power2 >= infinite_power {
        return Some(F::infinity(false));
    }
    Some(F::from_biased(mantissa, power2))
}

/// Attempts the Eisel–Lemire fast conversion of `digits × 10^exponent` to
/// a **non-negative** `f64` under round-to-nearest-even.
///
/// Returns `None` when the truncated-product analysis cannot certify the
/// result; the composed reader ([`crate::read_f64`]) then falls back to
/// the exact big-integer path, so rejections are a correctness-neutral
/// performance event (counted as `reader_exact_fallbacks` by telemetry).
///
/// ```
/// assert_eq!(fpp_reader::eisel_lemire_f64(3, -1), Some(0.3));
/// assert_eq!(fpp_reader::eisel_lemire_f64(17976931348623157, 292), Some(f64::MAX));
/// assert_eq!(fpp_reader::eisel_lemire_f64(1, 400), Some(f64::INFINITY));
/// ```
#[must_use]
pub fn eisel_lemire_f64(digits: u64, exponent: i64) -> Option<f64> {
    eisel_lemire::<f64>(digits, exponent)
}

/// Attempts the Eisel–Lemire fast conversion of `digits × 10^exponent` to
/// a **non-negative** `f32` under round-to-nearest-even (see
/// [`eisel_lemire_f64`]).
///
/// ```
/// assert_eq!(fpp_reader::eisel_lemire_f32(1, -1), Some(0.1f32));
/// ```
#[must_use]
pub fn eisel_lemire_f32(digits: u64, exponent: i64) -> Option<f32> {
    eisel_lemire::<f32>(digits, exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    use fpp_bignum::Nat;

    /// The truncation directions the uncertainty analysis relies on, on
    /// every entry the reader reads, proven in exact integer arithmetic.
    ///
    /// With `M = hi·2^64 + lo` and `b` the bit length of `5^|q|`:
    /// - `q ≥ 0`: `M·2^(b−128) ≤ 5^q < (M+1)·2^(b−128)` (floor),
    /// - `q < 0`: `(M−1)·5^m < 2^(b+127) ≤ M·5^m` (ceiling, `m = −q`).
    #[test]
    fn significands_bracket_powers_of_five() {
        for q in SMALLEST_POWER_OF_TEN..=LARGEST_POWER_OF_TEN {
            let (hi, lo) = significand(q);
            assert!(hi >> 63 == 1, "5^{q}: significand not normalized");
            let m = Nat::from_limbs(vec![lo, hi]);
            let p = Nat::u64_pow(5, q.unsigned_abs());
            let b = p.bit_len() as u32;
            if q >= 0 {
                if b <= 128 {
                    // Powers up to 5^55 fit in 128 bits: exact after shift.
                    assert_eq!(m, &p << (128 - b), "5^{q}: small powers are exact");
                } else {
                    // Floor truncation: M·2^(b−128) ≤ 5^q < (M+1)·2^(b−128).
                    assert!(&m << (b - 128) <= p, "5^{q}: floor lower bound");
                    let mut m1 = m.clone();
                    m1.add_u64(1);
                    assert!(p < &m1 << (b - 128), "5^{q}: floor upper bound");
                }
            } else {
                // Ceiling: (M−1)·5^m < 2^(b+127) ≤ M·5^m.
                let pow2 = &Nat::one() << (b + 127);
                assert!(pow2 <= &m * &p, "5^{q}: ceiling lower bound");
                let mut m_minus = m.clone();
                m_minus.sub_u64(1);
                assert!(&m_minus * &p < pow2, "5^{q}: ceiling upper bound");
            }
        }
    }

    #[test]
    fn known_values_round_correctly() {
        let cases: &[(u64, i64, f64)] = &[
            (1, 0, 1.0),
            (1, -1, 0.1),
            (3, -1, 0.3),
            (1, 23, 1e23),                      // exact halfway, round to even
            (17976931348623157, 292, f64::MAX), // largest finite
            (22250738585072014, -324, 2.2250738585072014e-308), // smallest normal
            (5, -324, 5e-324),                  // smallest subnormal
            (1, 309, f64::INFINITY),
            (u64::MAX, 0, 18446744073709551615.0),
        ];
        for &(w, q, expect) in cases {
            let got = eisel_lemire_f64(w, q).expect("in fast region");
            assert_eq!(got.to_bits(), expect.to_bits(), "{w}e{q}");
        }
        // Certain underflow / overflow outside the table range.
        assert_eq!(eisel_lemire_f64(u64::MAX, -400), Some(0.0));
        assert_eq!(eisel_lemire_f64(1, 400), Some(f64::INFINITY));
        assert_eq!(eisel_lemire_f64(0, 1000), Some(0.0));
    }

    #[test]
    fn f32_known_values() {
        let cases: &[(u64, i64, f32)] = &[
            (1, -1, 0.1f32),
            (16777217, 0, 16777216.0f32), // 2^24 + 1: halfway, rounds to even
            (34028235, 31, f32::MAX),
            (1, -45, 1e-45f32), // smallest subnormal neighbourhood
            (1, 39, f32::INFINITY),
        ];
        for &(w, q, expect) in cases {
            let got = eisel_lemire_f32(w, q).expect("in fast region");
            assert_eq!(got.to_bits(), expect.to_bits(), "{w}e{q}");
        }
    }
}
