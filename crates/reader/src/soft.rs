//! The exact reader: Clinger's scaled division, generic in the target
//! format.
//!
//! A literal in any base 2–36 is formed as an exact ratio of big naturals,
//! the unique significand of the target format is located by scaled
//! division, and the quotient is rounded with an exact remainder comparison
//! under any [`RoundingMode`]. [`read_soft`] exposes this for any
//! [`SoftFloat`] format — any target base, precision and exponent range —
//! which completes the round trip for the toy formats the test suite
//! enumerates exhaustively. The hardware formats are its `b = 2` instance:
//! [`crate::decimal_to_float`] calls the same routine and encodes the
//! result, so the crate has exactly one correctly rounded conversion.

use crate::parse::Literal;
use crate::{parse_literal, DecimalParts, ParseFloatError};
use fpp_bignum::Nat;
use fpp_float::{RoundingMode, SoftFloat};
use std::borrow::Cow;
use std::cmp::Ordering;

/// A target software floating-point format for [`read_soft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftFormat {
    /// The format's base `b ≥ 2`.
    pub base: u64,
    /// Precision `p ≥ 1` in base-`b` digits.
    pub precision: u32,
    /// Minimum exponent of the integral significand.
    pub min_exp: i32,
    /// Maximum exponent of the integral significand.
    pub max_exp: i32,
}

/// Outcome of reading a literal into a software format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoftReadResult {
    /// The magnitude rounded to zero.
    Zero,
    /// A representable positive magnitude.
    Finite(SoftFloat),
    /// The magnitude rounded past the largest representable value.
    Overflow,
}

/// Reads a literal (in `literal_base`) into the given software format,
/// correctly rounded. The returned flag is the literal's sign (`SoftFloat`
/// models magnitudes; NaN/inf literals map to `Overflow` with the sign).
///
/// # Errors
///
/// Returns [`ParseFloatError`] on a malformed literal, a `literal_base`
/// outside `2..=36`, or an invalid format (`base < 2`, `precision == 0`,
/// or `min_exp > max_exp`).
///
/// ```
/// use fpp_float::RoundingMode;
/// use fpp_reader::{read_soft, SoftFormat, SoftReadResult};
///
/// // A 3-digit decimal format: 1/3 reads as 333 × 10⁻³.
/// let fmt = SoftFormat { base: 10, precision: 3, min_exp: -10, max_exp: 10 };
/// let (neg, r) = read_soft("0.33333", 10, RoundingMode::NearestEven, &fmt).unwrap();
/// assert!(!neg);
/// match r {
///     SoftReadResult::Finite(v) => assert_eq!(v.to_string(), "333 x 10^-3"),
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn read_soft(
    s: &str,
    literal_base: u64,
    rounding: RoundingMode,
    format: &SoftFormat,
) -> Result<(bool, SoftReadResult), ParseFloatError> {
    if format.base < 2 {
        return Err(ParseFloatError::new("format base must be >= 2"));
    }
    if format.precision == 0 {
        return Err(ParseFloatError::new("format precision must be >= 1"));
    }
    if format.min_exp > format.max_exp {
        return Err(ParseFloatError::new("empty format exponent range"));
    }
    let parts = match parse_literal(s, literal_base)? {
        Literal::Nan => return Ok((false, SoftReadResult::Overflow)),
        Literal::Infinity { negative } => return Ok((negative, SoftReadResult::Overflow)),
        Literal::Finite(parts) => parts,
    };
    let result = match round_to_format(&parts, literal_base, rounding, format) {
        Rounded::Zero => SoftReadResult::Zero,
        Rounded::Finite(f, e) => SoftReadResult::Finite(
            SoftFloat::new(f, e, format.base, format.precision, format.min_exp)
                .expect("the rounded significand is normalized for the format"),
        ),
        Rounded::Overflow => SoftReadResult::Overflow,
    };
    Ok((parts.negative, result))
}

/// A magnitude rounded into a target format.
pub(crate) enum Rounded {
    /// The magnitude rounded to zero.
    Zero,
    /// `f × bᵉ` with `f < bᵖ`, and `f ≥ bᵖ⁻¹` unless `e` is the minimum
    /// exponent (subnormal).
    Finite(Nat, i32),
    /// The magnitude rounded past the largest finite value.
    Overflow,
}

/// Rounds `|digits × literal_base^exponent|` into `format` under
/// `rounding`, the sticky `truncated` flag standing in for dropped digits.
///
/// Overflow and underflow follow IEEE 754: overflow gives the largest
/// finite value under [`RoundingMode::TowardZero`] and [`Rounded::Overflow`]
/// otherwise; a non-zero magnitude below the smallest subnormal gives the
/// smallest subnormal under [`RoundingMode::AwayFromZero`] and
/// [`Rounded::Zero`] otherwise. The format must be valid (`base ≥ 2`,
/// `precision ≥ 1`, `min_exp ≤ max_exp`).
pub(crate) fn round_to_format(
    parts: &DecimalParts,
    literal_base: u64,
    rounding: RoundingMode,
    format: &SoftFormat,
) -> Rounded {
    let bt = format.base;
    let p = format.precision;
    let min_e = format.min_exp;
    let max_e = format.max_exp;
    let overflow = || match rounding {
        RoundingMode::TowardZero => Rounded::Finite(&power(bt, p) - &Nat::one(), max_e),
        _ => Rounded::Overflow,
    };
    let underflow = || match rounding {
        RoundingMode::AwayFromZero => Rounded::Finite(Nat::one(), min_e),
        _ => Rounded::Zero,
    };
    if parts.digits.is_zero() && !parts.truncated {
        return Rounded::Zero;
    }

    // Magnitude screen in log2: values out of range by a wide margin skip
    // the big arithmetic (the exponent may be astronomically large).
    let log2_bt = (bt as f64).log2();
    let approx_log2 =
        parts.digits.bit_len() as f64 + parts.exponent as f64 * (literal_base as f64).log2();
    if approx_log2 > (f64::from(max_e) + f64::from(p) + 8.0) * log2_bt {
        return overflow();
    }
    if approx_log2 < (f64::from(min_e) - 8.0) * log2_bt {
        return underflow();
    }

    // num/den = |value| exactly.
    let k = u32::try_from(parts.exponent.unsigned_abs()).expect("screened");
    let (num, den) = if parts.exponent >= 0 {
        (scale(&parts.digits, literal_base, k), Nat::one())
    } else {
        (parts.digits.clone(), power(literal_base, k))
    };
    if num.is_zero() {
        // All retained digits were zero but truncation dropped non-zeros:
        // a positive infinitesimal for rounding purposes.
        return underflow();
    }

    // Find e with f = ⌊num / (den·btᵉ)⌋ in [bt^(p−1), bt^p), or e = min_e.
    // The estimate is off by at most a step or two either way.
    let mut e =
        ((num.bit_len() as f64 - den.bit_len() as f64) / log2_bt).floor() as i64 - i64::from(p);
    e = e.max(i64::from(min_e));
    let (mut f, mut rem, mut eff_den) = divide_at(&num, &den, bt, e);
    while e > i64::from(min_e) && !at_least_power(&f, bt, p - 1) {
        e -= 1;
        (f, rem, eff_den) = divide_at(&num, &den, bt, e);
    }
    while at_least_power(&f, bt, p) {
        e += 1;
        (f, rem, eff_den) = divide_at(&num, &den, bt, e);
    }

    // Round per mode, the sticky flag standing in for the dropped tail.
    let sticky = parts.truncated;
    let round_up = match rounding {
        _ if rem.is_zero() && !sticky => false,
        RoundingMode::TowardZero => false,
        RoundingMode::AwayFromZero => true,
        _ => match rem.double_cmp(&eff_den) {
            Ordering::Less => false,
            Ordering::Greater => true,
            // A dropped tail pushes a tie past the midpoint.
            Ordering::Equal => {
                sticky
                    || match rounding {
                        RoundingMode::NearestEven | RoundingMode::Conservative => !f.is_even(),
                        RoundingMode::NearestAwayFromZero => true,
                        _ => false,
                    }
            }
        },
    };
    if round_up {
        f.add_u64(1);
        if at_least_power(&f, bt, p) {
            // Carried into a new digit: f = bᵖ, renormalize.
            f = power(bt, p - 1);
            e += 1;
        }
    }
    if f.is_zero() {
        return underflow();
    }
    if e > i64::from(max_e) {
        return overflow();
    }
    Rounded::Finite(f, e as i32)
}

/// `x · bᵏ`, by a shift when `b = 2` (the hardware formats and hex
/// literals).
fn scale(x: &Nat, b: u64, k: u32) -> Nat {
    if b == 2 {
        x << k
    } else {
        x * &power(b, k)
    }
}

/// `bᵏ`.
fn power(b: u64, k: u32) -> Nat {
    if b == 2 {
        Nat::one() << k
    } else {
        Nat::from(b).pow(k)
    }
}

/// Whether `x ≥ bᵏ`, by bit length when `b = 2`.
fn at_least_power(x: &Nat, b: u64, k: u32) -> bool {
    if b == 2 {
        x.bit_len() > u64::from(k)
    } else {
        *x >= power(b, k)
    }
}

/// `f = ⌊num / (den·btᵉ)⌋` with remainder and effective denominator.
fn divide_at<'a>(num: &Nat, den: &'a Nat, bt: u64, e: i64) -> (Nat, Nat, Cow<'a, Nat>) {
    let k = u32::try_from(e.unsigned_abs()).expect("exponent fits");
    if e >= 0 {
        let eff = scale(den, bt, k);
        let (q, rem) = num.div_rem(&eff);
        (q, rem, Cow::Owned(eff))
    } else {
        let (q, rem) = scale(num, bt, k).div_rem(den);
        (q, rem, Cow::Borrowed(den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEC3: SoftFormat = SoftFormat {
        base: 10,
        precision: 3,
        min_exp: -10,
        max_exp: 10,
    };

    fn finite(s: &str, fmt: &SoftFormat) -> SoftFloat {
        match read_soft(s, 10, RoundingMode::NearestEven, fmt).unwrap() {
            (false, SoftReadResult::Finite(v)) => v,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decimal_format_rounds_to_three_digits() {
        assert_eq!(finite("12345", &DEC3).to_string(), "123 x 10^2");
        assert_eq!(finite("12355", &DEC3).to_string(), "124 x 10^2"); // round up
        assert_eq!(finite("12350", &DEC3).to_string(), "124 x 10^2"); // tie → even
        assert_eq!(finite("12450", &DEC3).to_string(), "124 x 10^2"); // tie → even
        assert_eq!(finite("0.33333", &DEC3).to_string(), "333 x 10^-3");
    }

    #[test]
    fn denormals_at_min_exp() {
        // 7 × 10^-10 is below the normalized range but representable.
        let v = finite("7e-10", &DEC3);
        assert_eq!(v.to_string(), "7 x 10^-10");
        // Half of the smallest subnormal rounds to zero...
        let r = read_soft("4.9e-11", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (false, SoftReadResult::Zero));
        // ...but away-from-zero rounds it up to the smallest subnormal.
        let r = read_soft("4.9e-11", 10, RoundingMode::AwayFromZero, &DEC3).unwrap();
        match r.1 {
            SoftReadResult::Finite(v) => assert_eq!(v.to_string(), "1 x 10^-10"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overflow_behaviour_by_mode() {
        let r = read_soft("1e20", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (false, SoftReadResult::Overflow));
        let r = read_soft("-1e20", 10, RoundingMode::TowardZero, &DEC3).unwrap();
        match r {
            (true, SoftReadResult::Finite(v)) => assert_eq!(v.to_string(), "999 x 10^10"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn binary_target_format_matches_f64_semantics() {
        // Reading into (2, 53, -1074, 971) must agree with the standard
        // library's f64 parser (the crate's own f64 reader is this routine).
        let fmt = SoftFormat {
            base: 2,
            precision: 53,
            min_exp: -1074,
            max_exp: 971,
        };
        for s in ["0.1", "1e23", "2.2250738585072011e-308", "5e-324", "1.5"] {
            let v = finite(s, &fmt);
            let expected = SoftFloat::from_f64(s.parse::<f64>().unwrap()).unwrap();
            assert_eq!(v, expected, "{s}");
        }
    }

    fn read_one(
        literal_base: u64,
        fmt: &SoftFormat,
    ) -> Result<(bool, SoftReadResult), ParseFloatError> {
        read_soft("1", literal_base, RoundingMode::NearestEven, fmt)
    }

    #[test]
    fn literal_base_out_of_range_is_an_error() {
        assert!(read_one(1, &DEC3).is_err());
        assert!(read_one(37, &DEC3).is_err());
    }

    #[test]
    fn format_base_below_two_is_an_error() {
        assert!(read_one(10, &SoftFormat { base: 1, ..DEC3 }).is_err());
    }

    #[test]
    fn zero_precision_is_an_error() {
        let fmt = SoftFormat {
            precision: 0,
            ..DEC3
        };
        assert!(read_one(10, &fmt).is_err());
    }

    #[test]
    fn empty_exponent_range_is_an_error() {
        let fmt = SoftFormat {
            min_exp: 1,
            max_exp: 0,
            ..DEC3
        };
        assert!(read_one(10, &fmt).is_err());
    }

    #[test]
    fn ternary_target_format() {
        // 1/3 is exact in base 3: one digit.
        let fmt = SoftFormat {
            base: 3,
            precision: 4,
            min_exp: -20,
            max_exp: 20,
        };
        let v = finite("0.333333333333", &fmt);
        // closest 4-trit value to 0.333…: 1/3 = 0.1₃ exactly → f×3^e with
        // normalized f in [27, 81): 27 × 3^-4 = 1/3.
        assert_eq!(v.to_string(), "27 x 3^-4");
    }

    #[test]
    fn literal_and_target_bases_mix() {
        // Read a hexadecimal literal into the 3-digit decimal format.
        let fmt = DEC3;
        let r = read_soft("ff.8", 16, RoundingMode::NearestEven, &fmt).unwrap();
        match r.1 {
            SoftReadResult::Finite(v) => assert_eq!(v.to_string(), "256 x 10^0"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn specials_map_to_overflow_and_zero() {
        let r = read_soft("inf", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (false, SoftReadResult::Overflow));
        let r = read_soft("-infinity", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (true, SoftReadResult::Overflow));
        let r = read_soft("0", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (false, SoftReadResult::Zero));
        let r = read_soft("-0.000", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (true, SoftReadResult::Zero));
    }
}
