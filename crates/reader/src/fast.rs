//! Clinger's fast path: short decimal literals convertible with a single
//! exactly-representable floating-point operation.
//!
//! When the coefficient `D` fits in 53 bits and the scale `10^|q|` is exactly
//! representable (|q| ≤ 22), `D × 10^q` incurs exactly one rounding — the
//! final multiply or divide — so the hardware's round-to-nearest-even gives
//! the correctly rounded result with no big-integer arithmetic. Gay's
//! heuristics (cited in §5 of the printing paper) generalize this idea.
//! It is the first tier [`crate::read_float`] tries on a scanned base-10
//! literal; Eisel–Lemire is the second, and the one exact reader (reached
//! through [`crate::decimal_to_float`]) covers everything else.

/// Largest exponent `q` with `10^q` exactly representable in `f64`.
const MAX_EXACT_POW10: i64 = 22;

/// `10^0 ..= 10^22`, all exact in `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Attempts the single-rounding fast conversion of `digits × 10^exponent`
/// to `f64` under round-to-nearest-even.
///
/// Returns `None` when the inputs are outside the provably exact region
/// (the caller falls back to exact big-integer conversion).
///
/// ```
/// assert_eq!(fpp_reader::fast_path(125, -2), Some(1.25));
/// assert_eq!(fpp_reader::fast_path(1, 23), None); // 10^23 is not exact
/// ```
#[must_use]
pub fn fast_path(digits: u64, exponent: i64) -> Option<f64> {
    if digits >= (1u64 << 53) {
        return None;
    }
    let d = digits as f64;
    if exponent == 0 {
        return Some(d);
    }
    if (0..=MAX_EXACT_POW10).contains(&exponent) {
        // One multiply, one rounding.
        return Some(d * POW10[exponent as usize]);
    }
    if (-MAX_EXACT_POW10..0).contains(&exponent) {
        // One divide, one rounding.
        return Some(d / POW10[(-exponent) as usize]);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_matches_std_parse() {
        let cases: &[(u64, i64)] = &[
            (1, 0),
            (125, -2),
            (3, -1),
            (9007199254740991, 0), // 2^53 - 1
            (9007199254740991, 22),
            (9007199254740991, -22),
            (42, 15),
            (7, -7),
        ];
        for &(d, e) in cases {
            let got = fast_path(d, e).expect("in fast region");
            let lit = format!("{d}e{e}");
            let expect: f64 = lit.parse().unwrap();
            assert_eq!(got, expect, "{lit}");
        }
    }

    #[test]
    fn out_of_region_declines() {
        assert_eq!(fast_path(1 << 53, 0), None);
        assert_eq!(fast_path(1, 23), None);
        assert_eq!(fast_path(1, -23), None);
    }
}
