//! The Schubfach shortest printer (Giulietti, *The Schubfach way to render
//! doubles*, 2020) run in front of the exact Burger–Dybvig engine for
//! base-10 output.
//!
//! For `v = c × 2^q` it picks the decimal exponent `k` with
//! `10^k ≤ 2^q < 10^(k+1)` (`¾·2^q` when the gap below `v` is narrow), so
//! the rounding interval `[v − low gap, v + high gap]` measured in units of
//! `10^k` is between 1 and 10 wide. Hence it holds at most one multiple of
//! 10 and at least one of `s = ⌊v/10^k⌋`, `s + 1`:
//!
//! 1. if exactly one of the multiples of 10 around `v` lies in the
//!    interval, it is the shortest output (its trailing zeros are
//!    stripped);
//! 2. otherwise the output is `s` or `s + 1`: whichever lies in the
//!    interval, or the closer one when both do, ties settled by the
//!    caller's [`TieBreak`].
//!
//! Those are the same choices the paper's digit loop makes, test for test:
//! "lies in the interval" is its termination conditions with the reader's
//! endpoint [`Inclusivity`], and "the closer one" its final comparison. So
//! the output is byte-identical to the exact engine for every value and
//! every nearest-family rounding mode, and there is no rejection path.
//!
//! The scaled values `4v`, `4·low`, `4·high` (in units of `10^k`) are
//! computed as one 64×128-bit product each against
//! `g = (T[−k] >> 2) + 1`, a 126-bit upper bound of `10^−k` read from the
//! shared static table [`fpp_float::pow10`], rounded to odd: the integer
//! part exactly, and the low bit set whenever the true value is not an
//! integer. Giulietti proves that this is exact enough to decide every
//! comparison above for all IEEE `binary64` (and narrower) inputs.

use crate::generate::{Inclusivity, TieBreak};
use fpp_float::pow10;

/// `⌊e · log10 2⌋` for `|e| ≤ 5_456_721`.
fn floor_log10_pow2(e: i32) -> i32 {
    ((e as i64 * 661_971_961_083) >> 41) as i32
}

/// `⌊e · log10 2 + log10 ¾⌋` for `|e| ≤ 5_456_721`: the decimal exponent
/// for the narrow (¾-wide) rounding interval of a power of two.
fn floor_log10_three_quarters_pow2(e: i32) -> i32 {
    ((e as i64 * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `⌊g·cp / 2^127⌋`, with the low bit forced to 1 when the quotient is
/// not an integer ("round to odd"). The product's bits below `2^64` are
/// dropped: `g` exceeds `10^−k·2^r` by less than 1, so they hold only that
/// excess (`cp < 2^64`), and a quotient that is exactly an integer stays
/// one. Giulietti shows that every non-integer quotient leaves a set bit
/// above them.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    let lo = u128::from(g as u64) * u128::from(cp);
    let hi = u128::from((g >> 64) as u64) * u128::from(cp);
    // ⌊g·cp / 2^64⌋; the quotient by 2^127 is this over 2^63.
    let mid = hi + (lo >> 64);
    (mid >> 63) as u64 | u64::from((mid as u64) << 1 != 0)
}

/// The shortest decimal `f × 10^e` (no trailing zeros in `f`) that reads
/// back as `v = c × 2^q` under the reader's endpoint `inc`lusivity, the
/// closest to `v` of that length, ties broken by `tie`. `narrow` marks a
/// power-of-two significand above the smallest exponent, whose gap below
/// is half the gap above.
pub(crate) fn shortest(
    c: u64,
    q: i32,
    narrow: bool,
    inc: Inclusivity,
    tie: TieBreak,
) -> (u64, i32) {
    debug_assert!(c > 0 && c < 1 << 53);
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if narrow {
        (cb - 1, floor_log10_three_quarters_pow2(q))
    } else {
        (cb - 2, floor_log10_pow2(q))
    };
    let h = q + pow10::floor_log2_pow10(-k) + 2;
    debug_assert!((1..=8).contains(&h));
    let g = (pow10::significand(-k) >> 2) + 1;
    let vb = round_to_odd(g, cb << h);
    let vbl = round_to_odd(g, cbl << h);
    let vbr = round_to_odd(g, cbr << h);
    // An endpoint the reader rounds away from `v` must be beaten strictly.
    let low_out = u64::from(!inc.low_ok);
    let high_out = u64::from(!inc.high_ok);

    let s = vb >> 2;
    let sp10 = s / 10 * 10;
    let tp10 = sp10 + 10;
    let sp10_in = vbl + low_out <= sp10 << 2;
    let tp10_in = (tp10 << 2) + high_out <= vbr;
    if sp10_in != tp10_in {
        return strip_zeros(if sp10_in { sp10 } else { tp10 }, k);
    }
    let t = s + 1;
    let s_in = vbl + low_out <= s << 2;
    let t_in = (t << 2) + high_out <= vbr;
    let up = if s_in != t_in {
        t_in
    } else {
        // Both read back as `v`: the closer wins (`vb` against `4s + 2`).
        match vb.cmp(&(4 * s + 2)) {
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => tie.rounds_up((s % 10) as u8),
        }
    };
    let f = if up { t } else { s };
    debug_assert!(f % 10 != 0, "a multiple of 10 in range is taken above");
    (f, k)
}

/// Removes the trailing decimal zeros of `f × 10^e`.
fn strip_zeros(mut f: u64, mut e: i32) -> (u64, i32) {
    debug_assert!(f != 0);
    if f.is_multiple_of(100_000_000) {
        f /= 100_000_000;
        e += 8;
    }
    while f.is_multiple_of(100) {
        f /= 100;
        e += 2;
    }
    if f.is_multiple_of(10) {
        f /= 10;
        e += 1;
    }
    (f, e)
}

/// `"00"`, `"01"`, …, `"99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes the decimal digits of `f` (no leading zeros) to the end of `buf`
/// two at a time and returns them.
pub(crate) fn ascii_digits(mut f: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    while f >= 100 {
        let pair = 2 * (f % 100) as usize;
        f /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if f >= 10 {
        let pair = 2 * f as usize;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + f as u8;
    }
    &buf[i..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpp_bignum::Nat;
    use fpp_float::FloatFormat;

    /// `a^x` as an exact fraction `(numerator, denominator)`.
    fn power(a: u64, x: i32) -> (Nat, Nat) {
        let p = Nat::u64_pow(a, x.unsigned_abs());
        if x >= 0 {
            (p, Nat::one())
        } else {
            (Nat::one(), p)
        }
    }

    /// `n1/d1 ≤ n2/d2` on exact fractions.
    fn le(a: &(Nat, Nat), b: &(Nat, Nat)) -> bool {
        &a.0 * &b.1 <= &b.0 * &a.1
    }

    /// Both estimators pin `k` exactly: `10^k ≤ x < 10^(k+1)` with
    /// `x = 2^e` or `x = ¾·2^e`, over every exponent a `binary64`
    /// boundary can carry.
    #[test]
    fn decimal_exponent_estimators_are_exact() {
        for e in -1100..=1000 {
            let two = power(2, e);
            let three_quarters = (&two.0 * 3u64, &two.1 << 2);
            for (x, k) in [
                (two, floor_log10_pow2(e)),
                (three_quarters, floor_log10_three_quarters_pow2(e)),
            ] {
                assert!(le(&power(10, k), &x), "10^{k} above x at e = {e}");
                assert!(!le(&power(10, k + 1), &x), "10^{} ≤ x at e = {e}", k + 1);
            }
        }
    }

    fn nearest_even(c: u64) -> Inclusivity {
        let ok = c.is_multiple_of(2);
        Inclusivity {
            low_ok: ok,
            high_ok: ok,
        }
    }

    fn digits_of<F: FloatFormat>(v: F) -> (u64, i32) {
        let (_, c, q) = v.decode().finite_parts().unwrap();
        let narrow = c == 1 << (F::PRECISION - 1) && q > F::MIN_EXP;
        shortest(c, q, narrow, nearest_even(c), TieBreak::Up)
    }

    #[test]
    fn known_values() {
        assert_eq!(digits_of(0.3), (3, -1));
        assert_eq!(digits_of(1.0), (1, 0));
        assert_eq!(digits_of(100.0), (1, 2));
        // 0.1 comes out as 10^16 × 10^−17: sixteen zeros to strip.
        assert_eq!(digits_of(0.1), (1, -1));
        assert_eq!(digits_of(1.5), (15, -1));
        assert_eq!(digits_of(std::f64::consts::PI), (3141592653589793, -15));
        assert_eq!(digits_of(f64::MAX), (17976931348623157, 292));
        assert_eq!(digits_of(f64::MIN_POSITIVE), (22250738585072014, -324));
        // The interval end 10^23 is admitted: the mantissa is even.
        assert_eq!(digits_of(1e23), (1, 23));
        assert_eq!(digits_of(0.1f32), (1, -1));
        assert_eq!(digits_of(f32::MAX), (34028235, 31));
    }

    /// The smallest subnormals have one-digit `s`; the multiple-of-10 test
    /// must still run (no `s ≥ 100` guard) and 1e-323 must come out short.
    #[test]
    fn smallest_subnormals() {
        assert_eq!(digits_of(5e-324), (5, -324));
        assert_eq!(digits_of(1e-323), (1, -323));
        assert_eq!(digits_of(1.5e-323), (15, -324));
        assert_eq!(digits_of(f32::from_bits(1)), (1, -45));
        assert_eq!(digits_of(f32::from_bits(2)), (3, -45));
    }

    #[test]
    fn inclusivity_decides_endpoint_hits() {
        // 1e23 is exactly the upper end of its double's interval.
        let (_, c, q) = 1e23f64.decode().finite_parts().unwrap();
        let exclusive = Inclusivity {
            low_ok: false,
            high_ok: false,
        };
        assert_eq!(
            shortest(c, q, false, exclusive, TieBreak::Up),
            (9999999999999999, 7)
        );
    }

    /// `v = (2^52 + 1)/4` is `s + ½` in units of `10^−1` with both `s` and
    /// `s + 1` inside the interval: a true tie at the last digit.
    #[test]
    fn ties_follow_the_tie_break() {
        let v = ((1u64 << 52) + 1) as f64 / 4.0;
        let (_, c, q) = v.decode().finite_parts().unwrap();
        assert_eq!((c, q), ((1 << 52) + 1, -2));
        for (tie, f) in [
            (TieBreak::Up, 11258999068426243),
            (TieBreak::Down, 11258999068426242),
            (TieBreak::Even, 11258999068426242),
        ] {
            assert_eq!(shortest(c, q, false, nearest_even(c), tie), (f, -1));
        }
    }

    #[test]
    fn strips_and_writes_digits() {
        assert_eq!(strip_zeros(10_000_000_000_000_000, -17), (1, -1));
        assert_eq!(strip_zeros(120, 0), (12, 1));
        assert_eq!(strip_zeros(7, 3), (7, 3));
        let mut buf = [0u8; 20];
        assert_eq!(ascii_digits(0, &mut buf), b"0");
        assert_eq!(ascii_digits(7, &mut buf), b"7");
        assert_eq!(ascii_digits(42, &mut buf), b"42");
        assert_eq!(ascii_digits(12345, &mut buf), b"12345");
        assert_eq!(
            ascii_digits(u64::MAX, &mut buf),
            b"18446744073709551615".as_slice()
        );
    }
}
