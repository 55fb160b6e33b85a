//! A single-pass base-10 scanner over bytes, feeding the fast conversion
//! tiers.
//!
//! [`crate::parse_literal`] accumulates the coefficient into a [`fpp_bignum::Nat`]
//! because it serves every base and arbitrarily long literals. The fast
//! tiers (Clinger, Eisel–Lemire) only ever consume a `u64` coefficient, so
//! routing their common case through big-integer accumulation would throw
//! away most of the speedup. This scanner walks the bytes once, keeping at
//! most 19 significant digits in a `u64` (19 digits is the largest count
//! that can never overflow: `10^19 − 1 < 2^64`) and tracking whether — and
//! how — the tail was dropped.
//!
//! Integer and fraction runs are read eight bytes at a time (Lemire,
//! *Number Parsing at a Gigabyte per Second*, SPE 2021): one little-endian
//! `u64` load, an all-digits test with two adds and a mask, and a
//! three-multiply combine; fewer than eight remaining bytes go one at a
//! time. The hot loops check no digit budget: both runs accumulate into
//! one `u64` modulo `2^64`, which is exact for up to 19 significant
//! digits because leading zeros add nothing. Only a literal with more than
//! 19 significant digits takes the per-digit pass that keeps the first 19
//! and drops the tail into the sticky `truncated` bit.
//!
//! It recognizes exactly the plain finite base-10 grammar of
//! [`crate::parse_literal`] (optional sign, digits with one optional point,
//! optional `e`/`E` exponent; empty integer or fraction parts allowed, but
//! not both). Anything else — `inf`/`NaN` words, `#` sticky markers, `@`
//! exponents, malformed input — returns `None`, deferring to the general
//! parser, which owns error reporting. The scanner therefore never turns a
//! valid literal into an error or vice versa. It accepts ASCII bytes only,
//! so any input it accepts is valid UTF-8.

/// Cap on the scanned exponent magnitude, mirroring `parse_exponent`'s
/// clamp: large enough that any value beyond it is a certain overflow or
/// underflow, small enough that digit-count adjustments cannot overflow.
const EXPONENT_CLAMP: i64 = i64::MAX / 4;

/// Significant digits a `u64` always holds.
const MAX_DIGITS: usize = 19;

/// Eight ASCII `'0'` bytes.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// A finite base-10 literal reduced to `± mantissa × 10^exponent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScannedDecimal {
    /// Sign of the literal.
    pub negative: bool,
    /// Up to 19 leading significant digits.
    pub mantissa: u64,
    /// Power of ten scaling `mantissa` (decimal point and dropped integer
    /// digits folded in).
    pub exponent: i64,
    /// Whether a **non-zero** digit beyond the 19 retained ones was
    /// dropped: the true value then lies strictly inside
    /// `(mantissa, mantissa + 1) × 10^exponent`.
    pub truncated: bool,
}

/// Scans a plain finite decimal literal. Returns `None` for anything the
/// fast grammar does not cover (the caller re-parses generally).
pub(crate) fn scan_decimal(bytes: &[u8]) -> Option<ScannedDecimal> {
    // Signs are read without a branch: on mixed-sign columns a branch
    // here mispredicts every other value.
    let first = *bytes.first()?;
    let negative = first == b'-';
    let int_start = usize::from(negative | (first == b'+'));
    let mut mantissa = 0u64;
    let mut i = digit_run(bytes, int_start, &mut mantissa);
    let int_end = i;
    let mut frac_start = i;
    if bytes.get(i) == Some(&b'.') {
        frac_start = i + 1;
        i = digit_run(bytes, frac_start, &mut mantissa);
    }
    let (int, frac) = (&bytes[int_start..int_end], &bytes[frac_start..i]);
    if int.is_empty() && frac.is_empty() {
        return None;
    }
    let mut exponent = -(frac.len() as i64);
    let mut truncated = false;
    if int.len() + frac.len() > MAX_DIGITS && significant_digits(int, frac) > MAX_DIGITS {
        (mantissa, exponent, truncated) = keep_nineteen(int, frac);
    }
    if let Some(&marker) = bytes.get(i) {
        if marker | 0x20 != b'e' {
            return None;
        }
        // `1e` / `1e-` / `1e5x` are malformed: let parse_literal report.
        exponent += exponent_part(&bytes[i + 1..])?;
    }
    Some(ScannedDecimal {
        negative,
        mantissa,
        exponent,
        truncated,
    })
}

/// Consumes the digit run at `i`, eight bytes at a time while eight
/// remain, and returns the index of the first byte that is not a digit.
/// The digits accumulate into `mantissa` modulo `2^64`: exact while the
/// literal has at most 19 significant digits (leading zeros add nothing),
/// and recomputed by [`keep_nineteen`] otherwise.
#[inline]
fn digit_run(bytes: &[u8], mut i: usize, mantissa: &mut u64) -> usize {
    while let Some(v) = block(bytes, i) {
        if !all_digits(v) {
            break;
        }
        *mantissa = mantissa
            .wrapping_mul(100_000_000)
            .wrapping_add(eight_digits(v));
        i += 8;
    }
    while let Some(&c) = bytes.get(i) {
        if !c.is_ascii_digit() {
            break;
        }
        *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        i += 1;
    }
    i
}

/// The digit count of the two runs without their leading zeros.
fn significant_digits(int: &[u8], frac: &[u8]) -> usize {
    let zeros = |run: &[u8]| run.iter().take_while(|&&c| c == b'0').count();
    let int_zeros = zeros(int);
    let leading = if int_zeros == int.len() {
        int_zeros + zeros(frac)
    } else {
        int_zeros
    };
    int.len() + frac.len() - leading
}

/// The per-digit pass for literals past 19 significant digits: keeps the
/// first 19 (leading zeros are free and only move the scale when
/// fractional), drops the rest while keeping the scale right, and reports
/// whether a dropped digit was non-zero. Returns the coefficient, the
/// power of ten from the point and the dropped integer digits, and that
/// sticky bit.
fn keep_nineteen(int: &[u8], frac: &[u8]) -> (u64, i64, bool) {
    let (mut mantissa, mut kept, mut exponent, mut truncated) = (0u64, 0, 0i64, false);
    for (run, fraction) in [(int, false), (frac, true)] {
        for &c in run {
            let d = u64::from(c - b'0');
            if mantissa == 0 && d == 0 {
                if fraction {
                    exponent -= 1;
                }
            } else if kept < MAX_DIGITS {
                mantissa = mantissa * 10 + d;
                kept += 1;
                if fraction {
                    exponent -= 1;
                }
            } else {
                truncated |= d != 0;
                if !fraction {
                    exponent += 1;
                }
            }
        }
    }
    (mantissa, exponent, truncated)
}

/// The eight bytes at `i` as one little-endian word (the first byte in
/// the low lane), or `None` when fewer than eight remain.
#[inline]
fn block(bytes: &[u8], i: usize) -> Option<u64> {
    let chunk = bytes.get(i..)?.first_chunk::<8>()?;
    Some(u64::from_le_bytes(*chunk))
}

/// Whether all eight bytes of `v` are ASCII digits: each lane gets its
/// high bit set by `b + 0x46` when `b > '9'` and by `b − 0x30` when
/// `b < '0'` — two adds and a mask. Carries and borrows only start at a
/// lane that already fails, so no flag at all means eight digits.
#[inline]
fn all_digits(v: u64) -> bool {
    (v.wrapping_add(0x4646_4646_4646_4646) | v.wrapping_sub(ZEROS)) & 0x8080_8080_8080_8080 == 0
}

/// The value of eight ASCII digits, first byte most significant, in three
/// multiplies: pairs, then quads, then the whole.
#[inline]
fn eight_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = v - ZEROS;
    let v = v * 10 + (v >> 8);
    (v & MASK)
        .wrapping_mul(MUL1)
        .wrapping_add(((v >> 16) & MASK).wrapping_mul(MUL2))
        >> 32
}

/// The exponent after an `e`/`E`: an optional sign, then one or more
/// digits and nothing else, clamped to [`EXPONENT_CLAMP`].
fn exponent_part(bytes: &[u8]) -> Option<i64> {
    let first = bytes.first().copied().unwrap_or(0);
    let negative = first == b'-';
    let digits = &bytes[usize::from(negative | (first == b'+'))..];
    if digits.is_empty() {
        return None;
    }
    let mut e: i64 = 0;
    for &c in digits {
        if !c.is_ascii_digit() {
            return None;
        }
        e = e
            .saturating_mul(10)
            .saturating_add(i64::from(c - b'0'))
            .min(EXPONENT_CLAMP);
    }
    Some(if negative { -e } else { e })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(s: &str) -> ScannedDecimal {
        scan_decimal(s.as_bytes()).expect(s)
    }

    #[test]
    fn plain_forms() {
        assert_eq!(
            scan("123"),
            ScannedDecimal {
                negative: false,
                mantissa: 123,
                exponent: 0,
                truncated: false
            }
        );
        assert_eq!(scan("-0.25").mantissa, 25);
        assert_eq!(scan("-0.25").exponent, -2);
        assert!(scan("-0.25").negative);
        assert_eq!(scan("1.e5").exponent, 5);
        assert_eq!(scan(".5e-1"), scan("0.05"));
        assert_eq!(scan("3.").mantissa, 3);
        assert_eq!(scan("+6.02214076e23").exponent, 15);
    }

    #[test]
    fn leading_zeros_do_not_consume_precision() {
        // 0.000…0<19 digits>: all 19 significant digits must be kept.
        let s = format!("0.{}1234567890123456789", "0".repeat(40));
        let sc = scan(&s);
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, -59);
        assert!(!sc.truncated);
    }

    #[test]
    fn leading_zeros_stay_free_past_nineteen_digits() {
        // 20 significant digits behind zeros on both sides of the point:
        // the per-digit pass must keep the first 19 of them.
        let s = format!("0.{}12345678901234567891", "0".repeat(25));
        let sc = scan(&s);
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, -44);
        assert!(sc.truncated);
        let s = format!("{}123456789012345678900.5", "0".repeat(30));
        let sc = scan(&s);
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, 2);
        assert!(sc.truncated);
    }

    #[test]
    fn tail_dropping_tracks_scale_and_stickiness() {
        // 20 digits ending in zero: dropped digit is zero → not truncated,
        // exponent compensates.
        let sc = scan("12345678901234567890");
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, 1);
        assert!(!sc.truncated);
        // Non-zero tail digit → truncated.
        let sc = scan("12345678901234567891");
        assert_eq!(sc.exponent, 1);
        assert!(sc.truncated);
        // Dropped fractional digits do not move the exponent.
        let sc = scan("1.2345678901234567890123");
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, -18);
        assert!(sc.truncated);
    }

    #[test]
    fn rejects_what_parse_literal_owns() {
        for s in [
            "", "+", "-", ".", "e5", "1e", "1e+", "inf", "NaN", "0x10", "1_000", "1.2.3", "5#",
            "1@3", "--1", "1e5x",
        ] {
            assert_eq!(scan_decimal(s.as_bytes()), None, "{s:?}");
        }
    }

    #[test]
    fn huge_exponents_clamp_without_overflow() {
        let sc = scan("1e99999999999999999999999");
        assert!(sc.exponent >= EXPONENT_CLAMP);
        let sc = scan("1e-99999999999999999999999");
        assert!(sc.exponent <= -EXPONENT_CLAMP);
    }

    #[test]
    fn all_digits_flags_any_single_non_digit_byte() {
        // Every byte value in every lane, with digits in the other seven.
        for lane in 0..8 {
            for b in 0..=u8::MAX {
                let mut bytes = *b"31415926";
                bytes[lane] = b;
                let v = u64::from_le_bytes(bytes);
                assert_eq!(all_digits(v), b.is_ascii_digit(), "{bytes:?}");
            }
        }
        for (text, want) in [
            (b"00000000", true),
            (b"99999999", true),
            (b"////////", false),
            (b"::::::::", false),
            (b"\xff\xff\xff\xff\xff\xff\xff\xff", false),
            (b"\0\0\0\0\0\0\0\0", false),
        ] {
            assert_eq!(all_digits(u64::from_le_bytes(*text)), want, "{text:?}");
        }
    }

    #[test]
    fn eight_digits_matches_positional_value() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut texts: Vec<String> = ["00000000", "99999999", "10000000", "00000001", "12345678"]
            .map(String::from)
            .to_vec();
        for _ in 0..10_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            texts.push(format!("{:08}", (x >> 20) % 100_000_000));
        }
        for text in &texts {
            let v = u64::from_le_bytes(text.as_bytes().try_into().unwrap());
            assert_eq!(eight_digits(v), text.parse::<u64>().unwrap(), "{text}");
        }
    }

    #[test]
    fn blocks_respect_the_nineteen_digit_budget() {
        // 8 + 8 + 3 digits fill the window exactly; the next one is dropped.
        let sc = scan("1234567890123456789");
        assert_eq!(
            (sc.mantissa, sc.exponent, sc.truncated),
            (1234567890123456789, 0, false)
        );
        let sc = scan("0.00000000000000001234567890123456789");
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, -35);
        // A point inside a would-be block falls back to single digits.
        assert_eq!(scan("1234.5678901234567890").mantissa, 1234567890123456789);
        assert_eq!(scan("1234.5678901234567890").exponent, -15);
        // Leading zeros that span several blocks before and after the point.
        let s = format!("{}.{}42", "0".repeat(17), "0".repeat(23));
        assert_eq!((scan(&s).mantissa, scan(&s).exponent), (42, -25));
    }

    #[test]
    fn non_ascii_bytes_decline() {
        for s in [
            &b"1234\xff678"[..],
            b"12345678\x80",
            b"\xc2\x801",
            b"1.5e\x80",
        ] {
            assert_eq!(scan_decimal(s), None, "{s:?}");
        }
    }
}
