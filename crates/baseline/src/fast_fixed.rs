//! Gay's heuristic (§5 of the printing paper): "floating-point arithmetic is
//! sufficiently accurate in most cases when the requested number of digits
//! is small" — a *verified* fast path for fixed conversion.
//!
//! Unlike [`crate::naive_printf`], which uses the same limited-precision
//! technique but reports whatever it computes, this module carries a
//! rigorous error bound through the computation and **proves** each result
//! correct: the 64-bit power-of-ten table entries are correctly rounded
//! (error ≤ 2⁻⁶⁴ relative), the 53×64-bit product is exact in 128 bits, so
//! the accumulated error is below `value · 2⁻⁶⁴`. When the fixed-point
//! fraction lies further than that margin from every rounding boundary the
//! rounded digits are provably the exact ones; otherwise the conversion
//! falls back to the exact big-integer path — "the fixed-format printing
//! algorithm described in this paper is useful when these heuristics fail".

use crate::simple_fixed::simple_fixed_digits;
use fpp_bignum::PowerTable;
use fpp_float::pow10 as table;
use fpp_float::{Decoded, FloatFormat, SoftFloat};

/// `10ⁿ = mantissa × 2^exponent · (1 + δ)`, `|δ| ≤ 2⁻⁶⁴`, with
/// `2⁶³ ≤ mantissa < 2⁶⁴` — correctly rounded from the shared exact table
/// (unlike the deliberately drifty table in [`crate::naive_printf`]).
#[derive(Debug, Clone, Copy)]
struct Pow10 {
    mantissa: u64,
    exponent: i32,
    /// `true` when `10ⁿ` is represented with zero error (then the whole
    /// fixed-point computation is exact and every rounding is decidable,
    /// including ties).
    exact: bool,
}

/// The 64-bit entry for `10ⁿ`, rounded from the truncated 128-bit
/// significand `T[n]` of [`fpp_float::pow10`]: half up on bit 63 of the
/// low word, which is the correct rounding of `10ⁿ` itself because the
/// truncation only dropped bits below it. The entry is exact iff
/// `0 ≤ n ≤ 27` (`5ⁿ < 2⁶⁴`).
fn pow10(n: i32) -> Option<Pow10> {
    if !(table::MIN_EXPONENT..=table::MAX_EXPONENT).contains(&n) {
        return None;
    }
    let t = table::significand(n);
    let exponent = table::floor_log2_pow10(n) - 63;
    let (mantissa, exponent) = match ((t >> 64) as u64).checked_add((t >> 63) as u64 & 1) {
        Some(m) => (m, exponent),
        None => (1 << 63, exponent + 1),
    };
    Some(Pow10 {
        mantissa,
        exponent,
        exact: (0..=27).contains(&n),
    })
}

/// Attempts the provably-correct fast fixed conversion of a positive finite
/// `f64` to `count` (1–18) significant digits.
///
/// Returns `Some((digits, k))` — guaranteed identical to the exact
/// conversion with round-half-even — or `None` when the result is too close
/// to a rounding boundary to verify (the caller falls back to the exact
/// path).
///
/// ```
/// let (digits, k) = fpp_baseline::fast_fixed::fixed_fast(0.125, 3).expect("verifiable");
/// assert_eq!((digits, k), (vec![1, 2, 5], 0));
/// ```
///
/// # Panics
///
/// Panics if `count` is outside `1..=18`.
#[must_use]
pub fn fixed_fast(v: f64, count: u32) -> Option<(Vec<u8>, i32)> {
    assert!((1..=18).contains(&count), "count must be in 1..=18");
    let (mantissa, exponent) = match v.decode() {
        Decoded::Finite {
            negative: false,
            mantissa,
            exponent,
        } => (mantissa, exponent),
        _ => return None,
    };
    let shift = mantissa.leading_zeros();
    let m = mantissa << shift;
    let e2 = exponent - shift as i32;

    const LOG10_2: f64 = std::f64::consts::LOG10_2;
    let mut k = (((e2 + 64) as f64) * LOG10_2).ceil() as i32;
    let limit_hi = 10u64.pow(count);
    let limit_lo = limit_hi / 10;

    for _attempt in 0..3 {
        let p = pow10(count as i32 - k)?;
        let prod = m as u128 * p.mantissa as u128; // exact, 127–128 bits
        let sh = -(e2 + p.exponent);
        if !(2..=126).contains(&sh) {
            return None;
        }
        let integer = (prod >> sh) as u64;
        let frac = prod & ((1u128 << sh) - 1);
        // Error bound: |computed − true| ≤ true·2⁻⁶⁴ ≤ (prod·2⁻⁶⁴ + 1) in
        // the same fixed-point scale; zero when the table entry is exact
        // (the 53×64-bit product itself is always exact).
        let margin = if p.exact { 0 } else { (prod >> 64) + 1 };
        let half = 1u128 << (sh - 1);
        let full = 1u128 << sh;

        // The integer part must be provably exact and the half-comparison
        // provably decided (exact ties are decidable only with margin 0).
        let digit_safe = p.exact || (frac > margin && frac < full - margin);
        let half_safe = p.exact || frac.abs_diff(half) > margin;
        if integer >= limit_hi {
            k += 1;
            continue;
        }
        if integer < limit_lo {
            // Might be a scale misestimate or a true value just below the
            // decade; only trust it when provably exact.
            if !digit_safe {
                return None;
            }
            k -= 1;
            continue;
        }
        if !digit_safe || !half_safe {
            return None;
        }
        let mut d = integer;
        if frac > half || (frac == half && p.exact && d % 2 == 1) {
            d += 1;
        }
        if d == limit_hi {
            // Carry to the next decade: exact power, digits 1000…0.
            let mut digits = vec![0u8; count as usize];
            digits[0] = 1;
            return Some((digits, k + 1));
        }
        let mut digits = vec![0u8; count as usize];
        let mut n = d;
        for slot in digits.iter_mut().rev() {
            *slot = (n % 10) as u8;
            n /= 10;
        }
        return Some((digits, k));
    }
    None
}

/// Fixed conversion via the fast path with exact fallback: always correct,
/// usually cheap.
///
/// ```
/// use fpp_bignum::PowerTable;
/// let mut powers = PowerTable::new(10);
/// let (digits, k) = fpp_baseline::fast_fixed::fixed_fast_or_exact(0.1, 17, &mut powers);
/// let s: String = digits.iter().map(|&d| (b'0' + d) as char).collect();
/// assert_eq!((s.as_str(), k), ("10000000000000001", 0));
/// ```
#[must_use]
pub fn fixed_fast_or_exact(v: f64, count: u32, powers: &mut PowerTable) -> (Vec<u8>, i32) {
    if count <= 18 {
        if let Some(result) = fixed_fast(v, count) {
            return result;
        }
    }
    let sf = SoftFloat::from_f64(v).expect("positive finite");
    simple_fixed_digits(&sf, count, powers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_entries_are_correctly_rounded() {
        // Spot-check against exactly representable powers.
        let p = pow10(0).unwrap();
        assert_eq!((p.mantissa, p.exponent, p.exact), (1 << 63, -63, true));
        let p = pow10(1).unwrap();
        assert_eq!((p.mantissa, p.exponent, p.exact), (10 << 60, -60, true));
        let p = pow10(19).unwrap(); // 10^19 needs 64 bits: exact
        assert_eq!(p.mantissa, 10_000_000_000_000_000_000u64); // exactly 64 bits, no shift
        let p = pow10(27).unwrap(); // 5^27 < 2^64: still exact
        assert_eq!((p.mantissa, p.exact), (5u64.pow(27) << 1, true));
        assert!(!pow10(28).unwrap().exact);
        // And one negative power against f64 (exactly rounded to 53 bits
        // implies agreement of the top 53 bits).
        let p = pow10(-1).unwrap();
        let approx = p.mantissa as f64 * 2f64.powi(p.exponent);
        assert!((approx - 0.1).abs() < 1e-18);
    }

    #[test]
    fn verified_results_match_exact_everywhere() {
        let mut powers = PowerTable::new(10);
        let mut state: u64 = 7;
        let mut fast_hits = 0u32;
        let mut total = 0u32;
        while total < 4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = f64::from_bits(state & 0x7FFF_FFFF_FFFF_FFFF);
            if !v.is_finite() || v == 0.0 {
                continue;
            }
            total += 1;
            for count in [3u32, 9, 17] {
                let sf = SoftFloat::from_f64(v).unwrap();
                let exact = simple_fixed_digits(&sf, count, &mut powers);
                if let Some(fast) = fixed_fast(v, count) {
                    fast_hits += 1;
                    assert_eq!(fast, exact, "{v} at {count} digits");
                }
                let combined = fixed_fast_or_exact(v, count, &mut powers);
                assert_eq!(combined, exact, "{v} at {count} digits (fallback)");
            }
        }
        // The heuristic should verify the overwhelming majority.
        assert!(
            fast_hits as f64 / (3.0 * total as f64) > 0.90,
            "hit rate too low: {fast_hits}/{}",
            3 * total
        );
    }

    #[test]
    fn exact_ties_are_decided_without_fallback() {
        // 2.5 at one digit is an exact tie; the scale 10^(1-1)=1 is exact,
        // so the fast path itself resolves it half-to-even.
        assert_eq!(fixed_fast(2.5, 1), Some((vec![2], 1)));
        assert_eq!(fixed_fast(3.5, 1), Some((vec![4], 1)));
        let mut powers = PowerTable::new(10);
        assert_eq!(fixed_fast_or_exact(2.5, 1, &mut powers), (vec![2], 1));
        assert_eq!(fixed_fast_or_exact(3.5, 1, &mut powers), (vec![4], 1));
        // With an inexact scale a near-tie declines and falls back.
        assert_eq!(fixed_fast_or_exact(0.05, 1, &mut powers).0, vec![5]);
    }

    #[test]
    fn specials_decline() {
        assert_eq!(fixed_fast(f64::NAN, 5), None);
        assert_eq!(fixed_fast(-1.0, 5), None);
        assert_eq!(fixed_fast(0.0, 5), None);
    }

    #[test]
    fn extreme_magnitudes() {
        let mut powers = PowerTable::new(10);
        for v in [f64::MAX, f64::MIN_POSITIVE, f64::from_bits(1), 1e-308] {
            let sf = SoftFloat::from_f64(v).unwrap();
            let exact = simple_fixed_digits(&sf, 17, &mut powers);
            assert_eq!(fixed_fast_or_exact(v, 17, &mut powers), exact, "{v}");
        }
    }
}
