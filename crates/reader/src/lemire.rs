//! The Eisel–Lemire fast path: correctly rounded `w × 10^q → binary` via
//! one (sometimes two) 64×128-bit truncated multiplications against a
//! table of 128-bit power-of-ten significands (Lemire, *Number Parsing at
//! a Gigabyte per Second*, SPE 2021).
//!
//! The truncated product always decides the rounding, so there is no
//! fallback: Mushtak and Lemire (*Fast Number Parsing Without Fallback*,
//! SPE 2023) show that the discarded tail of the product can never carry
//! into the bits the result is read from. The unit test
//! `truncated_product_always_decides_the_rounding` re-runs that proof over
//! this table, one modular-minimum search per `q`, in exact `fpp-bignum`
//! arithmetic.
//!
//! The 128-bit significands come from the static table shared with the
//! printer, [`fpp_float::pow10`]: `T[q]` for `q ≥ 0` (floor-truncated) and
//! `T[q] + 1` for `q < 0` (a ceiling, since `10^q` is never dyadic there) —
//! exactly the convention the analysis in DESIGN.md §13 assumes. The
//! normalized significand of `10^q` is that of `5^q`.

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

/// The Eisel–Lemire conversion of the non-negative decimal `w × 10^q`
/// into format `F`, rounding to nearest-even. Total on every `u64`
/// coefficient: the result is correctly rounded (the adversarial and
/// differential suites check this bit-for-bit against the exact reader
/// and `str::parse`).
pub(crate) fn eisel_lemire<F: LemireFloat>(w: u64, q: i64) -> F {
    if w == 0 || q < i64::from(F::SMALLEST_POWER) {
        return F::from_biased(0, 0);
    }
    if q > i64::from(F::LARGEST_POWER) {
        return F::infinity(false);
    }
    let q = q as i32;
    let explicit_bits = F::PRECISION as i32 - 1;
    let minimum_exponent = F::MIN_EXP + F::PRECISION as i32 - 2; // −bias
    let infinite_power = F::MAX_EXP - F::MIN_EXP + 2;

    let lz = w.leading_zeros() as i32;
    let w = w << lz;
    let (lo, hi) = compute_product_approx(q, w, (explicit_bits + 3) as u32);
    let upperbit = (hi >> 63) as i32;
    let mut mantissa = hi >> (upperbit + 64 - explicit_bits - 3);
    let mut power2 = pow10::floor_log2_pow10(q) + 63 + upperbit - lz - minimum_exponent;
    if power2 <= 0 {
        // Subnormal range (or complete underflow).
        if -power2 + 1 >= 64 {
            return F::from_biased(0, 0);
        }
        mantissa >>= -power2 + 1;
        mantissa += mantissa & 1; // round up on half
        mantissa >>= 1;
        // Rounding can carry back up into the smallest normal.
        let biased = i32::from(mantissa >= (1u64 << explicit_bits));
        return F::from_biased(mantissa, biased);
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
        return F::infinity(false);
    }
    F::from_biased(mantissa, power2)
}

/// The Eisel–Lemire conversion of `digits × 10^exponent` to a
/// **non-negative** `f64` under round-to-nearest-even, correctly rounded
/// for every `u64` coefficient and every exponent.
///
/// Always `Some`: the tier has no rejection path (see the module docs).
/// The `Option` is kept so existing callers compile unchanged.
///
/// ```
/// assert_eq!(fpp_reader::eisel_lemire_f64(3, -1), Some(0.3));
/// assert_eq!(fpp_reader::eisel_lemire_f64(17976931348623157, 292), Some(f64::MAX));
/// assert_eq!(fpp_reader::eisel_lemire_f64(1, 400), Some(f64::INFINITY));
/// ```
#[must_use]
pub fn eisel_lemire_f64(digits: u64, exponent: i64) -> Option<f64> {
    Some(eisel_lemire::<f64>(digits, exponent))
}

#[cfg(test)]
mod tests {
    use super::*;

    use fpp_bignum::Nat;
    use std::cmp::Ordering;

    /// `min { a·w mod m : 1 ≤ w ≤ n }` for `0 < a < m` and `n ≥ 1`, by the
    /// subtractive Euclid walk behind the three-distance theorem.
    /// `(w_up, up)` holds the smallest residue above zero found so far
    /// (`a·w_up ≡ up`), `(w_down, down)` the smallest distance below a
    /// multiple of `m` (`a·w_down ≡ −down`). Each step takes the smaller
    /// gap from the larger one as often as the gap stays positive and the
    /// multiplier stays within `n`; the walk visits every record minimum.
    fn min_mod_multiple(a: &Nat, m: &Nat, n: u64) -> Nat {
        let (mut w_up, mut up) = (1u64, a.clone());
        let (mut w_down, mut down) = (1u64, m - a);
        loop {
            match up.cmp(&down) {
                Ordering::Greater => {
                    let k = steps(&up, &down).min((n - w_up) / w_down);
                    if k == 0 {
                        return up;
                    }
                    w_up += k * w_down;
                    up -= &down * k;
                }
                Ordering::Less => {
                    let k = steps(&down, &up).min((n - w_down) / w_up);
                    if k == 0 {
                        return up;
                    }
                    w_down += k * w_up;
                    down -= &up * k;
                }
                // a·(w_up + w_down) ≡ 0 (mod m).
                Ordering::Equal => {
                    return match w_up.checked_add(w_down) {
                        Some(w) if w <= n => Nat::zero(),
                        _ => up,
                    };
                }
            }
        }
    }

    /// `⌊(big − 1) / small⌋`: how often `small` can be taken from `big`
    /// leaving it positive, saturated to `u64`.
    fn steps(big: &Nat, small: &Nat) -> u64 {
        let mut b = big.clone();
        b.sub_u64(1);
        u64::try_from(&(&b / small)).unwrap_or(u64::MAX)
    }

    #[test]
    fn min_mod_multiple_matches_brute_force() {
        for m in [2u64, 3, 64, 97, 256, 360, 1024] {
            for a in 1..m {
                for n in [1, 2, 3, 7, m / 3 + 1, m - 1, m, 2 * m + 5] {
                    let brute = (1..=n).map(|w| a * w % m).min().unwrap();
                    let got = min_mod_multiple(&Nat::from(a), &Nat::from(m), n);
                    assert_eq!(got, Nat::from(brute), "a = {a}, m = {m}, n = {n}");
                }
            }
        }
    }

    /// Mushtak–Lemire's no-fallback theorem, re-proved over this table.
    ///
    /// Let `U = w·T` be the 192-bit product of the normalized coefficient
    /// `w < 2^64` with the 128-bit entry `T`, and `X` the exact product on
    /// the same scale. The mantissa and the rounding bit come from the bits
    /// of `U` at and above `B = 137` (the high word shifted right by
    /// `64 − (52 + 3)`, plus `upperbit`; `f32` reads from bit 166, so its
    /// case follows). When the second multiply is skipped, the high word
    /// is short by at most one carry that cannot cross its low nine bits.
    /// So the result is `X`'s whenever no multiple of `2^B` separates `X`
    /// and `U`, which holds for every `w` when:
    /// - `0 ≤ q ≤ 55`: `5^q < 2^128`, the entry is exact and `X = U`;
    /// - `q > 55` (floor entry, `X − U ∈ [0, w)`): `−w·T mod 2^B ≥ 2^64`;
    /// - `q < −27` (ceiling entry, `U − X ∈ (0, w)`): `w·T mod 2^B ≥ 2^64`;
    /// - `−27 ≤ q < 0` (`m = −q`, `T = ⌈2^b / 5^m⌉`): a multiple `j·2^B`
    ///   in `(X, U]` makes `j·2^B·5^m − w·2^b` a positive multiple of
    ///   `2^min(b, B)` below `2^64·(T·5^m − 2^b)`, so that bound must not
    ///   reach `2^min(b, B)`.
    ///
    /// The two modular conditions are one minimum search each over every
    /// `w ∈ [1, 2^64)`, so the theorem covers any `u64` coefficient, not
    /// only 19-digit ones. The round-to-even correction, which also reads
    /// lower bits, runs only inside `q ∈ [−4, 23]` (`f32`: `[−17, 10]`) and
    /// rests on Lemire's exactness argument there.
    #[test]
    fn truncated_product_always_decides_the_rounding() {
        const B: u32 = 128 + 64 - (52 + 3);
        let modulus = &Nat::one() << B;
        let gap = &Nat::one() << 64;
        for q in SMALLEST_POWER_OF_TEN..=LARGEST_POWER_OF_TEN {
            let (hi, lo) = significand(q);
            let t = Nat::from_limbs(vec![lo, hi]);
            let p = Nat::u64_pow(5, q.unsigned_abs());
            if (0..=55).contains(&q) {
                assert_eq!(t, &p << (128 - p.bit_len() as u32), "q = {q}: exact entry");
            } else if (-27..0).contains(&q) {
                let b = p.bit_len() as u32 + 127;
                let slack = &(&t * &p) - &(&Nat::one() << b);
                let bound = &Nat::one() << b.min(B);
                assert!(&slack * &gap < bound, "q = {q}: reciprocal slack too wide");
            } else {
                let a = if q < 0 { t } else { &modulus - &t };
                let min = min_mod_multiple(&a, &modulus, u64::MAX);
                assert!(
                    min >= gap,
                    "q = {q}: a product lies {min} from a 2^{B} boundary"
                );
            }
        }
    }

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
            let got = eisel_lemire::<f32>(w, q);
            assert_eq!(got.to_bits(), expect.to_bits(), "{w}e{q}");
        }
    }
}
