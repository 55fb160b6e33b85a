//! The shared power-of-ten table: 128-bit significands of `10^q` for
//! `q ∈ [MIN_EXPONENT, MAX_EXPONENT]`, checked in as static data.
//!
//! Entry `q` is `T[q] = ⌊10^q × 2^(127 − ⌊q·log2 10⌋)⌋`, the power of ten
//! normalized to `[2^127, 2^128)` and **truncated toward zero**, so that
//! `10^q ≈ T[q] × 2^(⌊q·log2 10⌋ − 127)` with `T[q] ≤ 10^q·2^… < T[q] + 1`.
//! Each user derives the rounding it needs from that one convention:
//!
//! * the Schubfach shortest printer (`fpp-core`) multiplies by
//!   `g = (T[−k] >> 2) + 1`, a 126-bit upper bound of `10^−k`;
//! * the Eisel–Lemire reader (`fpp-reader`) reads `T[q]`, plus one for
//!   `q < 0` (a ceiling: `10^q` is never dyadic there);
//! * the verified fixed-format baseline (`fpp-baseline`) rounds `T[q]` to
//!   64 bits, half up on bit 63.
//!
//! The range covers all three: Eisel–Lemire needs `[−342, 308]`, Schubfach
//! `[−292, 324]` and the fixed baseline `[−344, 350]`.
//!
//! The table is never built at run time. It was generated from exact
//! [`fpp_bignum::Nat`] arithmetic by the ignored `regenerate_table` unit
//! test below (`cargo test -p fpp-float --lib -- --ignored
//! regenerate_table`), and the tier-1 test `every_entry_matches_bignum`
//! recomputes every entry the same way.

mod table;

/// Smallest decimal exponent in the table.
pub const MIN_EXPONENT: i32 = -344;

/// Largest decimal exponent in the table.
pub const MAX_EXPONENT: i32 = 350;

/// The truncated 128-bit significand `T[q]` of `10^q`, normalized to
/// `[2^127, 2^128)`; its binary exponent is [`floor_log2_pow10`]`(q) − 127`.
///
/// ```
/// use fpp_float::pow10;
/// assert_eq!(pow10::significand(0), 1 << 127);
/// assert_eq!(pow10::significand(1), 10 << 124);
/// ```
///
/// # Panics
///
/// Panics if `q` is outside `[MIN_EXPONENT, MAX_EXPONENT]`.
#[inline]
#[must_use]
pub fn significand(q: i32) -> u128 {
    table::SIGNIFICANDS[(q - MIN_EXPONENT) as usize]
}

/// `⌊q · log2 10⌋` for `|q| ≤ 1700` (checked against exact bit lengths by a
/// unit test): the binary exponent of `10^q`'s leading bit.
#[inline]
#[must_use]
pub const fn floor_log2_pow10(q: i32) -> i32 {
    ((q as i64 * 913_124_641_741) >> 38) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpp_bignum::Nat;

    /// `T[q]` from exact big-integer arithmetic, as the module docs define
    /// it: `10^q` shifted into `[2^127, 2^128)` and truncated.
    fn exact_significand(q: i32) -> u128 {
        let value = if q >= 0 {
            let p = Nat::u64_pow(10, q.unsigned_abs());
            let bits = p.bit_len() as u32;
            if bits <= 128 {
                &p << (128 - bits)
            } else {
                &p >> (bits - 128)
            }
        } else {
            // ⌊2^(b+127) / 10^m⌋ with b the bit length of 10^m lies in
            // (2^127, 2^128): 10^m is never a power of two.
            let den = Nat::u64_pow(10, q.unsigned_abs());
            let num = &Nat::one() << (den.bit_len() as u32 + 127);
            num.div_rem(&den).0
        };
        assert_eq!(value.bit_len(), 128, "10^{q} not normalized");
        let limbs = value.limbs();
        u128::from(limbs[1]) << 64 | u128::from(limbs[0])
    }

    #[test]
    fn every_entry_matches_bignum() {
        assert_eq!(
            table::SIGNIFICANDS.len(),
            (MAX_EXPONENT - MIN_EXPONENT + 1) as usize
        );
        for q in MIN_EXPONENT..=MAX_EXPONENT {
            assert_eq!(
                significand(q),
                exact_significand(q),
                "10^{q}: entry differs from the bignum value"
            );
        }
    }

    #[test]
    fn floor_log2_pow10_matches_bit_lengths() {
        for q in -1700..=1700i32 {
            let bits = Nat::u64_pow(10, q.unsigned_abs()).bit_len() as i32;
            // 10^q ∈ [2^(b−1), 2^b) for q ≥ 0; for q < 0, 10^q lies in
            // (2^−b, 2^(1−b)), so its leading bit has weight 2^−b.
            let expected = if q >= 0 { bits - 1 } else { -bits };
            assert_eq!(floor_log2_pow10(q), expected, "q = {q}");
        }
    }

    /// Rewrites `src/pow10/table.rs` from [`exact_significand`].
    #[test]
    #[ignore = "generator for the checked-in table; run by hand"]
    fn regenerate_table() {
        let mut text = String::from(
            "//! Generated by `pow10::tests::regenerate_table` from exact bignum\n\
             //! arithmetic; `pow10::tests::every_entry_matches_bignum` checks it.\n\
             //! Entry `i` is `T[MIN_EXPONENT + i]` (see the parent module).\n\n",
        );
        text += &format!(
            "pub(super) static SIGNIFICANDS: [u128; {}] = [\n",
            MAX_EXPONENT - MIN_EXPONENT + 1
        );
        for q in MIN_EXPONENT..=MAX_EXPONENT {
            text += &format!("    0x{:032x},\n", exact_significand(q));
        }
        text += "];\n";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/pow10/table.rs");
        std::fs::write(path, text).expect("write table");
    }
}
