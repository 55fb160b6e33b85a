//! Differential tests: the optimized §3 integer pipeline against the §2.2
//! exact rational oracle, against the independent Steele–White baseline,
//! and across all four scaling strategies.
//!
//! Each check runs twice: on a tier-1 slice (every special value plus 50
//! random-bit doubles) and, as an `--ignored` test, on the full sweep
//! (800 random-bit doubles), which `ci.sh` runs in release mode.

use fpp::baseline::steele_white::steele_white_digits;
use fpp::bignum::PowerTable;
use fpp::core::{free_digits_exact, free_format_digits, Inclusivity, ScalingStrategy, TieBreak};
use fpp::float::{RoundingMode, SoftFloat};
use fpp::testgen::{special_values, uniform_bit_doubles};

/// Every special value plus the first `random` random-bit doubles.
fn workload(random: usize) -> Vec<f64> {
    special_values()
        .into_iter()
        .chain(uniform_bit_doubles(11).take(random))
        .collect()
}

/// The tier-1 slice.
fn slice() -> Vec<f64> {
    workload(50)
}

/// The full sweep, run in release mode with `--ignored`.
fn full() -> Vec<f64> {
    workload(800)
}

#[test]
fn integer_pipeline_matches_rational_oracle_base10() {
    rational_oracle_base10(&slice());
}

#[test]
#[ignore = "full sweep; run in release (ci.sh)"]
fn integer_pipeline_matches_rational_oracle_base10_full() {
    rational_oracle_base10(&full());
}

fn rational_oracle_base10(values: &[f64]) {
    let mut powers = PowerTable::new(10);
    for &v in values {
        let sf = SoftFloat::from_f64(v).unwrap();
        for (mode, inc) in [
            (
                RoundingMode::Conservative,
                Inclusivity {
                    low_ok: false,
                    high_ok: false,
                },
            ),
            (
                RoundingMode::NearestEven,
                Inclusivity {
                    low_ok: sf.mantissa_is_even(),
                    high_ok: sf.mantissa_is_even(),
                },
            ),
            (
                RoundingMode::NearestAwayFromZero,
                Inclusivity {
                    low_ok: true,
                    high_ok: false,
                },
            ),
            (
                RoundingMode::NearestTowardZero,
                Inclusivity {
                    low_ok: false,
                    high_ok: true,
                },
            ),
        ] {
            let fast = free_format_digits(
                &sf,
                ScalingStrategy::Estimate,
                mode,
                TieBreak::Up,
                &mut powers,
            );
            let slow = free_digits_exact(&sf, 10, inc, TieBreak::Up);
            assert_eq!(
                (fast.digits, fast.k),
                (slow.digits, slow.k),
                "{v} under {mode:?}"
            );
        }
    }
}

#[test]
fn integer_pipeline_matches_rational_oracle_other_bases() {
    rational_oracle_other_bases(&slice());
}

#[test]
#[ignore = "full sweep; run in release (ci.sh)"]
fn integer_pipeline_matches_rational_oracle_other_bases_full() {
    rational_oracle_other_bases(&full());
}

fn rational_oracle_other_bases(values: &[f64]) {
    for base in [2u64, 3, 7, 16, 36] {
        let mut powers = PowerTable::new(base);
        for &v in values.iter().take(120) {
            let sf = SoftFloat::from_f64(v).unwrap();
            let fast = free_format_digits(
                &sf,
                ScalingStrategy::Estimate,
                RoundingMode::Conservative,
                TieBreak::Up,
                &mut powers,
            );
            let slow = free_digits_exact(
                &sf,
                base,
                Inclusivity {
                    low_ok: false,
                    high_ok: false,
                },
                TieBreak::Up,
            );
            assert_eq!(
                (fast.digits, fast.k),
                (slow.digits, slow.k),
                "{v} base {base}"
            );
        }
    }
}

#[test]
fn all_scaling_strategies_produce_identical_digits() {
    scaling_strategies_agree(&slice());
}

#[test]
#[ignore = "full sweep; run in release (ci.sh)"]
fn all_scaling_strategies_produce_identical_digits_full() {
    scaling_strategies_agree(&full());
}

fn scaling_strategies_agree(values: &[f64]) {
    let mut powers = PowerTable::new(10);
    let strategies = [
        ScalingStrategy::Iterative,
        ScalingStrategy::Log,
        ScalingStrategy::Estimate,
        ScalingStrategy::Gay,
    ];
    for &v in values {
        let sf = SoftFloat::from_f64(v).unwrap();
        let reference = free_format_digits(
            &sf,
            ScalingStrategy::Iterative,
            RoundingMode::NearestEven,
            TieBreak::Up,
            &mut powers,
        );
        for strategy in strategies {
            let got = free_format_digits(
                &sf,
                strategy,
                RoundingMode::NearestEven,
                TieBreak::Up,
                &mut powers,
            );
            assert_eq!(
                (&got.digits, got.k),
                (&reference.digits, reference.k),
                "{v} with {strategy:?}"
            );
        }
    }
}

#[test]
fn matches_independent_steele_white_implementation() {
    steele_white_agrees(&slice());
}

#[test]
#[ignore = "full sweep; run in release (ci.sh)"]
fn matches_independent_steele_white_implementation_full() {
    steele_white_agrees(&full());
}

fn steele_white_agrees(values: &[f64]) {
    // With a conservative rounding assumption, Burger–Dybvig must produce
    // exactly Steele & White's output (the B-D algorithm *is* Steele &
    // White's plus faster scaling and mode awareness).
    let mut powers = PowerTable::new(10);
    for &v in values {
        let sf = SoftFloat::from_f64(v).unwrap();
        let sw = steele_white_digits(&sf, 10);
        let bd = free_format_digits(
            &sf,
            ScalingStrategy::Estimate,
            RoundingMode::Conservative,
            TieBreak::Up,
            &mut powers,
        );
        assert_eq!((sw.digits, sw.k), (bd.digits, bd.k), "{v}");
    }
}

#[test]
fn matches_rust_std_shortest_formatting() {
    std_shortest_agrees(&slice());
}

#[test]
#[ignore = "full sweep; run in release (ci.sh)"]
fn matches_rust_std_shortest_formatting_full() {
    std_shortest_agrees(&full());
}

fn std_shortest_agrees(values: &[f64]) {
    // Rust's `{}` formatting is itself a shortest-round-trip printer with
    // round-to-even semantics, so the digit sequences must agree (layout
    // differs; compare digits and exponent via parsing the digit strings).
    let mut powers = PowerTable::new(10);
    for &v in values {
        let sf = SoftFloat::from_f64(v).unwrap();
        let d = free_format_digits(
            &sf,
            ScalingStrategy::Estimate,
            RoundingMode::NearestEven,
            TieBreak::Up,
            &mut powers,
        );
        let ours: String = d.digits.iter().map(|&x| (b'0' + x) as char).collect();
        let std_sci = format!("{v:e}");
        let (mantissa_part, _) = std_sci.split_once('e').expect("sci format");
        let std_digits: String = mantissa_part.chars().filter(char::is_ascii_digit).collect();
        // Std produces the same shortest digit count; the digit strings are
        // equal up to the tie-breaking of the final digit (std uses
        // closer/even rules identical to ours except on exact printer ties,
        // which are vanishingly rare: assert equality and surface any).
        assert_eq!(ours, std_digits, "{v}");
    }
}
