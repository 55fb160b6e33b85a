//! Adversarial parse corpus: literals engineered to sit exactly on (or one
//! sticky digit away from) rounding decision boundaries — the inputs that
//! break approximate readers. Every entry runs through the tiered reader,
//! the exact big-integer oracle, and the standard library, and all three
//! must agree to the bit; entries with a pinned expectation are also
//! asserted against explicit bit patterns.

use fpp::float::{FloatFormat, RoundingMode, F16};
use fpp::reader::{
    read_f32, read_f32_exact, read_f32_fast, read_f64, read_f64_exact, read_f64_fast, read_float,
};

/// Tiered = exact = std, to the bit; returns the agreed value.
fn agree_f64(s: &str) -> f64 {
    let std_v: f64 = s.parse().expect("corpus literal is valid");
    let tiered = read_f64(s).expect("corpus literal is valid");
    let exact = read_f64_exact(s).expect("corpus literal is valid");
    assert_eq!(tiered.to_bits(), std_v.to_bits(), "tiered vs std on {s:?}");
    assert_eq!(exact.to_bits(), std_v.to_bits(), "exact vs std on {s:?}");
    if let Some(fast) = read_f64_fast(s) {
        assert_eq!(fast.to_bits(), std_v.to_bits(), "fast vs std on {s:?}");
    }
    tiered
}

/// `f32` counterpart of [`agree_f64`].
fn agree_f32(s: &str) -> f32 {
    let std_v: f32 = s.parse().expect("corpus literal is valid");
    let tiered = read_f32(s).expect("corpus literal is valid");
    let exact = read_f32_exact(s).expect("corpus literal is valid");
    assert_eq!(tiered.to_bits(), std_v.to_bits(), "tiered vs std on {s:?}");
    assert_eq!(exact.to_bits(), std_v.to_bits(), "exact vs std on {s:?}");
    if let Some(fast) = read_f32_fast(s) {
        assert_eq!(fast.to_bits(), std_v.to_bits(), "fast vs std on {s:?}");
    }
    tiered
}

#[test]
fn exact_halfway_and_near_halfway_values() {
    // 72057594037927933 sits between 2^56 − 8 and 2^56; the nearest double
    // is 2^56 itself (the classic Eisel–Lemire halfway probe).
    assert_eq!(agree_f64("7.2057594037927933e16"), 72057594037927936.0);
    // 2^53 + 1: the first integer that cannot be represented; exactly
    // halfway, ties to 2^53.
    assert_eq!(agree_f64("9007199254740993"), 9007199254740992.0);
    // ...but one sticky digit past the tie must push it up.
    let above = agree_f64("9007199254740993.00000000000000000000000000000001");
    assert_eq!(above, 9007199254740994.0);
    // The exact 53-digit decimal expansion of 1 + 2^-53 (halfway between
    // 1.0 and 1.0 + ε): ties to even at 1.0. Its tail extends past the
    // 19-digit scan window, so this is the canonical bracket-rejection →
    // exact-fallback path.
    let tie = "1.00000000000000011102230246251565404236316680908203125";
    assert_eq!(agree_f64(tie), 1.0);
    // The same expansion with the last digit bumped: above the halfway.
    let above_tie = "1.00000000000000011102230246251565404236316680908203126";
    assert_eq!(agree_f64(above_tie), 1.0 + f64::EPSILON);
    // 1e23: the classic halfway decimal (paper §3.1's motivating example).
    assert_eq!(agree_f64("100000000000000000000000"), 1e23);
    assert_eq!(agree_f64("1e23"), 1e23);
}

#[test]
fn truncated_tail_coefficients() {
    // 19+ significant digits force the scanner to drop the tail; the
    // bracket [w, w+1] must still certify or correctly reject.
    agree_f64("12345678901234567890123456789");
    agree_f64("1.2345678901234567890123456789e-5");
    agree_f64("9999999999999999999999999999999999999999e-20");
    // All-nines: w+1 carries into a new decade — the bracket must survive.
    agree_f64("99999999999999999999");
    agree_f64("9.9999999999999999999999999999999999999999e22");
    // A 40-digit prefix of π scaled across the range.
    for e in [-320, -100, -30, 0, 30, 100, 300] {
        agree_f64(&format!("3.141592653589793238462643383279502884197e{e}"));
    }
}

#[test]
fn subnormal_and_underflow_boundaries() {
    // Smallest normal and its shortest spelling.
    assert_eq!(agree_f64("2.2250738585072014e-308"), f64::MIN_POSITIVE);
    // The famous PHP/Java hang literal: largest double below the smallest
    // normal (all-ones subnormal).
    assert_eq!(
        agree_f64("2.2250738585072011e-308").to_bits(),
        0x000F_FFFF_FFFF_FFFF
    );
    // Smallest subnormal, shortest and long spellings.
    assert_eq!(agree_f64("5e-324").to_bits(), 1);
    assert_eq!(agree_f64("4.9406564584124654e-324").to_bits(), 1);
    // Halfway between 0 and the smallest subnormal is 2^-1075
    // ≈ 2.47…e-324: the shortest 16-digit spelling is just below half
    // (rounds to 0), and a sticky tail above it must produce bits = 1.
    assert_eq!(agree_f64("2.470328229206232e-324").to_bits(), 0);
    assert_eq!(agree_f64("2.4703282292062328e-324").to_bits(), 1);
    assert_eq!(agree_f64("1e-324").to_bits(), 0);
    assert_eq!(agree_f64("3e-324").to_bits(), 1);
    // Deep underflow, including through huge exponents.
    assert_eq!(agree_f64("1e-400"), 0.0);
    assert_eq!(agree_f64("-1e-400").to_bits(), (-0.0f64).to_bits());
}

#[test]
fn overflow_boundaries() {
    assert_eq!(agree_f64("1.7976931348623157e308"), f64::MAX);
    // Halfway between MAX and the next (unrepresentable) double is
    // ≈ 1.7976931348623158079e308; below stays finite, above overflows.
    assert_eq!(agree_f64("1.7976931348623158e308"), f64::MAX);
    assert!(agree_f64("1.7976931348623159e308").is_infinite());
    assert_eq!(agree_f64("1e308"), 1e308);
    assert!(agree_f64("1e309").is_infinite());
    assert!(agree_f64("2e308").is_infinite());
    assert!(agree_f64("123456789e400").is_infinite());
    assert!(agree_f64("-1e309") == f64::NEG_INFINITY);
}

#[test]
fn shortest_subnormal_spellings_round_trip() {
    // The shortest printed form of every 2^k-boundary subnormal must read
    // back exactly: these sit where the Eisel–Lemire subnormal branch does
    // its variable-width shift.
    for k in 0..52u32 {
        let v = f64::from_bits(1u64 << k);
        let s = fpp::print_shortest(v);
        assert_eq!(agree_f64(&s).to_bits(), v.to_bits(), "{s}");
    }
}

#[test]
fn f32_adversarial_cases() {
    // 2^24 + 1: first integer f32 cannot represent; exact halfway, ties to
    // even (2^24).
    assert_eq!(agree_f32("16777217"), 16_777_216.0);
    assert_eq!(agree_f32("16777219"), 16_777_220.0);
    // f32::MAX and the overflow cliff (halfway ≈ 3.4028235677…e38).
    assert_eq!(agree_f32("3.4028235e38"), f32::MAX);
    assert!(agree_f32("3.4028236e38").is_infinite());
    assert!(agree_f32("1e39").is_infinite());
    // Smallest subnormal and the half-of-smallest boundary (2^-150
    // ≈ 7.0064923e-46).
    assert_eq!(agree_f32("1e-45").to_bits(), 1);
    assert_eq!(agree_f32("1.4e-45").to_bits(), 1);
    assert_eq!(agree_f32("7.006492321624085e-46").to_bits(), 0);
    assert_eq!(agree_f32("7.0064923216240854e-46").to_bits(), 1);
    // Smallest normal f32.
    assert_eq!(agree_f32("1.17549435e-38"), f32::MIN_POSITIVE);
    // A truncated-tail f32 literal (exercises the f64-style bracket on the
    // f32 tier).
    agree_f32("3.40282346638528859811704183484516925440e38");
}

#[test]
fn negated_corpus_preserves_bit_symmetry() {
    // Sign handling is orthogonal to rounding: -x must always be the
    // sign-flipped bits of +x.
    for s in [
        "7.2057594037927933e16",
        "2.2250738585072011e-308",
        "4.9406564584124654e-324",
        "2.470328229206232e-324",
        "1.7976931348623157e308",
        "1e309",
        "12345678901234567890123456789",
    ] {
        let pos = agree_f64(s);
        let neg = agree_f64(&format!("-{s}"));
        assert_eq!(
            neg.to_bits(),
            pos.to_bits() ^ (1u64 << 63),
            "sign symmetry broke on {s:?}"
        );
    }
}

/// Halfway, subnormal and overflow literals from the tests above, plus the
/// same boundaries for `f32` and `F16`, for the directed-mode bracket.
const BOUNDARY_CORPUS: &[&str] = &[
    // f64 halfway and near-halfway.
    "7.2057594037927933e16",
    "9007199254740993",
    "9007199254740993.00000000000000000000000000000001",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "100000000000000000000000",
    "1e23",
    // f64 subnormal and underflow.
    "2.2250738585072014e-308",
    "2.2250738585072011e-308",
    "5e-324",
    "4.9406564584124654e-324",
    "2.470328229206232e-324",
    "2.4703282292062328e-324",
    "1e-324",
    "3e-324",
    "1e-400",
    // f64 overflow.
    "1.7976931348623157e308",
    "1.7976931348623158e308",
    "1.7976931348623159e308",
    "1e308",
    "1e309",
    "123456789e400",
    // f32 boundaries.
    "16777217",
    "3.4028235e38",
    "3.4028236e38",
    "1.4e-45",
    "7.006492321624085e-46",
    "7.0064923216240854e-46",
    "1.17549435e-38",
    // F16 boundaries: 2049 ties to 2048; 65520 is halfway past the largest
    // finite 65504; 2^-25 ≈ 2.98e-8 is half the smallest subnormal.
    "2049",
    "2049.0000001",
    "65504",
    "65519.999",
    "65520",
    "2.9802322387695312e-8",
    "2.9802322387695313e-8",
    "6.103515625e-5",
];

/// Reads `s` under `TowardZero`, `NearestEven` and `AwayFromZero` and
/// checks the bracket: the nearest result lies between the two directed
/// results, which are equal (an exact literal) or adjacent. Returns the
/// nearest result.
fn directed_bracket<F: FloatFormat + std::fmt::Debug>(s: &str) -> F {
    let read = |mode| read_float::<F>(s, 10, mode).expect("corpus literal is valid");
    let (toward, near, away) = (
        read(RoundingMode::TowardZero),
        read(RoundingMode::NearestEven),
        read(RoundingMode::AwayFromZero),
    );
    let (lo, hi) = if s.starts_with('-') {
        (away, toward)
    } else {
        (toward, away)
    };
    assert!(
        lo <= near && near <= hi,
        "{s:?}: {lo:?} <= {near:?} <= {hi:?}"
    );
    assert!(
        lo == hi || lo.next_up() == hi,
        "{s:?}: {lo:?}, {hi:?} not adjacent"
    );
    near
}

#[test]
fn directed_modes_bracket_nearest_on_the_boundary_corpus() {
    for &pos in BOUNDARY_CORPUS {
        for s in [pos.to_string(), format!("-{pos}")] {
            let want64: f64 = s.parse().unwrap();
            assert_eq!(
                directed_bracket::<f64>(&s).to_bits(),
                want64.to_bits(),
                "{s}"
            );
            let want32: f32 = s.parse().unwrap();
            assert_eq!(
                directed_bracket::<f32>(&s).to_bits(),
                want32.to_bits(),
                "{s}"
            );
            directed_bracket::<F16>(&s);
        }
    }
}

#[test]
fn f16_boundaries_round_to_nearest_even() {
    let near = |s| directed_bracket::<F16>(s);
    assert_eq!(near("2049"), near("2048"), "tie to even");
    assert_eq!(near("2049.0000001"), near("2050"), "past the tie");
    assert_eq!(near("65519.999"), near("65504"), "below the overflow tie");
    assert_eq!(near("65520"), F16::infinity(false), "the overflow tie");
    assert_eq!(
        near("2.9802322387695312e-8"),
        near("0"),
        "below half the smallest subnormal"
    );
    assert_eq!(
        near("2.9802322387695313e-8"),
        F16::encode(false, 1, F16::MIN_EXP),
        "above half the smallest subnormal"
    );
}
