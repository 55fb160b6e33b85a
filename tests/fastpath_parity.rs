//! Byte-for-byte parity of the Schubfach fast tier against the exact
//! Burger–Dybvig engine.
//!
//! The fast tier is *exact by construction*: it answers every value of an
//! eligible configuration, with the same interval tests, endpoint
//! inclusivity and tie rule as the paper's digit loop, so a divergence from
//! the exact engine on any input is a hard bug, not a tolerance question.
//! These tests compare the default (fast-enabled) [`FreeFormat`] against
//! `.fast_path(false)` over pinned, sampled, stratified, exhaustive
//! half-precision and (behind `--ignored`) exhaustive `f32` inputs.
//!
//! ```bash
//! cargo test --release --test fastpath_parity
//! cargo test --release --test fastpath_parity -- --ignored ten_million
//! cargo test --release --test fastpath_parity -- --ignored exhaustive
//! ```

use fpp::core::{FreeFormat, TieBreak};
use fpp::float::{Bf16, FloatFormat, RoundingMode, F16};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::{log_uniform_doubles, uniform_bit_doubles, SchryerSet};
use fpp::{DtoaContext, SliceSink};

/// Comfortably larger than any shortest-form rendering.
const BUF: usize = 64;

/// Renders `v` through both formatters and asserts byte equality,
/// reporting the offending value on failure.
fn check<F: FloatFormat + std::fmt::Debug>(
    ctx: &mut DtoaContext,
    fast: &FreeFormat,
    exact: &FreeFormat,
    v: F,
) {
    let mut fbuf = [0u8; BUF];
    let mut ebuf = [0u8; BUF];
    let mut fsink = SliceSink::new(&mut fbuf);
    fast.write_to(ctx, &mut fsink, v);
    let flen = fsink.written();
    let mut esink = SliceSink::new(&mut ebuf);
    exact.write_to(ctx, &mut esink, v);
    let elen = esink.written();
    assert_eq!(
        std::str::from_utf8(&fbuf[..flen]).unwrap(),
        std::str::from_utf8(&ebuf[..elen]).unwrap(),
        "fast/exact divergence on {v:?} ({fast:?})"
    );
}

/// The `f64` flavour of [`check`], reporting the bit pattern.
fn check_f64(ctx: &mut DtoaContext, fast: &FreeFormat, exact: &FreeFormat, v: f64) {
    let mut fbuf = [0u8; BUF];
    let mut ebuf = [0u8; BUF];
    let mut fsink = SliceSink::new(&mut fbuf);
    fast.write_to(ctx, &mut fsink, v);
    let flen = fsink.written();
    let mut esink = SliceSink::new(&mut ebuf);
    exact.write_to(ctx, &mut esink, v);
    let elen = esink.written();
    assert_eq!(
        std::str::from_utf8(&fbuf[..flen]).unwrap(),
        std::str::from_utf8(&ebuf[..elen]).unwrap(),
        "fast/exact divergence on {v:?} (bits {:#018x}, {fast:?})",
        v.to_bits()
    );
}

/// A stratified f64 column concentrating on the fast path's danger zones:
/// exact powers of two (narrow-gap boundaries), denormals, powers of ten
/// (decimal endpoints like 1e23), neighbors of all of the above, and the
/// format extremes.
fn stratified_f64s() -> Vec<f64> {
    let mut values = Vec::new();
    for e in -1074..=1023i32 {
        let v = 2f64.powi(e);
        if v.is_finite() && v > 0.0 {
            values.push(v);
            values.push(f64::from_bits(v.to_bits() + 1));
            if v.to_bits() > 1 {
                values.push(f64::from_bits(v.to_bits() - 1));
            }
        }
    }
    for k in -308..=308i32 {
        let v = format!("1e{k}").parse::<f64>().unwrap();
        if v.is_finite() && v > 0.0 {
            values.push(v);
            values.push(f64::from_bits(v.to_bits() + 1));
            values.push(f64::from_bits(v.to_bits() - 1));
        }
    }
    // Denormals: the smallest ones and a deterministic scatter across the
    // whole 2^52-wide band.
    for bits in 1..=512u64 {
        values.push(f64::from_bits(bits));
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0xDECADE);
    for _ in 0..2_000 {
        values.push(f64::from_bits(rng.range_inclusive(1, (1 << 52) - 1)));
    }
    values.extend_from_slice(&[
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        1e23,
        6.02214076e23,
        123_456_789.123_456_79,
        2.5,
        9.97,
    ]);
    // Sign symmetry is structural (the digit pipeline sees |v|), but pin a
    // negative slice anyway.
    let negs: Vec<f64> = values.iter().take(64).map(|&v| -v).collect();
    values.extend(negs);
    values
}

#[test]
fn sampled_f64_parity() {
    let mut ctx = DtoaContext::new(10);
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    for v in log_uniform_doubles(0xFA57).take(50_000) {
        check_f64(&mut ctx, &fast, &exact, v);
    }
    for v in uniform_bit_doubles(0xFA58).take(10_000) {
        check_f64(&mut ctx, &fast, &exact, v);
    }
    for v in SchryerSet::new().iter() {
        check_f64(&mut ctx, &fast, &exact, v);
    }
}

#[test]
fn stratified_f64_parity() {
    let mut ctx = DtoaContext::new(10);
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    for v in stratified_f64s() {
        check_f64(&mut ctx, &fast, &exact, v);
    }
}

#[test]
fn sampled_f32_parity() {
    let mut ctx = DtoaContext::new(10);
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    let mut rng = Xoshiro256pp::seed_from_u64(0xF32F32);
    let mut checked = 0usize;
    while checked < 50_000 {
        let bits = (rng.next_u64() & 0x7FFF_FFFF) as u32;
        let v = f32::from_bits(bits);
        if !v.is_finite() {
            continue;
        }
        check(&mut ctx, &fast, &exact, v);
        checked += 1;
    }
    // f32 boundary strata: powers of two and their neighbors.
    for e in -149..=127i32 {
        let v = 2f32.powi(e);
        if v.is_finite() && v > 0.0 {
            check(&mut ctx, &fast, &exact, v);
            check(&mut ctx, &fast, &exact, f32::from_bits(v.to_bits() + 1));
            if v.to_bits() > 1 {
                check(&mut ctx, &fast, &exact, f32::from_bits(v.to_bits() - 1));
            }
        }
    }
}

/// The four nearest-family rounding modes (each with its own endpoint
/// inclusivity) crossed with the three tie-breaking rules: every
/// configuration the fast tier serves.
fn eligible_configurations() -> Vec<FreeFormat> {
    let modes = [
        RoundingMode::NearestEven,
        RoundingMode::NearestAwayFromZero,
        RoundingMode::NearestTowardZero,
        RoundingMode::Conservative,
    ];
    let ties = [TieBreak::Up, TieBreak::Down, TieBreak::Even];
    modes
        .into_iter()
        .flat_map(|mode| {
            ties.into_iter()
                .map(move |tie| FreeFormat::new().rounding(mode).tie_break(tie))
        })
        .collect()
}

/// Parity under every eligible configuration, on `f64` and on an `f32`
/// sample: the fast tier must reproduce each mode's inclusivity and each
/// tie rule exactly.
#[test]
fn nearest_rounding_modes_parity() {
    let mut ctx = DtoaContext::new(10);
    let strata = stratified_f64s();
    for (i, fast) in eligible_configurations().into_iter().enumerate() {
        let exact = fast.clone().fast_path(false);
        for v in log_uniform_doubles(0x40DE + i as u64).take(4_000) {
            check_f64(&mut ctx, &fast, &exact, v);
        }
        for &v in strata.iter().step_by(5) {
            check_f64(&mut ctx, &fast, &exact, v);
        }
        // Exact ties at the last digit: (2^52 + 1)/4 and its kin are
        // s + ½ in units of 10^−1 with both neighbours in range.
        for m in (1u64..64).step_by(2) {
            check_f64(&mut ctx, &fast, &exact, ((1u64 << 52) + m) as f64 / 4.0);
        }
        let mut rng = Xoshiro256pp::seed_from_u64(0xF32 + i as u64);
        for _ in 0..4_000 {
            let v = f32::from_bits((rng.next_u64() % 0x7F80_0000) as u32);
            check(&mut ctx, &fast, &exact, v);
        }
    }
}

/// The fast tier never rejects: `try_write_fast` answers every finite
/// value under every eligible configuration, on the strata, a log-uniform
/// sample and a Schryer slice (every 32nd value in debug, every 4th in
/// release).
#[test]
fn fast_tier_answers_every_finite_value() {
    let mut ctx = DtoaContext::new(10);
    let mut buf = [0u8; BUF];
    let strata = stratified_f64s();
    let step = if cfg!(debug_assertions) { 32 } else { 4 };
    let schryer: Vec<f64> = SchryerSet::new().iter().step_by(step).collect();
    for fast in eligible_configurations() {
        let samples = log_uniform_doubles(0xACC).take(2_000);
        for v in strata.iter().chain(&schryer).copied().chain(samples) {
            let mut sink = SliceSink::new(&mut buf);
            assert!(
                fast.try_write_fast(&mut ctx, &mut sink, v),
                "{v:e} ({fast:?})"
            );
        }
        for bits in (1u32..0x7F80_0000).step_by(0x1_0001) {
            let mut sink = SliceSink::new(&mut buf);
            let v = f32::from_bits(bits);
            assert!(
                fast.try_write_fast(&mut ctx, &mut sink, v),
                "{v:e} ({fast:?})"
            );
        }
    }
}

/// Directed rounding modes reshape the interval, so the fast tier must
/// decline them entirely — and output still matches by construction
/// because both formatters run the exact engine.
#[test]
fn directed_rounding_modes_never_use_fast_path() {
    let mut ctx = DtoaContext::new(10);
    let mut buf = [0u8; BUF];
    for mode in [RoundingMode::TowardZero, RoundingMode::AwayFromZero] {
        let fast = FreeFormat::new().rounding(mode);
        let mut sink = SliceSink::new(&mut buf);
        assert!(
            !fast.try_write_fast(&mut ctx, &mut sink, 0.3f64),
            "fast path must decline directed mode {mode:?}"
        );
    }
}

/// `1e23` sits exactly on a rounding boundary: the fast tier answers it
/// itself, admitting the endpoint exactly when the exact engine does.
#[test]
fn endpoint_values_are_answered_exactly() {
    let mut ctx = DtoaContext::new(10);
    let mut buf = [0u8; BUF];
    for fast in eligible_configurations() {
        let exact = fast.clone().fast_path(false);
        let mut sink = SliceSink::new(&mut buf);
        assert!(
            fast.try_write_fast(&mut ctx, &mut sink, 1e23f64),
            "the fast tier answers 1e23"
        );
        check_f64(&mut ctx, &fast, &exact, 1e23);
        check_f64(&mut ctx, &fast, &exact, -1e23);
    }
    let fast = FreeFormat::new();
    let mut sink = SliceSink::new(&mut buf);
    assert!(fast.try_write_fast(&mut ctx, &mut sink, 1e23f64));
    assert_eq!(sink.as_str(), "1e23");
    // Specials are answered directly (they never reach the digit loops).
    let mut sink = SliceSink::new(&mut buf);
    assert!(fast.try_write_fast(&mut ctx, &mut sink, f64::NAN));
    let mut sink = SliceSink::new(&mut buf);
    assert!(fast.try_write_fast(&mut ctx, &mut sink, f64::INFINITY));
    let mut sink = SliceSink::new(&mut buf);
    assert!(fast.try_write_fast(&mut ctx, &mut sink, -0.0f64));
}

/// Inputs that break careless Schubfach ports, with the exact engine's
/// text pinned:
/// - the smallest subnormals, whose `s = ⌊v/10^k⌋` has one digit (a
///   `s ≥ 100` guard on the shorter candidate prints `4.9e-324`);
/// - `0.1`, whose shorter candidate `10^16 × 10^−17` has 16 zeros to strip;
/// - narrow-gap powers of two (the ¾-wide interval);
/// - `f32` subnormals.
#[test]
fn pinned_inputs_match_the_exact_engine() {
    let mut ctx = DtoaContext::new(10);
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    for (v, text) in [
        (5e-324, "5e-324"),
        (1e-323, "1e-323"),
        (1.5e-323, "1.5e-323"),
        (0.1, "0.1"),
        (1e-7, "1e-7"),
        (2f64.powi(-1022), "2.2250738585072014e-308"),
        (2f64.powi(-1021), "4.450147717014403e-308"),
        (2f64.powi(1023), "8.98846567431158e307"),
        (2f64.powi(60), "1152921504606847000"),
        (9007199254740992.0, "9007199254740992"),
    ] {
        assert_eq!(fast.format(v), text, "{v:e}");
        check_f64(&mut ctx, &fast, &exact, v);
    }
    for e in -1073..=1023 {
        check_f64(&mut ctx, &fast, &exact, 2f64.powi(e));
    }
    for (bits, text) in [
        (1u32, "1e-45"),
        (2, "3e-45"),
        (0x007F_FFFF, "1.1754942e-38"),
    ] {
        assert_eq!(fast.format_f32(f32::from_bits(bits)), text, "{bits:#x}");
    }
    for bits in 1u32..0x0080_0000 {
        if bits < 4096 || bits % 997 == 0 {
            check(&mut ctx, &fast, &exact, f32::from_bits(bits));
        }
    }
}

/// Every half-precision value (binary16 and bfloat16), under every
/// eligible configuration: the formats are small enough to sweep whole.
#[test]
fn exhaustive_half_precision_parity() {
    let mut ctx = DtoaContext::new(10);
    for fast in eligible_configurations() {
        let exact = fast.clone().fast_path(false);
        for bits in 1u16..0x7C00 {
            check(&mut ctx, &fast, &exact, F16::from_bits(bits));
        }
        for bits in 1u16..0x7F80 {
            check(&mut ctx, &fast, &exact, Bf16::from_bits(bits));
        }
    }
}

/// Ten-million-sample f64 parity run (uniform + stratified). ~minutes in
/// release mode; run explicitly with `-- --ignored ten_million`.
#[test]
#[ignore = "long-running; exercised by ci.sh in release mode"]
fn f64_parity_ten_million_samples() {
    let mut ctx = DtoaContext::new(10);
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    let mut checked = 0u64;
    for v in log_uniform_doubles(0x10_000_000).take(8_000_000) {
        check_f64(&mut ctx, &fast, &exact, v);
        checked += 1;
    }
    for v in uniform_bit_doubles(0x10_000_001).take(1_900_000) {
        check_f64(&mut ctx, &fast, &exact, v);
        checked += 1;
    }
    // Stratified remainder: cycle the danger-zone column to fill the quota.
    let strata = stratified_f64s();
    for v in strata.iter().cycle().take(100_000) {
        check_f64(&mut ctx, &fast, &exact, *v);
        checked += 1;
    }
    assert_eq!(checked, 10_000_000);
}

/// Every positive finite f32 — the sweep the paper's correctness claims
/// are usually demonstrated with. Sign handling is orthogonal (the digit
/// pipeline sees `|v|`; the sign is prepended afterwards), so sweeping the
/// positive half covers the digit logic exhaustively.
#[test]
#[ignore = "exhaustive 2^31-ish sweep; run once per release via ci/by hand"]
fn exhaustive_f32_parity_sweep() {
    let mut ctx = DtoaContext::new(10);
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    let mut fbuf = [0u8; BUF];
    let mut ebuf = [0u8; BUF];
    // 0x7F80_0000 is +inf; everything below and above 0 is positive finite.
    for bits in 1u32..0x7F80_0000 {
        let v = f32::from_bits(bits);
        let mut fsink = SliceSink::new(&mut fbuf);
        fast.write_to(&mut ctx, &mut fsink, v);
        let flen = fsink.written();
        let mut esink = SliceSink::new(&mut ebuf);
        exact.write_to(&mut ctx, &mut esink, v);
        let elen = esink.written();
        assert_eq!(
            &fbuf[..flen],
            &ebuf[..elen],
            "fast/exact divergence at f32 bits {bits:#010x} ({v:?})"
        );
    }
}
