//! Whole-workload sweeps: convert every value in a set, timed, with results
//! consumed through a black box (the paper printed to `/dev/null` "to
//! factor out I/O performance"; a black-boxed digit sink is the modern
//! equivalent).

use fpp_baseline::naive_printf::naive_digits;
use fpp_baseline::simple_fixed::simple_fixed_digits;
use fpp_bignum::{PowerTable, Scratch};
use fpp_core::{free_format_digits, initial_state, ScalingStrategy, TieBreak};
use fpp_float::{RoundingMode, SoftFloat};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Result of sweeping one conversion routine over a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Wall-clock time for the full sweep.
    pub elapsed: Duration,
    /// Number of values converted.
    pub conversions: usize,
    /// Total digits produced (significant digits only).
    pub digits: u64,
}

impl SweepOutcome {
    /// Mean digits per conversion (the paper reports 15.2 for free format
    /// over the Schryer set).
    #[must_use]
    pub fn mean_digits(&self) -> f64 {
        self.digits as f64 / self.conversions as f64
    }

    /// Nanoseconds per conversion.
    #[must_use]
    pub fn ns_per_conversion(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.conversions as f64
    }
}

/// Times free-format (shortest, correctly rounded) conversion of every
/// value to base 10 with the given scaling strategy and IEEE unbiased input
/// rounding — the configuration of the paper's Table 2 and the free-format
/// column of Table 3.
#[must_use]
pub fn sweep_free(values: &[f64], strategy: ScalingStrategy) -> SweepOutcome {
    let mut powers = PowerTable::with_capacity(10, 350);
    let mut digits_total: u64 = 0;
    let start = Instant::now();
    for &v in values {
        let sf = SoftFloat::from_f64(v).expect("workloads contain positive finite values");
        let d = free_format_digits(
            &sf,
            strategy,
            RoundingMode::NearestEven,
            TieBreak::Up,
            &mut powers,
        );
        digits_total += black_box(&d).digits.len() as u64;
    }
    SweepOutcome {
        elapsed: start.elapsed(),
        conversions: values.len(),
        digits: digits_total,
    }
}

/// Times the full sink pipeline: shortest round-tripping *text* (not just
/// digits) written into one recycled stack buffer through a warm
/// [`fpp_core::DtoaContext`] — the zero-allocation configuration. Contrast
/// with [`sweep_shortest_strings`], which allocates a `String` per value.
#[must_use]
pub fn sweep_shortest_sink(values: &[f64]) -> SweepOutcome {
    let mut ctx = fpp_core::DtoaContext::new(10);
    let mut buf = [0u8; 64];
    let mut bytes_total: u64 = 0;
    let start = Instant::now();
    for &v in values {
        let mut sink = fpp_core::SliceSink::new(&mut buf);
        fpp_core::write_shortest(&mut ctx, &mut sink, v);
        bytes_total += black_box(sink.as_bytes()).len() as u64;
    }
    SweepOutcome {
        elapsed: start.elapsed(),
        conversions: values.len(),
        digits: bytes_total,
    }
}

/// Times the legacy `String` pipeline for the same conversions as
/// [`sweep_shortest_sink`]: one `String` (and its intermediate buffers)
/// allocated per value.
#[must_use]
pub fn sweep_shortest_strings(values: &[f64]) -> SweepOutcome {
    let mut bytes_total: u64 = 0;
    let start = Instant::now();
    for &v in values {
        let s = fpp_core::print_shortest(v);
        bytes_total += black_box(&s).len() as u64;
    }
    SweepOutcome {
        elapsed: start.elapsed(),
        conversions: values.len(),
        digits: bytes_total,
    }
}

/// Times the *scaling phase alone* (Table 1 initialisation + finding `k`
/// and rescaling) for every value — the quantity the paper's Table 2
/// isolates. Digit generation, which costs the same under every strategy,
/// is excluded.
#[must_use]
pub fn sweep_scale_only(values: &[f64], strategy: ScalingStrategy) -> SweepOutcome {
    let mut powers = PowerTable::with_capacity(10, 350);
    let start = Instant::now();
    for &v in values {
        let sf = SoftFloat::from_f64(v).expect("workloads contain positive finite values");
        let mut st = initial_state(&sf);
        let k = strategy.scale_in(&mut st, &sf, false, &mut powers, &mut Scratch::new());
        black_box((&st, k));
    }
    SweepOutcome {
        elapsed: start.elapsed(),
        conversions: values.len(),
        digits: 0,
    }
}

/// Times Table 1 state construction alone — the work shared by every
/// scaling strategy, reported so Table 2's ratios can be read net of it.
#[must_use]
pub fn sweep_state_only(values: &[f64]) -> SweepOutcome {
    let start = Instant::now();
    for &v in values {
        let sf = SoftFloat::from_f64(v).expect("workloads contain positive finite values");
        black_box(initial_state(&sf));
    }
    SweepOutcome {
        elapsed: start.elapsed(),
        conversions: values.len(),
        digits: 0,
    }
}

/// Times the straightforward fixed-format baseline at 17 significant digits
/// (Table 3's middle column).
#[must_use]
pub fn sweep_fixed_seventeen(values: &[f64]) -> SweepOutcome {
    let mut powers = PowerTable::with_capacity(10, 350);
    let mut digits_total: u64 = 0;
    let start = Instant::now();
    for &v in values {
        let sf = SoftFloat::from_f64(v).expect("workloads contain positive finite values");
        let (d, k) = simple_fixed_digits(&sf, 17, &mut powers);
        digits_total += black_box(&(d, k)).0.len() as u64;
    }
    SweepOutcome {
        elapsed: start.elapsed(),
        conversions: values.len(),
        digits: digits_total,
    }
}

/// Times the naive `printf`-style converter at 17 significant digits
/// (Table 3's `printf` column).
#[must_use]
pub fn sweep_naive_printf(values: &[f64]) -> SweepOutcome {
    let mut digits_total: u64 = 0;
    let start = Instant::now();
    for &v in values {
        let d = naive_digits(v, 17).expect("workloads contain positive finite values");
        digits_total += black_box(&d).digits.len() as u64;
    }
    SweepOutcome {
        elapsed: start.elapsed(),
        conversions: values.len(),
        digits: digits_total,
    }
}

/// Counts the values whose naive 17-digit output differs from the exact
/// conversion — Table 3's "incorrect" column.
#[must_use]
pub fn count_naive_incorrect(values: &[f64]) -> usize {
    let mut powers = PowerTable::with_capacity(10, 350);
    values
        .iter()
        .filter(|&&v| {
            let naive = naive_digits(v, 17).expect("positive finite");
            let sf = SoftFloat::from_f64(v).expect("positive finite");
            let (exact, k) = simple_fixed_digits(&sf, 17, &mut powers);
            naive.digits != exact || naive.k != k
        })
        .count()
}

/// Counts free-format outputs that fail to read back as the original value
/// through the standard library parser — Table 3's "incorrect" column for
/// our own printer (provably zero; measured anyway).
#[must_use]
pub fn count_free_roundtrip_failures(values: &[f64]) -> usize {
    let mut powers = PowerTable::with_capacity(10, 350);
    values
        .iter()
        .filter(|&&v| {
            let sf = SoftFloat::from_f64(v).expect("positive finite");
            let d = free_format_digits(
                &sf,
                ScalingStrategy::Estimate,
                RoundingMode::NearestEven,
                TieBreak::Up,
                &mut powers,
            );
            let s = fpp_core::render(&d, fpp_core::Notation::Scientific);
            s.parse::<f64>().map(|x| x != v).unwrap_or(true)
        })
        .count()
}

/// Counts straightforward-fixed 17-digit outputs that fail to read back
/// (17 digits always distinguish doubles, so this is also provably zero).
#[must_use]
pub fn count_fixed_roundtrip_failures(values: &[f64]) -> usize {
    let mut powers = PowerTable::with_capacity(10, 350);
    values
        .iter()
        .filter(|&&v| {
            let sf = SoftFloat::from_f64(v).expect("positive finite");
            let (digits, k) = simple_fixed_digits(&sf, 17, &mut powers);
            let d = fpp_core::Digits { digits, k };
            let s = fpp_core::render(&d, fpp_core::Notation::Scientific);
            s.parse::<f64>().map(|x| x != v).unwrap_or(true)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Vec<f64> {
        fpp_testgen::special_values()
    }

    #[test]
    fn sweeps_run_and_count() {
        let w = tiny_workload();
        let free = sweep_free(&w, ScalingStrategy::Estimate);
        assert_eq!(free.conversions, w.len());
        assert!(free.digits > 0);
        assert!(free.mean_digits() > 1.0 && free.mean_digits() < 17.5);

        let fixed = sweep_fixed_seventeen(&w);
        assert_eq!(fixed.digits, 17 * w.len() as u64);

        let naive = sweep_naive_printf(&w);
        assert_eq!(naive.digits, 17 * w.len() as u64);
    }

    #[test]
    fn strategies_all_work_on_workload() {
        let w = tiny_workload();
        let a = sweep_free(&w, ScalingStrategy::Iterative);
        let b = sweep_free(&w, ScalingStrategy::Log);
        let c = sweep_free(&w, ScalingStrategy::Estimate);
        let d = sweep_free(&w, ScalingStrategy::Gay);
        // Identical digit totals: all strategies produce identical output.
        assert_eq!(a.digits, b.digits);
        assert_eq!(b.digits, c.digits);
        assert_eq!(c.digits, d.digits);
    }

    #[test]
    fn sink_sweep_matches_string_sweep() {
        let w = tiny_workload();
        let sink = sweep_shortest_sink(&w);
        let strings = sweep_shortest_strings(&w);
        assert_eq!(sink.conversions, strings.conversions);
        // Identical bytes out of both pipelines, so identical totals.
        assert_eq!(sink.digits, strings.digits);
        // And spot-check the actual text agrees value by value.
        let mut ctx = fpp_core::DtoaContext::new(10);
        let mut buf = [0u8; 64];
        for &v in &w {
            let mut s = fpp_core::SliceSink::new(&mut buf);
            fpp_core::write_shortest(&mut ctx, &mut s, v);
            assert_eq!(s.as_str(), fpp_core::print_shortest(v), "{v}");
        }
    }

    #[test]
    fn incorrect_count_is_sane() {
        let w = tiny_workload();
        let wrong = count_naive_incorrect(&w);
        assert!(wrong <= w.len());
    }
}
