//! Live-counter reproduction of the paper's distribution tables: replays
//! the duplicate-heavy telemetry workload through the batch engine and
//! regenerates a Table-2-style digit-length/fixup report straight from the
//! `fpp-telemetry` registry, cross-checked against an offline recount.
//!
//! ```bash
//! cargo run -p fpp-bench --release --features telemetry --bin stats_live
//! cargo run -p fpp-bench --release --bin stats_live -- --quick  # CI smoke
//! ```
//!
//! Two passes over the same column:
//!
//! 1. **Histogram pass** — one context, fast tier off, so every value runs
//!    the full digit loop: the live digit-length histogram must match an
//!    offline recount via [`free_format_digits`] exactly, and the §3.2
//!    fixup counters partition the conversions (`exact + fixups =
//!    conversions`, violations = 0).
//! 2. **Engine pass** — the default batch formatter, serial then sharded:
//!    fast-tier count, shard-length histogram and stitch bytes, the way
//!    a production exporter would see them.
//!
//! Results land in `BENCH_telemetry.json` (schema validated by `ci.sh`;
//! `--quick` writes `target/bench-quick/BENCH_telemetry.json` instead).
//! Without `--features telemetry` the binary still runs the same passes and
//! emits the same schema with zeroed counters and `"telemetry_enabled":
//! false` — the cross-checks are only asserted when the counters are live.

use fpp_batch::{BatchFormatter, BatchOutput};
use fpp_bench::workloads::telemetry_column;
use fpp_bignum::PowerTable;
use fpp_core::{free_format_digits, DtoaContext, FreeFormat, ScalingStrategy, TieBreak};
use fpp_float::{RoundingMode, SoftFloat};
use fpp_telemetry::{Counter, Gauge, TelemetrySnapshot, DIGIT_LEN_BUCKETS};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Offline recount of the digit-length histogram: one conversion per
/// distinct bit pattern, weighted by its occurrence count.
fn offline_digit_hist(values: &[f64]) -> [u64; DIGIT_LEN_BUCKETS] {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &v in values {
        *counts.entry(v.to_bits()).or_insert(0) += 1;
    }
    let mut powers = PowerTable::with_capacity(10, 350);
    let mut hist = [0u64; DIGIT_LEN_BUCKETS];
    for (&bits, &count) in &counts {
        let v = f64::from_bits(bits).abs();
        let sf = SoftFloat::from_f64(v).expect("workload is positive finite");
        let d = free_format_digits(
            &sf,
            ScalingStrategy::Estimate,
            RoundingMode::NearestEven,
            TieBreak::Up,
            &mut powers,
        );
        hist[d.digits.len().min(DIGIT_LEN_BUCKETS - 1)] += count;
    }
    hist
}

fn json_array(buckets: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, b) in buckets.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{b}");
    }
    s.push(']');
    s
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 40_000 } else { 1_000_000 };
    let distinct = 2_000usize;
    let enabled = fpp_telemetry::ENABLED;
    let values = telemetry_column(n, distinct);

    // Construct (and warm) every context and formatter *before* resetting
    // the counters: `DtoaContext::warm_up` runs real conversions that would
    // otherwise contaminate the histograms.
    // Pass 1 runs with the fast tier off: its whole point is that *every*
    // value exercises the exact digit loop so the live histogram can be
    // recounted offline.
    let exact = FreeFormat::new().fast_path(false);
    let mut ctx = DtoaContext::new(10);
    ctx.warm_up();
    let mut sink = Vec::with_capacity(32);
    let mut engine = BatchFormatter::new();
    let mut out = BatchOutput::with_capacity(n, n * 18);

    // Pass 1 — histogram: every value through the exact digit loop.
    fpp_telemetry::reset();
    for &v in &values {
        sink.clear();
        exact.write_to(&mut ctx, &mut sink, v);
    }
    let hist_snap = TelemetrySnapshot::capture();

    // The offline recount runs the pipeline again (contaminating the live
    // counters), so it happens strictly after the capture above and before
    // the reset below.
    let offline = offline_digit_hist(&values);
    let histogram_match = !enabled || hist_snap.digit_len == offline;

    // Pass 2 — engine: serial then sharded, production shape.
    fpp_telemetry::reset();
    engine.format_f64s(&values, &mut out);
    engine.format_f64s_sharded(&values, &mut out);
    let engine_snap = TelemetrySnapshot::capture();

    if enabled {
        assert_eq!(
            hist_snap.digit_len, offline,
            "live digit-length histogram diverges from the offline recount"
        );
        assert_eq!(
            hist_snap.get(Counter::CoreConversions),
            n as u64,
            "histogram pass must convert every value"
        );
        assert_eq!(
            hist_snap.get(Counter::CoreScaleExact) + hist_snap.get(Counter::CoreScaleFixups),
            hist_snap.get(Counter::CoreConversions),
            "every conversion records exactly one scale-estimate check"
        );
        for snap in [&hist_snap, &engine_snap] {
            assert_eq!(
                snap.get(Counter::CoreScaleViolations),
                0,
                "§3.2 'within one' contract violated"
            );
        }
        // Pass 1 must never take the fast tier; pass 2 takes it for every
        // value of both the serial and sharded runs, and the exact engine
        // never (the fast tier has no rejection path).
        assert_eq!(
            hist_snap.get(Counter::CoreFastPathHits),
            0,
            "fast tier ran in the exact-engine histogram pass"
        );
        assert_eq!(
            engine_snap.get(Counter::CoreFastPathHits),
            2 * n as u64,
            "every engine-pass value is printed by the fast tier"
        );
        assert_eq!(
            engine_snap.get(Counter::CoreConversions),
            0,
            "the exact engine ran in the engine pass"
        );
    }

    let mean_digits = hist_snap.mean_digits();
    let fixup_rate = hist_snap.fixup_rate();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("live telemetry over {n} values ({distinct} distinct), telemetry_enabled={enabled}\n");
    println!("digit-length histogram (live counters vs offline recount):");
    println!("{:>7} {:>10} {:>10}", "digits", "live", "offline");
    for (len, (&live, &off)) in hist_snap.digit_len.iter().zip(&offline).enumerate() {
        if live > 0 || off > 0 {
            println!("{len:>7} {live:>10} {off:>10}");
        }
    }
    println!("\nmean digits        {mean_digits:.3}");
    println!(
        "scale fixup rate   {fixup_rate:.4}  ({} of {} estimates one low, violations {})",
        hist_snap.get(Counter::CoreScaleFixups),
        hist_snap.get(Counter::CoreScaleExact) + hist_snap.get(Counter::CoreScaleFixups),
        hist_snap.get(Counter::CoreScaleViolations),
    );
    println!(
        "fast tier          {} values",
        engine_snap.get(Counter::CoreFastPathHits),
    );
    println!(
        "scratch arena      {} takes, {} pool misses, pool hwm {}, limb hwm {}",
        engine_snap.get(Counter::ScratchTakes),
        engine_snap.get(Counter::ScratchPoolMisses),
        engine_snap.gauge(Gauge::ScratchPoolHwm),
        engine_snap.gauge(Gauge::ScratchLimbsHwm),
    );
    println!(
        "sharded pass       {} shards, {} stitch bytes",
        engine_snap.get(Counter::BatchShardsRun),
        engine_snap.get(Counter::BatchStitchBytes),
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry_stats\",\n  \"schema_version\": 1,\n  \"quick\": {quick},\n  \"telemetry_enabled\": {enabled},\n  \"threads\": {threads},\n  \"element_count\": {n},\n  \"distinct_values\": {distinct},\n  \"digit_len_hist\": {},\n  \"digit_len_offline\": {},\n  \"histogram_match\": {histogram_match},\n  \"mean_digits\": {mean_digits:.4},\n  \"fixup_rate\": {fixup_rate:.6},\n  \"scale_violations\": {},\n  \"term\": {{\n    \"low\": {},\n    \"high\": {},\n    \"tie\": {},\n    \"tie_round_up\": {}\n  }},\n  \"fastpath\": {{\n    \"hits\": {}\n  }},\n  \"scratch\": {{\n    \"takes\": {},\n    \"puts\": {},\n    \"pool_misses\": {},\n    \"pool_hwm\": {},\n    \"limbs_hwm\": {}\n  }},\n  \"sharded\": {{\n    \"batches\": {},\n    \"shards_run\": {},\n    \"stitch_bytes\": {}\n  }}\n}}\n",
        json_array(&hist_snap.digit_len),
        json_array(&offline),
        hist_snap.get(Counter::CoreScaleViolations),
        hist_snap.get(Counter::CoreTermLow),
        hist_snap.get(Counter::CoreTermHigh),
        hist_snap.get(Counter::CoreTermTie),
        hist_snap.get(Counter::CoreTieRoundUp),
        engine_snap.get(Counter::CoreFastPathHits),
        engine_snap.get(Counter::ScratchTakes),
        engine_snap.get(Counter::ScratchPuts),
        engine_snap.get(Counter::ScratchPoolMisses),
        engine_snap.gauge(Gauge::ScratchPoolHwm),
        engine_snap.gauge(Gauge::ScratchLimbsHwm),
        engine_snap.get(Counter::BatchShardedBatches),
        engine_snap.get(Counter::BatchShardsRun),
        engine_snap.get(Counter::BatchStitchBytes),
    );
    let path = fpp_bench::report_path("BENCH_telemetry.json", quick);
    std::fs::write(&path, json).expect("write BENCH_telemetry.json");
    println!("\nwrote {}", path.display());
}
