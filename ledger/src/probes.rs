//! Layer probes for the traced run: every call into a layer's own public
//! functions, below the stable end-to-end API, lives in this one module.
//! That includes the probe surface a later cleanup may shrink
//! (`try_write_fast`, `read_f64_fast`, `fast_path`, `eisel_lemire_f64`,
//! `memo_stats`); removing one of those changes this file only.
//!
//! A probe pass walks the workload's column in chunks. Inside each chunk
//! span, one span per layer times a loop of that layer's function over the
//! chunk (or, for the exact engines, over a fixed sample of it), recording
//! attempts and accepts at the same boundary.

use crate::e2e::{fixed17, warm_formatter};
use crate::host::nproc;
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload};
use fpp_batch::{BatchFormatter, BatchOptions, BatchOutput};
use fpp_bignum::PowerTable;
use fpp_core::{
    free_format_digits, initial_state, render_fixed_into, render_into, DigitStream, Digits,
    DtoaContext, FixedDigits, FreeFormat, Notation, RenderOptions, ScalingStrategy, SliceSink,
    TieBreak,
};
use fpp_float::{FloatFormat, RoundingMode, SoftFloat};
use fpp_reader::{
    eisel_lemire_f64, fast_path, read_f64_exact, read_f64_fast, BatchParseOptions, BatchParser,
};
use std::hint::black_box;

/// Values per chunk span.
const CHUNK: usize = 1 << 16;
/// Values per chunk the exact engines (printer and reader) are timed on.
const EXACT_SAMPLE: usize = 1 << 12;

/// Reusable state of the probe passes.
pub struct Probes<'w> {
    w: &'w Workload,
    free: FreeFormat,
    ctx: DtoaContext,
    serial: BatchFormatter,
    sharded: BatchFormatter,
    serial_parser: BatchParser,
    powers: PowerTable,
    chunk_out: BatchOutput,
    sharded_out: BatchOutput,
    parsed: Vec<f64>,
    memo_hits: u64,
    memo_probes: u64,
    arena_bytes: u64,
    passes: u64,
}

impl<'w> Probes<'w> {
    pub fn new(w: &'w Workload) -> Self {
        Probes {
            w,
            free: FreeFormat::new(),
            ctx: DtoaContext::new(10),
            serial: BatchFormatter::with_options(serial_options()),
            sharded: BatchFormatter::new(),
            serial_parser: BatchParser::with_options(BatchParseOptions {
                threads: Some(1),
                ..BatchParseOptions::default()
            }),
            powers: PowerTable::new(10),
            chunk_out: BatchOutput::new(),
            sharded_out: BatchOutput::new(),
            parsed: Vec::new(),
            memo_hits: 0,
            memo_probes: 0,
            arena_bytes: 0,
            passes: 0,
        }
    }

    /// One probe pass over the whole column.
    pub fn pass(&mut self, t: &mut Tracer) {
        t.next_pass();
        self.passes += 1;
        let root = t.begin("probe.pass");
        let values = &self.w.values;
        let n = values.len() as u64;

        self.sharded = warm_formatter(BatchOptions::default(), values);
        self.serial = warm_formatter(serial_options(), values);
        let before = self.sharded.memo_stats();
        let (sharded, out) = (&mut self.sharded, &mut self.sharded_out);
        t.span("batch.format_sharded", || {
            sharded.format_f64s_sharded(black_box(values), out);
            (n, n, ())
        });
        let after = self.sharded.memo_stats();
        self.memo_hits += after.hits - before.hits;
        self.memo_probes += (after.hits + after.misses) - (before.hits + before.misses);
        self.arena_bytes += self.sharded_out.arena().len() as u64;

        for chunk in values.chunks(CHUNK) {
            let id = t.begin("probe.chunk");
            self.printer_chunk(t, chunk);
            self.reader_chunk(t, chunk);
            self.exact_chunk(t, &chunk[..chunk.len().min(EXACT_SAMPLE)]);
            t.end(id, chunk.len() as u64, chunk.len() as u64);
        }
        t.end(root, n, n);
    }

    fn printer_chunk(&mut self, t: &mut Tracer, chunk: &[f64]) {
        let len = chunk.len() as u64;
        t.span("float.decode", || {
            for &v in chunk {
                black_box(black_box(v).decode());
            }
            (len, len, ())
        });
        let (free, ctx) = (&self.free, &mut self.ctx);
        t.span("core.fastpath", || {
            let mut buf = [0u8; 64];
            let mut accepted = 0;
            for &v in chunk {
                let mut sink = SliceSink::new(&mut buf);
                accepted += u64::from(free.try_write_fast(ctx, &mut sink, black_box(v)));
            }
            (len, accepted, ())
        });
        let (serial, out) = (&mut self.serial, &mut self.chunk_out);
        t.span("batch.format", || {
            serial.format_f64s(black_box(chunk), out);
            (len, len, ())
        });
        if self.w.kind == Kind::Fixed {
            let (fixed, ctx) = (fixed17(), &mut self.ctx);
            t.span("probe.fixed_write", || {
                let mut arena = Vec::with_capacity(chunk.len() * 24);
                for &v in chunk {
                    fixed.write_to(ctx, &mut arena, black_box(v));
                }
                black_box(arena);
                (len, len, ())
            });
        }
    }

    /// Reader tiers on the shortest texts of the chunk (the output of the
    /// serial batch call just made).
    fn reader_chunk(&mut self, t: &mut Tracer, chunk: &[f64]) {
        let len = chunk.len() as u64;
        let (parser, out, parsed) = (&self.serial_parser, &self.chunk_out, &mut self.parsed);
        t.span("reader.batch_parse", || {
            let ok = parser
                .parse_offsets(out.arena(), out.offsets(), parsed)
                .is_ok();
            (len, if ok { len } else { 0 }, ())
        });
        t.span("reader.fast", || {
            let accepted = out.iter().filter(|s| read_f64_fast(black_box(s)).is_some());
            (len, accepted.count() as u64, ())
        });
        let scanned: Vec<(u64, i64)> = out.iter().filter_map(scan_decimal).collect();
        // Both tiers run on every value, so each is defined on every
        // workload; `metrics` weights Lemire by Clinger's rejection share.
        let attempts = scanned.len() as u64;
        t.span("reader.clinger", || {
            let accepted = scanned
                .iter()
                .filter(|&&(digits, exp)| fast_path(black_box(digits), exp).is_some());
            (attempts, accepted.count() as u64, ())
        });
        t.span("reader.lemire", || {
            let accepted = scanned
                .iter()
                .filter(|&&(digits, exp)| eisel_lemire_f64(black_box(digits), exp).is_some());
            (attempts, accepted.count() as u64, ())
        });
        let sample = chunk.len().min(EXACT_SAMPLE);
        t.span("reader.exact", || {
            let ok = out
                .iter()
                .take(sample)
                .filter(|s| read_f64_exact(black_box(s)).is_ok());
            (sample as u64, ok.count() as u64, ())
        });
    }

    /// The exact printing engine, layer by layer, on `sample`.
    fn exact_chunk(&mut self, t: &mut Tracer, sample: &[f64]) {
        let len = sample.len() as u64;
        let softs: Vec<SoftFloat> = sample
            .iter()
            .map(|v| SoftFloat::from_f64(v.abs()).expect("workloads hold non-zero finite values"))
            .collect();
        t.span("core.exact_init", || {
            for sf in &softs {
                black_box(initial_state(black_box(sf)));
            }
            (len, len, ())
        });
        // The stream constructor is Table 1 init plus §3.2 scaling; draining
        // it is digit generation. Both build on `initial_state`, so the
        // differences below isolate each stage.
        let powers = &mut self.powers;
        t.span("probe.stream_start", || {
            for sf in &softs {
                black_box(DigitStream::new(black_box(sf), RoundingMode::NearestEven, powers).k());
            }
            (len, len, ())
        });
        t.span("probe.stream_drain", || {
            for sf in &softs {
                let stream = DigitStream::new(black_box(sf), RoundingMode::NearestEven, powers);
                black_box(stream.count());
            }
            (len, len, ())
        });
        let free: Vec<Digits> = t.span("core.exact_free", || {
            let digits = softs
                .iter()
                .map(|sf| {
                    free_format_digits(
                        black_box(sf),
                        ScalingStrategy::Estimate,
                        RoundingMode::NearestEven,
                        TieBreak::Up,
                        powers,
                    )
                })
                .collect();
            (len, len, digits)
        });
        let fixed = fixed17();
        let fixed_digits: Vec<FixedDigits> = t.span("core.exact_fixed", || {
            let digits = softs.iter().map(|sf| fixed.digits(black_box(sf))).collect();
            (len, len, digits)
        });
        let opts = RenderOptions::default();
        let kind = self.w.kind;
        t.span("core.render", || {
            let mut buf = [0u8; 64];
            match kind {
                Kind::RoundTrip => {
                    for d in &free {
                        let mut sink = SliceSink::new(&mut buf);
                        render_into(&mut sink, &d.digits, d.k, Notation::default(), 10, &opts);
                        black_box(sink.written());
                    }
                }
                Kind::Fixed => {
                    for d in &fixed_digits {
                        let mut sink = SliceSink::new(&mut buf);
                        let layout = d.layout(true);
                        render_fixed_into(&mut sink, &layout, Notation::Scientific, 10, &opts);
                        black_box(sink.written());
                    }
                }
            }
            (len, len, ())
        });
    }

    /// The per-layer metrics, from the span totals of every probe pass.
    /// `e2e` holds the untraced and traced end-to-end throughputs.
    pub fn metrics(&self, t: &Tracer, e2e: (f64, f64), cold: (f64, f64)) -> Vec<Metric> {
        let totals = t.totals();
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let ns = |name: &str| get(name).ns_per_value();
        let n = self.w.values.len();

        let init = ns("core.exact_init");
        let init_scale = ns("probe.stream_start");
        let stream = ns("probe.stream_drain");
        let free = ns("core.exact_free");
        let format = ns("batch.format");
        let sharded = ns("batch.format_sharded");
        // The shard count `format_f64s_sharded` picks for this column.
        let min_shard_len = BatchOptions::default().min_shard_len;
        let threads = nproc().min((n / min_shard_len).max(1)) as f64;
        let (fast, clinger, lemire) = (
            get("reader.fast"),
            get("reader.clinger"),
            get("reader.lemire"),
        );
        let scan = fast.ns_per_value()
            - clinger.ns_per_value()
            - (1.0 - clinger.accept()) * lemire.ns_per_value();
        let passes = self.passes.max(1) as f64;

        let coverage = match self.w.kind {
            Kind::RoundTrip => {
                let fp = get("core.fastpath");
                let printer = fp.ns_per_value() + (1.0 - fp.accept()) * (free + ns("core.render"));
                let reader = fast.ns_per_value() + (1.0 - fast.accept()) * ns("reader.exact");
                (printer + reader) / (format + ns("reader.batch_parse"))
            }
            Kind::Fixed => {
                (ns("float.decode") + ns("core.exact_fixed") + ns("core.render"))
                    / ns("probe.fixed_write")
            }
        };

        let (untraced, traced) = e2e;
        vec![
            Metric::ns("float.decode_ns", ns("float.decode")),
            Metric::ns("core.fastpath_ns", ns("core.fastpath")),
            Metric::share("core.fastpath_accept", get("core.fastpath").accept()),
            Metric::ns("core.exact_init_ns", init),
            Metric::ns("core.exact_scale_ns", init_scale - init),
            Metric::ns("core.exact_generate_ns", stream - init_scale),
            Metric::ns("core.exact_free_ns", free),
            Metric::ns("core.exact_fixed_ns", ns("core.exact_fixed")),
            Metric::ns("core.render_ns", ns("core.render")),
            Metric::ns("batch.format_ns", format),
            Metric::ns("batch.format_sharded_ns", sharded),
            Metric::new(
                "batch.shard_efficiency",
                format / (threads * sharded),
                "ratio",
            ),
            Metric::share(
                "batch.memo_hit_rate",
                self.memo_hits as f64 / self.memo_probes.max(1) as f64,
            ),
            Metric::new(
                "batch.arena_bytes_per_value",
                self.arena_bytes as f64 / (passes * n as f64),
                "B",
            ),
            Metric::ns("reader.fast_ns", fast.ns_per_value()),
            Metric::share("reader.fast_accept", fast.accept()),
            Metric::ns("reader.clinger_ns", clinger.ns_per_value()),
            Metric::share("reader.clinger_accept", clinger.accept()),
            Metric::ns("reader.lemire_ns", lemire.ns_per_value()),
            Metric::share("reader.lemire_accept", lemire.accept()),
            Metric::ns("reader.scan_ns", scan),
            Metric::ns("reader.exact_ns", ns("reader.exact")),
            Metric::ns("reader.batch_parse_ns", ns("reader.batch_parse")),
            Metric::new("core.cold_s", cold.0, "s"),
            Metric::new("reader.cold_s", cold.1, "s"),
            Metric::share("trace.overhead", 1.0 - traced / untraced),
            Metric::new("trace.coverage", coverage, "ratio"),
        ]
    }
}

fn serial_options() -> BatchOptions {
    BatchOptions {
        threads: Some(1),
        ..BatchOptions::default()
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }

    fn ns(name: &'static str, value: f64) -> Self {
        Metric::new(name, value, "ns")
    }

    fn share(name: &'static str, value: f64) -> Self {
        Metric::new(name, value, "share")
    }
}

/// Splits a plain decimal literal (`-?digits[.digits][e-?digits]`) into
/// `(digits, exponent)` with value `digits × 10^exponent` — the input form
/// of the reader's Clinger and Eisel–Lemire tiers. `None` when the
/// coefficient overflows `u64` or the text is not of that shape.
fn scan_decimal(text: &str) -> Option<(u64, i64)> {
    let body = text.strip_prefix('-').unwrap_or(text);
    let (mantissa, exp) = match body.split_once('e') {
        Some((m, e)) => (m, e.parse::<i64>().ok()?),
        None => (body, 0),
    };
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let mut digits = 0u64;
    for b in int.bytes().chain(frac.bytes()) {
        if !b.is_ascii_digit() {
            return None;
        }
        digits = digits.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some((digits, exp - frac.len() as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::generate;

    #[test]
    fn scan_matches_the_literal() {
        assert_eq!(scan_decimal("-1.25e-3"), Some((125, -5)));
        assert_eq!(scan_decimal("0.001"), Some((1, -3)));
        assert_eq!(scan_decimal("1200"), Some((1200, 0)));
        assert_eq!(scan_decimal("1e23"), Some((1, 23)));
        assert_eq!(scan_decimal("99999999999999999999"), None);
        assert_eq!(scan_decimal("NaN"), None);
    }

    #[test]
    fn every_layer_metric_is_reported_and_finite() {
        for name in crate::workloads::NAMES {
            let w = generate(name, 5, 64).unwrap();
            let mut probes = Probes::new(&w);
            let mut t = Tracer::new();
            probes.pass(&mut t);
            let metrics = probes.metrics(&t, (1.0, 1.0), (1e-4, 1e-4));
            assert_eq!(metrics.len(), 27);
            for m in &metrics {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
        }
    }
}
