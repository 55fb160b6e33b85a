//! The end-to-end passes. They call only the stable public API:
//! `format_f64s_sharded`, `parse_offsets`, `FreeFormat::write_to`,
//! `FixedFormat::write_to` and `read_f64`. Layer probes live in
//! `probes.rs`, so a change to the probe surface never touches this file.
//!
//! Every pass is checked outside its timed region. The first bulk pass is
//! checked value by value against the [`Oracle`] and kept as the reference;
//! every later output (bulk or scalar) must match that reference byte for
//! byte and bit for bit.

use crate::oracle::Oracle;
use crate::stats::BestTimes;
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload};
use fpp_batch::{BatchFormatter, BatchOptions, BatchOutput};
use fpp_core::{DtoaContext, FixedFormat, FreeFormat, Notation, SliceSink};
use fpp_reader::{read_f64, BatchParser};
use std::hint::black_box;
use std::time::Instant;

/// Values checked and values that failed a check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A column of texts: `arena[offsets[i]..offsets[i + 1]]` is entry `i`.
#[derive(Debug, Clone, Default)]
pub struct Texts {
    pub arena: Vec<u8>,
    pub offsets: Vec<u32>,
}

impl Texts {
    pub fn get(&self, i: usize) -> &[u8] {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }
}

/// The fixed-format recipe of the `fixed_schryer` workload.
pub fn fixed17() -> FixedFormat {
    FixedFormat::new()
        .significant_digits(17)
        .notation(Notation::Scientific)
}

/// One workload's end-to-end pipeline with its reusable state.
pub struct Pipeline<'w> {
    w: &'w Workload,
    /// Whether each bulk pass gets a new formatter (see [`warm_formatter`]).
    fresh_formatter: bool,
    batch: Option<BatchFormatter>,
    parser: BatchParser,
    out: BatchOutput,
    parsed: Vec<f64>,
    free: FreeFormat,
    fixed: FixedFormat,
    ctx: DtoaContext,
    fixed_out: Texts,
    reference: Option<Texts>,
    oracle: Oracle,
    pub tally: Tally,
}

impl<'w> Pipeline<'w> {
    /// With `fresh_formatter`, every bulk pass meets its column with a
    /// new formatter, as a caller serializing a stream of distinct columns
    /// would; without, one formatter serves every pass, as it does for a
    /// caller's whole process (the memory measurement uses this: it
    /// allocates nothing after the first pass).
    pub fn new(w: &'w Workload, fresh_formatter: bool) -> Self {
        Pipeline {
            w,
            fresh_formatter,
            batch: None,
            parser: BatchParser::new(),
            out: BatchOutput::new(),
            parsed: Vec::new(),
            free: FreeFormat::new(),
            fixed: fixed17(),
            ctx: DtoaContext::new(10),
            fixed_out: Texts::default(),
            reference: None,
            oracle: Oracle::default(),
            tally: Tally::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.w.values.len()
    }

    /// One timed pass of the whole column through the workload's bulk
    /// pipeline, then its check. Returns the timed seconds. With a tracer,
    /// each call into a layer is a span under one `e2e.pass` span.
    pub fn bulk(&mut self, mut tracer: Option<&mut Tracer>) -> f64 {
        if let Some(t) = tracer.as_deref_mut() {
            t.next_pass();
        }
        if self.w.kind == Kind::RoundTrip && (self.fresh_formatter || self.batch.is_none()) {
            self.batch = None; // freed first, so its buffers can be reused
            self.batch = Some(warm_formatter(BatchOptions::default(), &self.w.values));
        }
        let n = self.len() as u64;
        let root = tracer.as_deref_mut().map(|t| t.begin("e2e.pass"));
        let start = Instant::now();
        let parse_ok = match self.w.kind {
            Kind::RoundTrip => {
                let id = tracer.as_deref_mut().map(|t| t.begin("e2e.format_sharded"));
                self.batch
                    .as_mut()
                    .expect("built above")
                    .format_f64s_sharded(black_box(&self.w.values), &mut self.out);
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
                    t.end(id, n, n);
                }
                let id = tracer.as_deref_mut().map(|t| t.begin("e2e.parse_offsets"));
                let ok = self
                    .parser
                    .parse_offsets(self.out.arena(), self.out.offsets(), &mut self.parsed)
                    .is_ok();
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
                    t.end(id, n, if ok { n } else { 0 });
                }
                ok
            }
            Kind::Fixed => {
                let id = tracer.as_deref_mut().map(|t| t.begin("e2e.fixed_write"));
                let texts = &mut self.fixed_out;
                texts.arena.clear();
                texts.offsets.clear();
                texts.offsets.push(0);
                for &v in black_box(&self.w.values) {
                    self.fixed.write_to(&mut self.ctx, &mut texts.arena, v);
                    texts.offsets.push(texts.arena.len() as u32);
                }
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
                    t.end(id, n, n);
                }
                true
            }
        };
        let secs = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracer, root) {
            t.end(id, n, n);
        }
        self.check_bulk(parse_ok);
        secs
    }

    /// The texts the last bulk pass produced.
    fn current(&self) -> (&[u8], &[u32]) {
        match self.w.kind {
            Kind::RoundTrip => (self.out.arena(), self.out.offsets()),
            Kind::Fixed => (&self.fixed_out.arena, &self.fixed_out.offsets),
        }
    }

    fn check_bulk(&mut self, parse_ok: bool) {
        let n = self.len();
        if !parse_ok {
            self.tally.add(n, n);
            return;
        }
        let (arena, offsets) = self.current();
        let failed = match &self.reference {
            None => {
                let texts = Texts {
                    arena: arena.to_vec(),
                    offsets: offsets.to_vec(),
                };
                let failed = check_with_oracle(&mut self.oracle, self.w, &self.parsed, &texts);
                self.reference = Some(texts);
                failed
            }
            Some(_) if offsets.len() != n + 1 => n,
            Some(reference) => (0..n)
                .filter(|&i| {
                    arena.get(offsets[i] as usize..offsets[i + 1] as usize)
                        != Some(reference.get(i))
                        || (self.w.kind == Kind::RoundTrip
                            && self.parsed.get(i).map(|p| p.to_bits())
                                != Some(self.w.values[i].to_bits()))
                })
                .count(),
        };
        self.tally.add(n, failed);
    }

    /// Times each value of `range` through the scalar API into `times`
    /// (raw nanoseconds, timer cost included) and checks each output
    /// against the reference after its timer stops.
    pub fn scalar_sweep(&mut self, range: std::ops::Range<usize>, times: &mut BestTimes) {
        let reference = self.reference.take().expect("a bulk pass has run");
        let mut buf = [0u8; 64];
        let mut failed = 0;
        let count = range.len();
        for i in range {
            let v = self.w.values[i];
            let mut sink = SliceSink::new(&mut buf);
            let ok = match self.w.kind {
                Kind::RoundTrip => {
                    let start = Instant::now();
                    self.free.write_to(&mut self.ctx, &mut sink, black_box(v));
                    let parsed = read_f64(black_box(sink.as_str()));
                    let ns = start.elapsed().as_nanos();
                    times.record(i, u64::try_from(ns).unwrap_or(u64::MAX));
                    parsed.is_ok_and(|p| p.to_bits() == v.to_bits())
                }
                Kind::Fixed => {
                    let start = Instant::now();
                    self.fixed.write_to(&mut self.ctx, &mut sink, black_box(v));
                    let ns = start.elapsed().as_nanos();
                    times.record(i, u64::try_from(ns).unwrap_or(u64::MAX));
                    true
                }
            };
            if !ok || sink.as_bytes() != reference.get(i) {
                failed += 1;
            }
        }
        self.reference = Some(reference);
        self.tally.add(count, failed);
    }

    /// Swaps one digit of the last batch output, parses the damaged arena
    /// and returns how many values the oracle then rejects.
    #[cfg(test)]
    pub fn corrupt_arena_byte_then_check(&mut self, at: usize) -> usize {
        let mut texts = Texts {
            arena: self.out.arena().to_vec(),
            offsets: self.out.offsets().to_vec(),
        };
        texts.arena[at] = if texts.arena[at] == b'7' { b'8' } else { b'7' };
        self.parser
            .parse_offsets(&texts.arena, &texts.offsets, &mut self.parsed)
            .expect("a digit swap still parses");
        check_with_oracle(&mut self.oracle, self.w, &self.parsed, &texts)
    }
}

/// Checks every value of `texts` (and, for round trips, of `parsed`)
/// against the oracle; returns how many failed.
fn check_with_oracle(oracle: &mut Oracle, w: &Workload, parsed: &[f64], texts: &Texts) -> usize {
    let n = w.values.len();
    if texts.len() != n || (w.kind == Kind::RoundTrip && parsed.len() != n) {
        return n;
    }
    (0..n)
        .filter(|&i| {
            let v = w.values[i];
            let ok = match w.kind {
                Kind::RoundTrip => oracle.shortest_ok(v, texts.get(i), parsed[i]),
                Kind::Fixed => oracle.fixed17_ok(v, texts.get(i)),
            };
            !ok
        })
        .count()
}

/// The first conversions of a fresh process: context creation plus
/// printing `values` with the workload's recipe, then reading the texts
/// back. Returns (print seconds, parse seconds). Fixed-format texts are
/// read with `#` as `0`.
pub fn cold_start(kind: Kind, values: &[f64]) -> (f64, f64) {
    let start = Instant::now();
    let mut ctx = DtoaContext::new(10);
    let mut texts = Texts {
        arena: Vec::with_capacity(32 * values.len()),
        offsets: vec![0],
    };
    let (free, fixed) = (FreeFormat::new(), fixed17());
    for &v in values {
        match kind {
            Kind::RoundTrip => free.write_to(&mut ctx, &mut texts.arena, black_box(v)),
            Kind::Fixed => fixed.write_to(&mut ctx, &mut texts.arena, black_box(v)),
        }
        texts.offsets.push(texts.arena.len() as u32);
    }
    let print_s = start.elapsed().as_secs_f64();
    let readable: Vec<String> = (0..texts.len())
        .map(|i| String::from_utf8_lossy(texts.get(i)).replace('#', "0"))
        .collect();
    let start = Instant::now();
    for text in &readable {
        black_box(read_f64(black_box(text)).is_ok());
    }
    (print_s, start.elapsed().as_secs_f64())
}

/// A new formatter, warmed on a column disjoint from `values`, so every
/// timed pass meets its column for the first time (a formatter kept across
/// passes would answer the repeated column's fast-path rejections from its
/// repeat-value memo) while its lazily built shard workers already exist.
pub fn warm_formatter(opts: BatchOptions, values: &[f64]) -> BatchFormatter {
    let warm: Vec<f64> = values
        .iter()
        .take(2 * opts.min_shard_len)
        .map(|v| -v)
        .collect();
    let mut fmt = BatchFormatter::with_options(opts);
    fmt.format_f64s_sharded(&warm, &mut BatchOutput::new());
    fmt
}

/// Cost of one `Instant` reading in ns, subtracted from raw per-value
/// samples so latency figures are the operation's own: the mean of the
/// middle half of many back-to-back readings, so preempted pairs do not
/// count.
pub fn timer_cost_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let mut pairs: Vec<u128> = (0..PAIRS)
        .map(|_| {
            let start = Instant::now();
            black_box(start.elapsed()).as_nanos()
        })
        .collect();
    pairs.sort_unstable();
    let middle = &pairs[PAIRS / 4..PAIRS * 3 / 4];
    middle.iter().sum::<u128>() as f64 / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::generate;

    #[test]
    fn clean_runs_pass_every_check() {
        for name in crate::workloads::NAMES {
            let w = generate(name, 3, 64).unwrap();
            let mut p = Pipeline::new(&w, true);
            p.bulk(None);
            p.bulk(None);
            let mut times = BestTimes::new(w.values.len());
            p.scalar_sweep(0..w.values.len(), &mut times);
            assert_eq!(p.tally.failed, 0, "{name}");
            assert_eq!(p.tally.attempted, 3 * w.values.len() as u64, "{name}");
            assert_eq!(times.samples(), w.values.len() as u64);
        }
    }

    #[test]
    fn one_corrupted_arena_byte_is_caught() {
        let w = generate("shortest_uniform", 3, 64).unwrap();
        let mut p = Pipeline::new(&w, true);
        p.bulk(None);
        assert_eq!(p.tally.failed, 0);
        // A digit in the middle of the arena.
        let at = p.out.arena()[1000..]
            .iter()
            .position(u8::is_ascii_digit)
            .unwrap()
            + 1000;
        let failed = p.corrupt_arena_byte_then_check(at);
        assert!(failed > 0, "corruption must raise fail_rate above 0");
    }
}
