//! Regression proof of the zero-steady-state-allocation guarantee: after a
//! warm-up pass has grown every recycled buffer in a [`fpp::DtoaContext`] to
//! its high-water mark, converting the whole corpus again through the sink
//! API performs **zero** heap allocations.
//!
//! The proof is a counting `#[global_allocator]` wrapped around the system
//! allocator. The test lives alone in this integration binary so no
//! concurrent test can allocate while the counted region runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fpp::batch::{BatchFormatter, BatchOutput};
use fpp::core::FreeFormat;
use fpp::{write_fixed, write_shortest, DtoaContext, SliceSink};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free to remain untracked: an alloc-free
/// region cannot free what it never obtained).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Normal, denormal and boundary doubles spanning the pipeline's paths:
/// short and 17-digit outputs, positive/negative/huge/tiny exponents, the
/// narrow-gap boundary case, powers of ten, and exact binary fractions.
const CORPUS: &[f64] = &[
    1.0,
    0.1,
    0.3,
    1.0 / 3.0,
    2.5,
    9.97,
    1e23,
    6.02214076e23,
    1e-300,
    1e300,
    123_456_789.123_456_79,
    5e-324,                  // smallest denormal
    2.2250738585072014e-308, // f64::MIN_POSITIVE (narrow-gap boundary)
    1.7976931348623157e308,  // f64::MAX
    0.0009765625,            // exact binary fraction 2^-10
    -0.1,
    -1e23,
    10.0,
    100.0,
    1e10,
    1e-10,
    std::f64::consts::PI,
];

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn sink_conversions_are_allocation_free_after_warm_up() {
    let mut ctx = DtoaContext::new(10);
    let mut buf = [0u8; 512];

    // Warm-up: one pass over the corpus grows the power table, the Table 1
    // registers, the scratch pool and the digit buffer to their high-water
    // marks for these values.
    for &v in CORPUS {
        let mut sink = SliceSink::new(&mut buf);
        write_shortest(&mut ctx, &mut sink, v);
        let mut sink = SliceSink::new(&mut buf);
        write_fixed(&mut ctx, &mut sink, v, 20);
    }

    // Measured pass: the same conversions must not touch the allocator.
    let before = allocations();
    let mut emitted = 0usize;
    for &v in CORPUS {
        let mut sink = SliceSink::new(&mut buf);
        write_shortest(&mut ctx, &mut sink, v);
        emitted += sink.written();
        let mut sink = SliceSink::new(&mut buf);
        write_fixed(&mut ctx, &mut sink, v, 20);
        emitted += sink.written();
    }
    let after = allocations();

    assert!(emitted > 0, "conversions produced output");
    assert_eq!(
        after - before,
        0,
        "steady-state conversions must not allocate"
    );

    // Both routes through `FreeFormat` hold the same bar: the Schubfach
    // fast tier (stack-only by construction) and the exact engine (forced
    // via `.fast_path(false)`), byte-identical to each other.
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    let mut fast_buf = [0u8; 512];
    for &v in CORPUS {
        let mut sink = SliceSink::new(&mut buf);
        fast.write_to(&mut ctx, &mut sink, v);
        let mut sink = SliceSink::new(&mut buf);
        exact.write_to(&mut ctx, &mut sink, v);
    }
    let before = allocations();
    for &v in CORPUS {
        let mut fsink = SliceSink::new(&mut fast_buf);
        fast.write_to(&mut ctx, &mut fsink, v);
        let flen = fsink.written();
        let mut esink = SliceSink::new(&mut buf);
        exact.write_to(&mut ctx, &mut esink, v);
        let elen = esink.written();
        assert_eq!(&fast_buf[..flen], &buf[..elen]);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warmed fast-path and exact-path conversions must not allocate"
    );

    // The batch engine inherits the guarantee: once a formatter and its
    // output have seen one batch of this shape, re-running the batch — the
    // serial path and the CSV/JSON serializer frontends alike —
    // must not touch the allocator. (The sharded path is exempt: spawning
    // scoped threads allocates; its per-shard conversion state is the same
    // recycled machinery proven here.)
    let mut formatter = BatchFormatter::new();
    let mut out = BatchOutput::new();
    let corpus32: Vec<f32> = CORPUS.iter().map(|&v| v as f32).collect();
    let mut csv_buf = [0u8; 2048];
    formatter.format_f64s(CORPUS, &mut out);
    formatter.format_f32s(&corpus32, &mut out);
    {
        let mut sink = SliceSink::new(&mut csv_buf);
        formatter.write_csv(&[("v", CORPUS)], &mut sink);
        let mut sink = SliceSink::new(&mut csv_buf);
        formatter.write_json_lines(CORPUS, &mut sink);
    }

    let before = allocations();
    formatter.format_f64s(CORPUS, &mut out);
    assert_eq!(out.len(), CORPUS.len());
    formatter.format_f32s(&corpus32, &mut out);
    assert_eq!(out.len(), corpus32.len());
    let mut sink = SliceSink::new(&mut csv_buf);
    formatter.write_csv(&[("v", CORPUS)], &mut sink);
    assert!(sink.written() > 0);
    let mut sink = SliceSink::new(&mut csv_buf);
    formatter.write_json_lines(CORPUS, &mut sink);
    assert!(sink.written() > 0);
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "warmed batch formatting must not allocate"
    );
}
