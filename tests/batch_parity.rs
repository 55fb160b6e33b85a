//! Byte-for-byte parity of the batch engine against the per-value API.
//!
//! Every batch path — serial, sharded at several thread counts, and the
//! per-value/serializer frontends — must reproduce [`fpp::print_shortest`]'s
//! exact bytes over the Schryer hard cases, a log-uniform column of
//! essentially distinct values, the special-value gallery
//! (signed zeros, subnormals, infinities, NaN), duplicate-heavy columns, and
//! the inputs the earlier Grisu tier rejected. Buffer-reuse stability is
//! asserted here too; the steady-state *zero-allocation* proof lives with the
//! counting global allocator in `tests/alloc_count.rs`.

use fpp::batch::{BatchFormatter, BatchOptions, BatchOutput};
use fpp::testgen::{log_uniform_doubles, special_values, SchryerSet};
use fpp::{print_shortest, FreeFormat};

/// Schryer workload, subsampled so the debug-profile run stays quick while
/// release CI covers a denser slice.
fn schryer_workload() -> Vec<f64> {
    let step = if cfg!(debug_assertions) { 32 } else { 4 };
    SchryerSet::new()
        .collect()
        .into_iter()
        .step_by(step)
        .collect()
}

/// Log-uniform doubles, essentially all distinct: the raw-conversion
/// column shape, sized like [`schryer_workload`].
fn log_uniform_workload() -> Vec<f64> {
    let n = if cfg!(debug_assertions) {
        8_000
    } else {
        60_000
    };
    log_uniform_doubles(42).take(n).collect()
}

/// Special values plus their negations: signed zeros, subnormal boundary
/// cases, infinities and NaN (policy: `NaN`, `inf`, `-inf`, `-0`).
fn specials() -> Vec<f64> {
    let mut vals = special_values();
    vals.extend(special_values().iter().map(|v| -v));
    vals.extend([0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE, f64::MAX]);
    vals
}

/// A formatter whose sharded path really shards, regardless of host cores.
fn sharded_formatter(threads: usize) -> BatchFormatter {
    BatchFormatter::with_options(BatchOptions {
        threads: Some(threads),
        min_shard_len: 8,
    })
}

fn assert_parity(values: &[f64], out: &BatchOutput, label: &str) {
    assert_eq!(out.len(), values.len(), "{label}: entry count");
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(
            out.get(i),
            print_shortest(v),
            "{label}: index {i} (bits {:#x})",
            v.to_bits()
        );
    }
}

/// Serial batch output equals `print_shortest` on the Schryer slice and
/// on a log-uniform column.
#[test]
fn serial_batch_matches_print_shortest_on_schryer() {
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    for (label, values) in [
        ("serial schryer", schryer_workload()),
        ("serial log-uniform", log_uniform_workload()),
    ] {
        fmt.format_f64s(&values, &mut out);
        assert_parity(&values, &out, label);
    }
}

#[test]
fn sharded_batch_matches_serial_at_any_thread_count() {
    for (label, values) in [
        ("schryer", schryer_workload()),
        ("log-uniform", log_uniform_workload()),
    ] {
        let mut serial = BatchOutput::new();
        BatchFormatter::new().format_f64s(&values, &mut serial);
        for threads in [1, 2, 3, 7] {
            let mut fmt = sharded_formatter(threads);
            let mut out = BatchOutput::new();
            fmt.format_f64s_sharded(&values, &mut out);
            assert_eq!(
                serial.arena(),
                out.arena(),
                "{label}: sharded({threads}) arena differs from serial"
            );
            assert_eq!(
                serial.offsets(),
                out.offsets(),
                "{label}: sharded({threads}) offsets"
            );
        }
    }
}

#[test]
fn special_values_follow_the_per_value_policy() {
    let values = specials();
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f64s(&values, &mut out);
    assert_parity(&values, &out, "specials serial");

    // Twice, so the second pass runs on the reused context and arena.
    fmt.format_f64s(&values, &mut out);
    assert_parity(&values, &out, "specials reused");

    let mut sharded = sharded_formatter(3);
    let mut out_sh = BatchOutput::new();
    sharded.format_f64s_sharded(&values, &mut out_sh);
    assert_parity(&values, &out_sh, "specials sharded");
}

#[test]
fn duplicate_heavy_columns_match_print_shortest() {
    // 40 distinct values repeated 500 times each, interleaved.
    let pool: Vec<f64> = SchryerSet::new().iter().step_by(977).take(40).collect();
    let values: Vec<f64> = (0..20_000).map(|i| pool[(i * 7 + i / 13) % 40]).collect();
    let mut out = BatchOutput::new();
    BatchFormatter::new().format_f64s(&values, &mut out);
    assert_parity(&values, &out, "duplicate-heavy serial");
    sharded_formatter(3).format_f64s_sharded(&values, &mut out);
    assert_parity(&values, &out, "duplicate-heavy sharded");
}

/// Inputs the Grisu-style fast tier that preceded Schubfach could not
/// decide and sent to the exact engine: a Schryer slice, `1e23`, `±5e-324`
/// and a subnormal scatter (`f64` bit patterns), and an `f32` spread.
/// They stay pinned as the batch frontends' hardest cases.
const GRISU_REJECTED_F64: [u64; 79] = [
    0x0270000000000004,
    0x0410000000000000,
    0x04e0100000000000,
    0x13affffffffffffe,
    0x18dbffffffffffff,
    0x1a40000000010000,
    0x2040000000ff0000,
    0x2060000010000000,
    0x24a0000000100000,
    0x2790000000004000,
    0x282ffffffffeffff,
    0x2a41000000000000,
    0x2c1ffffffffffbff,
    0x306ffeffffffffff,
    0x31bfffbfffffffff,
    0x3470000000000004,
    0x35d0004000000000,
    0x3f80010000000000,
    0x40f00000ff000000,
    0x4230000000000400,
    0x431ffffffffffbff,
    0x431ffbffffffffff,
    0x435ffffffffffffb,
    0x435ffffbffffffff,
    0x4360000010000000,
    0x48a0000000100000,
    0x48a000ff00000000,
    0x4c8fffffffefffff,
    0x4fcfffffffffefff,
    0x54dbffffffffffff,
    0x5f20000000000010,
    0x6390000000004000,
    0x68ffffffbfffffff,
    0x69cfefffffffffff,
    0x6ac0000100000000,
    0x6c4fffffefffffff,
    0x6c80000000000100,
    0x7200000001000000,
    0x72ffffffbfffffff,
    0x7bffffffbfffffff,
    0x7fe0000000001000,
    0x0009a0dc76e314bc,
    0x000f365374bda305,
    0x000b9e8fed5fc5cf,
    0x000c3b5c0eb28bb2,
    0x000c009d874b5876,
    0x000c62ab2136eb1d,
    0x00094064a8a7745f,
    0x000905a621404123,
    0x0009dd30c9fa3a41,
    0x000dfe50fdc80989,
    0x000f72a7c7d4c88a,
    0x000b035997bcf236,
    0x000bdae44076eb54,
    0x000c77b061c9b137,
    0x000c3cf1da627dfb,
    0x000c9eff744e10a2,
    0x0008dfecda6bd401,
    0x00097cb8fbbe99e4,
    0x00011f2c81f27ad5,
    0x000941fa745766a8,
    0x000e3aa550df2f0e,
    0x0009a4080e42f94f,
    0x000faefc1aebee0f,
    0x000b3fadead417bb,
    0x000c1738938e10d9,
    0x000cb404b4e0d6bc,
    0x000c79462d79a380,
    0x000cdb53c7653627,
    0x00091c412d82f986,
    0x0009b90d4ed5bf69,
    0x00015b80d509a05a,
    0x0009e05c615a1ed4,
    0x000feb506e031394,
    0x000b7c023deb3d40,
    0x000cf05907f7fc41,
    0x000bde0fd7d6cfe7,
    0x000cb59a8090c905,
    0x44b52d02c7e14af6,
];

/// See [`GRISU_REJECTED_F64`].
const GRISU_REJECTED_F32: [u32; 40] = [
    0xcc623af3, 0xc6ef3720, 0x49e79dba, 0xc981d9c2, 0xcce00454, 0x4a65671b, 0xcc147c64, 0x4dc391ad,
    0xcc9245c5, 0xcddb9716, 0xcd100f26, 0xc8e65ca4, 0x488098ac, 0xca2fadf5, 0xc9e1ef66, 0xcc749208,
    0xca5fb8c7, 0xccf25b69, 0xcc26d379, 0xcca49cda, 0x4c3ed8e2, 0xc87aea58, 0x4a29ffa1, 0x4cbca243,
    0x47499e70, 0x49dc4112, 0x4a5a0a73, 0xc8dafffc, 0xca24514d, 0x4c512ff7, 0xc9d692be, 0x4ccef958,
    0xcc693560, 0xca545c1f, 0x4c037168, 0xcce6fec1, 0x4c813ac9, 0xcc1b76d1, 0x4dca8c1a, 0xcc994032,
];

#[test]
fn fast_tier_rejections_match_the_per_value_printer() {
    let values: Vec<f64> = GRISU_REJECTED_F64
        .iter()
        .map(|&b| f64::from_bits(b))
        .collect();
    assert!(values.contains(&1e23));
    assert!(
        values.iter().any(|v| v.abs() < f64::MIN_POSITIVE),
        "no subnormal rejections"
    );

    let mut fmt = BatchFormatter::new();
    let mut csv = Vec::new();
    fmt.write_csv(&[("v", &values[..])], &mut csv);
    let mut expected_csv = b"v\n".to_vec();
    for &v in &values {
        let mut one = Vec::new();
        fmt.format_one_f64(v, &mut one);
        assert_eq!(one, print_shortest(v).as_bytes(), "format_one_f64({v:e})");
        expected_csv.extend_from_slice(print_shortest(v).as_bytes());
        expected_csv.push(b'\n');
    }
    assert_eq!(csv, expected_csv, "write_csv");

    let free = FreeFormat::new();
    let values32: Vec<f32> = GRISU_REJECTED_F32
        .iter()
        .map(|&b| f32::from_bits(b))
        .collect();
    let mut out = BatchOutput::new();
    fmt.format_f32s(&values32, &mut out);
    for (i, &v) in values32.iter().enumerate() {
        assert_eq!(out.get(i), free.format_f32(v), "format_f32s({v:e})");
    }
}

#[test]
fn f32_columns_use_f32_boundaries() {
    let free = FreeFormat::new();
    let mut values: Vec<f32> = (0u32..20_000)
        .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
        .collect();
    values.extend([0.1f32, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE]);
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f32s(&values, &mut out);
    let mut sharded = sharded_formatter(3);
    let mut out_sh = BatchOutput::new();
    sharded.format_f32s_sharded(&values, &mut out_sh);
    for (i, &v) in values.iter().enumerate() {
        let expected = free.format_f32(v);
        assert_eq!(out.get(i), expected, "f32 serial index {i}");
    }
    assert_eq!(out.arena(), out_sh.arena(), "f32 sharded arena");
    assert_eq!(out.offsets(), out_sh.offsets());
}

#[test]
fn offsets_table_is_well_formed() {
    let values = specials();
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f64s(&values, &mut out);
    let offsets = out.offsets();
    assert_eq!(offsets.len(), values.len() + 1);
    assert_eq!(offsets[0], 0);
    assert_eq!(*offsets.last().unwrap() as usize, out.total_bytes());
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "monotonic offsets"
    );
    let concatenated: String = out.iter().collect();
    assert_eq!(concatenated.as_bytes(), out.arena());
}

#[test]
fn reused_buffers_stay_stable_across_batches() {
    let values = schryer_workload();
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f64s(&values, &mut out);
    let first: Vec<String> = out.iter().map(str::to_owned).collect();
    let arena_ptr = out.arena().as_ptr();
    // Second batch into the same output: identical bytes, and the arena
    // must not reallocate (clear() keeps capacity; same input → same
    // high-water mark). The allocator-level proof is in alloc_count.rs.
    fmt.format_f64s(&values, &mut out);
    assert!(out.iter().eq(first.iter().map(String::as_str)));
    assert_eq!(
        out.arena().as_ptr(),
        arena_ptr,
        "arena reallocated on an identical second batch"
    );
}

#[test]
fn serializers_agree_with_per_value_output() {
    let column = [0.1, 1e23, f64::NAN, -0.0, 5e-324, f64::NEG_INFINITY];
    let mut fmt = BatchFormatter::new();

    let mut csv = Vec::new();
    fmt.write_csv(&[("v", &column[..])], &mut csv);
    let expected_csv = std::iter::once("v".to_string())
        .chain(column.iter().map(|&v| print_shortest(v)))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_eq!(csv, expected_csv.as_bytes());

    let mut jsonl = Vec::new();
    fmt.write_json_lines(&column, &mut jsonl);
    let expected_jsonl = column
        .iter()
        .map(|&v| {
            if v.is_finite() {
                print_shortest(v)
            } else {
                "null".to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_eq!(jsonl, expected_jsonl.as_bytes());
}
