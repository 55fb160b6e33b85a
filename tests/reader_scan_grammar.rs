//! The byte scanner's grammar at its seams: the tiered reader must give
//! the same Ok/Err and the same bits as the exact reader on every input,
//! in particular where a digit run meets an 8-byte block boundary, the
//! 19-digit budget, or a byte next to the digit range (`/` is `'0' − 1`,
//! `:` is `'9' + 1`).

use fpp::reader::{read_f64, read_f64_exact, read_f64_fast, BatchParseOptions, BatchParser};

/// `read_f64` and `read_f64_exact` agree on Ok/Err and on bits; a fast-tier
/// answer, when there is one, has the same bits.
fn agree(s: &str) {
    let tiered = read_f64(s).map(f64::to_bits);
    let exact = read_f64_exact(s).map(f64::to_bits);
    assert_eq!(tiered.is_ok(), exact.is_ok(), "{s:?}: Ok/Err differ");
    if let (Ok(t), Ok(e)) = (tiered, exact) {
        assert_eq!(t, e, "{s:?}: bits differ");
        if let Some(fast) = read_f64_fast(s) {
            assert_eq!(fast.to_bits(), e, "{s:?}: fast tier bits differ");
        }
    } else {
        assert_eq!(read_f64_fast(s), None, "{s:?}: fast tier accepts an error");
    }
}

/// Every string of length `0..=max_len` over the grammar's bytes and
/// their neighbours.
fn sweep(max_len: usize) {
    const ALPHABET: &[u8] = b"019.eE+-/:";
    let mut text = Vec::with_capacity(max_len);
    let mut count = 0u64;
    for len in 0..=max_len {
        let mut index = vec![0usize; len];
        loop {
            text.clear();
            text.extend(index.iter().map(|&k| ALPHABET[k]));
            agree(std::str::from_utf8(&text).unwrap());
            count += 1;
            // Next string of this length, last position fastest.
            let Some(pos) = index.iter().rposition(|&k| k + 1 < ALPHABET.len()) else {
                break;
            };
            index[pos] += 1;
            index[pos + 1..].fill(0);
        }
    }
    let expected: u64 = (0..=max_len as u32)
        .map(|l| (ALPHABET.len() as u64).pow(l))
        .sum();
    assert_eq!(count, expected);
}

#[test]
fn every_short_string_agrees_with_the_exact_reader() {
    sweep(5);
}

/// The same sweep at length ≤ 7 (11.1M strings): release mode only.
#[test]
#[ignore = "11M strings; run in release (ci.sh)"]
fn every_string_up_to_seven_bytes_agrees_with_the_exact_reader() {
    sweep(7);
}

/// `1234567890…` cut to `len` digits.
fn digits(len: usize) -> String {
    (0..len)
        .map(|k| char::from(b'0' + ((k + 1) % 10) as u8))
        .collect()
}

#[test]
fn digit_runs_with_a_byte_inserted_at_every_position() {
    for len in 1..=24 {
        let run = digits(len);
        for pos in 0..=len {
            for insert in [".", "e", "/", ":", "\u{80}", "e5", ".5", "e-3"] {
                let mut s = run.clone();
                s.insert_str(pos, insert);
                agree(&s);
                agree(&format!("-{s}"));
                agree(&format!("0.{s}"));
                agree(&format!("{s}e7"));
            }
        }
    }
}

#[test]
fn leading_zeros_across_block_boundaries() {
    for zeros in 0..=26 {
        let pad = "0".repeat(zeros);
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 19, 20, 21, 24] {
            let run = digits(len);
            for s in [
                format!("{pad}{run}"),
                format!("{pad}.{run}"),
                format!("0.{pad}{run}"),
                format!("{pad}.{pad}{run}"),
                format!("{pad}{run}.{pad}"),
                format!("{pad}{run}e-{zeros}"),
                format!("-.{pad}{run}e{len}"),
            ] {
                agree(&s);
            }
        }
    }
}

#[test]
fn nineteen_to_twenty_one_digit_coefficients() {
    let mut coefficients = Vec::new();
    for len in 19..=21 {
        for tail in ["0", "00", "1", "5", "9", "01", "50", "49"] {
            let head = digits(len - tail.len().min(len));
            coefficients.push(format!("{head}{tail}"));
            coefficients.push(format!("{}{tail}", "9".repeat(len - tail.len())));
        }
    }
    // u64 and 10^19 neighbourhoods, and a coefficient whose (w, w + 1)
    // bracket straddles a halfway point (1 + 2^-53).
    coefficients.extend(
        [
            "9999999999999999999",
            "10000000000000000000",
            "18446744073709551615",
            "18446744073709551616",
            "100000000000000000000",
            "1000000000000000055511151231257827",
        ]
        .map(String::from),
    );
    for c in &coefficients {
        for point in [None, Some(1), Some(8), Some(16), Some(19), Some(20)] {
            let mut s = c.clone();
            if let Some(p) = point.filter(|&p| p <= s.len()) {
                s.insert(p, '.');
            }
            for exp in ["", "e-20", "e5", "e-330", "e290"] {
                agree(&format!("{s}{exp}"));
                agree(&format!("0.000{s}{exp}"));
            }
        }
    }
}

/// Entries in the `BatchOutput` fence-post layout.
fn arena(entries: &[&[u8]]) -> (Vec<u8>, Vec<u32>) {
    let mut bytes = Vec::new();
    let mut offsets = vec![0u32];
    for e in entries {
        bytes.extend_from_slice(e);
        offsets.push(bytes.len() as u32);
    }
    (bytes, offsets)
}

#[test]
fn parse_offsets_reports_invalid_utf8_inside_a_digit_block() {
    // The bad byte sits inside an otherwise all-digit 8-byte block, so the
    // scanner declines it and the UTF-8 check runs on the exact fallback.
    let entries: [&[u8]; 4] = [b"1.5", b"12345678", b"1234\xff678.25", b"0x"];
    let (bytes, offsets) = arena(&entries);
    let mut out = Vec::new();
    let err = BatchParser::new()
        .parse_offsets(&bytes, &offsets, &mut out)
        .unwrap_err();
    assert_eq!(err.index, 2);
    assert_eq!(
        err.error.to_string(),
        "invalid float literal: entry is not valid UTF-8"
    );

    // A raw 0x80 byte at every position of a 16-digit run, and the lowest
    // failing index wins across shards.
    let run = digits(16).into_bytes();
    for pos in 0..=run.len() {
        let mut bad = run.clone();
        bad.insert(pos, 0x80);
        let mut column: Vec<&[u8]> = vec![&run; 64];
        column[40] = &bad;
        column[50] = b"bogus";
        column[60] = &bad;
        let (bytes, offsets) = arena(&column);
        for threads in [1, 4] {
            let parser = BatchParser::with_options(BatchParseOptions {
                threads: Some(threads),
                min_shard_len: 8,
            });
            let err = parser
                .parse_offsets(&bytes, &offsets, &mut out)
                .unwrap_err();
            assert_eq!(err.index, 40, "pos {pos}, {threads} threads");
            assert_eq!(
                err.error.to_string(),
                "invalid float literal: entry is not valid UTF-8"
            );
        }
    }
}
