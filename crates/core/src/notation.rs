//! Rendering digit sequences as text.
//!
//! The algorithms produce positional digit data (`0.d₁d₂… × Bᵏ`); this module
//! turns that into text: positional notation (`123.45`, `0.00071`),
//! scientific notation (`1.2345e2`), or an automatic choice between them
//! mirroring the behaviour of Scheme's `number->string` and the paper's
//! examples (`0.3`, `1e23`).
//!
//! The engine is sink-based: [`render_into`] and [`render_fixed_into`] write
//! bytes straight into any [`DigitSink`] without intermediate strings, so a
//! conversion into a stack buffer allocates nothing. The `String`-returning
//! functions ([`render_styled`] and friends) are thin wrappers collecting
//! into a `Vec<u8>`.

use crate::fixed::FixedDigits;
use crate::generate::Digits;
use crate::sink::DigitSink;
use std::ops::Range;

const DIGIT_CHARS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";

/// How to lay out the digits of a printed number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notation {
    /// Always positional: `1230000`, `0.000123`.
    Positional,
    /// Always scientific: `1.23e6`, `1.23e-4`.
    Scientific,
    /// Positional while the exponent is moderate, scientific outside the
    /// window: positional iff `low < k ≤ high` (`k` as in `0.d… × Bᵏ`).
    ///
    /// The default window `(-6, 21]` matches the familiar behaviour of
    /// JavaScript/`Number.prototype.toString` and prints the paper's
    /// examples as in the paper (`0.3`, `1e23`).
    Auto {
        /// Smallest `k` (exclusive) still printed positionally.
        low: i32,
        /// Largest `k` (inclusive) still printed positionally.
        high: i32,
    },
}

impl Notation {
    /// Whether digits with scale `k` lay out positionally under this
    /// notation.
    fn is_positional(self, k: i32) -> bool {
        match self {
            Notation::Positional => true,
            Notation::Scientific => false,
            Notation::Auto { low, high } => k > low && k <= high,
        }
    }
}

impl Default for Notation {
    fn default() -> Self {
        Notation::Auto { low: -6, high: 21 }
    }
}

/// Cosmetic rendering options layered over [`Notation`]: exponent style,
/// decimal separator and integer digit grouping.
///
/// ```
/// use fpp_core::{render_styled, Digits, Notation, RenderOptions};
/// let d = Digits { digits: vec![1, 2, 3, 4, 5, 6, 7], k: 7 };
/// let opts = RenderOptions {
///     group_separator: Some('_'),
///     ..RenderOptions::default()
/// };
/// assert_eq!(render_styled(&d, Notation::Positional, 10, &opts), "1_234_567");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOptions {
    /// Exponent field style for scientific notation.
    pub exponent_style: ExponentStyle,
    /// Character between the integer and fraction parts (default `.`).
    pub decimal_separator: char,
    /// When set, integer digits are grouped in threes from the separator
    /// (`1_234_567`). Fraction digits are never grouped.
    pub group_separator: Option<char>,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            exponent_style: ExponentStyle::Minimal,
            decimal_separator: '.',
            group_separator: None,
        }
    }
}

/// How the exponent field of scientific notation is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExponentStyle {
    /// `e5`, `e-5` — the shortest form (and `@` in bases above 14).
    #[default]
    Minimal,
    /// `E5`, `E-5` — uppercase marker.
    Uppercase,
    /// `e+05`, `e-05` — always signed, at least two digits, like C `printf`.
    PrintfSigned,
}

/// The exponent marker for a base: `e` where it cannot be confused with a
/// digit (bases 2–14), `@` elsewhere — the same convention the
/// `fpp-reader` grammar accepts.
#[must_use]
pub fn exponent_marker(base: u64) -> char {
    if base <= 14 {
        'e'
    } else {
        '@'
    }
}

/// Fixed-format digit data plus layout flags for [`render_fixed_into`]:
/// borrows the digit buffer so the zero-allocation pipeline can render
/// straight out of its workspace.
#[derive(Debug, Clone, Copy)]
pub struct FixedLayout<'a> {
    /// Base-`B` digit values (not ASCII), most significant first.
    pub digits: &'a [u8],
    /// Scale: the digits read `0.d₁d₂… × Bᵏ`.
    pub k: i32,
    /// Trailing positions whose digit is unknown (printed as `#` or `0`).
    pub insignificant: usize,
    /// The absolute position the output stops at (`B^position`).
    pub position: i32,
    /// `true` prints insignificant positions as `#` (the paper's §4 marks);
    /// `false` prints zeros, as conventional `printf`-style output does.
    pub hash_marks: bool,
}

impl FixedDigits {
    /// Borrows this result as a [`FixedLayout`] for sink-based rendering.
    #[must_use]
    pub fn layout(&self, hash_marks: bool) -> FixedLayout<'_> {
        FixedLayout {
            digits: &self.digits,
            k: self.k,
            insignificant: self.insignificant,
            position: self.position,
            hash_marks,
        }
    }
}

/// Renders free-format digits with the given notation (base-10 exponent
/// marker `e`; use [`render_in_base`] for other bases).
#[must_use]
pub fn render(digits: &Digits, notation: Notation) -> String {
    render_in_base(digits, notation, 10)
}

/// Renders free-format digits with the given notation, choosing the
/// exponent marker appropriate for `base`.
#[must_use]
pub fn render_in_base(digits: &Digits, notation: Notation, base: u64) -> String {
    render_styled(digits, notation, base, &RenderOptions::default())
}

/// Renders free-format digits with full cosmetic control.
#[must_use]
pub fn render_styled(
    digits: &Digits,
    notation: Notation,
    base: u64,
    opts: &RenderOptions,
) -> String {
    let mut out = Vec::with_capacity(digits.digits.len() + 8);
    render_into(&mut out, &digits.digits, digits.k, notation, base, opts);
    String::from_utf8(out).expect("renderer emits UTF-8")
}

/// Renders free-format digit values (`0.d₁d₂… × Bᵏ`) into a sink.
pub fn render_into(
    sink: &mut impl DigitSink,
    digits: &[u8],
    k: i32,
    notation: Notation,
    base: u64,
    opts: &RenderOptions,
) {
    let source = Source::Values {
        digits,
        hashes: 0,
        hash_marks: true,
    };
    layout_into(sink, source, k, notation, base, opts);
}

/// Renders base-10 digits that are already ASCII (`0.d₁d₂… × 10ᵏ`) — the
/// fast tier's entry into the same layout code.
pub(crate) fn render_ascii_into(
    sink: &mut impl DigitSink,
    ascii: &[u8],
    k: i32,
    notation: Notation,
    opts: &RenderOptions,
) {
    layout_into(sink, Source::Ascii(ascii), k, notation, 10, opts);
}

/// Positional or scientific layout of `source`, as `notation` picks for `k`.
fn layout_into(
    sink: &mut impl DigitSink,
    source: Source<'_>,
    k: i32,
    notation: Notation,
    base: u64,
    opts: &RenderOptions,
) {
    if notation.is_positional(k) {
        positional_into(sink, source, k, opts);
    } else {
        scientific_into(sink, source, k, base, opts);
    }
}

/// Renders fixed-format digits (including `#` marks) with the given
/// notation (base-10 exponent marker; use [`render_fixed_in_base`] for
/// other bases). The digit string always extends exactly to the requested
/// position, so trailing zeros are preserved (`1.500`).
#[must_use]
pub fn render_fixed(digits: &FixedDigits, notation: Notation) -> String {
    render_fixed_in_base(digits, notation, 10)
}

/// Renders fixed-format digits, choosing the exponent marker appropriate
/// for `base`.
#[must_use]
pub fn render_fixed_in_base(digits: &FixedDigits, notation: Notation, base: u64) -> String {
    render_fixed_styled(digits, notation, base, &RenderOptions::default())
}

/// Renders fixed-format digits with full cosmetic control.
#[must_use]
pub fn render_fixed_styled(
    digits: &FixedDigits,
    notation: Notation,
    base: u64,
    opts: &RenderOptions,
) -> String {
    let mut out = Vec::with_capacity(digits.digits.len() + digits.insignificant + 8);
    render_fixed_into(&mut out, &digits.layout(true), notation, base, opts);
    String::from_utf8(out).expect("renderer emits UTF-8")
}

/// Renders fixed-format digits into a sink.
pub fn render_fixed_into(
    sink: &mut impl DigitSink,
    layout: &FixedLayout<'_>,
    notation: Notation,
    base: u64,
    opts: &RenderOptions,
) {
    if layout.digits.is_empty() && layout.insignificant == 0 {
        // The value rounded to zero at the requested precision. This form
        // deliberately uses the plain '.'/'0' characters irrespective of
        // `opts` — zero has no digits to separate or group.
        sink.push(b'0');
        if layout.position < 0 {
            sink.push(b'.');
            push_repeated(sink, b'0', layout.position.unsigned_abs() as usize);
        }
        return;
    }
    let source = Source::Values {
        digits: layout.digits,
        hashes: layout.insignificant,
        hash_marks: layout.hash_marks,
    };
    layout_into(sink, source, layout.k, notation, base, opts);
}

/// The output positions of one rendering, emitted in runs through
/// [`DigitSink::push_slice`].
#[derive(Clone, Copy)]
enum Source<'a> {
    /// ASCII digits, copied as they are.
    Ascii(&'a [u8]),
    /// Digit values, then `hashes` insignificant positions printed as `#`
    /// (or `0` without hash marks).
    Values {
        digits: &'a [u8],
        hashes: usize,
        hash_marks: bool,
    },
}

impl Source<'_> {
    /// Number of output positions.
    fn len(self) -> usize {
        match self {
            Source::Ascii(ascii) => ascii.len(),
            Source::Values { digits, hashes, .. } => digits.len() + hashes,
        }
    }

    /// Pushes the characters of positions `range`.
    fn push(self, sink: &mut impl DigitSink, range: Range<usize>) {
        match self {
            Source::Ascii(ascii) => sink.push_slice(&ascii[range]),
            Source::Values {
                digits, hash_marks, ..
            } => {
                let from = range.start.min(digits.len());
                let split = range.end.min(digits.len()).max(from);
                let mut buf = [0u8; 32];
                for chunk in digits[from..split].chunks(buf.len()) {
                    for (b, &d) in buf.iter_mut().zip(chunk) {
                        *b = DIGIT_CHARS[usize::from(d)];
                    }
                    sink.push_slice(&buf[..chunk.len()]);
                }
                let tail = if hash_marks { b'#' } else { b'0' };
                push_repeated(sink, tail, range.len() - (split - from));
            }
        }
    }

    /// Pushes integer positions `range`: digits while there are any, then
    /// the zeros that pad the integer part past them.
    fn push_integer(self, sink: &mut impl DigitSink, range: Range<usize>) {
        let split = range.end.min(self.len()).max(range.start);
        if split > range.start {
            self.push(sink, range.start..split);
        }
        push_repeated(sink, b'0', range.end - split);
    }
}

/// Pushes `n` copies of the ASCII byte `byte`.
fn push_repeated(sink: &mut impl DigitSink, byte: u8, mut n: usize) {
    let run = [byte; 32];
    while n > 0 {
        let len = n.min(run.len());
        sink.push_slice(&run[..len]);
        n -= len;
    }
}

/// Pushes a (possibly multi-byte) separator character.
fn push_char(sink: &mut impl DigitSink, c: char) {
    if c.is_ascii() {
        sink.push(c as u8);
    } else {
        let mut buf = [0u8; 4];
        sink.push_slice(c.encode_utf8(&mut buf).as_bytes());
    }
}

/// Pushes the exponent field (`e5`, `E-5`, `e+05`, …) for value `exp` as
/// one run.
fn push_exponent(sink: &mut impl DigitSink, marker: char, exp: i32, style: ExponentStyle) {
    let (marker, plus, min_width) = match style {
        ExponentStyle::Minimal => (marker as u8, false, 1),
        ExponentStyle::Uppercase => (marker.to_ascii_uppercase() as u8, false, 1),
        ExponentStyle::PrintfSigned => (marker as u8, true, 2),
    };
    let mut buf = [0u8; 16];
    let mut i = buf.len();
    let mut v = exp.unsigned_abs();
    while v > 0 || buf.len() - i < min_width {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    if exp < 0 || plus {
        i -= 1;
        buf[i] = if exp < 0 { b'-' } else { b'+' };
    }
    i -= 1;
    buf[i] = marker;
    sink.push_slice(&buf[i..]);
}

/// Positional layout of `0.d₁d₂… × Bᵏ`, with grouping and separator
/// styling applied on the fly.
fn positional_into(sink: &mut impl DigitSink, source: Source<'_>, k: i32, opts: &RenderOptions) {
    let total = source.len(); // digit positions k-1 down to k-total
    if k <= 0 {
        // Integer part is the single digit 0 (never grouped).
        sink.push(b'0');
        push_char(sink, opts.decimal_separator);
        push_repeated(sink, b'0', k.unsigned_abs() as usize);
        source.push(sink, 0..total);
        return;
    }
    // Integer part spans positions 0..k, padded with zeros past the
    // generated digits; grouping counts every integer position, padding
    // included.
    let int_len = k as usize;
    match opts.group_separator {
        None => source.push_integer(sink, 0..int_len),
        Some(sep) => {
            let mut start = 0;
            let mut end = (int_len - 1) % 3 + 1;
            while start < int_len {
                if start > 0 {
                    push_char(sink, sep);
                }
                source.push_integer(sink, start..end);
                start = end;
                end += 3;
            }
        }
    }
    if int_len < total {
        push_char(sink, opts.decimal_separator);
        source.push(sink, int_len..total);
    }
}

/// Scientific layout `d₁.d₂…e(k−1)` (insignificant marks, when present,
/// sit inside the fraction).
fn scientific_into(
    sink: &mut impl DigitSink,
    source: Source<'_>,
    k: i32,
    base: u64,
    opts: &RenderOptions,
) {
    let total = source.len();
    source.push(sink, 0..1);
    if total > 1 {
        push_char(sink, opts.decimal_separator);
        source.push(sink, 1..total);
    }
    push_exponent(sink, exponent_marker(base), k - 1, opts.exponent_style);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free(digits: &[u8], k: i32) -> Digits {
        Digits {
            digits: digits.to_vec(),
            k,
        }
    }

    #[test]
    fn positional_layouts() {
        assert_eq!(render(&free(&[3], 0), Notation::Positional), "0.3");
        assert_eq!(render(&free(&[1], 1), Notation::Positional), "1");
        assert_eq!(render(&free(&[1], 3), Notation::Positional), "100");
        assert_eq!(render(&free(&[1, 2, 3], 2), Notation::Positional), "12.3");
        assert_eq!(render(&free(&[7], -3), Notation::Positional), "0.0007");
        assert_eq!(render(&free(&[1, 2, 3], 3), Notation::Positional), "123");
    }

    #[test]
    fn scientific_layouts() {
        assert_eq!(render(&free(&[1], 24), Notation::Scientific), "1e23");
        assert_eq!(render(&free(&[1, 5], 1), Notation::Scientific), "1.5e0");
        assert_eq!(render(&free(&[5], -323), Notation::Scientific), "5e-324");
    }

    #[test]
    fn auto_window() {
        let auto = Notation::default();
        assert_eq!(render(&free(&[3], 0), auto), "0.3");
        assert_eq!(render(&free(&[1], 24), auto), "1e23");
        assert_eq!(
            render(&free(&[1], 21), auto),
            "1".to_string() + &"0".repeat(20)
        );
        assert_eq!(render(&free(&[1], 22), auto), "1e21");
        assert_eq!(render(&free(&[7], -6), auto), "7e-7");
        assert_eq!(render(&free(&[7], -5), auto), "0.000007");
    }

    #[test]
    fn digits_above_nine_use_letters() {
        assert_eq!(render(&free(&[15, 15], 2), Notation::Positional), "ff");
        assert_eq!(render(&free(&[35, 0, 1], 1), Notation::Positional), "z.01");
    }

    #[test]
    fn fixed_with_hash_marks() {
        let fd = FixedDigits {
            digits: vec![1, 0, 0],
            k: 3,
            insignificant: 2,
            position: -2,
        };
        assert_eq!(render_fixed(&fd, Notation::Positional), "100.##");
        let fd = FixedDigits {
            digits: vec![3, 3, 3],
            k: 0,
            insignificant: 3,
            position: -6,
        };
        assert_eq!(render_fixed(&fd, Notation::Positional), "0.333###");
        assert_eq!(render_fixed(&fd, Notation::Scientific), "3.33###e-1");
        // A fraction made only of marks.
        let marks_only = FixedDigits {
            digits: vec![3],
            k: 0,
            insignificant: 2,
            position: -3,
        };
        assert_eq!(render_fixed(&marks_only, Notation::Scientific), "3.##e-1");
        // hash_marks = false prints the insignificant tail as zeros.
        let mut out = Vec::new();
        render_fixed_into(
            &mut out,
            &fd.layout(false),
            Notation::Positional,
            10,
            &RenderOptions::default(),
        );
        assert_eq!(out, b"0.333000");
    }

    #[test]
    fn styled_rendering() {
        let opts = RenderOptions {
            exponent_style: ExponentStyle::PrintfSigned,
            decimal_separator: ',',
            group_separator: Some('\u{202f}'), // narrow no-break space
        };
        let d = free(&[1, 2, 3, 4, 5, 6], 5);
        assert_eq!(
            render_styled(&d, Notation::Positional, 10, &opts),
            "12\u{202f}345,6"
        );
        assert_eq!(
            render_styled(&d, Notation::Scientific, 10, &opts),
            "1,23456e+04"
        );
        let tiny = free(&[5], -323);
        assert_eq!(
            render_styled(&tiny, Notation::Scientific, 10, &opts),
            "5e-324"
        );
        let upper = RenderOptions {
            exponent_style: ExponentStyle::Uppercase,
            ..RenderOptions::default()
        };
        assert_eq!(
            render_styled(&free(&[7], 10), Notation::Scientific, 10, &upper),
            "7E9"
        );
        // grouping only touches the integer part and leaves short ones alone
        let grouped = RenderOptions {
            group_separator: Some('_'),
            ..RenderOptions::default()
        };
        assert_eq!(
            render_styled(&free(&[1, 2, 3], 3), Notation::Positional, 10, &grouped),
            "123"
        );
        assert_eq!(
            render_styled(&free(&[1, 2, 3, 4], 4), Notation::Positional, 10, &grouped),
            "1_234"
        );
        // Groups made only of padding zeros, past the last digit.
        assert_eq!(
            render_styled(&free(&[1, 2], 10), Notation::Positional, 10, &grouped),
            "1_200_000_000"
        );
    }

    #[test]
    fn fixed_zero_output() {
        let fd = FixedDigits {
            digits: vec![],
            k: 0,
            insignificant: 0,
            position: 0,
        };
        assert_eq!(render_fixed(&fd, Notation::Positional), "0");
        let fd = FixedDigits {
            digits: vec![],
            k: 0,
            insignificant: 0,
            position: -3,
        };
        assert_eq!(render_fixed(&fd, Notation::Positional), "0.000");
    }

    #[test]
    fn exponent_padding_widths() {
        let opts = RenderOptions {
            exponent_style: ExponentStyle::PrintfSigned,
            ..RenderOptions::default()
        };
        assert_eq!(
            render_styled(&free(&[1], 1), Notation::Scientific, 10, &opts),
            "1e+00"
        );
        assert_eq!(
            render_styled(&free(&[1], 124), Notation::Scientific, 10, &opts),
            "1e+123"
        );
        assert_eq!(
            render_styled(&free(&[1], -8), Notation::Scientific, 10, &opts),
            "1e-09"
        );
    }
}
