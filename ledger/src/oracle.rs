//! The correctness oracle behind `fail_rate`. It shares no code with the
//! library under test: digits come from std's shortest `{:e}` formatting and
//! read-back from std's `str::parse`.

use std::fmt::Write as _;

/// A decimal literal reduced to `±d₁.d₂d₃… × 10^exp` with no leading or
/// trailing zero digits (`digits` is empty for zero).
#[derive(Debug, PartialEq, Eq)]
struct Normal<'a> {
    negative: bool,
    digits: &'a [u8],
    exp: i64,
}

/// Splits `text` (`-?digits[.digits][e-?digits]`) into its normal form, with
/// the ASCII digits gathered into `scratch`. `None` when `text` is not of
/// that shape.
fn normalize<'a>(text: &[u8], scratch: &'a mut Vec<u8>) -> Option<Normal<'a>> {
    let (negative, body) = match text.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, text),
    };
    let (mantissa, exp_field) = match body.iter().position(|&b| b == b'e') {
        Some(at) => {
            let field = std::str::from_utf8(&body[at + 1..]).ok()?;
            (&body[..at], field.parse::<i64>().ok()?)
        }
        None => (body, 0),
    };
    scratch.clear();
    let mut int_len = None;
    for (i, &b) in mantissa.iter().enumerate() {
        match b {
            b'0'..=b'9' => scratch.push(b),
            b'.' if int_len.is_none() && i > 0 => int_len = Some(scratch.len()),
            _ => return None,
        }
    }
    if scratch.is_empty() {
        return None;
    }
    let int_len = int_len.unwrap_or(scratch.len()) as i64;
    let lead = scratch.iter().take_while(|&&d| d == b'0').count();
    let trail = scratch[lead..]
        .iter()
        .rev()
        .take_while(|&&d| d == b'0')
        .count();
    let digits = &scratch[lead..scratch.len() - trail];
    Some(Normal {
        negative,
        digits,
        exp: int_len + exp_field - lead as i64 - 1,
    })
}

/// Reusable buffers for the checks, so checking a column allocates once.
#[derive(Debug, Default)]
pub struct Oracle {
    std_text: String,
    ours: Vec<u8>,
    theirs: Vec<u8>,
}

impl Oracle {
    /// Round-trip check of one value: the printed digits and decimal
    /// exponent equal std's shortest `{:e}` output, and the parsed value has
    /// the original bits.
    pub fn shortest_ok(&mut self, v: f64, text: &[u8], parsed: f64) -> bool {
        if parsed.to_bits() != v.to_bits() {
            return false;
        }
        self.std_text.clear();
        write!(self.std_text, "{v:e}").expect("writing to a String");
        let expected = normalize(self.std_text.as_bytes(), &mut self.theirs);
        let got = normalize(text, &mut self.ours);
        expected.is_some() && got == expected
    }

    /// Fixed-format check of one value: 17 significant positions (digits or
    /// `#`, starting at a non-zero digit), and the text, with `#` read as
    /// `0`, parses through std back to the original bits.
    pub fn fixed17_ok(&mut self, v: f64, text: &[u8]) -> bool {
        let mantissa = text.split(|&b| b == b'e').next().unwrap_or_default();
        let mut positions = mantissa
            .iter()
            .filter(|&&b| b.is_ascii_digit() || b == b'#')
            .skip_while(|&&b| b == b'0');
        let leads_nonzero = positions.next().is_some_and(u8::is_ascii_digit);
        if !leads_nonzero || positions.count() != 16 {
            return false;
        }
        self.std_text.clear();
        for &b in text {
            self.std_text
                .push(if b == b'#' { '0' } else { char::from(b) });
        }
        self.std_text
            .parse::<f64>()
            .is_ok_and(|back| back.to_bits() == v.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_forms_agree_across_layouts() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let sci = normalize(b"1.25e-3", &mut a).unwrap();
        let pos = normalize(b"0.00125", &mut b).unwrap();
        assert_eq!(sci, pos);
        assert_eq!((sci.digits, sci.exp), (&b"125"[..], -3));
        let int = normalize(b"-1200", &mut a).unwrap();
        assert_eq!((int.negative, int.digits, int.exp), (true, &b"12"[..], 3));
        assert!(normalize(b"1.2.3", &mut a).is_none());
        assert!(normalize(b"", &mut a).is_none());
        assert!(normalize(b"1x", &mut a).is_none());
    }

    #[test]
    fn shortest_check_accepts_std_digits_only() {
        let mut o = Oracle::default();
        assert!(o.shortest_ok(0.1, b"0.1", 0.1));
        assert!(o.shortest_ok(1e23, b"1e23", 1e23));
        assert!(o.shortest_ok(-1234.5, b"-1234.5", -1234.5));
        assert!(!o.shortest_ok(0.1, b"0.10000000000000001", 0.1));
        assert!(!o.shortest_ok(0.1, b"0.2", 0.1));
        assert!(!o.shortest_ok(0.1, b"0.1", 0.2));
        assert!(!o.shortest_ok(-0.1, b"0.1", -0.1));
    }

    #[test]
    fn fixed_check_counts_positions_and_reads_marks_as_zero() {
        let mut o = Oracle::default();
        assert!(o.fixed17_ok(0.1, b"1.0000000000000001e-1"));
        assert!(o.fixed17_ok(1e23, b"9.9999999999999992e22"));
        assert!(o.fixed17_ok(0.5, b"5.0000000000000000e-1"));
        assert!(!o.fixed17_ok(0.5, b"5.000000000000000e-1"), "16 positions");
        assert!(!o.fixed17_ok(0.1, b"1.0000000000000002e-1"), "wrong value");
        assert!(o.fixed17_ok(5e-324, b"4.9406564584124654e-324"));
        assert!(o.fixed17_ok(5e-324, b"4.940656458412####e-324"));
    }
}
