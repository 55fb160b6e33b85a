//! Floating-point representation utilities for the `fpp` printing library.
//!
//! The Burger–Dybvig algorithm consumes a floating-point number in the
//! mathematical form of the paper's §2.1: a value `v = f × bᵉ` with mantissa
//! `f` (`0 < f < bᵖ`), input base `b`, precision `p` (in base-`b` digits) and
//! exponent `e ≥ min_e`. This crate provides:
//!
//! * [`FloatFormat`] — a trait decoding hardware floats (`f32`, `f64`) into
//!   that form and re-encoding mantissa/exponent pairs (used by the accurate
//!   reader), plus IEEE successor/predecessor navigation.
//! * [`Decoded`] — the classification of a hardware float (NaN, infinity,
//!   zero, finite).
//! * [`SoftFloat`] — a software float description generic in `b`, `p` and the
//!   exponent range, the canonical input to the printing algorithm. It also
//!   models formats no hardware provides (e.g. base-16 floats, tiny toy
//!   formats used by the test suite to enumerate *every* value exhaustively).
//! * [`pow10`] — the static table of 128-bit power-of-ten significands
//!   shared by the shortest printer's fast tier, the Eisel–Lemire reader
//!   and the verified fixed-format baseline.
//! * exact boundary computation — `v⁺`, `v⁻` and the half-gap midpoints
//!   `(v + v⁺)/2`, `(v⁻ + v)/2` as exact rationals (§2.2's `high`/`low`).
//!
//! # Examples
//!
//! ```
//! use fpp_float::{Decoded, FloatFormat, SoftFloat};
//!
//! // 0.1 is not exactly representable; its decoded form shows the real value.
//! if let Decoded::Finite { mantissa, exponent, .. } = 0.1f64.decode() {
//!     assert_eq!(mantissa, 0x1999999999999a); // 2^52 + fraction bits
//!     assert_eq!(exponent, -56);
//! }
//!
//! // The same value as a software float, with its exact rounding boundaries:
//! let v = SoftFloat::from_f64(0.1).expect("finite and positive");
//! let nb = v.neighbors();
//! assert!(nb.low < v.value() && v.value() < nb.high);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decoded;
mod half;
mod ieee;
mod rounding;
mod soft;

pub mod pow10;

pub use decoded::Decoded;
pub use half::{Bf16, F16};
pub use ieee::FloatFormat;
pub use rounding::RoundingMode;
pub use soft::{Neighbors, SoftFloat, SoftFloatError};
