//! Compile-time Q-format 16-bit fixed point: the PE datapath type.

use std::cmp::Ordering;
use std::fmt;

/// A 16-bit signed fixed-point number with `FRAC` fractional bits.
///
/// This is the number format of EIE's arithmetic unit: the 16-entry weight
/// codebook stores `Fix16` values, activations are `Fix16`, and products are
/// accumulated in [`Accum32`](crate::Accum32). All arithmetic saturates
/// rather than wrapping, modelling the hardware's clamping behaviour.
///
/// Two aliases cover the formats used in this reproduction:
///
/// * [`Q8p8`] — 8 integer bits / 8 fractional bits; the default activation
///   and weight format (dynamic range ±128, resolution 1/256),
/// * [`Q4p12`] — 4/12 split used when weights are known to be small.
///
/// # Example
///
/// ```
/// use eie_fixed::Q8p8;
///
/// let a = Q8p8::from_f32(2.5);
/// let b = Q8p8::from_f32(-0.5);
/// assert_eq!((a * b).to_f32(), -1.25);
/// assert_eq!((a + b).to_f32(), 2.0);
/// // Saturation instead of overflow:
/// let big = Q8p8::from_f32(100.0);
/// assert_eq!((big * big), Q8p8::MAX);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fix16<const FRAC: u32>(i16);

/// `Fix16` with 8 fractional bits (range ±128, resolution 1/256).
pub type Q8p8 = Fix16<8>;

/// `Fix16` with 12 fractional bits (range ±8, resolution 1/4096).
pub type Q4p12 = Fix16<12>;

impl<const FRAC: u32> Fix16<FRAC> {
    /// The largest representable value.
    pub const MAX: Self = Self(i16::MAX);
    /// The smallest (most negative) representable value.
    pub const MIN: Self = Self(i16::MIN);
    /// Zero.
    pub const ZERO: Self = Self(0);
    /// One, i.e. raw `1 << FRAC`.
    pub const ONE: Self = Self(1 << FRAC);

    /// Creates a value from its raw two's-complement representation.
    pub const fn from_raw(raw: i16) -> Self {
        Self(raw)
    }

    /// Returns the raw two's-complement representation.
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Quantizes an `f32`, rounding to nearest (ties away from zero) and
    /// saturating; NaN is zero.
    ///
    /// Written without a libm call or a float-to-int conversion, so that
    /// [`Fix16::from_f32_slice`] vectorizes: at baseline x86-64 features
    /// `f64::round` is a libm call, and quantizing a 9 216-wide input
    /// through it cost ≈ 60 µs of every submission on a 2-vCPU Xeon
    /// (≈ 8 µs this way).
    /// Every step is exact. Scaling by `2^FRAC` is; the clamp bounds are
    /// integers, so clamping commutes with rounding; below `2^22` adding
    /// `1.5 × 2^23` rounds to the nearest integer, ties to even, and that
    /// integer is the sum's bit pattern minus the constant's; and the
    /// remainder `x − even` is exactly `±½` only at a tie, where a tie
    /// the even rounding took toward zero is moved one step away.
    /// `reference` in the tests is the `f64::round` definition this
    /// replaced: they agree on every tie and a bit-pattern sweep, and
    /// `from_f32_matches_round_half_away_on_every_f32` (ignored; run it
    /// with `--release -- --ignored`) checks all 2^32 patterns.
    pub fn from_f32(value: f32) -> Self {
        const MAGIC: f32 = 12_582_912.0; // 1.5 × 2^23
        let x = (value * (1i64 << FRAC) as f32).clamp(i16::MIN as f32, i16::MAX as f32);
        let x = if x.is_nan() { 0.0 } else { x };
        let biased = x + MAGIC;
        let even = biased.to_bits() as i32 - MAGIC.to_bits() as i32;
        let rest = x - (biased - MAGIC);
        let away = (rest == 0.5 && x > 0.0) as i32 - (rest == -0.5 && x < 0.0) as i32;
        Self((even + away) as i16)
    }

    /// Quantizes a whole `f32` slice (the activation-vector case) —
    /// the one definition of the datapath's input conversion, so every
    /// execution path quantizes identically.
    pub fn from_f32_slice(values: &[f32]) -> Vec<Self> {
        values.iter().map(|&v| Self::from_f32(v)).collect()
    }

    /// Converts back to `f32` (exact: every `Fix16` is representable).
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / (1i64 << FRAC) as f32
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication with round-to-nearest.
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let product = (self.0 as i32) * (rhs.0 as i32);
        let shifted = crate::format::round_shift_right_i128(product as i128, FRAC);
        Self(shifted.clamp(i16::MIN as i128, i16::MAX as i128) as i16)
    }

    /// The full-precision product as a raw `i32` with `2*FRAC` fractional
    /// bits — what the hardware multiplier feeds the accumulator.
    pub fn widening_mul_raw(self, rhs: Self) -> i32 {
        (self.0 as i32) * (rhs.0 as i32)
    }

    /// ReLU: `max(self, 0)`, the non-linearity EIE applies on writeback.
    pub fn relu(self) -> Self {
        if self.0 < 0 {
            Self::ZERO
        } else {
            self
        }
    }

    /// True if this value is exactly zero (drives dynamic sparsity).
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Absolute value, saturating (`|MIN|` clamps to `MAX`).
    pub fn saturating_abs(self) -> Self {
        Self(self.0.saturating_abs())
    }
}

impl<const FRAC: u32> std::ops::Add for Fix16<FRAC> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl<const FRAC: u32> std::ops::Sub for Fix16<FRAC> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl<const FRAC: u32> std::ops::Mul for Fix16<FRAC> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl<const FRAC: u32> std::ops::Neg for Fix16<FRAC> {
    type Output = Self;
    fn neg(self) -> Self {
        Self(self.0.saturating_neg())
    }
}

impl<const FRAC: u32> PartialOrd for Fix16<FRAC> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const FRAC: u32> Ord for Fix16<FRAC> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl<const FRAC: u32> fmt::Display for Fix16<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl<const FRAC: u32> From<i16> for Fix16<FRAC> {
    /// Interprets the integer as a raw fixed-point bit pattern.
    fn from(raw: i16) -> Self {
        Self::from_raw(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(Q8p8::ONE.to_f32(), 1.0);
        assert_eq!(Q8p8::ZERO.to_f32(), 0.0);
        assert_eq!(Q8p8::MAX.raw(), 32767);
        assert_eq!(Q8p8::MIN.raw(), -32768);
    }

    #[test]
    fn from_f32_rounds() {
        // 1/512 is exactly half an LSB in Q8.8: rounds away from zero.
        assert_eq!(Q8p8::from_f32(1.0 / 512.0).raw(), 1);
        assert_eq!(Q8p8::from_f32(-1.0 / 512.0).raw(), -1);
        assert_eq!(Q8p8::from_f32(0.0009).raw(), 0);
    }

    /// The rounding `from_f32` used to spell out with `f64::round`.
    fn reference<const FRAC: u32>(value: f32) -> i16 {
        if value.is_nan() {
            return 0;
        }
        let scaled = (value as f64 * (1i64 << FRAC) as f64).round();
        scaled.clamp(i16::MIN as f64, i16::MAX as f64) as i16
    }

    #[test]
    fn from_f32_matches_round_half_away_on_every_tie_and_a_bit_pattern_sweep() {
        fn check<const FRAC: u32>(value: f32) {
            let got = Fix16::<FRAC>::from_f32(value).raw();
            assert_eq!(
                got,
                reference::<FRAC>(value),
                "{value:e} ({:#x})",
                value.to_bits()
            );
        }
        // Every half-LSB tie across the range and past both rails, with
        // the neighbouring bit patterns on either side of it.
        for n in -70_000i32..70_000 {
            for tie in [(n as f32 + 0.5) / 256.0, (n as f32 + 0.5) / 4096.0] {
                for bits in tie.to_bits() - 2..=tie.to_bits() + 2 {
                    check::<8>(f32::from_bits(bits));
                    check::<12>(f32::from_bits(bits));
                }
            }
        }
        // A stride through all 2^32 patterns: zeros, subnormals, both
        // infinities' neighbourhoods and NaNs included.
        for bits in (0..=u32::MAX)
            .step_by(4_099)
            .chain([0x7f80_0000, 0xff80_0000, 0x8000_0000])
        {
            check::<8>(f32::from_bits(bits));
            check::<12>(f32::from_bits(bits));
        }
    }

    #[test]
    #[ignore = "sweeps all 2^32 f32 patterns: about a minute in release"]
    fn from_f32_matches_round_half_away_on_every_f32() {
        for bits in 0..=u32::MAX {
            let value = f32::from_bits(bits);
            assert_eq!(
                Q8p8::from_f32(value).raw(),
                reference::<8>(value),
                "{bits:#x}"
            );
            assert_eq!(
                Q4p12::from_f32(value).raw(),
                reference::<12>(value),
                "{bits:#x}"
            );
        }
    }

    #[test]
    fn from_f32_saturates() {
        assert_eq!(Q8p8::from_f32(1e9), Q8p8::MAX);
        assert_eq!(Q8p8::from_f32(-1e9), Q8p8::MIN);
        assert_eq!(Q8p8::from_f32(f32::NAN), Q8p8::ZERO);
    }

    #[test]
    fn add_saturates() {
        assert_eq!(Q8p8::MAX + Q8p8::ONE, Q8p8::MAX);
        assert_eq!(Q8p8::MIN + (-Q8p8::ONE), Q8p8::MIN);
        assert_eq!((Q8p8::from_f32(1.5) + Q8p8::from_f32(2.25)).to_f32(), 3.75);
    }

    #[test]
    fn mul_exact_cases() {
        assert_eq!((Q8p8::from_f32(0.5) * Q8p8::from_f32(0.5)).to_f32(), 0.25);
        assert_eq!((Q8p8::from_f32(-3.0) * Q8p8::from_f32(2.0)).to_f32(), -6.0);
        assert_eq!((Q8p8::ONE * Q8p8::from_f32(7.125)).to_f32(), 7.125);
    }

    #[test]
    fn mul_saturates_both_signs() {
        let big = Q8p8::from_f32(100.0);
        assert_eq!(big * big, Q8p8::MAX);
        assert_eq!(big * -big, Q8p8::MIN);
    }

    #[test]
    fn neg_of_min_saturates() {
        assert_eq!(-Q8p8::MIN, Q8p8::MAX);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Q8p8::from_f32(-3.0).relu(), Q8p8::ZERO);
        assert_eq!(Q8p8::from_f32(3.0).relu(), Q8p8::from_f32(3.0));
        assert_eq!(Q8p8::ZERO.relu(), Q8p8::ZERO);
    }

    #[test]
    fn ordering_matches_reals() {
        let vals = [-2.0f32, -0.5, 0.0, 0.25, 3.0];
        for w in vals.windows(2) {
            assert!(Q8p8::from_f32(w[0]) < Q8p8::from_f32(w[1]));
        }
    }

    #[test]
    fn q4p12_has_finer_resolution() {
        let v = 0.0002441; // ~1 LSB of Q4.12
        assert_eq!(Q4p12::from_f32(v).raw(), 1);
        assert_eq!(Q8p8::from_f32(v).raw(), 0);
    }

    #[test]
    fn widening_mul_raw_is_exact() {
        let a = Q8p8::from_raw(12345);
        let b = Q8p8::from_raw(-321);
        assert_eq!(a.widening_mul_raw(b), 12345 * -321);
    }
}
