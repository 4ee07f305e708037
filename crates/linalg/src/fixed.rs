//! Q-format fixed-point scalar mirroring the FPGA datapath.
//!
//! The accelerator's arithmetic units operate on two's-complement fixed-point
//! words rather than IEEE floats; [`Fixed`] reproduces that behaviour in the
//! simulator so quantization effects (saturation, truncation) are visible in
//! the reproduced accuracy numbers. The default format is Q16.16 stored in an
//! `i32`; other fractional widths are available through [`Fixed::from_f32_q`]
//! for the width-ablation experiment.

use serde::{Deserialize, Serialize};

use crate::numeric::NumericStatus;

/// Number of fractional bits in the default Q16.16 format.
pub const DEFAULT_FRAC_BITS: u32 = 16;

/// A saturating two's-complement fixed-point number (default Q16.16).
///
/// All arithmetic saturates at the representable range instead of wrapping,
/// matching a DSP-slice datapath with overflow protection. Multiplication
/// uses a 64-bit intermediate product followed by truncation toward negative
/// infinity (an arithmetic right shift), which is what a hardware multiplier
/// followed by bit-select does.
///
/// ```
/// use mann_linalg::Fixed;
///
/// let a = Fixed::from_f32(1.5);
/// let b = Fixed::from_f32(-2.0);
/// assert_eq!((a * b).to_f32(), -3.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Fixed {
    raw: i32,
}

impl Fixed {
    /// The additive identity.
    pub const ZERO: Fixed = Fixed { raw: 0 };
    /// The multiplicative identity (`1.0` in Q16.16).
    pub const ONE: Fixed = Fixed {
        raw: 1 << DEFAULT_FRAC_BITS,
    };
    /// The largest representable value.
    pub const MAX: Fixed = Fixed { raw: i32::MAX };
    /// The smallest (most negative) representable value.
    pub const MIN: Fixed = Fixed { raw: i32::MIN };

    /// Constructs from a raw Q16.16 bit pattern.
    #[inline]
    pub fn from_raw(raw: i32) -> Self {
        Self { raw }
    }

    /// The raw Q16.16 bit pattern.
    #[inline]
    pub fn raw(self) -> i32 {
        self.raw
    }

    /// Converts an `f32` into Q16.16, saturating at the representable range
    /// and mapping NaN to zero (hardware has no NaN).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        Self::from_f32_q(x, DEFAULT_FRAC_BITS)
    }

    /// Converts an `f32` into a Q-format value with `frac_bits` fractional
    /// bits, then renormalizes the bit pattern into the Q16.16 carrier.
    ///
    /// Quantizing through a narrower `frac_bits` and widening back is how the
    /// fractional-width ablation models a cheaper datapath: precision is lost
    /// exactly as it would be in the narrow hardware.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 30`.
    #[inline]
    pub fn from_f32_q(x: f32, frac_bits: u32) -> Self {
        assert!(frac_bits <= 30, "frac_bits {frac_bits} too large");
        if x.is_nan() {
            return Self::ZERO;
        }
        let scaled = (x as f64) * (1i64 << frac_bits) as f64;
        let q = scaled.round().clamp(i32::MIN as f64, i32::MAX as f64) as i64;
        // Renormalize into the Q16.16 carrier, saturating.
        let shift = DEFAULT_FRAC_BITS as i64 - frac_bits as i64;
        let raw = if shift >= 0 { q << shift } else { q >> -shift };
        Self {
            raw: raw.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
        }
    }

    /// Converts back to `f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.raw as f32 / (1u32 << DEFAULT_FRAC_BITS) as f32
    }

    /// Quantizes `x` through `frac_bits` fractional bits and back to `f32` —
    /// convenience for datapath-precision sweeps.
    #[inline]
    pub fn quantize_f32(x: f32, frac_bits: u32) -> f32 {
        Self::from_f32_q(x, frac_bits).to_f32()
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Self {
            raw: self.raw.saturating_add(rhs.raw),
        }
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self {
            raw: self.raw.saturating_sub(rhs.raw),
        }
    }

    /// Saturating multiplication with a 64-bit intermediate and arithmetic
    /// right shift (truncation toward negative infinity).
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = i64::from(self.raw) * i64::from(rhs.raw);
        let shifted = wide >> DEFAULT_FRAC_BITS;
        Self {
            raw: shifted.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
        }
    }

    /// Fixed-point division, saturating; division by zero saturates to the
    /// sign of the numerator (hardware dividers flag-and-clamp).
    #[inline]
    pub fn saturating_div(self, rhs: Self) -> Self {
        if rhs.raw == 0 {
            return if self.raw >= 0 { Self::MAX } else { Self::MIN };
        }
        let wide = (i64::from(self.raw) << DEFAULT_FRAC_BITS) / i64::from(rhs.raw);
        Self {
            raw: wide.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
        }
    }

    /// [`Fixed::from_f32_q`] with numeric-event accounting: bumps
    /// `nan_boundary` for non-finite operands and `quant_clamp` for finite
    /// operands clipped at the representable range. The returned value is
    /// bit-identical to the untracked conversion.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 30`.
    #[inline]
    pub fn from_f32_q_tracked(x: f32, frac_bits: u32, st: &mut NumericStatus) -> Self {
        assert!(frac_bits <= 30, "frac_bits {frac_bits} too large");
        if x.is_nan() {
            st.nan_boundary += 1;
            return Self::ZERO;
        }
        if x.is_infinite() {
            st.nan_boundary += 1;
        }
        let scaled = (x as f64) * (1i64 << frac_bits) as f64;
        let rounded = scaled.round();
        let q = rounded.clamp(i32::MIN as f64, i32::MAX as f64) as i64;
        let mut clamped = rounded < i32::MIN as f64 || rounded > i32::MAX as f64;
        let shift = DEFAULT_FRAC_BITS as i64 - frac_bits as i64;
        let wide = if shift >= 0 { q << shift } else { q >> -shift };
        let raw = wide.clamp(i32::MIN as i64, i32::MAX as i64);
        clamped |= raw != wide;
        // Non-finite operands count once, under `nan_boundary` only.
        if clamped && x.is_finite() {
            st.quant_clamp += 1;
        }
        Self { raw: raw as i32 }
    }

    /// [`Fixed::from_f32`] with numeric-event accounting.
    #[inline]
    pub fn from_f32_tracked(x: f32, st: &mut NumericStatus) -> Self {
        Self::from_f32_q_tracked(x, DEFAULT_FRAC_BITS, st)
    }

    /// [`Fixed::saturating_add`] with numeric-event accounting.
    #[inline]
    pub fn add_tracked(self, rhs: Self, st: &mut NumericStatus) -> Self {
        match self.raw.checked_add(rhs.raw) {
            Some(raw) => Self { raw },
            None => {
                st.add_sat += 1;
                self.saturating_add(rhs)
            }
        }
    }

    /// [`Fixed::saturating_sub`] with numeric-event accounting.
    #[inline]
    pub fn sub_tracked(self, rhs: Self, st: &mut NumericStatus) -> Self {
        match self.raw.checked_sub(rhs.raw) {
            Some(raw) => Self { raw },
            None => {
                st.sub_sat += 1;
                self.saturating_sub(rhs)
            }
        }
    }

    /// [`Fixed::saturating_mul`] with numeric-event accounting: `mul_sat`
    /// counts intermediate products that clipped at the 32-bit boundary.
    #[inline]
    pub fn mul_tracked(self, rhs: Self, st: &mut NumericStatus) -> Self {
        let wide = i64::from(self.raw) * i64::from(rhs.raw);
        let shifted = wide >> DEFAULT_FRAC_BITS;
        let raw = shifted.clamp(i32::MIN as i64, i32::MAX as i64);
        if raw != shifted {
            st.mul_sat += 1;
        }
        Self { raw: raw as i32 }
    }

    /// [`Fixed::saturating_div`] with numeric-event accounting: `div_zero`
    /// counts exactly-zero divisors; a clipped wide quotient (nonzero
    /// divisor) counts under the shared wide-result class `mul_sat`.
    #[inline]
    pub fn div_tracked(self, rhs: Self, st: &mut NumericStatus) -> Self {
        if rhs.raw == 0 {
            st.div_zero += 1;
            return if self.raw >= 0 { Self::MAX } else { Self::MIN };
        }
        let wide = (i64::from(self.raw) << DEFAULT_FRAC_BITS) / i64::from(rhs.raw);
        let raw = wide.clamp(i32::MIN as i64, i32::MAX as i64);
        if raw != wide {
            st.mul_sat += 1;
        }
        Self { raw: raw as i32 }
    }

    /// Absolute value, saturating at `MAX` for `MIN`.
    #[inline]
    pub fn abs(self) -> Self {
        Self {
            raw: self.raw.saturating_abs(),
        }
    }

    /// True when the value is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.raw == 0
    }

    /// The smallest positive representable increment (1 ULP).
    #[inline]
    pub fn epsilon() -> Self {
        Self { raw: 1 }
    }
}

impl std::ops::Add for Fixed {
    type Output = Fixed;
    #[inline]
    fn add(self, rhs: Fixed) -> Fixed {
        self.saturating_add(rhs)
    }
}

impl std::ops::Sub for Fixed {
    type Output = Fixed;
    #[inline]
    fn sub(self, rhs: Fixed) -> Fixed {
        self.saturating_sub(rhs)
    }
}

impl std::ops::Mul for Fixed {
    type Output = Fixed;
    #[inline]
    fn mul(self, rhs: Fixed) -> Fixed {
        self.saturating_mul(rhs)
    }
}

impl std::ops::Div for Fixed {
    type Output = Fixed;
    #[inline]
    fn div(self, rhs: Fixed) -> Fixed {
        self.saturating_div(rhs)
    }
}

impl std::ops::Neg for Fixed {
    type Output = Fixed;
    #[inline]
    fn neg(self) -> Fixed {
        Fixed {
            raw: self.raw.saturating_neg(),
        }
    }
}

impl std::ops::AddAssign for Fixed {
    #[inline]
    fn add_assign(&mut self, rhs: Fixed) {
        *self = *self + rhs;
    }
}

impl From<Fixed> for f32 {
    #[inline]
    fn from(x: Fixed) -> f32 {
        x.to_f32()
    }
}

impl std::fmt::Display for Fixed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}", self.to_f32())
    }
}

/// A fixed-point dot product over `f32` slices, quantizing each operand on
/// the way in — the MAC-chain the MEM and OUTPUT modules execute.
///
/// The accumulator is a `Fixed` (32-bit with saturation), so long dot
/// products can saturate exactly as the hardware accumulator would.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn fixed_dot(a: &[f32], b: &[f32]) -> Fixed {
    assert_eq!(a.len(), b.len(), "fixed_dot length mismatch");
    let mut acc = Fixed::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc += Fixed::from_f32(x) * Fixed::from_f32(y);
    }
    acc
}

/// The multiply-accumulate chain behind every stored-word dot product:
/// `acc = acc.add_tracked(a[i].mul_tracked(b[i], st), st)` from
/// [`Fixed::ZERO`], in order, recording each product and accumulator
/// saturation in `st`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_tracked(a: &[Fixed], b: &[Fixed], st: &mut NumericStatus) -> Fixed {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    dot_tracked_pairs(a.iter().copied().zip(b.iter().copied()), st)
}

/// [`dot_tracked`] over any sequence of operand pairs, such as a column of
/// row-major storage.
pub fn dot_tracked_pairs(
    pairs: impl IntoIterator<Item = (Fixed, Fixed)>,
    st: &mut NumericStatus,
) -> Fixed {
    pairs.into_iter().fold(Fixed::ZERO, |acc, (x, y)| {
        acc.add_tracked(x.mul_tracked(y, st), st)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_values() {
        for &x in &[0.0f32, 1.0, -1.0, 0.5, -0.25, 123.456, -7.89] {
            let err = (Fixed::from_f32(x).to_f32() - x).abs();
            assert!(err <= 1.0 / 65536.0, "{x} round-trip error {err}");
        }
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(Fixed::ONE.to_f32(), 1.0);
        assert_eq!(Fixed::ZERO.to_f32(), 0.0);
        assert!(Fixed::MAX.to_f32() > 32767.0);
    }

    #[test]
    fn add_saturates() {
        assert_eq!(Fixed::MAX + Fixed::ONE, Fixed::MAX);
        assert_eq!(Fixed::MIN - Fixed::ONE, Fixed::MIN);
    }

    #[test]
    fn mul_matches_float_for_in_range() {
        let a = Fixed::from_f32(3.25);
        let b = Fixed::from_f32(-2.5);
        assert!(((a * b).to_f32() - -8.125).abs() < 1e-4);
    }

    #[test]
    fn mul_saturates_on_overflow() {
        let big = Fixed::from_f32(30000.0);
        assert_eq!(big * big, Fixed::MAX);
        assert_eq!(big * -big, Fixed::MIN);
    }

    #[test]
    fn div_by_zero_clamps() {
        assert_eq!(Fixed::ONE / Fixed::ZERO, Fixed::MAX);
        assert_eq!(-Fixed::ONE / Fixed::ZERO, Fixed::MIN);
    }

    #[test]
    fn div_matches_float() {
        let a = Fixed::from_f32(7.0);
        let b = Fixed::from_f32(2.0);
        assert!(((a / b).to_f32() - 3.5).abs() < 1e-4);
    }

    #[test]
    fn nan_maps_to_zero() {
        assert_eq!(Fixed::from_f32(f32::NAN), Fixed::ZERO);
    }

    #[test]
    fn narrow_format_loses_precision_monotonically() {
        let x = 0.123_456_79_f32;
        let e16 = (Fixed::quantize_f32(x, 16) - x).abs();
        let e8 = (Fixed::quantize_f32(x, 8) - x).abs();
        let e4 = (Fixed::quantize_f32(x, 4) - x).abs();
        assert!(e16 <= e8 && e8 <= e4, "{e16} {e8} {e4}");
    }

    #[test]
    fn fixed_dot_matches_float_dot() {
        let a = [0.5f32, -1.25, 2.0, 0.75];
        let b = [1.0f32, 0.5, -0.25, 4.0];
        let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((fixed_dot(&a, &b).to_f32() - exact).abs() < 1e-3);
    }

    #[test]
    fn ordering_matches_float_ordering() {
        let a = Fixed::from_f32(1.5);
        let b = Fixed::from_f32(2.5);
        assert!(a < b);
        assert!(-b < -a);
    }

    #[test]
    fn display_shows_decimal() {
        assert_eq!(Fixed::from_f32(1.5).to_string(), "1.500000");
    }
}
