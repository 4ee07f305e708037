//! Q-format fixed-point scalar mirroring the FPGA datapath.
//!
//! The accelerator's arithmetic units operate on two's-complement fixed-point
//! words rather than IEEE floats; [`Fixed`] reproduces that behaviour in the
//! simulator so quantization effects (saturation, truncation) are visible in
//! the reproduced accuracy numbers. The default format is Q16.16 stored in an
//! `i32`; other fractional widths are available through [`Fixed::from_f32_q`]
//! for the width-ablation experiment.

use std::borrow::Cow;

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
        // The saturating cast truncates the biased value, which rounds
        // `scaled` half away from zero, and clamps it into `i32`.
        let q = half_away(scaled) as i32 as i64;
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
        let biased = half_away(scaled);
        let q = biased as i32 as i64;
        // The rounded value leaves `i32` exactly when the biased one
        // truncates to `2^31` or beyond, or to `−2^31 − 1` or below.
        let mut clamped = biased >= I32_SPAN || biased <= -I32_SPAN - 1.0;
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

    /// The word after a round trip through `f32`:
    /// `Fixed::from_f32_tracked(self.to_f32(), st)`, value and events. It
    /// marks the quantization point where one module handed the next an
    /// `f32`. A word of magnitude at most `2^24` converts to `f32` exactly
    /// and comes back unchanged with no event, so only a larger word takes
    /// the conversion: it rounds to 24 significant bits, and `i32::MAX`,
    /// which rounds up to `2^31`, clips back with a `quant_clamp`.
    #[inline]
    pub fn requant(self, st: &mut NumericStatus) -> Self {
        if self.raw.unsigned_abs() <= EXACT_IN_F32 {
            self
        } else {
            Self::from_f32_tracked(self.to_f32(), st)
        }
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

/// `2^31`, the first magnitude past `i32::MAX`.
const I32_SPAN: f64 = 2_147_483_648.0;

/// `2^24`: every raw word up to this magnitude converts to `f32` exactly.
const EXACT_IN_F32: u32 = 1 << 24;

/// `x` moved half a unit away from zero, so that truncating the result
/// rounds `x` half away from zero as [`f64::round`] does, without the libm
/// call `f64::round` compiles to on the baseline x86-64 target. The
/// quantizer truncates with a saturating `as i32` cast, which also clamps.
///
/// This holds for the quantizer's operands, an `f32` times a power of two,
/// which have at most 24 significant bits. In magnitude: from 1 up to
/// `2^52` the sum is exact. Below 1 it may round, but such an `x` below
/// `1/2` is at most `1/2 − 2^-25`, so the sum stays below 1, and from `1/2`
/// the sum is at least 1. From `2^52` up `x` is an even integer and the
/// sum rounds back to it. Infinities and NaN pass through.
#[inline]
fn half_away(x: f64) -> f64 {
    x + 0.5f64.copysign(x)
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

/// The multiply-accumulate chain of a stored-word dot product:
/// `acc = acc.add_tracked(a[i].mul_tracked(b[i], st), st)` from
/// [`Fixed::ZERO`], in order, recording each product and accumulator
/// saturation in `st`.
///
/// This is the datapath's definition of a dot product. Production code
/// reaches it through [`dot_certified`], which runs it whenever its
/// certificate fails; tests use it as the oracle.
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

/// `Σ|w|` over the raw words: the magnitude one side of a
/// [`dot_certified`] product brings. Saturates instead of wrapping.
#[inline]
pub fn abs_sum(words: &[Fixed]) -> u64 {
    // Fewer than 2^32 terms of at most 2^31 each sum below 2^63, so only
    // the chunk totals need the saturating add.
    words.chunks(u32::MAX as usize).fold(0u64, |s, chunk| {
        let chunk_sum: u64 = chunk.iter().map(|w| u64::from(w.raw.unsigned_abs())).sum();
        s.saturating_add(chunk_sum)
    })
}

/// `max|w|` over the raw words (0 when empty): the magnitude the other
/// side of a [`dot_certified`] product brings.
#[inline]
pub fn abs_max(words: &[Fixed]) -> u64 {
    // The extremes in `i32`, a fold the compiler vectorizes.
    let (lo, hi) = words
        .iter()
        .fold((0i32, 0i32), |(lo, hi), w| (lo.min(w.raw), hi.max(w.raw)));
    u64::from(lo.unsigned_abs().max(hi.unsigned_abs()))
}

/// `words` through [`Fixed::requant`], borrowed when every word passes
/// unchanged: one vectorized `max|w|` decides, so a vector that never left
/// the exact range costs no copy and no per-word test.
#[inline]
pub fn requant_all<'a>(words: &'a [Fixed], st: &mut NumericStatus) -> Cow<'a, [Fixed]> {
    if abs_max(words) <= u64::from(EXACT_IN_F32) {
        Cow::Borrowed(words)
    } else {
        Cow::Owned(words.iter().map(|w| w.requant(st)).collect())
    }
}

/// [`requant_all`] in place.
#[inline]
pub fn requant_in_place(words: &mut [Fixed], st: &mut NumericStatus) {
    if abs_max(words) > u64::from(EXACT_IN_F32) {
        for w in words {
            *w = w.requant(st);
        }
    }
}

/// The certificate of a sum of `terms` words of magnitude at most
/// `abs_max`: when `terms · abs_max ≤ i32::MAX`, no partial sum of the
/// in-order saturating chain leaves `i32`, so plain adds give its value and
/// it records no event. The product saturates instead of wrapping.
#[inline]
pub fn sum_certifies(terms: usize, abs_max: u64) -> bool {
    (terms as u64).saturating_mul(abs_max) <= i32::MAX as u64
}

/// The certificate of [`dot_certified`] for `n` products:
/// `⌊abs_sum·abs_max / 2^16⌋ + n ≤ i32::MAX`. The product saturates at
/// `u64::MAX`, which fails the test, so no input wraps it.
#[inline]
fn certifies(abs_sum: u64, abs_max: u64, n: usize) -> bool {
    let bound = (abs_sum.saturating_mul(abs_max) >> DEFAULT_FRAC_BITS).saturating_add(n as u64);
    bound <= i32::MAX as u64
}

/// [`dot_tracked`] certified from magnitudes known before the loop:
/// `abs_sum ≥ Σ|raw|` of one operand and `abs_max ≥ max|raw|` of the
/// other, either way round (see [`abs_sum`] and [`abs_max`]).
///
/// If `⌊abs_sum·abs_max / 2^16⌋ + n ≤ i32::MAX` for `n` products, no
/// product and no partial sum of the chain leaves `i32`: each floored
/// product has `|p_i| ≤ ⌊|a_i·b_i| / 2^16⌋ + 1`, so every partial sum is
/// at most `Σ|p_i| ≤ ⌊Σ|a_i·b_i| / 2^16⌋ + n`, and
/// `Σ|a_i·b_i| ≤ abs_sum·abs_max`. The chain then records no event, so
/// the result is the plain `i64` sum of `(a_i·b_i) >> 16` and `st` is
/// left untouched. Otherwise the chain runs unchanged. Either way the
/// value and `st` equal [`dot_tracked`]'s, provided the magnitudes really
/// bound the operands.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_certified(
    a: &[Fixed],
    b: &[Fixed],
    abs_sum: u64,
    abs_max: u64,
    st: &mut NumericStatus,
) -> Fixed {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    dot_certified_pairs(
        a.iter().copied().zip(b.iter().copied()),
        abs_sum,
        abs_max,
        st,
    )
}

/// [`dot_certified`] over a sequence of operand pairs of known length,
/// such as a column of row-major storage; the fallback is
/// [`dot_tracked_pairs`].
#[inline]
pub fn dot_certified_pairs(
    pairs: impl ExactSizeIterator<Item = (Fixed, Fixed)>,
    abs_sum: u64,
    abs_max: u64,
    st: &mut NumericStatus,
) -> Fixed {
    if !certifies(abs_sum, abs_max, pairs.len()) {
        return dot_tracked_pairs(pairs, st);
    }
    let sum: i64 = pairs
        .map(|(x, y)| (i64::from(x.raw) * i64::from(y.raw)) >> DEFAULT_FRAC_BITS)
        .sum();
    // The certificate bounds every partial sum, the last included, by
    // `i32::MAX`.
    Fixed { raw: sum as i32 }
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

    /// Truncating the biased value gives `f64::round`'s value (NaN for
    /// NaN).
    fn same_rounding(x: f64) -> bool {
        let (got, want) = (half_away(x).trunc(), x.round());
        got == want || (got.is_nan() && want.is_nan())
    }

    /// The tracked conversion through `f64::round`, as it was written
    /// before the quantizer dropped libm: the reference for value and
    /// events.
    fn quantize_with_libm(x: f32, frac_bits: u32, st: &mut NumericStatus) -> Fixed {
        if x.is_nan() {
            st.nan_boundary += 1;
            return Fixed::ZERO;
        }
        if x.is_infinite() {
            st.nan_boundary += 1;
        }
        let rounded = ((x as f64) * (1i64 << frac_bits) as f64).round();
        let q = rounded.clamp(i32::MIN as f64, i32::MAX as f64) as i64;
        let mut clamped = rounded < i32::MIN as f64 || rounded > i32::MAX as f64;
        let shift = DEFAULT_FRAC_BITS as i64 - frac_bits as i64;
        let wide = if shift >= 0 { q << shift } else { q >> -shift };
        let raw = wide.clamp(i32::MIN as i64, i32::MAX as i64);
        clamped |= raw != wide;
        if clamped && x.is_finite() {
            st.quant_clamp += 1;
        }
        Fixed::from_raw(raw as i32)
    }

    /// The conversion equals the libm reference in value and events, and
    /// the untracked one in value.
    fn same_conversion(x: f32, frac_bits: u32) -> bool {
        let (mut got, mut want) = (NumericStatus::default(), NumericStatus::default());
        let value = Fixed::from_f32_q_tracked(x, frac_bits, &mut got);
        value == quantize_with_libm(x, frac_bits, &mut want)
            && got == want
            && value == Fixed::from_f32_q(x, frac_bits)
    }

    #[test]
    fn rounding_matches_libm_on_pinned_cases() {
        let below_half = f32::from_bits(0.5f32.to_bits() - 1);
        let rail = 2_147_483_647.5f64;
        for x in [
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            f64::from(below_half),
            -f64::from(below_half),
            rail,
            -rail - 1.0,
            rail - 1.0,
            -rail,
            4_503_599_627_370_495.5,
            f64::from(f32::MAX),
            f64::from(f32::MIN),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert!(
                same_rounding(x),
                "{x}: {} vs {}",
                half_away(x).trunc(),
                x.round()
            );
        }
        let rail_f32 = Fixed::MAX.to_f32();
        for x in [
            0.5,
            -0.5,
            1.5,
            -1.5,
            below_half,
            -below_half,
            rail_f32,
            -rail_f32,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ] {
            for frac_bits in [0, 8, 16, 30] {
                assert!(same_conversion(x, frac_bits), "{x} at {frac_bits} bits");
            }
        }
        assert_eq!(Fixed::from_f32_q(below_half, 0), Fixed::ZERO);
        assert_eq!(Fixed::from_f32_q(-0.5, 0), Fixed::from_f32(-1.0));
    }

    /// Magnitudes of `a` and `b` in the form the certified entry takes.
    fn certified(a: &[Fixed], b: &[Fixed], st: &mut NumericStatus) -> Fixed {
        dot_certified(a, b, abs_sum(a), abs_max(b), st)
    }

    #[test]
    fn certificate_edge_is_exact() {
        let dirty = NumericStatus {
            add_sat: 2,
            mul_sat: 1,
            ..NumericStatus::default()
        };
        // ⌊1.0 · (2^31 − 2) / 2^16 · 2^16⌋ + 1 = i32::MAX: the integer sum.
        let one = [Fixed::ONE];
        let at_edge = [Fixed::from_raw(i32::MAX - 1)];
        assert!(certifies(abs_sum(&one), abs_max(&at_edge), 1));
        let (mut got, mut want) = (dirty, dirty);
        assert_eq!(
            certified(&one, &at_edge, &mut got),
            dot_tracked(&one, &at_edge, &mut want)
        );
        assert_eq!((got, want), (dirty, dirty));
        // One past the edge: the chain.
        let past = [Fixed::MAX];
        assert!(!certifies(abs_sum(&one), abs_max(&past), 1));
        let (mut got, mut want) = (dirty, dirty);
        assert_eq!(certified(&one, &past, &mut got), Fixed::MAX);
        assert_eq!(dot_tracked(&one, &past, &mut want), Fixed::MAX);
        assert_eq!(got, want);
        // A saturating chain records its events through the entry.
        let rails = [Fixed::MAX, Fixed::MIN];
        let mut got = dirty;
        assert_eq!(
            certified(&rails, &[Fixed::MAX; 2], &mut got),
            Fixed::from_raw(-1)
        );
        assert_eq!(
            got,
            NumericStatus {
                mul_sat: dirty.mul_sat + 2,
                ..dirty
            }
        );
        let mut got = dirty;
        assert_eq!(
            certified(&[Fixed::MAX; 2], &[Fixed::MAX; 2], &mut got),
            Fixed::MAX
        );
        assert_eq!(
            got,
            NumericStatus {
                add_sat: dirty.add_sat + 1,
                mul_sat: dirty.mul_sat + 2,
                ..dirty
            }
        );
        // Saturated magnitudes fail the certificate instead of wrapping.
        assert!(!certifies(u64::MAX, u64::MAX, usize::MAX));
        assert!(certifies(0, u64::MAX, 0));
    }

    proptest::proptest! {
        /// The libm-free rounding equals `f64::round` on every quantizer
        /// input, an `f32` bit pattern scaled by `2^frac` for each width
        /// the quantizer accepts, and the conversion equals the libm
        /// reference in value and events.
        #[test]
        fn rounding_matches_libm(bits in proptest::prelude::any::<u32>(), frac in 0u32..=30) {
            let x = f32::from_bits(bits);
            let scaled = f64::from(x) * (1i64 << frac) as f64;
            proptest::prop_assert!(same_rounding(scaled), "{}", scaled);
            proptest::prop_assert!(same_conversion(x, frac), "{} at {} bits", x, frac);
        }
    }
}
