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
// A slice of words is a slice of `i32`, which the AVX2 kernels load.
#[repr(transparent)]
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

/// The multiply-accumulate chain of a stored-word dot product:
/// `acc = acc.add_tracked(a[i].mul_tracked(b[i], st), st)` from
/// [`Fixed::ZERO`], in order, recording each product and accumulator
/// saturation in `st`.
///
/// This is the datapath's definition of a dot product. Production code
/// reaches it through [`dot_certified`] and [`weighted_rows_certified`],
/// which run it whenever their certificate fails; tests use it as the
/// oracle.
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

/// `Σ|w|` and `max|w|` over one operand's raw words, from one scan: the
/// magnitudes the two sides of a [`dot_certified`] product bring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Magnitudes {
    /// `Σ|w|`, saturating instead of wrapping.
    pub abs_sum: u64,
    /// `max|w|`, 0 when empty.
    pub abs_max: u64,
}

impl Magnitudes {
    /// Both magnitudes of `words`, from one scan: the AVX2 kernel when this
    /// CPU has AVX2, the scalar loop otherwise.
    #[inline]
    pub fn of(words: &[Fixed]) -> Self {
        // Fewer than 2^32 terms of at most 2^31 each sum below 2^63, so only
        // the chunk totals need the saturating add.
        words
            .chunks(u32::MAX as usize)
            .fold(Self::default(), |m, chunk| {
                let (abs_sum, abs_max) = chunk_magnitudes(chunk);
                Self {
                    abs_sum: m.abs_sum.saturating_add(abs_sum),
                    abs_max: m.abs_max.max(abs_max),
                }
            })
    }

    /// Whether every word passes [`Fixed::requant`] unchanged.
    #[inline]
    fn requant_exact(self) -> bool {
        self.abs_max <= u64::from(EXACT_IN_F32)
    }
}

/// `Σ|w|` over the raw words: the magnitude one side of a
/// [`dot_certified`] product brings. Saturates instead of wrapping.
#[inline]
pub fn abs_sum(words: &[Fixed]) -> u64 {
    Magnitudes::of(words).abs_sum
}

/// `max|w|` over the raw words (0 when empty): the magnitude the other
/// side of a [`dot_certified`] product brings.
#[inline]
pub fn abs_max(words: &[Fixed]) -> u64 {
    Magnitudes::of(words).abs_max
}

/// `words` through [`Fixed::requant`], with the [`Magnitudes`] of the
/// result. Borrowed when every word passes unchanged: the scan that takes
/// the magnitudes decides, so a vector that never left the exact range
/// costs one scan, no copy and no per-word test.
#[inline]
pub fn requant_all<'a>(
    words: &'a [Fixed],
    st: &mut NumericStatus,
) -> (Cow<'a, [Fixed]>, Magnitudes) {
    let m = Magnitudes::of(words);
    if m.requant_exact() {
        (Cow::Borrowed(words), m)
    } else {
        let words: Vec<Fixed> = words.iter().map(|w| w.requant(st)).collect();
        let m = Magnitudes::of(&words);
        (Cow::Owned(words), m)
    }
}

/// [`requant_all`] in place.
#[inline]
pub fn requant_in_place(words: &mut [Fixed], st: &mut NumericStatus) -> Magnitudes {
    let m = Magnitudes::of(words);
    if m.requant_exact() {
        return m;
    }
    for w in words.iter_mut() {
        *w = w.requant(st);
    }
    Magnitudes::of(words)
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
/// the result is the plain integer sum of `(a_i·b_i) >> 16`, taken by the
/// AVX2 kernel when the CPU has it and by the scalar loop otherwise, and
/// `st` is left untouched. Otherwise the chain runs unchanged. Either way
/// the value and `st` equal [`dot_tracked`]'s, provided the magnitudes
/// really bound the operands.
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
    if !certifies(abs_sum, abs_max, a.len()) {
        return dot_tracked(a, b, st);
    }
    Fixed {
        raw: certified_dot(a, b),
    }
}

/// [`dot_certified`] of every row of a row-major `table` with one operand
/// `x`, the pass form: `out[r]` is row `r`'s dot product. `abs_sum` and
/// `abs_max` certify the pass when they bound every row's product as they
/// would bound one [`dot_certified`]: each row's `Σ|w|` at most `abs_sum`
/// and `x`'s `max|x|` at most `abs_max`, or `x`'s `Σ|x|` and the table's
/// `max|w|`.
///
/// The certificate is checked once per pass. A certified pass makes one
/// call into the AVX2 kernel, which sweeps every row against the operand,
/// when the CPU has AVX2, and runs the scalar loop on each row otherwise;
/// `st` is left untouched. A pass that does not certify runs the chain on
/// each row in row order, although some rows might certify on their own:
/// any valid bound gives the chain's value. Either way every word of `out`
/// is written, and the words and `st` are those of [`dot_tracked`] on each
/// row in order.
///
/// # Panics
///
/// Panics if `table` is not `out.len()` rows of `x.len()` words.
#[inline]
pub fn matvec_certified(
    table: &[Fixed],
    x: &[Fixed],
    abs_sum: u64,
    abs_max: u64,
    out: &mut [Fixed],
    st: &mut NumericStatus,
) {
    assert_eq!(
        out.len().checked_mul(x.len()),
        Some(table.len()),
        "table shape mismatch"
    );
    if x.is_empty() {
        out.fill(Fixed::ZERO);
    } else if certifies(abs_sum, abs_max, x.len()) {
        certified_matvec(table, x, out);
    } else {
        for (o, row) in out.iter_mut().zip(table.chunks_exact(x.len())) {
            *o = dot_tracked(row, x, st);
        }
    }
}

/// The weighted sum of the rows of a row-major `table`,
/// `out[j] = Σ_i weights[i]·table[i][j]`, each word [`dot_tracked_pairs`]
/// down column `j` in row order, certified as in [`dot_certified`] by
/// magnitudes that bound every column's dot product with the weights: the
/// weights' `Σ|w|` and the table's `max|t|` do. The table has
/// `weights.len()` rows of `out.len()` words.
///
/// A certified table is summed by the AVX2 kernel, which sweeps the rows
/// into `out` in the order they are stored, when the CPU has AVX2, and by
/// the scalar loop down each column otherwise. Every word of `out` is one
/// certified column sum, so either order of its terms gives its value,
/// and `st` is left untouched. An uncertified table runs the chain down
/// each column in row order. Either way every word of `out` is written,
/// and the words and `st` are those of [`dot_tracked_pairs`] down each
/// column.
///
/// # Panics
///
/// Panics if `table` is not `weights.len()` rows of `out.len()` words.
#[inline]
pub fn weighted_rows_certified(
    weights: &[Fixed],
    table: &[Fixed],
    abs_sum: u64,
    abs_max: u64,
    out: &mut [Fixed],
    st: &mut NumericStatus,
) {
    let width = out.len();
    assert_eq!(
        weights.len().checked_mul(width),
        Some(table.len()),
        "table shape mismatch"
    );
    if certifies(abs_sum, abs_max, weights.len()) {
        certified_rows(weights, table, out);
    } else {
        for (j, o) in out.iter_mut().enumerate() {
            let column = table.iter().skip(j).step_by(width).copied();
            *o = dot_tracked_pairs(weights.iter().copied().zip(column), st);
        }
    }
}

/// The value of a certified [`dot_certified`]: the AVX2 kernel when this
/// CPU has AVX2, the scalar loop otherwise. Dispatched on every call.
#[inline]
fn certified_dot(a: &[Fixed], b: &[Fixed]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = avx2::Avx2::detect() {
        return avx2.dot(a, b);
    }
    dot_scalar(a.iter().zip(b))
}

/// `(Σ|w|, max|w|)` of fewer than `2^32` words: the AVX2 kernel when this
/// CPU has AVX2, the scalar loop otherwise.
#[inline]
fn chunk_magnitudes(words: &[Fixed]) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = avx2::Avx2::detect() {
        return avx2.magnitudes(words);
    }
    magnitudes_scalar(words)
}

/// The scalar loop of [`chunk_magnitudes`], and the oracle of its AVX2
/// kernel.
#[inline]
fn magnitudes_scalar(words: &[Fixed]) -> (u64, u64) {
    let (sum, max) = words.iter().fold((0u64, 0u32), |(sum, max), w| {
        let abs = w.raw.unsigned_abs();
        (sum + u64::from(abs), max.max(abs))
    });
    (sum, u64::from(max))
}

/// The words of a certified [`matvec_certified`] over a nonempty operand:
/// the AVX2 pass kernel when this CPU has AVX2, the scalar loop on each row
/// otherwise. Dispatched once per pass.
#[inline]
fn certified_matvec(table: &[Fixed], x: &[Fixed], out: &mut [Fixed]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = avx2::Avx2::detect() {
        avx2.matvec(table, x, out);
        return;
    }
    matvec_scalar(table, x, out);
}

/// The words of a certified [`weighted_rows_certified`]: the AVX2 row
/// sweep when this CPU has AVX2, the scalar column walk otherwise.
/// Dispatched on every call.
#[inline]
fn certified_rows(weights: &[Fixed], table: &[Fixed], out: &mut [Fixed]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = avx2::Avx2::detect() {
        avx2.rows(weights, table, out);
        return;
    }
    rows_scalar(weights, table, out);
}

/// The scalar loop of a certified sum: the `i64` sum of
/// `(a_i·b_i) >> 16`, which the certificate keeps inside `i32`. It runs on
/// CPUs without AVX2 and is the oracle of the AVX2 kernels.
#[inline]
fn dot_scalar<'a>(pairs: impl Iterator<Item = (&'a Fixed, &'a Fixed)>) -> i32 {
    let sum: i64 = pairs
        .map(|(x, y)| (i64::from(x.raw) * i64::from(y.raw)) >> DEFAULT_FRAC_BITS)
        .sum();
    sum as i32
}

/// The scalar form of a certified [`matvec_certified`] over a nonempty
/// operand: each word of `out` the [`dot_scalar`] of one row.
fn matvec_scalar(table: &[Fixed], x: &[Fixed], out: &mut [Fixed]) {
    for (o, row) in out.iter_mut().zip(table.chunks_exact(x.len())) {
        o.raw = dot_scalar(row.iter().zip(x));
    }
}

/// The scalar form of a certified [`weighted_rows_certified`]: each word
/// of `out` the [`dot_scalar`] of one column, walked down the rows.
fn rows_scalar(weights: &[Fixed], table: &[Fixed], out: &mut [Fixed]) {
    let width = out.len();
    for (j, o) in out.iter_mut().enumerate() {
        o.raw = dot_scalar(weights.iter().zip(table.iter().skip(j).step_by(width)));
    }
}

/// The AVX2 kernels of the certified sums, behind a token that only a CPU
/// with AVX2 yields.
///
/// The baseline x86-64 target has no signed 32 × 32 → 64 vector multiply
/// and no 64-bit arithmetic shift, so the scalar loop stays scalar there.
/// AVX2 has the multiply (`vpmuldq`) but still no such shift, so each term
/// is taken with a logical shift and the terms are summed wrapping. That
/// is exact: the logical and the arithmetic shift of a product agree in
/// their low 48 bits, a wrapping sum's low 32 bits depend only on its
/// terms' low 32 bits, and the certificate keeps the true sum inside
/// `i32`, which its low 32 bits then give. The same holds for each word of
/// a row sweep, which is one certified column sum accumulated wrapping in
/// `i32`, and for each word of a matvec pass, whose `u64` lanes and
/// operand segments add wrapping.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_abs_epi32, _mm256_add_epi64, _mm256_and_si256,
        _mm256_castsi256_si128, _mm256_cmpgt_epi32, _mm256_extracti128_si256, _mm256_loadu_si256,
        _mm256_maskload_epi32, _mm256_max_epu32, _mm256_mul_epi32, _mm256_set1_epi32,
        _mm256_set1_epi64x, _mm256_setr_epi32, _mm256_setzero_si256, _mm256_srli_epi64,
        _mm_add_epi64, _mm_cvtsi128_si32, _mm_cvtsi128_si64, _mm_max_epu32, _mm_shuffle_epi32,
        _mm_unpackhi_epi64,
    };

    use super::{Fixed, DEFAULT_FRAC_BITS};

    /// Proof that this CPU has AVX2: only [`Avx2::detect`] builds one.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        /// The token, when this CPU has AVX2 and the build does not force
        /// the scalar loops (`--cfg mann_scalar_kernels`, a CI build
        /// switch). `std` caches the CPUID result, so a call costs one load
        /// and a branch.
        #[inline]
        pub(super) fn detect() -> Option<Self> {
            (!cfg!(mann_scalar_kernels) && std::arch::is_x86_feature_detected!("avx2"))
                .then_some(Self(()))
        }

        /// The certified dot product's value, from the AVX2 kernel.
        #[inline]
        pub(super) fn dot(self, a: &[Fixed], b: &[Fixed]) -> i32 {
            // SAFETY: `dot_avx2` needs AVX2, and `self` exists only where
            // `Avx2::detect` found AVX2 on this CPU.
            unsafe { dot_avx2(a, b) }
        }

        /// The certified row sweep, from the AVX2 kernel.
        #[inline]
        pub(super) fn rows(self, weights: &[Fixed], table: &[Fixed], out: &mut [Fixed]) {
            // SAFETY: `rows_avx2` needs AVX2, and `self` exists only where
            // `Avx2::detect` found AVX2 on this CPU.
            unsafe { rows_avx2(weights, table, out) }
        }

        /// The certified matvec pass over a nonempty operand, from the AVX2
        /// kernel.
        #[inline]
        pub(super) fn matvec(self, table: &[Fixed], x: &[Fixed], out: &mut [Fixed]) {
            // SAFETY: `matvec_avx2` needs AVX2, and `self` exists only where
            // `Avx2::detect` found AVX2 on this CPU.
            unsafe { matvec_avx2(table, x, out) }
        }

        /// `(Σ|w|, max|w|)` of fewer than `2^32` words, from the AVX2
        /// kernel.
        #[inline]
        pub(super) fn magnitudes(self, words: &[Fixed]) -> (u64, u64) {
            // SAFETY: `magnitudes_avx2` needs AVX2, and `self` exists only
            // where `Avx2::detect` found AVX2 on this CPU.
            unsafe { magnitudes_avx2(words) }
        }
    }

    /// `(x·y) >> 16` with a logical shift: the arithmetic shift's low 48
    /// bits.
    #[inline(always)]
    fn term(x: Fixed, y: Fixed) -> u64 {
        (i64::from(x.raw) * i64::from(y.raw)) as u64 >> DEFAULT_FRAC_BITS
    }

    #[target_feature(enable = "avx2")]
    fn dot_avx2(a: &[Fixed], b: &[Fixed]) -> i32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| term(*x, *y))
            .fold(0u64, u64::wrapping_add) as i32
    }

    /// Zeroes `out`, then adds each row's terms into it.
    #[target_feature(enable = "avx2")]
    fn rows_avx2(weights: &[Fixed], table: &[Fixed], out: &mut [Fixed]) {
        out.fill(Fixed::ZERO);
        if out.is_empty() {
            return;
        }
        for (w, row) in weights.iter().zip(table.chunks_exact(out.len())) {
            for (o, t) in out.iter_mut().zip(row) {
                o.raw = o.raw.wrapping_add(term(*w, *t) as i32);
            }
        }
    }

    /// Operand blocks of 8 words a pass splits at a time.
    const SEGMENT_BLOCKS: usize = 8;
    /// Operand words a pass splits at a time.
    const SEGMENT: usize = 8 * SEGMENT_BLOCKS;

    /// Each row's terms summed into its word of `out`, one operand segment
    /// at a time. Each segment is split once into `vpmuldq` lanes, which
    /// multiply the low `i32` of each 64-bit lane: each 8-word block's even
    /// words as loaded, and its odd words shifted down into the low halves.
    /// Then each row of the segment is swept with 8-word loads and summed
    /// with one horizontal sum. A last block of fewer than 8 words is
    /// loaded through a lane mask ([`load_tail`]), which zeroes the lanes
    /// past it, in the operand and in every row.
    #[target_feature(enable = "avx2")]
    fn matvec_avx2(table: &[Fixed], x: &[Fixed], out: &mut [Fixed]) {
        let mut even = [_mm256_setzero_si256(); SEGMENT_BLOCKS];
        let mut odd = [_mm256_setzero_si256(); SEGMENT_BLOCKS];
        for (s, segment) in x.chunks(SEGMENT).enumerate() {
            let (blocks, tail) = segment.as_chunks::<8>();
            for (b, block) in blocks.iter().enumerate() {
                (even[b], odd[b]) = split(load(block));
            }
            if !tail.is_empty() {
                (even[blocks.len()], odd[blocks.len()]) = split(load_tail(tail));
            }
            for (r, o) in out.iter_mut().enumerate() {
                let row = &table[r * x.len() + s * SEGMENT..][..segment.len()];
                let sum = row_sum(row, &even, &odd);
                o.raw = if s == 0 { sum } else { o.raw.wrapping_add(sum) };
            }
        }
    }

    /// A block's even words in place and its odd words shifted down.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn split(block: __m256i) -> (__m256i, __m256i) {
        (block, _mm256_srli_epi64::<32>(block))
    }

    /// The low 32 bits of the wrapping sum of a row's terms against the
    /// split operand segment of its width.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn row_sum(row: &[Fixed], even: &[__m256i], odd: &[__m256i]) -> i32 {
        let (blocks, tail) = row.as_chunks::<8>();
        let mut acc = _mm256_setzero_si256();
        for ((block, e), o) in blocks.iter().zip(even).zip(odd) {
            acc = add_terms(acc, load(block), *e, *o);
        }
        if !tail.is_empty() {
            let b = blocks.len();
            acc = add_terms(acc, load_tail(tail), even[b], odd[b]);
        }
        _mm_cvtsi128_si64(lane_sum(acc)) as i32
    }

    /// `acc` plus the 8 terms of one block, each `(w·x) >> 16` with a
    /// logical shift, two to each 64-bit lane: the even words' products and
    /// the odd words'.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn add_terms(acc: __m256i, row: __m256i, even: __m256i, odd: __m256i) -> __m256i {
        const SHIFT: i32 = DEFAULT_FRAC_BITS as i32;
        let even = _mm256_mul_epi32(row, even);
        let odd = _mm256_mul_epi32(_mm256_srli_epi64::<32>(row), odd);
        let acc = _mm256_add_epi64(acc, _mm256_srli_epi64::<SHIFT>(even));
        _mm256_add_epi64(acc, _mm256_srli_epi64::<SHIFT>(odd))
    }

    /// The wrapping sum of the four 64-bit lanes, in the low lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lane_sum(v: __m256i) -> __m128i {
        let half = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        _mm_add_epi64(half, _mm_unpackhi_epi64(half, half))
    }

    /// `(Σ|w|, max|w|)` of fewer than `2^32` words: each word's `|w|` as
    /// an unsigned `i32` (`vpabsd` maps `i32::MIN` to `2^31`), its maximum
    /// kept unsigned, and its even and odd words summed in 64-bit lanes,
    /// which stay below `2^61`.
    #[target_feature(enable = "avx2")]
    fn magnitudes_avx2(words: &[Fixed]) -> (u64, u64) {
        let (blocks, tail) = words.as_chunks::<8>();
        let low = _mm256_set1_epi64x(0xffff_ffff);
        let mut sum = _mm256_setzero_si256();
        let mut max = _mm256_setzero_si256();
        let mut absorb = |block: __m256i| {
            let abs = _mm256_abs_epi32(block);
            max = _mm256_max_epu32(max, abs);
            sum = _mm256_add_epi64(sum, _mm256_and_si256(abs, low));
            sum = _mm256_add_epi64(sum, _mm256_srli_epi64::<32>(abs));
        };
        for block in blocks {
            absorb(load(block));
        }
        if !tail.is_empty() {
            absorb(load_tail(tail));
        }
        let half = _mm_max_epu32(
            _mm256_castsi256_si128(max),
            _mm256_extracti128_si256::<1>(max),
        );
        let half = _mm_max_epu32(half, _mm_shuffle_epi32::<0b01_00_11_10>(half));
        let half = _mm_max_epu32(half, _mm_shuffle_epi32::<0b10_11_00_01>(half));
        let max = _mm_cvtsi128_si32(half) as u32;
        (_mm_cvtsi128_si64(lane_sum(sum)) as u64, u64::from(max))
    }

    /// A block of 8 words.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(block: &[Fixed; 8]) -> __m256i {
        // SAFETY: `block` is 8 transparent `i32` words, the 32 bytes the
        // unaligned load reads.
        unsafe { _mm256_loadu_si256(block.as_ptr().cast()) }
    }

    /// The first 8 words of `tail`, or all of them with the lanes past
    /// them zeroed.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load_tail(tail: &[Fixed]) -> __m256i {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail.len().min(8) as i32), lanes);
        // SAFETY: `Fixed` is a transparent `i32`, and the mask selects the
        // first `min(tail.len(), 8)` lanes, so only words of `tail` are
        // read; `vpmaskmovd` touches no masked-out lane.
        unsafe { _mm256_maskload_epi32(tail.as_ptr().cast(), mask) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

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

        // Negative products at exactly the edge, at lengths that leave
        // every vector tail: `Σ|a| = 2^16` and `max|b| = i32::MAX − n`, so
        // `⌊Σ|a|·max|b| / 2^16⌋ + n = i32::MAX`, and `|a_0·b_0|` nears
        // `2^47`. The second column of the table negates the first, so its
        // products are positive.
        for n in [1usize, 3, 4, 5, 8, 50] {
            let mut a = vec![Fixed::from_raw(-1); n];
            a[0] = Fixed::from_raw(n as i32 - 1 - (1 << 16));
            let edge = i32::MAX - n as i32;
            for (max_b, at_edge) in [(edge, true), (edge + 1, false)] {
                let b = vec![Fixed::from_raw(max_b); n];
                assert_eq!(certifies(abs_sum(&a), abs_max(&b), n), at_edge);
                let (mut got, mut want) = (dirty, dirty);
                let value = dot_tracked(&a, &b, &mut want);
                assert_eq!(certified(&a, &b, &mut got), value, "n = {n}");
                assert_eq!(got, want);
                let table: Vec<Fixed> = b.iter().flat_map(|&w| [w, -w]).collect();
                let (mut got, mut want) = (dirty, dirty);
                let columns = column_chains(&a, &table, 2, &mut want);
                let mut out = [Fixed::MAX; 2];
                let (sum, max) = (abs_sum(&a), abs_max(&table));
                weighted_rows_certified(&a, &table, sum, max, &mut out, &mut got);
                assert_eq!((out.as_slice(), got), (columns.as_slice(), want));
                // A store of two rows, its largest `a`, at the pass
                // certificate and one past it: past it the first row, whose
                // `Σ|w| = n`, would certify on its own, and the pass runs
                // the chain on both rows.
                let store: Vec<Fixed> = vec![Fixed::epsilon(); n]
                    .into_iter()
                    .chain(a.clone())
                    .collect();
                let store_sum = abs_sum(&store[..n]).max(abs_sum(&a));
                assert_eq!(certifies(store_sum, abs_max(&b), n), at_edge);
                assert!(certifies(abs_sum(&store[..n]), abs_max(&b), n));
                let (mut got, mut want) = (dirty, dirty);
                let chains = row_chains(&store, &b, &mut want);
                let mut out = [Fixed::MIN; 2];
                matvec_certified(&store, &b, store_sum, abs_max(&b), &mut out, &mut got);
                assert_eq!((out.as_slice(), got), (chains.as_slice(), want), "n = {n}");
                if at_edge {
                    assert_eq!(want, dirty);
                    assert!(value.raw() < -(1 << 30), "{value} is not near the edge");
                    for dot in kernel_dots(&a, &b) {
                        assert_eq!(dot, value.raw(), "n = {n}");
                    }
                    for rows in kernel_rows(&a, &table, 2) {
                        assert_eq!(rows, columns, "n = {n}");
                    }
                    for pass in kernel_matvecs(&store, &b, 2) {
                        assert_eq!(pass, chains, "n = {n}");
                    }
                }
            }
        }
        // A table past the edge runs each column's chain, which saturates.
        let mut got = dirty;
        let mut out = [Fixed::ZERO; 2];
        let table = [Fixed::MAX, Fixed::MIN, Fixed::MAX, Fixed::ONE];
        let ones = [Fixed::ONE; 2];
        let (sum, max) = (abs_sum(&ones), abs_max(&table));
        assert!(!certifies(sum, max, 2));
        weighted_rows_certified(&ones, &table, sum, max, &mut out, &mut got);
        assert_eq!(out, [Fixed::MAX, Fixed::MIN + Fixed::ONE]);
        assert_eq!(
            got,
            NumericStatus {
                add_sat: dirty.add_sat + 1,
                ..dirty
            }
        );
    }

    /// `--cfg mann_scalar_kernels` leaves every certified sum on its
    /// scalar loop, whatever the CPU has.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_scalar_switch_hides_avx2() {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        assert_eq!(
            avx2::Avx2::detect().is_some(),
            avx2 && !cfg!(mann_scalar_kernels)
        );
    }

    /// The certified dot product's value from every kernel, each called
    /// directly: the scalar loop, then the AVX2 kernel when this CPU has
    /// AVX2.
    fn kernel_dots(a: &[Fixed], b: &[Fixed]) -> Vec<i32> {
        let mut dots = vec![dot_scalar(a.iter().zip(b))];
        #[cfg(target_arch = "x86_64")]
        dots.extend(avx2::Avx2::detect().map(|avx2| avx2.dot(a, b)));
        dots
    }

    /// A certified row sweep's words from every kernel, as
    /// [`kernel_dots`], each into an `out` of stale words.
    fn kernel_rows(weights: &[Fixed], table: &[Fixed], width: usize) -> Vec<Vec<Fixed>> {
        let mut out = vec![Fixed::MAX; width];
        rows_scalar(weights, table, &mut out);
        let mut all = vec![out];
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = avx2::Avx2::detect() {
            let mut out = vec![Fixed::MAX; width];
            avx2.rows(weights, table, &mut out);
            all.push(out);
        }
        all
    }

    /// A certified pass's words from every kernel, as [`kernel_dots`], each
    /// into an `out` of stale words: none when the operand is empty, which
    /// [`matvec_certified`] answers before it dispatches.
    fn kernel_matvecs(table: &[Fixed], x: &[Fixed], rows: usize) -> Vec<Vec<Fixed>> {
        if x.is_empty() {
            return Vec::new();
        }
        let mut out = vec![Fixed::MAX; rows];
        matvec_scalar(table, x, &mut out);
        let mut all = vec![out];
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = avx2::Avx2::detect() {
            let mut out = vec![Fixed::MIN; rows];
            avx2.matvec(table, x, &mut out);
            all.push(out);
        }
        all
    }

    /// The chain on each row of a row-major table of `x.len()` words a row,
    /// in row order: the pass entry's oracle.
    fn row_chains(table: &[Fixed], x: &[Fixed], st: &mut NumericStatus) -> Vec<Fixed> {
        let rows = table.len().checked_div(x.len()).unwrap_or(0);
        (0..rows)
            .map(|r| dot_tracked(&table[r * x.len()..][..x.len()], x, st))
            .collect()
    }

    /// The largest row `Σ|w|` of a table of `width` words a row: the
    /// stored side's magnitude in a pass certificate.
    fn row_abs_sum_max(table: &[Fixed], width: usize) -> u64 {
        table.chunks(width.max(1)).map(abs_sum).max().unwrap_or(0)
    }

    #[test]
    fn matvec_kernels_sweep_operand_segments() {
        // Operands wider than one split segment of 64 words, with and
        // without a tail, summed across segments.
        // Stored words below 2^23 against operand words below 2^8 certify
        // at every width here.
        let mut seed = 0x2545_f491_u32;
        let mut word = |bits: u32| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            Fixed::from_raw((seed >> (32 - bits)) as i32 - (1 << (bits - 1)))
        };
        for width in [63usize, 64, 65, 127, 128, 129, 136, 300] {
            let x: Vec<Fixed> = (0..width).map(|_| word(9)).collect();
            let table: Vec<Fixed> = (0..3 * width).map(|_| word(24)).collect();
            let (sum, max) = (row_abs_sum_max(&table, width), abs_max(&x));
            assert!(certifies(sum, max, width), "width {width}");
            let mut st = NumericStatus::default();
            let want = row_chains(&table, &x, &mut st);
            assert!(st.is_clean());
            for pass in kernel_matvecs(&table, &x, 3) {
                assert_eq!(pass, want, "width {width}");
            }
        }
    }

    /// The chain down each column of a row-major table of `width` words a
    /// row, in row order: the soft-read entry's oracle.
    fn column_chains(
        weights: &[Fixed],
        table: &[Fixed],
        width: usize,
        st: &mut NumericStatus,
    ) -> Vec<Fixed> {
        (0..width)
            .map(|j| {
                let column = (0..weights.len()).map(|i| (weights[i], table[i * width + j]));
                dot_tracked_pairs(column, st)
            })
            .collect()
    }

    /// Raw words of magnitude below `2^bits`; at 32 bits any `i32`, with
    /// the rails drawn often.
    fn banded_words(bits: u32, len: usize) -> impl Strategy<Value = Vec<Fixed>> {
        let raw = (any::<i32>(), 0u32..8).prop_map(move |(raw, pick)| match (bits, pick) {
            (32, 0) => i32::MIN,
            (32, 1) => i32::MAX,
            (32, _) => raw,
            _ => raw % (1 << bits),
        });
        vec(raw, len).prop_map(|raw| raw.into_iter().map(Fixed::from_raw).collect())
    }

    /// Each operand's band. A certified sum may pair words of `2^8` with
    /// words of `2^31`, whose products reach `2^39`.
    const BANDS: [u32; 4] = [8, 16, 24, 32];

    proptest! {
        /// Wherever the certificate holds, every kernel of a certified dot
        /// product, called directly, gives the chain's value, and the chain
        /// records no event. Each prefix of 0 to 80 words is checked, so
        /// every vector tail appears.
        #[test]
        fn dot_kernels_are_the_certified_chain(
            (a, b) in (0usize..4, 0usize..4).prop_flat_map(|(x, y)| {
                (banded_words(BANDS[x], 80), banded_words(BANDS[y], 80))
            })
        ) {
            for n in 0..=80 {
                let (a, b) = (&a[..n], &b[..n]);
                if certifies(abs_sum(a), abs_max(b), n) {
                    let mut st = NumericStatus::default();
                    let value = dot_tracked(a, b, &mut st);
                    prop_assert!(st.is_clean());
                    for dot in kernel_dots(a, b) {
                        prop_assert_eq!(dot, value.raw(), "{} words", n);
                    }
                }
            }
        }

        /// The soft-read entry equals the chain down each column in every
        /// word and in the register, certified or not, on tables of 0 to
        /// 20 rows and 0 to 60 columns; where the certificate holds, so
        /// does every kernel called directly.
        #[test]
        fn weighted_rows_are_the_column_chains(
            (weights, table, width) in (0usize..4, 0usize..4, 0usize..=20, 0usize..=60)
                .prop_flat_map(|(x, y, rows, width)| {
                    (banded_words(BANDS[x], rows), banded_words(BANDS[y], rows * width), Just(width))
                })
        ) {
            let dirty = NumericStatus {
                add_sat: 3,
                mul_sat: 5,
                ..NumericStatus::default()
            };
            let mut want_st = dirty;
            let want = column_chains(&weights, &table, width, &mut want_st);
            let (sum, max) = (abs_sum(&weights), abs_max(&table));
            let mut out = vec![Fixed::MAX; width];
            let mut st = dirty;
            weighted_rows_certified(&weights, &table, sum, max, &mut out, &mut st);
            prop_assert_eq!((&out, st), (&want, want_st));
            if certifies(sum, max, weights.len()) {
                for rows in kernel_rows(&weights, &table, width) {
                    prop_assert_eq!(&rows, &want);
                }
            }
        }

        /// The pass entry equals the chain on each row in every word and in
        /// the register, certified or not, with the store's magnitudes (the
        /// largest row `Σ|w|` and the operand's `max|x|`) and with the
        /// operand's `Σ|x|` and the table's `max|w|`, on tables of 0 to 70
        /// rows and 0 to 80 columns, so that every 8-word tail appears;
        /// where the certificate holds, so does every kernel called
        /// directly.
        #[test]
        fn matvec_is_the_row_chains(
            (x, table, rows) in (0usize..4, 0usize..4, 0usize..=70, 0usize..=80)
                .prop_flat_map(|(a, b, rows, width)| {
                    (banded_words(BANDS[a], width), banded_words(BANDS[b], rows * width), Just(rows))
                })
        ) {
            let dirty = NumericStatus {
                add_sat: 3,
                mul_sat: 5,
                ..NumericStatus::default()
            };
            let mut want_st = dirty;
            let want = row_chains(&table, &x, &mut want_st);
            prop_assert_eq!(want.len(), if x.is_empty() { 0 } else { rows });
            let want = if x.is_empty() { vec![Fixed::ZERO; rows] } else { want };
            let store = (row_abs_sum_max(&table, x.len()), abs_max(&x));
            for (sum, max) in [store, (abs_sum(&x), abs_max(&table))] {
                let mut out = vec![Fixed::MAX; rows];
                let mut st = dirty;
                matvec_certified(&table, &x, sum, max, &mut out, &mut st);
                prop_assert_eq!((&out, st), (&want, want_st));
                if certifies(sum, max, x.len()) {
                    for pass in kernel_matvecs(&table, &x, rows) {
                        prop_assert_eq!(&pass, &want);
                    }
                }
            }
        }

        /// Every magnitude kernel, called directly, gives the `Σ|w|` and
        /// `max|w|` of a plain walk over the words, `|i32::MIN| = 2^31`
        /// included, on every prefix of 0 to 80 words; and the requant
        /// entries return the magnitudes of the words they leave, changed
        /// or not, with the words and events of [`Fixed::requant`].
        #[test]
        fn magnitudes_are_one_scan(words in (0usize..4).prop_flat_map(|b| banded_words(BANDS[b], 80))) {
            for n in 0..=80 {
                let words = &words[..n];
                let sum = words.iter().map(|w| u64::from(w.raw().unsigned_abs())).sum::<u64>();
                let max = words.iter().map(|w| u64::from(w.raw().unsigned_abs())).max();
                let want = Magnitudes { abs_sum: sum, abs_max: max.unwrap_or(0) };
                prop_assert_eq!(Magnitudes::of(words), want);
                prop_assert_eq!(magnitudes_scalar(words), (want.abs_sum, want.abs_max));
                #[cfg(target_arch = "x86_64")]
                if let Some(avx2) = avx2::Avx2::detect() {
                    prop_assert_eq!(avx2.magnitudes(words), (want.abs_sum, want.abs_max));
                }
            }
            let mut want_st = NumericStatus::default();
            let want: Vec<Fixed> = words.iter().map(|w| w.requant(&mut want_st)).collect();
            let mut st = NumericStatus::default();
            let (got, m) = requant_all(&words, &mut st);
            prop_assert_eq!((&*got, st, m), (want.as_slice(), want_st, Magnitudes::of(&want)));
            let mut in_place = words.clone();
            let mut st = NumericStatus::default();
            let m = requant_in_place(&mut in_place, &mut st);
            prop_assert_eq!((in_place, st, m), (want.clone(), want_st, Magnitudes::of(&want)));
        }

        /// The libm-free rounding equals `f64::round` on every quantizer
        /// input, an `f32` bit pattern scaled by `2^frac` for each width
        /// the quantizer accepts, and the conversion equals the libm
        /// reference in value and events.
        #[test]
        fn rounding_matches_libm(bits in any::<u32>(), frac in 0u32..=30) {
            let x = f32::from_bits(bits);
            let scaled = f64::from(x) * (1i64 << frac) as f64;
            prop_assert!(same_rounding(scaled), "{}", scaled);
            prop_assert!(same_conversion(x, frac), "{} at {} bits", x, frac);
        }
    }
}
