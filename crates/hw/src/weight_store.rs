//! BRAM-resident weight matrices held as fixed-point words.
//!
//! The accelerator loads the trained weights into BRAM once, as Q16.16
//! words, and streams them through the adder trees (Fig 1). A
//! [`WeightStore`] is that BRAM image: the READ controller weights and the
//! OUTPUT rows multiply stored words directly instead of re-quantizing the
//! `f32` weights on every access, and an [`Operand`] re-quantizes the
//! words another module hands over once per pass instead of once per row
//! ([`Operand::from_words`]).
//!
//! Results are bit-identical to [`AdderTree::fixed_dot_tracked`] over the
//! original `f32` rows, numeric counters included. Re-quantizing a stored
//! weight is a pure function of that weight, so the events it would raise
//! on every access (for example the `quant_clamp` of a weight on the
//! positive rail) are latched per row at load and replayed, together with
//! the operand's events, each time the row is evaluated.
//! [`NumericStatus::merge`] is a field-wise sum, so replaying a latched
//! register equals recording its events one by one. A pass over every row
//! ([`WeightStore::matvec_tracked`]) therefore merges the rows' registers
//! as one sum and the operand's register times the row count.
//!
//! Each row also keeps its `Σ|w|` from load, and each operand its `max|x|`
//! from quantization, so every dot product is certified before its loop
//! ([`fixed::dot_certified`]) and runs the saturating chain only when the
//! certificate fails.
//!
//! [`AdderTree::fixed_dot_tracked`]: crate::adder_tree::AdderTree::fixed_dot_tracked

use std::borrow::Cow;

use mann_linalg::{fixed, Fixed, Matrix, NumericStatus};

/// A row-major weight matrix stored as Q16.16 words, with the numeric
/// events re-quantizing each row would record and each row's `Σ|w|`, the
/// stored side's magnitude in the certificate of [`fixed::dot_certified`].
#[derive(Debug, Clone)]
pub struct WeightStore {
    words: Vec<Fixed>,
    row_status: Vec<NumericStatus>,
    /// Every row's latched register merged: what a pass over all rows
    /// replays.
    status_sum: NumericStatus,
    row_abs_sum: Vec<u64>,
    cols: usize,
}

impl WeightStore {
    /// Quantizes `m` into the store, one [`Fixed::from_f32_tracked`] call
    /// per weight — the conversion a per-access datapath repeats on every
    /// MAC — and takes each stored row's `Σ|w|`.
    pub fn new(m: &Matrix) -> Self {
        let mut words = Vec::with_capacity(m.rows() * m.cols());
        let mut row_status = Vec::with_capacity(m.rows());
        let mut row_abs_sum = Vec::with_capacity(m.rows());
        let mut status_sum = NumericStatus::default();
        for row in m.iter_rows() {
            let mut st = NumericStatus::default();
            let start = words.len();
            words.extend(row.iter().map(|&x| Fixed::from_f32_tracked(x, &mut st)));
            row_status.push(st);
            status_sum.merge(&st);
            row_abs_sum.push(fixed::abs_sum(&words[start..]));
        }
        Self {
            words,
            row_status,
            status_sum,
            row_abs_sum,
            cols: m.cols(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_status.len()
    }

    /// Number of columns (the operand width).
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn row(&self, r: usize) -> &[Fixed] {
        &self.words[r * self.cols..(r + 1) * self.cols]
    }

    /// Dot product of row `r` with operand `x`, equal to the in-order
    /// chain [`AdderTree::fixed_dot_tracked`] accumulates. The row's
    /// latched re-quantization events and the operand's quantizer events
    /// are merged into `st`. Then [`fixed::dot_certified`] sums the row in
    /// one integer pass when the row's `Σ|w|` and the operand's `max|x|`
    /// certify that the chain cannot saturate, and otherwise runs the
    /// chain [`fixed::dot_tracked`], which records its product and
    /// accumulator saturations.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or the operand width differs from
    /// [`WeightStore::cols`].
    ///
    /// [`AdderTree::fixed_dot_tracked`]: crate::adder_tree::AdderTree::fixed_dot_tracked
    pub fn dot_tracked(&self, r: usize, x: &Operand, st: &mut NumericStatus) -> Fixed {
        st.merge(&self.row_status[r]);
        st.merge(&x.status);
        fixed::dot_certified(self.row(r), &x.words, self.row_abs_sum[r], x.abs_max, st)
    }

    /// Every row's [`WeightStore::dot_tracked`] with `x`, handed to `out`
    /// as `(row, value)` in row order, with the same values and the same
    /// merged `st`. The registers are merged once per pass, not per row:
    /// the rows' latched registers as one sum taken at load, and the
    /// operand's register times the row count.
    ///
    /// # Panics
    ///
    /// Panics if the operand width differs from [`WeightStore::cols`].
    pub fn matvec_tracked(
        &self,
        x: &Operand,
        st: &mut NumericStatus,
        mut out: impl FnMut(usize, Fixed),
    ) {
        assert_eq!(x.words.len(), self.cols, "dot operand length mismatch");
        st.merge(&self.status_sum);
        st.merge_times(&x.status, self.rows() as u64);
        for r in 0..self.rows() {
            out(
                r,
                fixed::dot_certified(self.row(r), &x.words, self.row_abs_sum[r], x.abs_max, st),
            );
        }
    }
}

/// A vector operand quantized once per pass, with the events its
/// quantization records and its `max|x|`, the operand's magnitude in the
/// certificate of [`fixed::dot_certified`].
#[derive(Debug)]
pub struct Operand<'a> {
    words: Cow<'a, [Fixed]>,
    status: NumericStatus,
    abs_max: u64,
}

impl<'a> Operand<'a> {
    /// The operand of a word vector another module handed over: each word
    /// through [`Fixed::requant`], which equals quantizing its `to_f32` in
    /// value and events, and the words' `max|x|`, once for every row the
    /// operand meets. Borrows `x` when no word changes.
    pub fn from_words(x: &'a [Fixed]) -> Self {
        let mut status = NumericStatus::default();
        let words = fixed::requant_all(x, &mut status);
        let abs_max = fixed::abs_max(&words);
        Self {
            words,
            status,
            abs_max,
        }
    }

    /// The quantized words.
    pub fn words(&self) -> &[Fixed] {
        &self.words
    }

    /// The events quantizing the operand recorded, which each row it meets
    /// replays.
    pub fn status(&self) -> &NumericStatus {
        &self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder_tree::AdderTree;

    #[test]
    fn rail_weight_replays_its_clamp_on_every_access() {
        // `Fixed::MAX.to_f32()` rounds up to 32768.0, which clips again
        // each time it is re-quantized: as a weight and as an operand word.
        let rail = Fixed::MAX.to_f32();
        let m = Matrix::from_rows(vec![vec![rail, 1.0], vec![0.5, -0.25]]).unwrap();
        let store = WeightStore::new(&m);
        let words = [Fixed::MAX, Fixed::from_f32(2.0)];
        let x = Operand::from_words(&words);
        let tree = AdderTree::default();
        for r in 0..2 {
            let mut got = NumericStatus::default();
            let mut want = NumericStatus::default();
            let z = store.dot_tracked(r, &x, &mut got);
            let (expect, _) = tree.fixed_dot_tracked(m.row(r), &[rail, 2.0], &mut want);
            assert_eq!(z, expect);
            assert_eq!(got, want);
            assert_eq!(got.quant_clamp, 1 + u64::from(r == 0));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn operand_width_is_checked() {
        let store = WeightStore::new(&Matrix::zeros(2, 3));
        let x = Operand::from_words(&[Fixed::ONE; 2]);
        store.dot_tracked(0, &x, &mut NumericStatus::default());
    }
}
