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
//! The store keeps one `Σ|w|` bound from load, the largest of its rows',
//! and each operand its `max|x|` from quantization, so every dot product is
//! certified before its loop and runs the saturating chain only when the
//! certificate fails. A pass checks the certificate once and sums every row
//! in one call ([`fixed::matvec_certified`]); a single row goes through
//! [`fixed::dot_certified`].
//!
//! [`AdderTree::fixed_dot_tracked`]: crate::adder_tree::AdderTree::fixed_dot_tracked

use std::borrow::Cow;

use mann_linalg::{fixed, Fixed, Matrix, NumericStatus};

/// Rows a [`WeightStore::matvec_tracked`] pass sums per call, into a stack
/// buffer: a pass over at most this many rows, READ's `E × E` at the
/// paper's `E = 50` among them, is one call.
const PASS_ROWS: usize = 128;

/// A row-major weight matrix stored as Q16.16 words, with the numeric
/// events re-quantizing each row would record and the largest row `Σ|w|`,
/// the stored side's magnitude in the certificates of
/// [`fixed::matvec_certified`] and [`fixed::dot_certified`].
#[derive(Debug, Clone)]
pub struct WeightStore {
    words: Vec<Fixed>,
    row_status: Vec<NumericStatus>,
    /// Every row's latched register merged: what a pass over all rows
    /// replays.
    status_sum: NumericStatus,
    /// The largest row `Σ|w|`, which bounds every row's: one bound serves
    /// every pass and every row, since any valid bound gives the chain's
    /// value.
    abs_sum: u64,
    cols: usize,
}

impl WeightStore {
    /// Quantizes `m` into the store, one [`Fixed::from_f32_tracked`] call
    /// per weight — the conversion a per-access datapath repeats on every
    /// MAC — and takes the largest stored row's `Σ|w|`.
    pub fn new(m: &Matrix) -> Self {
        let mut words = Vec::with_capacity(m.rows() * m.cols());
        let mut row_status = Vec::with_capacity(m.rows());
        let mut status_sum = NumericStatus::default();
        let mut abs_sum = 0;
        for row in m.iter_rows() {
            let mut st = NumericStatus::default();
            let start = words.len();
            words.extend(row.iter().map(|&x| Fixed::from_f32_tracked(x, &mut st)));
            row_status.push(st);
            status_sum.merge(&st);
            abs_sum = fixed::abs_sum(&words[start..]).max(abs_sum);
        }
        Self {
            words,
            row_status,
            status_sum,
            abs_sum,
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
    /// chain [`AdderTree::fixed_dot_tracked`] accumulates once the
    /// operand's register ([`Operand::status`]) is merged too, which the
    /// caller does once for every row it evaluates
    /// ([`NumericStatus::merge_times`]). The row's latched re-quantization
    /// events are merged into `st`. Then [`fixed::dot_certified`] sums the
    /// row in one integer pass when the store's `Σ|w|` bound and the
    /// operand's `max|x|` certify that the chain cannot saturate, and
    /// otherwise runs the chain [`fixed::dot_tracked`], which records its
    /// product and accumulator saturations.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or the operand width differs from
    /// [`WeightStore::cols`].
    ///
    /// [`AdderTree::fixed_dot_tracked`]: crate::adder_tree::AdderTree::fixed_dot_tracked
    pub fn dot_row_tracked(&self, r: usize, x: &Operand, st: &mut NumericStatus) -> Fixed {
        st.merge(&self.row_status[r]);
        fixed::dot_certified(self.row(r), &x.words, self.abs_sum, x.abs_max, st)
    }

    /// Every row's [`WeightStore::dot_row_tracked`] with `x`, handed to
    /// `out` as `(row, value)` in row order, with the same values, and the
    /// merged `st` of those calls plus the operand's register once per row.
    /// The registers are merged once per pass, not per row: the rows'
    /// latched registers as one sum taken at load, and the operand's
    /// register times the row count. The rows are summed by
    /// [`fixed::matvec_certified`], 128 at a time into a stack buffer, so
    /// the pass allocates nothing.
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
        let mut chunk = [Fixed::ZERO; PASS_ROWS];
        for start in (0..self.rows()).step_by(PASS_ROWS) {
            let values = &mut chunk[..PASS_ROWS.min(self.rows() - start)];
            let table = &self.words[start * self.cols..][..values.len() * self.cols];
            fixed::matvec_certified(table, &x.words, self.abs_sum, x.abs_max, values, st);
            for (i, &z) in values.iter().enumerate() {
                out(start + i, z);
            }
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
    /// operand meets. One scan takes both the requant test and `max|x|`.
    /// Borrows `x` when no word changes.
    pub fn from_words(x: &'a [Fixed]) -> Self {
        let mut status = NumericStatus::default();
        let (words, magnitudes) = fixed::requant_all(x, &mut status);
        Self {
            words,
            status,
            abs_max: magnitudes.abs_max,
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
            // The operand's register, merged once for the row by hand.
            let mut got = NumericStatus::default();
            got.merge(x.status());
            let mut want = NumericStatus::default();
            let z = store.dot_row_tracked(r, &x, &mut got);
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
        store.dot_row_tracked(0, &x, &mut NumericStatus::default());
    }
}
