//! The INPUT & WRITE module: index-based embedding (Eq 2).
//!
//! For each input word the module reads *one column* of the embedding
//! weight from BRAM and accumulates it into the sentence register — the
//! paper's key efficiency point: no dense matrix-vector product, no
//! multiplications at all for a bag-of-words input.

use mann_linalg::{fixed, Fixed, Matrix, NumericStatus};

use crate::Cycles;

/// The embedding accumulator. Holds quantized address and content embedding
/// weights (the `emb_a` / `emb_c` blocks of Fig 1; `emb_q` shares the
/// address weights).
///
/// Weights are kept column-major in fixed point — the BRAM layout the
/// hardware reads: embedding word `w` is the contiguous column
/// `cols[w*E .. (w+1)*E]`, so accumulating a word is one sequential sweep
/// with no per-access quantization. The sums stay Q16.16 words: the MEM
/// write port and the READ path take them as they are.
#[derive(Debug, Clone)]
pub struct InputWriteModule {
    cols_a: Vec<Fixed>,
    cols_c: Vec<Fixed>,
    /// `max|w|` over each column store, taken at load: with the word count,
    /// the certificate that a sentence's sums cannot saturate.
    cols_a_abs_max: u64,
    cols_c_abs_max: u64,
    vocab: usize,
    embed_dim: usize,
}

impl InputWriteModule {
    /// Creates the module over pre-quantized embedding weights
    /// (`E x V` each).
    ///
    /// # Panics
    ///
    /// Panics if the two weights disagree in shape.
    pub fn new(w_emb_a: Matrix, w_emb_c: Matrix) -> Self {
        Self::new_tracked(w_emb_a, w_emb_c, &mut NumericStatus::default())
    }

    /// [`InputWriteModule::new`] with numeric-event accounting at the BRAM
    /// load boundary: weights clipped (or non-finite) while being quantized
    /// into the column store are recorded in `st`. Stored columns are
    /// bit-identical to the untracked construction.
    ///
    /// # Panics
    ///
    /// Panics if the two weights disagree in shape.
    pub fn new_tracked(w_emb_a: Matrix, w_emb_c: Matrix, st: &mut NumericStatus) -> Self {
        assert_eq!(w_emb_a.shape(), w_emb_c.shape(), "embedding shape mismatch");
        let embed_dim = w_emb_a.rows();
        let vocab = w_emb_a.cols();
        let mut columnize = |m: &Matrix| {
            let mut cols = Vec::with_capacity(embed_dim * vocab);
            for w in 0..vocab {
                for r in 0..embed_dim {
                    cols.push(Fixed::from_f32_tracked(m[(r, w)], st));
                }
            }
            cols
        };
        let cols_a = columnize(&w_emb_a);
        let cols_c = columnize(&w_emb_c);
        Self {
            cols_a_abs_max: fixed::abs_max(&cols_a),
            cols_c_abs_max: fixed::abs_max(&cols_c),
            cols_a,
            cols_c,
            vocab,
            embed_dim,
        }
    }

    /// Embedding dimension `E`.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Embeds one sentence into its address and content vectors.
    ///
    /// Timing: both accumulators run in parallel (independent BRAMs), one
    /// word per cycle at II = 1, plus two cycles to flush the accumulator
    /// into the memory row.
    ///
    /// # Panics
    ///
    /// Panics if a word index is out of vocabulary range.
    pub fn embed_sentence(&self, words: &[usize]) -> (Vec<Fixed>, Vec<Fixed>, Cycles) {
        let mut a = vec![Fixed::ZERO; self.embed_dim];
        let mut c = vec![Fixed::ZERO; self.embed_dim];
        let cycles =
            self.embed_sentence_tracked(words, &mut a, &mut c, &mut NumericStatus::default());
        (a, c, cycles)
    }

    /// [`InputWriteModule::embed_sentence`] into caller-owned rows, such as
    /// the next slot of the MEM tables, with numeric-event accounting in
    /// the sentence accumulators.
    ///
    /// # Panics
    ///
    /// Panics if a word index is out of vocabulary range or a row's width
    /// differs from `E`.
    pub fn embed_sentence_tracked(
        &self,
        words: &[usize],
        addr: &mut [Fixed],
        content: &mut [Fixed],
        st: &mut NumericStatus,
    ) -> Cycles {
        self.accumulate(&self.cols_a, self.cols_a_abs_max, words, addr, st);
        self.accumulate(&self.cols_c, self.cols_c_abs_max, words, content, st);
        Cycles::new(words.len() as u64 + 2)
    }

    /// Embeds the question through the address embedding (`emb_q` in
    /// Fig 1) — the first read key of Eq 3.
    pub fn embed_question(&self, words: &[usize]) -> (Vec<Fixed>, Cycles) {
        let mut q = Vec::new();
        let cycles = self.embed_question_tracked(words, &mut q, &mut NumericStatus::default());
        (q, cycles)
    }

    /// [`InputWriteModule::embed_question`] into a caller-owned key whose
    /// capacity is reused, with numeric-event accounting.
    pub fn embed_question_tracked(
        &self,
        words: &[usize],
        key: &mut Vec<Fixed>,
        st: &mut NumericStatus,
    ) -> Cycles {
        key.clear();
        key.resize(self.embed_dim, Fixed::ZERO);
        self.accumulate(&self.cols_a, self.cols_a_abs_max, words, key, st);
        Cycles::new(words.len() as u64 + 2)
    }

    /// Fixed-point column accumulation into `acc`, from zero: the in-order
    /// saturating chain. When `words.len() · max|col|` certifies the sum
    /// ([`fixed::sum_certifies`]) no partial sum can saturate, so plain
    /// adds give the chain's value and it records no event.
    fn accumulate(
        &self,
        cols: &[Fixed],
        cols_abs_max: u64,
        words: &[usize],
        acc: &mut [Fixed],
        st: &mut NumericStatus,
    ) {
        assert_eq!(acc.len(), self.embed_dim, "embedding row width");
        acc.fill(Fixed::ZERO);
        let certified = fixed::sum_certifies(words.len(), cols_abs_max);
        for &w in words {
            assert!(w < self.vocab, "word index {w} out of range");
            let col = &cols[w * self.embed_dim..(w + 1) * self.embed_dim];
            if certified {
                for (slot, x) in acc.iter_mut().zip(col) {
                    *slot = Fixed::from_raw(slot.raw() + x.raw());
                }
            } else {
                for (slot, x) in acc.iter_mut().zip(col) {
                    *slot = slot.add_tracked(*x, st);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> InputWriteModule {
        let mut a = Matrix::zeros(3, 5);
        let mut c = Matrix::zeros(3, 5);
        for i in 0..3 {
            for j in 0..5 {
                a[(i, j)] = (i * 5 + j) as f32 * 0.25;
                c[(i, j)] = -((i * 5 + j) as f32) * 0.5;
            }
        }
        InputWriteModule::new(a, c)
    }

    #[test]
    fn embedding_sums_columns() {
        let m = module();
        let (a, c, _) = m.embed_sentence(&[1, 3]);
        // Column 1 + column 3 of each weight.
        for r in 0..3 {
            let expect_a = (r * 5 + 1) as f32 * 0.25 + (r * 5 + 3) as f32 * 0.25;
            assert!((a[r].to_f32() - expect_a).abs() < 1e-3, "row {r}");
            let expect_c = -((r * 5 + 1) as f32) * 0.5 - ((r * 5 + 3) as f32) * 0.5;
            assert!((c[r].to_f32() - expect_c).abs() < 1e-3, "row {r}");
        }
    }

    #[test]
    fn repeated_words_accumulate() {
        let m = module();
        let (a1, _, _) = m.embed_sentence(&[2]);
        let (a2, _, _) = m.embed_sentence(&[2, 2]);
        for (x1, x2) in a1.iter().zip(&a2) {
            assert!((x2.to_f32() - 2.0 * x1.to_f32()).abs() < 1e-3);
        }
    }

    #[test]
    fn cycles_scale_with_word_count() {
        let m = module();
        let (_, _, c3) = m.embed_sentence(&[0, 1, 2]);
        let (_, _, c1) = m.embed_sentence(&[0]);
        assert_eq!(c3.get(), 5);
        assert_eq!(c1.get(), 3);
    }

    #[test]
    fn question_uses_address_embedding() {
        let m = module();
        let (q, _) = m.embed_question(&[4]);
        let (a, _, _) = m.embed_sentence(&[4]);
        assert_eq!(q, a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_word_panics() {
        let _ = module().embed_sentence(&[5]);
    }
}
