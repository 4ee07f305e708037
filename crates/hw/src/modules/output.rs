//! The OUTPUT module: sequential maximum inner-product search (Eq 6),
//! optionally with inference thresholding.
//!
//! The output weight rows, held as quantized BRAM words, stream out one per
//! issue; a compare register tracks the running maximum. With thresholding
//! enabled, each logit is additionally compared against its class threshold
//! (in the silhouette probe order) and the search retires early on the
//! first hit — Fig 2(b).

use mann_ith::{ExitGuard, ThresholdingModel};
use mann_linalg::{Fixed, Matrix, NumericStatus};

use crate::adder_tree::AdderTree;
use crate::weight_store::{Operand, WeightStore};
use crate::{Cycles, DatapathConfig};

/// Result of the output-layer search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputResult {
    /// Predicted class index.
    pub label: usize,
    /// Output rows evaluated (= logit comparisons).
    pub comparisons: usize,
    /// Whether a threshold fired.
    pub speculated: bool,
    /// Occupancy of the module.
    pub cycles: Cycles,
    /// Early exits vetoed by the saturation guard before retiring.
    pub vetoes: usize,
    /// Numeric-event register accumulated across every evaluated logit.
    pub numeric: NumericStatus,
}

/// The sequential output layer.
#[derive(Debug, Clone)]
pub struct OutputModule {
    w_o: WeightStore,
    tree: AdderTree,
    /// Cycles per evaluated output row: `ceil(E / output_lanes)` MAC issues
    /// plus the compare.
    row_cycles: u64,
    /// Quantized per-class thresholds in probe order, when thresholding is
    /// configured: `(class, theta)`.
    plan: Option<Vec<(usize, Option<Fixed>)>>,
    /// Saturation guard over speculative exits.
    guard: ExitGuard,
}

impl OutputModule {
    /// Creates the module over a pre-quantized `V x E` output weight,
    /// without thresholding.
    pub fn new(w_o: Matrix, dp: &DatapathConfig) -> Self {
        dp.validate().expect("valid datapath");
        let row_cycles = w_o.cols().div_ceil(dp.output_lanes) as u64 + 1;
        Self {
            w_o: WeightStore::new(&w_o),
            tree: AdderTree::new(dp.output_lanes),
            row_cycles,
            plan: None,
            guard: ExitGuard::default(),
        }
    }

    /// Installs a saturation guard over speculative exits (the default is an
    /// enabled guard with a zero band).
    pub fn with_guard(mut self, guard: ExitGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Installs a calibrated thresholding model (quantizing its thresholds
    /// onto the datapath). `use_ordering` selects the silhouette probe
    /// order (Step 3) or natural index order (the Fig 3 ablation).
    ///
    /// # Panics
    ///
    /// Panics if the thresholding model's class count differs from the
    /// output rows.
    pub fn with_thresholding(mut self, ith: &ThresholdingModel, use_ordering: bool) -> Self {
        assert_eq!(
            ith.classes(),
            self.w_o.rows(),
            "thresholding classes vs output rows"
        );
        let order: Vec<usize> = if use_ordering {
            ith.order.clone()
        } else {
            (0..ith.classes()).collect()
        };
        self.plan = Some(
            order
                .into_iter()
                .map(|i| (i, ith.thresholds[i].theta.map(Fixed::from_f32)))
                .collect(),
        );
        self
    }

    /// Number of output classes `|I|`.
    pub fn classes(&self) -> usize {
        self.w_o.rows()
    }

    /// Whether a thresholding plan is installed (speculative search).
    pub fn is_thresholded(&self) -> bool {
        self.plan.is_some()
    }

    /// Weight-stream issue slots of one evaluated class row that a fused
    /// same-story query group shares (the BRAM row is fetched once for the
    /// whole group); the compare cycle stays per query.
    pub fn row_stream_cycles(&self) -> u64 {
        self.row_cycles - 1
    }

    fn result(&self, label: usize, comparisons: usize, speculated: bool) -> OutputResult {
        OutputResult {
            label,
            comparisons,
            speculated,
            cycles: Cycles::new(comparisons as u64 * self.row_cycles + self.tree.depth() + 2),
            vetoes: 0,
            numeric: NumericStatus::default(),
        }
    }

    /// Runs the search for the READ module's output words `h`, each
    /// re-quantized once per search ([`Operand::from_words`]). The
    /// exhaustive search sweeps every class row in one matvec; a
    /// thresholding plan probes row by row, each logit with its own
    /// register for the exit guard.
    ///
    /// # Panics
    ///
    /// Panics if `h` width differs from `E`.
    pub fn search_words(&self, h: &[Fixed]) -> OutputResult {
        assert_eq!(h.len(), self.w_o.cols(), "hidden width");
        let h_q = Operand::from_words(h);
        let Some(plan) = &self.plan else {
            let mut numeric = NumericStatus::default();
            let (mut best, mut best_z) = (0usize, Fixed::MIN);
            self.w_o.matvec_tracked(&h_q, &mut numeric, |class, z| {
                if z > best_z {
                    best_z = z;
                    best = class;
                }
            });
            return OutputResult {
                numeric,
                ..self.result(best, self.w_o.rows(), false)
            };
        };
        let band = Fixed::from_f32(self.guard.band.max(0.0));
        let mut best = 0usize;
        let mut best_z = Fixed::MIN;
        let mut comparisons = 0usize;
        let mut vetoes = 0usize;
        let mut numeric = NumericStatus::default();
        // Whether any logit probed so far landed within the guard band of
        // its own threshold while carrying a flag.
        let mut band_flagged = false;
        for &(class, theta) in plan {
            let mut logit_st = NumericStatus::default();
            let z = self.w_o.dot_tracked(class, &h_q, &mut logit_st);
            comparisons += 1;
            numeric.merge(&logit_st);
            if let Some(t) = theta {
                if logit_st.stressed() && z.saturating_sub(t).abs() <= band {
                    band_flagged = true;
                }
                if z > t {
                    if self.guard.vetoes(&logit_st, band_flagged) {
                        // Saturated speculative exit: veto it and let the
                        // sequential search continue.
                        vetoes += 1;
                    } else {
                        return OutputResult {
                            vetoes,
                            numeric,
                            ..self.result(class, comparisons, true)
                        };
                    }
                }
            }
            if z > best_z {
                best_z = z;
                best = class;
            }
        }
        OutputResult {
            vetoes,
            numeric,
            ..self.result(best, comparisons, false)
        }
    }

    /// Batched search for hidden states of queries sharing a fused compute
    /// phase. Without thresholding every query evaluates every class, so
    /// the class rows stream out of BRAM once for the whole group; each
    /// `(query, class)` dot product is the exact
    /// [`OutputModule::search_words`] computation, so every result is
    /// bit-identical to the per-query call. With a thresholding plan the
    /// searches retire at different rows and are delegated to per-query
    /// searches (no stream sharing is claimed — see
    /// [`OutputModule::row_stream_cycles`]).
    ///
    /// # Panics
    ///
    /// Panics if any hidden width differs from `E`.
    pub fn search_batch(&self, hs: &[&[Fixed]]) -> Vec<OutputResult> {
        if self.plan.is_some() {
            return hs.iter().map(|h| self.search_words(h)).collect();
        }
        let ops: Vec<Operand> = hs
            .iter()
            .map(|h| {
                assert_eq!(h.len(), self.w_o.cols(), "hidden width");
                Operand::from_words(h)
            })
            .collect();
        let mut best = vec![0usize; hs.len()];
        let mut best_z = vec![Fixed::MIN; hs.len()];
        let mut numeric = vec![NumericStatus::default(); hs.len()];
        for class in 0..self.w_o.rows() {
            for (q, h_q) in ops.iter().enumerate() {
                let z = self.w_o.dot_tracked(class, h_q, &mut numeric[q]);
                if z > best_z[q] {
                    best_z[q] = z;
                    best[q] = class;
                }
            }
        }
        (0..hs.len())
            .map(|q| OutputResult {
                numeric: numeric[q],
                ..self.result(best[q], self.w_o.rows(), false)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::quantized;
    use mann_ith::threshold::ClassThreshold;
    use mann_ith::Kernel;

    fn w_o() -> Matrix {
        // 5 classes, E = 4; class 3 has the largest row.
        let mut m = Matrix::zeros(5, 4);
        for i in 0..5 {
            for j in 0..4 {
                m[(i, j)] = if i == 3 { 1.0 } else { 0.1 * i as f32 };
            }
        }
        m
    }

    fn ith(thetas: Vec<Option<f32>>, order: Vec<usize>) -> ThresholdingModel {
        let n = thetas.len();
        ThresholdingModel {
            thresholds: thetas
                .into_iter()
                .map(|theta| ClassThreshold { theta })
                .collect(),
            order,
            silhouettes: vec![0.0; n],
            rho: 1.0,
            kernel: Kernel::Epanechnikov,
        }
    }

    #[test]
    fn exhaustive_search_finds_argmax() {
        let m = OutputModule::new(w_o(), &DatapathConfig::default());
        let r = m.search_words(&quantized(&[1.0, 1.0, 1.0, 1.0]));
        assert_eq!(r.label, 3);
        assert_eq!(r.comparisons, 5);
        assert!(!r.speculated);
    }

    #[test]
    fn threshold_hit_stops_early() {
        let m = OutputModule::new(w_o(), &DatapathConfig::default()).with_thresholding(
            &ith(vec![None, None, None, Some(2.0), None], vec![3, 0, 1, 2, 4]),
            true,
        );
        let r = m.search_words(&quantized(&[1.0, 1.0, 1.0, 1.0])); // z_3 = 4 > 2
        assert_eq!(r.label, 3);
        assert_eq!(r.comparisons, 1);
        assert!(r.speculated);
    }

    #[test]
    fn miss_falls_back_to_exact_argmax() {
        let m = OutputModule::new(w_o(), &DatapathConfig::default())
            .with_thresholding(&ith(vec![Some(100.0); 5], (0..5).collect()), true);
        let r = m.search_words(&quantized(&[1.0, 1.0, 1.0, 1.0]));
        assert_eq!(r.label, 3);
        assert_eq!(r.comparisons, 5);
        assert!(!r.speculated);
    }

    #[test]
    fn cycles_track_comparisons() {
        let m = OutputModule::new(w_o(), &DatapathConfig::default());
        let full = m.search_words(&quantized(&[1.0; 4]));
        let m_early = OutputModule::new(w_o(), &DatapathConfig::default())
            .with_thresholding(&ith(vec![Some(-100.0); 5], (0..5).collect()), true);
        let early = m_early.search_words(&quantized(&[1.0; 4]));
        assert!(early.cycles < full.cycles);
        assert_eq!(early.comparisons, 1);
    }

    #[test]
    fn unordered_probing_uses_index_order() {
        let mut thetas = vec![None; 5];
        thetas[4] = Some(-100.0);
        let model = ith(thetas, vec![4, 0, 1, 2, 3]);
        let ordered = OutputModule::new(w_o(), &DatapathConfig::default())
            .with_thresholding(&model, true)
            .search_words(&quantized(&[1.0; 4]));
        assert_eq!(ordered.comparisons, 1);
        let unordered = OutputModule::new(w_o(), &DatapathConfig::default())
            .with_thresholding(&model, false)
            .search_words(&quantized(&[1.0; 4]));
        assert_eq!(unordered.comparisons, 5);
        assert_eq!(unordered.label, 4);
    }

    #[test]
    #[should_panic(expected = "classes")]
    fn class_count_mismatch_panics() {
        let _ = OutputModule::new(w_o(), &DatapathConfig::default())
            .with_thresholding(&ith(vec![None; 3], vec![0, 1, 2]), true);
    }

    /// A weight matrix engineered so class 0's logit saturates in an
    /// intermediate product (MAX then a large negative add) yet lands at a
    /// moderate value that clears θ_0, while class 2 holds the true argmax.
    fn saturating_w_o() -> Matrix {
        let mut m = Matrix::zeros(3, 2);
        // h = [30000, 30000]: p = 100*30000 saturates at Fixed::MAX, then
        // -1*30000 pulls the accumulator back to ≈ 2768 — a numerically
        // meaningless logit that still clears a threshold of 1000.
        m[(0, 0)] = 100.0;
        m[(0, 1)] = -1.0;
        m[(1, 0)] = 0.1;
        m[(1, 1)] = 0.1;
        m[(2, 0)] = 0.2;
        m[(2, 1)] = 0.2;
        m
    }

    /// The acceptance scenario: an unguarded search early-exits on the
    /// saturated logit and answers wrong; the guard vetoes that exit and the
    /// continued sequential pass returns the exhaustive search's answer.
    #[test]
    fn guard_vetoes_saturated_exit_and_changes_answer() {
        let h = [30000.0f32, 30000.0];
        let model = ith(vec![Some(1000.0), None, None], vec![0, 1, 2]);
        let dp = DatapathConfig::default();

        let exact = OutputModule::new(saturating_w_o(), &dp).search_words(&quantized(&h));
        assert_eq!(exact.label, 2, "exhaustive argmax");

        let unguarded = OutputModule::new(saturating_w_o(), &dp)
            .with_thresholding(&model, true)
            .with_guard(ExitGuard::off())
            .search_words(&quantized(&h));
        assert_eq!(unguarded.label, 0, "saturated early exit fires unguarded");
        assert!(unguarded.speculated);
        assert_eq!(unguarded.vetoes, 0);

        let guarded = OutputModule::new(saturating_w_o(), &dp)
            .with_thresholding(&model, true)
            .search_words(&quantized(&h));
        assert_eq!(guarded.label, exact.label, "guard restores the answer");
        assert!(!guarded.speculated);
        assert_eq!(guarded.vetoes, 1);
        assert_eq!(guarded.comparisons, 3);
        assert!(guarded.numeric.mul_sat > 0, "flag recorded");
    }

    #[test]
    fn batched_search_matches_per_query() {
        let m = OutputModule::new(w_o(), &DatapathConfig::default());
        let hs: Vec<Vec<f32>> = (0..3)
            .map(|q| (0..4).map(|j| ((q * 4 + j) as f32 * 0.31).sin()).collect())
            .collect();
        let words: Vec<Vec<Fixed>> = hs.iter().map(|h| quantized(h)).collect();
        let refs: Vec<&[Fixed]> = words.iter().map(Vec::as_slice).collect();
        let batch = m.search_batch(&refs);
        assert_eq!(batch.len(), 3);
        for (h, got) in words.iter().zip(&batch) {
            assert_eq!(got, &m.search_words(h));
        }
        assert!(m.search_batch(&[]).is_empty());
        // With thresholding the batch delegates per query and still agrees.
        let t = OutputModule::new(w_o(), &DatapathConfig::default()).with_thresholding(
            &ith(vec![None, None, None, Some(2.0), None], vec![3, 0, 1, 2, 4]),
            true,
        );
        assert!(t.is_thresholded());
        for (h, got) in words.iter().zip(t.search_batch(&refs)) {
            assert_eq!(got, t.search_words(h));
        }
        // One shared stream slot fewer than the per-row occupancy.
        assert_eq!(
            m.row_stream_cycles() + 1,
            4usize.div_ceil(DatapathConfig::default().output_lanes) as u64 + 1
        );
    }

    /// With no saturation anywhere, the guard is invisible: guarded and
    /// unguarded searches agree on every field.
    #[test]
    fn guard_is_invisible_without_flags() {
        let model = ith(vec![None, None, None, Some(2.0), None], vec![3, 0, 1, 2, 4]);
        let h = [1.0f32, 1.0, 1.0, 1.0];
        let dp = DatapathConfig::default();
        let guarded = OutputModule::new(w_o(), &dp)
            .with_thresholding(&model, true)
            .search_words(&quantized(&h));
        let unguarded = OutputModule::new(w_o(), &dp)
            .with_thresholding(&model, true)
            .with_guard(ExitGuard::off())
            .search_words(&quantized(&h));
        assert_eq!(guarded, unguarded);
        assert!(guarded.numeric.is_clean());
        assert_eq!(guarded.vetoes, 0);
    }
}
