//! The READ module: the recurrent controller (Eqs 3–4).
//!
//! The blue loop of Fig 1: the controller combines the read vector with
//! `W_r k` and feeds its output back as the next hop's key — the recurrent
//! path that makes MANNs awkward on batch-oriented accelerators and natural
//! on a dataflow architecture.

use mann_linalg::{Fixed, Matrix, NumericStatus};
use memn2n::GruParams;

use crate::adder_tree::AdderTree;
use crate::sigmoid_unit::SigmoidUnit;
use crate::weight_store::{Operand, WeightStore};
use crate::{Cycles, DatapathConfig};

/// The controller datapath variant loaded into the READ module. Weights are
/// held as quantized BRAM words.
#[derive(Debug, Clone)]
enum ControllerHw {
    /// Eq 4: one `E x E` weight, one matvec per hop.
    Linear { w_r: WeightStore },
    /// Gated: six `E x E` weights (Wz, Uz, Wg, Ug, Wh, Uh) plus the σ/tanh
    /// unit.
    Gru {
        gates: Box<[WeightStore; 6]>,
        sigmoid: SigmoidUnit,
    },
}

/// The read-key controller.
#[derive(Debug, Clone)]
pub struct ReadModule {
    controller: ControllerHw,
    embed_dim: usize,
    tree: AdderTree,
}

impl ReadModule {
    /// Creates the linear controller (Eq 4) over a pre-quantized `E x E`
    /// weight.
    ///
    /// # Panics
    ///
    /// Panics if `w_r` is not square or the datapath is invalid.
    pub fn new(w_r: Matrix, dp: &DatapathConfig) -> Self {
        assert_eq!(w_r.rows(), w_r.cols(), "controller weight must be square");
        dp.validate().expect("valid datapath");
        let embed_dim = w_r.rows();
        Self {
            controller: ControllerHw::Linear {
                w_r: WeightStore::new(&w_r),
            },
            embed_dim,
            tree: AdderTree::new(dp.tree_width),
        }
    }

    /// Creates the gated (GRU) controller over pre-quantized gate weights.
    ///
    /// # Panics
    ///
    /// Panics if the gate weights are not square/consistent or the
    /// datapath is invalid.
    pub fn new_gru(weights: GruParams, dp: &DatapathConfig) -> Self {
        dp.validate().expect("valid datapath");
        let e = weights.w_z.rows();
        for m in weights.matrices() {
            assert_eq!(m.shape(), (e, e), "gate weight must be E x E");
        }
        Self {
            controller: ControllerHw::Gru {
                gates: Box::new(weights.matrices().map(WeightStore::new)),
                sigmoid: SigmoidUnit::new(dp),
            },
            embed_dim: e,
            tree: AdderTree::new(dp.tree_width),
        }
    }

    /// Embedding dimension `E`.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// One controller step on words: Eq 4 (`h = r + W_r k`) or the GRU
    /// recurrence, over the read vector from MEM and the key, each
    /// re-quantized once per step ([`Operand::from_words`]). The output
    /// stays words for the next hop's key and the OUTPUT search. Numeric
    /// events of the operand quantizers, the matvecs, the combine adder
    /// and (for the gated controller) the σ/tanh unit and gate combines
    /// land in `st`.
    ///
    /// Timing (linear): `E` pipelined row dot products plus the elementwise
    /// add. Timing (GRU): six matvecs, two sigmoid batches, one tanh batch,
    /// and the elementwise combines — the gating tax the paper's linear
    /// controller avoids.
    ///
    /// After warm-up the linear controller — the paper's datapath —
    /// allocates nothing unless an operand word lies beyond `2^24`. The GRU
    /// variant builds its gate temporaries, and its σ/tanh unit allocates
    /// per element.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `k` width differs from `E`.
    pub fn step_words_tracked(
        &self,
        r: &[Fixed],
        k: &[Fixed],
        h: &mut Vec<Fixed>,
        st: &mut NumericStatus,
    ) -> Cycles {
        let e = self.embed_dim();
        assert_eq!(r.len(), e, "read vector width");
        assert_eq!(k.len(), e, "key width");
        // Each operand's quantizer register is merged once per use of its
        // words, as quantizing the operand at every use would record it.
        let (r, k) = (Operand::from_words(r), Operand::from_words(k));
        match &self.controller {
            ControllerHw::Linear { w_r } => {
                let per_dot = (e.div_ceil(self.tree.width())) as u64;
                h.clear();
                h.resize(e, Fixed::ZERO);
                w_r.matvec_tracked(&k, st, |row, wk| h[row] = wk);
                // h = r + W_r k: each read word is converted once.
                st.merge(r.status());
                for (hv, rv) in h.iter_mut().zip(r.words()) {
                    *hv = rv.add_tracked(*hv, st);
                }
                Cycles::new(e as u64 * per_dot + self.tree.depth() + 2)
            }
            ControllerHw::Gru { gates, sigmoid } => self.gru_step(gates, sigmoid, &r, &k, h, st),
        }
    }

    /// Fixed-point GRU step. The gate pre-activations `W x + U y` are
    /// summed in `f32`, as the σ/tanh unit takes them.
    fn gru_step(
        &self,
        gates: &[WeightStore; 6],
        sigmoid: &SigmoidUnit,
        r: &Operand,
        k: &Operand,
        h: &mut Vec<Fixed>,
        st: &mut NumericStatus,
    ) -> Cycles {
        let e = self.embed_dim();
        let per_dot = (e.div_ceil(self.tree.width())) as u64;
        let matvec_cycles = Cycles::new(e as u64 * per_dot + self.tree.depth() + 1);
        let mut total = Cycles::ZERO;
        let [w_z, u_z, w_g, u_g, w_h, u_h] = gates;

        // a = W x + U y, the add overlapping the tree.
        let gate =
            |w: &WeightStore, x: &Operand, u: &WeightStore, y: &Operand, st: &mut NumericStatus| {
                let mut a = vec![0.0f32; e];
                w.matvec_tracked(x, st, |row, z| a[row] = z.to_f32());
                u.matvec_tracked(y, st, |row, z| a[row] += z.to_f32());
                a
            };
        let az = gate(w_z, r, u_z, k, st);
        let ag = gate(w_g, r, u_g, k, st);
        total += matvec_cycles * 4;
        let (z, zc) = sigmoid.sigmoid_batch_tracked(&az, st);
        let (g, gc) = sigmoid.sigmoid_batch_tracked(&ag, st);
        total += zc + gc;

        // The key's words meet two elementwise combines below.
        st.merge_times(k.status(), 2);
        let gk: Vec<Fixed> = g
            .iter()
            .zip(k.words())
            .map(|(gv, kv)| gv.mul_tracked(*kv, st))
            .collect();
        total += Cycles::new(1); // elementwise, E parallel lanes
        let ah = gate(w_h, r, u_h, &Operand::from_words(&gk), st);
        total += matvec_cycles * 2;
        let (ht, hc) = sigmoid.tanh_batch_tracked(&ah, st);
        total += hc;

        h.clear();
        h.extend(z.iter().zip(k.words()).zip(ht).map(|((zv, kv), hv)| {
            Fixed::ONE
                .sub_tracked(*zv, st)
                .mul_tracked(*kv, st)
                .add_tracked(zv.mul_tracked(hv, st), st)
        }));
        total += Cycles::new(2);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::quantized;

    fn module(e: usize) -> ReadModule {
        let mut w = Matrix::zeros(e, e);
        for i in 0..e {
            for j in 0..e {
                w[(i, j)] = if i == j { 0.5 } else { 0.0 };
            }
        }
        ReadModule::new(w, &DatapathConfig::default())
    }

    /// One step on `f32` operands, quantized: the output and the cycles.
    fn controller_out(m: &ReadModule, r: &[f32], k: &[f32]) -> (Vec<Fixed>, Cycles) {
        let mut h = Vec::new();
        let (r, k) = (quantized(r), quantized(k));
        let cycles = m.step_words_tracked(&r, &k, &mut h, &mut NumericStatus::default());
        (h, cycles)
    }

    #[test]
    fn identity_like_controller() {
        let m = module(4);
        let r = vec![1.0, 2.0, 3.0, 4.0];
        let k = vec![2.0, 2.0, 2.0, 2.0];
        let (h, _) = controller_out(&m, &r, &k);
        // h = r + 0.5 * k.
        for (i, x) in h.iter().enumerate() {
            assert!((x.to_f32() - (r[i] + 1.0)).abs() < 1e-3);
        }
    }

    #[test]
    fn cycles_scale_quadratically_with_dim() {
        let small = controller_out(&module(8), &[0.0; 8], &[0.0; 8]).1;
        let large = controller_out(&module(32), &[0.0; 32], &[0.0; 32]).1;
        assert!(large.get() > small.get() * 4, "{large} vs {small}");
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_weight_rejected() {
        let _ = ReadModule::new(Matrix::zeros(3, 4), &DatapathConfig::default());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn wrong_operand_width_panics() {
        let m = module(4);
        let _ = controller_out(&m, &[0.0; 3], &[0.0; 4]);
    }
}
