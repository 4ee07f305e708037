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

    /// Whether the gated controller is loaded.
    pub fn is_gated(&self) -> bool {
        matches!(self.controller, ControllerHw::Gru { .. })
    }

    /// One controller step: Eq 4 (`h = r + W_r k`) or the GRU recurrence.
    ///
    /// Timing (linear): `E` pipelined row dot products plus the elementwise
    /// add. Timing (GRU): six matvecs, two sigmoid batches, one tanh batch,
    /// and the elementwise combines — the gating tax the paper's linear
    /// controller avoids.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `k` width differs from `E`.
    pub fn step(&self, r: &[f32], k: &[f32]) -> (Vec<f32>, Cycles) {
        let mut h = Vec::new();
        let cycles = self.step_into(r, k, &mut h);
        (h, cycles)
    }

    /// [`ReadModule::step`] with the output written into a caller-owned
    /// buffer whose capacity is reused across hops. After warm-up the
    /// linear controller — the paper's datapath — allocates one buffer per
    /// step, the quantized key, whatever `E` is. The GRU variant also
    /// builds its quantized operands and gate temporaries, and its σ/tanh
    /// unit allocates per element. Values and cycle counts are identical to
    /// [`ReadModule::step`].
    ///
    /// # Panics
    ///
    /// Panics if `r` or `k` width differs from `E`.
    pub fn step_into(&self, r: &[f32], k: &[f32], h: &mut Vec<f32>) -> Cycles {
        self.step_into_tracked(r, k, h, &mut NumericStatus::default())
    }

    /// [`ReadModule::step_into`] with numeric-event accounting across the
    /// matvecs, the combine adder and (for the gated controller) the σ/tanh
    /// unit and gate combines. Values and cycle counts are identical to the
    /// untracked step.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `k` width differs from `E`.
    pub fn step_into_tracked(
        &self,
        r: &[f32],
        k: &[f32],
        h: &mut Vec<f32>,
        st: &mut NumericStatus,
    ) -> Cycles {
        let e = self.embed_dim();
        assert_eq!(r.len(), e, "read vector width");
        assert_eq!(k.len(), e, "key width");
        h.clear();
        h.reserve(e);
        match &self.controller {
            ControllerHw::Linear { w_r } => {
                let per_dot = (e.div_ceil(self.tree.width())) as u64;
                let k_q = Operand::new(k);
                for (row, &rv) in r.iter().enumerate() {
                    let wk = w_r.dot_tracked(row, &k_q, st);
                    let sum = Fixed::from_f32_tracked(rv, st).add_tracked(wk, st);
                    h.push(sum.to_f32());
                }
                Cycles::new(e as u64 * per_dot + self.tree.depth() + 2)
            }
            ControllerHw::Gru { gates, sigmoid } => {
                let (out, cycles) = self.gru_step(gates, sigmoid, r, k, st);
                h.extend_from_slice(&out);
                cycles
            }
        }
    }

    /// Fixed-point GRU step.
    fn gru_step(
        &self,
        gates: &[WeightStore; 6],
        sigmoid: &SigmoidUnit,
        r: &[f32],
        k: &[f32],
        st: &mut NumericStatus,
    ) -> (Vec<f32>, Cycles) {
        let e = self.embed_dim();
        let per_dot = (e.div_ceil(self.tree.width())) as u64;
        let matvec_cycles = Cycles::new(e as u64 * per_dot + self.tree.depth() + 1);
        let mut total = Cycles::ZERO;
        let [w_z, u_z, w_g, u_g, w_h, u_h] = gates;
        let (r_q, k_q) = (Operand::new(r), Operand::new(k));

        fn matvec(m: &WeightStore, x: &Operand, st: &mut NumericStatus) -> Vec<f32> {
            (0..m.rows())
                .map(|row| m.dot_tracked(row, x, st).to_f32())
                .collect()
        }
        // Gate pre-activations: a = W r + U k (the add overlaps the tree).
        let az: Vec<f32> = matvec(w_z, &r_q, st)
            .iter()
            .zip(matvec(u_z, &k_q, st))
            .map(|(a, b)| a + b)
            .collect();
        total += matvec_cycles * 2;
        let ag: Vec<f32> = matvec(w_g, &r_q, st)
            .iter()
            .zip(matvec(u_g, &k_q, st))
            .map(|(a, b)| a + b)
            .collect();
        total += matvec_cycles * 2;
        let (z, zc) = sigmoid.sigmoid_batch_tracked(&az, st);
        let (g, gc) = sigmoid.sigmoid_batch_tracked(&ag, st);
        total += zc + gc;

        let gk: Vec<f32> = g
            .iter()
            .zip(k)
            .map(|(gv, &kv)| gv.mul_tracked(Fixed::from_f32_tracked(kv, st), st).to_f32())
            .collect();
        total += Cycles::new(1); // elementwise, E parallel lanes
        let ah: Vec<f32> = matvec(w_h, &r_q, st)
            .iter()
            .zip(matvec(u_h, &Operand::new(&gk), st))
            .map(|(a, b)| a + b)
            .collect();
        total += matvec_cycles * 2;
        let (ht, hc) = sigmoid.tanh_batch_tracked(&ah, st);
        total += hc;

        let h: Vec<f32> = z
            .iter()
            .zip(k)
            .zip(ht)
            .map(|((zv, &kv), hv)| {
                Fixed::ONE
                    .sub_tracked(*zv, st)
                    .mul_tracked(Fixed::from_f32_tracked(kv, st), st)
                    .add_tracked(zv.mul_tracked(hv, st), st)
                    .to_f32()
            })
            .collect();
        total += Cycles::new(2);
        (h, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(e: usize) -> ReadModule {
        let mut w = Matrix::zeros(e, e);
        for i in 0..e {
            for j in 0..e {
                w[(i, j)] = if i == j { 0.5 } else { 0.0 };
            }
        }
        ReadModule::new(w, &DatapathConfig::default())
    }

    #[test]
    fn identity_like_controller() {
        let m = module(4);
        let r = vec![1.0, 2.0, 3.0, 4.0];
        let k = vec![2.0, 2.0, 2.0, 2.0];
        let (h, _) = m.step(&r, &k);
        // h = r + 0.5 * k.
        for (i, &x) in h.iter().enumerate() {
            assert!((x - (r[i] + 1.0)).abs() < 1e-3);
        }
    }

    #[test]
    fn cycles_scale_quadratically_with_dim() {
        let small = module(8).step(&[0.0; 8], &[0.0; 8]).1;
        let large = module(32).step(&[0.0; 32], &[0.0; 32]).1;
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
        let _ = m.step(&[0.0; 3], &[0.0; 4]);
    }
}
