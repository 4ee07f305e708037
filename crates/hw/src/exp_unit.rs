//! The pipelined exponential unit of the MEM module.
//!
//! Softmax cannot be parallelized on the FPGA (the paper notes the
//! exponentiation and division are the costly parts), so the MEM module
//! streams memory scores through one BRAM-LUT exponential pipeline.

use std::sync::Arc;

use mann_linalg::activation::ExpLut;
use mann_linalg::{Fixed, NumericStatus};

use crate::Cycles;

/// A LUT-based exponential pipeline: initiation interval 1, fixed latency.
///
/// Clones share one table: the MEM module is cloned for every story
/// written, and the table is read-only after load.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpUnit {
    lut: Arc<ExpLut>,
    latency: u64,
}

impl ExpUnit {
    /// Creates the unit with an explicit LUT and pipeline latency.
    pub fn new(lut: ExpLut, latency: u64) -> Self {
        Self {
            lut: Arc::new(lut),
            latency,
        }
    }

    /// Pipeline latency in cycles (address decode, BRAM read, interpolation
    /// multiply, output register).
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The LUT in use (exposed for the LUT-size ablation).
    pub fn lut(&self) -> &ExpLut {
        &self.lut
    }

    /// Evaluates `exp(x)` for a batch of shifted scores (all `≤ 0`),
    /// returning fixed-point results and the occupancy of the pipeline:
    /// `n + latency` cycles for `n` inputs at II = 1.
    pub fn eval_batch(&self, xs: &[f32]) -> (Vec<Fixed>, Cycles) {
        self.eval_batch_tracked(xs, &mut NumericStatus::default())
    }

    /// [`ExpUnit::eval_batch`] with numeric-event accounting: non-finite or
    /// out-of-range operands at the output quantizer are recorded in `st`.
    /// The results are bit-identical to the untracked batch.
    pub fn eval_batch_tracked(&self, xs: &[f32], st: &mut NumericStatus) -> (Vec<Fixed>, Cycles) {
        let out = xs.iter().map(|&x| self.eval_tracked(x, st)).collect();
        (out, self.batch_cycles(xs.len()))
    }

    /// One lookup of [`ExpUnit::eval_batch_tracked`]: `exp(x)` through the
    /// output quantizer, its events in `st`.
    #[inline]
    pub fn eval_tracked(&self, x: f32, st: &mut NumericStatus) -> Fixed {
        Fixed::from_f32_tracked(self.lut.eval(x), st)
    }

    /// Occupancy of `n` lookups at II = 1: `n + latency` cycles, none for
    /// an empty batch.
    pub fn batch_cycles(&self, n: usize) -> Cycles {
        if n == 0 {
            Cycles::ZERO
        } else {
            Cycles::new(n as u64 + self.latency)
        }
    }
}

impl Default for ExpUnit {
    /// 256-entry LUT over `[-16, 0]`, 4-cycle latency.
    fn default() -> Self {
        Self::new(ExpLut::default(), 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_matches_lut_pointwise() {
        let unit = ExpUnit::default();
        let xs = [-0.5f32, -1.0, -2.0, 0.0];
        let (out, _) = unit.eval_batch(&xs);
        for (o, &x) in out.iter().zip(&xs) {
            assert!((o.to_f32() - unit.lut().eval(x)).abs() < 1e-3);
        }
    }

    #[test]
    fn occupancy_is_n_plus_latency() {
        let unit = ExpUnit::default();
        let (_, c) = unit.eval_batch(&[-1.0; 10]);
        assert_eq!(c.get(), 10 + unit.latency());
        let (_, empty) = unit.eval_batch(&[]);
        assert_eq!(empty, Cycles::ZERO);
    }

    #[test]
    fn outputs_stay_in_unit_interval() {
        let unit = ExpUnit::default();
        let xs: Vec<f32> = (0..50).map(|i| -(i as f32) * 0.3).collect();
        let (out, _) = unit.eval_batch(&xs);
        for o in out {
            let v = o.to_f32();
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }
}
