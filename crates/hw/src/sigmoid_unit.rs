//! Sigmoid / tanh unit built from the exp LUT and the divider.
//!
//! A gated controller needs `σ` and `tanh`; on the FPGA both reduce to the
//! units already on the die: `σ(x) = 1 / (1 + e^{-|x|})` for `x ≥ 0` (and
//! `e^{-|x|} / (1 + e^{-|x|})` for `x < 0`) — one exp-LUT lookup plus one
//! divide per element — and `tanh(x) = 2σ(2x) - 1`.

use mann_linalg::activation::ExpLut;
use mann_linalg::{Fixed, NumericStatus};

use crate::div_unit::DivUnit;
use crate::exp_unit::ExpUnit;
use crate::{Cycles, DatapathConfig};

/// The shared σ/tanh evaluation unit.
#[derive(Debug, Clone)]
pub struct SigmoidUnit {
    exp: ExpUnit,
    div: DivUnit,
}

impl SigmoidUnit {
    /// Builds the unit from the datapath configuration (shares the exp-LUT
    /// geometry and divider latency with the MEM module).
    pub fn new(dp: &DatapathConfig) -> Self {
        Self {
            exp: ExpUnit::new(ExpLut::new(dp.exp_lut_entries, -16.0), dp.exp_latency),
            div: DivUnit::new(dp.div_latency),
        }
    }

    /// Evaluates `σ(x)` for a batch, returning fixed-point results and the
    /// occupancy: `n + exp_latency` (pipelined lookups) plus `n` sequential
    /// divides. Numeric events of the exp lookup, the `1 + e` adder and the
    /// divider are recorded in `st`.
    pub fn sigmoid_batch_tracked(
        &self,
        xs: &[f32],
        st: &mut NumericStatus,
    ) -> (Vec<Fixed>, Cycles) {
        if xs.is_empty() {
            return (Vec::new(), Cycles::ZERO);
        }
        let negabs: Vec<f32> = xs.iter().map(|&x| -x.abs()).collect();
        let (exps, exp_cycles) = self.exp.eval_batch_tracked(&negabs, st);
        let mut out = Vec::with_capacity(xs.len());
        let mut div_cycles = Cycles::ZERO;
        for (&x, e) in xs.iter().zip(exps) {
            let denom = Fixed::ONE.add_tracked(e, st);
            let (q, c) =
                self.div
                    .div_batch_tracked(&[if x >= 0.0 { Fixed::ONE } else { e }], denom, st);
            out.push(q[0]);
            div_cycles += c;
        }
        (out, exp_cycles + div_cycles)
    }

    /// Evaluates `tanh(x)` via `2σ(2x) - 1`, with numeric-event accounting
    /// as [`SigmoidUnit::sigmoid_batch_tracked`].
    pub fn tanh_batch_tracked(&self, xs: &[f32], st: &mut NumericStatus) -> (Vec<Fixed>, Cycles) {
        let doubled: Vec<f32> = xs.iter().map(|&x| 2.0 * x).collect();
        let (sig, cycles) = self.sigmoid_batch_tracked(&doubled, st);
        let two = Fixed::from_f32(2.0);
        let out = sig
            .into_iter()
            .map(|s| two.mul_tracked(s, st).sub_tracked(Fixed::ONE, st))
            .collect();
        (out, cycles + Cycles::new(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mann_linalg::activation::sigmoid;

    fn unit() -> SigmoidUnit {
        SigmoidUnit::new(&DatapathConfig::default())
    }

    #[test]
    fn sigmoid_matches_reference() {
        let u = unit();
        let xs = [-4.0f32, -1.0, -0.25, 0.0, 0.25, 1.0, 4.0];
        let (out, _) = u.sigmoid_batch_tracked(&xs, &mut NumericStatus::default());
        for (o, &x) in out.iter().zip(&xs) {
            let expect = sigmoid(x);
            assert!(
                (o.to_f32() - expect).abs() < 5e-3,
                "sigma({x}) = {} vs {expect}",
                o.to_f32()
            );
        }
    }

    #[test]
    fn tanh_matches_reference() {
        let u = unit();
        let xs = [-3.0f32, -0.5, 0.0, 0.5, 3.0];
        let (out, _) = u.tanh_batch_tracked(&xs, &mut NumericStatus::default());
        for (o, &x) in out.iter().zip(&xs) {
            assert!(
                (o.to_f32() - x.tanh()).abs() < 1e-2,
                "tanh({x}) = {} vs {}",
                o.to_f32(),
                x.tanh()
            );
        }
    }

    #[test]
    fn occupancy_includes_sequential_divides() {
        let u = unit();
        let (_, c) = u.sigmoid_batch_tracked(&[0.5; 8], &mut NumericStatus::default());
        let dp = DatapathConfig::default();
        assert!(c.get() >= 8 * dp.div_latency);
        let (_, empty) = u.sigmoid_batch_tracked(&[], &mut NumericStatus::default());
        assert_eq!(empty, Cycles::ZERO);
    }

    #[test]
    fn outputs_stay_in_valid_ranges() {
        let u = unit();
        let xs: Vec<f32> = (-40..=40).map(|i| i as f32 * 0.25).collect();
        let (sig, _) = u.sigmoid_batch_tracked(&xs, &mut NumericStatus::default());
        assert!(sig.iter().all(|s| (0.0..=1.0).contains(&s.to_f32())));
        let (th, _) = u.tanh_batch_tracked(&xs, &mut NumericStatus::default());
        assert!(th.iter().all(|t| (-1.01..=1.01).contains(&t.to_f32())));
    }
}
