//! Exact and hardware-approximated transcendental functions.
//!
//! The MEM module's softmax (paper Eq 1) needs `exp` and divide. On the FPGA
//! these are a BRAM lookup table with linear interpolation and a sequential
//! divider; [`ExpLut`] models the former so the simulator's numerics match
//! what the bitstream would compute.

use serde::{Deserialize, Serialize};

/// A bounded-domain exponential lookup table with linear interpolation.
///
/// The table covers `[x_min, 0]`; content-addressing logits are shifted by
/// their maximum before exponentiation (the standard stable-softmax trick,
/// which hardware performs with a running max register), so only
/// non-positive inputs occur. Inputs below `x_min` flush to zero, inputs
/// above `0` clamp to `exp(0) = 1`.
///
/// ```
/// use mann_linalg::activation::ExpLut;
///
/// let lut = ExpLut::new(256, -10.0);
/// assert!((lut.eval(0.0) - 1.0).abs() < 1e-3);
/// assert!((lut.eval(-1.0) - (-1.0f32).exp()).abs() < 1e-3);
/// assert_eq!(lut.eval(-50.0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpLut {
    x_min: f32,
    step: f32,
    table: Vec<f32>,
}

impl ExpLut {
    /// Builds a LUT with `entries` sample points over `[x_min, 0]`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `x_min >= 0`.
    pub fn new(entries: usize, x_min: f32) -> Self {
        assert!(entries >= 2, "need at least two LUT entries");
        assert!(x_min < 0.0, "x_min must be negative");
        let step = -x_min / (entries - 1) as f32;
        let table = (0..entries)
            .map(|i| (x_min + step * i as f32).exp())
            .collect();
        Self { x_min, step, table }
    }

    /// Number of table entries (BRAM depth).
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Lower bound of the covered domain.
    pub fn x_min(&self) -> f32 {
        self.x_min
    }

    /// Evaluates the approximated exponential.
    ///
    /// Inputs `> 0` clamp to `1.0`; inputs `< x_min` flush to `0.0`
    /// (denormal-free hardware behaviour).
    pub fn eval(&self, x: f32) -> f32 {
        if x >= 0.0 {
            return 1.0;
        }
        if x < self.x_min {
            return 0.0;
        }
        let pos = (x - self.x_min) / self.step;
        let idx = pos.floor() as usize;
        let frac = pos - idx as f32;
        if idx + 1 >= self.table.len() {
            return *self.table.last().expect("non-empty table");
        }
        self.table[idx] * (1.0 - frac) + self.table[idx + 1] * frac
    }

    /// Worst-case absolute error against `f32::exp` sampled between table
    /// knots — used by the LUT-size ablation.
    pub fn max_abs_error(&self, samples_per_cell: usize) -> f32 {
        let mut worst = 0.0f32;
        let cells = self.table.len() - 1;
        for i in 0..cells {
            for s in 0..=samples_per_cell {
                let x = self.x_min + self.step * (i as f32 + s as f32 / samples_per_cell as f32);
                let err = (self.eval(x) - x.exp()).abs();
                worst = worst.max(err);
            }
        }
        worst
    }
}

impl Default for ExpLut {
    /// The accelerator's default configuration: 256 entries over `[-16, 0]`
    /// (one 36Kb BRAM of 32-bit words with room to spare).
    fn default() -> Self {
        Self::new(256, -16.0)
    }
}

/// Exact logistic sigmoid (reference implementations and tests).
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Exact hyperbolic tangent wrapper (kept for controller variants).
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_endpoints_are_exact() {
        let lut = ExpLut::new(128, -8.0);
        assert!((lut.eval(0.0) - 1.0).abs() < 1e-6);
        assert!((lut.eval(-8.0) - (-8.0f32).exp()).abs() < 1e-6);
    }

    #[test]
    fn lut_flushes_below_domain() {
        let lut = ExpLut::new(64, -4.0);
        assert_eq!(lut.eval(-4.001), 0.0);
        assert_eq!(lut.eval(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn lut_clamps_positive_inputs() {
        let lut = ExpLut::default();
        assert_eq!(lut.eval(3.0), 1.0);
    }

    #[test]
    fn bigger_tables_are_more_accurate() {
        let small = ExpLut::new(16, -8.0).max_abs_error(8);
        let large = ExpLut::new(1024, -8.0).max_abs_error(8);
        assert!(large < small, "{large} !< {small}");
        assert!(large < 1e-4);
    }

    #[test]
    #[should_panic(expected = "x_min must be negative")]
    fn lut_rejects_positive_domain() {
        let _ = ExpLut::new(8, 1.0);
    }

    #[test]
    fn sigmoid_is_centered() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
