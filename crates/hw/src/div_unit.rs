//! The sequential divider of the MEM module's softmax normalization.
//!
//! Division is the expensive, unparallelizable step the paper calls out:
//! one radix-2 restoring divider retires a quotient every `latency` cycles
//! (it is *not* pipelined — the classic area/speed trade on an FPGA).

use mann_linalg::{Fixed, NumericStatus};

use crate::Cycles;

/// A non-pipelined fixed-point divider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivUnit {
    latency: u64,
}

impl DivUnit {
    /// Creates a divider with the given per-operation latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`.
    pub fn new(latency: u64) -> Self {
        assert!(latency > 0, "divider latency must be positive");
        Self { latency }
    }

    /// Per-operation latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Divides each numerator by `denom`, returning quotients and total
    /// occupancy (`n * latency`, sequential).
    pub fn div_batch(&self, numerators: &[Fixed], denom: Fixed) -> (Vec<Fixed>, Cycles) {
        self.div_batch_tracked(numerators, denom, &mut NumericStatus::default())
    }

    /// [`DivUnit::div_batch`] with numeric-event accounting: zero divisors
    /// and clipped quotients are recorded in `st`. The quotients are
    /// bit-identical to the untracked batch.
    pub fn div_batch_tracked(
        &self,
        numerators: &[Fixed],
        denom: Fixed,
        st: &mut NumericStatus,
    ) -> (Vec<Fixed>, Cycles) {
        let mut out = numerators.to_vec();
        let cycles = self.div_in_place_tracked(&mut out, denom, st);
        (out, cycles)
    }

    /// [`DivUnit::div_batch_tracked`] in place: each numerator becomes its
    /// quotient.
    pub fn div_in_place_tracked(
        &self,
        numerators: &mut [Fixed],
        denom: Fixed,
        st: &mut NumericStatus,
    ) -> Cycles {
        for n in numerators.iter_mut() {
            *n = n.div_tracked(denom, st);
        }
        Cycles::new(numerators.len() as u64 * self.latency)
    }
}

impl Default for DivUnit {
    /// 24-cycle divider on 32-bit operands (a radix-2 restoring divider
    /// retiring ~1.3 quotient bits per cycle).
    fn default() -> Self {
        Self { latency: 24 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotients_match_fixed_division() {
        let d = DivUnit::default();
        let nums: Vec<Fixed> = [1.0f32, 2.0, 3.0]
            .iter()
            .map(|&x| Fixed::from_f32(x))
            .collect();
        let (out, _) = d.div_batch(&nums, Fixed::from_f32(2.0));
        let expect = [0.5f32, 1.0, 1.5];
        for (o, e) in out.iter().zip(expect) {
            assert!((o.to_f32() - e).abs() < 1e-3);
        }
    }

    #[test]
    fn occupancy_is_sequential() {
        let d = DivUnit::new(10);
        let nums = vec![Fixed::ONE; 7];
        let (_, c) = d.div_batch(&nums, Fixed::ONE);
        assert_eq!(c.get(), 70);
    }

    #[test]
    fn divide_by_zero_saturates_not_panics() {
        let d = DivUnit::default();
        let (out, _) = d.div_batch(&[Fixed::ONE], Fixed::ZERO);
        assert_eq!(out[0], Fixed::MAX);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_rejected() {
        let _ = DivUnit::new(0);
    }
}
