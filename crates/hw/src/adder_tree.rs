//! Fixed-point adder tree — the reduction structure drawn inside the
//! INPUT & WRITE, MEM, READ and OUTPUT modules of Fig 1.

use mann_linalg::{Fixed, NumericStatus};

use crate::Cycles;

/// A `width`-leaf balanced adder tree.
///
/// One tree reduces up to `width` operands per issue; longer reductions are
/// folded over multiple issues with an accumulator. The latency model is the
/// classic pipelined-tree formula: `ceil(n / width)` issue cycles plus
/// `ceil(log2(width))` stages of register delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderTree {
    width: usize,
}

impl AdderTree {
    /// Creates a tree with `width` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "adder tree needs at least one leaf");
        Self { width }
    }

    /// Number of leaves.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Register stages through the tree.
    pub fn depth(&self) -> u64 {
        (usize::BITS - (self.width - 1).leading_zeros()) as u64
    }

    /// Reduces `values`, returning the fixed-point sum and the cycles the
    /// reduction occupied the tree. Accumulator saturations are recorded
    /// in `st`.
    pub fn reduce_tracked(&self, values: &[Fixed], st: &mut NumericStatus) -> (Fixed, Cycles) {
        let mut acc = Fixed::ZERO;
        for v in values {
            acc = acc.add_tracked(*v, st);
        }
        (acc, self.reduce_cycles(values.len()))
    }

    /// Latency of reducing `n` operands without computing them.
    pub fn reduce_cycles(&self, n: usize) -> Cycles {
        if n == 0 {
            return Cycles::ZERO;
        }
        let issues = n.div_ceil(self.width) as u64;
        Cycles::new(issues + self.depth())
    }

    /// Dot product of two `f32` slices through the fixed-point datapath:
    /// quantize, multiply (one DSP cycle per issue, overlapped), reduce.
    /// Quantizer clamps, product saturations and accumulator saturations
    /// are recorded in `st`. The datapath quantizes its weights once, at
    /// load; this per-access form is the oracle its equivalence tests
    /// compare against.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn fixed_dot_tracked(
        &self,
        a: &[f32],
        b: &[f32],
        st: &mut NumericStatus,
    ) -> (Fixed, Cycles) {
        assert_eq!(a.len(), b.len(), "dot operand length mismatch");
        let products: Vec<Fixed> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                Fixed::from_f32_tracked(x, st).mul_tracked(Fixed::from_f32_tracked(y, st), st)
            })
            .collect();
        let (sum, cycles) = self.reduce_tracked(&products, st);
        // One extra cycle for the multiplier stage ahead of the tree.
        (sum, cycles + Cycles::new(1))
    }
}

impl Default for AdderTree {
    /// Eight leaves — what comfortably fits next to a DSP column at
    /// 100 MHz.
    fn default() -> Self {
        Self::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_log2_width() {
        assert_eq!(AdderTree::new(1).depth(), 0);
        assert_eq!(AdderTree::new(2).depth(), 1);
        assert_eq!(AdderTree::new(8).depth(), 3);
        assert_eq!(AdderTree::new(9).depth(), 4);
    }

    #[test]
    fn reduce_sums_correctly() {
        let tree = AdderTree::new(4);
        let vals: Vec<Fixed> = [1.0f32, 2.0, 3.0, 4.0, 5.0]
            .iter()
            .map(|&x| Fixed::from_f32(x))
            .collect();
        let (sum, cycles) = tree.reduce_tracked(&vals, &mut NumericStatus::default());
        assert!((sum.to_f32() - 15.0).abs() < 1e-3);
        // 5 operands over width 4 → 2 issues + depth 2.
        assert_eq!(cycles.get(), 2 + 2);
    }

    #[test]
    fn empty_reduction_is_free_zero() {
        let tree = AdderTree::default();
        let (sum, cycles) = tree.reduce_tracked(&[], &mut NumericStatus::default());
        assert_eq!(sum, Fixed::ZERO);
        assert_eq!(cycles, Cycles::ZERO);
    }

    #[test]
    fn wider_trees_are_faster() {
        let narrow = AdderTree::new(2).reduce_cycles(64);
        let wide = AdderTree::new(16).reduce_cycles(64);
        assert!(wide < narrow);
    }

    #[test]
    fn fixed_dot_matches_float() {
        let tree = AdderTree::default();
        let a = [0.5f32, -1.0, 2.0];
        let b = [2.0f32, 3.0, 0.25];
        let (sum, cycles) = tree.fixed_dot_tracked(&a, &b, &mut NumericStatus::default());
        assert!((sum.to_f32() - (1.0 - 3.0 + 0.5)).abs() < 1e-3);
        assert!(cycles.get() > 0);
    }
}
