//! Numeric-event accounting for the fixed-point datapath.
//!
//! Hardware fixed-point units do not fail loudly: an adder that overflows
//! saturates, a divider fed a zero denominator clamps, a quantizer handed an
//! out-of-range operand clips. Real accelerators surface these events through
//! a sticky status register that software can read back after an inference.
//! [`NumericStatus`] is that register's simulation: a set of per-class event
//! counters populated by the `*_tracked` arithmetic on
//! [`Fixed`](crate::Fixed). The untracked operators remain untouched, so code
//! that does not attach a monitor pays nothing.
//!
//! Counters are plain `u64` sums, so merging two statuses (e.g. folding
//! per-module registers into a per-inference report) is associative and
//! commutative — the order in which events are observed can never change the
//! final register value.

use serde::{Deserialize, Serialize};

/// Sticky counters for the numeric-event classes a fixed-point datapath can
/// raise.
///
/// A default-constructed status is "clean"; every tracked operation that
/// saturates, clamps or sees a non-finite operand bumps exactly one counter.
/// Values produced by tracked ops are bit-identical to their untracked
/// counterparts — the status is an observer, never a participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NumericStatus {
    /// Additions whose true sum exceeded the representable range.
    pub add_sat: u64,
    /// Subtractions whose true difference exceeded the representable range.
    pub sub_sat: u64,
    /// Wide-result saturations: multiplications (or divisions with a nonzero
    /// divisor) whose 64-bit intermediate clipped at the 32-bit boundary.
    pub mul_sat: u64,
    /// Divisions with an exactly-zero divisor (the divider flag-and-clamps).
    pub div_zero: u64,
    /// Finite `f32` operands clipped by the quantizer at a float→fixed
    /// boundary.
    pub quant_clamp: u64,
    /// Non-finite `f32` operands (NaN or ±∞) observed at a float→fixed
    /// boundary — hardware has neither, so the quantizer maps them to
    /// zero / the clamp rails and raises this flag.
    pub nan_boundary: u64,
}

impl NumericStatus {
    /// A clean status register (all counters zero).
    pub const CLEAN: NumericStatus = NumericStatus {
        add_sat: 0,
        sub_sat: 0,
        mul_sat: 0,
        div_zero: 0,
        quant_clamp: 0,
        nan_boundary: 0,
    };

    /// Folds another status register into this one (field-wise saturating
    /// sum). Merging is associative and commutative.
    #[inline]
    pub fn merge(&mut self, other: &NumericStatus) {
        self.add_sat = self.add_sat.saturating_add(other.add_sat);
        self.sub_sat = self.sub_sat.saturating_add(other.sub_sat);
        self.mul_sat = self.mul_sat.saturating_add(other.mul_sat);
        self.div_zero = self.div_zero.saturating_add(other.div_zero);
        self.quant_clamp = self.quant_clamp.saturating_add(other.quant_clamp);
        self.nan_boundary = self.nan_boundary.saturating_add(other.nan_boundary);
    }

    /// Folds `other` into this register `n` times, in one step: every
    /// counter is non-negative, so `n` saturating merges equal one
    /// saturating add of `n` times each counter.
    #[inline]
    pub fn merge_times(&mut self, other: &NumericStatus, n: u64) {
        self.merge(&NumericStatus {
            add_sat: other.add_sat.saturating_mul(n),
            sub_sat: other.sub_sat.saturating_mul(n),
            mul_sat: other.mul_sat.saturating_mul(n),
            div_zero: other.div_zero.saturating_mul(n),
            quant_clamp: other.quant_clamp.saturating_mul(n),
            nan_boundary: other.nan_boundary.saturating_mul(n),
        });
    }

    /// The merged form of two registers, by value.
    #[inline]
    pub fn merged(mut self, other: &NumericStatus) -> NumericStatus {
        self.merge(other);
        self
    }

    /// Total events across every class.
    #[inline]
    pub fn total(&self) -> u64 {
        self.add_sat
            .saturating_add(self.sub_sat)
            .saturating_add(self.mul_sat)
            .saturating_add(self.div_zero)
            .saturating_add(self.quant_clamp)
            .saturating_add(self.nan_boundary)
    }

    /// True when any event of any class was recorded.
    #[inline]
    pub fn stressed(&self) -> bool {
        self.total() > 0
    }

    /// True when no event was recorded.
    #[inline]
    pub fn is_clean(&self) -> bool {
        !self.stressed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        let st = NumericStatus::default();
        assert!(st.is_clean());
        assert!(!st.stressed());
        assert_eq!(st.total(), 0);
        assert_eq!(st, NumericStatus::CLEAN);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = NumericStatus {
            add_sat: 1,
            mul_sat: 2,
            ..NumericStatus::default()
        };
        let b = NumericStatus {
            add_sat: 3,
            nan_boundary: 4,
            ..NumericStatus::default()
        };
        a.merge(&b);
        assert_eq!(a.add_sat, 4);
        assert_eq!(a.mul_sat, 2);
        assert_eq!(a.nan_boundary, 4);
        assert_eq!(a.total(), 10);
        assert!(a.stressed());
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = NumericStatus {
            add_sat: u64::MAX,
            ..NumericStatus::default()
        };
        a.merge(&NumericStatus {
            add_sat: 5,
            ..NumericStatus::default()
        });
        assert_eq!(a.add_sat, u64::MAX);
    }

    #[test]
    fn merge_times_equals_repeated_merges() {
        let other = NumericStatus {
            add_sat: 3,
            mul_sat: u64::MAX / 2,
            quant_clamp: 1,
            ..NumericStatus::default()
        };
        for n in [0u64, 1, 2, 5] {
            let mut once = NumericStatus {
                sub_sat: 7,
                ..NumericStatus::default()
            };
            let mut repeated = once;
            once.merge_times(&other, n);
            for _ in 0..n {
                repeated.merge(&other);
            }
            assert_eq!(once, repeated, "n = {n}");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let st = NumericStatus {
            add_sat: 1,
            sub_sat: 2,
            mul_sat: 3,
            div_zero: 4,
            quant_clamp: 5,
            nan_boundary: 6,
        };
        let v = serde::Serialize::to_value(&st);
        let back: NumericStatus = serde::Deserialize::from_value(&v).expect("roundtrip");
        assert_eq!(back, st);
    }
}
