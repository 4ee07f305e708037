//! Property tests for the numeric-health layer: tracked fixed-point ops are
//! bit-identical to the untracked ops on every input, the status register
//! merge is associative and commutative, and the event counters fire exactly
//! when the untracked op would have saturated or clamped. The MAC kernel
//! and its certified entries equal the in-order tracked chain in value and
//! in every counter.

use mann_linalg::fixed::{
    abs_max, abs_sum, dot_certified, dot_tracked, dot_tracked_pairs, weighted_rows_certified,
};
use mann_linalg::{Fixed, NumericStatus};
use proptest::prelude::*;

fn any_status() -> impl Strategy<Value = NumericStatus> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((add_sat, sub_sat, mul_sat), (div_zero, quant_clamp, nan_boundary))| NumericStatus {
                add_sat,
                sub_sat,
                mul_sat,
                div_zero,
                quant_clamp,
                nan_boundary,
            },
        )
}

/// A raw word from `band`: `|raw| < 2^16`, `|raw| < 2^24`, or any `i32`
/// with `MIN` and `MAX` drawn often. Chains of the first band never
/// saturate; chains of the last nearly always do.
fn banded_raw(band: usize) -> impl Strategy<Value = i32> {
    (any::<i32>(), 0u32..8).prop_map(move |(raw, pick)| match (band, pick) {
        (0, _) => raw % (1 << 16),
        (1, _) => raw % (1 << 24),
        (_, 0) => i32::MIN,
        (_, 1) => i32::MAX,
        _ => raw,
    })
}

/// Two equal-length word vectors of 0 to 80 terms from one band.
fn banded_operands() -> impl Strategy<Value = (Vec<Fixed>, Vec<Fixed>)> {
    (0usize..3, 0usize..=80).prop_flat_map(|(band, len)| {
        let words = move || {
            proptest::collection::vec(banded_raw(band), len)
                .prop_map(|raw| raw.into_iter().map(Fixed::from_raw).collect::<Vec<_>>())
        };
        (words(), words())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The MAC kernel is the in-order saturating chain: its value is the
    /// untracked chain's, and it adds one `mul_sat` per product and one
    /// `add_sat` per partial sum that leaves `i32` to a register that
    /// already holds events. The pair form, fed the operands swapped,
    /// agrees, and so do the certified entry and the soft-read entry on a
    /// one-column table, with their magnitudes taken from either operand.
    #[test]
    fn dot_kernel_is_the_saturating_chain((a, b) in banded_operands()) {
        let dirty = NumericStatus {
            add_sat: 3,
            mul_sat: 5,
            quant_clamp: 7,
            ..NumericStatus::default()
        };
        let mut want = dirty;
        let mut expect = Fixed::ZERO;
        for (x, y) in a.iter().zip(&b) {
            let wide = (i64::from(x.raw()) * i64::from(y.raw())) >> 16;
            want.mul_sat += u64::from(i32::try_from(wide).is_err());
            let p = *x * *y;
            want.add_sat += u64::from(expect.raw().checked_add(p.raw()).is_none());
            expect += p;
        }
        let mut got = dirty;
        prop_assert_eq!(dot_tracked(&a, &b, &mut got), expect);
        prop_assert_eq!(got, want);
        let mut got = dirty;
        let pairs = b.iter().copied().zip(a.iter().copied());
        prop_assert_eq!(dot_tracked_pairs(pairs, &mut got), expect);
        prop_assert_eq!(got, want);
        for (sum_of, max_of) in [(&a, &b), (&b, &a)] {
            let (sum, max) = (abs_sum(sum_of), abs_max(max_of));
            let mut got = dirty;
            prop_assert_eq!(dot_certified(&a, &b, sum, max, &mut got), expect);
            prop_assert_eq!(got, want);
            let mut got = dirty;
            let mut out = [Fixed::MAX];
            weighted_rows_certified(&b, &a, sum, max, &mut out, &mut got);
            prop_assert_eq!(out[0], expect);
            prop_assert_eq!(got, want);
        }
    }

    /// Tracked add/sub/mul/div return exactly the untracked values on
    /// arbitrary raw bit patterns.
    #[test]
    fn tracked_ops_bit_identical(a in any::<i32>(), b in any::<i32>()) {
        let (x, y) = (Fixed::from_raw(a), Fixed::from_raw(b));
        let mut st = NumericStatus::default();
        prop_assert_eq!(x.add_tracked(y, &mut st), x.saturating_add(y));
        prop_assert_eq!(x.sub_tracked(y, &mut st), x.saturating_sub(y));
        prop_assert_eq!(x.mul_tracked(y, &mut st), x.saturating_mul(y));
        prop_assert_eq!(x.div_tracked(y, &mut st), x.saturating_div(y));
    }

    /// Tracked quantization returns exactly the untracked conversion for
    /// arbitrary f32 bit patterns (including NaN and ±inf) and any
    /// fractional width.
    #[test]
    fn tracked_quantize_bit_identical(bits in any::<u32>(), frac in 0u32..=30) {
        let x = f32::from_bits(bits);
        let mut st = NumericStatus::default();
        prop_assert_eq!(
            Fixed::from_f32_q_tracked(x, frac, &mut st),
            Fixed::from_f32_q(x, frac)
        );
        prop_assert_eq!(
            Fixed::from_f32_tracked(x, &mut st),
            Fixed::from_f32(x)
        );
    }

    /// Merge is commutative: a ⊕ b == b ⊕ a.
    #[test]
    fn merge_commutative(a in any_status(), b in any_status()) {
        prop_assert_eq!(a.merged(&b), b.merged(&a));
    }

    /// Merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_associative(a in any_status(), b in any_status(), c in any_status()) {
        prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
    }

    /// The identity element is the clean register.
    #[test]
    fn merge_identity(a in any_status()) {
        prop_assert_eq!(a.merged(&NumericStatus::CLEAN), a);
    }

    /// Add/sub events fire exactly when the checked i32 op overflows.
    #[test]
    fn add_sub_events_match_overflow(a in any::<i32>(), b in any::<i32>()) {
        let (x, y) = (Fixed::from_raw(a), Fixed::from_raw(b));
        let mut st = NumericStatus::default();
        let _ = x.add_tracked(y, &mut st);
        prop_assert_eq!(st.add_sat, u64::from(a.checked_add(b).is_none()));
        let _ = x.sub_tracked(y, &mut st);
        prop_assert_eq!(st.sub_sat, u64::from(a.checked_sub(b).is_none()));
    }

    /// Mul events fire exactly when the shifted wide product leaves the
    /// i32 range; div-by-zero fires exactly on a zero divisor.
    #[test]
    fn mul_div_events_match_clamp(a in any::<i32>(), b in any::<i32>()) {
        let (x, y) = (Fixed::from_raw(a), Fixed::from_raw(b));
        let mut st = NumericStatus::default();
        let _ = x.mul_tracked(y, &mut st);
        let shifted = (i64::from(a) * i64::from(b)) >> 16;
        prop_assert_eq!(
            st.mul_sat,
            u64::from(shifted != shifted.clamp(i64::from(i32::MIN), i64::from(i32::MAX)))
        );
        let mut st = NumericStatus::default();
        let _ = x.div_tracked(y, &mut st);
        prop_assert_eq!(st.div_zero, u64::from(b == 0));
    }

    /// Non-finite operands raise `nan_boundary` (never `quant_clamp`);
    /// finite in-range operands raise nothing.
    #[test]
    fn quantize_event_classes_disjoint(bits in any::<u32>()) {
        let x = f32::from_bits(bits);
        let mut st = NumericStatus::default();
        let _ = Fixed::from_f32_tracked(x, &mut st);
        if x.is_finite() {
            prop_assert_eq!(st.nan_boundary, 0);
            if x.abs() <= 32000.0 {
                prop_assert_eq!(st.quant_clamp, 0);
            }
        } else {
            prop_assert_eq!(st.nan_boundary, 1);
            prop_assert_eq!(st.quant_clamp, 0);
        }
    }
}
