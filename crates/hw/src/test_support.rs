//! Stress strategies shared by the unit tests of the MEM datapath and by
//! `tests/proptests.rs`, which includes this file with `#[path]`.

use proptest::collection::vec;
use proptest::prelude::*;

/// Weights and operands for the quantized-store equivalence tests: mostly
/// ordinary values, plus non-finite and out-of-range ones. Through the load
/// quantizer, +∞, `f32::MAX` and large finite weights land on the positive
/// rail, which clips again on every re-quantization.
pub fn stress_value() -> impl Strategy<Value = f32> {
    const SPECIAL: [f32; 7] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        -f32::MAX,
        32768.0,
        -32768.0,
    ];
    (0usize..18, -4.0f32..4.0, -1.0e6f32..1.0e6).prop_map(|(pick, small, large)| match pick {
        0..=8 => small,
        9..=10 => large,
        _ => SPECIAL[pick - 11],
    })
}

/// `len` values, either all tame (`|x| < 4`) or all from
/// [`stress_value`], so that some dot products over them saturate and some
/// do not.
pub fn stress_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    (
        any::<bool>(),
        vec(-4.0f32..4.0, len),
        vec(stress_value(), len),
    )
        .prop_map(|(tame, small, stress)| if tame { small } else { stress })
}
