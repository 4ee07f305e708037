//! Stress strategies and `f32` hand-offs shared by the unit tests of the
//! MEM datapath and by `tests/proptests.rs`, which includes this file with
//! `#[path]` (and imports `mann_hw::modules` at its root, so
//! `crate::modules` resolves in both).

use mann_linalg::{Fixed, NumericStatus};
use proptest::collection::vec;
use proptest::prelude::*;

use crate::modules::MemModule;

/// Words of `f32` values, each through [`Fixed::from_f32`]: the quantizer
/// an `f32` hand-off between two modules met. On a value that is some
/// word's `to_f32`, as every hand-off value is, a word entry fed these
/// words equals quantizing the `f32` at the entry, in value and events,
/// because the entry's [`Fixed::requant`] is that quantizer.
pub fn quantized(v: &[f32]) -> Vec<Fixed> {
    v.iter().map(|&x| Fixed::from_f32(x)).collect()
}

/// Writes one sentence's `f32` address and content rows into the next MEM
/// slot: [`quantized`], then stored through the word write port, which
/// records its events in `st`. Re-quantizing a quantized word moves no
/// value, so the stored words are the rows' quantized words.
///
/// # Panics
///
/// Panics if a row's width differs from the memory's.
pub fn write_f32_rows(m: &mut MemModule, addr: &[f32], content: &[f32], st: &mut NumericStatus) {
    m.write_embedded_tracked(st, |a, c, _| {
        a.copy_from_slice(&quantized(addr));
        c.copy_from_slice(&quantized(content));
    });
}

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

/// Q16.16 words for the word-path equivalence tests: ordinary values, any
/// raw word (almost all beyond `2^24`, where `to_f32` rounds), the rails,
/// and the edges of the range `f32` holds exactly.
pub fn stress_word() -> impl Strategy<Value = Fixed> {
    const EDGES: [i32; 8] = [
        i32::MAX,
        i32::MIN,
        i32::MAX - 1,
        i32::MIN + 1,
        1 << 24,
        -(1 << 24),
        (1 << 24) + 1,
        -(1 << 24) - 1,
    ];
    (0usize..20, -(4i32 << 16)..(4 << 16), any::<i32>()).prop_map(|(pick, small, raw)| {
        Fixed::from_raw(match pick {
            0..=7 => small,
            8..=11 => raw,
            _ => EDGES[pick - 12],
        })
    })
}

/// `len` words, either all tame (`|x| < 4`) or all from [`stress_word`].
pub fn stress_words(len: usize) -> impl Strategy<Value = Vec<Fixed>> {
    (
        any::<bool>(),
        vec(-(4i32 << 16)..(4 << 16), len),
        vec(stress_word(), len),
    )
        .prop_map(|(tame, small, stress)| {
            if tame {
                small.into_iter().map(Fixed::from_raw).collect()
            } else {
                stress
            }
        })
}
