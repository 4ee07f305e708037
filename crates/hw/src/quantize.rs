//! Weight quantization onto the fixed-point datapath.

use mann_linalg::{Fixed, NumericStatus};
use memn2n::Params;

/// Returns a copy of `params` with every weight pushed through the
/// `frac_bits` fixed-point grid — the numeric effect of loading the trained
/// model into the accelerator's BRAM. Weights clipped by the grid (or
/// non-finite on arrival) are recorded in `st`.
///
/// # Panics
///
/// Panics if `frac_bits` is 0 or greater than 30.
pub fn quantize_params_tracked(params: &Params, frac_bits: u32, st: &mut NumericStatus) -> Params {
    assert!(
        (1..=30).contains(&frac_bits),
        "frac_bits {frac_bits} outside 1..=30"
    );
    let mut q = params.clone();
    for m in [&mut q.w_emb_a, &mut q.w_emb_c, &mut q.w_r, &mut q.w_o] {
        for x in m.as_mut_slice() {
            *x = Fixed::from_f32_q_tracked(*x, frac_bits, st).to_f32();
        }
    }
    if let Some(g) = &mut q.gru {
        for m in g.matrices_mut() {
            for x in m.as_mut_slice() {
                *x = Fixed::from_f32_q_tracked(*x, frac_bits, st).to_f32();
            }
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use memn2n::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> Params {
        Params::init(
            ModelConfig {
                embed_dim: 6,
                hops: 2,
                tie_embeddings: false,
                ..ModelConfig::default()
            },
            15,
            &mut StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn q16_16_is_nearly_lossless_for_small_weights() {
        let p = params();
        let q = quantize_params_tracked(&p, 16, &mut NumericStatus::default());
        for (a, b) in p.w_o.as_slice().iter().zip(q.w_o.as_slice()) {
            assert!((a - b).abs() <= 1.0 / 65536.0);
        }
    }

    #[test]
    fn narrow_formats_lose_more() {
        let p = params();
        let err = |q: &Params| -> f32 {
            p.w_o
                .as_slice()
                .iter()
                .zip(q.w_o.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max)
        };
        let e16 = err(&quantize_params_tracked(
            &p,
            16,
            &mut NumericStatus::default(),
        ));
        let e8 = err(&quantize_params_tracked(
            &p,
            8,
            &mut NumericStatus::default(),
        ));
        let e4 = err(&quantize_params_tracked(
            &p,
            4,
            &mut NumericStatus::default(),
        ));
        assert!(e16 <= e8 && e8 <= e4, "{e16} {e8} {e4}");
    }

    #[test]
    fn quantization_is_idempotent() {
        let p = params();
        let q1 = quantize_params_tracked(&p, 8, &mut NumericStatus::default());
        let q2 = quantize_params_tracked(&q1, 8, &mut NumericStatus::default());
        assert_eq!(q1, q2);
    }

    #[test]
    #[should_panic(expected = "frac_bits")]
    fn invalid_width_rejected() {
        let _ = quantize_params_tracked(&params(), 0, &mut NumericStatus::default());
    }
}
