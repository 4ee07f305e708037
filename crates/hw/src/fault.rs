//! Single-event-upset (SEU) fault injection.
//!
//! FPGA block RAM is susceptible to radiation-induced bit flips, and
//! accelerator papers routinely characterize how gracefully inference
//! degrades. This module flips random bits in the *quantized* weight words
//! (the Q16.16 BRAM image the accelerator actually holds) so the SEU
//! ablation can sweep upset counts against answer accuracy.

use mann_linalg::{Fixed, Matrix};
use memn2n::Params;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64-style mixer over `(seed, a, b)` — the deterministic decision
/// function behind runtime fault injection. Unlike a stateful RNG, the
/// outcome depends only on the identifiers, never on how many decisions
/// were drawn before it, so an event loop asking "does transfer `a` corrupt
/// on attempt `b`?" gets the same answer regardless of event interleaving
/// — the property that keeps fault campaigns byte-identical across thread
/// counts.
pub fn fault_mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic biased coin built on [`fault_mix`]: true with probability
/// `prob` over the identifier space. `prob <= 0` never fires and
/// `prob >= 1` (or NaN-free garbage above 1) always fires.
pub fn fault_coin(prob: f64, seed: u64, a: u64, b: u64) -> bool {
    if prob.is_nan() || prob <= 0.0 {
        return false;
    }
    if prob >= 1.0 {
        return true;
    }
    // 53-bit uniform in [0, 1).
    let u = (fault_mix(seed, a, b) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < prob
}

/// Domain constant separating per-shard fault streams from every other
/// consumer of a campaign seed (ASCII "shard").
const STREAM_SHARD: u64 = 0x0073_6861_7264;

/// Derives one cluster shard's fault-campaign seed from the cluster-level
/// campaign seed. Built on [`fault_mix`], so a shard's plan is a pure
/// function of `(campaign seed, shard)`: serving shards in a different
/// order, adding shards, or re-running a replica pass never changes which
/// faults a given shard injects. Callers with multiple dispatch passes per
/// shard pack the pass index into the high bits of `shard`.
pub fn shard_fault_seed(seed: u64, shard: u64) -> u64 {
    fault_mix(seed ^ STREAM_SHARD, shard, 0)
}

/// Where an injected upset landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpsetSite {
    /// Which weight memory (index into the flattened weight list:
    /// 0 = address embedding, 1 = content embedding, 2 = controller,
    /// 3 = output, 4.. = GRU gates).
    pub memory: usize,
    /// Flat element index within that memory.
    pub element: usize,
    /// Flipped bit position (0 = LSB of the Q16.16 word).
    pub bit: u32,
}

/// Flips `upsets` uniformly random bits across the model's weight BRAMs,
/// returning the faulted parameters and the injected sites.
///
/// Injection happens in the fixed-point domain: each selected weight is
/// quantized to its Q16.16 word, one bit is flipped, and the word is
/// converted back — exactly the corruption a BRAM upset produces.
///
/// # Panics
///
/// Panics if the model has no weights (impossible for a valid [`Params`]).
pub fn inject_upsets(params: &Params, upsets: usize, seed: u64) -> (Params, Vec<UpsetSite>) {
    inject_upsets_in_bits(params, upsets, 0..32, seed)
}

/// Like [`inject_upsets`], restricted to bit positions in `bits` — lets the
/// SEU ablation separate fractional-bit upsets (bounded noise) from
/// integer/sign-bit upsets (catastrophic weight corruption).
///
/// # Panics
///
/// Panics if `bits` is empty or reaches past bit 31.
pub fn inject_upsets_in_bits(
    params: &Params,
    upsets: usize,
    bits: std::ops::Range<u32>,
    seed: u64,
) -> (Params, Vec<UpsetSite>) {
    assert!(
        !bits.is_empty() && bits.end <= 32,
        "invalid bit range {bits:?}"
    );
    let mut faulted = params.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sites = Vec::with_capacity(upsets);

    // Collect mutable views of every weight memory.
    let mut memories: Vec<&mut Matrix> = vec![
        &mut faulted.w_emb_a,
        &mut faulted.w_emb_c,
        &mut faulted.w_r,
        &mut faulted.w_o,
    ];
    if let Some(g) = &mut faulted.gru {
        memories.extend(g.matrices_mut());
    }
    let sizes: Vec<usize> = memories.iter().map(|m| m.as_slice().len()).collect();
    let total: usize = sizes.iter().sum();
    assert!(total > 0, "model has no weights");

    for _ in 0..upsets {
        let mut flat = rng.gen_range(0..total);
        let mut memory = 0usize;
        while flat >= sizes[memory] {
            flat -= sizes[memory];
            memory += 1;
        }
        let bit = rng.gen_range(bits.clone());
        let slot = &mut memories[memory].as_mut_slice()[flat];
        let word = Fixed::from_f32(*slot).raw();
        *slot = Fixed::from_raw(word ^ (1 << bit)).to_f32();
        sites.push(UpsetSite {
            memory,
            element: flat,
            bit,
        });
    }
    (faulted, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memn2n::ModelConfig;

    fn params() -> Params {
        Params::init(
            ModelConfig {
                embed_dim: 8,
                hops: 2,
                tie_embeddings: false,
                ..ModelConfig::default()
            },
            20,
            &mut StdRng::seed_from_u64(2),
        )
    }

    #[test]
    fn fault_mix_is_deterministic_and_sensitive() {
        assert_eq!(fault_mix(1, 2, 3), fault_mix(1, 2, 3));
        assert_ne!(fault_mix(1, 2, 3), fault_mix(1, 2, 4));
        assert_ne!(fault_mix(1, 2, 3), fault_mix(1, 3, 3));
        assert_ne!(fault_mix(1, 2, 3), fault_mix(2, 2, 3));
    }

    #[test]
    fn fault_coin_edges_and_frequency() {
        for a in 0..64 {
            assert!(!fault_coin(0.0, 7, a, 0));
            assert!(!fault_coin(-1.0, 7, a, 0));
            assert!(!fault_coin(f64::NAN, 7, a, 0));
            assert!(fault_coin(1.0, 7, a, 0));
        }
        // Empirical rate over 10k identifiers lands near the target prob.
        let fires = (0..10_000).filter(|&a| fault_coin(0.25, 9, a, 1)).count();
        assert!((2_200..2_800).contains(&fires), "rate {fires}/10000");
    }

    #[test]
    fn shard_fault_seed_is_deterministic_and_shard_pure() {
        assert_eq!(shard_fault_seed(5, 0), shard_fault_seed(5, 0));
        // Distinct shards draw distinct streams from the same campaign.
        assert_ne!(shard_fault_seed(5, 0), shard_fault_seed(5, 1));
        assert_ne!(shard_fault_seed(5, 1), shard_fault_seed(5, 2));
        // A shard's stream follows the campaign seed.
        assert_ne!(shard_fault_seed(5, 0), shard_fault_seed(6, 0));
        // Domain separation: never the raw seed, and never the plain mix a
        // non-shard consumer would draw.
        assert_ne!(shard_fault_seed(5, 0), 5);
        assert_ne!(shard_fault_seed(5, 3), fault_mix(5, 3, 0));
        // Replica passes (packed into the high bits) get their own stream.
        assert_ne!(shard_fault_seed(5, 2), shard_fault_seed(5, (1 << 32) | 2));
    }

    #[test]
    fn zero_upsets_is_identity() {
        let p = params();
        let (f, sites) = inject_upsets(&p, 0, 7);
        assert_eq!(p, f);
        assert!(sites.is_empty());
    }

    #[test]
    fn each_upset_changes_exactly_one_word() {
        let p = params();
        let (f, sites) = inject_upsets(&p, 1, 9);
        assert_eq!(sites.len(), 1);
        let diff = |a: &Matrix, b: &Matrix| -> usize {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .filter(|(x, y)| x != y)
                .count()
        };
        let total_diffs = diff(&p.w_emb_a, &f.w_emb_a)
            + diff(&p.w_emb_c, &f.w_emb_c)
            + diff(&p.w_r, &f.w_r)
            + diff(&p.w_o, &f.w_o);
        assert_eq!(total_diffs, 1);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let p = params();
        let (a, sa) = inject_upsets(&p, 16, 42);
        let (b, sb) = inject_upsets(&p, 16, 42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = inject_upsets(&p, 16, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn high_bit_flips_perturb_more_than_low_bits() {
        // Flip the sign bit vs the LSB of the same element and compare the
        // magnitude of the change.
        let p = params();
        let base = p.w_o[(0, 0)];
        let word = Fixed::from_f32(base).raw();
        let lsb = Fixed::from_raw(word ^ 1).to_f32();
        let msb = Fixed::from_raw(word ^ (1 << 31)).to_f32();
        assert!((msb - base).abs() > (lsb - base).abs());
        assert!((lsb - base).abs() <= 2.0 / 65536.0);
    }

    #[test]
    fn bit_range_is_respected() {
        let p = params();
        let (_, sites) = inject_upsets_in_bits(&p, 200, 0..8, 5);
        assert!(sites.iter().all(|s| s.bit < 8));
        let (_, high) = inject_upsets_in_bits(&p, 200, 24..32, 5);
        assert!(high.iter().all(|s| (24..32).contains(&s.bit)));
    }

    #[test]
    #[should_panic(expected = "invalid bit range")]
    fn empty_bit_range_rejected() {
        let p = params();
        let _ = inject_upsets_in_bits(&p, 1, 8..8, 1);
    }

    #[test]
    fn gru_weights_are_injectable() {
        let cfg = ModelConfig {
            embed_dim: 6,
            hops: 1,
            tie_embeddings: false,
            controller: memn2n::ControllerKind::Gru,
        };
        let p = Params::init(cfg, 12, &mut StdRng::seed_from_u64(3));
        // With enough upsets, at least one must land in a GRU gate
        // (memory index >= 4).
        let (_, sites) = inject_upsets(&p, 500, 11);
        assert!(sites.iter().any(|s| s.memory >= 4));
    }
}
