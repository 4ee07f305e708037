//! Property tests for the hardware simulator: protocol robustness,
//! functional equivalence with the reference model, timing monotonicity.

use mann_babi::EncodedSample;
use mann_hw::adder_tree::AdderTree;
use mann_hw::modules::{decode_stream, encode_sample_stream, OutputModule, ReadModule};
use mann_hw::sigmoid_unit::SigmoidUnit;
use mann_hw::weight_store::{Operand, WeightStore};
use mann_hw::{
    quantize_params_tracked, AccelConfig, Accelerator, ClockDomain, DatapathConfig, MemIndexConfig,
};
use mann_ith::threshold::ClassThreshold;
use mann_ith::{ExitGuard, HopPrune, Kernel, ThresholdingModel};
use mann_linalg::{Fixed, Matrix, NumericStatus};
use memn2n::{ControllerKind, GruParams, ModelConfig, Params, TrainedModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// Only `stress_value` is used here; the MEM unit tests use the rest.
#[allow(dead_code)]
#[path = "../src/test_support.rs"]
mod test_support;
use test_support::stress_value;

/// A random tiny model + sample pair (untrained weights — equivalence must
/// hold regardless of training).
fn random_case(seed: u64, vocab: usize, e: usize, hops: usize) -> (TrainedModel, EncodedSample) {
    let params = Params::init(
        ModelConfig {
            embed_dim: e,
            hops,
            tie_embeddings: false,
            ..ModelConfig::default()
        },
        vocab,
        &mut StdRng::seed_from_u64(seed),
    );
    let mut r = StdRng::seed_from_u64(seed ^ 0xABCD);
    use rand::Rng;
    let n_sent = r.gen_range(1..6);
    let sentences = (0..n_sent)
        .map(|_| {
            (0..r.gen_range(1..6))
                .map(|_| r.gen_range(0..vocab))
                .collect()
        })
        .collect();
    let question = (0..r.gen_range(1..4))
        .map(|_| r.gen_range(0..vocab))
        .collect();
    let sample = EncodedSample {
        sentences,
        question,
        answer: 0,
    };
    // A TrainedModel needs an encoder; build a dummy vocabulary of the right
    // size.
    let mut v = mann_babi::Vocab::new();
    for i in 0..vocab {
        v.intern(&format!("w{i}"));
    }
    // Vocab::new already holds <pad>; trim logic not needed as long as
    // params.vocab_size == vocab — assert to be safe.
    let model = TrainedModel {
        task: mann_babi::TaskId::SingleSupportingFact,
        params,
        encoder: mann_babi::Encoder::with_time_tokens(v, 0),
    };
    (model, sample)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The CONTROL decoder never panics on arbitrary word soup.
    #[test]
    fn decoder_is_total(words in proptest::collection::vec(any::<u32>(), 0..64)) {
        let _ = decode_stream(&words);
    }

    /// Encode → decode is the identity for any structurally valid sample.
    #[test]
    fn stream_round_trip(
        sents in proptest::collection::vec(proptest::collection::vec(0usize..5000, 1..8), 1..6),
        q in proptest::collection::vec(0usize..5000, 1..5),
    ) {
        let sample = EncodedSample { sentences: sents.clone(), question: q.clone(), answer: 0 };
        let words = encode_sample_stream(&sample);
        let (ds, dq) = decode_stream(&words).expect("well-formed");
        prop_assert_eq!(ds, sents);
        prop_assert_eq!(dq, q);
    }

    /// The fixed-point accelerator agrees with the f32 reference model on
    /// random (untrained) weights in the vast majority of cases, and its
    /// logits pipeline never panics.
    #[test]
    fn hw_sw_equivalence(seed in 0u64..500) {
        let (model, sample) = random_case(seed, 20, 8, 2);
        let accel = Accelerator::new(model.clone(), AccelConfig::default());
        let hw = accel.run(&sample);
        let sw = model.predict(&sample);
        // Random logits can tie closely; require the hw answer to be within
        // quantization slack of the sw winner.
        let trace = memn2n::forward(&model.params, &sample);
        let z_hw = trace.logits[hw.answer];
        let z_sw = trace.logits[sw];
        prop_assert!(z_sw - z_hw < 0.02, "hw {} ({z_hw}) vs sw {} ({z_sw})", hw.answer, z_sw);
    }

    /// More memory slots never make addressing cheaper; higher clock never
    /// makes compute slower.
    #[test]
    fn timing_monotonicity(seed in 0u64..100) {
        let (model, sample) = random_case(seed, 15, 8, 2);
        let mut bigger = sample.clone();
        bigger.sentences.push(vec![1, 2, 3]);
        let accel = Accelerator::new(model, AccelConfig::default());
        let small_run = accel.run(&sample);
        let big_run = accel.run(&bigger);
        prop_assert!(big_run.cycles >= small_run.cycles);
    }

    /// Tree width only affects timing, never the computed answer.
    #[test]
    fn tree_width_is_functionally_transparent(seed in 0u64..100, width in 1usize..32) {
        let (model, sample) = random_case(seed, 12, 8, 1);
        let base = Accelerator::new(model.clone(), AccelConfig::default()).run(&sample);
        let other = Accelerator::new(
            model,
            AccelConfig {
                datapath: DatapathConfig { tree_width: width, ..DatapathConfig::default() },
                ..AccelConfig::default()
            },
        )
        .run(&sample);
        prop_assert_eq!(base.answer, other.answer);
    }

    /// The exit guard is a pure veto on *flagged* exits: on numerically
    /// clean searches (small weights and hidden states, far from
    /// saturation) a guarded search is field-for-field identical to an
    /// unguarded one — for any thresholds and any guard band.
    #[test]
    fn guard_never_changes_clean_answers(
        weights in proptest::collection::vec(-1.0f32..1.0, 12),
        h in proptest::collection::vec(-10.0f32..10.0, 4),
        thetas in proptest::collection::vec(proptest::option::of(-5.0f32..5.0), 3),
        band in 0.0f32..2.0,
    ) {
        let mut w_o = Matrix::zeros(3, 4);
        for (i, w) in weights.iter().enumerate() {
            w_o[(i / 4, i % 4)] = *w;
        }
        let n = thetas.len();
        let ith = ThresholdingModel {
            thresholds: thetas.into_iter().map(|theta| ClassThreshold { theta }).collect(),
            order: (0..n).collect(),
            silhouettes: vec![0.0; n],
            rho: 1.0,
            kernel: Kernel::Epanechnikov,
        };
        let dp = DatapathConfig::default();
        let guarded = OutputModule::new(w_o.clone(), &dp)
            .with_thresholding(&ith, true)
            .with_guard(ExitGuard::with_band(band))
            .search(&h);
        let unguarded = OutputModule::new(w_o, &dp)
            .with_thresholding(&ith, true)
            .with_guard(ExitGuard::off())
            .search(&h);
        prop_assert!(guarded.numeric.is_clean());
        prop_assert_eq!(guarded, unguarded);
    }

    /// Compute seconds scale exactly inversely with frequency.
    #[test]
    fn clock_scaling_is_exact(seed in 0u64..50, mhz in 10.0f64..400.0) {
        let (model, sample) = random_case(seed, 12, 8, 2);
        let base = Accelerator::new(model.clone(), AccelConfig {
            clock: ClockDomain::mhz(100.0), ..AccelConfig::default()
        }).run(&sample);
        let other = Accelerator::new(model, AccelConfig {
            clock: ClockDomain::mhz(mhz), ..AccelConfig::default()
        }).run(&sample);
        prop_assert_eq!(base.cycles, other.cycles);
        let expect = base.compute_s * 100.0 / mhz;
        prop_assert!((other.compute_s - expect).abs() < 1e-9 * expect.max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A disabled pruner is byte-invisible: whatever threshold it carries,
    /// the run is field-for-field identical to the default config's.
    #[test]
    fn disabled_pruning_is_byte_identical(seed in 0u64..100, threshold in 0.05f32..1.0) {
        let (model, sample) = random_case(seed, 15, 8, 2);
        let base = Accelerator::new(model.clone(), AccelConfig::default()).run(&sample);
        let armed_off = Accelerator::new(
            model,
            AccelConfig {
                hop_prune: HopPrune { enabled: false, threshold },
                ..AccelConfig::default()
            },
        )
        .run(&sample);
        prop_assert_eq!(base, armed_off);
    }

    /// Loosening the prune threshold never executes more hops: the
    /// trajectories are identical until the first fire, and a criterion
    /// that fires at `tight` also fires at any looser threshold.
    #[test]
    fn prune_savings_are_monotone_in_threshold(
        seed in 0u64..100,
        lo in 0.05f32..0.9,
        delta in 0.01f32..0.1,
    ) {
        let (model, sample) = random_case(seed, 15, 8, 3);
        let run_at = |threshold: f32| {
            Accelerator::new(
                model.clone(),
                AccelConfig {
                    hop_prune: HopPrune::with_threshold(threshold),
                    ..AccelConfig::default()
                },
            )
            .run(&sample)
        };
        let loose = run_at(lo);
        let tight = run_at((lo + delta).min(1.0));
        prop_assert!(
            loose.hops_saved >= tight.hops_saved,
            "loose saved {} < tight saved {}",
            loose.hops_saved,
            tight.hops_saved
        );
    }

    /// A disabled candidate index is byte-invisible: whatever `k`, `nprobe`
    /// and `band` the config carries, an `enabled: false` run is
    /// field-for-field identical to the default config's.
    #[test]
    fn disabled_index_is_byte_identical(
        seed in 0u64..100,
        k in 1usize..32,
        probe_frac in 1usize..32,
        band in 0.0f32..4.0,
    ) {
        let (model, sample) = random_case(seed, 15, 8, 2);
        let base = Accelerator::new(model.clone(), AccelConfig::default()).run(&sample);
        let armed_off = Accelerator::new(
            model,
            AccelConfig {
                mem_index: MemIndexConfig {
                    enabled: false,
                    k,
                    nprobe: probe_frac.min(k),
                    band,
                },
                ..AccelConfig::default()
            },
        )
        .run(&sample);
        prop_assert_eq!(base, armed_off);
    }

    /// Widening the fallback band never skips more slots and never loses
    /// argmax agreement with the exact oracle: a hop that falls back at a
    /// narrow band also falls back at any wider one, and a fallback hop is
    /// bit-identical to the exact pass. Single-hop runs isolate the
    /// per-hop property (after a differing fallback decision, later hops
    /// of a multi-hop run see different keys and are incomparable).
    #[test]
    fn wider_band_is_monotone_in_scans_and_agreement(
        seed in 0u64..80,
        narrow in 0.0f32..2.0,
        delta in 0.0f32..8.0,
    ) {
        let (model, sample) = random_case(seed, 15, 8, 1);
        let exact = Accelerator::new(model.clone(), AccelConfig::default()).run(&sample);
        let run_at = |band: f32| {
            Accelerator::new(
                model.clone(),
                AccelConfig {
                    mem_index: MemIndexConfig::with_params(4, 2, band),
                    ..AccelConfig::default()
                },
            )
            .run(&sample)
        };
        let tight = run_at(narrow);
        let wide = run_at(narrow + delta);
        prop_assert!(
            wide.index.scanned_slots >= tight.index.scanned_slots,
            "wider band scanned {} < {}",
            wide.index.scanned_slots,
            tight.index.scanned_slots
        );
        prop_assert!(wide.index.skipped_slots <= tight.index.skipped_slots);
        prop_assert!(wide.index.fallbacks >= tight.index.fallbacks);
        // Agreement never decreases: if the tight run matched the oracle,
        // the wide run (same candidates, more fallbacks) must too.
        if tight.answer == exact.answer {
            prop_assert_eq!(wide.answer, exact.answer);
        }
    }

    /// The index counters partition the memory: every hop accounts each
    /// slot as scanned or skipped, exactly once.
    #[test]
    fn index_counters_partition_the_memory(
        seed in 0u64..100,
        k in 1usize..16,
        band in 0.0f32..2.0,
    ) {
        let (model, sample) = random_case(seed, 15, 8, 2);
        let run = Accelerator::new(
            model,
            AccelConfig {
                mem_index: MemIndexConfig::with_params(k, 1.max(k / 2), band),
                ..AccelConfig::default()
            },
        )
        .run(&sample);
        let slots = sample.sentences.len() as u64;
        prop_assert_eq!(
            run.index.scanned_slots + run.index.skipped_slots,
            slots * run.hops_executed as u64,
            "scanned {} + skipped {} != {} slots x {} hops",
            run.index.scanned_slots,
            run.index.skipped_slots,
            slots,
            run.hops_executed
        );
        prop_assert!(run.index.fallbacks <= run.hops_executed as u64);
        prop_assert!(run.index.build_cycles > 0);
    }

    /// Batched shared-story querying is bit-identical to querying one at a
    /// time, for any group size and any pruning threshold.
    #[test]
    fn batched_queries_are_bit_identical(seed in 0u64..60, threshold in 0.05f32..1.0) {
        let (model, sample) = random_case(seed, 15, 8, 2);
        // Same story, three different questions.
        let mut q2 = sample.clone();
        q2.question.rotate_left(1);
        q2.question.push(1);
        let mut q3 = sample.clone();
        q3.question = vec![2, 3];
        let accel = Accelerator::new(
            model,
            AccelConfig {
                hop_prune: HopPrune::with_threshold(threshold),
                ..AccelConfig::default()
            },
        );
        let story = accel.write_story(&sample);
        let batch = [&sample, &q2, &q3];
        let (runs, _) = accel.query_batch(&story, &batch);
        prop_assert_eq!(runs.len(), batch.len());
        for (run, s) in runs.iter().zip(batch) {
            prop_assert_eq!(run, &accel.answer_query(&story, s));
        }
    }
}

/// The datapath widths the load quantizer is exercised at.
fn frac_bits() -> impl Strategy<Value = u32> {
    (0usize..3).prop_map(|i| [8, 12, 16][i])
}

/// A model whose READ and OUTPUT weights are overwritten with `values`
/// (cycled), then pushed through the BRAM load quantizer at `frac_bits`.
fn stressed_params(
    controller: ControllerKind,
    e: usize,
    classes: usize,
    values: &[f32],
    frac_bits: u32,
) -> Params {
    let mut p = Params::init(
        ModelConfig {
            embed_dim: e,
            hops: 1,
            tie_embeddings: false,
            controller,
        },
        classes,
        &mut StdRng::seed_from_u64(7),
    );
    let mut fill = values.iter().cycle();
    let mut weights = vec![&mut p.w_r, &mut p.w_o];
    if let Some(g) = &mut p.gru {
        weights.extend(g.matrices_mut());
    }
    for m in weights {
        for x in m.as_mut_slice() {
            *x = *fill.next().expect("non-empty values");
        }
    }
    quantize_params_tracked(&p, frac_bits, &mut NumericStatus::default())
}

/// The linear READ step with every dot product through
/// `AdderTree::fixed_dot_tracked`, which re-quantizes per access.
fn oracle_linear_step(w_r: &Matrix, r: &[f32], k: &[f32], st: &mut NumericStatus) -> Vec<f32> {
    let tree = AdderTree::default();
    w_r.iter_rows()
        .zip(r)
        .map(|(row, &rv)| {
            let (wk, _) = tree.fixed_dot_tracked(row, k, st);
            Fixed::from_f32_tracked(rv, st).add_tracked(wk, st).to_f32()
        })
        .collect()
}

/// The GRU READ step with every dot product through
/// `AdderTree::fixed_dot_tracked`.
fn oracle_gru_step(g: &GruParams, r: &[f32], k: &[f32], st: &mut NumericStatus) -> Vec<f32> {
    let tree = AdderTree::default();
    let sigmoid = SigmoidUnit::new(&DatapathConfig::default());
    let gate = |w: &Matrix, u: &Matrix, x_u: &[f32], st: &mut NumericStatus| -> Vec<f32> {
        let wr: Vec<f32> = w
            .iter_rows()
            .map(|row| tree.fixed_dot_tracked(row, r, st).0.to_f32())
            .collect();
        let ux: Vec<f32> = u
            .iter_rows()
            .map(|row| tree.fixed_dot_tracked(row, x_u, st).0.to_f32())
            .collect();
        wr.iter().zip(ux).map(|(a, b)| a + b).collect()
    };
    let az = gate(&g.w_z, &g.u_z, k, st);
    let ag = gate(&g.w_g, &g.u_g, k, st);
    let (z, _) = sigmoid.sigmoid_batch_tracked(&az, st);
    let (reset, _) = sigmoid.sigmoid_batch_tracked(&ag, st);
    let gk: Vec<f32> = reset
        .iter()
        .zip(k)
        .map(|(gv, &kv)| gv.mul_tracked(Fixed::from_f32_tracked(kv, st), st).to_f32())
        .collect();
    let ah = gate(&g.w_h, &g.u_h, &gk, st);
    let (ht, _) = sigmoid.tanh_batch_tracked(&ah, st);
    z.iter()
        .zip(k)
        .zip(ht)
        .map(|((zv, &kv), hv)| {
            Fixed::ONE
                .sub_tracked(*zv, st)
                .mul_tracked(Fixed::from_f32_tracked(kv, st), st)
                .add_tracked(zv.mul_tracked(hv, st), st)
                .to_f32()
        })
        .collect()
}

/// The exhaustive OUTPUT search over `fixed_dot_tracked`: argmax label and
/// the merged status of every logit.
fn oracle_search(w_o: &Matrix, h: &[f32]) -> (usize, NumericStatus) {
    let tree = AdderTree::default();
    let mut st = NumericStatus::default();
    let (mut best, mut best_z) = (0, Fixed::MIN);
    for (class, row) in w_o.iter_rows().enumerate() {
        let (z, _) = tree.fixed_dot_tracked(row, h, &mut st);
        if z > best_z {
            best_z = z;
            best = class;
        }
    }
    (best, st)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every row of a quantized store dots to the value and numeric status
    /// of the per-access `fixed_dot_tracked` over the stored `f32` row.
    #[test]
    fn weight_store_dot_matches_fixed_dot(
        e in 1usize..7,
        classes in 1usize..9,
        frac_bits in frac_bits(),
        values in proptest::collection::vec(stress_value(), 1..48),
        x in proptest::collection::vec(stress_value(), 6),
    ) {
        let q = stressed_params(ControllerKind::Linear, e, classes, &values, frac_bits);
        let x = &x[..e];
        let operand = Operand::new(x);
        for m in [&q.w_r, &q.w_o] {
            let store = WeightStore::new(m);
            for (r, row) in m.iter_rows().enumerate() {
                let mut got = NumericStatus::default();
                let mut want = NumericStatus::default();
                let z = store.dot_tracked(r, &operand, &mut got);
                let (expect, _) = AdderTree::default().fixed_dot_tracked(row, x, &mut want);
                prop_assert_eq!(z, expect);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Linear and GRU controller steps equal the per-access dot-product
    /// loop in every output bit and every numeric counter.
    #[test]
    fn read_step_matches_fixed_dot_loop(
        gru in any::<bool>(),
        e in 1usize..7,
        frac_bits in frac_bits(),
        values in proptest::collection::vec(stress_value(), 1..48),
        r in proptest::collection::vec(stress_value(), 6),
        k in proptest::collection::vec(stress_value(), 6),
    ) {
        let controller = if gru { ControllerKind::Gru } else { ControllerKind::Linear };
        let q = stressed_params(controller, e, 3, &values, frac_bits);
        let (r, k) = (&r[..e], &k[..e]);
        let dp = DatapathConfig::default();
        let mut want = NumericStatus::default();
        let (module, expect) = match &q.gru {
            Some(g) => (
                ReadModule::new_gru(g.clone(), &dp),
                oracle_gru_step(g, r, k, &mut want),
            ),
            None => (
                ReadModule::new(q.w_r.clone(), &dp),
                oracle_linear_step(&q.w_r, r, k, &mut want),
            ),
        };
        let mut h = Vec::new();
        let mut got = NumericStatus::default();
        module.step_into_tracked(r, k, &mut h, &mut got);
        prop_assert_eq!(bits(&h), bits(&expect));
        prop_assert_eq!(got, want);
    }

    /// The exhaustive OUTPUT search, alone and batched, equals an argmax
    /// over per-access dot products, numeric status included. So does a
    /// thresholded search whose plan never fires, which accumulates through
    /// the per-logit registers the exit guard reads.
    #[test]
    fn output_search_matches_fixed_dot_loop(
        e in 1usize..7,
        classes in 1usize..9,
        frac_bits in frac_bits(),
        values in proptest::collection::vec(stress_value(), 1..48),
        hs in proptest::collection::vec(proptest::collection::vec(stress_value(), 6), 1..4),
    ) {
        let q = stressed_params(ControllerKind::Linear, e, classes, &values, frac_bits);
        let dp = DatapathConfig::default();
        let module = OutputModule::new(q.w_o.clone(), &dp);
        let never_fires = ThresholdingModel {
            thresholds: vec![ClassThreshold { theta: None }; classes],
            order: (0..classes).collect(),
            silhouettes: vec![0.0; classes],
            rho: 1.0,
            kernel: Kernel::Epanechnikov,
        };
        let probed = OutputModule::new(q.w_o.clone(), &dp).with_thresholding(&never_fires, true);
        let hs: Vec<&[f32]> = hs.iter().map(|h| &h[..e]).collect();
        let batch = module.search_batch(&hs);
        for (h, batched) in hs.iter().zip(&batch) {
            let (label, numeric) = oracle_search(&q.w_o, h);
            let single = module.search(h);
            prop_assert_eq!(single.label, label);
            prop_assert_eq!(single.comparisons, classes);
            prop_assert_eq!(single.numeric, numeric);
            prop_assert_eq!(batched, &single);
            let via_plan = probed.search(h);
            prop_assert_eq!((via_plan.label, via_plan.numeric), (label, numeric));
        }
    }
}
