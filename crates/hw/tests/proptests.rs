//! Property tests for the hardware simulator: protocol robustness,
//! functional equivalence with the reference model, timing monotonicity.

use mann_babi::EncodedSample;
use mann_hw::adder_tree::AdderTree;
// `modules` itself too: `test_support` names `crate::modules::MemModule`.
use mann_hw::modules::{
    self, decode_stream, encode_sample_stream, InputWriteModule, MemModule, OutputModule,
    ReadModule,
};
use mann_hw::sigmoid_unit::SigmoidUnit;
use mann_hw::weight_store::{Operand, WeightStore};
use mann_hw::{
    quantize_params_tracked, AccelConfig, Accelerator, ClockDomain, DatapathConfig, MemIndexConfig,
};
use mann_ith::threshold::ClassThreshold;
use mann_ith::{ExitGuard, HopPrune, Kernel, ThresholdingModel};
use mann_linalg::{fixed, Fixed, Matrix, NumericStatus};
use memn2n::{ControllerKind, GruParams, ModelConfig, Params, TrainedModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// `stress_vec` is used by the MEM unit tests only.
#[allow(dead_code)]
#[path = "../src/test_support.rs"]
mod test_support;
use test_support::{quantized, stress_value, stress_word, stress_words, write_f32_rows};

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
        let h = quantized(&h);
        let guarded = OutputModule::new(w_o.clone(), &dp)
            .with_thresholding(&ith, true)
            .with_guard(ExitGuard::with_band(band))
            .search_words(&h);
        let unguarded = OutputModule::new(w_o, &dp)
            .with_thresholding(&ith, true)
            .with_guard(ExitGuard::off())
            .search_words(&h);
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
fn oracle_linear_step(w_r: &Matrix, r: &[f32], k: &[f32], st: &mut NumericStatus) -> Vec<Fixed> {
    let tree = AdderTree::default();
    w_r.iter_rows()
        .zip(r)
        .map(|(row, &rv)| {
            let (wk, _) = tree.fixed_dot_tracked(row, k, st);
            Fixed::from_f32_tracked(rv, st).add_tracked(wk, st)
        })
        .collect()
}

/// The GRU READ step with every dot product through
/// `AdderTree::fixed_dot_tracked`.
fn oracle_gru_step(g: &GruParams, r: &[f32], k: &[f32], st: &mut NumericStatus) -> Vec<Fixed> {
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

/// The `f32` a word hands over: each word's `to_f32`.
fn to_f32(v: &[Fixed]) -> Vec<f32> {
    v.iter().map(|w| w.to_f32()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every row of a quantized store dots an operand of words to the value
    /// and numeric status of the per-access `fixed_dot_tracked` over the
    /// stored `f32` row and the words' `to_f32`, on words beyond `2^24`
    /// and on the rails.
    #[test]
    fn weight_store_dot_matches_fixed_dot(
        e in 1usize..7,
        classes in 1usize..9,
        frac_bits in frac_bits(),
        values in proptest::collection::vec(stress_value(), 1..48),
        x in stress_words(6),
    ) {
        let q = stressed_params(ControllerKind::Linear, e, classes, &values, frac_bits);
        let x = &x[..e];
        let operand = Operand::from_words(x);
        for m in [&q.w_r, &q.w_o] {
            let store = WeightStore::new(m);
            for (r, row) in m.iter_rows().enumerate() {
                let mut got = NumericStatus::default();
                let mut want = NumericStatus::default();
                let z = store.dot_tracked(r, &operand, &mut got);
                let (expect, _) = AdderTree::default().fixed_dot_tracked(row, &to_f32(x), &mut want);
                prop_assert_eq!(z, expect);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Linear and GRU controller steps on words equal the per-access
    /// dot-product loop fed the words' `to_f32`, in every output word and
    /// every numeric counter.
    #[test]
    fn read_step_matches_fixed_dot_loop(
        gru in any::<bool>(),
        e in 1usize..7,
        frac_bits in frac_bits(),
        values in proptest::collection::vec(stress_value(), 1..48),
        r in stress_words(6),
        k in stress_words(6),
    ) {
        let controller = if gru { ControllerKind::Gru } else { ControllerKind::Linear };
        let q = stressed_params(controller, e, 3, &values, frac_bits);
        let (r, k) = (&r[..e], &k[..e]);
        let dp = DatapathConfig::default();
        let mut want = NumericStatus::default();
        let (module, expect) = match &q.gru {
            Some(g) => (
                ReadModule::new_gru(g.clone(), &dp),
                oracle_gru_step(g, &to_f32(r), &to_f32(k), &mut want),
            ),
            None => (
                ReadModule::new(q.w_r.clone(), &dp),
                oracle_linear_step(&q.w_r, &to_f32(r), &to_f32(k), &mut want),
            ),
        };
        let mut h = Vec::new();
        let mut got = NumericStatus::default();
        module.step_words_tracked(r, k, &mut h, &mut got);
        prop_assert_eq!(h, expect);
        prop_assert_eq!(got, want);
    }

    /// The exhaustive OUTPUT search on words, alone and batched, equals an
    /// argmax over per-access dot products fed the words' `to_f32`, numeric
    /// status included. So does a thresholded search whose plan never
    /// fires, which accumulates through the per-logit registers the exit
    /// guard reads. Under a plan that may fire, the batched search equals
    /// the per-query searches.
    #[test]
    fn output_search_matches_fixed_dot_loop(
        e in 1usize..7,
        classes in 1usize..9,
        frac_bits in frac_bits(),
        values in proptest::collection::vec(stress_value(), 1..48),
        hs in proptest::collection::vec(stress_words(6), 1..4),
        thetas in proptest::collection::vec(proptest::option::of(-4.0f32..4.0), 8),
    ) {
        let q = stressed_params(ControllerKind::Linear, e, classes, &values, frac_bits);
        let dp = DatapathConfig::default();
        let module = OutputModule::new(q.w_o.clone(), &dp);
        let plan = |thetas: &[Option<f32>], order: Vec<usize>| ThresholdingModel {
            thresholds: thetas.iter().map(|&theta| ClassThreshold { theta }).collect(),
            order,
            silhouettes: vec![0.0; classes],
            rho: 1.0,
            kernel: Kernel::Epanechnikov,
        };
        let never_fires = plan(&vec![None; classes], (0..classes).collect());
        let probed = OutputModule::new(q.w_o.clone(), &dp).with_thresholding(&never_fires, true);
        let may_fire = plan(&thetas[..classes], (0..classes).rev().collect());
        let thresholded = OutputModule::new(q.w_o.clone(), &dp).with_thresholding(&may_fire, true);
        let hs: Vec<&[Fixed]> = hs.iter().map(|h| &h[..e]).collect();
        let batch = module.search_batch(&hs);
        for (h, batched) in hs.iter().zip(&batch) {
            let (label, numeric) = oracle_search(&q.w_o, &to_f32(h));
            let single = module.search_words(h);
            prop_assert_eq!(single.label, label);
            prop_assert_eq!(single.comparisons, classes);
            prop_assert_eq!(single.numeric, numeric);
            prop_assert_eq!(batched, &single);
            let via_plan = probed.search_words(h);
            prop_assert_eq!((via_plan.label, via_plan.numeric), (label, numeric));
        }
        let per_query: Vec<_> = hs.iter().map(|h| thresholded.search_words(h)).collect();
        prop_assert_eq!(thresholded.search_batch(&hs), per_query);
    }
}

#[test]
fn requant_is_pinned_at_the_exact_range_and_the_rails() {
    let exact = 1 << 24;
    for raw in [0, 1, -1, exact, -exact, exact - 1, -exact + 1] {
        let mut st = NumericStatus::default();
        assert_eq!(Fixed::from_raw(raw).requant(&mut st), Fixed::from_raw(raw));
        assert!(st.is_clean(), "{raw}");
    }
    // Past 2^24 a word rounds to 24 significant bits: 2^24 + 1 ties to the
    // even 2^24, 2^24 + 3 to 2^24 + 4.
    for (raw, want) in [
        (exact + 1, exact),
        (-exact - 1, -exact),
        (exact + 3, exact + 4),
        (i32::MIN, i32::MIN),
    ] {
        let mut st = NumericStatus::default();
        assert_eq!(Fixed::from_raw(raw).requant(&mut st), Fixed::from_raw(want));
        assert!(st.is_clean(), "{raw}");
    }
    // `i32::MAX` rounds up to 2^31 in `f32` and clips back.
    let mut st = NumericStatus::default();
    assert_eq!(Fixed::MAX.requant(&mut st), Fixed::MAX);
    assert_eq!(
        st,
        NumericStatus {
            quant_clamp: 1,
            ..NumericStatus::default()
        }
    );
}

#[test]
fn embedding_certificate_edge_is_exact() {
    assert!(fixed::sum_certifies(1, i32::MAX as u64));
    assert!(!fixed::sum_certifies(1, i32::MAX as u64 + 1));
    assert!(!fixed::sum_certifies(2, 1 << 30));
    assert!(fixed::sum_certifies(2, (1 << 30) - 1));
    assert!(!fixed::sum_certifies(usize::MAX, u64::MAX));
    // Word 0 holds the rail, word 1 holds 2^30 (16384.0) in every row.
    let mut emb = Matrix::zeros(3, 2);
    for r in 0..3 {
        emb[(r, 0)] = f32::MAX;
        emb[(r, 1)] = 16384.0;
    }
    let module = InputWriteModule::new(emb.clone(), emb);
    let chain = |words: &[usize], st: &mut NumericStatus| -> Vec<Fixed> {
        let col = |w: usize| {
            if w == 0 {
                Fixed::MAX
            } else {
                Fixed::from_raw(1 << 30)
            }
        };
        (0..3)
            .map(|_| {
                words
                    .iter()
                    .fold(Fixed::ZERO, |acc, &w| acc.add_tracked(col(w), st))
            })
            .collect()
    };
    // One rail word: a bound of exactly `i32::MAX`, summed by plain adds.
    // Two 2^30 words: one past it, the chain saturates each element.
    for (words, saturations) in [(vec![0], 0), (vec![1], 0), (vec![1, 1], 3), (vec![0, 1], 3)] {
        let mut want_st = NumericStatus::default();
        let want = chain(&words, &mut want_st);
        assert_eq!(want_st.add_sat, saturations);
        let (mut a, mut c) = (vec![Fixed::ONE; 3], vec![Fixed::ONE; 3]);
        let mut st = NumericStatus::default();
        module.embed_sentence_tracked(&words, &mut a, &mut c, &mut st);
        assert_eq!((&a, &c), (&want, &want), "{words:?}");
        assert_eq!(st.add_sat, 2 * saturations, "{words:?}");
        let mut key = Vec::new();
        let mut st = NumericStatus::default();
        module.embed_question_tracked(&words, &mut key, &mut st);
        assert_eq!((key, st), (want, want_st), "{words:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Fixed::requant` is the round trip through `f32`, value and events,
    /// on every word.
    #[test]
    fn requant_is_the_f32_round_trip(raw in any::<i32>(), w in stress_word()) {
        for w in [Fixed::from_raw(raw), w] {
            let (mut got, mut want) = (NumericStatus::default(), NumericStatus::default());
            prop_assert_eq!(w.requant(&mut got), Fixed::from_f32_tracked(w.to_f32(), &mut want));
            prop_assert_eq!(got, want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Accelerator::run`, on words from the question embedding to the
    /// OUTPUT search, equals the pipeline of `f32` hand-offs: each module's
    /// word entry fed `quantized` of the words the previous module handed
    /// over as `to_f32` — each sentence's embedded rows written through
    /// `write_f32_rows`, each hop's key, attention and read vector, then
    /// the search. Answers, every phase's cycles, every module's register
    /// and the stored story words agree, on models scaled until the words
    /// leave `2^24` and reach the rails.
    #[test]
    fn accelerator_words_match_the_f32_pipeline(
        seed in 0u64..200,
        scale in (0usize..4).prop_map(|i| [1.0f32, 300.0, 3.0e4, 3.4e38][i]),
        gru in any::<bool>(),
    ) {
        let (mut model, sample) = random_case(seed, 12, 6, 2);
        if gru {
            model.params = Params::init(
                ModelConfig { controller: ControllerKind::Gru, ..model.params.config },
                12,
                &mut StdRng::seed_from_u64(seed),
            );
        }
        for m in [&mut model.params.w_emb_a, &mut model.params.w_emb_c] {
            m.scale_in_place(scale);
        }
        let accel = Accelerator::new(model.clone(), AccelConfig::default());
        let run = accel.run(&sample);

        let dp = DatapathConfig::default();
        let q = quantize_params_tracked(&model.params, dp.frac_bits, &mut NumericStatus::default());
        let input = InputWriteModule::new(q.w_emb_a.clone(), q.content_embedding().clone());
        let read = match &q.gru {
            Some(g) => ReadModule::new_gru(g.clone(), &dp),
            None => ReadModule::new(q.w_r.clone(), &dp),
        };
        let output = OutputModule::new(q.w_o.clone(), &dp);
        let handoff = |v: &[Fixed]| quantized(&to_f32(v));
        let mut write = NumericStatus::default();
        let mut mem = MemModule::new(6, &dp);
        let mut write_cycles = 0;
        for sent in &sample.sentences {
            let (mut a, mut c) = (vec![Fixed::ZERO; 6], vec![Fixed::ZERO; 6]);
            write_cycles += input.embed_sentence_tracked(sent, &mut a, &mut c, &mut write).get();
            write_f32_rows(&mut mem, &to_f32(&a), &to_f32(&c), &mut write);
        }
        prop_assert_eq!(accel.write_story(&sample).quantized_rows(), mem.raw_words());
        let mut key = Vec::new();
        let qc = input.embed_question_tracked(&sample.question, &mut key, &mut write);
        let (mut mem_st, mut ctl_st) = (NumericStatus::default(), NumericStatus::default());
        let (mut addressing, mut reading, mut controller) = (0, 0, 0);
        let (mut att, mut r, mut h) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..2 {
            addressing += mem.address_words_tracked(&handoff(&key), &mut att, &mut mem_st).get();
            reading += mem.read_words_tracked(&handoff(&att), &mut r, &mut mem_st).get();
            controller += read
                .step_words_tracked(&handoff(&r), &handoff(&key), &mut h, &mut ctl_st)
                .get();
            key = h.clone();
        }
        let out = output.search_words(&handoff(&key));
        prop_assert_eq!(run.answer, out.label);
        prop_assert_eq!(
            (run.phases.write.get(), run.phases.addressing.get(), run.phases.read.get()),
            (write_cycles + qc.get(), addressing, reading)
        );
        prop_assert_eq!((run.phases.controller.get(), run.phases.output), (controller, out.cycles));
        prop_assert_eq!(
            (run.numeric.write, run.numeric.mem, run.numeric.controller, run.numeric.output),
            (write, mem_st, ctl_st, out.numeric)
        );
    }
}
