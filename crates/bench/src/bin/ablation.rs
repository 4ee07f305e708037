//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * A1 — fixed-point fractional width vs accelerator accuracy;
//! * A2 — KDE kernel (Epanechnikov vs Gaussian) and index ordering;
//! * A3 — exponential-LUT size vs softmax fidelity;
//! * A4 — OUTPUT-module lane count vs cycle breakdown (why the paper's
//!   sequential output layer makes thresholding matter).
//!
//! ```sh
//! cargo run -p mann-bench --release --bin ablation -- --tasks 2 --train 300 --test 40
//! ```

use mann_babi::TaskId;
use mann_bench::HarnessArgs;
use mann_core::report::{percent, TextTable};
use mann_core::TaskSuite;
use mann_hw::{AccelConfig, Accelerator, ClockDomain, DatapathConfig};
use mann_ith::search::{ExhaustiveMips, MipsStrategy, ThresholdedMips};
use mann_ith::{Kernel, LogitStats, ThresholdingCalibrator};
use mann_linalg::activation::ExpLut;
use memn2n::forward::forward_until_output;
use rand::{Rng, SeedableRng};

/// Builds a suite through the shared disk cache (`MANN_SUITE_CACHE`), so
/// repeated ablation runs — and the other experiment binaries — reuse
/// already-trained models.
fn build_cached(cfg: &mann_core::SuiteConfig) -> TaskSuite {
    match mann_core::SuiteCache::from_env() {
        Some(cache) => cache.load_or_build(cfg, "per-task", TaskSuite::build),
        None => TaskSuite::build(cfg),
    }
}

fn main() {
    // Ablations don't need the full suite by default.
    let args = HarnessArgs {
        tasks: 3,
        train: 400,
        test: 50,
        ..HarnessArgs::default()
    }
    .parse_cli("ablation");
    let mut cfg = args.suite_config();
    cfg.tasks = vec![
        TaskId::SingleSupportingFact,
        TaskId::YesNoQuestions,
        TaskId::AgentMotivations,
    ]
    .into_iter()
    .take(args.tasks)
    .collect();
    eprintln!("[ablation] training {} tasks ...", cfg.tasks.len());
    let suite = build_cached(&cfg);

    ablation_fixed_width(&suite);
    ablation_kernel_and_ordering(&suite);
    ablation_exp_lut();
    ablation_output_lanes(&suite);
    ablation_large_class(&suite);
    ablation_controller(&cfg);
    ablation_temporal_encoding(&cfg);
    ablation_seu(&suite);
}

/// A1: sweep the datapath's fractional bits and measure answer agreement
/// with the f32 reference.
fn ablation_fixed_width(suite: &TaskSuite) {
    println!("\nA1 — fixed-point fractional width vs accuracy");
    let mut t = TextTable::new(vec![
        "frac bits".into(),
        "HW accuracy".into(),
        "agreement with f32".into(),
    ]);
    for frac_bits in [4u32, 6, 8, 10, 12, 16] {
        let mut correct = 0usize;
        let mut agree = 0usize;
        let mut total = 0usize;
        for task in &suite.tasks {
            let accel = Accelerator::new(
                task.model.clone(),
                AccelConfig {
                    datapath: DatapathConfig {
                        frac_bits,
                        ..DatapathConfig::default()
                    },
                    ..AccelConfig::default()
                },
            );
            for s in &task.test_set {
                let hw = accel.run(s).answer;
                if hw == s.answer {
                    correct += 1;
                }
                if hw == task.model.predict(s) {
                    agree += 1;
                }
                total += 1;
            }
        }
        t.row(vec![
            frac_bits.to_string(),
            percent(correct as f64 / total as f64),
            percent(agree as f64 / total as f64),
        ]);
    }
    println!("{}", t.render());
}

/// A2: KDE kernel x index ordering grid at ρ = 1.0.
fn ablation_kernel_and_ordering(suite: &TaskSuite) {
    println!("A2 — KDE kernel and index ordering (rho = 1.0)");
    let mut t = TextTable::new(vec![
        "kernel".into(),
        "ordering".into(),
        "accuracy".into(),
        "comparisons (norm)".into(),
    ]);
    for kernel in [Kernel::Epanechnikov, Kernel::Gaussian] {
        for ordered in [true, false] {
            let mut correct = 0usize;
            let mut total = 0usize;
            let mut cmp_frac = 0.0f64;
            for task in &suite.tasks {
                let stats = LogitStats::collect(&task.model, &task.train_set);
                let ith = ThresholdingCalibrator::new()
                    .rho(1.0)
                    .kernel(kernel)
                    .calibrate_from_stats(&stats);
                let strategy = if ordered {
                    ThresholdedMips::new(&ith)
                } else {
                    ThresholdedMips::without_ordering(&ith)
                };
                for s in &task.test_set {
                    let h = forward_until_output(&task.model.params, s);
                    let r = strategy.search(&task.model.params, &h);
                    if r.label == s.answer {
                        correct += 1;
                    }
                    cmp_frac += r.comparisons as f64 / task.model.params.vocab_size as f64;
                    total += 1;
                }
            }
            t.row(vec![
                format!("{kernel:?}"),
                if ordered { "yes" } else { "no" }.into(),
                percent(correct as f64 / total as f64),
                percent(cmp_frac / total as f64),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "note: the Gaussian kernel's infinite support keeps the posterior\n\
         below 1.0 everywhere, so rho = 1.0 disables speculation — the\n\
         reason the implementation defaults to Epanechnikov.\n"
    );
}

/// A3: exponential-LUT size vs worst-case error.
fn ablation_exp_lut() {
    println!("A3 — exponential LUT size vs worst-case error (domain [-16, 0])");
    let mut t = TextTable::new(vec![
        "entries".into(),
        "max |error|".into(),
        "BRAM36".into(),
    ]);
    for entries in [16usize, 32, 64, 128, 256, 512, 1024] {
        let lut = ExpLut::new(entries, -16.0);
        let err = lut.max_abs_error(16);
        let bram = ((entries * 32) as f64 / (36.0 * 1024.0)).ceil().max(1.0);
        t.row(vec![
            entries.to_string(),
            format!("{err:.2e}"),
            format!("{bram:.0}"),
        ]);
    }
    println!("{}", t.render());
}

/// A4: OUTPUT lane count vs cycle share of the output phase, with the ITH
/// saving at each point.
fn ablation_output_lanes(suite: &TaskSuite) {
    println!("A4 — OUTPUT module lanes vs cycle breakdown (25 MHz)");
    let mut t = TextTable::new(vec![
        "lanes".into(),
        "output share of compute".into(),
        "ITH compute saving".into(),
    ]);
    let task = &suite.tasks[0];
    for lanes in [1usize, 2, 4, 8, 16] {
        let dp = DatapathConfig {
            output_lanes: lanes,
            ..DatapathConfig::default()
        };
        let base = Accelerator::new(
            task.model.clone(),
            AccelConfig {
                clock: ClockDomain::mhz(25.0),
                datapath: dp,
                ..AccelConfig::default()
            },
        );
        let fast = Accelerator::new(
            task.model.clone(),
            AccelConfig {
                clock: ClockDomain::mhz(25.0),
                datapath: dp,
                ith: Some(task.ith.clone()),
                use_ordering: true,
                ..AccelConfig::default()
            },
        );
        let mut out_cycles = 0u64;
        let mut all_cycles = 0u64;
        let mut fast_cycles = 0u64;
        for s in &task.test_set {
            let b = base.run(s);
            out_cycles += b.phases.output.get();
            all_cycles += b.cycles.get();
            fast_cycles += fast.run(s).cycles.get();
        }
        t.row(vec![
            lanes.to_string(),
            percent(out_cycles as f64 / all_cycles as f64),
            percent(1.0 - fast_cycles as f64 / all_cycles as f64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "note: narrower output datapaths (the paper's \"series of dot\n\
         products\") raise the output share, which is exactly what makes\n\
         inference thresholding pay off."
    );
    // Also verify the exhaustive baseline sanity on this task.
    let h = forward_until_output(&task.model.params, &task.test_set[0]);
    let r = ExhaustiveMips.search(&task.model.params, &h);
    debug_assert_eq!(r.comparisons, task.model.params.vocab_size);
}

/// A8: single-event-upset sensitivity — random bit flips in the weight
/// BRAMs vs accelerator accuracy (the radiation-tolerance question every
/// FPGA deployment eventually gets asked).
fn ablation_seu(suite: &TaskSuite) {
    use mann_hw::fault::inject_upsets_in_bits;
    println!("\nA8 — SEU sensitivity: weight-BRAM bit flips vs accuracy");
    let task = &suite.tasks[0];
    let total_words = task.model.params.parameter_count();
    let mut t = TextTable::new(vec![
        "bit flips".into(),
        "fraction of words".into(),
        "low bits 0-15".into(),
        "high bits 16-31".into(),
    ]);
    let accuracy_with = |upsets: usize, bits: std::ops::Range<u32>| -> f64 {
        // Average over a few injection seeds to smooth out lucky flips.
        let seeds = [1u64, 2, 3];
        let mut acc_sum = 0.0f64;
        for &seed in &seeds {
            let (faulted, _) =
                inject_upsets_in_bits(&task.model.params, upsets, bits.clone(), seed);
            let model = memn2n::TrainedModel {
                task: task.model.task,
                params: faulted,
                encoder: task.model.encoder.clone(),
            };
            let accel = Accelerator::new(model, AccelConfig::default());
            let correct = task
                .test_set
                .iter()
                .filter(|s| accel.run(s).answer == s.answer)
                .count();
            acc_sum += correct as f64 / task.test_set.len() as f64;
        }
        acc_sum / seeds.len() as f64
    };
    for &upsets in &[0usize, 1, 10, 100, 1000] {
        t.row(vec![
            upsets.to_string(),
            format!("{:.4}", upsets as f64 / total_words as f64),
            percent(accuracy_with(upsets, 0..16)),
            percent(accuracy_with(upsets, 16..32)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "note: fractional-bit upsets perturb weights by < 1 ULP..0.5 and are\n\
         absorbed by the argmax — hundreds are tolerable. A single\n\
         integer/sign-bit upset can corrupt an embedding column enough to\n\
         break inference: the high half of every BRAM word is what ECC or\n\
         scrubbing must protect."
    );
}

/// A6: linear (Eq 4) vs gated (GRU) READ controller — what the gating of
/// the LSTM/GRU accelerators the paper cites in §VI-A would cost on this
/// dataflow architecture.
fn ablation_controller(cfg: &mann_core::SuiteConfig) {
    use memn2n::ControllerKind;
    println!("\nA6 — READ controller: linear (paper, Eq 4) vs GRU (25 MHz)");
    let mut t = TextTable::new(vec![
        "controller".into(),
        "test accuracy".into(),
        "controller cycle share".into(),
        "compute cycles / inference".into(),
    ]);
    for controller in [ControllerKind::Linear, ControllerKind::Gru] {
        let mut one = cfg.clone();
        one.tasks = vec![TaskId::SingleSupportingFact];
        one.model.controller = controller;
        let suite = build_cached(&one);
        let task = &suite.tasks[0];
        let accel = Accelerator::new(
            task.model.clone(),
            AccelConfig {
                clock: ClockDomain::mhz(25.0),
                ..AccelConfig::default()
            },
        );
        let mut controller_cycles = 0u64;
        let mut all_cycles = 0u64;
        for s in &task.test_set {
            let run = accel.run(s);
            controller_cycles += run.phases.controller.get();
            all_cycles += run.cycles.get();
        }
        t.row(vec![
            format!("{controller:?}"),
            percent(task.test_accuracy as f64),
            percent(controller_cycles as f64 / all_cycles as f64),
            format!("{}", all_cycles / task.test_set.len() as u64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "note: gating multiplies the controller phase (six matvecs plus\n\
         sigmoid/tanh through the sequential divider) and the per-inference\n\
         cycle count severalfold; it can buy some accuracy, but on the\n\
         energy-per-inference axis the paper optimizes, the linear Eq 4\n\
         controller is the clear design point."
    );
}

/// A7: temporal-token encoding on/off. Movement tasks need to know *when*
/// a fact was written (the answer is the latest location); removing the
/// per-sentence age markers ablates that signal.
fn ablation_temporal_encoding(cfg: &mann_core::SuiteConfig) {
    use mann_babi::DatasetBuilder;
    use memn2n::Trainer;
    println!("\nA7 — temporal encoding (per-sentence age tokens)");
    let mut t = TextTable::new(vec![
        "task".into(),
        "with time tokens".into(),
        "without".into(),
    ]);
    for task in [TaskId::SingleSupportingFact, TaskId::TimeReasoning] {
        let data = DatasetBuilder::new()
            .train_samples(cfg.train_samples)
            .test_samples(cfg.test_samples)
            .seed(cfg.seed)
            .build_task(task);
        let acc = |time_tokens: usize| -> f32 {
            let mut trainer =
                Trainer::from_task_data_with_time_tokens(&data, cfg.model, cfg.train, time_tokens);
            trainer.train().final_test_accuracy
        };
        t.row(vec![
            task.to_string(),
            percent(acc(20) as f64),
            percent(acc(0) as f64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "note: bag-of-words memories are order-free; the temporal tokens\n\
         are what lets attention find the most recent fact."
    );
}

/// A5: the paper's future-work claim — "our data-based MIPS will find
/// applications in large-class inference". The trained output layer is
/// padded with low-energy distractor classes (never the answer, as in a
/// production vocabulary full of rare words); exhaustive search must scan
/// them all, thresholding with silhouette ordering skips the tail.
fn ablation_large_class(suite: &TaskSuite) {
    println!("\nA5 — inference thresholding in large-class inference (future work)");
    let task = &suite.tasks[0];
    let mut t = TextTable::new(vec![
        "|I| (classes)".into(),
        "ITH comparisons (norm)".into(),
        "ITH accuracy".into(),
        "exhaustive accuracy".into(),
    ]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for &extra in &[0usize, 200, 1000, 4000] {
        // Enlarge the output layer with distractor rows.
        let mut params = task.model.params.clone();
        let e = params.config.embed_dim;
        let base_rows = params.w_o.rows();
        let mut flat = params.w_o.as_slice().to_vec();
        for _ in 0..extra * e {
            flat.push(rng.gen_range(-0.02f32..0.02));
        }
        params.w_o =
            mann_linalg::Matrix::from_flat(base_rows + extra, e, flat).expect("consistent dims");
        params.vocab_size = base_rows + extra;
        let model = memn2n::TrainedModel {
            task: task.model.task,
            params,
            encoder: task.model.encoder.clone(),
        };

        // Recalibrate on the enlarged model (Steps 1-3 run as-is; the
        // distractors never appear as answers so they get no thresholds and
        // sink to the end of the probe order).
        let ith = ThresholdingCalibrator::new()
            .rho(1.0)
            .calibrate(&model, &task.train_set);
        let strategy = ThresholdedMips::new(&ith);
        let classes = model.params.vocab_size as f64;
        let mut cmp_frac = 0.0f64;
        let mut ith_correct = 0usize;
        let mut exact_correct = 0usize;
        for s in &task.test_set {
            let h = forward_until_output(&model.params, s);
            let r = strategy.search(&model.params, &h);
            cmp_frac += r.comparisons as f64 / classes;
            if r.label == s.answer {
                ith_correct += 1;
            }
            if ExhaustiveMips.search(&model.params, &h).label == s.answer {
                exact_correct += 1;
            }
        }
        let n = task.test_set.len() as f64;
        t.row(vec![
            (base_rows + extra).to_string(),
            percent(cmp_frac / n),
            percent(ith_correct as f64 / n),
            percent(exact_correct as f64 / n),
        ]);
    }
    println!("{}", t.render());
    println!(
        "note: speculated queries exit after a handful of probes regardless\n\
         of |I|, so their cost amortizes to ~0; the residual normalized\n\
         count is the floor set by non-speculated queries, which must still\n\
         scan everything. Accuracy is untouched — the regime\n\
         (large-vocabulary NLP) the paper's conclusion targets."
    );
}
