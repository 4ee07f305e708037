//! Performance regression gate for the hot paths.
//!
//! Times the production implementations against faithful "seed"
//! re-implementations (naive kernels from [`mann_linalg::reference`],
//! per-sample allocation, unfused backward) on a pinned workload, then
//! enforces speedup floors:
//!
//! * suite build (3-task pinned workload): **>= 1.3x**
//! * per-sample training step:             **>= 1.2x**
//! * serve throughput, repeated-story trace: **>= 1.5x** requests/s
//! * serve throughput, unique-story trace:   **>= 1.2x** requests/s
//! * same-story batch fusion, burst trace:   **>= 1.3x** simulated req/s
//! * cluster scaling, 1 -> 4 shards:         **>= 3.0x** simulated req/s
//! * hot-key split, pathological story:      **>= 1.3x** simulated req/s
//!
//! Training/kernel results are written to `BENCH_PR1.json`, serving
//! results to `BENCH_PR3.json`, dedup results to `BENCH_PR6.json`,
//! cluster scale-out results to `BENCH_PR7.json`, and membership /
//! hot-key split results to `BENCH_PR10.json`, as rows of
//! `{"metric": ..., "value": ..., "unit": ...}`. Every baseline is real,
//! runnable code — not a recorded number — so the gate keeps meaning as
//! hardware changes. Each reference path is cross-checked against the
//! production path for numerical agreement before any timing, so a gate
//! pass can't come from the baseline silently computing something else.
//!
//! The serve baseline vendors the pre-cache engine's numeric phase: one
//! monolithic run per request (no story dedup, no resident-story reuse), a
//! fresh MEM module — including its exp LUT — per inference, f32 row
//! storage re-quantized on every access, and the CONTROL codec
//! round-trip. The production side times the *entire* `Server::serve`
//! call (event loop and report included), so the comparison is biased
//! against the optimized path.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin perf_gate             # gate mode
//! cargo run -p mann-bench --release --bin perf_gate -- --no-fail
//! ```

use std::hint::black_box;
use std::time::Instant;

use mann_babi::{DatasetBuilder, EncodedSample, TaskId};
use mann_core::parallel::worker_threads;
use mann_core::{SuiteConfig, TaskSuite};
use mann_hw::{AccelConfig, Accelerator, DatapathConfig, MemIndexConfig, PcieLink};
use mann_linalg::{Matrix, Vector};
use mann_serve::{
    ArrivalTrace, Cluster, ClusterConfig, HopPrune, MembershipPlan, SchedulePolicy, ServeConfig,
    Server, TraceConfig,
};
use memn2n::{train_step, ModelConfig, Params, TrainConfig, Trainer, Workspace};

/// Seed-style model code: the pre-optimization implementations, kept
/// runnable as the gate's baseline. Naive kernels, a freshly allocated
/// trace and gradient set per sample, separate (unfused) backward passes —
/// exactly the structure the optimized path replaced. Linear controller
/// only (the paper's datapath).
mod seed {
    use mann_babi::EncodedSample;
    use mann_linalg::{reference, Matrix, Vector};
    use memn2n::{Gradients, Params};

    pub struct Trace {
        pub mem_a: Matrix,
        pub mem_c: Matrix,
        pub keys: Vec<Vector>,
        // The seed retained the raw scores and read vectors in its trace
        // too; kept (though backward does not need them) so the baseline
        // allocates what the seed allocated.
        #[allow(dead_code)]
        pub scores: Vec<Vector>,
        #[allow(dead_code)]
        pub reads: Vec<Vector>,
        pub attention: Vec<Vector>,
        pub hiddens: Vec<Vector>,
        pub logits: Vector,
    }

    fn softmax(x: &Vector) -> Vector {
        let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f32> = x.iter().map(|&v| (v - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        Vector::from(exps.into_iter().map(|e| e / z).collect::<Vec<f32>>())
    }

    pub fn forward(params: &Params, sample: &EncodedSample) -> Trace {
        assert!(
            params.gru.is_none(),
            "seed baseline models the linear controller"
        );
        let e = params.config.embed_dim;
        let l = sample.sentences.len();
        let hops = params.config.hops;
        let w_a = &params.w_emb_a;
        let w_c = params.content_embedding();
        let mut mem_a = Matrix::zeros(l, e);
        let mut mem_c = Matrix::zeros(l, e);
        for (i, sent) in sample.sentences.iter().enumerate() {
            mem_a
                .row_mut(i)
                .copy_from_slice(reference::sum_cols(w_a, sent).as_slice());
            mem_c
                .row_mut(i)
                .copy_from_slice(reference::sum_cols(w_c, sent).as_slice());
        }
        let q_emb = reference::sum_cols(w_a, &sample.question);
        let mut keys = vec![q_emb];
        let mut scores = Vec::new();
        let mut reads = Vec::new();
        let mut attention = Vec::new();
        let mut hiddens: Vec<Vector> = Vec::new();
        for t in 0..hops {
            let score = reference::matvec(&mem_a, &keys[t]);
            let a = softmax(&score);
            let r = reference::matvec_transposed(&mem_c, &a);
            let wk = reference::matvec(&params.w_r, &keys[t]);
            let h: Vector = r.iter().zip(wk.iter()).map(|(x, y)| x + y).collect();
            scores.push(score);
            reads.push(r);
            attention.push(a);
            hiddens.push(h);
            if t + 1 < hops {
                keys.push(hiddens[t].clone());
            }
        }
        let logits = reference::matvec(&params.w_o, hiddens.last().expect("hops >= 1"));
        Trace {
            mem_a,
            mem_c,
            keys,
            scores,
            reads,
            attention,
            hiddens,
            logits,
        }
    }

    /// The seed's gradient clip: per-matrix Frobenius norms computed with a
    /// single scalar accumulator chain (the current implementation uses a
    /// multi-accumulator reduction instead — one of the optimizations this
    /// gate measures).
    pub fn clip_to(grads: &mut Gradients, max_norm: f32) -> f32 {
        fn fro(m: &Matrix) -> f32 {
            m.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt()
        }
        let n = (fro(&grads.w_emb_a).powi(2)
            + fro(&grads.w_emb_c).powi(2)
            + fro(&grads.w_r).powi(2)
            + fro(&grads.w_o).powi(2))
        .sqrt();
        if n > max_norm && n > 0.0 {
            let s = max_norm / n;
            grads.w_emb_a.scale_in_place(s);
            grads.w_emb_c.scale_in_place(s);
            grads.w_r.scale_in_place(s);
            grads.w_o.scale_in_place(s);
        }
        n
    }

    pub fn loss_grad(logits: &Vector, target: usize) -> (f32, Vector) {
        let mut grad = softmax(logits);
        let loss = -(grad[target].max(1e-12)).ln();
        grad[target] -= 1.0;
        (loss, grad)
    }

    pub fn backward(
        params: &Params,
        sample: &EncodedSample,
        trace: &Trace,
        dz: &Vector,
        grads: &mut Gradients,
    ) {
        let hops = params.config.hops;
        let l = sample.sentences.len();
        let e = params.config.embed_dim;
        reference::add_outer(&mut grads.w_o, 1.0, dz, trace.hiddens.last().expect("hops"));
        let mut dh = reference::matvec_transposed(&params.w_o, dz);
        let mut d_mem_a = Matrix::zeros(l, e);
        let mut d_mem_c = Matrix::zeros(l, e);
        for t in (0..hops).rev() {
            let k = &trace.keys[t];
            let a = &trace.attention[t];
            let dr = dh.clone();
            reference::add_outer(&mut grads.w_r, 1.0, &dh, k);
            let mut dk = reference::matvec_transposed(&params.w_r, &dh);
            // Eq 5: da_i = dr . M_c[i], dM_c[i] += a_i dr.
            let mut da = Vector::zeros(l);
            for i in 0..l {
                let row = trace.mem_c.row(i);
                let drow = d_mem_c.row_mut(i);
                let mut dot = 0.0f32;
                for (j, &dv) in dr.iter().enumerate() {
                    dot += row[j] * dv;
                    drow[j] += a[i] * dv;
                }
                da[i] = dot;
            }
            // Eq 1 softmax backward.
            let dot: f32 = a.iter().zip(da.iter()).map(|(x, y)| x * y).sum();
            let mut du = Vector::zeros(l);
            for i in 0..l {
                du[i] = a[i] * (da[i] - dot);
            }
            for i in 0..l {
                let drow = d_mem_a.row_mut(i);
                for (dst, kv) in drow.iter_mut().zip(k.iter()) {
                    *dst += du[i] * kv;
                }
                let mrow = trace.mem_a.row(i);
                for (dst, m) in dk.iter_mut().zip(mrow.iter()) {
                    *dst += du[i] * m;
                }
            }
            if t > 0 {
                dh = dk;
            } else {
                for &w in &sample.question {
                    grads.w_emb_a.add_to_col(w, 1.0, &dk).expect("emb shape");
                }
            }
        }
        let tie = params.config.tie_embeddings;
        for (i, sent) in sample.sentences.iter().enumerate() {
            for &w in sent {
                grads
                    .w_emb_a
                    .add_to_col_slice(w, 1.0, d_mem_a.row(i))
                    .expect("emb shape");
                let target = if tie {
                    &mut grads.w_emb_a
                } else {
                    &mut grads.w_emb_c
                };
                target
                    .add_to_col_slice(w, 1.0, d_mem_c.row(i))
                    .expect("emb shape");
            }
        }
    }

    /// The seed's per-sample SGD step: allocating forward, allocating loss
    /// gradient, a fresh `Gradients` per sample, unfused backward.
    pub fn train_step(params: &mut Params, sample: &EncodedSample, lr: f32, clip: f32) -> f32 {
        let trace = forward(params, sample);
        let (loss, dz) = loss_grad(&trace.logits, sample.answer);
        let mut grads = Gradients::zeros(params);
        backward(params, sample, &trace, &dz, &mut grads);
        clip_to(&mut grads, clip);
        grads.apply(params, lr);
        loss
    }
}

/// Pre-cache serving engine, kept runnable as the serve gate's baseline:
/// the numeric phase as it stood before the write/query split — one
/// monolithic inference per request with a freshly built MEM module (and
/// exp LUT) each time, f32 memory rows converted to fixed point on every
/// access, and the host-stream codec round-trip on the CONTROL path.
///
/// READ and OUTPUT reuse the production `ReadModule` and `OutputModule`,
/// which hold their weights as quantized words, so those two paths are not
/// seed-era: the serve gates measure only the MEM, INPUT & WRITE, CONTROL
/// and cache gains.
mod seed_serve {
    use mann_babi::EncodedSample;
    use mann_hw::adder_tree::AdderTree;
    use mann_hw::div_unit::DivUnit;
    use mann_hw::exp_unit::ExpUnit;
    use mann_hw::modules::{encode_sample_stream, ControlModule, OutputModule, ReadModule};
    use mann_hw::{quantize_params, Cycles, DatapathConfig};
    use mann_linalg::activation::ExpLut;
    use mann_linalg::{Fixed, Matrix};
    use memn2n::TrainedModel;

    /// The old MEM module: f32 rows, per-access quantization.
    struct Mem {
        rows_a: Vec<Vec<f32>>,
        rows_c: Vec<Vec<f32>>,
        tree: AdderTree,
        exp: ExpUnit,
        div: DivUnit,
        embed_dim: usize,
    }

    impl Mem {
        fn new(embed_dim: usize, dp: &DatapathConfig) -> Self {
            Self {
                rows_a: Vec::new(),
                rows_c: Vec::new(),
                tree: AdderTree::new(dp.tree_width),
                // The per-run LUT rebuild (256 `exp` calls) the resident
                // story cache amortizes away.
                exp: ExpUnit::new(ExpLut::new(dp.exp_lut_entries, -16.0), dp.exp_latency),
                div: DivUnit::new(dp.div_latency),
                embed_dim,
            }
        }

        fn write(&mut self, addr_row: Vec<f32>, content_row: Vec<f32>) {
            self.rows_a.push(addr_row);
            self.rows_c.push(content_row);
        }

        fn address_into(&self, key: &[f32], attention: &mut Vec<f32>) -> Cycles {
            attention.clear();
            let l = self.rows_a.len();
            if l == 0 {
                return Cycles::ZERO;
            }
            let mut scores = Vec::with_capacity(l);
            let mut score_cycles = Cycles::ZERO;
            let per_dot = (self.embed_dim.div_ceil(self.tree.width())) as u64;
            for row in &self.rows_a {
                let (s, _) = self.tree.fixed_dot(row, key);
                scores.push(s.to_f32());
                score_cycles += Cycles::new(per_dot);
            }
            score_cycles += Cycles::new(self.tree.depth() + 1);
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let shifted: Vec<f32> = scores.iter().map(|s| s - max).collect();
            let (exps, exp_cycles) = self.exp.eval_batch(&shifted);
            let (denom, sum_cycles) = self.tree.reduce(&exps);
            let (normalized, div_cycles) = self.div.div_batch(&exps, denom);
            if denom.is_zero() {
                attention.resize(l, 1.0 / l as f32);
            } else {
                attention.extend(normalized.into_iter().map(Fixed::to_f32));
            }
            score_cycles + exp_cycles + sum_cycles + div_cycles
        }

        fn read_into(&self, attention: &[f32], out: &mut Vec<f32>) -> Cycles {
            out.clear();
            out.reserve(self.embed_dim);
            for j in 0..self.embed_dim {
                let mut acc = Fixed::ZERO;
                for (a, row) in attention.iter().zip(&self.rows_c) {
                    acc += Fixed::from_f32(*a) * Fixed::from_f32(row[j]);
                }
                out.push(acc.to_f32());
            }
            let per_row = (self.embed_dim.div_ceil(self.tree.width())) as u64;
            Cycles::new(self.rows_c.len() as u64 * per_row + self.tree.depth() + 1)
        }
    }

    /// The old assembled accelerator numeric path.
    pub struct SeedAccel {
        w_emb_a: Matrix,
        w_emb_c: Matrix,
        read: ReadModule,
        output: OutputModule,
        control: ControlModule,
        dp: DatapathConfig,
        hops: usize,
        embed_dim: usize,
    }

    impl SeedAccel {
        pub fn new(model: &TrainedModel, dp: DatapathConfig) -> Self {
            let q = quantize_params(&model.params, dp.frac_bits);
            Self {
                w_emb_a: q.w_emb_a.clone(),
                w_emb_c: q.content_embedding().clone(),
                read: ReadModule::new(q.w_r.clone(), &dp),
                output: OutputModule::new(q.w_o.clone(), &dp),
                control: ControlModule::new(),
                hops: model.params.config.hops,
                embed_dim: model.params.config.embed_dim,
                dp,
            }
        }

        /// Per-access fixed-point column accumulation (the old
        /// INPUT & WRITE path).
        fn accumulate(&self, weight: &Matrix, words: &[usize]) -> Vec<f32> {
            let mut acc = vec![Fixed::ZERO; self.embed_dim];
            for &w in words {
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot += Fixed::from_f32(weight[(r, w)]);
                }
            }
            acc.into_iter().map(Fixed::to_f32).collect()
        }

        /// One monolithic inference; returns the answer and total compute
        /// cycles (the pieces the serve layer consumed).
        pub fn run(&self, sample: &EncodedSample) -> (usize, Cycles) {
            // CONTROL: host stream codec round-trip.
            let stream = encode_sample_stream(sample);
            let ((sentences, question), mut cycles) = self
                .control
                .dispatch(&stream)
                .expect("self-produced stream is well-formed");

            // INPUT & WRITE into a freshly built memory.
            let mut mem = Mem::new(self.embed_dim, &self.dp);
            for sent in &sentences {
                let row_a = self.accumulate(&self.w_emb_a, sent);
                let row_c = self.accumulate(&self.w_emb_c, sent);
                mem.write(row_a, row_c);
                cycles += Cycles::new(sent.len() as u64 + 2);
            }
            let mut key = self.accumulate(&self.w_emb_a, &question);
            cycles += Cycles::new(question.len() as u64 + 2);

            // MEM / READ hops.
            let mut hidden = vec![0.0f32; self.embed_dim];
            let mut attention: Vec<f32> = Vec::new();
            let mut read_vec: Vec<f32> = Vec::new();
            for _hop in 0..self.hops {
                cycles += mem.address_into(&key, &mut attention);
                cycles += mem.read_into(&attention, &mut read_vec);
                cycles += self.read.step_into(&read_vec, &key, &mut hidden);
                std::mem::swap(&mut key, &mut hidden);
            }
            let hidden = if self.hops == 0 { &hidden } else { &key };

            // OUTPUT search.
            let out = self.output.search(hidden);
            cycles += out.cycles;
            (out.label, cycles)
        }
    }
}

/// One benchmark JSON row.
struct Row {
    metric: &'static str,
    value: f64,
    unit: &'static str,
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn median_s<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Times two workloads in alternating rounds and returns each side's
/// minimum. Interleaving keeps slow drift (thermal, a noisy neighbour on a
/// shared core) from biasing one side, and the minimum discards noise
/// spikes — external interference only ever adds time.
fn interleaved_min_s<A: FnMut(), B: FnMut()>(rounds: usize, mut a: A, mut b: B) -> (f64, f64) {
    let (mut min_a, mut min_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        a();
        min_a = min_a.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        b();
        min_b = min_b.min(t0.elapsed().as_secs_f64());
    }
    (min_a, min_b)
}

/// The pinned workload: three tasks, small fixed splits and epochs, linear
/// controller — big enough to be timing-stable, small enough for CI.
fn pinned_model() -> ModelConfig {
    ModelConfig {
        embed_dim: 50,
        hops: 3,
        tie_embeddings: false,
        ..ModelConfig::default()
    }
}

fn pinned_train() -> TrainConfig {
    TrainConfig {
        epochs: 8,
        learning_rate: 0.05,
        decay_every: 4,
        clip_norm: 40.0,
        seed: 7,
        ..TrainConfig::default()
    }
}

const PINNED_TASKS: [TaskId; 3] = [
    TaskId::SingleSupportingFact,
    TaskId::YesNoQuestions,
    TaskId::AgentMotivations,
];
const PINNED_TRAIN_SAMPLES: usize = 150;
const PINNED_TEST_SAMPLES: usize = 20;

/// Initial parameters and encoded splits for one pinned task.
fn pinned_task(task: TaskId) -> (Params, Vec<EncodedSample>, Vec<EncodedSample>) {
    let data = DatasetBuilder::new()
        .train_samples(PINNED_TRAIN_SAMPLES)
        .test_samples(PINNED_TEST_SAMPLES)
        .seed(7)
        .build_task(task);
    let trainer = Trainer::from_task_data(&data, pinned_model(), pinned_train());
    let params = trainer.as_model().params;
    (
        params,
        trainer.train_set().to_vec(),
        trainer.test_set().to_vec(),
    )
}

/// Runs the pinned training schedule with the production step.
fn train_optimized(params: &mut Params, train_set: &[EncodedSample]) -> f32 {
    let cfg = pinned_train();
    let mut ws = Workspace::for_params(params);
    let mut lr = cfg.learning_rate;
    let mut loss = 0.0;
    for epoch in 0..cfg.epochs {
        if cfg.decay_every > 0 && epoch > 0 && epoch % cfg.decay_every == 0 {
            lr *= 0.5;
        }
        for sample in train_set {
            loss = train_step(params, sample, &mut ws, None, 0.0, lr, cfg.clip_norm);
        }
    }
    loss
}

/// Runs the identical schedule with the seed-style step.
fn train_seed(params: &mut Params, train_set: &[EncodedSample]) -> f32 {
    let cfg = pinned_train();
    let mut lr = cfg.learning_rate;
    let mut loss = 0.0;
    for epoch in 0..cfg.epochs {
        if cfg.decay_every > 0 && epoch > 0 && epoch % cfg.decay_every == 0 {
            lr *= 0.5;
        }
        for sample in train_set {
            loss = seed::train_step(params, sample, lr, cfg.clip_norm);
        }
    }
    loss
}

/// Cross-check: the two implementations must agree numerically before we
/// trust any timing comparison between them.
fn verify_agreement(params: &Params, samples: &[EncodedSample]) {
    let mut p_opt = params.clone();
    let mut p_ref = params.clone();
    let mut ws = Workspace::for_params(&p_opt);
    for s in samples.iter().take(32) {
        let lo = train_step(&mut p_opt, s, &mut ws, None, 0.0, 0.05, 40.0);
        let lr = seed::train_step(&mut p_ref, s, 0.05, 40.0);
        assert!(
            (lo - lr).abs() <= 1e-5 * lo.abs().max(1.0),
            "loss mismatch: optimized {lo} vs seed {lr}"
        );
    }
    let diff = max_param_diff(&p_opt, &p_ref);
    assert!(diff <= 1e-4, "parameter divergence after 32 steps: {diff}");
}

fn max_param_diff(a: &Params, b: &Params) -> f32 {
    let mats = [
        (&a.w_emb_a, &b.w_emb_a),
        (&a.w_emb_c, &b.w_emb_c),
        (&a.w_r, &b.w_r),
        (&a.w_o, &b.w_o),
    ];
    mats.iter()
        .flat_map(|(x, y)| {
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(u, v)| (u - v).abs())
        })
        .fold(0.0f32, f32::max)
}

/// Deterministic pseudo-random fill for kernel operands.
fn fill(v: &mut [f32], mut state: u64) {
    for x in v {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
}

fn kernel_rows(rows: &mut Vec<Row>) {
    let (m, n) = (96, 96);
    let mut w = Matrix::zeros(m, n);
    fill(w.as_mut_slice(), 1);
    let mut x = Vector::zeros(n);
    fill(x.as_mut_slice(), 2);
    let mut xr = Vector::zeros(m);
    fill(xr.as_mut_slice(), 3);
    let mut b = Matrix::zeros(n, m);
    fill(b.as_mut_slice(), 4);
    let iters = 2000;

    let mut out = Vector::default();
    let opt_matvec = median_s(
        || {
            for _ in 0..iters {
                w.matvec_into(black_box(&x), &mut out).expect("shape");
                black_box(&out);
            }
        },
        5,
    );
    let ref_matvec = median_s(
        || {
            for _ in 0..iters {
                black_box(mann_linalg::reference::matvec(black_box(&w), black_box(&x)));
            }
        },
        5,
    );
    let opt_matvec_t = median_s(
        || {
            for _ in 0..iters {
                w.matvec_transposed_into(black_box(&xr), &mut out)
                    .expect("shape");
                black_box(&out);
            }
        },
        5,
    );
    let ref_matvec_t = median_s(
        || {
            for _ in 0..iters {
                black_box(mann_linalg::reference::matvec_transposed(
                    black_box(&w),
                    black_box(&xr),
                ));
            }
        },
        5,
    );
    let opt_matmul = median_s(
        || {
            for _ in 0..iters / 20 {
                black_box(w.matmul(black_box(&b)).expect("shape"));
            }
        },
        5,
    );
    let ref_matmul = median_s(
        || {
            for _ in 0..iters / 20 {
                black_box(mann_linalg::reference::matmul(black_box(&w), black_box(&b)));
            }
        },
        5,
    );
    rows.push(Row {
        metric: "kernel_matvec_speedup",
        value: ref_matvec / opt_matvec,
        unit: "x",
    });
    rows.push(Row {
        metric: "kernel_matvec_transposed_speedup",
        value: ref_matvec_t / opt_matvec_t,
        unit: "x",
    });
    rows.push(Row {
        metric: "kernel_matmul_speedup",
        value: ref_matmul / opt_matmul,
        unit: "x",
    });
}

fn main() {
    let no_fail = std::env::args().any(|a| a == "--no-fail");
    let mut rows: Vec<Row> = Vec::new();

    eprintln!(
        "[perf_gate] preparing pinned workload ({} tasks) ...",
        PINNED_TASKS.len()
    );
    let tasks: Vec<(Params, Vec<EncodedSample>, Vec<EncodedSample>)> =
        PINNED_TASKS.iter().map(|&t| pinned_task(t)).collect();
    verify_agreement(&tasks[0].0, &tasks[0].1);
    eprintln!("[perf_gate] baseline agrees with production; timing ...");

    // --- Per-sample training step (single task, per-step granularity).
    let (params0, train0, test0) = &tasks[0];
    let steps = train0.len();
    let mut ws = Workspace::for_params(params0);
    {
        // Warm the workspace buffers once before timing.
        let mut p = params0.clone();
        for s in train0.iter().take(8) {
            let _ = train_step(&mut p, s, &mut ws, None, 0.0, 0.05, 40.0);
        }
    }
    let (opt_step_s, seed_step_s) = interleaved_min_s(
        5,
        || {
            let mut p = params0.clone();
            for s in train0 {
                black_box(train_step(&mut p, s, &mut ws, None, 0.0, 0.05, 40.0));
            }
        },
        || {
            let mut p = params0.clone();
            for s in train0 {
                black_box(seed::train_step(&mut p, s, 0.05, 40.0));
            }
        },
    );
    let (opt_step_s, seed_step_s) = (opt_step_s / steps as f64, seed_step_s / steps as f64);
    let train_speedup = seed_step_s / opt_step_s;
    rows.push(Row {
        metric: "train_step_reference_us",
        value: seed_step_s * 1e6,
        unit: "us",
    });
    rows.push(Row {
        metric: "train_step_optimized_us",
        value: opt_step_s * 1e6,
        unit: "us",
    });
    rows.push(Row {
        metric: "train_step_speedup",
        value: train_speedup,
        unit: "x",
    });
    eprintln!(
        "[perf_gate] train step: {:.1} us -> {:.1} us ({:.2}x)",
        seed_step_s * 1e6,
        opt_step_s * 1e6,
        train_speedup
    );

    // --- Suite build: the full pinned 3-task training schedule, seed step
    // vs production step (dataset generation and encoding excluded from the
    // timed region on both sides; training dominates a real build).
    let (opt_build_s, seed_build_s) = interleaved_min_s(
        4,
        || {
            for (p0, train, _) in &tasks {
                let mut p = p0.clone();
                black_box(train_optimized(&mut p, train));
            }
        },
        || {
            for (p0, train, _) in &tasks {
                let mut p = p0.clone();
                black_box(train_seed(&mut p, train));
            }
        },
    );
    let build_speedup = seed_build_s / opt_build_s;
    rows.push(Row {
        metric: "suite_build_reference_s",
        value: seed_build_s,
        unit: "s",
    });
    rows.push(Row {
        metric: "suite_build_optimized_s",
        value: opt_build_s,
        unit: "s",
    });
    rows.push(Row {
        metric: "suite_build_speedup",
        value: build_speedup,
        unit: "x",
    });
    rows.push(Row {
        metric: "suite_build_workers",
        value: worker_threads(PINNED_TASKS.len()) as f64,
        unit: "threads",
    });
    eprintln!(
        "[perf_gate] suite build: {:.2} s -> {:.2} s ({:.2}x)",
        seed_build_s, opt_build_s, build_speedup
    );

    // --- Per-inference: model forward (optimized workspace vs seed) and
    // the cycle-accurate accelerator simulation (absolute).
    let trained = {
        let mut p = params0.clone();
        train_optimized(&mut p, train0);
        p
    };
    let n_inf = test0.len();
    let mut inf_ws = Workspace::for_params(&trained);
    let (opt_inf_s, seed_inf_s) = interleaved_min_s(
        8,
        || {
            for s in test0 {
                black_box(inf_ws.predict(&trained, s));
            }
        },
        || {
            for s in test0 {
                black_box(
                    seed::forward(&trained, s)
                        .logits
                        .argmax()
                        .expect("non-empty logits"),
                );
            }
        },
    );
    let (opt_inf_s, seed_inf_s) = (opt_inf_s / n_inf as f64, seed_inf_s / n_inf as f64);
    rows.push(Row {
        metric: "inference_reference_us",
        value: seed_inf_s * 1e6,
        unit: "us",
    });
    rows.push(Row {
        metric: "inference_optimized_us",
        value: opt_inf_s * 1e6,
        unit: "us",
    });
    rows.push(Row {
        metric: "inference_speedup",
        value: seed_inf_s / opt_inf_s,
        unit: "x",
    });

    let accel = Accelerator::new(
        memn2n::TrainedModel {
            task: PINNED_TASKS[0],
            params: trained.clone(),
            encoder: {
                let data = DatasetBuilder::new()
                    .train_samples(PINNED_TRAIN_SAMPLES)
                    .test_samples(PINNED_TEST_SAMPLES)
                    .seed(7)
                    .build_task(PINNED_TASKS[0]);
                Trainer::from_task_data(&data, pinned_model(), pinned_train())
                    .as_model()
                    .encoder
            },
        },
        AccelConfig::default(),
    );
    let hw_inf_s = median_s(
        || {
            for s in test0 {
                black_box(accel.run(s));
            }
        },
        3,
    ) / n_inf as f64;
    rows.push(Row {
        metric: "hw_sim_inference_us",
        value: hw_inf_s * 1e6,
        unit: "us",
    });

    // --- Kernel micro-comparisons.
    kernel_rows(&mut rows);

    // --- Serve throughput: the cache-aware engine vs the pre-cache
    // per-request engine.
    eprintln!("[perf_gate] training serve workload ...");
    let serve_suite = TaskSuite::build(&SuiteConfig {
        tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
        train_samples: 120,
        test_samples: 24,
        seed: 11,
        ..SuiteConfig::quick()
    });
    let mut serve_rows: Vec<Row> = Vec::new();
    let (repeated_speedup, unique_speedup) = serve_gate(&serve_suite, &mut serve_rows);

    // --- Compute-dedup levers: same-story batch fusion and adaptive hop
    // pruning, measured in simulated time on a compute-bound trace.
    let mut dedup_rows: Vec<Row> = Vec::new();
    let batched_speedup = batched_serve_gate(&serve_suite, &mut dedup_rows);

    // --- Cluster scale-out: completed-throughput scaling from one shard
    // to a four-shard / replication-2 fleet on a story-heavy trace.
    let mut cluster_rows: Vec<Row> = Vec::new();
    let cluster_scaling = cluster_gate(&mut cluster_rows);

    // --- Live membership: hot-key splitting on a pathological
    // single-story burst, pinned-shard vs full-replica-set fan-out.
    let mut membership_rows: Vec<Row> = Vec::new();
    let split_recovery = membership_gate(&mut membership_rows);

    // --- Sub-linear addressing: the IVF candidate index against the
    // exact scan at a multi-thousand-sentence memory point.
    let mut index_rows: Vec<Row> = Vec::new();
    let (indexed_speedup, indexed_agreement, indexed_fallbacks) =
        indexed_gate(&serve_suite, &mut index_rows);

    // --- Report + gate.
    write_rows("BENCH_PR1.json", &rows);
    write_rows("BENCH_PR3.json", &serve_rows);
    write_rows("BENCH_PR6.json", &dedup_rows);
    write_rows("BENCH_PR7.json", &cluster_rows);
    write_rows("BENCH_PR8.json", &index_rows);
    write_rows("BENCH_PR10.json", &membership_rows);

    let mut failed = Vec::new();
    if build_speedup < 1.3 {
        failed.push(format!("suite_build_speedup {build_speedup:.2} < 1.3"));
    }
    if train_speedup < 1.2 {
        failed.push(format!("train_step_speedup {train_speedup:.2} < 1.2"));
    }
    if repeated_speedup < 1.5 {
        failed.push(format!(
            "serve_repeated_story_speedup {repeated_speedup:.2} < 1.5"
        ));
    }
    if unique_speedup < 1.2 {
        failed.push(format!(
            "serve_unique_story_speedup {unique_speedup:.2} < 1.2"
        ));
    }
    if batched_speedup < 1.3 {
        failed.push(format!(
            "serve_batched_story_speedup {batched_speedup:.2} < 1.3"
        ));
    }
    if cluster_scaling < 3.0 {
        failed.push(format!("serve_cluster_scaling {cluster_scaling:.2} < 3.0"));
    }
    if split_recovery < 1.3 {
        failed.push(format!(
            "serve_hot_key_split_recovery {split_recovery:.2} < 1.3"
        ));
    }
    if indexed_speedup < 2.0 {
        failed.push(format!(
            "indexed_addressing_speedup {indexed_speedup:.2} < 2.0"
        ));
    }
    if indexed_agreement < 0.99 {
        failed.push(format!(
            "indexed_argmax_agreement {indexed_agreement:.3} < 0.99"
        ));
    }
    if indexed_fallbacks == 0 {
        failed.push("indexed_fallbacks 0 (fallback accounting never engaged)".into());
    }
    if failed.is_empty() {
        eprintln!("[perf_gate] PASS");
    } else {
        eprintln!("[perf_gate] FAIL: {}", failed.join("; "));
        if !no_fail {
            std::process::exit(1);
        }
    }
}

/// Formats and writes one benchmark row file, echoing it to stdout.
fn write_rows(path: &str, rows: &[Row]) {
    let json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"metric\": \"{}\", \"value\": {:.6}, \"unit\": \"{}\"}}",
                r.metric, r.value, r.unit
            )
        })
        .collect();
    let body = format!("[\n{}\n]\n", json.join(",\n"));
    std::fs::write(path, &body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{body}");
}

/// Times the production serving engine against the vendored pre-cache
/// engine on a repeated-story trace and a unique-story trace; returns the
/// two throughput speedups.
fn serve_gate(suite: &TaskSuite, rows: &mut Vec<Row>) -> (f64, f64) {
    let seed_accels: Vec<seed_serve::SeedAccel> = suite
        .tasks
        .iter()
        .map(|t| seed_serve::SeedAccel::new(&t.model, DatapathConfig::default()))
        .collect();

    // Cross-check before timing: on every request of the repeated trace the
    // seed engine must produce the production answer, and on cache misses
    // its cycle count must match the production run exactly — so the
    // baseline provably computes the same inference.
    let repeated = ArrivalTrace::generate(
        &TraceConfig {
            requests: 192,
            seed: 3,
            mean_interarrival_s: 150e-6,
            story_pool: 4,
        },
        suite,
    );
    let unique = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 5,
            mean_interarrival_s: 150e-6,
            story_pool: 0,
        },
        suite,
    );
    let server = Server::new(
        suite,
        ServeConfig {
            instances: 2,
            queue_capacity: 256,
            policy: SchedulePolicy::StoryAffinity,
            ..ServeConfig::default()
        },
    );
    let outcome = server.serve(&repeated);
    assert_eq!(outcome.completions.len(), repeated.len());
    for c in &outcome.completions {
        let sample = &suite.tasks[c.request.task_idx].test_set[c.request.sample_idx];
        let (answer, cycles) = seed_accels[c.request.task_idx].run(sample);
        assert_eq!(
            answer, c.run.answer,
            "seed engine answer diverged on request {}",
            c.request.id
        );
        if !c.run.cache_hit {
            assert_eq!(
                cycles, c.run.cycles,
                "seed engine cycles diverged on request {}",
                c.request.id
            );
        }
    }
    let hit_rate = outcome.report.cache.hit_rate;
    eprintln!(
        "[perf_gate] serve baseline agrees with production (repeated-trace hit rate {:.0}%); \
         timing ...",
        hit_rate * 100.0
    );

    let mut speedups = [0.0f64; 2];
    for (idx, (name, trace)) in [("repeated_story", &repeated), ("unique_story", &unique)]
        .into_iter()
        .enumerate()
    {
        let (opt_s, seed_s) = interleaved_min_s(
            5,
            || {
                black_box(server.serve(black_box(trace)));
            },
            || {
                for r in &trace.requests {
                    let sample = &suite.tasks[r.task_idx].test_set[r.sample_idx];
                    black_box(seed_accels[r.task_idx].run(black_box(sample)));
                }
            },
        );
        let n = trace.len() as f64;
        let speedup = seed_s / opt_s;
        speedups[idx] = speedup;
        let metric = |suffix: &'static str| -> &'static str {
            // Row.metric is &'static str; pick from a fixed table.
            match (name, suffix) {
                ("repeated_story", "ref") => "serve_repeated_story_reference_rps",
                ("repeated_story", "opt") => "serve_repeated_story_optimized_rps",
                ("repeated_story", "x") => "serve_repeated_story_speedup",
                ("unique_story", "ref") => "serve_unique_story_reference_rps",
                ("unique_story", "opt") => "serve_unique_story_optimized_rps",
                _ => "serve_unique_story_speedup",
            }
        };
        rows.push(Row {
            metric: metric("ref"),
            value: n / seed_s,
            unit: "req/s",
        });
        rows.push(Row {
            metric: metric("opt"),
            value: n / opt_s,
            unit: "req/s",
        });
        rows.push(Row {
            metric: metric("x"),
            value: speedup,
            unit: "x",
        });
        eprintln!(
            "[perf_gate] serve {name}: {:.0} req/s -> {:.0} req/s ({speedup:.2}x)",
            n / seed_s,
            n / opt_s,
        );
    }
    rows.push(Row {
        metric: "serve_repeated_story_hit_rate",
        value: hit_rate,
        unit: "frac",
    });
    (speedups[0], speedups[1])
}

/// Measures the compute-dedup levers in *simulated* time on a
/// compute-bound shared-story burst: same-story batch fusion (window 8)
/// against the unbatched event loop, and adaptive hop pruning's cycle
/// reduction against the full-hop schedule. Both sides run the identical
/// production `Server::serve`; only the lever config differs, so the
/// comparison isolates exactly the deduplicated work. Returns the batched
/// throughput speedup (simulated req/s ratio).
fn batched_serve_gate(suite: &TaskSuite, rows: &mut Vec<Row>) -> f64 {
    // A burst of questions over few stories, uploaded over a fast link:
    // the instance fabric is the bottleneck, so every deduplicated stream
    // cycle moves the makespan.
    let burst = ArrivalTrace::generate(
        &TraceConfig {
            requests: 192,
            seed: 3,
            mean_interarrival_s: 1e-9,
            story_pool: 4,
        },
        suite,
    );
    let config = |batch_window: usize, hop_prune: HopPrune| ServeConfig {
        instances: 2,
        queue_capacity: 256,
        inflight_limit: 8,
        story_cache: 4,
        policy: SchedulePolicy::StoryAffinity,
        pcie: PcieLink {
            bandwidth_bytes_per_s: 1.5e9,
            latency_per_transfer_s: 1e-6,
        },
        batch_window,
        hop_prune,
        ..ServeConfig::default()
    };

    let unbatched = Server::new(suite, config(0, HopPrune::default())).serve(&burst);
    let batched = Server::new(suite, config(8, HopPrune::default())).serve(&burst);
    assert_eq!(
        unbatched.report.answers_digest, batched.report.answers_digest,
        "batch fusion changed an answer"
    );
    assert!(
        batched.report.batch.fused_groups > 0,
        "batched gate trace formed no fused groups"
    );
    let speedup = batched.report.throughput_rps / unbatched.report.throughput_rps;
    rows.push(Row {
        metric: "serve_batched_story_unbatched_rps",
        value: unbatched.report.throughput_rps,
        unit: "req/s",
    });
    rows.push(Row {
        metric: "serve_batched_story_batched_rps",
        value: batched.report.throughput_rps,
        unit: "req/s",
    });
    rows.push(Row {
        metric: "serve_batched_story_speedup",
        value: speedup,
        unit: "x",
    });
    rows.push(Row {
        metric: "serve_batched_fused_groups",
        value: batched.report.batch.fused_groups as f64,
        unit: "groups",
    });
    rows.push(Row {
        metric: "serve_batched_stream_cycles_saved",
        value: batched.report.batch.cycles_saved as f64,
        unit: "cycles",
    });
    eprintln!(
        "[perf_gate] serve batched_story: {:.0} req/s -> {:.0} req/s ({speedup:.2}x, \
         {} fused groups)",
        unbatched.report.throughput_rps,
        batched.report.throughput_rps,
        batched.report.batch.fused_groups,
    );

    // Hop pruning: reported, not gated — the saved cycles trade against
    // answer agreement, which the golden campaign pins separately.
    let pruned = Server::new(suite, config(0, HopPrune::with_threshold(0.8))).serve(&burst);
    let p = &pruned.report.prune;
    let executed: u64 = pruned.completions.iter().map(|c| c.run.cycles.get()).sum();
    let reduction = p.cycles_saved as f64 / (executed + p.cycles_saved) as f64;
    rows.push(Row {
        metric: "serve_hop_prune_hops_saved",
        value: p.hops_saved as f64,
        unit: "hops",
    });
    rows.push(Row {
        metric: "serve_hop_prune_cycles_saved",
        value: p.cycles_saved as f64,
        unit: "cycles",
    });
    rows.push(Row {
        metric: "serve_hop_prune_cycle_reduction",
        value: reduction,
        unit: "frac",
    });
    eprintln!(
        "[perf_gate] hop pruning at {}: {} hops / {} cycles saved ({:.1}% of compute)",
        HopPrune::with_threshold(0.8),
        p.hops_saved,
        p.cycles_saved,
        reduction * 100.0,
    );
    speedup
}

/// Cluster scale-out gate: a saturating story-heavy burst served by one
/// shard vs a four-shard / replication-2 fleet. Each shard brings its own
/// link and instance pool, so completed throughput (in simulated time)
/// must scale near-linearly; the gate floors it at 3x. Routing must not
/// change any answer, so the completion digests are asserted equal first.
///
/// The gate builds its own suite with a wide test set (96 samples per
/// task): rendezvous balance is statistical over distinct story keys, so
/// a large story pool is what lets four shards draw near-fair shares.
/// Training is shortened — the gate measures throughput, not accuracy.
fn cluster_gate(rows: &mut Vec<Row>) -> f64 {
    eprintln!("[perf_gate] training cluster workload ...");
    let suite = &TaskSuite::build(&SuiteConfig {
        tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
        train_samples: 40,
        test_samples: 96,
        seed: 11,
        ..SuiteConfig::quick()
    });
    let burst = ArrivalTrace::generate(
        &TraceConfig {
            requests: 384,
            seed: 41,
            mean_interarrival_s: 1e-9,
            story_pool: 96,
        },
        suite,
    );
    let base = ServeConfig {
        instances: 2,
        queue_capacity: 512,
        inflight_limit: 4,
        story_cache: 16,
        policy: SchedulePolicy::StoryAffinity,
        pcie: PcieLink {
            bandwidth_bytes_per_s: 1.5e9,
            latency_per_transfer_s: 1e-6,
        },
        ..ServeConfig::default()
    };
    let fleet = |shards: usize, replication: usize| {
        Cluster::new(
            suite,
            ClusterConfig {
                shards,
                replication,
                base: base.clone(),
                ..ClusterConfig::default()
            },
        )
        .serve(&burst)
    };
    let one = fleet(1, 1);
    let four = fleet(4, 2);
    assert_eq!(
        one.report.completed,
        burst.len(),
        "single shard dropped requests — widen the queue"
    );
    assert_eq!(
        four.report.completed,
        burst.len(),
        "four-shard fleet dropped requests"
    );
    assert_eq!(
        one.report.answers_digest, four.report.answers_digest,
        "sharding changed an answer"
    );
    let scaling = four.report.throughput_rps / one.report.throughput_rps;
    rows.push(Row {
        metric: "serve_cluster_1shard_rps",
        value: one.report.throughput_rps,
        unit: "req/s",
    });
    rows.push(Row {
        metric: "serve_cluster_4shard_rps",
        value: four.report.throughput_rps,
        unit: "req/s",
    });
    rows.push(Row {
        metric: "serve_cluster_scaling",
        value: scaling,
        unit: "x",
    });
    rows.push(Row {
        metric: "serve_cluster_4shard_p99_ms",
        value: four.report.latency.p99_s * 1e3,
        unit: "ms",
    });
    eprintln!(
        "[perf_gate] serve cluster: {:.0} req/s (1 shard) -> {:.0} req/s (4 shards, R=2) \
         ({scaling:.2}x)",
        one.report.throughput_rps, four.report.throughput_rps,
    );
    scaling
}

/// Hot-key split gate: one pathological story receives the entire burst,
/// so without the splitter a K=4/R=4 fleet serves it on a single shard
/// while three sit idle. Arming the membership hot-key detector fans the
/// story's traffic across its full replica chain; the gate floors the
/// completed simulated-time throughput recovery at >= 1.3x and asserts
/// the split never changes an answer or drops a request.
fn membership_gate(rows: &mut Vec<Row>) -> f64 {
    eprintln!("[perf_gate] training hot-key workload ...");
    let suite = &TaskSuite::build(&SuiteConfig {
        tasks: vec![TaskId::SingleSupportingFact],
        train_samples: 40,
        test_samples: 64,
        seed: 11,
        ..SuiteConfig::quick()
    });
    let burst = ArrivalTrace::generate(
        &TraceConfig {
            requests: 256,
            seed: 47,
            mean_interarrival_s: 1e-9,
            story_pool: 1,
        },
        suite,
    );
    let base = ServeConfig {
        instances: 2,
        queue_capacity: 512,
        inflight_limit: 4,
        story_cache: 16,
        policy: SchedulePolicy::StoryAffinity,
        pcie: PcieLink {
            bandwidth_bytes_per_s: 1.5e9,
            latency_per_transfer_s: 1e-6,
        },
        ..ServeConfig::default()
    };
    let fleet = |plan: MembershipPlan| {
        Cluster::new(
            suite,
            ClusterConfig {
                shards: 4,
                replication: 4,
                membership: plan,
                base: base.clone(),
                ..ClusterConfig::default()
            },
        )
        .serve(&burst)
    };
    let pinned = fleet(MembershipPlan::none());
    let split = fleet(MembershipPlan::parse_spec("hot-key=8").expect("valid hot-key spec"));
    assert_eq!(
        pinned.report.completed,
        burst.len(),
        "pinned fleet dropped requests — widen the queue"
    );
    assert_eq!(
        split.report.completed,
        burst.len(),
        "split fleet dropped requests"
    );
    assert_eq!(
        pinned.report.answers_digest, split.report.answers_digest,
        "splitting the hot key changed an answer"
    );
    assert!(
        split.report.membership.split_requests > 0,
        "the splitter never engaged — lower the threshold"
    );
    let recovery = split.report.throughput_rps / pinned.report.throughput_rps;
    rows.push(Row {
        metric: "serve_hot_key_pinned_rps",
        value: pinned.report.throughput_rps,
        unit: "req/s",
    });
    rows.push(Row {
        metric: "serve_hot_key_split_rps",
        value: split.report.throughput_rps,
        unit: "req/s",
    });
    rows.push(Row {
        metric: "serve_hot_key_split_recovery",
        value: recovery,
        unit: "x",
    });
    rows.push(Row {
        metric: "serve_hot_key_split_requests",
        value: split.report.membership.split_requests as f64,
        unit: "req",
    });
    eprintln!(
        "[perf_gate] hot-key split: {:.0} req/s (pinned) -> {:.0} req/s (split across R=4) \
         ({recovery:.2}x)",
        pinned.report.throughput_rps, split.report.throughput_rps,
    );
    recovery
}

/// Sub-linear addressing gate: exact-scan vs IVF-indexed addressing at a
/// 2000-sentence memory point (task 1 honors the story-length knob
/// exactly), measured in *simulated* addressing cycles — the figure the
/// paper's Eq 1 datapath spends per hop. Floors: >= 2x addressing
/// throughput, >= 99% answer agreement against the exact oracle, and a
/// demonstrably engaged fallback path (a wide-band run must rescan and
/// reproduce the oracle bit for bit). The small-story crossover point is
/// reported (not gated): at bAbI-default story lengths the probe overhead
/// eats the savings, which is why the index is off by default.
fn indexed_gate(small_suite: &TaskSuite, rows: &mut Vec<Row>) -> (f64, f64, u64) {
    eprintln!("[perf_gate] training indexed-addressing workload (2000-sentence stories) ...");
    let quick = SuiteConfig::quick();
    let suite = TaskSuite::build(&SuiteConfig {
        tasks: vec![TaskId::SingleSupportingFact],
        train_samples: 64,
        test_samples: 24,
        seed: 11,
        story_sentences: 2000,
        train: memn2n::TrainConfig {
            epochs: 18,
            ..quick.train
        },
        ..quick
    });
    let task = &suite.tasks[0];
    let accel_with = |mem_index: MemIndexConfig| {
        Accelerator::new(
            task.model.clone(),
            AccelConfig {
                mem_index,
                ..AccelConfig::default()
            },
        )
    };
    let exact = accel_with(MemIndexConfig::default());
    // Tuned operating point: a 0.4 confidence band trips the rescan on
    // roughly 1-in-5 hops — enough to recover every oracle answer the
    // probe alone would miss while keeping >2x addressing throughput.
    let indexed = accel_with(MemIndexConfig::with_params(64, 16, 0.4));
    let exact_runs: Vec<_> = task.test_set.iter().map(|s| exact.run(s)).collect();

    let (mut exact_addr, mut idx_addr) = (0u64, 0u64);
    let (mut agree, mut scanned, mut skipped, mut saved) = (0usize, 0u64, 0u64, 0u64);
    for (s, e) in task.test_set.iter().zip(&exact_runs) {
        let i = indexed.run(s);
        exact_addr += e.phases.addressing.get();
        idx_addr += i.phases.addressing.get();
        agree += usize::from(i.answer == e.answer);
        scanned += i.index.scanned_slots;
        skipped += i.index.skipped_slots;
        saved += i.index.cycles_saved;
    }
    let speedup = exact_addr as f64 / idx_addr as f64;
    let agreement = agree as f64 / task.test_set.len() as f64;

    // Fallback accounting: a wide band trips the ExitGuard-style margin
    // check on every hop, so the rescan path is exercised and counted —
    // and a fallback hop must reproduce the exact oracle bit for bit.
    let guarded = accel_with(MemIndexConfig::with_params(64, 16, 1e9));
    let mut fallbacks = 0u64;
    for (s, e) in task.test_set.iter().zip(&exact_runs) {
        let g = guarded.run(s);
        fallbacks += g.index.fallbacks;
        assert_eq!(
            g.answer, e.answer,
            "full-fallback indexed run diverged from the exact oracle"
        );
        assert_eq!(g.comparisons, e.comparisons, "fallback changed a score");
    }

    // Crossover: the same index config at bAbI-default story lengths,
    // where k clamps to the (tiny) story and the probe is pure overhead.
    let small_task = &small_suite.tasks[0];
    let small_exact = Accelerator::new(small_task.model.clone(), AccelConfig::default());
    let small_indexed = Accelerator::new(
        small_task.model.clone(),
        AccelConfig {
            mem_index: MemIndexConfig::with_params(64, 16, 0.4),
            ..AccelConfig::default()
        },
    );
    let (mut small_e, mut small_i) = (0u64, 0u64);
    for s in &small_task.test_set {
        small_e += small_exact.run(s).phases.addressing.get();
        small_i += small_indexed.run(s).phases.addressing.get();
    }
    let small_speedup = small_e as f64 / small_i as f64;

    rows.push(Row {
        metric: "indexed_addressing_exact_cycles",
        value: exact_addr as f64,
        unit: "cycles",
    });
    rows.push(Row {
        metric: "indexed_addressing_indexed_cycles",
        value: idx_addr as f64,
        unit: "cycles",
    });
    rows.push(Row {
        metric: "indexed_addressing_speedup",
        value: speedup,
        unit: "x",
    });
    rows.push(Row {
        metric: "indexed_argmax_agreement",
        value: agreement,
        unit: "frac",
    });
    rows.push(Row {
        metric: "indexed_slots_scanned",
        value: scanned as f64,
        unit: "slots",
    });
    rows.push(Row {
        metric: "indexed_slots_skipped",
        value: skipped as f64,
        unit: "slots",
    });
    rows.push(Row {
        metric: "indexed_cycles_saved",
        value: saved as f64,
        unit: "cycles",
    });
    rows.push(Row {
        metric: "indexed_wide_band_fallbacks",
        value: fallbacks as f64,
        unit: "hops",
    });
    rows.push(Row {
        metric: "indexed_small_story_speedup",
        value: small_speedup,
        unit: "x",
    });
    eprintln!(
        "[perf_gate] indexed addressing: {exact_addr} -> {idx_addr} cycles ({speedup:.2}x), \
         agreement {:.1}%, {fallbacks} wide-band fallbacks, small-story crossover {small_speedup:.2}x",
        agreement * 100.0,
    );
    (speedup, agreement, fallbacks)
}
