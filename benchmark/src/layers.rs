//! The traced run: attributes host time and simulated work to the layers
//! `core` → `hw` → `ith` → `serve` → `cluster` → `store`, only by timing
//! calls into each layer's public functions from here.
//!
//! Every workload's trace goes through every layer, so each per-layer
//! metric is a measurement on every workload: one node of the workload's
//! stack (`Server::serve`), the stack as a cluster (`Cluster::serve`, one
//! inert shard for a node workload), and that cluster journaled with and
//! without a node kill (`serve_cluster_durable`). Where the workload's own
//! route skips a layer, these calls measure what the layer would cost;
//! the timed run never makes them. The journaled serve with a kill must
//! report, durability aside, byte for byte what the plain cluster does.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mann_babi::DatasetBuilder;
use mann_core::{TaskSuite, TrainedTask};
use mann_hw::story_digest;
use mann_ith::ThresholdingCalibrator;
use mann_serve::{serve_cluster_durable, ArrivalTrace, Cluster, Request, Server};
use memn2n::Trainer;
use serde::json::Value;
use serde::Serialize;

use crate::check;
use crate::metrics::{Values, PER_LAYER};
use crate::run::{self, Measured};
use crate::speed::Reference;
use crate::stack::{Outcome, Report, Stack};
use crate::stats::median;
use crate::workloads::{self, Route, Workload};

/// Where the traced run writes: trace files and scratch WAL directories.
const OUT_DIR: &str = "target/benchmark";

/// A scratch WAL directory under [`OUT_DIR`], unique to this process and
/// removed when dropped, which happens on panic too.
struct WalDir(PathBuf);

impl WalDir {
    fn new(workload: &str) -> Self {
        Self(Path::new(OUT_DIR).join(format!("wal-{workload}-{}", std::process::id())))
    }

    /// Deletes everything a serve journaled, so the next one starts empty.
    fn clear(&self) {
        // A directory that was never created is already clear.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Serializations timed per report format; the metric is their median.
const REPORT_REPS: usize = 15;

/// Serves timed per layer call; the metric is their median.
const LAYER_REPS: usize = 3;

/// One timed call: its layer, the function called, and the span open
/// around it when it started.
struct Span {
    layer: &'static str,
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// Spans kept in memory and written once, when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its result and wall seconds.
    fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let end_s = self.origin.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].end_s = end_s;
        (out, end_s - start_s)
    }

    /// Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`),
    /// with the run's per-layer metrics under `otherData`.
    fn chrome_json(&self, workload: &str, metrics: Value) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Object(vec![
                    ("name".into(), s.name.to_value()),
                    ("cat".into(), s.layer.to_value()),
                    ("ph".into(), "X".to_value()),
                    ("ts".into(), (s.start_s * 1e6).to_value()),
                    ("dur".into(), ((s.end_s - s.start_s) * 1e6).to_value()),
                    ("pid".into(), 1u32.to_value()),
                    ("tid".into(), 1u32.to_value()),
                    (
                        "args".into(),
                        Value::Object(vec![
                            ("id".into(), id.to_value()),
                            ("parent".into(), s.parent.to_value()),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), "ms".to_value()),
            (
                "otherData".into(),
                Value::Object(vec![
                    ("workload".into(), workload.to_value()),
                    ("metrics".into(), metrics),
                ]),
            ),
        ])
        .print()
    }
}

/// The traced run: every per-layer metric, and the trace file
/// `target/benchmark/<workload>-trace.json`.
pub fn traced(w: &Workload, seconds: f64) -> Result<Measured, String> {
    let wal = &WalDir::new(w.name);
    let mut tr = Tracer::new();
    let mut v = Values::default();
    let suite = suite_layers(&mut tr, &mut v)?;
    let (stack, _) = tr.span("bench", "deploy", |_| {
        Stack::new(&suite, w.route, &w.cluster)
    });
    let trace = ArrivalTrace::generate(&w.trace, &suite);

    // Untraced serves first: the gate, and the base of the overhead.
    let reps = run::serve_reps(&stack, &trace, seconds, &mut Reference::new())?;
    run::gate(w, &suite, &trace, &reps)?;

    let (own_layer, own_name) = match w.route {
        Route::Node => ("serve", "Server::serve"),
        Route::Cluster => ("cluster", "Cluster::serve"),
    };
    let (own, own_s) = repeat(
        &mut tr,
        wal,
        own_layer,
        own_name,
        || Ok(stack.serve(&trace)),
    )?;
    v.set(
        "bench.trace_overhead_frac",
        own_s / reps.times.median_s() - 1.0,
    );
    report_layers(&mut tr, &mut v, &own.report);
    outcome_counters(&mut v, &own);

    // serve: the whole trace on one node of the workload's stack, and the
    // numeric work inside it.
    let server = Server::new(&suite, w.cluster.base.clone());
    let (_, serve_s) = repeat(&mut tr, wal, "serve", "Server::serve", || {
        Ok(server.serve(&trace))
    })?;
    let numeric_s = numeric_layers(&mut tr, &mut v, &server, &suite, &trace);
    v.set("serve.serve_ms", serve_s * 1e3);
    v.set("serve.loop_report_ms", (serve_s - numeric_s) * 1e3);

    // cluster: the workload's stack as a cluster (one inert shard for a
    // node).
    let cluster = Cluster::new(&suite, w.cluster.clone());
    let (plain, cluster_s) = repeat(&mut tr, wal, "cluster", "Cluster::serve", || {
        Ok(Outcome::from(cluster.serve(&trace)))
    })?;
    cluster_counters(&mut v, &plain, cluster_s);

    // store: that cluster journaled, then journaled with a node kill.
    let journaled = |kill| Cluster::new(&suite, workloads::journaled(&w.cluster, &wal.0, kill));
    let (unkilled, killed) = (journaled(false), journaled(true));
    let durable = |c: &Cluster| {
        serve_cluster_durable(c, &trace).map_err(|e| format!("journaled serve failed: {e}"))
    };
    let (_, journal_s) = repeat(&mut tr, wal, "store", "serve_cluster_durable", || {
        durable(&unkilled)
    })?;
    let (out, kill_s) = repeat(
        &mut tr,
        wal,
        "store",
        "serve_cluster_durable (node kill)",
        || durable(&killed),
    )?;
    v.set("store.journal_ms", (journal_s - cluster_s) * 1e3);
    v.set("store.recovery_ms", (kill_s - journal_s) * 1e3);
    let d = &out.report.durability;
    v.set("store.records", d.records as f64);
    v.set("store.fsyncs", d.fsyncs as f64);
    v.set("store.snapshots", d.snapshots as f64);
    v.set("store.replayed_records", d.replayed_records as f64);
    v.set("store.torn_tails", d.torn_tails as f64);
    check::durability_is_invisible(&out.into(), &plain)?;

    let metrics = v.to_json(&PER_LAYER);
    let path = format!("{OUT_DIR}/{}-trace.json", w.name);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tr.chrome_json(w.name, metrics.clone())))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("[benchmark] {} spans written to {path}", tr.spans.len());
    let n = reps.times.len();
    Ok(Measured {
        metrics,
        attempted: trace.len() * n,
        failed: own.failed() * n,
        reps: n,
        requests: trace.len(),
        completed: own.completions.len(),
        measured: vec![("reference_ms", reps.times.median_reference_s() * 1e3)],
    })
}

/// Calls `f` [`LAYER_REPS`] times, each in a span and followed by clearing
/// the WAL directory. Returns the last result and the median seconds.
fn repeat<T>(
    tr: &mut Tracer,
    wal: &WalDir,
    layer: &'static str,
    name: &'static str,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(LAYER_REPS);
    let mut last = None;
    for _ in 0..LAYER_REPS {
        let (out, s) = tr.span(layer, name, |_| f());
        wal.clear();
        last = Some(out?);
        secs.push(s);
    }
    Ok((last.expect("LAYER_REPS > 0"), median(&secs)))
}

/// `core`, `model` and `ith` at set-up: the steps of `TaskSuite::build`,
/// each timed, then checked against `TaskSuite::build` itself.
fn suite_layers(tr: &mut Tracer, v: &mut Values) -> Result<TaskSuite, String> {
    let cfg = workloads::suite_config();
    let mut ms = [0.0f64; 4];
    let (tasks, _) = tr.span("core", "TaskSuite::build steps", |tr| {
        cfg.tasks
            .iter()
            .map(|&task| {
                let (data, s) = tr.span("core", "DatasetBuilder::build_task", |_| {
                    DatasetBuilder::new()
                        .train_samples(cfg.train_samples)
                        .test_samples(cfg.test_samples)
                        .seed(cfg.seed)
                        .story_sentences(cfg.story_sentences)
                        .build_task(task)
                });
                ms[0] += s * 1e3;
                // The per-task seed `TaskSuite::build` derives.
                let mut train = cfg.train;
                train.seed = cfg.train.seed ^ (task.number() as u64) << 17;
                let mut trainer = Trainer::from_task_data(&data, cfg.model, train);
                ms[1] += tr.span("model", "Trainer::train", |_| trainer.train()).1 * 1e3;
                let (model, train_set, test_set) = trainer.into_parts();
                let (ith, s) = tr.span("ith", "ThresholdingCalibrator::calibrate", |_| {
                    ThresholdingCalibrator::new()
                        .rho(cfg.rho)
                        .calibrate(&model, &train_set)
                });
                ms[2] += s * 1e3;
                let (test_accuracy, s) = tr.span("model", "TrainedModel::accuracy", |_| {
                    model.accuracy(&test_set)
                });
                ms[3] += s * 1e3;
                TrainedTask {
                    task,
                    model,
                    train_set,
                    test_set,
                    ith,
                    test_accuracy,
                }
            })
            .collect::<Vec<_>>()
    });
    let suite = TaskSuite {
        tasks,
        config: cfg.clone(),
    };
    let (reference, _) = tr.span("core", "TaskSuite::build", |_| TaskSuite::build(&cfg));
    if suite != reference {
        return Err("the suite built step by step differs from TaskSuite::build".into());
    }
    v.set("core.dataset_ms", ms[0]);
    v.set("model.train_ms", ms[1]);
    v.set("ith.calibrate_ms", ms[2]);
    v.set("model.eval_ms", ms[3]);
    Ok(suite)
}

/// `hw`: the numeric work `Server::serve` does for `trace`, call by call
/// on `server`'s accelerators: a story digest per request, one
/// `write_story` per distinct (task, story), one `answer_query` and one
/// `compose_uncached` per distinct (task, sample). Returns the seconds
/// those calls took, `hw.numeric_ms`.
fn numeric_layers(
    tr: &mut Tracer,
    v: &mut Values,
    server: &Server,
    suite: &TaskSuite,
    trace: &ArrivalTrace,
) -> f64 {
    let sample = |r: &Request| &suite.tasks[r.task_idx].test_set[r.sample_idx];
    let mut write = Vec::new();
    let mut answer = Vec::new();
    let mut compose = Vec::new();
    let (digest_s, _) = tr.span("serve", "numeric phase", |tr| {
        let (digests, digest_s) = tr.span("hw", "story_digest", |_| {
            trace
                .requests
                .iter()
                .map(|r| story_digest(sample(r)))
                .collect::<Vec<u64>>()
        });
        let mut story_ids = HashMap::new();
        let mut stories = Vec::new();
        let mut story_of = Vec::with_capacity(trace.len());
        for (r, &digest) in trace.requests.iter().zip(&digests) {
            let sid = *story_ids.entry((r.task_idx, digest)).or_insert_with(|| {
                let accel = server.accelerator(r.task_idx);
                let (story, s) = tr.span("hw", "Accelerator::write_story", |_| {
                    accel.write_story(sample(r))
                });
                write.push(s);
                stories.push(story);
                stories.len() - 1
            });
            story_of.push(sid);
        }
        let mut asked = HashSet::new();
        for (r, &sid) in trace.requests.iter().zip(&story_of) {
            if !asked.insert((r.task_idx, r.sample_idx)) {
                continue;
            }
            let accel = server.accelerator(r.task_idx);
            let (hit, s) = tr.span("hw", "Accelerator::answer_query", |_| {
                accel.answer_query(&stories[sid], sample(r))
            });
            answer.push(s);
            let (miss, s) = tr.span("hw", "Accelerator::compose_uncached", |_| {
                accel.compose_uncached(&stories[sid], &hit, sample(r))
            });
            compose.push(s);
            black_box(miss);
        }
        digest_s
    });
    let numeric_s = digest_s
        + write.iter().sum::<f64>()
        + answer.iter().sum::<f64>()
        + compose.iter().sum::<f64>();
    v.set("hw.story_digest_ms", digest_s * 1e3);
    v.set("hw.write_story_us", median(&write) * 1e6);
    v.set("hw.answer_query_us", median(&answer) * 1e6);
    v.set("hw.compose_uncached_us", median(&compose) * 1e6);
    v.set("hw.write_story_calls", write.len() as f64);
    v.set("hw.answer_query_calls", answer.len() as f64);
    v.set("hw.numeric_ms", numeric_s * 1e3);
    numeric_s
}

/// `serve`: building the report's JSON bytes and its text tables.
fn report_layers(tr: &mut Tracer, v: &mut Values, report: &Report) {
    let json: Vec<f64> = (0..REPORT_REPS)
        .map(|_| {
            tr.span("serve", "report JSON", |_| black_box(report.json()))
                .1
        })
        .collect();
    let render: Vec<f64> = (0..REPORT_REPS)
        .map(|_| {
            tr.span("serve", "report render", |_| black_box(report.render()))
                .1
        })
        .collect();
    v.set("serve.report_json_ms", median(&json) * 1e3);
    v.set("serve.report_render_ms", median(&render) * 1e3);
}

/// `hw`, `ith` and `serve` counters of the workload's own serve.
fn outcome_counters(v: &mut Values, own: &Outcome) {
    let r = &own.report;
    let per_req = |x: u64| x as f64 / r.completed().max(1) as f64;
    let p = r.phase_totals();
    v.set("hw.sim_cycles_per_req.control", per_req(p.control.get()));
    v.set("hw.sim_cycles_per_req.write", per_req(p.write.get()));
    v.set(
        "hw.sim_cycles_per_req.addressing",
        per_req(p.addressing.get()),
    );
    v.set("hw.sim_cycles_per_req.read", per_req(p.read.get()));
    v.set(
        "hw.sim_cycles_per_req.controller",
        per_req(p.controller.get()),
    );
    v.set("hw.sim_cycles_per_req.output", per_req(p.output.get()));
    let comparisons: usize = own.completions.iter().map(|c| c.run.comparisons).sum();
    v.set("ith.comparisons_per_req", per_req(comparisons as u64));
    v.set("ith.speculated_frac", per_req(r.speculated() as u64));
    v.set("serve.cache_hit_rate", r.cache().hit_rate);
    v.set("serve.queue_wait_us", r.mean_queue_wait_s() * 1e6);
    v.set("serve.max_queue_depth", r.max_queue_depth() as f64);
    v.set("serve.link_utilization", r.link_utilization());
    v.set("serve.occupancy", r.occupancy());
    v.set("serve.batch_fused_groups", r.batch_fused_groups() as f64);
    v.set("serve.batch_cycles_saved", r.batch_cycles_saved() as f64);
}

/// `cluster`: its serve time and its counters.
fn cluster_counters(v: &mut Values, out: &Outcome, serve_s: f64) {
    let m = out.report.membership();
    v.set("cluster.serve_ms", serve_s * 1e3);
    v.set("cluster.failovers", out.failovers as f64);
    v.set("cluster.stories_moved", m.stories_moved as f64);
    v.set("cluster.handoff_bytes", m.handoff_bytes as f64);
    v.set("cluster.split_requests", m.split_requests as f64);
    v.set("cluster.moved_key_fraction", m.moved_key_fraction);
    v.set("cluster.shard_skew", out.report.shard_skew());
}
