//! The timed run and the steps it shares with the traced run: set-up,
//! warm-up and timed serves, the correctness gate, and the simulated-clock
//! metrics.

use std::hint::black_box;
use std::time::Instant;

use mann_core::TaskSuite;
use mann_serve::{ArrivalTrace, Server, TraceConfig};
use serde::json::Value;

use crate::check;
use crate::metrics::{Values, END_TO_END};
use crate::speed::{Reference, Timings};
use crate::stack::{Outcome, Stack};
use crate::stats::{self, percentile};
use crate::workloads::{self, Workload};

/// Cold suite builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 7;

/// Timed serves per run, however long they take.
const MIN_REPS: usize = 3;

/// The capacity ladder's latency limit on p99.9, simulated microseconds.
const P999_LIMIT_US: f64 = 1500.0;

/// Builds the suite and deploys the workload's stack [`SETUP_BUILDS`]
/// times, cold each time. Returns the suite and the builds' timings.
fn timed_setup(w: &Workload, reference: &mut Reference) -> (TaskSuite, Timings) {
    let cfg = workloads::suite_config();
    let mut times = Timings::default();
    let mut suite = None;
    for _ in 0..SETUP_BUILDS {
        let built = times.time(reference, || {
            let built = TaskSuite::build(&cfg);
            black_box(Stack::new(&built, w.route, &w.cluster));
            built
        });
        suite = Some(built);
    }
    (suite.expect("at least one build"), times)
}

/// What [`serve_reps`] measured.
pub struct Reps {
    /// The timed serves.
    pub times: Timings,
    /// Answers digest of the warm-up and of every timed serve.
    pub digests: Vec<String>,
    /// The warm-up's outcome; every timed serve repeats it.
    pub warm: Outcome,
    /// Peak RSS, MiB, after set-up and the warm-up: the suite and one
    /// serve. The timed serves run while the warm-up's outcome is held for
    /// the gate, and whether the heap then grows one block further depends
    /// on the seed: 50 or 54 MB on `unique_stories`.
    pub peak_rss_mb: f64,
}

/// One untimed warm-up serve, then timed serves until `seconds` have
/// passed and at least [`MIN_REPS`] have run.
pub fn serve_reps(
    stack: &Stack,
    trace: &ArrivalTrace,
    seconds: f64,
    reference: &mut Reference,
) -> Result<Reps, String> {
    let warm = stack.serve(trace);
    let peak_rss_mb = peak_rss()?;
    let mut digests = vec![warm.report.answers_digest().to_owned()];
    let mut times = Timings::default();
    let start = Instant::now();
    while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let out = times.time(reference, || stack.serve(black_box(trace)));
        digests.push(out.report.answers_digest().to_owned());
    }
    Ok(Reps {
        times,
        digests,
        warm,
        peak_rss_mb,
    })
}

/// The correctness gate over the warm-up and the timed serves of `trace`.
pub fn gate(
    w: &Workload,
    suite: &TaskSuite,
    trace: &ArrivalTrace,
    reps: &Reps,
) -> Result<(), String> {
    check::same_digests(&reps.digests)?;
    check::partition(&reps.warm, trace)?;
    check::answers(
        &reps.warm,
        suite,
        &Server::new(suite, w.cluster.base.clone()),
    )
}

/// End-to-end latency of every completion in simulated picoseconds,
/// counted from the request's scheduled arrival.
fn latencies_ps(outcome: &Outcome, trace: &ArrivalTrace) -> Vec<u64> {
    outcome
        .completions
        .iter()
        .map(|c| {
            let due = trace.requests[c.request.id as usize].arrival;
            c.timestamps.drain_end.saturating_sub(due).ps()
        })
        .collect()
}

/// Whether a serve meets the capacity ladder's limit: nothing failed and
/// p99.9 within [`P999_LIMIT_US`].
fn within_limit(outcome: &Outcome, trace: &ArrivalTrace) -> bool {
    outcome.failed() == 0
        && percentile(&latencies_ps(outcome, trace), 999) as f64 * 1e-6 <= P999_LIMIT_US
}

/// The simulated-clock metrics: the workload's serve of its sim trace,
/// then the capacity ladder over that trace's arrivals, sped up and slowed
/// down.
fn sim_metrics(w: &Workload, suite: &TaskSuite, stack: &Stack, v: &mut Values) {
    let config = w.sim_trace();
    let trace = ArrivalTrace::generate(&config, suite);
    let base = stack.serve(&trace);
    let latencies = latencies_ps(&base, &trace);
    let completed = base.report.completed().max(1) as f64;
    v.set("sim_throughput_rps", base.report.throughput_rps());
    v.set("sim_p50_us", percentile(&latencies, 500) as f64 * 1e-6);
    v.set("sim_p999_us", percentile(&latencies, 999) as f64 * 1e-6);
    v.set(
        "sim_mj_per_answer",
        base.report.total_energy_j() * 1e3 / completed,
    );
    v.set("accuracy", base.report.accuracy());
    let base_passes = within_limit(&base, &trace);
    drop((base, trace));

    let factor = stats::capacity(|f| {
        if f == 1.0 {
            return base_passes;
        }
        let t = ArrivalTrace::generate(
            &TraceConfig {
                mean_interarrival_s: config.mean_interarrival_s / f,
                ..config.clone()
            },
            suite,
        );
        within_limit(&stack.serve(&t), &t)
    });
    v.set("sim_capacity_rps", factor / config.mean_interarrival_s);
}

/// Peak resident set of this process, MiB.
fn peak_rss() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What a run measured, and over how many requests.
pub struct Measured {
    /// The metrics as the result line prints them.
    pub metrics: Value,
    /// Requests served by the timed serves, and how many of them failed.
    pub attempted: usize,
    pub failed: usize,
    /// Timed serves, requests per serve, and completions per serve.
    pub reps: usize,
    pub requests: usize,
    pub completed: usize,
    /// Host times as measured, before scaling to the reference speed,
    /// for the line before the result.
    pub measured: Vec<(&'static str, f64)>,
}

/// The timed run: every end-to-end metric, tracing off.
pub fn timed(w: &Workload, seconds: f64) -> Result<Measured, String> {
    let mut reference = Reference::new();
    let (suite, setup) = timed_setup(w, &mut reference);
    let stack = Stack::new(&suite, w.route, &w.cluster);
    let trace = ArrivalTrace::generate(&w.trace, &suite);
    let reps = serve_reps(&stack, &trace, seconds, &mut reference)?;
    gate(w, &suite, &trace, &reps)?;

    let mut v = Values::default();
    let per_req = 1e6 / trace.len() as f64;
    v.set("wall_us_per_req", reps.times.at_reference_speed() * per_req);
    v.set("setup_s", setup.at_reference_speed());
    v.set("peak_rss_mb", reps.peak_rss_mb);
    sim_metrics(w, &suite, &stack, &mut v);
    let n = reps.times.len();
    Ok(Measured {
        metrics: v.to_json(&END_TO_END),
        attempted: trace.len() * n,
        failed: reps.warm.failed() * n,
        reps: n,
        requests: trace.len(),
        completed: reps.warm.completions.len(),
        measured: vec![
            ("measured_wall_us_per_req", reps.times.median_s() * per_req),
            ("measured_setup_s", setup.median_s()),
            ("reference_ms", reps.times.median_reference_s() * 1e3),
        ],
    })
}
