//! Speedup floors of the serving extensions, in simulated time.
//!
//! Each test runs one fixed workload two ways through the production code
//! — only a lever differs — and compares completed throughput or
//! addressing cycles on the simulated clock. The ratio is therefore a pure
//! function of the code, like a golden: each test asserts the floor the
//! extension was accepted with, and pins the value it reads today so any
//! drift, up or down, is seen. Host speed is the benchmark's business
//! (`BENCHMARK.json`), not these tests'.

use std::sync::OnceLock;

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_hw::{AccelConfig, Accelerator, MemIndexConfig, PcieLink};
use mann_serve::{
    ArrivalTrace, Cluster, ClusterConfig, ClusterReport, MembershipPlan, SchedulePolicy,
    ServeConfig, Server, TraceConfig,
};

/// Relative tolerance of a pinned ratio, as the goldens use for floats:
/// the simulation is deterministic, the slack only absorbs libm drift
/// across platforms.
const RTOL: f64 = 1e-9;

/// Asserts `value` clears `floor` and equals the pinned reading.
fn assert_floor_and_pin(name: &str, value: f64, floor: f64, pinned: f64) {
    assert!(value >= floor, "{name} {value} < floor {floor}");
    assert!(
        (value - pinned).abs() <= RTOL * pinned.abs(),
        "{name} reads {value:?}, pinned {pinned:?}"
    );
}

/// Two tenants at bAbI story lengths: the batch-fusion workload and the
/// index crossover's small-story point.
fn serve_suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        TaskSuite::build(&SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 120,
            test_samples: 24,
            seed: 11,
            ..SuiteConfig::quick()
        })
    })
}

/// A saturating burst: every request arrives within nanoseconds.
fn burst(suite: &TaskSuite, requests: usize, seed: u64, story_pool: usize) -> ArrivalTrace {
    ArrivalTrace::generate(
        &TraceConfig {
            requests,
            seed,
            mean_interarrival_s: 1e-9,
            story_pool,
        },
        suite,
    )
}

/// A link fast enough that the instance fabric is the bottleneck, so every
/// saved compute cycle moves the makespan.
fn fast_link() -> PcieLink {
    PcieLink {
        bandwidth_bytes_per_s: 1.5e9,
        latency_per_transfer_s: 1e-6,
    }
}

/// A briefly trained suite for the cluster workloads, which measure
/// throughput, not accuracy.
fn cluster_suite(tasks: Vec<TaskId>, test_samples: usize) -> TaskSuite {
    TaskSuite::build(&SuiteConfig {
        tasks,
        train_samples: 40,
        test_samples,
        seed: 11,
        ..SuiteConfig::quick()
    })
}

/// Serves `trace` on a cluster whose nodes each run two instances behind
/// a fast link.
fn fleet(suite: &TaskSuite, trace: &ArrivalTrace, config: ClusterConfig) -> ClusterReport {
    let base = ServeConfig {
        instances: 2,
        queue_capacity: 512,
        inflight_limit: 4,
        story_cache: 16,
        policy: SchedulePolicy::StoryAffinity,
        pcie: fast_link(),
        ..ServeConfig::default()
    };
    Cluster::new(suite, ClusterConfig { base, ..config })
        .serve(trace)
        .report
}

/// Asserts both fleets completed every request of `trace` with the same
/// answers, so the gain cannot come from dropped or changed work, then
/// checks the throughput gain against its floor and pin.
fn assert_fleet_gain(
    name: &str,
    trace: &ArrivalTrace,
    (without, with): (ClusterReport, ClusterReport),
    floor: f64,
    pinned: f64,
) {
    for report in [&without, &with] {
        assert_eq!(
            report.completed,
            trace.len(),
            "{name}: a fleet dropped requests"
        );
    }
    assert_eq!(
        without.answers_digest, with.answers_digest,
        "{name}: an answer changed"
    );
    let gain = with.throughput_rps / without.throughput_rps;
    assert_floor_and_pin(name, gain, floor, pinned);
}

/// Same-story batch fusion (window 8) against the unbatched loop, on a
/// burst of 192 questions over 4 stories.
#[test]
fn batch_fusion_floor() {
    let suite = serve_suite();
    let trace = burst(suite, 192, 3, 4);
    let serve = |batch_window: usize| {
        Server::new(
            suite,
            ServeConfig {
                instances: 2,
                queue_capacity: 256,
                inflight_limit: 8,
                story_cache: 4,
                policy: SchedulePolicy::StoryAffinity,
                pcie: fast_link(),
                batch_window,
                ..ServeConfig::default()
            },
        )
        .serve(&trace)
        .report
    };
    let (unbatched, batched) = (serve(0), serve(8));
    assert_eq!(
        unbatched.answers_digest, batched.answers_digest,
        "batch fusion changed an answer"
    );
    assert_eq!(batched.batch.fused_groups, 57);
    assert_eq!(batched.batch.cycles_saved, 96_624);
    assert_floor_and_pin(
        "batched / unbatched throughput",
        batched.throughput_rps / unbatched.throughput_rps,
        1.3,
        1.418481637229789,
    );
}

/// One shard against K=4/R=2 on a burst of 384 requests over 96 stories:
/// the wide test set gives rendezvous hashing enough distinct story keys
/// to share them out fairly.
#[test]
fn cluster_scaling_floor() {
    let suite = &cluster_suite(
        vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
        96,
    );
    let trace = burst(suite, 384, 41, 96);
    let serve = |shards: usize, replication: usize| {
        let config = ClusterConfig {
            shards,
            replication,
            ..ClusterConfig::default()
        };
        fleet(suite, &trace, config)
    };
    assert_fleet_gain(
        "4-shard / 1-shard throughput",
        &trace,
        (serve(1, 1), serve(4, 2)),
        3.0,
        3.37693694670407,
    );
}

/// K=4/R=4 with every request on one story: the hot-key splitter fans it
/// across the story's replica chain instead of one shard.
#[test]
fn hot_key_split_floor() {
    let suite = &cluster_suite(vec![TaskId::SingleSupportingFact], 64);
    let trace = burst(suite, 256, 47, 1);
    let serve = |membership: MembershipPlan| {
        let config = ClusterConfig {
            shards: 4,
            replication: 4,
            membership,
            ..ClusterConfig::default()
        };
        fleet(suite, &trace, config)
    };
    let split = serve(MembershipPlan::parse_spec("hot-key=8").expect("valid hot-key spec"));
    assert_eq!(split.membership.split_requests, 256);
    assert_fleet_gain(
        "split / pinned throughput",
        &trace,
        (serve(MembershipPlan::none()), split),
        1.3,
        3.9605150954807162,
    );
}

/// An accelerator for `task` with `mem_index` as its addressing index.
fn accel(task: &mann_core::TrainedTask, mem_index: MemIndexConfig) -> Accelerator {
    Accelerator::new(
        task.model.clone(),
        AccelConfig {
            mem_index,
            ..AccelConfig::default()
        },
    )
}

/// The tuned operating point: a 0.4 confidence band trips the rescan on
/// about one hop in five, enough to recover every answer the probe alone
/// would miss.
fn tuned_index() -> MemIndexConfig {
    MemIndexConfig::with_params(64, 16, 0.4)
}

/// IVF-indexed addressing against the exact scan on 2000-sentence stories
/// (task 1 honors the story length exactly), in simulated addressing
/// cycles: the figure Eq 1's datapath spends per hop.
#[test]
fn indexed_addressing_floor() {
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
    let exact = accel(task, MemIndexConfig::default());
    let indexed = accel(task, tuned_index());
    let exact_runs: Vec<_> = task.test_set.iter().map(|s| exact.run(s)).collect();

    let (mut exact_cycles, mut indexed_cycles, mut agree) = (0u64, 0u64, 0usize);
    for (s, e) in task.test_set.iter().zip(&exact_runs) {
        let i = indexed.run(s);
        exact_cycles += e.phases.addressing.get();
        indexed_cycles += i.phases.addressing.get();
        agree += usize::from(i.answer == e.answer);
    }
    assert_eq!((exact_cycles, indexed_cycles), (2_700_528, 1_208_850));
    let speedup = exact_cycles as f64 / indexed_cycles as f64;
    assert!(speedup >= 2.0, "addressing speedup {speedup} < floor 2.0");
    assert_eq!(agree, 24);
    let agreement = agree as f64 / task.test_set.len() as f64;
    assert!(
        agreement >= 0.99,
        "argmax agreement {agreement} < floor 0.99"
    );

    // A band this wide trips the margin check on every hop, so the rescan
    // path runs, is counted, and must reproduce the exact scan.
    let guarded = accel(task, MemIndexConfig::with_params(64, 16, 1e9));
    let mut fallbacks = 0u64;
    for (s, e) in task.test_set.iter().zip(&exact_runs) {
        let g = guarded.run(s);
        fallbacks += g.index.fallbacks;
        assert_eq!(
            g.answer, e.answer,
            "a fallback run diverged from the exact scan"
        );
        assert_eq!(g.comparisons, e.comparisons, "a fallback changed a score");
    }
    assert!(fallbacks > 0, "the fallback path never engaged");
    assert_eq!(fallbacks, 48);
}

/// At bAbI story lengths `k` clamps to the tiny story and the probe is
/// pure overhead: the index costs addressing cycles, which is why it is
/// off by default.
#[test]
fn index_loses_at_babi_story_lengths() {
    let task = &serve_suite().tasks[0];
    let (exact, indexed) = (
        accel(task, MemIndexConfig::default()),
        accel(task, tuned_index()),
    );
    let (mut exact_cycles, mut indexed_cycles) = (0u64, 0u64);
    for s in &task.test_set {
        exact_cycles += exact.run(s).phases.addressing.get();
        indexed_cycles += indexed.run(s).phases.addressing.get();
    }
    assert_eq!((exact_cycles, indexed_cycles), (8_528, 10_140));
    let crossover = exact_cycles as f64 / indexed_cycles as f64;
    assert!(
        crossover < 1.0,
        "the index now wins on small stories: {crossover}"
    );
}
