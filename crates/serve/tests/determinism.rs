//! Scheduler determinism and orchestration-purity equivalence.
//!
//! The serving layer must be a *pure orchestrator*: replaying the same
//! trace on any instance count, any scheduler policy, and any worker-pool
//! width yields identical per-request answers, and — with the story cache
//! off — every served inference is bit-identical to running the same
//! sample standalone on an [`Accelerator`]. With the cache on, hits may
//! shed CONTROL/WRITE cycles and upload time, but never touch the
//! READ/OUTPUT side of a run.

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_hw::{AccelConfig, Accelerator};
use mann_serve::{
    ArrivalTrace, FaultConfig, SchedulePolicy, ServeConfig, ServeOutcome, Server, TraceConfig,
};

fn suite() -> TaskSuite {
    let cfg = SuiteConfig {
        tasks: vec![
            TaskId::SingleSupportingFact,
            TaskId::TwoSupportingFacts,
            TaskId::AgentMotivations,
        ],
        train_samples: 120,
        test_samples: 16,
        seed: 21,
        ..SuiteConfig::quick()
    };
    TaskSuite::build(&cfg)
}

fn trace(suite: &TaskSuite) -> ArrivalTrace {
    ArrivalTrace::generate(
        &TraceConfig {
            requests: 80,
            seed: 7,
            mean_interarrival_s: 120e-6,
            ..TraceConfig::default()
        },
        suite,
    )
}

#[test]
fn instance_count_never_changes_a_result() {
    let s = suite();
    let t = trace(&s);
    // Cache off: service times are instance-independent, so the full
    // InferenceRun must replay identically on any replica count.
    let outcomes: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|instances| {
            let server = Server::new(
                &s,
                ServeConfig {
                    instances,
                    queue_capacity: 256,
                    story_cache: 0,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t)
        })
        .collect();
    let reference = &outcomes[0];
    assert_eq!(reference.completions.len(), t.len());
    for out in &outcomes[1..] {
        assert_eq!(out.completions.len(), reference.completions.len());
        for (a, b) in reference.completions.iter().zip(&out.completions) {
            assert_eq!(a.request, b.request);
            // The full InferenceRun — answer, logit path length, cycles —
            // is identical; only scheduling metadata may differ.
            assert_eq!(a.run, b.run);
            assert_eq!(a.correct, b.correct);
        }
        assert_eq!(out.report.answers_digest, reference.report.answers_digest);
        assert_eq!(out.report.accuracy, reference.report.accuracy);
        assert_eq!(out.report.phase_totals, reference.report.phase_totals);
    }
}

#[test]
fn cached_serving_preserves_answers_across_instance_counts() {
    let s = suite();
    let t = trace(&s);
    // With per-instance caches, *which* requests hit depends on the
    // replica count — but answers, comparisons and the READ/OUTPUT phases
    // never move.
    let outcomes: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|instances| {
            let server = Server::new(
                &s,
                ServeConfig {
                    instances,
                    queue_capacity: 256,
                    policy: SchedulePolicy::StoryAffinity,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t)
        })
        .collect();
    let reference = &outcomes[0];
    for out in &outcomes[1..] {
        assert_eq!(out.report.answers_digest, reference.report.answers_digest);
        assert_eq!(out.report.accuracy, reference.report.accuracy);
        for (a, b) in reference.completions.iter().zip(&out.completions) {
            assert_eq!(a.run.answer, b.run.answer);
            assert_eq!(a.run.comparisons, b.run.comparisons);
            assert_eq!(a.run.phases.addressing, b.run.phases.addressing);
            assert_eq!(a.run.phases.read, b.run.phases.read);
            assert_eq!(a.run.phases.controller, b.run.phases.controller);
            assert_eq!(a.run.phases.output, b.run.phases.output);
        }
    }
}

#[test]
fn served_runs_equal_standalone_accelerator_runs() {
    let s = suite();
    let t = trace(&s);
    let config = ServeConfig {
        instances: 3,
        story_cache: 0,
        ..ServeConfig::default()
    };
    let server = Server::new(&s, config.clone());
    let out = server.serve(&t);
    assert_eq!(out.completions.len(), t.len());

    // An independently constructed accelerator per task, exactly as a
    // standalone pipeline would run it.
    let standalone: Vec<Accelerator> = s
        .tasks
        .iter()
        .map(|task| {
            Accelerator::new(
                task.model.clone(),
                AccelConfig {
                    clock: config.clock,
                    pcie: config.pcie,
                    power: config.power,
                    ith: None,
                    use_ordering: true,
                    ..AccelConfig::default()
                },
            )
        })
        .collect();
    for c in &out.completions {
        let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
        let direct = standalone[c.request.task_idx].run(sample);
        assert_eq!(
            *c.run, direct,
            "request {} diverged from standalone",
            c.request.id
        );
        assert_eq!(c.correct, direct.answer == sample.answer);
    }
}

#[test]
fn reports_are_byte_identical_across_worker_pool_widths_and_engines() {
    let s = suite();
    let t = trace(&s);
    let serve_on = |workers| {
        Server::new(
            &s,
            ServeConfig {
                instances: 2,
                workers,
                ..ServeConfig::default()
            },
        )
        .serve(&t)
    };
    let auto = serve_on(0);
    let auto_json = serde_json::to_string(&auto.report).expect("serializable report");
    for workers in [1, 3, 17] {
        let pinned = serve_on(workers);
        assert_eq!(pinned, auto, "outcome changed on {workers} workers");
        assert_eq!(
            serde_json::to_string(&pinned.report).expect("serializable report"),
            auto_json,
            "report bytes changed on {workers} workers"
        );
    }
}

#[test]
fn policies_and_batching_preserve_the_answer_digest() {
    let s = suite();
    let t = trace(&s);
    let digest = |policy, upload_batch, inflight_limit| {
        let server = Server::new(
            &s,
            ServeConfig {
                instances: 3,
                policy,
                upload_batch,
                inflight_limit,
                queue_capacity: 256,
                ..ServeConfig::default()
            },
        );
        let out = server.serve(&t);
        assert_eq!(out.completions.len(), t.len());
        out.report.answers_digest
    };
    let reference = digest(SchedulePolicy::ShortestQueue, 4, 2);
    assert_eq!(digest(SchedulePolicy::RoundRobin, 4, 2), reference);
    assert_eq!(digest(SchedulePolicy::ShortestQueue, 1, 1), reference);
    assert_eq!(digest(SchedulePolicy::RoundRobin, 8, 4), reference);
    assert_eq!(digest(SchedulePolicy::StoryAffinity, 4, 2), reference);
    assert_eq!(digest(SchedulePolicy::StoryAffinity, 8, 4), reference);
}

/// The event loop replays arrivals in `(arrival, index)` order, so a trace
/// listed out of order serves like its sorted self, request by request.
/// The answer digest and float means fold in completion order, which
/// follows the listing, so only the per-id records are compared.
#[test]
fn an_out_of_order_trace_serves_like_its_sorted_self() {
    let s = suite();
    let sorted = ArrivalTrace::generate(
        &TraceConfig {
            requests: 120,
            seed: 13,
            mean_interarrival_s: 40e-6,
            ..TraceConfig::default()
        },
        &s,
    );
    // Reversing flips the index order of equal instants, so there are none.
    assert!(sorted
        .requests
        .windows(2)
        .all(|w| w[0].arrival < w[1].arrival));
    let mut reversed = sorted.clone();
    reversed.requests.reverse();
    let server = Server::new(
        &s,
        ServeConfig {
            queue_capacity: 6,
            faults: FaultConfig {
                seed: 3,
                link_corrupt_prob: 0.2,
                max_retries: 1,
                crashes: 2,
                watchdog_s: 300e-6,
                seus: 4,
                ..FaultConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let by_id = |out: ServeOutcome| {
        let ServeOutcome {
            mut completions,
            mut rejections,
            mut sheds,
            ..
        } = out;
        completions.sort_by_key(|c| c.request.id);
        rejections.sort_by_key(|r| r.request.id);
        sheds.sort_by_key(|r| r.id);
        (completions, rejections, sheds)
    };
    let expected = by_id(server.serve(&sorted));
    assert!(!expected.1.is_empty(), "the campaign rejects nothing");
    assert!(!expected.2.is_empty(), "the campaign sheds nothing");
    assert_eq!(by_id(server.serve(&reversed)), expected);
}
