//! Property tests for the fault-injection and recovery layer, and for
//! every serving lever in combination.
//!
//! Three invariants hold for *any* trace and fault campaign:
//!
//! 1. Conservation: the admitted requests are partitioned exactly between
//!    completions and sheds — every request is answered exactly once or
//!    counted shed, never both, never twice, and the report's shed
//!    counters agree with the outcome vectors.
//! 2. FIFO under retransmission: a corrupted transfer is retried in place
//!    (the arbiter keeps the link occupied through the backoff), so
//!    retransmission never reorders transfers — a request dispatched
//!    strictly earlier starts its upload no later.
//! 3. Inertness: a fault plan with nothing to inject is invisible — the
//!    outcome is byte-identical to a serve with no campaign at all.
//!
//! The conservation tests sample the other levers alongside the campaign
//! — batch window, hop pruning, the IVF index, WAL collection, the worker
//! count, and a fail-stopped cluster shard — because each was proven alone
//! when it landed. Every case is re-served on another worker count and
//! with WAL collection toggled, and must reproduce the same bytes.

use std::sync::OnceLock;

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_hw::MemIndexConfig;
use mann_serve::{
    ArrivalTrace, Cluster, ClusterConfig, Completion, FaultConfig, HopPrune, MembershipPlan,
    Rejection, Request, SchedulePolicy, ServeConfig, ServeOutcome, ServeReport, Server,
    TraceConfig, WalConfig,
};
use proptest::prelude::*;

fn suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        TaskSuite::build(&SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 120,
            test_samples: 12,
            seed: 5,
            ..SuiteConfig::quick()
        })
    })
}

fn trace(seed: u64, requests: usize, rate_us: u64, pool: usize) -> ArrivalTrace {
    ArrivalTrace::generate(
        &TraceConfig {
            requests,
            seed,
            mean_interarrival_s: rate_us as f64 * 1e-6,
            story_pool: pool,
        },
        suite(),
    )
}

fn policy(pick: u8) -> SchedulePolicy {
    match pick % 3 {
        0 => SchedulePolicy::RoundRobin,
        1 => SchedulePolicy::ShortestQueue,
        _ => SchedulePolicy::StoryAffinity,
    }
}

/// A worker count other than `workers`: the one-worker reference, or the
/// default pool when `workers` is already one.
fn other_width(workers: usize) -> usize {
    if workers == 1 {
        0
    } else {
        1
    }
}

fn hop_prune(on: bool) -> HopPrune {
    if on {
        HopPrune::with_threshold(0.8)
    } else {
        HopPrune::default()
    }
}

/// A small index for bAbI-length stories; its band trips a full-scan
/// fallback on about a quarter of the hops.
fn mem_index(on: bool) -> MemIndexConfig {
    if on {
        MemIndexConfig::with_params(4, 2, 1.0)
    } else {
        MemIndexConfig::default()
    }
}

/// WAL collection only: the pure serve gathers the journal and never
/// touches the directory.
fn wal_collection(on: bool) -> WalConfig {
    if on {
        WalConfig {
            enabled: true,
            dir: "unused-by-the-pure-serve".into(),
            ..WalConfig::default()
        }
    } else {
        WalConfig::default()
    }
}

fn serve(trace: &ArrivalTrace, config: ServeConfig) -> ServeOutcome {
    Server::new(suite(), config).serve(trace)
}

fn report_bytes(report: &impl serde::Serialize) -> String {
    serde_json::to_string(report).expect("serializable report")
}

/// Every trace id lands in exactly one of the three outcome vectors, and
/// every completion's timeline is causally ordered.
fn check_partition(
    trace: &ArrivalTrace,
    completions: &[Completion],
    rejections: &[Rejection],
    sheds: &[Request],
) {
    let mut seen = vec![0u32; trace.len()];
    for c in completions {
        seen[c.request.id as usize] += 1;
        assert!(
            c.timestamps.is_monotone(),
            "request {} timeline broken: {:?}",
            c.request.id,
            c.timestamps
        );
    }
    for s in sheds {
        seen[s.id as usize] += 1;
    }
    for r in rejections {
        seen[r.request.id as usize] += 1;
    }
    for (id, count) in seen.iter().enumerate() {
        assert_eq!(
            *count, 1,
            "request {id} appears {count} times across completions/sheds/rejections"
        );
    }
}

/// The instances' completions sum to the report's.
fn check_instances(report: &ServeReport) {
    let credited: u64 = report.instances.iter().map(|i| i.completed).sum();
    assert_eq!(credited, report.completed as u64, "instance completions");
}

/// Every answer equals a standalone `Accelerator::run` of its sample.
fn check_answers(completions: &[Completion]) {
    static ANSWERS: OnceLock<Vec<Vec<usize>>> = OnceLock::new();
    let answers = ANSWERS.get_or_init(|| {
        let server = Server::new(suite(), ServeConfig::default());
        suite()
            .tasks
            .iter()
            .enumerate()
            .map(|(t, task)| {
                let accel = server.accelerator(t);
                task.test_set.iter().map(|s| accel.run(s).answer).collect()
            })
            .collect()
    });
    for c in completions {
        assert_eq!(
            c.run.answer, answers[c.request.task_idx][c.request.sample_idx],
            "request {} answered off the standalone accelerator",
            c.request.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under an arbitrary combination of levers — a fault campaign
    /// (corruption + crashes + SEUs + overload degradation), a batch
    /// window, hop pruning, the IVF index, WAL collection and any worker
    /// count — completions, sheds and rejections partition the trace by
    /// id; the fault ledger matches the outcome vectors; every timeline is
    /// monotone; the instances' completions sum to the report's; neither
    /// WAL collection nor the worker count changes a byte; and with no lossy
    /// lever armed every answer is the standalone accelerator's.
    #[test]
    fn every_request_is_answered_once_or_shed(
        trace_seed in 0u64..1000,
        requests in 24usize..72,
        rate_us in 40u64..200,
        pool in 0usize..5,
        instances in 1usize..4,
        cache in 0usize..5,
        queue in 8usize..64,
        pick in any::<u8>(),
        fault_seed in 0u64..1000,
        corrupt_pct in 0u32..30,
        retries in 0u32..3,
        crashes in 0u32..4,
        watchdog_us in 200u64..900,
        seus in 0u32..8,
        depth in 0usize..10,
        margin_q in 0u32..6,
        batch_window in 0usize..5,
        prune in any::<bool>(),
        index in any::<bool>(),
        wal in any::<bool>(),
        workers in 0usize..4,
    ) {
        let t = trace(trace_seed, requests, rate_us, pool);
        let config = ServeConfig {
            instances,
            queue_capacity: queue,
            story_cache: cache,
            policy: policy(pick),
            workers,
            faults: FaultConfig {
                seed: fault_seed,
                link_corrupt_prob: f64::from(corrupt_pct) / 100.0,
                max_retries: retries,
                backoff_base_s: 2e-6,
                crashes,
                crash_cooldown_s: 300e-6,
                watchdog_s: watchdog_us as f64 * 1e-6,
                seus,
                degrade_depth: depth,
                degrade_margin: margin_q as f32 * 0.25,
                node_kills: 0,
            },
            batch_window,
            hop_prune: hop_prune(prune),
            mem_index: mem_index(index),
            wal: wal_collection(wal),
            ..ServeConfig::default()
        };
        let out = serve(&t, config.clone());

        check_partition(&t, &out.completions, &out.rejections, &out.sheds);
        prop_assert_eq!(out.report.completed, out.completions.len());
        prop_assert_eq!(out.report.rejected, out.rejections.len());
        prop_assert_eq!(out.wal_records.is_empty(), !wal);
        check_instances(&out.report);

        // The fault ledger agrees with the outcome vectors.
        let fr = &out.report.fault;
        prop_assert_eq!(fr.enabled, config.faults.is_active());
        if fr.enabled {
            prop_assert_eq!(fr.shed_link as usize, out.sheds.len());
            prop_assert_eq!(fr.shed_overload as usize, out.rejections.len());
            prop_assert_eq!(fr.link_corruptions, fr.retransmits + fr.retry_exhausted);
            prop_assert!(fr.failovers <= fr.watchdog_fires);
            prop_assert!(fr.crashes <= crashes as u64);
            prop_assert!(fr.seu_events <= u64::from(seus));
            prop_assert!(fr.scrubs <= fr.seu_events);
        } else {
            prop_assert!(out.sheds.is_empty());
        }
        let degraded = out
            .completions
            .iter()
            .filter(|c| c.degraded)
            .count() as u64;
        prop_assert!(degraded <= fr.degraded, "flagged {degraded} > ledger {}", fr.degraded);
        if !prune && !index && depth == 0 {
            check_answers(&out.completions);
        }

        // The worker count changes nothing, WAL collection only adds records.
        let other = serve(&t, ServeConfig { workers: other_width(workers), ..config.clone() });
        prop_assert_eq!(&other, &out);
        prop_assert_eq!(report_bytes(&other.report), report_bytes(&out.report));
        let toggled = serve(&t, ServeConfig { wal: wal_collection(!wal), ..config });
        prop_assert_eq!(&toggled.completions, &out.completions);
        prop_assert_eq!(report_bytes(&toggled.report), report_bytes(&out.report));
    }

    /// The same laws on a K=2/R=2 cluster whose shard 1 fail-stops at a
    /// sampled instant, with instance crashes, a batch window, WAL
    /// collection and any worker count on top: the stranded requests are
    /// exported and re-served by the replica, and the outcome still
    /// partitions the trace with every answer the accelerator's.
    #[test]
    fn fail_stopped_cluster_answers_every_request_once_or_sheds(
        trace_seed in 0u64..1000,
        requests in 24usize..72,
        rate_us in 40u64..200,
        pool in 0usize..5,
        cache in 0usize..5,
        pick in any::<u8>(),
        fault_seed in 0u64..1000,
        crashes in 0u32..3,
        fail_us in 100u64..4000,
        batch_window in 0usize..5,
        wal in any::<bool>(),
        workers in 0usize..4,
    ) {
        let t = trace(trace_seed, requests, rate_us, pool);
        let config = ClusterConfig {
            shards: 2,
            replication: 2,
            membership: MembershipPlan::parse_spec(&format!("fail=1@{fail_us}"))
                .expect("valid fail-stop plan"),
            base: ServeConfig {
                instances: 2,
                queue_capacity: 64,
                story_cache: cache,
                policy: policy(pick),
                workers,
                faults: FaultConfig {
                    seed: fault_seed,
                    crashes,
                    crash_cooldown_s: 300e-6,
                    watchdog_s: 250e-6,
                    ..FaultConfig::none()
                },
                batch_window,
                wal: wal_collection(wal),
                ..ServeConfig::default()
            },
            ..ClusterConfig::default()
        };
        let out = Cluster::new(suite(), config.clone()).serve(&t);

        check_partition(&t, &out.completions, &out.rejections, &out.sheds);
        let r = &out.report;
        prop_assert_eq!(r.completed + r.rejected + r.shed, t.len());
        prop_assert_eq!(r.membership.failures, 1);
        for shard in &r.per_shard {
            check_instances(shard);
        }
        check_answers(&out.completions);

        let other = Cluster::new(
            suite(),
            ClusterConfig {
                base: ServeConfig { workers: other_width(workers), ..config.base.clone() },
                ..config.clone()
            },
        )
        .serve(&t);
        prop_assert_eq!(&other, &out);
        prop_assert_eq!(report_bytes(&other.report), report_bytes(&out.report));
        let toggled = Cluster::new(
            suite(),
            ClusterConfig {
                base: ServeConfig { wal: wal_collection(!wal), ..config.base.clone() },
                ..config
            },
        )
        .serve(&t);
        prop_assert_eq!(report_bytes(&toggled.report), report_bytes(&out.report));
    }

    /// Corruption-only campaign (no crashes, so each request dispatches
    /// exactly once): retransmission holds the link in place, so the FIFO
    /// grant order is preserved — a request dispatched strictly earlier
    /// never starts its upload later than one dispatched after it.
    #[test]
    fn retransmission_never_reorders_link_transfers(
        trace_seed in 0u64..1000,
        requests in 24usize..72,
        rate_us in 60u64..250,
        pool in 0usize..5,
        instances in 1usize..4,
        cache in 0usize..5,
        pick in any::<u8>(),
        fault_seed in 0u64..1000,
        corrupt_pct in 5u32..40,
        retries in 0u32..4,
    ) {
        let t = trace(trace_seed, requests, rate_us, pool);
        let out = serve(&t, ServeConfig {
            instances,
            queue_capacity: 256,
            story_cache: cache,
            policy: policy(pick),
            faults: FaultConfig {
                seed: fault_seed,
                link_corrupt_prob: f64::from(corrupt_pct) / 100.0,
                max_retries: retries,
                backoff_base_s: 2e-6,
                ..FaultConfig::none()
            },
            ..ServeConfig::default()
        });

        // Per-completion lifecycle stays well-formed even through retries.
        for c in &out.completions {
            let ts = &c.timestamps;
            prop_assert!(ts.dispatch <= ts.upload_start);
            prop_assert!(ts.upload_start <= ts.upload_end);
            prop_assert!(ts.upload_end <= ts.compute_start);
        }

        // FIFO: sort by dispatch instant; every upload must start no
        // earlier than the latest upload of any strictly earlier dispatch.
        let mut order: Vec<_> = out
            .completions
            .iter()
            .map(|c| (c.timestamps.dispatch, c.request.id, c.timestamps.upload_start))
            .collect();
        order.sort();
        let mut i = 0;
        while i < order.len() {
            // Group equal-dispatch requests: their relative grant order is
            // an implementation detail, but the whole group must come
            // after everything dispatched strictly earlier.
            let mut j = i;
            while j < order.len() && order[j].0 == order[i].0 {
                j += 1;
            }
            if i > 0 {
                let earlier_max = order[..i].iter().map(|e| e.2).max().expect("nonempty");
                for e in &order[i..j] {
                    prop_assert!(
                        e.2 >= earlier_max,
                        "request {} (dispatch {:?}) uploaded at {:?}, before an \
                         earlier-dispatched request's upload at {:?}",
                        e.1, e.0, e.2, earlier_max
                    );
                }
            }
            i = j;
        }

        // The retry ledger is internally consistent.
        let fr = &out.report.fault;
        prop_assert_eq!(fr.link_corruptions, fr.retransmits + fr.retry_exhausted);
        prop_assert_eq!(fr.shed_link as usize, out.sheds.len());
        prop_assert_eq!(fr.crashes, 0);
        prop_assert_eq!(fr.failovers, 0);
        prop_assert_eq!(fr.scrubs, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A plan with nothing to inject is invisible: arming the campaign
    /// machinery (seed, watchdog, retry budget) without any fault source
    /// reproduces the plain serve byte-for-byte.
    #[test]
    fn zero_fault_plan_is_byte_identical_to_no_plan(
        trace_seed in 0u64..1000,
        requests in 16usize..48,
        rate_us in 80u64..300,
        pool in 0usize..5,
        instances in 1usize..4,
        fault_seed in any::<u64>(),
        watchdog_us in 0u64..900,
    ) {
        let t = trace(trace_seed, requests, rate_us, pool);
        let base = ServeConfig {
            instances,
            queue_capacity: 64,
            story_cache: 2,
            ..ServeConfig::default()
        };
        let idle = FaultConfig {
            seed: fault_seed,
            watchdog_s: watchdog_us as f64 * 1e-6,
            max_retries: 7,
            ..FaultConfig::none()
        };
        prop_assert!(!idle.is_active());
        let plain = serve(&t, base.clone());
        let armed = serve(&t, ServeConfig { faults: idle, ..base });
        prop_assert_eq!(&plain, &armed);
        prop_assert_eq!(
            serde_json::to_string(&plain.report).expect("serializable report"),
            serde_json::to_string(&armed.report).expect("serializable report"),
        );
    }
}
