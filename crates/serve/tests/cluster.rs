//! Cluster test battery: determinism, single-node reduction, cross-shard
//! failover, and pooled-percentile aggregation.
//!
//! The cluster layer's contract:
//!
//! 1. A [`ClusterReport`] is byte-identical across worker counts and
//!    shard-iteration order.
//! 2. At K=1/R=1 the layer is inert: outcome and report bytes equal the
//!    single-node [`Server`] path exactly.
//! 3. With R ≥ 2, a request stranded by an instance crash completes on
//!    the story's replica shard; MTTR is accounted; completions + sheds +
//!    rejections still partition the trace — nothing is double-completed.
//! 4. Fleet latency percentiles are ranked over the pooled raw samples,
//!    never averaged per shard.
//! 5. Every shard's boards live on one timeline: a failover is an arrival
//!    on the replica's own queue, so no board computes two groups at once
//!    and each board is charged one idle-power window.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_serve::{
    ArrivalTrace, Cluster, ClusterConfig, FaultConfig, LatencySummary, MembershipPlan,
    SchedulePolicy, ServeConfig, Server, TraceConfig,
};
use serde::Serialize;

fn suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        TaskSuite::build(&SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 100,
            test_samples: 12,
            seed: 5,
            ..SuiteConfig::quick()
        })
    })
}

fn trace(requests: usize, seed: u64, pool: usize) -> ArrivalTrace {
    ArrivalTrace::generate(
        &TraceConfig {
            requests,
            seed,
            mean_interarrival_s: 50e-6,
            story_pool: pool,
        },
        suite(),
    )
}

fn base_config() -> ServeConfig {
    ServeConfig {
        instances: 2,
        queue_capacity: 128,
        story_cache: 4,
        policy: SchedulePolicy::StoryAffinity,
        ..ServeConfig::default()
    }
}

fn crash_campaign() -> FaultConfig {
    FaultConfig {
        seed: 9,
        crashes: 3,
        crash_cooldown_s: 600e-6,
        watchdog_s: 250e-6,
        ..FaultConfig::none()
    }
}

fn report_bytes(cluster: &Cluster<'_>, t: &ArrivalTrace) -> String {
    cluster.serve(t).report.to_value().print()
}

#[test]
fn cluster_report_is_engine_and_thread_invariant() {
    let t = trace(96, 17, 5);
    let config = ClusterConfig {
        shards: 3,
        replication: 2,
        base: ServeConfig {
            faults: crash_campaign(),
            ..base_config()
        },
        ..ClusterConfig::default()
    };
    let auto = report_bytes(&Cluster::new(suite(), config.clone()), &t);
    for workers in [1, 4] {
        let pinned = ClusterConfig {
            base: ServeConfig {
                workers,
                ..config.base.clone()
            },
            ..config.clone()
        };
        assert_eq!(
            report_bytes(&Cluster::new(suite(), pinned), &t),
            auto,
            "cluster bytes changed on {workers} workers"
        );
    }
}

#[test]
fn k1_r1_cluster_is_byte_identical_to_single_node() {
    let t = trace(72, 23, 4);
    // Faults armed so the reduction also covers the campaign path.
    let base = ServeConfig {
        faults: crash_campaign(),
        ..base_config()
    };
    let single = Server::new(suite(), base.clone()).serve(&t);
    let cluster = Cluster::new(
        suite(),
        ClusterConfig {
            shards: 1,
            replication: 1,
            base,
            ..ClusterConfig::default()
        },
    )
    .serve(&t);
    assert_eq!(
        cluster.report.to_value().print(),
        single.report.to_value().print(),
        "inert cluster must serialize as the single-node report"
    );
    assert_eq!(
        cluster.report.render(),
        single.report.render(),
        "inert cluster must render as the single-node report"
    );
    assert_eq!(cluster.completions, single.completions);
    assert_eq!(cluster.rejections, single.rejections);
    assert_eq!(cluster.sheds, single.sheds);
    assert!(cluster.failovers.is_empty());
}

/// The outcome is the same whatever order the shards are stepped in. The
/// second campaign fail-stops two of three shards at one instant, so both
/// strand work onto the survivor at once: what they hand over is
/// delivered after every shard event at that instant, in request-id
/// order, never in stepping order.
#[test]
fn shard_iteration_order_is_immaterial() {
    let crashes = Cluster::new(
        suite(),
        ClusterConfig {
            shards: 4,
            replication: 2,
            base: ServeConfig {
                faults: crash_campaign(),
                ..base_config()
            },
            ..ClusterConfig::default()
        },
    );
    let simultaneous = Cluster::new(
        suite(),
        ClusterConfig {
            shards: 3,
            replication: 2,
            membership: MembershipPlan::parse_spec("fail=1@800,fail=2@800").expect("valid plan"),
            base: base_config(),
            ..ClusterConfig::default()
        },
    );
    let campaigns: [(&Cluster<'_>, ArrivalTrace, &[&[usize]]); 2] = [
        (
            &crashes,
            trace(96, 31, 5),
            &[&[0, 1, 2, 3], &[3, 2, 1, 0], &[2, 0, 3, 1], &[1, 3, 0, 2]],
        ),
        (
            &simultaneous,
            trace(128, 31, 5),
            &[&[0, 1, 2], &[2, 1, 0], &[1, 2, 0], &[0, 2, 1]],
        ),
    ];
    for (cluster, t, orders) in campaigns {
        let identity = cluster.serve_in_order(&t, orders[0]);
        for order in &orders[1..] {
            let permuted = cluster.serve_in_order(&t, order);
            assert_eq!(permuted, identity, "outcome changed under order {order:?}");
            assert_eq!(
                permuted.report.to_value().print(),
                identity.report.to_value().print(),
                "report bytes changed under order {order:?}"
            );
        }
    }
    let stranded = simultaneous.serve(&trace(128, 31, 5));
    for s in [1, 2] {
        let r = &stranded.report.per_shard[s];
        assert!(
            r.requests > r.completed + r.rejected,
            "shard {s} strands nothing at its fail-stop"
        );
    }
}

#[test]
#[should_panic(expected = "permutation")]
fn bad_shard_order_is_rejected() {
    let t = trace(8, 1, 2);
    let cluster = Cluster::new(
        suite(),
        ClusterConfig {
            shards: 2,
            ..ClusterConfig::default()
        },
    );
    let _ = cluster.serve_in_order(&t, &[0, 0]);
}

/// Arms an instance-crash plan on every shard, as the cluster golden and
/// `cluster_churn` do, and proves the cross-shard failover contract end
/// to end.
#[test]
fn cross_shard_failover_rescues_stranded_requests() {
    let t = trace(144, 41, 4);
    let out = Cluster::new(
        suite(),
        ClusterConfig {
            shards: 3,
            replication: 2,
            base: ServeConfig {
                faults: FaultConfig {
                    seed: 13,
                    crashes: 5,
                    crash_cooldown_s: 900e-6,
                    watchdog_s: 200e-6,
                    ..FaultConfig::none()
                },
                ..base_config()
            },
            ..ClusterConfig::default()
        },
    )
    .serve(&t);

    // The campaign bit: requests were stranded and handed cross-shard.
    let fo = &out.report.failover;
    assert!(fo.exports > 0, "campaign stranded nothing — tune the plan");
    assert!(!out.failovers.is_empty());
    assert_eq!(fo.completed + fo.lost, fo.exports);
    assert!(fo.replay_link_bytes > 0, "replicas must pay the re-upload");
    assert!(fo.mean_failover_latency_s > 0.0);

    // Every affected request completed on a replica shard.
    let completed_ids: HashSet<u64> = out.completions.iter().map(|c| c.request.id).collect();
    assert_eq!(fo.lost, 0, "every stranded request must complete");
    for id in &out.failovers {
        assert!(completed_ids.contains(id), "failover {id} never completed");
    }
    // MTTR of the instance crashes is accounted in the merged FaultReport.
    assert!(out.report.fault.enabled);
    assert!(out.report.fault.mttr_instance_s > 0.0);
    assert!(out.report.fault.failovers >= fo.exports);

    // Zero double-completions: completions + rejections + sheds partition
    // the trace by id, exactly once each.
    let mut seen: Vec<u64> = out
        .completions
        .iter()
        .map(|c| c.request.id)
        .chain(out.rejections.iter().map(|r| r.request.id))
        .chain(out.sheds.iter().map(|r| r.id))
        .collect();
    let total = seen.len();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), total, "a request was accounted twice");
    let all: Vec<u64> = t.requests.iter().map(|r| r.id).collect();
    assert_eq!(seen, all, "partition does not cover the trace");
    assert_eq!(
        out.report.completed + out.report.rejected + out.report.shed,
        t.len()
    );
}

/// Fleet percentiles come from the pooled samples: the report's latency
/// summary equals a direct summary of every completion's end-to-end
/// latency, and differs from the (wrong) mean of per-shard p99s on a
/// skewed campaign.
#[test]
fn fleet_latency_is_pooled_not_averaged() {
    let t = trace(192, 47, 6);
    // Weight skew concentrates load: the heavy shard queues deep and grows
    // a latency tail the light shards never see.
    let out = Cluster::new(
        suite(),
        ClusterConfig {
            shards: 2,
            replication: 1,
            weights: vec![6, 1],
            base: ServeConfig {
                instances: 1,
                ..base_config()
            },
            ..ClusterConfig::default()
        },
    )
    .serve(&t);
    let arrival: HashMap<u64, _> = t.requests.iter().map(|r| (r.id, r.arrival)).collect();
    let samples: Vec<f64> = out
        .completions
        .iter()
        .map(|c| {
            c.timestamps
                .drain_end
                .saturating_sub(arrival[&c.request.id])
                .as_s()
        })
        .collect();
    assert_eq!(
        out.report.latency,
        LatencySummary::from_pooled([samples.as_slice()]),
        "report latency must summarize the pooled samples"
    );
    let mean_of_p99s: f64 = out
        .report
        .per_shard
        .iter()
        .map(|r| r.latency.p99_s)
        .sum::<f64>()
        / out.report.per_shard.len() as f64;
    let pooled_p99 = out.report.latency.p99_s;
    assert!(
        (pooled_p99 - mean_of_p99s).abs() / pooled_p99 > 0.05,
        "skewed campaign failed to separate pooled p99 {pooled_p99:.6} \
         from mean-of-p99s {mean_of_p99s:.6}"
    );
}

/// Routing never changes an answer: the completion digest is invariant
/// across shard counts.
#[test]
fn answers_digest_is_invariant_across_shard_counts() {
    let t = trace(96, 53, 5);
    let digest = |shards: usize| {
        Cluster::new(
            suite(),
            ClusterConfig {
                shards,
                replication: 1,
                base: base_config(),
                ..ClusterConfig::default()
            },
        )
        .serve(&t)
        .report
        .answers_digest
    };
    let reference = digest(1);
    assert_eq!(digest(2), reference);
    assert_eq!(digest(4), reference);
}

/// A K=4/R=2 campaign whose instance crashes fail requests over to their
/// story's replica shard: the `serve_cluster` golden's stack on a longer,
/// denser trace.
fn failover_campaign() -> (ClusterConfig, ArrivalTrace) {
    let config = ClusterConfig {
        shards: 4,
        replication: 2,
        base: ServeConfig {
            faults: FaultConfig {
                seed: 9,
                crashes: 3,
                crash_cooldown_s: 500e-6,
                watchdog_s: 250e-6,
                ..FaultConfig::none()
            },
            ..base_config()
        },
        ..ClusterConfig::default()
    };
    (config, trace(480, 43, 6))
}

/// No (shard, instance) runs two compute groups over overlapping
/// `[compute_start, compute_end)` intervals; the members of a fused group
/// share one interval.
#[test]
fn no_board_computes_two_groups_at_once() {
    let (config, t) = failover_campaign();
    let out = Cluster::new(suite(), config).serve(&t);
    assert!(
        out.report.failover.completed > 0,
        "campaign failed nothing over — tune the plan"
    );
    let mut groups: Vec<_> = out
        .completions
        .iter()
        .zip(&out.completion_shards)
        .map(|(c, &shard)| {
            let ts = c.timestamps;
            (shard, c.instance, ts.compute_start, ts.compute_end)
        })
        .collect();
    groups.sort_unstable();
    groups.dedup();
    for w in groups.windows(2) {
        let ((shard, instance, start, end), next) = (w[0], w[1]);
        if (next.0, next.1) == (shard, instance) {
            assert!(
                end <= next.2,
                "shard {shard} instance {instance} computes [{start:?}, {end:?}) \
                 and [{:?}, {:?}) at once",
                next.2,
                next.3
            );
        }
    }
}

/// Fleet energy is the shards' energies, and each board is charged its
/// busy time inside its shard's one idle-power window.
#[test]
fn each_board_is_charged_one_idle_window() {
    let (config, t) = failover_campaign();
    let base = config.base.clone();
    let out = Cluster::new(suite(), config).serve(&t);
    assert!(out.report.failover.completed > 0);
    let r = &out.report;
    let shards: f64 = r.per_shard.iter().map(|s| s.total_energy_j).sum();
    assert!(
        (r.total_energy_j - shards).abs() <= 1e-12 * shards,
        "fleet energy {} J is not the shards' {shards} J",
        r.total_energy_j
    );
    for (s, shard) in r.per_shard.iter().enumerate() {
        for inst in &shard.instances {
            let window = base.power.interval_energy_j(
                base.clock.freq_mhz(),
                inst.busy_s,
                shard.makespan_s,
                base.use_ith,
            );
            assert_eq!(
                inst.energy_j, window,
                "shard {s} instance {} is not charged one window",
                inst.instance
            );
        }
    }
}
