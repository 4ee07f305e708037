//! Live-membership integration battery: churn campaigns (drain + fail +
//! join + retune + hot-key split) on a real cluster serve.
//!
//! The membership layer's contract:
//!
//! 1. A churn campaign loses nothing: completions + rejections + sheds
//!    still partition the trace by id, exactly once each — a drained or
//!    failed shard's work lands on a live replica, never on the floor
//!    and never twice.
//! 2. The campaign report is byte-identical across worker counts and
//!    shard-iteration order: liveness is resolved against the plan's
//!    timeline, never against event-loop state.
//! 3. An empty plan is invisible: no `membership` key in the JSON, no
//!    membership table in the render, bytes equal to a plain cluster.
//! 4. When every replica of a key is down, requests are shed through the
//!    dedicated unroutable counter — accounted, not dropped.
//! 5. A membership `fail` event composes with the WAL: the cut journal
//!    is naturally consistent and the campaign still answers everything
//!    a live shard could reach.
//! 6. The hot-key splitter fans one pathological story across its full
//!    replica set without changing a single answer.
//! 7. A retune fires on the live queue depth and divides the shard's
//!    weight for every request that arrives after it.

use std::collections::HashSet;
use std::sync::OnceLock;

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_hw::SimTime;
use mann_serve::{
    serve_cluster_durable, ArrivalTrace, Cluster, ClusterConfig, ClusterOutcome, MembershipPlan,
    SchedulePolicy, ServeConfig, ShardRouter, TraceConfig, WalConfig,
};
use mann_store::replay_dir;
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

/// One of everything: a join, a drain, a fail, queue-pressure retuning
/// and the hot-key splitter, on a K=4/R=2 cluster.
fn churn_plan() -> MembershipPlan {
    MembershipPlan::parse_spec(
        "join=3@800,drain=1@2000,fail=2@3000,retune-threshold=0.05,hot-key=8",
    )
    .expect("valid churn spec")
}

fn churn_config() -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        replication: 2,
        membership: churn_plan(),
        base: base_config(),
        ..ClusterConfig::default()
    }
}

/// Completions + rejections + sheds must partition the trace by id:
/// every request accounted exactly once, no matter how much the
/// membership churned under it.
fn assert_partition(out: &ClusterOutcome, t: &ArrivalTrace) {
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

#[test]
fn churn_campaign_loses_and_double_counts_nothing() {
    let t = trace(144, 41, 5);
    let out = Cluster::new(suite(), churn_config()).serve(&t);
    assert_partition(&out, &t);

    let m = &out.report.membership;
    assert!(m.enabled);
    assert_eq!(m.drains, 1);
    assert_eq!(m.failures, 1);
    assert_eq!(m.joins, 1);
    assert_eq!(m.epochs, m.timeline.len() + 1, "epoch 0 plus one per event");
    assert!(m.hot_keys > 0, "pool of 5 at threshold 8 must go hot");
    assert!(m.split_requests > 0);
    assert!(m.stories_moved > 0, "the drain must hand stories off");
    assert!(m.handoff_bytes > 0 && m.handoff_cycles > 0);
    assert!(m.handoff_s > 0.0 && m.handoff_energy_j > 0.0);
    assert!(m.tracked_keys > 0 && m.moved_keys > 0);
    assert!(
        m.moved_key_fraction > 0.0 && m.moved_key_fraction < 1.0,
        "moved-key fraction {} out of (0, 1)",
        m.moved_key_fraction
    );
    // The unroutable counter is the shed subset with no live replica; a
    // K=4 campaign losing 2 shards still has live coverage everywhere.
    assert_eq!(m.unroutable_shed, out.unroutable.len() as u64);
}

#[test]
fn churn_report_is_engine_thread_and_order_invariant() {
    let t = trace(96, 17, 5);
    let config = churn_config();
    let bytes = |workers| {
        let pinned = ClusterConfig {
            base: ServeConfig {
                workers,
                ..config.base.clone()
            },
            ..config.clone()
        };
        Cluster::new(suite(), pinned)
            .serve(&t)
            .report
            .to_value()
            .print()
    };
    let auto = bytes(0);
    for workers in [1, 4] {
        assert_eq!(
            bytes(workers),
            auto,
            "churn bytes changed on {workers} workers"
        );
    }

    let cluster = Cluster::new(suite(), config);
    let identity = cluster.serve_in_order(&t, &[0, 1, 2, 3]);
    assert_eq!(identity.report.to_value().print(), auto);
    for order in [[3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]] {
        let permuted = cluster.serve_in_order(&t, &order);
        assert_eq!(permuted, identity, "outcome changed under order {order:?}");
    }
}

#[test]
fn empty_plan_is_byte_invisible() {
    let t = trace(72, 23, 4);
    let with_none = ClusterConfig {
        shards: 3,
        replication: 2,
        membership: MembershipPlan::none(),
        base: base_config(),
        ..ClusterConfig::default()
    };
    let plain = ClusterConfig {
        shards: 3,
        replication: 2,
        base: base_config(),
        ..ClusterConfig::default()
    };
    let out = Cluster::new(suite(), with_none).serve(&t);
    let reference = Cluster::new(suite(), plain).serve(&t);
    assert!(!out.report.membership.enabled);
    let printed = out.report.to_value().print();
    assert_eq!(
        printed,
        reference.report.to_value().print(),
        "an explicit empty plan must serve byte-identically to none"
    );
    assert!(
        !printed.contains("\"membership\""),
        "empty plan must not serialize a membership key"
    );
    assert!(
        !out.report.render().contains("membership"),
        "empty plan must not render a membership table"
    );
}

/// Contract 4: fail every shard's replica set and the stranded tail is
/// shed through the dedicated unroutable counter — never a panic, never
/// a silent drop, and still a perfect partition of the trace.
#[test]
fn all_replicas_down_requests_shed_with_their_own_counter() {
    let t = trace(64, 29, 4);
    let out = Cluster::new(
        suite(),
        ClusterConfig {
            shards: 2,
            replication: 2,
            membership: MembershipPlan::parse_spec("fail=0@1200,fail=1@1800")
                .expect("valid double-failure spec"),
            base: base_config(),
            ..ClusterConfig::default()
        },
    )
    .serve(&t);
    assert_partition(&out, &t);
    assert!(
        !out.unroutable.is_empty(),
        "a 64-request trace outliving both shards must strand arrivals"
    );
    assert_eq!(
        out.report.membership.unroutable_shed,
        out.unroutable.len() as u64
    );
    let shed_ids: HashSet<u64> = out.sheds.iter().map(|r| r.id).collect();
    for id in &out.unroutable {
        assert!(
            shed_ids.contains(id),
            "unroutable {id} must land in the shed set"
        );
    }
    assert_eq!(out.report.membership.failures, 2);
}

/// Contract 5: a membership `fail` composes with the WAL — the journal
/// simply ends at the cut, recovery has nothing to repair (a strict
/// replay of the failed shard's directory finds no torn tail and no
/// record stamped after the cut), and answers match the non-durable
/// campaign exactly.
#[test]
fn membership_failure_composes_with_the_wal() {
    let t = trace(64, 11, 4);
    let dir = std::env::temp_dir().join("mann_serve_membership_wal");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = MembershipPlan::parse_spec("fail=1@1500").expect("valid spec");
    let cut = plan.events[0].at().ps();
    let durable_cfg = ClusterConfig {
        shards: 2,
        replication: 2,
        membership: plan.clone(),
        base: ServeConfig {
            wal: WalConfig {
                enabled: true,
                dir: dir.display().to_string(),
                ..WalConfig::default()
            },
            ..base_config()
        },
        ..ClusterConfig::default()
    };
    let plain_cfg = ClusterConfig {
        shards: 2,
        replication: 2,
        membership: plan,
        base: base_config(),
        ..ClusterConfig::default()
    };
    let durable = serve_cluster_durable(&Cluster::new(suite(), durable_cfg), &t)
        .expect("durable churn campaign");
    let plain = Cluster::new(suite(), plain_cfg).serve(&t);
    assert_partition(&durable, &t);
    assert_eq!(durable.report.membership.failures, 1);
    assert_eq!(
        durable.report.answers_digest, plain.report.answers_digest,
        "journaling must not change a single answer"
    );
    assert_eq!(durable.completions.len(), plain.completions.len());
    assert!(durable.report.durability.enabled);
    let replay = replay_dir(&dir.join("shard-1")).expect("the cut journal replays strictly");
    assert!(
        !replay.records.is_empty(),
        "shard 1 journaled before its cut"
    );
    for r in &replay.records {
        assert!(
            r.stamp_ps <= cut,
            "record stamped {} ps after the cut",
            r.stamp_ps
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 6: on a single pathological story, the splitter fans traffic
/// across the full replica set — more shards busy, same answers.
#[test]
fn hot_key_splitter_spreads_a_pathological_story() {
    let t = trace(96, 37, 1);
    let busy = |plan: MembershipPlan| {
        let out = Cluster::new(
            suite(),
            ClusterConfig {
                shards: 4,
                replication: 4,
                membership: plan,
                base: base_config(),
                ..ClusterConfig::default()
            },
        )
        .serve(&t);
        let shards_busy = out
            .report
            .per_shard
            .iter()
            .filter(|r| r.requests > 0)
            .count();
        (shards_busy, out.report.answers_digest.clone(), out)
    };
    let (cold_busy, cold_digest, _) = busy(MembershipPlan::none());
    let (hot_busy, hot_digest, hot_out) =
        busy(MembershipPlan::parse_spec("hot-key=8").expect("valid spec"));
    assert!(
        hot_busy > cold_busy,
        "splitter must spread load: {hot_busy} busy shards vs {cold_busy}"
    );
    assert_eq!(hot_busy, 4, "R=4 fan-out must reach every shard");
    assert_eq!(
        hot_digest, cold_digest,
        "splitting a hot key must not change answers"
    );
    let m = &hot_out.report.membership;
    assert!(m.hot_keys >= 1);
    assert!(m.split_requests > 0);
    assert_partition(&hot_out, &t);
}

/// The routing key a request hashes under: its story digest mixed with
/// the task index.
fn route_key(r: &mann_serve::Request) -> u64 {
    let sample = &suite().tasks[r.task_idx].test_set[r.sample_idx];
    mann_hw::story_digest(sample) ^ (r.task_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Contract 7: at weight 4 a retune halves a shard's weight to 2, which
/// moves keys; every request arriving after a retune instant lands on the
/// primary of the divided weights, and every earlier one on the base
/// weights' primary.
#[test]
fn a_retune_moves_keys_and_routes_later_arrivals_by_the_divided_weights() {
    let t = trace(192, 41, 12);
    let base = vec![4; 4];
    let out = Cluster::new(
        suite(),
        ClusterConfig {
            shards: 4,
            replication: 1,
            weights: base.clone(),
            membership: MembershipPlan::parse_spec("retune-threshold=0.02,retune-factor=2")
                .expect("valid spec"),
            base: base_config(),
        },
    )
    .serve(&t);
    assert_partition(&out, &t);
    assert!(out.rejections.is_empty() && out.sheds.is_empty());
    let retunes: Vec<(SimTime, usize)> = out
        .report
        .membership
        .timeline
        .iter()
        .filter(|e| e.kind == "retune")
        .map(|e| (SimTime::from_s(e.at_s), e.shard))
        .collect();
    assert!(!retunes.is_empty(), "queue pressure must retune a shard");
    assert_eq!(out.report.membership.retunes, retunes.len() as u64);
    assert!(
        out.report
            .membership
            .timeline
            .iter()
            .any(|e| e.kind == "retune" && e.moved_keys > 0),
        "halving a weight-4 shard must move keys"
    );
    let mut after = 0;
    for (c, &shard) in out.completions.iter().zip(&out.completion_shards) {
        let at = c.request.arrival;
        if retunes.iter().any(|&(r, _)| r == at) {
            continue; // routed before or after the retune at its instant
        }
        let mut weights = base.clone();
        for &(_, s) in retunes.iter().filter(|&&(r, _)| r < at) {
            weights[s] /= 2;
        }
        after += usize::from(weights != base);
        assert_eq!(
            shard,
            ShardRouter::with_weights(weights.clone()).primary(route_key(&c.request)),
            "request {} arriving at {at:?} under weights {weights:?}",
            c.request.id
        );
    }
    assert!(after > 0, "no request arrived after the first retune");
}
