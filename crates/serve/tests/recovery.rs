//! Integration tests for the durable story store.
//!
//! Four contracts hold end to end:
//!
//! 1. Journaling is pure: the `wal_records` a serve emits are a function
//!    of `(suite, trace, config)` alone — byte-identical across worker
//!    counts, and collecting them never perturbs the report.
//! 2. Zero-WAL configs are invisible: a report serialized without the
//!    WAL carries no `durability` key, and a durable run's report minus
//!    its durability section is byte-identical to the non-durable run.
//! 3. A `node_kill` is survivable and deterministic: the torn tail is
//!    detected, replay reconstructs the exact pre-crash story residency,
//!    and the recovered report's bytes are independent of the WAL
//!    directory and identical run to run.
//! 4. The on-disk journal is complete: replaying the WAL directory of a
//!    finished campaign reproduces every completion the report counted.

use std::path::PathBuf;
use std::sync::OnceLock;

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_serve::{
    serve_durable, ArrivalTrace, FaultConfig, SchedulePolicy, ServeConfig, Server, TraceConfig,
    WalConfig,
};
use mann_store::{replay_dir, StoreState, KIND_COMPLETION, KIND_STORY};
use serde::Serialize;

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

fn trace() -> ArrivalTrace {
    ArrivalTrace::generate(
        &TraceConfig {
            requests: 64,
            seed: 11,
            mean_interarrival_s: 60e-6,
            story_pool: 4,
        },
        suite(),
    )
}

/// A fresh scratch WAL directory; any leftover from a previous run is
/// removed so segment sequence numbers always start from zero.
fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mann_serve_recovery_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config() -> ServeConfig {
    ServeConfig {
        instances: 2,
        queue_capacity: 128,
        story_cache: 3,
        policy: SchedulePolicy::StoryAffinity,
        ..ServeConfig::default()
    }
}

fn durable_config(dir: &std::path::Path, snapshot_every: u64, node_kills: u32) -> ServeConfig {
    ServeConfig {
        faults: FaultConfig {
            node_kills,
            ..FaultConfig::none()
        },
        wal: WalConfig {
            enabled: true,
            dir: dir.display().to_string(),
            snapshot_every,
            ..WalConfig::default()
        },
        ..base_config()
    }
}

/// Contract 1: the journal a serve emits is width-invariant and
/// canonically ordered, and story records carry the quantized rows that
/// a replay needs to rebuild residency.
#[test]
fn journal_is_engine_invariant_and_canonical() {
    let t = trace();
    let dir = wal_dir("engine_invariant");
    let parallel = Server::new(suite(), durable_config(&dir, 0, 0)).serve(&t);
    let serial = Server::new(
        suite(),
        ServeConfig {
            workers: 1,
            ..durable_config(&dir, 0, 0)
        },
    )
    .serve(&t);

    assert!(
        !parallel.wal_records.is_empty(),
        "journal must not be empty"
    );
    assert_eq!(
        parallel.wal_records, serial.wal_records,
        "one worker and the default pool must journal identical records"
    );
    assert_eq!(
        parallel.report.to_value().print(),
        serial.report.to_value().print(),
        "journaling must not break width invariance of the report"
    );

    let mut sorted = parallel.wal_records.clone();
    sorted.sort_by(|a, b| {
        (a.stamp_ps, a.kind, a.id, a.task, a.digest)
            .cmp(&(b.stamp_ps, b.kind, b.id, b.task, b.digest))
    });
    assert_eq!(
        parallel.wal_records, sorted,
        "journal must be canonically ordered"
    );
    for rec in &parallel.wal_records {
        if rec.kind == KIND_STORY {
            assert!(
                !rec.rows.is_empty(),
                "story records must carry quantized rows"
            );
        } else {
            assert!(rec.rows.is_empty(), "only story records carry rows");
        }
    }
    let completions = parallel
        .wal_records
        .iter()
        .filter(|r| r.kind == KIND_COMPLETION)
        .count();
    assert_eq!(
        completions, parallel.report.completed,
        "every completed request must be journaled exactly once"
    );
}

/// Contract 2: the WAL is report-invisible. A non-durable report has no
/// `durability` key at all, and the durable report differs from it in
/// nothing but that section.
#[test]
fn zero_wal_configs_reproduce_non_durable_bytes() {
    let t = trace();
    let plain = Server::new(suite(), base_config()).serve(&t);
    assert!(
        !plain.report.to_value().print().contains("\"durability\""),
        "a non-durable report must not serialize a durability key"
    );

    let dir = wal_dir("invisible");
    let durable = serve_durable(&Server::new(suite(), durable_config(&dir, 16, 0)), &t)
        .expect("durable serve");
    assert!(durable.report.durability.enabled);
    assert_eq!(
        durable.report.sans_durability().to_value().print(),
        plain.report.to_value().print(),
        "the WAL may only add the durability section, never move other bytes"
    );
}

/// Contract 3: a node kill mid-campaign recovers deterministically — the
/// torn tail is detected and the report bytes are independent of the WAL
/// directory (two fresh dirs, identical bytes).
#[test]
fn node_kill_recovery_is_deterministic_and_dir_independent() {
    let t = trace();
    let dir_a = wal_dir("kill_a");
    let dir_b = wal_dir("kill_b");
    let a = serve_durable(&Server::new(suite(), durable_config(&dir_a, 16, 1)), &t)
        .expect("durable serve a");
    let b = serve_durable(&Server::new(suite(), durable_config(&dir_b, 16, 1)), &t)
        .expect("durable serve b");

    let d = &a.report.durability;
    assert_eq!(d.node_kills, 1, "exactly one node kill must fire");
    assert_eq!(d.torn_tails, 1, "the torn WAL tail must be detected");
    assert!(
        d.dropped_bytes > 0,
        "the half-written frame must be dropped"
    );
    assert!(d.replayed_records > 0, "recovery must replay the journal");
    assert!(d.recovery_mttr_s > 0.0, "replay must be charged to MTTR");
    assert!(
        d.redispatched > 0,
        "in-flight completions must be re-dispatched"
    );
    assert_eq!(
        a.report.to_value().print(),
        b.report.to_value().print(),
        "recovery bytes must not depend on the WAL directory"
    );

    // The kill-and-recover campaign is journal-level: the served answers
    // and every non-durability section still match the no-WAL run.
    let plain = Server::new(suite(), base_config()).serve(&t);
    assert_eq!(
        a.report.sans_durability().to_value().print(),
        plain.report.to_value().print(),
        "a recovered run must reproduce the no-crash report bytes"
    );
}

/// Contract 4: the finished on-disk journal is replayable and complete —
/// snapshots compacted old segments, and the fold over (snapshot + live
/// segments) counts exactly the completions the report published.
#[test]
fn finished_journal_replays_to_the_reported_completions() {
    let t = trace();
    let dir = wal_dir("replay_complete");
    let out = serve_durable(&Server::new(suite(), durable_config(&dir, 12, 0)), &t)
        .expect("durable serve");
    let d = &out.report.durability;
    assert!(d.snapshots > 0, "a small snapshot interval must snapshot");
    assert!(d.gc_segments > 0, "compaction must drop covered segments");
    assert!(
        d.fsync_s > 0.0,
        "fsyncs must be charged to the host cost model"
    );

    let replay = replay_dir(&dir).expect("strict replay of a clean journal");
    let state = StoreState::from_replay(replay.snapshot.as_ref(), &replay.records);
    assert_eq!(
        state.completion_count(),
        out.report.completed,
        "replaying the WAL directory must reproduce every reported completion"
    );
}

/// Misconfigurations are hard errors at startup, not silent fallbacks.
#[test]
fn misconfigured_durability_is_a_hard_error() {
    let cfg = ServeConfig {
        faults: FaultConfig {
            node_kills: 1,
            ..FaultConfig::none()
        },
        ..base_config()
    };
    let err = cfg
        .validate()
        .expect_err("node_kills without a WAL must fail");
    assert!(err.contains("write-ahead log"), "unexpected error: {err}");

    let enabled_without_dir = WalConfig {
        enabled: true,
        ..WalConfig::default()
    };
    assert!(enabled_without_dir.validate().is_err());
    assert!(WalConfig::parse("dir,snap=oops").is_err());
    assert!(WalConfig::parse("dir,wibble=3").is_err());
}
