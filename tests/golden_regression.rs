//! Golden regression net over the numbers the paper reports.
//!
//! A pinned small workload (2 tasks, fixed seeds) is pushed through the
//! Table I / Fig 3 / Fig 4 runners, the cycle-level accelerator, and the
//! serving layer; the serialized outputs are diffed against the fixtures
//! in `tests/golden/`. Integer fields (cycle counts, comparison counts,
//! grant totals) must match **exactly**; derived floats (seconds, watts,
//! normalized ratios) get a tight relative tolerance.
//!
//! # Re-blessing
//!
//! When a change *intentionally* moves these numbers, regenerate the
//! fixtures and commit them together with the change:
//!
//! ```sh
//! MANN_BLESS=1 cargo test --test golden_regression
//! git diff tests/golden/   # review every shifted number
//! ```
//!
//! A blessing run rewrites the fixtures and passes; the diff is the
//! review artifact.

use std::path::PathBuf;
use std::sync::OnceLock;

use mann_accel::babi::TaskId;
use mann_accel::core::experiments::{fig3, fig4, table1};
use mann_accel::core::{SuiteConfig, TaskSuite};
use mann_accel::hw::{AccelConfig, Accelerator, MemIndexConfig};
use mann_accel::serve::{
    serve_cluster_durable, ArrivalTrace, Cluster, ClusterConfig, FaultConfig, HopPrune,
    MembershipPlan, NumericPolicy, SchedulePolicy, ServeConfig, Server, TraceConfig, WalConfig,
};
use serde::json::Value;
use serde::Serialize;

/// Relative tolerance for derived floats. The pipeline is deterministic on
/// one platform; the slack only absorbs cross-platform libm differences.
const FLOAT_RTOL: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        TaskSuite::build(&SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 200,
            test_samples: 20,
            seed: 29,
            ..SuiteConfig::quick()
        })
    })
}

/// Diffs `actual` against the fixture `name`, or rewrites the fixture when
/// `MANN_BLESS=1`.
fn check_golden(name: &str, actual: &Value) {
    let path = golden_dir().join(name);
    if std::env::var("MANN_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        let mut pretty = actual.print_pretty();
        pretty.push('\n');
        std::fs::write(&path, pretty).expect("write fixture");
        eprintln!("[golden] blessed {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\nrun `MANN_BLESS=1 cargo test --test golden_regression` \
             to generate it",
            path.display()
        )
    });
    let expected = serde::json::parse(&raw).expect("parse fixture");
    let mut diffs = Vec::new();
    diff_value("$", &expected, actual, &mut diffs);
    diffs.truncate(20); // the first few diffs identify the drift
    assert!(
        diffs.is_empty(),
        "{name} drifted from its golden fixture:\n  {}\nif the change is intentional, re-bless \
         with `MANN_BLESS=1 cargo test --test golden_regression` and commit the diff",
        diffs.join("\n  ")
    );
}

/// Recursive diff: exact for integers, strings, bools and shapes; relative
/// tolerance for floats.
fn diff_value(path: &str, expected: &Value, actual: &Value, diffs: &mut Vec<String>) {
    match (expected, actual) {
        (Value::Object(e), Value::Object(a)) => {
            for (key, ev) in e {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => diff_value(&format!("{path}.{key}"), ev, av, diffs),
                    None => diffs.push(format!("{path}.{key}: missing from output")),
                }
            }
            for (key, _) in a {
                if !e.iter().any(|(k, _)| k == key) {
                    diffs.push(format!("{path}.{key}: not in fixture"));
                }
            }
        }
        (Value::Array(e), Value::Array(a)) => {
            if e.len() != a.len() {
                diffs.push(format!("{path}: length {} != {}", e.len(), a.len()));
                return;
            }
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                diff_value(&format!("{path}[{i}]"), ev, av, diffs);
            }
        }
        (Value::Num(e), Value::Num(a)) => {
            // Integer literals are compared exactly — cycle counts,
            // comparison counts and grant totals may not drift by even one.
            if let (Ok(ei), Ok(ai)) = (e.parse::<i128>(), a.parse::<i128>()) {
                if ei != ai {
                    diffs.push(format!("{path}: {ei} != {ai} (exact integer)"));
                }
                return;
            }
            let (ef, af) = (
                e.parse::<f64>().expect("numeric fixture"),
                a.parse::<f64>().expect("numeric output"),
            );
            let scale = ef.abs().max(af.abs()).max(1e-300);
            if (ef - af).abs() / scale > FLOAT_RTOL {
                diffs.push(format!("{path}: {ef} != {af} (rtol {FLOAT_RTOL})"));
            }
        }
        _ => {
            if expected != actual {
                diffs.push(format!(
                    "{path}: {} != {}",
                    expected.print(),
                    actual.print()
                ));
            }
        }
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The value column of the rendered table row labelled `label`.
fn row<'a>(text: &'a str, label: &str) -> &'a str {
    text.lines()
        .find_map(|l| l.strip_prefix(label))
        .unwrap_or_else(|| panic!("no {label:?} row in:\n{text}"))
        .trim()
}

#[test]
fn table1_numbers_are_pinned() {
    let t = table1::run(suite(), &table1::Table1Config::default());
    check_golden("table1.json", &t.to_value());
}

#[test]
fn fig3_numbers_are_pinned() {
    let f = fig3::run(suite(), &fig3::Fig3Config::default());
    check_golden("fig3.json", &f.to_value());
}

#[test]
fn fig4_numbers_are_pinned() {
    let f = fig4::run(suite());
    check_golden("fig4.json", &f.to_value());
}

/// Per-sample cycle counts of the cycle-level accelerator, with and
/// without ITH — the exact integers behind Table I's FPGA rows.
#[test]
fn accelerator_cycle_counts_are_pinned() {
    let s = suite();
    let mut tasks = Vec::new();
    for task in &s.tasks {
        let exact = Accelerator::new(task.model.clone(), AccelConfig::default());
        let ith = Accelerator::new(
            task.model.clone(),
            AccelConfig::with_thresholding(AccelConfig::default().clock, task.ith.clone()),
        );
        let samples: Vec<Value> = task
            .test_set
            .iter()
            .map(|sample| {
                let e = exact.run(sample);
                let i = ith.run(sample);
                obj(vec![
                    (
                        "exact",
                        obj(vec![
                            ("cycles", e.cycles.to_value()),
                            ("phases", e.phases.to_value()),
                            ("comparisons", e.comparisons.to_value()),
                            ("answer", e.answer.to_value()),
                        ]),
                    ),
                    (
                        "ith",
                        obj(vec![
                            ("cycles", i.cycles.to_value()),
                            ("phases", i.phases.to_value()),
                            ("comparisons", i.comparisons.to_value()),
                            ("answer", i.answer.to_value()),
                            ("speculated", i.speculated.to_value()),
                        ]),
                    ),
                ])
            })
            .collect();
        tasks.push(obj(vec![
            ("task", task.task.to_string().to_value()),
            ("samples", Value::Array(samples)),
        ]));
    }
    check_golden(
        "accel_cycles.json",
        &obj(vec![("tasks", Value::Array(tasks))]),
    );
}

/// The serving layer's report on a pinned trace: latency percentiles,
/// occupancy, link accounting, cache-hit statistics, energy and the
/// answers digest.
#[test]
fn serve_report_is_pinned() {
    let s = suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 31,
            mean_interarrival_s: 150e-6,
            ..TraceConfig::default()
        },
        s,
    );
    let server = Server::new(
        s,
        ServeConfig {
            instances: 2,
            queue_capacity: 128,
            ..ServeConfig::default()
        },
    );
    let out = server.serve(&trace);
    check_golden("serve_report.json", &out.report.to_value());
}

/// A story-affinity serve over a few-stories/many-questions trace: pins the
/// affinity scheduler's dispatch pattern, the per-instance cache hit
/// counters and the write-cycle/upload savings.
#[test]
fn serve_affinity_report_is_pinned() {
    let s = suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 37,
            mean_interarrival_s: 130e-6,
            story_pool: 4,
        },
        s,
    );
    let config = ServeConfig {
        instances: 3,
        queue_capacity: 128,
        story_cache: 2,
        policy: SchedulePolicy::StoryAffinity,
        ..ServeConfig::default()
    };
    let out = Server::new(s, config.clone()).serve(&trace);

    // One worker reproduces the default pool's cache decisions.
    let serial = Server::new(
        s,
        ServeConfig {
            workers: 1,
            ..config
        },
    )
    .serve(&trace);
    assert_eq!(
        serial.report.to_value().print(),
        out.report.to_value().print()
    );
    assert_eq!(serial.report.render(), out.report.render());

    check_golden("serve_affinity.json", &out.report.to_value());
}

/// A seeded fault campaign over a repeated-story trace: link corruption
/// with bounded retries, instance crashes with watchdog failover, SEU
/// scrubbing of resident stories, and overload degradation. Pins the full
/// report — including every recovery counter — and checks that one
/// worker reproduces the default pool's bytes under faults.
#[test]
fn serve_fault_campaign_is_pinned() {
    let s = suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 41,
            mean_interarrival_s: 60e-6,
            story_pool: 4,
        },
        s,
    );
    let config = ServeConfig {
        instances: 2,
        queue_capacity: 128,
        story_cache: 4,
        policy: SchedulePolicy::StoryAffinity,
        faults: FaultConfig {
            seed: 7,
            link_corrupt_prob: 0.2,
            max_retries: 1,
            backoff_base_s: 2e-6,
            crashes: 3,
            crash_cooldown_s: 400e-6,
            watchdog_s: 500e-6,
            seus: 6,
            degrade_depth: 6,
            degrade_margin: 0.75,
            node_kills: 0,
        },
        ..ServeConfig::default()
    };
    let out = Server::new(s, config.clone()).serve(&trace);
    let fault = &out.report.fault;
    assert!(fault.enabled, "campaign must be active");
    assert!(fault.retransmits > 0, "campaign must retransmit");
    assert!(
        fault.crashes > 0 && fault.failovers > 0,
        "campaign must fail over"
    );
    assert!(fault.total_shed() > 0, "campaign must shed");
    assert!(fault.scrubs > 0, "campaign must scrub");
    assert!(fault.degraded > 0, "campaign must degrade");

    // Width invariance holds under faults too: the one-worker report is
    // byte-identical.
    let serial = Server::new(
        s,
        ServeConfig {
            workers: 1,
            ..config
        },
    )
    .serve(&trace);
    assert_eq!(
        serial.report.to_value().print(),
        out.report.to_value().print(),
        "one worker and the default pool diverged under faults"
    );
    let text = out.report.render();
    assert_eq!(serial.report.render(), text);
    assert_eq!(
        row(&text, "crashes / failovers"),
        format!("{} / {}", fault.crashes, fault.failovers)
    );

    check_golden("serve_faults.json", &out.report.to_value());
}

/// A K=4/R=2 cluster campaign with instance crashes armed on every shard:
/// stranded requests fail over cross-shard to their story's replica, and
/// the merged `ClusterReport` — pooled latency percentiles, summed fault
/// sections, per-shard breakdown — is pinned byte for byte. Also asserts
/// the two reduction laws: one worker == the default pool's bytes, and a
/// K=1/R=1 cluster serializes byte-identically to the single-node report.
#[test]
fn serve_cluster_campaign_is_pinned() {
    let s = suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 43,
            mean_interarrival_s: 60e-6,
            story_pool: 6,
        },
        s,
    );
    let config = ClusterConfig {
        shards: 4,
        replication: 2,
        base: ServeConfig {
            instances: 2,
            queue_capacity: 128,
            story_cache: 4,
            policy: SchedulePolicy::StoryAffinity,
            faults: FaultConfig {
                seed: 9,
                crashes: 2,
                crash_cooldown_s: 500e-6,
                watchdog_s: 250e-6,
                ..FaultConfig::none()
            },
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let out = Cluster::new(s, config.clone()).serve(&trace);
    assert!(out.report.fault.enabled, "campaign must be active");
    assert!(out.report.fault.crashes > 0, "campaign must crash");
    assert!(
        out.report.failover.exports > 0 && out.report.failover.completed > 0,
        "campaign must fail over cross-shard"
    );
    assert_eq!(
        out.report.completed + out.report.rejected + out.report.shed,
        trace.len(),
        "cluster outcome must partition the trace"
    );

    // Width invariance holds for the merged report too.
    let serial = Cluster::new(
        s,
        ClusterConfig {
            base: ServeConfig {
                workers: 1,
                ..config.base.clone()
            },
            ..config.clone()
        },
    )
    .serve(&trace);
    assert_eq!(
        serial.report.to_value().print(),
        out.report.to_value().print(),
        "one worker and the default pool diverged on the cluster report"
    );
    let text = out.report.render();
    assert_eq!(serial.report.render(), text);
    assert!(row(&text, "cross-shard failovers").starts_with(&format!(
        "{} exported, {} completed",
        out.report.failover.exports, out.report.failover.completed
    )));

    // Reduction law: at K=1/R=1 the cluster layer is inert and its report
    // bytes are the single-node report's bytes.
    let single = Server::new(s, config.base.clone()).serve(&trace);
    let inert = Cluster::new(
        s,
        ClusterConfig {
            shards: 1,
            replication: 1,
            base: config.base.clone(),
            ..ClusterConfig::default()
        },
    )
    .serve(&trace);
    assert_eq!(
        inert.report.to_value().print(),
        single.report.to_value().print(),
        "K=1/R=1 cluster must reduce to the single-node report"
    );
    assert_eq!(inert.report.render(), single.report.render());

    check_golden("serve_cluster.json", &out.report.to_value());
}

/// The serve_cluster campaign with a full membership churn on top: one
/// cold join, one planned drain, one fail-stop while the shard still
/// holds work, queue-pressure weight retuning and the hot-key splitter,
/// all on the same K=4/R=2 cluster, trace and instance-crash plan. Pins
/// the merged report — membership section included — byte for byte,
/// asserts every membership counter is exercised (nonzero), and pins
/// `unroutable_shed` at exactly zero: with R=2 and only two of four
/// shards leaving, every key keeps a live replica for the whole campaign.
#[test]
fn serve_membership_campaign_is_pinned() {
    let s = suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 43,
            mean_interarrival_s: 60e-6,
            story_pool: 6,
        },
        s,
    );
    let config = ClusterConfig {
        shards: 4,
        replication: 2,
        membership: MembershipPlan::parse_spec(
            "join=3@800,drain=1@2000,fail=2@2950,retune-threshold=0.02,hot-key=9",
        )
        .expect("valid churn spec"),
        base: ServeConfig {
            instances: 2,
            queue_capacity: 128,
            story_cache: 4,
            policy: SchedulePolicy::StoryAffinity,
            faults: FaultConfig {
                seed: 9,
                crashes: 2,
                crash_cooldown_s: 500e-6,
                watchdog_s: 250e-6,
                ..FaultConfig::none()
            },
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let out = Cluster::new(s, config.clone()).serve(&trace);
    let m = &out.report.membership;
    assert!(m.enabled, "campaign must publish a membership section");
    assert_eq!((m.joins, m.drains, m.failures), (1, 1, 1));
    assert!(m.retunes > 0, "queue pressure must retune a shard weight");
    assert!(m.hot_keys > 0 && m.split_requests > 0, "splitter must bite");
    assert!(
        m.stranded_exports > 0,
        "the fail-stop must strand in-flight work"
    );
    assert!(m.stories_moved > 0, "the drain must hand stories off");
    assert!(m.handoff_bytes > 0 && m.handoff_s > 0.0 && m.handoff_energy_j > 0.0);
    assert!(m.tracked_keys > 0 && m.moved_keys > 0 && m.moved_key_fraction > 0.0);
    assert_eq!(
        m.unroutable_shed, 0,
        "every key must keep a live replica through the churn"
    );
    assert_eq!(
        out.report.completed + out.report.rejected + out.report.shed,
        trace.len(),
        "churned cluster outcome must partition the trace"
    );

    // Width invariance holds with the membership layer live.
    let serial = Cluster::new(
        s,
        ClusterConfig {
            base: ServeConfig {
                workers: 1,
                ..config.base.clone()
            },
            ..config.clone()
        },
    )
    .serve(&trace);
    assert_eq!(
        serial.report.to_value().print(),
        out.report.to_value().print(),
        "one worker and the default pool diverged on the membership report"
    );
    let text = out.report.render();
    assert_eq!(serial.report.render(), text);
    assert_eq!(row(&text, "drains / failures / joins"), "1 / 1 / 1");
    assert_ne!(row(&text, "hot keys (split requests)"), "0 (0)");
    assert!(!row(&text, "stories handed off").starts_with("0 "));
    assert!(!row(&text, "moved keys").starts_with("0 "));

    check_golden("serve_membership.json", &out.report.to_value());
}

/// A K=2 durable cluster campaign with one `node_kill`: every shard-pass
/// journals its stories, evictions and completions to a write-ahead log,
/// the seeded victim shard is fail-stopped mid-append (leaving a torn
/// frame on disk), and recovery replays snapshot + segments onto a fresh
/// stack before re-dispatching the in-flight remainder. Pins the merged
/// report — durability section included — byte for byte, and asserts the
/// three determinism laws in-test: one worker == the default pool's
/// bytes, bytes are independent of the WAL directory, and the recovered
/// report minus its durability section is byte-identical to the no-crash,
/// no-WAL run.
#[test]
fn serve_recovery_campaign_is_pinned() {
    let s = suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 47,
            mean_interarrival_s: 60e-6,
            story_pool: 6,
        },
        s,
    );
    // Fresh scratch WAL roots: counters in the durability section are
    // path-free, so the golden bytes cannot depend on these locations.
    let wal_root = |name: &str| {
        let dir = std::env::temp_dir().join(format!("mann_golden_recovery_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let config_for = |dir: std::path::PathBuf, workers| ClusterConfig {
        shards: 2,
        replication: 1,
        base: ServeConfig {
            instances: 2,
            queue_capacity: 128,
            story_cache: 4,
            policy: SchedulePolicy::StoryAffinity,
            workers,
            faults: FaultConfig {
                seed: 9,
                node_kills: 1,
                ..FaultConfig::none()
            },
            wal: WalConfig {
                enabled: true,
                dir: dir.display().to_string(),
                snapshot_every: 24,
                ..WalConfig::default()
            },
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };

    let cluster = Cluster::new(s, config_for(wal_root("parallel"), 0));
    let out = serve_cluster_durable(&cluster, &trace).expect("durable cluster serve");
    let d = &out.report.durability;
    assert!(d.enabled, "durability section must be published");
    assert_eq!(d.node_kills, 1, "the campaign must kill exactly one node");
    assert_eq!(d.torn_tails, 1, "the torn WAL tail must be detected");
    assert!(d.replayed_records > 0, "recovery must replay the journal");
    assert!(d.snapshots > 0, "the campaign must snapshot and compact");
    assert_eq!(
        out.report.completed + out.report.rejected + out.report.shed,
        trace.len(),
        "cluster outcome must partition the trace"
    );

    // Determinism law 1: one worker, on its own fresh WAL root,
    // reproduces the default pool's report — durability bytes included.
    let serial_cluster = Cluster::new(s, config_for(wal_root("serial"), 1));
    let serial = serve_cluster_durable(&serial_cluster, &trace).expect("serial durable serve");
    assert_eq!(
        serial.report.to_value().print(),
        out.report.to_value().print(),
        "one worker and the default pool diverged on the recovered cluster report"
    );
    let text = out.report.render();
    assert_eq!(serial.report.render(), text);
    assert_eq!(row(&text, "node kills (torn tails)"), "1 (1)");

    // Determinism law 2: the crash campaign is journal-level — stripped
    // of its durability section, the recovered report is byte-identical
    // to a plain run with no WAL and no kill.
    let mut plain_config = config_for(wal_root("unused"), 0);
    plain_config.base.faults.node_kills = 0;
    plain_config.base.wal = WalConfig::default();
    let plain = Cluster::new(s, plain_config).serve(&trace);
    assert_eq!(
        out.report.sans_durability().to_value().print(),
        plain.report.to_value().print(),
        "recovery must reproduce the no-crash report bytes"
    );
    assert_eq!(out.report.sans_durability().render(), plain.report.render());
    assert!(
        !plain.report.to_value().print().contains("durability"),
        "a no-WAL report must not publish durability"
    );

    check_golden("serve_recovery.json", &out.report.to_value());
}

/// The stress suite for the numeric campaign: the trained embeddings are
/// scaled to `f32::MAX` before quantization, driving every quantizer and
/// fixed-point unit in the datapath into its saturation/overflow paths.
fn stressed_suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| suite().clone().with_embedding_scale(f32::MAX))
}

/// A numeric-stress campaign under the `failover` policy: saturating
/// embeddings flag every completion, the ITH exit guard vetoes saturated
/// early exits, and each stressed answer is re-served by the `f32`
/// reference at accounted cycle/energy cost. Pins the full report —
/// including every `NumericHealth` counter — and checks that one worker
/// reproduces the default pool's bytes under stress.
#[test]
fn serve_numeric_campaign_is_pinned() {
    let s = stressed_suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 41,
            mean_interarrival_s: 60e-6,
            story_pool: 4,
        },
        s,
    );
    let config = ServeConfig {
        instances: 2,
        queue_capacity: 128,
        story_cache: 4,
        policy: SchedulePolicy::StoryAffinity,
        use_ith: true,
        numeric_policy: NumericPolicy::Failover,
        ..ServeConfig::default()
    };
    let out = Server::new(s, config.clone()).serve(&trace);
    let nh = &out.report.numeric;
    assert!(nh.enabled, "failover policy must publish the section");
    assert!(nh.flagged > 0, "stress campaign must flag completions");
    assert!(nh.vetoed > 0, "exit guard must veto saturated early exits");
    assert!(nh.failed_over > 0, "failover must re-serve flagged answers");
    assert!(nh.failover_cycles > 0 && nh.failover_energy_j > 0.0);
    let h = &nh.histogram;
    assert!(h.add_sat > 0, "embedding accumulation must saturate");
    assert!(h.sub_sat > 0, "softmax shadow subtract must saturate");
    assert!(h.mul_sat > 0, "MAC products must saturate");
    assert!(h.quant_clamp > 0, "runtime re-quantization must clamp");
    assert!(
        h.nan_boundary > 0,
        "±inf weights must hit the load boundary"
    );
    // The MEM softmax denominator is ≥ exp(0): division by zero is
    // structurally unreachable from the serve path, so this counter is
    // pinned at zero (the divider's event path is covered by unit and
    // property tests at the linalg level).
    assert_eq!(h.div_zero, 0);

    // Width invariance holds under numeric stress too: the one-worker
    // report is byte-identical.
    let serial = Server::new(
        s,
        ServeConfig {
            workers: 1,
            ..config
        },
    )
    .serve(&trace);
    assert_eq!(
        serial.report.to_value().print(),
        out.report.to_value().print(),
        "one worker and the default pool diverged under numeric stress"
    );
    let text = out.report.render();
    assert_eq!(serial.report.render(), text);
    assert!(row(&text, "precision failovers").starts_with(&format!("{} (", nh.failed_over)));

    check_golden("serve_numeric.json", &out.report.to_value());
}

/// The compute-dedup campaign: a story-reuse burst served with same-story
/// batch fusion (window 4) and adaptive hop pruning enabled. Pins the full
/// report — fused-group histogram, deduplicated stream cycles, hop-prune
/// savings — and checks that one worker reproduces the default pool's
/// bytes and that pruning moves at most 1% of argmax answers off
/// the full-hop oracle.
#[test]
fn serve_batched_pruned_campaign_is_pinned() {
    let s = suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 37,
            mean_interarrival_s: 20e-6,
            story_pool: 4,
        },
        s,
    );
    let config = ServeConfig {
        instances: 2,
        queue_capacity: 128,
        story_cache: 4,
        inflight_limit: 8,
        policy: SchedulePolicy::StoryAffinity,
        // A fast link keeps the upload path ahead of the fabric so the
        // input FIFOs actually back up and groups form.
        pcie: mann_accel::hw::PcieLink {
            bandwidth_bytes_per_s: 1.5e9,
            latency_per_transfer_s: 1e-6,
        },
        batch_window: 4,
        hop_prune: HopPrune::with_threshold(0.8),
        ..ServeConfig::default()
    };
    let out = Server::new(s, config.clone()).serve(&trace);
    let batch = &out.report.batch;
    assert!(batch.enabled && batch.fused_groups > 0, "no fused groups");
    assert!(batch.cycles_saved > 0, "fusion saved no stream cycles");
    let prune = &out.report.prune;
    assert!(prune.enabled && prune.hops_saved > 0, "no hops pruned");
    assert!(prune.cycles_saved > 0, "pruning saved no cycles");

    // Width invariance holds with both levers armed: the one-worker
    // report is byte-identical.
    let serial = Server::new(
        s,
        ServeConfig {
            workers: 1,
            ..config.clone()
        },
    )
    .serve(&trace);
    assert_eq!(
        serial.report.to_value().print(),
        out.report.to_value().print(),
        "one worker and the default pool diverged with batching + pruning"
    );
    let text = out.report.render();
    assert_eq!(serial.report.render(), text);
    assert_eq!(
        row(&text, "groups (fused)"),
        format!("{} ({})", batch.groups, batch.fused_groups)
    );
    assert_eq!(
        row(&text, "hops executed / saved"),
        format!("{} / {}", prune.hops_executed, prune.hops_saved)
    );

    // Pruning is an approximation; the oracle run answers every question
    // with the full hop schedule. At this threshold at least 99% of the
    // argmax answers must survive.
    let oracle = Server::new(
        s,
        ServeConfig {
            hop_prune: HopPrune::default(),
            ..config
        },
    )
    .serve(&trace);
    assert_eq!(oracle.completions.len(), out.completions.len());
    let agree = oracle
        .completions
        .iter()
        .zip(&out.completions)
        .filter(|(o, p)| {
            assert_eq!(o.request.id, p.request.id);
            o.run.answer == p.run.answer
        })
        .count();
    assert!(
        agree * 100 >= out.completions.len() * 99,
        "pruned answers agree on only {agree}/{} completions",
        out.completions.len()
    );

    check_golden("serve_batched.json", &out.report.to_value());
}

/// A large-memory suite for the candidate-index campaign: task 1 honors
/// the story-length knob exactly, so every resident story holds 500
/// sentences and exact-scan addressing dominates the serve cost — the
/// regime the IVF index is built for.
fn index_suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        TaskSuite::build(&SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact],
            train_samples: 48,
            test_samples: 16,
            seed: 11,
            story_sentences: 500,
            ..SuiteConfig::quick()
        })
    })
}

/// The sub-linear addressing campaign: 500-sentence resident stories
/// served with the IVF candidate index armed. Pins the full report —
/// aggregated `IndexReport` counters included — and checks the index
/// laws: one worker == the default pool's bytes, every counter (scan,
/// skip, fallback, build, savings) engaged, and >= 99% argmax agreement
/// against an exact-scan oracle server on the same trace.
#[test]
fn serve_index_campaign_is_pinned() {
    let s = index_suite();
    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: 96,
            seed: 47,
            mean_interarrival_s: 60e-6,
            story_pool: 4,
        },
        s,
    );
    let config = ServeConfig {
        instances: 2,
        queue_capacity: 128,
        story_cache: 4,
        policy: SchedulePolicy::StoryAffinity,
        mem_index: MemIndexConfig::with_params(32, 8, 0.4),
        ..ServeConfig::default()
    };
    let out = Server::new(s, config.clone()).serve(&trace);
    let index = &out.report.index;
    assert!(index.enabled, "index must publish its section");
    assert!(index.scanned_slots > 0, "index must scan candidates");
    assert!(index.skipped_slots > 0, "index must skip slots");
    assert!(index.fallbacks > 0, "confidence band must trip a rescan");
    assert!(index.build_cycles > 0, "index build must be charged");
    assert!(
        index.cycles_saved > 0 && index.energy_saved_j > 0.0,
        "index must save addressing cycles"
    );

    // Width invariance holds with the index armed: the one-worker report
    // is byte-identical.
    let serial = Server::new(
        s,
        ServeConfig {
            workers: 1,
            ..config.clone()
        },
    )
    .serve(&trace);
    assert_eq!(
        serial.report.to_value().print(),
        out.report.to_value().print(),
        "one worker and the default pool diverged with the index armed"
    );
    let text = out.report.render();
    assert_eq!(serial.report.render(), text);
    assert_eq!(row(&text, "fallback scans"), index.fallbacks.to_string());
    assert!(row(&text, "addressing cycles saved").starts_with(&index.cycles_saved.to_string()));

    // Candidate generation is an approximation; the oracle server scans
    // every slot exactly. At this operating point at least 99% of the
    // argmax answers must survive.
    let oracle = Server::new(
        s,
        ServeConfig {
            mem_index: MemIndexConfig::default(),
            ..config
        },
    )
    .serve(&trace);
    assert_eq!(oracle.completions.len(), out.completions.len());
    let agree = oracle
        .completions
        .iter()
        .zip(&out.completions)
        .filter(|(o, i)| {
            assert_eq!(o.request.id, i.request.id);
            o.run.answer == i.run.answer
        })
        .count();
    assert!(
        agree * 100 >= out.completions.len() * 99,
        "indexed answers agree on only {agree}/{} completions",
        out.completions.len()
    );

    check_golden("serve_index.json", &out.report.to_value());
}
