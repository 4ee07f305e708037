//! The three workloads: one pinned suite (the deployed artifact) and three
//! seeded open-loop traffic shapes, each stressing a different layer.
//!
//! No workload journals to the store: a journaled serve spends half its
//! wall time waiting on fsync, and the latency of a shared virtual disk
//! moved its wall time by a third between runs of the same code. The
//! traced run still measures the store layer on every workload.

use std::path::Path as FsPath;

use mann_babi::TaskId;
use mann_core::SuiteConfig;
use mann_serve::{
    ClusterConfig, FaultConfig, MembershipPlan, SchedulePolicy, ServeConfig, TraceConfig, WalConfig,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["story_heavy", "unique_stories", "cluster_churn"];

/// Requests in the sim trace. The simulated p99.9 of a 10 000-request
/// trace moves by a fifth between seeds, and of 80 000 requests by up to
/// 8 %, so the simulated-clock metrics come from a longer sample of the
/// same traffic.
pub const SIM_REQUESTS: usize = 160_000;

/// The membership timeline of `cluster_churn`: a cold join, a drain with
/// story hand-off and a fail-stop, plus weight retuning and hot-key
/// splitting (times in microseconds).
const CHURN_PLAN: &str = "join=3@800,drain=1@200000,fail=2@600000,retune-threshold=0.02,hot-key=9";

/// How a workload's requests reach the accelerators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// One `Server` node (`Server::serve`).
    Node,
    /// A sharded `Cluster` (`Cluster::serve`).
    Cluster,
}

/// One workload: its route, its traffic and the serve stack it runs on.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub route: Route,
    pub trace: TraceConfig,
    /// The serve stack. On [`Route::Node`] only `base` is used and the
    /// cluster is the inert one shard, one replica shape.
    pub cluster: ClusterConfig,
}

impl Workload {
    /// The sim trace: the timed trace's traffic, [`SIM_REQUESTS`] long.
    /// Its first requests are the timed trace.
    pub fn sim_trace(&self) -> TraceConfig {
        TraceConfig {
            requests: SIM_REQUESTS,
            ..self.trace.clone()
        }
    }
}

/// The suite every workload serves: tasks 1 and 20, trained once with a
/// pinned seed. `--seed` never retrains it; it is the deployed model.
pub fn suite_config() -> SuiteConfig {
    let quick = SuiteConfig::quick();
    SuiteConfig {
        tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
        train_samples: 400,
        test_samples: 2500,
        seed: 29,
        model: memn2n::ModelConfig {
            embed_dim: 50,
            hops: 3,
            ..quick.model
        },
        ..quick
    }
}

/// The per-node stack shared by every workload.
fn node() -> ServeConfig {
    ServeConfig {
        instances: 2,
        queue_capacity: 256,
        story_cache: 4,
        policy: SchedulePolicy::StoryAffinity,
        ..ServeConfig::default()
    }
}

/// `cluster` journaling under `dir` (snapshot, rotate and compact every
/// 256 records), killing one node mid-append when `kill` is set.
pub fn journaled(cluster: &ClusterConfig, dir: &FsPath, kill: bool) -> ClusterConfig {
    let mut c = cluster.clone();
    c.base.wal = WalConfig {
        enabled: true,
        dir: dir.display().to_string(),
        snapshot_every: 256,
        ..WalConfig::default()
    };
    c.base.faults.node_kills = u32::from(kill);
    c
}

/// The workload called `name` at `seed`; `None` for an unknown name. The
/// seed drives the arrival trace and `cluster_churn`'s crash plan.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let trace = |requests, mean_us: f64, story_pool| TraceConfig {
        requests,
        seed,
        mean_interarrival_s: mean_us * 1e-6,
        story_pool,
    };
    let single = |base| ClusterConfig {
        base,
        ..ClusterConfig::default()
    };
    let (name, route, trace, cluster) = match name {
        "story_heavy" => (
            "story_heavy",
            Route::Node,
            trace(10_000, 200.0, 4),
            single(node()),
        ),
        "unique_stories" => (
            "unique_stories",
            Route::Node,
            trace(10_000, 250.0, 0),
            single(ServeConfig {
                use_ith: true,
                ..node()
            }),
        ),
        "cluster_churn" => (
            "cluster_churn",
            Route::Cluster,
            trace(20_000, 90.0, 6),
            ClusterConfig {
                shards: 4,
                replication: 2,
                base: ServeConfig {
                    batch_window: 4,
                    // Enough crashes that every shard fails over in every
                    // run: with a handful, whether any failover pass runs
                    // at all (each charges its boards' idle power again)
                    // moves energy per answer by a sixth between seeds.
                    faults: FaultConfig {
                        seed,
                        crashes: 32,
                        crash_cooldown_s: 500e-6,
                        watchdog_s: 250e-6,
                        ..FaultConfig::none()
                    },
                    ..node()
                },
                membership: MembershipPlan::parse_spec(CHURN_PLAN)
                    .expect("the churn plan is a valid membership spec"),
                ..ClusterConfig::default()
            },
        ),
        _ => return None,
    };
    Some(Workload {
        name,
        route,
        trace,
        cluster,
    })
}
