//! One serve stack behind one call: a `Server` node or a `Cluster`, with
//! their outcomes reduced to the fields the benchmark reads.

use mann_core::TaskSuite;
use mann_hw::PhaseCycles;
use mann_serve::{
    ArrivalTrace, CacheReport, Cluster, ClusterConfig, ClusterOutcome, ClusterReport, Completion,
    MembershipReport, ServeOutcome, ServeReport, Server,
};
use serde::Serialize;

use crate::workloads::Route;

/// A deployed serve stack.
pub enum Stack<'a> {
    Node(Server<'a>),
    Cluster(Cluster<'a>),
}

impl<'a> Stack<'a> {
    /// Deploys `cluster` over `suite` along `route` (`Server::new` or
    /// `Cluster::new`).
    pub fn new(suite: &'a TaskSuite, route: Route, cluster: &ClusterConfig) -> Self {
        match route {
            Route::Node => Self::Node(Server::new(suite, cluster.base.clone())),
            Route::Cluster => Self::Cluster(Cluster::new(suite, cluster.clone())),
        }
    }

    /// Serves `trace` once.
    pub fn serve(&self, trace: &ArrivalTrace) -> Outcome {
        match self {
            Self::Node(s) => s.serve(trace).into(),
            Self::Cluster(c) => c.serve(trace).into(),
        }
    }
}

/// What one serve produced, whichever stack served it.
pub struct Outcome {
    pub completions: Vec<Completion>,
    pub rejected: Vec<u64>,
    pub shed: Vec<u64>,
    /// Requests re-dispatched to another shard at least once.
    pub failovers: usize,
    pub report: Report,
}

impl From<ServeOutcome> for Outcome {
    fn from(o: ServeOutcome) -> Self {
        Self {
            completions: o.completions,
            rejected: o.rejections.iter().map(|r| r.request.id).collect(),
            shed: o.sheds.iter().map(|r| r.id).collect(),
            failovers: 0,
            report: Report::Node(Box::new(o.report)),
        }
    }
}

impl From<ClusterOutcome> for Outcome {
    fn from(o: ClusterOutcome) -> Self {
        Self {
            completions: o.completions,
            rejected: o.rejections.iter().map(|r| r.request.id).collect(),
            shed: o.sheds.iter().map(|r| r.id).collect(),
            failovers: o.failovers.len(),
            report: Report::Cluster(Box::new(o.report)),
        }
    }
}

impl Outcome {
    /// Requests that failed: rejected at a full queue or shed.
    pub fn failed(&self) -> usize {
        self.rejected.len() + self.shed.len()
    }
}

/// A node or cluster report.
pub enum Report {
    Node(Box<ServeReport>),
    Cluster(Box<ClusterReport>),
}

/// A field both report types carry under the same name.
macro_rules! shared {
    ($report:expr, $field:ident) => {
        match $report {
            Report::Node(r) => &r.$field,
            Report::Cluster(r) => &r.$field,
        }
    };
}

impl Report {
    pub fn answers_digest(&self) -> &str {
        shared!(self, answers_digest)
    }
    pub fn completed(&self) -> usize {
        *shared!(self, completed)
    }
    pub fn accuracy(&self) -> f64 {
        *shared!(self, accuracy)
    }
    pub fn throughput_rps(&self) -> f64 {
        *shared!(self, throughput_rps)
    }
    pub fn total_energy_j(&self) -> f64 {
        *shared!(self, total_energy_j)
    }
    pub fn phase_totals(&self) -> PhaseCycles {
        *shared!(self, phase_totals)
    }
    pub fn speculated(&self) -> usize {
        *shared!(self, speculated)
    }
    pub fn cache(&self) -> &CacheReport {
        shared!(self, cache)
    }
    pub fn mean_queue_wait_s(&self) -> f64 {
        *shared!(self, mean_queue_wait_s)
    }
    pub fn max_queue_depth(&self) -> usize {
        *shared!(self, max_queue_depth)
    }
    pub fn link_utilization(&self) -> f64 {
        shared!(self, link).utilization
    }
    pub fn batch_fused_groups(&self) -> u64 {
        shared!(self, batch).fused_groups
    }
    pub fn batch_cycles_saved(&self) -> u64 {
        shared!(self, batch).cycles_saved
    }

    /// The membership section (all zeros on a node).
    pub fn membership(&self) -> MembershipReport {
        match self {
            Self::Node(_) => MembershipReport::default(),
            Self::Cluster(r) => r.membership.clone(),
        }
    }

    /// Mean occupancy over every instance of every shard.
    pub fn occupancy(&self) -> f64 {
        let occ: Vec<f64> = match self {
            Self::Node(r) => r.instances.iter().map(|i| i.occupancy).collect(),
            Self::Cluster(r) => r
                .per_shard
                .iter()
                .flat_map(|s| s.instances.iter().map(|i| i.occupancy))
                .collect(),
        };
        occ.iter().sum::<f64>() / occ.len().max(1) as f64
    }

    /// Completions of the busiest shard over the mean per shard (1 on a
    /// node).
    pub fn shard_skew(&self) -> f64 {
        let Self::Cluster(r) = self else { return 1.0 };
        let done: Vec<f64> = r.per_shard.iter().map(|s| s.completed as f64).collect();
        let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
        if mean == 0.0 {
            return 0.0;
        }
        done.iter().copied().fold(0.0, f64::max) / mean
    }

    /// The report's JSON bytes.
    pub fn json(&self) -> String {
        match self {
            Self::Node(r) => r.to_value().print(),
            Self::Cluster(r) => r.to_value().print(),
        }
    }

    /// The report as text tables.
    pub fn render(&self) -> String {
        match self {
            Self::Node(r) => r.render(),
            Self::Cluster(r) => r.render(),
        }
    }

    /// The report's JSON bytes with the durability section cleared.
    pub fn json_sans_durability(&self) -> String {
        match self {
            Self::Node(r) => r.sans_durability().to_value().print(),
            Self::Cluster(r) => r.sans_durability().to_value().print(),
        }
    }
}
