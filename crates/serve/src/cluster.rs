//! Distributed serve fabric: a story-affinity sharded cluster.
//!
//! The single-node [`Server`](crate::Server) models one host — one bounded
//! queue, one PCIe arbiter, one instance pool. This module scales that out:
//! a frontend [`ShardRouter`] consistent-hashes each request's story onto K
//! shard nodes (rendezvous hashing with weighted virtual nodes), every
//! shard runs its own full serve stack (link arbiter, instance pool, story
//! cache, fault plan), and a replication factor R arms *cross-shard*
//! failover — a request stranded by an instance crash is handed to the
//! story's replica shard, where it arrives on the replica's own queue and
//! pays the story upload unless the replica has it resident, instead of
//! re-queueing locally. All shards run on one simulated timeline, so a
//! replica's boards are simulated once, with one crash plan and one
//! idle-power window.
//!
//! # Determinism
//!
//! A cluster serve is a pure function of `(suite, trace, config)`:
//!
//! * routing is rendezvous hashing over each story's key, its
//!   `story_digest` with the task mixed in ([`mann_hw::fault_mix`] under
//!   a routing salt), against the live
//!   membership view, each request routed when it arrives;
//! * each shard's fault plan derives from [`mann_hw::shard_fault_seed`],
//!   so what shard `s` injects is independent of how many shards exist or
//!   the order they are stepped in;
//! * at one simulated instant the timeline runs arrivals, then shard
//!   events, then hand-offs in request-id order, so [`ClusterReport`]
//!   bytes are identical across worker counts and the order shards are
//!   stepped in (pinned by tests and a golden).
//!
//! At K=1/R=1 the layer is *inert*: the report serializes and renders as
//! the single shard's [`ServeReport`], byte-identical to the single-node
//! path.

use mann_core::report::{fnum, percent, TextTable};
use mann_core::TaskSuite;
use mann_hw::{fault_mix, PcieLink, PhaseCycles, SimTime};
use mann_store::WalRecord;
use serde::Serialize;

use crate::faults::{FaultPlan, FaultReport};
use crate::membership::{
    MembershipEpoch, MembershipEventKind, MembershipPlan, MembershipReport, MembershipView,
};
use crate::numeric::NumericHealth;
use crate::report::{
    answers_digest, mean, push_sections, render_sections, BatchReport, CacheReport, HopPruneReport,
    IndexReport, LatencySummary, LinkReport, ReportSection, ServeReport,
};
use crate::request::{Completion, Rejection, Request};
use crate::server::{Handoff, NumericPhase, ServeConfig, ServeOutcome, ServeState, Server};
use crate::store::DurabilityReport;
use crate::trace::ArrivalTrace;

/// Domain-separation salt for routing hashes (ASCII "router"): routing
/// scores share [`fault_mix`] with the fault layer but never its streams.
const ROUTE_SALT: u64 = 0x0000_726f_7574_6572;

/// Virtual nodes per shard are packed into 16 bits of the hash input.
const MAX_WEIGHT: u32 = 1 << 16;

/// Frontend router: weighted rendezvous (highest-random-weight) hashing of
/// story keys onto shards.
///
/// Every `(key, shard)` pair gets a score — the max of the shard's
/// `weight` virtual-node hashes — and a key's replica chain is the shards
/// ranked by score. Rendezvous hashing gives minimal disruption natively:
/// removing a shard only moves the keys that ranked it, because the other
/// shards' scores are untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    weights: Vec<u32>,
}

impl ShardRouter {
    /// A router over `shards` equally weighted shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_weights(vec![1; shards])
    }

    /// A router with one relative capacity weight per shard (virtual-node
    /// count; a weight-2 shard owns ~2x the keys of a weight-1 shard).
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty or any weight is 0 or ≥ 2^16.
    pub fn with_weights(weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "router needs at least one shard");
        assert!(
            weights.iter().all(|&w| (1..MAX_WEIGHT).contains(&w)),
            "shard weights must be in 1..{MAX_WEIGHT}"
        );
        Self { weights }
    }

    /// Number of shards the router spreads keys over.
    pub fn shards(&self) -> usize {
        self.weights.len()
    }

    /// The per-shard weight vector (virtual-node counts).
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Rendezvous score of `key` on `shard`: the best of the shard's
    /// weighted virtual nodes.
    fn score(&self, key: u64, shard: usize) -> u64 {
        (0..u64::from(self.weights[shard]))
            .map(|v| fault_mix(ROUTE_SALT, key, ((shard as u64) << 16) | v))
            .max()
            .expect("weight >= 1")
    }

    /// The up-to-`replicas` highest-scoring shards for `key` among those
    /// `alive` admits, primary first. Pure in `(key, weights, liveness)`.
    pub fn route_live(
        &self,
        key: u64,
        replicas: usize,
        alive: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut chain = Vec::new();
        self.rank_live(key, replicas, alive, &mut chain);
        chain.into_iter().map(|(_, s)| s).collect()
    }

    /// The ranking under every route: refills `chain` with
    /// [`ShardRouter::route_live`]'s shards as `(score, shard)`, reusing
    /// its buffer.
    pub(crate) fn rank_live(
        &self,
        key: u64,
        replicas: usize,
        alive: impl Fn(usize) -> bool,
        chain: &mut Vec<(u64, usize)>,
    ) {
        chain.clear();
        for s in (0..self.weights.len()).filter(|&s| alive(s)) {
            let score = self.score(key, s);
            // Highest score wins; the shard index breaks (astronomically
            // unlikely) score ties, so the order is total. Shards come in
            // ascending order, so a tied shard ranks after those before it.
            let at = chain.partition_point(|&(ranked, _)| ranked >= score);
            if at < replicas {
                chain.insert(at, (score, s));
                chain.truncate(replicas);
            }
        }
    }

    /// The `replicas` highest-scoring shards for `key`, primary first.
    ///
    /// # Panics
    ///
    /// Panics when `replicas` exceeds the shard count.
    pub fn route(&self, key: u64, replicas: usize) -> Vec<usize> {
        assert!(
            replicas <= self.weights.len(),
            "cannot pick {replicas} replicas from {} shards",
            self.weights.len()
        );
        self.route_live(key, replicas, |_| true)
    }

    /// The primary shard for `key`.
    pub fn primary(&self, key: u64) -> usize {
        self.route(key, 1)[0]
    }
}

/// Cluster-level configuration wrapped around a per-shard [`ServeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Shard nodes; 1 makes the cluster layer inert.
    pub shards: usize,
    /// Replica shards per story (including the primary); with R ≥ 2 a
    /// request stranded by a crash fails over to the next replica shard.
    pub replication: usize,
    /// Relative routing weight per shard; empty = uniform.
    pub weights: Vec<u32>,
    /// The serve stack every shard runs. At K > 1 each shard re-mixes
    /// the fault seed through [`mann_hw::shard_fault_seed`], so the plan
    /// a shard injects is seed-pure per shard.
    pub base: ServeConfig,
    /// Live-membership campaign: scheduled drains/failures/joins, weight
    /// re-tuning, and the hot-key splitter. The default (empty) plan
    /// leaves the cluster serve path byte-identical to before the
    /// membership layer existed.
    pub membership: MembershipPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            replication: 1,
            weights: Vec::new(),
            base: ServeConfig::default(),
            membership: MembershipPlan::none(),
        }
    }
}

impl ClusterConfig {
    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("need at least one shard".into());
        }
        if self.replication == 0 || self.replication > self.shards {
            return Err(format!(
                "replication {} out of range 1..={} (shard count)",
                self.replication, self.shards
            ));
        }
        if !self.weights.is_empty() && self.weights.len() != self.shards {
            return Err(format!(
                "{} weights for {} shards",
                self.weights.len(),
                self.shards
            ));
        }
        if let Some((shard, &w)) = self
            .weights
            .iter()
            .enumerate()
            .find(|&(_, &w)| !(1..MAX_WEIGHT).contains(&w))
        {
            return Err(format!(
                "shard {shard} weight {w} out of range 1..{MAX_WEIGHT}"
            ));
        }
        self.base.validate()?;
        self.membership
            .validate_for(self.shards)
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// Cross-shard failover accounting (zeros at R = 1 or without crashes).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct ClusterFailover {
    /// Hand-offs: requests a shard exported after its instance crashed
    /// under them or the shard fail-stopped.
    pub exports: u64,
    /// Handed-off requests that completed on a replica shard.
    pub completed: u64,
    /// Handed-off requests lost anyway (replica queue full or replica-side
    /// shed); still accounted in the cluster partition.
    pub lost: u64,
    /// Link bytes of the hand-offs' dispatches on their replicas — each
    /// upload (question only when the story is resident) plus each answer
    /// drain, paid at real link cost.
    pub replay_link_bytes: u64,
    /// Mean end-to-end latency of failed-over completions, measured from
    /// the *original* arrival, seconds.
    pub mean_failover_latency_s: f64,
}

/// Aggregate report of one cluster serve: per-shard [`ServeReport`]s
/// merged the only sound way — latency percentiles ranked over the pooled
/// raw samples (never averaged), counter sections summed, MTTR means
/// re-weighted by their event counts — plus the per-shard breakdown.
///
/// Serialization is hand-written for the same reason as [`ServeReport`]:
/// at K=1/R=1 the cluster layer is inert and the report serializes as the
/// single shard's `ServeReport`, byte-identical to the single-node path
/// (the golden suite pins this).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Shard nodes.
    pub shards: usize,
    /// Replication factor.
    pub replication: usize,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that completed, on any shard.
    pub completed: usize,
    /// Requests rejected by a bounded shard queue.
    pub rejected: usize,
    /// Requests shed by a shard's fault campaign.
    pub shed: usize,
    /// Fraction of completed requests answered correctly.
    pub accuracy: f64,
    /// First arrival to the last drain on any shard, seconds.
    pub makespan_s: f64,
    /// Completed requests per simulated second of cluster makespan.
    pub throughput_rps: f64,
    /// Latency distribution over the pooled per-shard samples (failovers
    /// measured from their original arrival).
    pub latency: LatencySummary,
    /// Mean host-queue wait over all completions, seconds.
    pub mean_queue_wait_s: f64,
    /// Deepest host queue on any shard.
    pub max_queue_depth: usize,
    /// Cross-shard failover accounting.
    pub failover: ClusterFailover,
    /// Story-cache sections summed over shards, hit rate recomputed.
    pub cache: CacheReport,
    /// Link sections summed; utilization = fleet busy time over
    /// `shards x makespan` (each shard has its own link).
    pub link: LinkReport,
    /// Compute cycles summed over all completions, by pipeline phase.
    pub phase_totals: PhaseCycles,
    /// Completions that exited the output search early (ITH).
    pub speculated: usize,
    /// Sum of per-shard energies, joules: each board charged once, over
    /// its shard's one idle-power window.
    pub total_energy_j: f64,
    /// One-time model-upload cost, paid once per shard, seconds.
    pub setup_s: f64,
    /// FNV-1a digest over `(id, answer)` of all completions in id order;
    /// invariant across shard counts — routing never changes an answer.
    pub answers_digest: String,
    /// Fault sections summed (MTTR means re-weighted); `enabled == false`
    /// omits the key, exactly like [`ServeReport`].
    pub fault: FaultReport,
    /// Numeric-health sections summed, histograms merged; key omitted
    /// when disabled.
    pub numeric: NumericHealth,
    /// Batching sections summed, histograms merged element-wise; key
    /// omitted when disabled.
    pub batch: BatchReport,
    /// Hop-pruning sections summed; key omitted when disabled.
    pub prune: HopPruneReport,
    /// Candidate-index sections summed; key omitted when disabled.
    pub index: IndexReport,
    /// Durability sections summed (recovery MTTR re-weighted by kill
    /// counts); key omitted when the write-ahead log is off.
    pub durability: DurabilityReport,
    /// Live-membership summary (epoch timeline, hand-off accounting,
    /// moved-key fraction); key omitted when the plan is empty, so every
    /// pre-membership report stays byte-identical.
    pub membership: MembershipReport,
    /// Each shard's report, in shard-index order: everything the shard
    /// served, hand-offs included, on its one timeline. The merged
    /// sections above fold exactly these.
    pub per_shard: Vec<ServeReport>,
}

impl Serialize for ClusterReport {
    fn to_value(&self) -> serde_json::Value {
        if self.shards == 1 && self.replication == 1 {
            // Inert cluster: the report *is* the single shard's report.
            return self.per_shard[0].to_value();
        }
        let mut pairs: Vec<(String, serde_json::Value)> = vec![
            ("shards".into(), self.shards.to_value()),
            ("replication".into(), self.replication.to_value()),
            ("requests".into(), self.requests.to_value()),
            ("completed".into(), self.completed.to_value()),
            ("rejected".into(), self.rejected.to_value()),
            ("shed".into(), self.shed.to_value()),
            ("accuracy".into(), self.accuracy.to_value()),
            ("makespan_s".into(), self.makespan_s.to_value()),
            ("throughput_rps".into(), self.throughput_rps.to_value()),
            ("latency".into(), self.latency.to_value()),
            (
                "mean_queue_wait_s".into(),
                self.mean_queue_wait_s.to_value(),
            ),
            ("max_queue_depth".into(), self.max_queue_depth.to_value()),
            ("failover".into(), self.failover.to_value()),
            ("cache".into(), self.cache.to_value()),
            ("link".into(), self.link.to_value()),
            ("phase_totals".into(), self.phase_totals.to_value()),
            ("speculated".into(), self.speculated.to_value()),
            ("total_energy_j".into(), self.total_energy_j.to_value()),
            ("setup_s".into(), self.setup_s.to_value()),
            ("answers_digest".into(), self.answers_digest.to_value()),
        ];
        push_sections(&mut pairs, &self.sections());
        pairs.push(("per_shard".into(), self.per_shard.to_value()));
        serde_json::Value::Object(pairs)
    }
}

impl ClusterReport {
    /// The optional sections, in JSON and render order.
    fn sections(&self) -> [&dyn ReportSection; 7] {
        [
            &self.fault,
            &self.numeric,
            &self.batch,
            &self.prune,
            &self.index,
            &self.durability,
            &self.membership,
        ]
    }

    /// A copy with every durability section (cluster-level and per-shard)
    /// reset to the disabled default: with the WAL on but no kills, this
    /// must be byte-identical to the same campaign served without a WAL —
    /// the journaling layer may observe a serve, never change it.
    #[must_use]
    pub fn sans_durability(&self) -> Self {
        let mut r = self.clone();
        r.durability = DurabilityReport::default();
        for shard in &mut r.per_shard {
            shard.durability = DurabilityReport::default();
        }
        r
    }

    /// Renders the cluster report as text tables; at K=1/R=1 this is the
    /// single shard's render, byte for byte.
    pub fn render(&self) -> String {
        if self.shards == 1 && self.replication == 1 {
            return self.per_shard[0].render();
        }
        let mut out = String::new();
        let mut t = TextTable::new(vec!["cluster metric".into(), "value".into()]);
        t.row(vec![
            "shards x replication".into(),
            format!("{} x {}", self.shards, self.replication),
        ]);
        t.row(vec!["requests".into(), self.requests.to_string()]);
        t.row(vec!["completed".into(), self.completed.to_string()]);
        t.row(vec!["rejected".into(), self.rejected.to_string()]);
        t.row(vec!["shed".into(), self.shed.to_string()]);
        t.row(vec!["accuracy".into(), percent(self.accuracy)]);
        t.row(vec![
            "makespan".into(),
            format!("{} ms", fnum(self.makespan_s * 1e3, 3)),
        ]);
        t.row(vec![
            "throughput".into(),
            format!("{} req/s", fnum(self.throughput_rps, 1)),
        ]);
        t.row(vec![
            "latency p50/p95/p99 (pooled)".into(),
            format!(
                "{} / {} / {} us",
                fnum(self.latency.p50_s * 1e6, 1),
                fnum(self.latency.p95_s * 1e6, 1),
                fnum(self.latency.p99_s * 1e6, 1)
            ),
        ]);
        t.row(vec![
            "mean queue wait".into(),
            format!("{} us", fnum(self.mean_queue_wait_s * 1e6, 1)),
        ]);
        t.row(vec![
            "cross-shard failovers".into(),
            format!(
                "{} exported, {} completed, {} lost, {} B re-uploaded",
                self.failover.exports,
                self.failover.completed,
                self.failover.lost,
                self.failover.replay_link_bytes
            ),
        ]);
        t.row(vec![
            "fleet link utilization".into(),
            format!(
                "{} ({} grants)",
                percent(self.link.utilization),
                self.link.grants
            ),
        ]);
        t.row(vec![
            "cache hits".into(),
            format!(
                "{} / {} ({})",
                self.cache.hits,
                self.cache.hits + self.cache.misses,
                percent(self.cache.hit_rate)
            ),
        ]);
        t.row(vec![
            "energy".into(),
            format!("{} J", fnum(self.total_energy_j, 3)),
        ]);
        t.row(vec![
            "setup (model uploads)".into(),
            format!("{} ms", fnum(self.setup_s * 1e3, 3)),
        ]);
        t.row(vec!["answers digest".into(), self.answers_digest.clone()]);
        out.push_str(&t.render());
        out.push('\n');
        render_sections(&mut out, &self.sections());
        let mut st = TextTable::new(vec![
            "shard".into(),
            "requests".into(),
            "completed".into(),
            "rejected".into(),
            "cache hit rate".into(),
            "crashes".into(),
            "failovers".into(),
            "p99 (us)".into(),
            "energy (J)".into(),
        ]);
        for (s, r) in self.per_shard.iter().enumerate() {
            st.row(vec![
                s.to_string(),
                r.requests.to_string(),
                r.completed.to_string(),
                r.rejected.to_string(),
                percent(r.cache.hit_rate),
                r.fault.crashes.to_string(),
                r.fault.failovers.to_string(),
                fnum(r.latency.p99_s * 1e6, 1),
                fnum(r.total_energy_j, 3),
            ]);
        }
        out.push_str(&st.render());
        out
    }
}

/// Everything a cluster serve produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Every completed request across all shards, in request-id order.
    /// `Completion::instance` is shard-local; a handed-over request keeps
    /// its original arrival, and its enqueue is the hand-off instant.
    pub completions: Vec<Completion>,
    /// The shard each completion ran on, parallel to `completions`.
    pub completion_shards: Vec<usize>,
    /// Rejected requests (primary or replica queue full), in id order.
    pub rejections: Vec<Rejection>,
    /// Requests shed by a fault campaign on any shard, in id order.
    pub sheds: Vec<Request>,
    /// Ids of requests re-dispatched cross-shard at least once, ascending
    /// and deduplicated.
    pub failovers: Vec<u64>,
    /// Ids of requests shed because no live replica existed for their key
    /// (every shard of the story's chain down), ascending. These are the
    /// dedicated all-replicas-down counter: they land in `sheds` (so the
    /// cluster partition stays exact) and are never silently dropped.
    pub unroutable: Vec<u64>,
    /// The aggregate report.
    pub report: ClusterReport,
}

/// A sharded cluster over one trained suite.
///
/// Every shard runs the one [`Server`] built from
/// [`ClusterConfig::base`]; each [`Cluster::serve`] advances one event
/// loop per shard on one timeline until every request is completed,
/// rejected, or shed.
#[derive(Debug)]
pub struct Cluster<'a> {
    server: Server<'a>,
    router: ShardRouter,
    replication: usize,
    membership: MembershipPlan,
}

impl<'a> Cluster<'a> {
    /// Builds a cluster over a trained suite.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid ([`ClusterConfig::validate`]).
    pub fn new(suite: &'a TaskSuite, config: ClusterConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cluster config: {e}"));
        let router = if config.weights.is_empty() {
            ShardRouter::new(config.shards)
        } else {
            ShardRouter::with_weights(config.weights)
        };
        Self {
            server: Server::new(suite, config.base),
            router,
            replication: config.replication,
            membership: config.membership,
        }
    }

    /// The server every shard runs, holding the per-shard
    /// [`ServeConfig`].
    pub fn server(&self) -> &Server<'a> {
        &self.server
    }

    /// The frontend router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Serves a trace across the cluster.
    pub fn serve(&self, trace: &ArrivalTrace) -> ClusterOutcome {
        let order: Vec<usize> = (0..self.router.shards()).collect();
        self.serve_in_order(trace, &order)
    }

    /// Serves with an explicit shard-stepping order: of the shard events
    /// due at one instant, those of shards earlier in `order` run first.
    /// The outcome must be identical for every permutation — shards share
    /// no state, and what one hands another is delivered after every
    /// shard event at its instant, in request-id order — which the
    /// determinism tests assert byte-for-byte. [`Cluster::serve`] uses the
    /// identity order.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of `0..shards`.
    pub fn serve_in_order(&self, trace: &ArrivalTrace, order: &[usize]) -> ClusterOutcome {
        self.serve_journaled(trace, order).0
    }

    /// The one cluster timeline under [`Cluster::serve_in_order`], with
    /// each shard's journal (empty unless the WAL is armed). At each
    /// instant, arrivals go first, each routed against the live membership
    /// view and the retunes fired so far; then every shard event due; then
    /// the hand-offs, each an arrival on the next link of its chain.
    pub(crate) fn serve_journaled(
        &self,
        trace: &ArrivalTrace,
        order: &[usize],
    ) -> (ClusterOutcome, Vec<Vec<WalRecord>>) {
        let k = self.router.shards();
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.iter().copied().eq(0..k),
            "order must be a permutation of 0..{k}"
        );
        let plan = &self.membership;
        let base = self.server.config();
        let num = &self.server.numeric_phase(trace);
        let mut states: Vec<ServeState<'_, '_>> = (0..k)
            .map(|s| {
                let event = plan.event(s);
                // A shard's crash and SEU plan spans its time in the
                // fleet: up to its drain or fail-stop, else the trace.
                let leave = event.filter(|e| e.kind.is_leave()).map(|e| e.at());
                let horizon = leave.unwrap_or(trace.span());
                let faults = FaultPlan::for_shard(&base.faults, s, k, horizon, base.instances);
                let fail_stop = event
                    .filter(|e| e.kind == MembershipEventKind::Fail)
                    .map(|e| e.at());
                ServeState::new(
                    &self.server,
                    trace,
                    num,
                    faults,
                    fail_stop,
                    self.replication,
                )
            })
            .collect();

        let mut routing = Routing {
            view: MembershipView::new(plan, self.router.weights().to_vec(), self.replication),
            hot: plan.hot_keys(num.stories.len(), (0..trace.len()).map(|g| num.story_id(g))),
            hot_rank: vec![0; num.stories.len()],
            split_requests: 0,
            retune_depth: (plan.retune_threshold > 0.0).then(|| {
                let capacity = base.queue_capacity as f64;
                ((plan.retune_threshold * capacity).ceil() as usize).max(1)
            }),
            retune_factor: plan.retune_factor,
            retunes: Vec::new(),
            unroutable: Vec::new(),
            exports: vec![0; k],
            failovers: Vec::new(),
            // One past the replication factor: `rank_live` inserts a shard
            // before it cuts the chain back.
            chain: Vec::with_capacity(self.replication + 1),
            num,
        };
        // A stable sort: ties keep trace order.
        let mut arrivals: Vec<usize> = (0..trace.len()).collect();
        arrivals.sort_by_key(|&g| trace.requests[g].arrival);
        let mut next = 0;
        // Hand-offs awaiting delivery, all due at the current instant.
        let mut handoffs: Vec<(usize, Handoff)> = Vec::new();
        // Each shard's next event instant, refreshed whenever the timeline
        // touches that shard and only then: nothing else moves it.
        let mut due: Vec<Option<SimTime>> = states.iter().map(ServeState::next_event).collect();
        loop {
            let arrival = arrivals.get(next).map(|&g| trace.requests[g].arrival);
            // `min_by_key` keeps the first minimum: ties go by `order`.
            let event = order
                .iter()
                .filter_map(|&s| due[s].map(|t| (t, s)))
                .min_by_key(|&(t, _)| t);
            let handoff = handoffs.first().map(|(_, h)| h.at);
            if let Some(t) = arrival
                .filter(|&t| event.is_none_or(|(e, _)| t <= e) && handoff.is_none_or(|h| t <= h))
            {
                let g = arrivals[next];
                next += 1;
                if let Some(s) = routing.route(g, t) {
                    states[s].arrive(t, g, 0);
                    due[s] = states[s].next_event();
                    routing.observe(s, t, states[s].max_queue_depth);
                }
            } else if let Some((t, s)) = event.filter(|&(e, _)| handoff.is_none_or(|h| e <= h)) {
                states[s].step();
                due[s] = states[s].next_event();
                for h in states[s].exports.drain(..) {
                    routing.exports[s] += 1;
                    routing.failovers.push(trace.requests[h.req].id);
                    handoffs.push((s, h));
                }
                routing.observe(s, t, states[s].max_queue_depth);
            } else if !handoffs.is_empty() {
                // After every shard event at their instant, in id order:
                // the order the shards stepped in never shows.
                handoffs.sort_by_key(|(_, h)| trace.requests[h.req].id);
                for (from, h) in handoffs.drain(..) {
                    if let Some(s) = routing.hand_off(h, from) {
                        states[s].arrive(h.at, h.req, h.hop + 1);
                        due[s] = states[s].next_event();
                        routing.observe(s, h.at, states[s].max_queue_depth);
                    }
                }
            } else {
                break;
            }
        }

        let membership = self.membership_report(trace, &routing, &states);
        let replay_link_bytes = states.iter().map(|s| s.handoff_bytes).sum();
        let mut journals = Vec::with_capacity(k);
        let outcomes: Vec<ServeOutcome> = states
            .into_iter()
            .map(|state| {
                let mut out = state.finish();
                journals.push(std::mem::take(&mut out.wal_records));
                out
            })
            .collect();
        let out = self.aggregate(trace, outcomes, routing, replay_link_bytes, membership);
        (out, journals)
    }

    /// Builds the [`MembershipReport`] for a non-empty plan: lifecycle
    /// counters, drain hand-off accounting through the link model, and
    /// the moved-key epoch timeline measured on the live router. An empty
    /// plan returns the disabled default (key omitted from JSON).
    fn membership_report(
        &self,
        trace: &ArrivalTrace,
        routing: &Routing<'_>,
        states: &[ServeState<'_, '_>],
    ) -> MembershipReport {
        let plan = &self.membership;
        if plan.is_empty() {
            return MembershipReport::default();
        }
        let count = |kind| plan.events.iter().filter(|e| e.kind == kind).count() as u64;
        let mut m = MembershipReport {
            enabled: true,
            drains: count(MembershipEventKind::Drain),
            failures: count(MembershipEventKind::Fail),
            joins: count(MembershipEventKind::Join),
            retunes: routing.retunes.len() as u64,
            hot_keys: routing.hot.iter().filter(|&&hot| hot).count() as u64,
            split_requests: routing.split_requests,
            stranded_exports: plan
                .events
                .iter()
                .filter(|e| e.kind == MembershipEventKind::Fail)
                .map(|e| routing.exports[e.shard])
                .sum(),
            unroutable_shed: routing.unroutable.len() as u64,
            ..MembershipReport::default()
        };

        // Drain hand-off: the stories resident on a draining shard when
        // it exits — its most recently drained distinct stories, up to
        // its fleet cache capacity — are re-uploaded to their next live
        // replica through the link model, at idle-board link energy (the
        // same precedent as fault-retry link time). The hand-off is a
        // background copy: it costs bytes/cycles/energy but never blocks
        // the destination's serve timeline.
        let base = self.server.config();
        let stories = &routing.num.stories;
        let cache_slots = base.instances * base.story_cache;
        for e in plan
            .events
            .iter()
            .filter(|e| e.kind == MembershipEventKind::Drain)
        {
            // Last drain instant per distinct story, with one of its
            // requests, whose sample holds the story.
            let mut last_drained: Vec<Option<(SimTime, usize)>> = vec![None; stories.len()];
            for (g, end) in states[e.shard].drained() {
                let last = &mut last_drained[routing.num.story_id(g)];
                if last.is_none_or(|(t, _)| end > t) {
                    *last = Some((end, g));
                }
            }
            let mut resident: Vec<(u64, SimTime, usize)> = last_drained
                .iter()
                .zip(stories)
                .filter_map(|(last, story)| last.map(|(t, g)| (story.key, t, g)))
                .collect();
            // Most recently used first (the LRU survivors), key ascending
            // on ties so the hand-off set is deterministic.
            resident.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            resident.truncate(cache_slots);
            for (key, _, g) in resident {
                if routing.view.primary(key, e.at()).is_none() {
                    continue; // nowhere live to hand the story to
                }
                // The story alone moves: no question rides along.
                let sample = self.server.sample_of(&trace.requests[g]);
                let bytes = PcieLink::input_bytes(sample.story_words());
                let s = base.pcie.transfer_time_s(bytes);
                m.stories_moved += 1;
                m.handoff_bytes += bytes;
                m.handoff_s += s;
                m.handoff_cycles += (s * base.clock.freq_hz()).round() as u64;
                m.handoff_energy_j += base.power.retry_energy_j(base.clock.freq_mhz(), s);
            }
        }

        // Moved-key timeline: at every membership boundary (lifecycle
        // event or weight re-tune), count the trace's story keys whose
        // live primary differs across the instant — measured on the real
        // router, the same measurement the moved-key-bound proptest
        // makes. The per-leave mean fraction is the live form of the
        // rendezvous bound: each removal relocates <= 1/K + eps of keys.
        m.tracked_keys = stories.len() as u64;
        let mut boundaries: Vec<(SimTime, String, usize, bool)> = plan
            .events
            .iter()
            .map(|e| (e.at(), e.kind.to_string(), e.shard, e.kind.is_leave()))
            .chain(
                routing
                    .retunes
                    .iter()
                    .map(|&(t, s)| (t, "retune".to_owned(), s, false)),
            )
            .collect();
        boundaries.sort_by_key(|b| (b.0, b.2));
        let mut leave_moved = 0u64;
        let mut leaves = 0u64;
        for (at, kind, shard, is_leave) in boundaries {
            let before = SimTime::from_ps(at.ps() - 1);
            let view = &routing.view;
            let moved = stories
                .iter()
                .filter(|s| view.primary(s.key, before) != view.primary(s.key, at))
                .count() as u64;
            m.moved_keys += moved;
            if is_leave {
                leave_moved += moved;
                leaves += 1;
            }
            m.timeline.push(MembershipEpoch {
                at_s: at.as_s(),
                kind,
                shard,
                moved_keys: moved,
            });
        }
        m.epochs = 1 + m.timeline.len();
        m.moved_key_fraction = if leaves > 0 && !stories.is_empty() {
            leave_moved as f64 / (stories.len() as f64 * leaves as f64)
        } else {
            0.0
        };
        m
    }

    /// Folds the shards' outcomes, in shard order, into the cluster
    /// outcome: request-level results pooled, latency percentiles ranked
    /// over the pooled samples, and every report section merged by its
    /// own type.
    fn aggregate(
        &self,
        trace: &ArrivalTrace,
        shards: Vec<ServeOutcome>,
        routing: Routing<'_>,
        replay_link_bytes: u64,
        membership: MembershipReport,
    ) -> ClusterOutcome {
        let k = self.router.shards();
        let (mut failover_ids, unroutable) = (routing.failovers, routing.unroutable);
        let mut failover = ClusterFailover {
            exports: failover_ids.len() as u64,
            replay_link_bytes,
            ..ClusterFailover::default()
        };
        failover_ids.sort_unstable();
        failover_ids.dedup();
        let failed_over = |id: u64| failover_ids.binary_search(&id).is_ok();
        // End-to-end latency from the *original* arrival (a hand-off's
        // enqueue is its hand-off instant).
        let latency = |c: &Completion| {
            c.timestamps
                .drain_end
                .saturating_sub(c.request.arrival)
                .as_s()
        };

        // ----- pool the request-level results ---------------------------
        let total = shards.iter().map(|o| o.completions.len()).sum();
        let mut completions: Vec<(Completion, usize)> = Vec::with_capacity(total);
        let mut rejections: Vec<Rejection> = Vec::new();
        // Unroutable requests (no live replica) are shed — counted in the
        // cluster partition like every other shed, plus their own counter
        // in the membership section and `ClusterOutcome::unroutable`.
        let mut sheds: Vec<Request> = unroutable.iter().map(|&g| trace.requests[g]).collect();
        let mut unroutable_ids: Vec<u64> = sheds.iter().map(|r| r.id).collect();
        unroutable_ids.sort_unstable();
        let mut per_shard: Vec<ServeReport> = Vec::with_capacity(k);
        for (s, out) in shards.into_iter().enumerate() {
            // A handed-over request that a replica rejected or shed.
            failover.lost += out
                .rejections
                .iter()
                .map(|r| r.request.id)
                .chain(out.sheds.iter().map(|r| r.id))
                .filter(|&id| failed_over(id))
                .count() as u64;
            completions.extend(out.completions.into_iter().map(|c| (c, s)));
            rejections.extend(out.rejections);
            sheds.extend(out.sheds);
            per_shard.push(out.report);
        }
        completions.sort_by_key(|(c, _)| c.request.id);
        rejections.sort_by_key(|r| r.request.id);
        sheds.sort_by_key(|r| r.id);
        let mut replay_latency_sum = 0.0;
        for (c, _) in completions
            .iter()
            .filter(|(c, _)| failed_over(c.request.id))
        {
            failover.completed += 1;
            replay_latency_sum += latency(c);
        }
        failover.mean_failover_latency_s = mean(replay_latency_sum, failover.completed);
        let completion_shards = completions.iter().map(|&(_, s)| s).collect();
        // Reuses the pooled buffer: no second copy of the completions.
        let completions: Vec<Completion> = completions.into_iter().map(|(c, _)| c).collect();
        debug_assert!(
            {
                let mut seen: Vec<u64> = completions
                    .iter()
                    .map(|c| c.request.id)
                    .chain(rejections.iter().map(|r| r.request.id))
                    .chain(sheds.iter().map(|r| r.id))
                    .collect();
                seen.sort_unstable();
                let mut all: Vec<u64> = trace.requests.iter().map(|r| r.id).collect();
                all.sort_unstable();
                seen == all
            },
            "completions + rejections + sheds must partition the trace"
        );

        // ----- merge the report sections --------------------------------
        let makespan_s = per_shard
            .iter()
            .map(|r| r.makespan_s)
            .fold(0.0f64, f64::max);
        let mut link = LinkReport::default();
        for r in &per_shard {
            link.grants += r.link.grants;
            link.bytes += r.link.bytes;
            link.busy_s += r.link.busy_s;
        }
        // Each shard has its own link: utilization is fleet busy time over
        // `shards x makespan`.
        link.utilization = if makespan_s > 0.0 {
            (link.busy_s / (k as f64 * makespan_s)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let mut fault = FaultReport::merge(per_shard.iter().map(|r| &r.fault));
        if fault.enabled {
            fault.plan_seed = self.server.config().faults.seed;
        }
        let done = completions.len();
        let correct = completions.iter().filter(|c| c.correct).count();
        let wait: f64 = completions
            .iter()
            .map(|c| c.timestamps.queue_wait().as_s())
            .sum();
        let report = ClusterReport {
            shards: k,
            replication: self.replication,
            requests: trace.requests.len(),
            completed: done,
            rejected: rejections.len(),
            shed: sheds.len(),
            accuracy: mean(correct as f64, done as u64),
            makespan_s,
            throughput_rps: if makespan_s > 0.0 {
                done as f64 / makespan_s
            } else {
                0.0
            },
            // Pooled across shards and ranked once — never averaged per
            // shard.
            latency: LatencySummary::from_latencies(
                &completions.iter().map(latency).collect::<Vec<_>>(),
            ),
            mean_queue_wait_s: mean(wait, done as u64),
            max_queue_depth: per_shard
                .iter()
                .map(|r| r.max_queue_depth)
                .max()
                .unwrap_or(0),
            failover,
            cache: CacheReport::merge(per_shard.iter().map(|r| &r.cache)),
            link,
            phase_totals: per_shard.iter().map(|r| r.phase_totals).sum(),
            speculated: per_shard.iter().map(|r| r.speculated).sum(),
            total_energy_j: per_shard.iter().map(|r| r.total_energy_j).sum(),
            setup_s: per_shard.iter().map(|r| r.setup_s).sum(),
            answers_digest: answers_digest(
                completions.iter().map(|c| (c.request.id, c.run.answer)),
            ),
            fault,
            numeric: NumericHealth::merge(per_shard.iter().map(|r| &r.numeric)),
            batch: BatchReport::merge(per_shard.iter().map(|r| &r.batch)),
            prune: HopPruneReport::merge(per_shard.iter().map(|r| &r.prune)),
            index: IndexReport::merge(per_shard.iter().map(|r| &r.index)),
            durability: DurabilityReport::merge(per_shard.iter().map(|r| &r.durability)),
            membership,
            per_shard,
        };
        ClusterOutcome {
            completions,
            completion_shards,
            rejections,
            sheds,
            failovers: failover_ids,
            unroutable: unroutable_ids,
            report,
        }
    }
}

/// The routing state of one cluster serve: the live membership view, the
/// hot-key splitter and the online retune trigger.
struct Routing<'n> {
    /// Every request's story and routing key, by trace index.
    num: &'n NumericPhase,
    /// The live membership view, retunes fired so far applied.
    view: MembershipView,
    /// Per story: whether the hot-key detector split its traffic.
    hot: Vec<bool>,
    /// Per story: its requests routed so far, while hot.
    hot_rank: Vec<usize>,
    split_requests: u64,
    /// Host-queue depth at which a shard's weight is retuned; `None` when
    /// retuning is off.
    retune_depth: Option<usize>,
    retune_factor: u32,
    /// Weight retunes as `(instant, shard)`, in firing order.
    retunes: Vec<(SimTime, usize)>,
    /// Trace indices of requests with no live shard to go to.
    unroutable: Vec<usize>,
    /// Requests each shard handed back.
    exports: Vec<u64>,
    /// Ids of the requests handed back, once per hand-off.
    failovers: Vec<u64>,
    /// The replica chain last resolved, as `(score, shard)`: one buffer
    /// reused by every route and hand-off.
    chain: Vec<(u64, usize)>,
}

impl Routing<'_> {
    /// The shard that request `g`, arriving at `t`, goes to: its live
    /// primary, or for a hot key the next link of its live replica chain
    /// by per-key arrival rank. `None` when no shard of its chain is live.
    fn route(&mut self, g: usize, t: SimTime) -> Option<usize> {
        self.view.resolve(self.num.key(g), t, &mut self.chain);
        let chain = &self.chain;
        if chain.is_empty() {
            self.unroutable.push(g);
            return None;
        }
        let story = self.num.story_id(g);
        if !self.hot[story] {
            return Some(chain[0].1);
        }
        self.split_requests += 1;
        self.hot_rank[story] += 1;
        Some(chain[(self.hot_rank[story] - 1) % chain.len()].1)
    }

    /// The shard a request handed back by `from` goes to: the `hop`-th
    /// live candidate of its replica chain at the hand-off instant,
    /// skipping `from`; `None` (an unroutable shed) when none is left.
    fn hand_off(&mut self, h: Handoff, from: usize) -> Option<usize> {
        self.view
            .resolve(self.num.key(h.req), h.at, &mut self.chain);
        let target = self
            .chain
            .iter()
            .map(|&(_, s)| s)
            .filter(|&s| s != from)
            .nth(h.hop);
        if target.is_none() {
            self.unroutable.push(h.req);
        }
        target
    }

    /// Fires `shard`'s weight retune at `now` the first time its host
    /// queue reaches the retune depth.
    fn observe(&mut self, shard: usize, now: SimTime, depth: usize) {
        if self.retune_depth.is_some_and(|d| depth >= d)
            && self.retunes.iter().all(|&(_, s)| s != shard)
        {
            self.retunes.push((now, shard));
            self.view.retune(now, shard, self.retune_factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_deterministic_and_distinct() {
        let router = ShardRouter::new(5);
        for key in [0u64, 1, 42, u64::MAX] {
            let chain = router.route(key, 3);
            assert_eq!(chain, router.route(key, 3));
            assert_eq!(chain.len(), 3);
            let mut uniq = chain.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "duplicate shard in chain {chain:?}");
            assert_eq!(router.primary(key), chain[0]);
        }
    }

    #[test]
    fn chains_are_prefix_consistent() {
        // The R-replica chain is the first R entries of the full ranking,
        // so growing R never reshuffles existing replicas.
        let router = ShardRouter::new(6);
        for key in 0..64u64 {
            let full = router.route(key, 6);
            for r in 1..=6 {
                assert_eq!(router.route(key, r), full[..r]);
            }
        }
    }

    #[test]
    fn weighted_shards_attract_more_keys() {
        let router = ShardRouter::with_weights(vec![4, 1, 1]);
        let mut counts = [0usize; 3];
        for key in 0..6000u64 {
            counts[router.primary(key.wrapping_mul(0x2545_f491_4f6c_dd1d))] += 1;
        }
        assert!(
            counts[0] > counts[1] * 2 && counts[0] > counts[2] * 2,
            "weight-4 shard should dominate: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_router_rejected() {
        let _ = ShardRouter::with_weights(Vec::new());
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn over_replication_rejected() {
        let _ = ShardRouter::new(2).route(1, 3);
    }

    #[test]
    fn route_live_with_no_live_shards_is_empty() {
        // The all-replicas-down edge: an empty chain, never a panic. The
        // serve path turns this into an unroutable shed with its own
        // counter rather than dropping the request on the floor.
        let router = ShardRouter::new(3);
        assert!(router.route_live(42, 2, |_| false).is_empty());
        assert!(router.route_live(42, 3, |_| false).is_empty());
        // A partial outage degrades the chain instead of panicking too.
        assert_eq!(router.route_live(42, 3, |s| s == 1), vec![1]);
    }

    /// The insertion ranking is the full ranking sorted by score, shard
    /// index on ties, then cut to the replication factor, on every
    /// liveness mask.
    #[test]
    fn rank_live_is_the_sorted_ranking() {
        let router = ShardRouter::with_weights(vec![3, 1, 2, 5, 1]);
        let mut chain = Vec::new();
        for key in (0..128u64).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            for mask in 0..32usize {
                let alive = |s: usize| mask & (1 << s) != 0;
                let mut sorted: Vec<(u64, usize)> = (0..5)
                    .filter(|&s| alive(s))
                    .map(|s| (router.score(key, s), s))
                    .collect();
                sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                for replicas in 0..=5 {
                    router.rank_live(key, replicas, alive, &mut chain);
                    assert_eq!(chain, sorted[..replicas.min(sorted.len())]);
                    let shards: Vec<usize> = chain.iter().map(|&(_, s)| s).collect();
                    assert_eq!(router.route_live(key, replicas, alive), shards);
                }
            }
        }
    }

    #[test]
    fn config_validation_catches_bad_shapes() {
        let ok = ClusterConfig {
            shards: 4,
            replication: 2,
            ..ClusterConfig::default()
        };
        assert!(ok.validate().is_ok());
        let bad_repl = ClusterConfig {
            shards: 2,
            replication: 3,
            ..ClusterConfig::default()
        };
        assert!(bad_repl.validate().is_err());
        let bad_weights = ClusterConfig {
            shards: 3,
            replication: 1,
            weights: vec![1, 2],
            ..ClusterConfig::default()
        };
        assert!(bad_weights.validate().is_err());
        let zero_weight = ClusterConfig {
            shards: 3,
            replication: 1,
            weights: vec![1, 0, 2],
            ..ClusterConfig::default()
        };
        assert!(
            zero_weight.validate().is_err(),
            "a zero weight must be a hard error, not a clamp"
        );
        let oversize_weight = ClusterConfig {
            shards: 2,
            replication: 1,
            weights: vec![1, MAX_WEIGHT],
            ..ClusterConfig::default()
        };
        assert!(oversize_weight.validate().is_err());
        let plan_out_of_range = ClusterConfig {
            shards: 2,
            replication: 2,
            membership: MembershipPlan::parse_spec("fail=5@1000").expect("parseable"),
            ..ClusterConfig::default()
        };
        assert!(
            plan_out_of_range.validate().is_err(),
            "membership events must reference shards < K"
        );
        let zero = ClusterConfig {
            shards: 0,
            ..ClusterConfig::default()
        };
        assert!(zero.validate().is_err());
    }
}
