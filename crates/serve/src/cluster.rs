//! Distributed serve fabric: a story-affinity sharded cluster.
//!
//! The single-node [`Server`](crate::Server) models one host — one bounded
//! queue, one PCIe arbiter, one instance pool. This module scales that out:
//! a frontend [`ShardRouter`] consistent-hashes each request's story onto K
//! shard nodes (rendezvous hashing with weighted virtual nodes), every
//! shard runs its own full serve stack (link arbiter, instance pool, story
//! cache, fault plan), and a replication factor R arms *cross-shard*
//! failover — a request stranded by an instance crash is re-dispatched to
//! the story's replica shard, paying the story re-upload at real
//! cycle/link cost, instead of re-queueing locally.
//!
//! # Determinism
//!
//! A cluster serve is a pure function of `(suite, trace, config)`:
//!
//! * routing is pure rendezvous hashing over `story_digest`
//!   ([`mann_hw::fault_mix`] under a routing salt), so placement never
//!   depends on arrival interleaving;
//! * each shard's fault plan derives from [`mann_hw::shard_fault_seed`],
//!   so what shard `s` injects is independent of how many shards exist or
//!   the order they are served in;
//! * aggregation folds per-shard results in `(pass, shard)` order whatever
//!   order the shards actually ran in, so [`ClusterReport`] bytes are
//!   identical across `MANN_THREADS`, engine modes, and shard-iteration
//!   order (pinned by tests and a golden).
//!
//! At K=1/R=1 the layer is *inert*: the report serializes and renders as
//! the single shard's [`ServeReport`], byte-identical to the single-node
//! path.

use std::collections::HashMap;
use std::convert::Infallible;

use mann_core::report::{fnum, percent, TextTable};
use mann_core::TaskSuite;
use mann_hw::{
    fault_mix, shard_fault_seed, story_digest, Accelerator, PcieLink, PhaseCycles, SimTime,
};
use serde::Serialize;

use crate::faults::{FaultConfig, FaultReport};
use crate::membership::{
    MembershipEpoch, MembershipEventKind, MembershipPlan, MembershipReport, MembershipView,
};
use crate::numeric::NumericHealth;
use crate::report::{
    answers_digest, mean, push_sections, render_sections, BatchReport, CacheReport, HopPruneReport,
    IndexReport, LatencySummary, LinkReport, ReportSection, ServeReport,
};
use crate::request::{request_key, Completion, Rejection, Request};
use crate::server::{ServeConfig, ServeOutcome, Server, ShardRole};
use crate::store::{never, DurabilityReport};
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
        let mut ranked: Vec<(u64, usize)> = (0..self.weights.len())
            .filter(|&s| alive(s))
            .map(|s| (self.score(key, s), s))
            .collect();
        // Highest score wins; the shard index breaks (astronomically
        // unlikely) score ties so the order is total.
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(replicas);
        ranked.into_iter().map(|(_, s)| s).collect()
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
    /// Per-shard fault-campaign overrides (targeted campaigns / tests);
    /// `None` entries fall back to `base.faults`. Empty = all from base.
    /// At K > 1 every shard's plan seed — overridden or not — is re-mixed
    /// through [`shard_fault_seed`] to keep plans seed-pure per shard.
    pub shard_faults: Vec<Option<FaultConfig>>,
    /// The serve stack every shard runs.
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
            shard_faults: Vec::new(),
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
        if !self.shard_faults.is_empty() && self.shard_faults.len() != self.shards {
            return Err(format!(
                "{} fault overrides for {} shards",
                self.shard_faults.len(),
                self.shards
            ));
        }
        self.base.validate()?;
        for f in self.shard_faults.iter().flatten() {
            f.validate().map_err(|e| e.to_string())?;
        }
        self.membership
            .validate_for(self.shards)
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// Cross-shard failover accounting (zeros at R = 1 or without crashes).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct ClusterFailover {
    /// Watchdog handoffs: requests a shard exported after its instance
    /// crashed under them.
    pub exports: u64,
    /// Exported requests that completed on a replica shard.
    pub completed: u64,
    /// Exported requests lost anyway (replica queue full or replica-side
    /// shed); still accounted in the cluster partition.
    pub lost: u64,
    /// Link bytes the replica passes moved — the re-uploaded stories plus
    /// their answer drains, paid at real link cost.
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
    /// Sum of per-shard energies, joules.
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
    /// Each shard's primary-pass report, in shard-index order (replica
    /// passes are folded into the merged sections above).
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
    /// Every completed request across all shards and failover passes, in
    /// request-id order. `Completion::instance` is shard-local.
    pub completions: Vec<Completion>,
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
/// Construction is cheap; each [`Cluster::serve`] builds its shard
/// [`Server`]s on the fly (they borrow the suite), runs the primary pass
/// on every shard, then drains the cross-shard failover chain until every
/// request is completed, rejected, or shed.
#[derive(Debug)]
pub struct Cluster<'a> {
    suite: &'a TaskSuite,
    router: ShardRouter,
    config: ClusterConfig,
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
            ShardRouter::with_weights(config.weights.clone())
        };
        Self {
            suite,
            router,
            config,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The frontend router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// A request's routing key: the [`request_key`] the single-node
    /// scheduler uses, so "same story, same task" is one routing unit
    /// cluster-wide.
    fn route_key(&self, r: &Request) -> u64 {
        let sample = &self.suite.tasks[r.task_idx].test_set[r.sample_idx];
        request_key(story_digest(sample), r.task_idx)
    }

    /// The [`ServeConfig`] shard `shard` runs on failover pass `pass`.
    fn shard_config(&self, shard: usize, pass: usize) -> ServeConfig {
        let mut cfg = self.config.base.clone();
        if self.config.shards > 1 {
            if let Some(Some(f)) = self.config.shard_faults.get(shard) {
                cfg.faults = f.clone();
            }
            // Seed-pure per shard and per pass: the plan a shard injects
            // never depends on shard count, iteration order, or what the
            // other shards did.
            cfg.faults.seed =
                shard_fault_seed(cfg.faults.seed, ((pass as u64) << 32) | shard as u64);
        }
        cfg
    }

    /// How shard `shard` is deployed on a pass that does (`export`) or
    /// does not hand stranded requests back. A membership fail-stop cuts
    /// the shard at T on every pass: it can still be holding re-dispatched
    /// work when it dies, and what it strands comes back as exports
    /// whatever the pass.
    fn shard_role(&self, shard: usize, export: bool) -> ShardRole {
        ShardRole {
            failover_export: export,
            fail_stop: self.config.membership.fail_time(shard),
        }
    }

    /// The base weight vector the membership view starts from.
    fn effective_weights(&self) -> Vec<u32> {
        if self.config.weights.is_empty() {
            vec![1; self.config.shards]
        } else {
            self.config.weights.clone()
        }
    }

    /// Routes every request against the live membership view *as of its
    /// arrival* — a drained/failed shard attracts nothing after its exit,
    /// a joining shard attracts nothing before its entry — with hot keys
    /// fanned round-robin (by per-key arrival rank) across their full
    /// live replica chain. Returns the per-shard pass-0 sub-traces, the
    /// requests with no live replica at all, and the hot-split request
    /// count. Pure in `(trace, routing)`.
    fn assign_pass0(
        &self,
        trace: &ArrivalTrace,
        routing: &Routing,
    ) -> (Vec<Vec<Request>>, Vec<Request>, u64) {
        let mut pending: Vec<Vec<Request>> = vec![Vec::new(); self.config.shards];
        let mut unroutable: Vec<Request> = Vec::new();
        let mut split_requests = 0u64;
        let mut hot_rank: HashMap<u64, usize> = HashMap::new();
        for r in &trace.requests {
            let key = routing.keys[&r.id];
            let chain = routing.view.resolve(key, r.arrival);
            if chain.is_empty() {
                unroutable.push(*r);
                continue;
            }
            let target = if routing.hot.binary_search(&key).is_ok() {
                split_requests += 1;
                let rank = hot_rank.entry(key).or_insert(0);
                let t = chain[*rank % chain.len()];
                *rank += 1;
                t
            } else {
                chain[0]
            };
            pending[target].push(*r);
        }
        (pending, unroutable, split_requests)
    }

    /// Weight re-tuning: probe-serve each shard's provisional pass-0
    /// sub-trace (a *pure* serve, never the caller's `run` hook, so the
    /// durable path journals nothing twice) and find the first instant its
    /// host-queue depth crosses the threshold; that shard's weight is
    /// divided from then on. The probe runs on the pre-retune assignment,
    /// so the re-tune instants are a pure function of `(plan, trace,
    /// config)` — no fixed-point iteration, no event-loop feedback.
    fn retunes(&self, trace: &ArrivalTrace, routing: &Routing) -> Vec<(SimTime, usize)> {
        let plan = &self.config.membership;
        let (provisional, _, _) = self.assign_pass0(trace, routing);
        let limit =
            ((plan.retune_threshold * self.config.base.queue_capacity as f64).ceil() as i64).max(1);
        let mut retunes = Vec::new();
        for (shard, reqs) in provisional.into_iter().enumerate() {
            if reqs.is_empty() {
                continue;
            }
            let server = Server::new(self.suite, self.shard_config(shard, 0));
            let sub = ArrivalTrace {
                requests: reqs,
                config: trace.config.clone(),
            };
            let probe = server.serve_as(&sub, self.shard_role(shard, self.config.replication > 1));
            // Occupancy deltas: +1 at enqueue, -1 at dispatch; a rejection
            // means the queue sat at full capacity, which is >= any valid
            // threshold.
            let mut deltas: Vec<(SimTime, i32)> = Vec::new();
            for c in &probe.completions {
                deltas.push((c.timestamps.enqueue, 1));
                deltas.push((c.timestamps.dispatch, -1));
            }
            let mut crossing = crate::scheduler::first_depth_crossing(deltas, limit);
            if let Some(rej) = probe.rejections.iter().map(|r| r.request.arrival).min() {
                crossing = Some(crossing.map_or(rej, |c| c.min(rej)));
            }
            if let Some(t) = crossing {
                retunes.push((t, shard));
            }
        }
        retunes
    }

    /// Serves a trace across the cluster.
    pub fn serve(&self, trace: &ArrivalTrace) -> ClusterOutcome {
        let order: Vec<usize> = (0..self.config.shards).collect();
        self.serve_in_order(trace, &order)
    }

    /// Serves with an explicit shard-iteration order. The outcome must be
    /// identical for every permutation — shards share no state and the
    /// aggregation folds in canonical `(pass, shard)` order — which the
    /// determinism tests assert byte-for-byte. [`Cluster::serve`] uses the
    /// identity order.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of `0..shards`.
    pub fn serve_in_order(&self, trace: &ArrivalTrace, order: &[usize]) -> ClusterOutcome {
        never(
            self.serve_in_order_with(trace, order, |_, _, server, sub, role| {
                Ok::<_, Infallible>(server.serve_as(sub, role))
            }),
        )
    }

    /// The generic pass loop under [`Cluster::serve_in_order`]: `run`
    /// serves each `(pass, shard)` sub-trace in the given role, so the
    /// plain path (pure, infallible) and the durable path (journaling,
    /// fallible) share one routing/failover/aggregation skeleton and
    /// cannot drift apart.
    pub(crate) fn serve_in_order_with<E>(
        &self,
        trace: &ArrivalTrace,
        order: &[usize],
        mut run: impl FnMut(
            usize,
            usize,
            &Server<'_>,
            &ArrivalTrace,
            ShardRole,
        ) -> Result<ServeOutcome, E>,
    ) -> Result<ClusterOutcome, E> {
        let k = self.config.shards;
        {
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            assert!(
                sorted == (0..k).collect::<Vec<_>>(),
                "order must be a permutation of 0..{k}"
            );
        }
        let replicas = self.config.replication;
        let plan = &self.config.membership;

        // The live membership view: with an empty plan every shard is
        // alive forever on the base weights, and resolving a key at any
        // instant equals the frozen `ShardRouter::route` — the whole
        // membership layer reduces to the pre-membership routing, byte
        // for byte (pinned by the golden suite).
        // Each distinct (task, sample) query digests its story once.
        let mut query_keys: HashMap<(usize, usize), u64> = HashMap::new();
        let keys: HashMap<u64, u64> = trace
            .requests
            .iter()
            .map(|r| {
                let key = *query_keys
                    .entry((r.task_idx, r.sample_idx))
                    .or_insert_with(|| self.route_key(r));
                (r.id, key)
            })
            .collect();
        let mut routing = Routing {
            hot: plan.hot_keys(trace.requests.iter().map(|r| keys[&r.id])),
            keys,
            view: MembershipView::new(plan, self.effective_weights(), replicas),
            retunes: Vec::new(),
        };
        if plan.retune_threshold > 0.0 {
            routing.retunes = self.retunes(trace, &routing);
            routing
                .view
                .apply_retunes(&routing.retunes, plan.retune_factor);
        }

        // Pass 0: sub-traces routed against the live view at each
        // request's arrival, arrival order preserved.
        let (mut pending, mut unroutable, split_requests) = self.assign_pass0(trace, &routing);

        // Outcomes keyed by (pass, shard); folded in that canonical order
        // below, so the caller's `order` can never leak into the report.
        let mut passes: Vec<(usize, usize, ServeOutcome)> = Vec::new();
        let mut pass = 0usize;
        while pending.iter().any(|p| !p.is_empty()) || pass == 0 {
            let mut next_pending: Vec<Vec<Request>> = vec![Vec::new(); k];
            // The last link of every replica chain resolves locally (the
            // stock watchdog re-queue), so the chain always terminates.
            let export = pass + 1 < replicas;
            for &shard in order {
                let mut reqs = std::mem::take(&mut pending[shard]);
                if reqs.is_empty() && pass > 0 {
                    continue;
                }
                // Canonical replay order: exports were collected in the
                // caller's shard order, which must not be observable.
                reqs.sort_by_key(|r| (r.arrival, r.id));
                let server = Server::new(self.suite, self.shard_config(shard, pass));
                let sub = ArrivalTrace {
                    requests: reqs,
                    config: trace.config.clone(),
                };
                let out = run(pass, shard, &server, &sub, self.shard_role(shard, export))?;
                for ex in &out.exports {
                    // Re-dispatch against the live view *at the handoff
                    // instant*, skipping the exporting shard: the
                    // request arrives at its `pass`-th surviving
                    // candidate and pays its story upload like any other
                    // arrival. With an empty plan the exporter at pass p
                    // is the chain's p-th entry, so the p-th survivor is
                    // exactly the old frozen-chain `routes[id][p + 1]` —
                    // byte-identity preserved. A request with no
                    // surviving candidate is shed as unroutable, never
                    // dropped or panicked on.
                    let cands: Vec<usize> = routing
                        .view
                        .resolve(routing.keys[&ex.request.id], ex.at)
                        .into_iter()
                        .filter(|&s| s != shard)
                        .collect();
                    match cands.get(pass) {
                        Some(&target) => next_pending[target].push(Request {
                            arrival: ex.at,
                            ..ex.request
                        }),
                        None => unroutable.push(ex.request),
                    }
                }
                passes.push((pass, shard, out));
            }
            pending = next_pending;
            pass += 1;
        }
        passes.sort_by_key(|&(p, s, _)| (p, s));

        let membership =
            self.membership_report(&routing, split_requests, unroutable.len() as u64, &passes);
        Ok(self.aggregate(trace, passes, membership, unroutable))
    }

    /// Builds the [`MembershipReport`] for a non-empty plan: lifecycle
    /// counters, drain hand-off accounting through the link model, and
    /// the moved-key epoch timeline measured on the live router. An empty
    /// plan returns the disabled default (key omitted from JSON).
    fn membership_report(
        &self,
        routing: &Routing,
        split_requests: u64,
        unroutable_shed: u64,
        passes: &[(usize, usize, ServeOutcome)],
    ) -> MembershipReport {
        let plan = &self.config.membership;
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
            hot_keys: routing.hot.len() as u64,
            split_requests,
            stranded_exports: passes
                .iter()
                .filter(|&&(_, s, _)| plan.fail_time(s).is_some())
                .map(|(_, _, out)| out.exports.len() as u64)
                .sum(),
            unroutable_shed,
            ..MembershipReport::default()
        };

        // Drain hand-off: the stories resident on a draining shard when
        // it exits — its most recently drained distinct stories, up to
        // its fleet cache capacity — are re-uploaded to their next live
        // replica through the link model, at idle-board link energy (the
        // same precedent as fault-retry link time). The hand-off is a
        // background copy: it costs bytes/cycles/energy but never blocks
        // the destination's serve timeline.
        let base = &self.config.base;
        let cache_slots = base.instances * base.story_cache;
        for e in plan
            .events
            .iter()
            .filter(|e| e.kind == MembershipEventKind::Drain)
        {
            let Some((_, _, out)) = passes.iter().find(|&&(p, s, _)| p == 0 && s == e.shard) else {
                continue;
            };
            // Last drain instant per distinct story, with a
            // representative request for sizing the re-upload.
            let mut last_drained: HashMap<u64, (SimTime, Request)> = HashMap::new();
            for c in &out.completions {
                let key = routing.keys[&c.request.id];
                let entry = last_drained
                    .entry(key)
                    .or_insert((c.timestamps.drain_end, c.request));
                if c.timestamps.drain_end > entry.0 {
                    *entry = (c.timestamps.drain_end, c.request);
                }
            }
            let mut resident: Vec<(u64, SimTime, Request)> = last_drained
                .into_iter()
                .map(|(k, (t, r))| (k, t, r))
                .collect();
            // Most recently used first (the LRU survivors), key ascending
            // on ties so the hand-off set is deterministic.
            resident.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            resident.truncate(cache_slots);
            for (key, _, r) in resident {
                if routing.view.resolve(key, e.at()).is_empty() {
                    continue; // nowhere live to hand the story to
                }
                let sample = &self.suite.tasks[r.task_idx].test_set[r.sample_idx];
                let bytes = PcieLink::input_bytes(Accelerator::input_words(sample));
                let s = base.pcie.transfer_time_s(bytes);
                m.stories_moved += 1;
                m.handoff_bytes += bytes;
                m.handoff_s += s;
                m.handoff_cycles += (s * base.clock.freq_hz()).round() as u64;
                m.handoff_energy_j += base.power.retry_energy_j(base.clock.freq_mhz(), s);
            }
        }

        // Moved-key timeline: at every membership boundary (lifecycle
        // event or weight re-tune), count the distinct trace keys whose
        // live primary differs across the instant — measured on the real
        // router, the same measurement the moved-key-bound proptest
        // makes. The per-leave mean fraction is the live form of the
        // rendezvous bound: each removal relocates <= 1/K + eps of keys.
        let mut tracked: Vec<u64> = routing.keys.values().copied().collect();
        tracked.sort_unstable();
        tracked.dedup();
        m.tracked_keys = tracked.len() as u64;
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
            let moved = tracked
                .iter()
                .filter(|&&key| view.primary(key, before) != view.primary(key, at))
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
        m.moved_key_fraction = if leaves > 0 && !tracked.is_empty() {
            leave_moved as f64 / (tracked.len() as f64 * leaves as f64)
        } else {
            0.0
        };
        m
    }

    /// Folds per-pass outcomes (already in canonical `(pass, shard)`
    /// order) into the cluster outcome: request-level results pooled,
    /// latency percentiles ranked over the pooled samples, and every
    /// report section merged by its own type.
    fn aggregate(
        &self,
        trace: &ArrivalTrace,
        passes: Vec<(usize, usize, ServeOutcome)>,
        membership: MembershipReport,
        unroutable: Vec<Request>,
    ) -> ClusterOutcome {
        let k = self.config.shards;
        let arrival_of: HashMap<u64, SimTime> =
            trace.requests.iter().map(|r| (r.id, r.arrival)).collect();
        // End-to-end latency from the *original* arrival (a failover's
        // replay enqueue is its handoff time, not its arrival).
        let latency = |c: &Completion| {
            c.timestamps
                .drain_end
                .saturating_sub(arrival_of[&c.request.id])
                .as_s()
        };

        // ----- pool the request-level results ---------------------------
        let mut completions: Vec<Completion> = Vec::new();
        let mut rejections: Vec<Rejection> = Vec::new();
        // Unroutable requests (no live replica) are shed — counted in the
        // cluster partition like every other shed, plus their own counter
        // in the membership section and `ClusterOutcome::unroutable`.
        let mut unroutable_ids: Vec<u64> = unroutable.iter().map(|r| r.id).collect();
        unroutable_ids.sort_unstable();
        let mut sheds: Vec<Request> = unroutable;
        let mut failover_ids: Vec<u64> = Vec::new();
        let mut failover = ClusterFailover::default();
        let mut replay_latency_sum = 0.0;
        for &(pass, _, ref out) in &passes {
            completions.extend(out.completions.iter().cloned());
            rejections.extend(out.rejections.iter().copied());
            sheds.extend(out.sheds.iter().copied());
            failover.exports += out.exports.len() as u64;
            failover_ids.extend(out.exports.iter().map(|e| e.request.id));
            if pass > 0 {
                failover.completed += out.completions.len() as u64;
                failover.lost += (out.rejections.len() + out.sheds.len()) as u64;
                failover.replay_link_bytes += out.report.link.bytes;
                replay_latency_sum += out.completions.iter().map(latency).sum::<f64>();
            }
        }
        failover.mean_failover_latency_s = mean(replay_latency_sum, failover.completed);
        completions.sort_by_key(|c| c.request.id);
        rejections.sort_by_key(|r| r.request.id);
        sheds.sort_by_key(|r| r.id);
        failover_ids.sort_unstable();
        failover_ids.dedup();
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
        let reports: Vec<&ServeReport> = passes.iter().map(|(_, _, o)| &o.report).collect();
        let makespan_s = reports.iter().map(|r| r.makespan_s).fold(0.0f64, f64::max);
        let mut link = LinkReport::default();
        for r in &reports {
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
        let mut fault = FaultReport::merge(reports.iter().map(|r| &r.fault));
        if fault.enabled {
            fault.plan_seed = self.config.base.faults.seed;
        }
        // Per-shard breakdown = each shard's primary pass; setup (model
        // upload) is paid once per shard — replica passes reuse the loaded
        // shard and add none.
        let per_shard: Vec<ServeReport> = passes
            .iter()
            .filter(|&&(p, _, _)| p == 0)
            .map(|(_, _, o)| o.report.clone())
            .collect();
        debug_assert_eq!(per_shard.len(), k);
        let done = completions.len();
        let correct = completions.iter().filter(|c| c.correct).count();
        let wait: f64 = completions
            .iter()
            .map(|c| c.timestamps.queue_wait().as_s())
            .sum();
        let report = ClusterReport {
            shards: k,
            replication: self.config.replication,
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
            max_queue_depth: reports.iter().map(|r| r.max_queue_depth).max().unwrap_or(0),
            failover,
            cache: CacheReport::merge(reports.iter().map(|r| &r.cache)),
            link,
            phase_totals: reports.iter().map(|r| r.phase_totals).sum(),
            speculated: reports.iter().map(|r| r.speculated).sum(),
            total_energy_j: reports.iter().map(|r| r.total_energy_j).sum(),
            setup_s: per_shard.iter().map(|r| r.setup_s).sum(),
            answers_digest: answers_digest(
                completions.iter().map(|c| (c.request.id, c.run.answer)),
            ),
            fault,
            numeric: NumericHealth::merge(reports.iter().map(|r| &r.numeric)),
            batch: BatchReport::merge(reports.iter().map(|r| &r.batch)),
            prune: HopPruneReport::merge(reports.iter().map(|r| &r.prune)),
            index: IndexReport::merge(reports.iter().map(|r| &r.index)),
            durability: DurabilityReport::merge(reports.iter().map(|r| &r.durability)),
            membership,
            per_shard,
        };
        ClusterOutcome {
            completions,
            rejections,
            sheds,
            failovers: failover_ids,
            unroutable: unroutable_ids,
            report,
        }
    }
}

/// The routing state of one cluster serve, shared by the pass loop and
/// the membership report.
struct Routing {
    /// Every request's routing key, by id.
    keys: HashMap<u64, u64>,
    /// The live membership view, re-tunes applied.
    view: MembershipView,
    /// Routing keys the hot-key detector split, ascending.
    hot: Vec<u64>,
    /// Weight re-tunes as `(instant, shard)`.
    retunes: Vec<(SimTime, usize)>,
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
        let bad_overrides = ClusterConfig {
            shards: 3,
            replication: 1,
            shard_faults: vec![None],
            ..ClusterConfig::default()
        };
        assert!(bad_overrides.validate().is_err());
        let zero = ClusterConfig {
            shards: 0,
            ..ClusterConfig::default()
        };
        assert!(zero.validate().is_err());
    }
}
