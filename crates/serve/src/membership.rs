//! Live cluster membership: the shard set as a timeline.
//!
//! PR 7's cluster froze its membership for a whole campaign — a shard
//! that died stayed dead, a shard that ran hot stayed hot. This module
//! makes the shard set a first-class *timeline*: a seed-pure
//! [`MembershipPlan`] (JSON or inline `key=value`, read by the plan
//! grammar [`FaultConfig`](crate::FaultConfig) uses) schedules
//!
//! * **drains** — a shard stops accepting new work at time T, finishes
//!   what it already holds, and hands its resident stories to their next
//!   live replica as real re-uploads through the link model;
//! * **failures** — fail-stop at T: everything unfinished on the shard is
//!   stranded and re-routed through [`ShardRouter::route_live`], and when
//!   the write-ahead log is armed the shard's journal simply ends at T;
//! * **joins** — a cold shard enters the rendezvous at T with an empty
//!   story cache and pays its own warm-up;
//! * **weight re-tunes** — the first time a shard's live host-queue depth
//!   reaches a threshold, its routing weight is divided down so the
//!   rendezvous sheds keys to its peers;
//! * **hot-key splits** — a pathological story whose request count crosses
//!   a threshold has its traffic fanned deterministically across its full
//!   replica chain instead of hammering the primary.
//!
//! The cluster timeline routes each request against the live
//! [`MembershipView`] when it arrives, so a request is placed by the
//! membership *as of its arrival*, not as of campaign start. Everything is
//! a pure function of `(plan, trace, config)`: liveness windows come from
//! the plan, re-tune instants from the simulated queue depth on the one
//! cluster timeline, and the hot-key fan-out from request order — never
//! from wall-clock state. An empty plan leaves the cluster path
//! byte-identical to before this module existed (pinned by the golden
//! suite), and the [`MembershipReport`] key is omitted from the serialized
//! [`ClusterReport`](crate::ClusterReport) entirely.
//!
//! Rendezvous hashing is what keeps churn cheap: removing one of K shards
//! relocates only the keys that ranked it first — a ≤ 1/K + ε fraction,
//! proven live on the real router by a proptest, not on paper.

use mann_hw::SimTime;
use serde::{Deserialize, Serialize};

use mann_core::report::{fnum, TextTable};

use crate::cluster::ShardRouter;
use crate::faults::{parsed, read_arg, read_json, read_spec, KeyError, Plan, PlanError};
use crate::report::ReportSection;

/// What happens to a shard at its scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MembershipEventKind {
    /// Planned exit: stop accepting new work at T, finish what is held,
    /// hand resident stories to the next live replica.
    Drain,
    /// Unplanned fail-stop at T: unfinished work is stranded and
    /// re-routed; with a WAL, the journal is cut at T.
    Fail,
    /// Cold entry at T: the shard starts taking keys with an empty cache.
    Join,
}

impl MembershipEventKind {
    fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "drain" => Some(Self::Drain),
            "fail" => Some(Self::Fail),
            "join" => Some(Self::Join),
            _ => None,
        }
    }

    /// Whether the shard is *removed* from the live set at the event time.
    pub fn is_leave(self) -> bool {
        matches!(self, Self::Drain | Self::Fail)
    }
}

impl std::fmt::Display for MembershipEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Drain => write!(f, "drain"),
            Self::Fail => write!(f, "fail"),
            Self::Join => write!(f, "join"),
        }
    }
}

impl Serialize for MembershipEventKind {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Str(self.to_string())
    }
}

impl Deserialize for MembershipEventKind {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        let serde_json::Value::Str(s) = v else {
            return Err(serde_json::Error::msg(format!(
                "expected membership-event kind string, got {}",
                v.kind()
            )));
        };
        Self::parse(s).ok_or_else(|| {
            serde_json::Error::msg(format!(
                "unknown membership-event kind {s:?}: expected drain, fail or join"
            ))
        })
    }
}

/// One scheduled lifecycle change of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MembershipEvent {
    /// What happens.
    pub kind: MembershipEventKind,
    /// Which shard (index into the cluster's shard set).
    pub shard: usize,
    /// When, in simulated seconds from campaign start.
    pub at_s: f64,
}

impl Deserialize for MembershipEvent {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        Ok(Self {
            kind: Deserialize::from_value(v.field("kind")?)?,
            shard: Deserialize::from_value(v.field("shard")?)?,
            at_s: Deserialize::from_value(v.field("at_s")?)?,
        })
    }
}

impl MembershipEvent {
    /// The event instant on the integer-picosecond simulation clock.
    pub fn at(&self) -> SimTime {
        SimTime::from_s(self.at_s)
    }
}

/// Declarative description of one membership-churn campaign.
///
/// The default value schedules nothing: an empty plan serves
/// byte-identically to a build without the membership layer at all
/// (pinned by the golden suite), and the `membership` key is omitted from
/// the serialized cluster report entirely.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MembershipPlan {
    /// Scheduled drains, failures and joins — at most one per shard.
    pub events: Vec<MembershipEvent>,
    /// Queue-occupancy fraction (of `queue_capacity`) at which a shard's
    /// routing weight is re-tuned down; 0 disables re-tuning. The retune
    /// fires online, the first time the shard's simulated host-queue depth
    /// reaches `ceil(threshold × queue_capacity)`, at most once per shard,
    /// and applies to every request arriving after that instant.
    pub retune_threshold: f64,
    /// Divisor applied to a crossing shard's weight, floored at 1: a
    /// weight-1 shard cannot be retuned, and a retune moves keys only
    /// from a shard whose weight is at least twice the factor.
    pub retune_factor: u32,
    /// Request count at which a single routing key is declared hot and
    /// its traffic split round-robin across its full replica chain; 0
    /// disables the detector.
    pub hot_key_threshold: u64,
}

impl Default for MembershipPlan {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            retune_threshold: 0.0,
            retune_factor: 2,
            hot_key_threshold: 0,
        }
    }
}

impl Deserialize for MembershipPlan {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        read_json(v)
    }
}

impl Plan for MembershipPlan {
    const NAME: &'static str = "membership";
    const KEYS: &'static str = "drain, fail, join, retune-threshold, retune-factor, hot-key";
    const SYNTAX: &'static str = " (events take `shard@us`)";

    fn set_key(&mut self, key: &str, value: &str) -> Result<(), KeyError> {
        match key {
            "drain" | "fail" | "join" => {
                let (shard, at_us) = value.split_once('@').ok_or(KeyError::BadValue)?;
                self.events.push(MembershipEvent {
                    kind: MembershipEventKind::parse(key).expect("matched above"),
                    shard: parsed(shard.trim())?,
                    at_s: parsed::<f64>(at_us.trim())? * 1e-6,
                });
            }
            "retune-threshold" => self.retune_threshold = parsed(value)?,
            "retune-factor" => self.retune_factor = parsed(value)?,
            "hot-key" => self.hot_key_threshold = parsed(value)?,
            _ => return Err(KeyError::Unknown),
        }
        Ok(())
    }

    fn set_field(&mut self, field: &str, v: &serde_json::Value) -> Result<bool, serde_json::Error> {
        match field {
            "events" => self.events = Deserialize::from_value(v)?,
            "retune_threshold" => self.retune_threshold = Deserialize::from_value(v)?,
            "retune_factor" => self.retune_factor = Deserialize::from_value(v)?,
            "hot_key_threshold" => self.hot_key_threshold = Deserialize::from_value(v)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks shape-level validity (everything that does not need the
    /// shard count; see [`MembershipPlan::validate_for`]).
    fn validate(&self) -> Result<(), PlanError> {
        let bad = |field: &'static str, reason: String| {
            Err(PlanError::Invalid {
                plan: Self::NAME,
                field,
                reason,
            })
        };
        for e in &self.events {
            // An instant that rounds to 0 ps would fail-stop a shard
            // before it serves anything.
            if SimTime::try_from_s(e.at_s).is_none_or(|t| t == SimTime::ZERO) {
                return bad(
                    "events",
                    format!(
                        "{} of shard {} must be at an instant from 1 ps to under 2^64 ps, \
                         got {} s",
                        e.kind, e.shard, e.at_s
                    ),
                );
            }
        }
        let mut shards: Vec<usize> = self.events.iter().map(|e| e.shard).collect();
        shards.sort_unstable();
        if let Some(w) = shards.windows(2).find(|w| w[0] == w[1]) {
            return bad(
                "events",
                format!(
                    "shard {} has more than one lifecycle event; a shard may \
                     drain, fail or join at most once per campaign",
                    w[0]
                ),
            );
        }
        if !(self.retune_threshold.is_finite() && (0.0..=1.0).contains(&self.retune_threshold)) {
            return bad(
                "retune_threshold",
                format!("must be in [0, 1], got {}", self.retune_threshold),
            );
        }
        if self.retune_threshold > 0.0 && self.retune_factor < 2 {
            return bad(
                "retune_factor",
                format!(
                    "must be >= 2 when re-tuning is armed (a factor of {} \
                     would never change a weight)",
                    self.retune_factor
                ),
            );
        }
        if self.hot_key_threshold == 1 {
            return bad(
                "hot_key_threshold",
                "of 1 declares every key hot; use 0 to disable or >= 2 to detect".into(),
            );
        }
        Ok(())
    }
}

impl MembershipPlan {
    /// A plan that schedules nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan changes anything at all. An empty plan leaves
    /// the cluster serve path byte-identical to before the membership
    /// layer existed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.retune_threshold == 0.0 && self.hot_key_threshold == 0
    }

    /// Checks the plan against a concrete shard count: every referenced
    /// shard index must exist, and a non-empty plan needs at least two
    /// shards (at K=1 the cluster layer is inert and the membership
    /// section would be unrepresentable).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Invalid`] naming the first bad field.
    pub fn validate_for(&self, shards: usize) -> Result<(), PlanError> {
        self.validate()?;
        if let Some(e) = self.events.iter().find(|e| e.shard >= shards) {
            return Err(PlanError::Invalid {
                plan: Self::NAME,
                field: "events",
                reason: format!(
                    "{} references shard {} but the cluster has only {} shard(s) \
                     (indices 0..{})",
                    e.kind, e.shard, shards, shards
                ),
            });
        }
        if !self.is_empty() && shards < 2 {
            return Err(PlanError::Invalid {
                plan: Self::NAME,
                field: "events",
                reason: "a live-membership plan needs at least 2 shards; at K=1 the \
                         cluster layer is inert"
                    .into(),
            });
        }
        Ok(())
    }

    /// Parses and validates an inline `key=value[,key=value...]` spec,
    /// e.g. `drain=1@1500,fail=2@2600,join=3@700,hot-key=10,retune-threshold=0.05`.
    ///
    /// Event keys (`drain`, `fail`, `join`) take `shard@microseconds` and
    /// may repeat (for different shards); `retune-threshold` is a queue
    /// fraction in [0, 1], `retune-factor` a weight divisor, `hot-key` a
    /// request count. Omitted keys keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] on unknown keys, unparseable values, or
    /// out-of-range fields.
    pub fn parse_spec(spec: &str) -> Result<Self, PlanError> {
        read_spec(spec)
    }

    /// Reads and validates an inline spec (an argument holding `=`) or
    /// else the JSON plan file at that path, whose omitted fields keep
    /// their defaults.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] on unreadable files, malformed JSON or
    /// specs, or out-of-range fields.
    pub fn from_arg(arg: &str) -> Result<Self, PlanError> {
        read_arg(arg)
    }

    /// The one lifecycle event the plan schedules for `shard`, if any.
    pub(crate) fn event(&self, shard: usize) -> Option<MembershipEvent> {
        self.events.iter().find(|e| e.shard == shard).copied()
    }

    /// Per story of `stories`, whether its request count reaches the
    /// hot-key threshold, given each request's story index.
    pub(crate) fn hot_keys(
        &self,
        stories: usize,
        story_of: impl Iterator<Item = usize>,
    ) -> Vec<bool> {
        let mut counts = vec![0u64; stories];
        for s in story_of {
            counts[s] += 1;
        }
        let threshold = self.hot_key_threshold;
        counts
            .into_iter()
            .map(|n| threshold > 0 && n >= threshold)
            .collect()
    }
}

/// The live membership as a function of simulated time: per-shard
/// liveness windows from the plan plus a weight-epoch timeline (the base
/// router, then one re-built router per weight re-tune).
///
/// Pure in `(plan, weights, retunes so far)`. The cluster timeline appends
/// a retune epoch at the instant it fires and resolves each request when
/// it arrives, in an order fixed at every instant, which keeps routing
/// byte-identical across worker counts and shard stepping order.
#[derive(Debug, Clone)]
pub(crate) struct MembershipView {
    replicas: usize,
    /// Weight epochs, ascending; `routers[i]` applies from `starts[i]` on.
    starts: Vec<SimTime>,
    routers: Vec<ShardRouter>,
    /// First instant each shard is live (ZERO unless it joins later).
    alive_from: Vec<SimTime>,
    /// First instant each shard is gone (drain or fail), if any.
    dead_from: Vec<Option<SimTime>>,
}

impl MembershipView {
    /// Builds the view for `plan` over shards with the given base weights.
    pub fn new(plan: &MembershipPlan, weights: Vec<u32>, replicas: usize) -> Self {
        let k = weights.len();
        let mut alive_from = vec![SimTime::ZERO; k];
        let mut dead_from = vec![None; k];
        for e in &plan.events {
            match e.kind {
                MembershipEventKind::Join => alive_from[e.shard] = e.at(),
                MembershipEventKind::Drain | MembershipEventKind::Fail => {
                    dead_from[e.shard] = Some(e.at());
                }
            }
        }
        Self {
            replicas,
            starts: vec![SimTime::ZERO],
            routers: vec![ShardRouter::with_weights(weights)],
            alive_from,
            dead_from,
        }
    }

    /// Whether `shard` is live at `t`.
    pub fn alive(&self, shard: usize, t: SimTime) -> bool {
        t >= self.alive_from[shard] && self.dead_from[shard].is_none_or(|d| t < d)
    }

    /// The router in force at `t` (the last weight epoch at or before it).
    fn router_at(&self, t: SimTime) -> &ShardRouter {
        let idx = self.starts.partition_point(|&s| s <= t);
        &self.routers[idx.saturating_sub(1)]
    }

    /// Refills `chain` with the live replica chain of `key` as of `t`, as
    /// `(score, shard)`, primary first — shorter than the replication
    /// factor when fewer shards are live, empty when none are.
    pub fn resolve(&self, key: u64, t: SimTime, chain: &mut Vec<(u64, usize)>) {
        self.router_at(t)
            .rank_live(key, self.replicas, |s| self.alive(s, t), chain);
    }

    /// The live primary of `key` as of `t`, if any shard is live.
    pub fn primary(&self, key: u64, t: SimTime) -> Option<usize> {
        self.router_at(t)
            .route_live(key, 1, |s| self.alive(s, t))
            .first()
            .copied()
    }

    /// A weight retune: from `at` on, `shard`'s weight is divided by
    /// `factor` (floored at 1, so a weight-1 shard keeps its keys) in a
    /// new router epoch that compounds the earlier ones. Retunes arrive
    /// in time order.
    pub fn retune(&mut self, at: SimTime, shard: usize, factor: u32) {
        debug_assert!(self.starts.last().is_none_or(|&s| s <= at));
        let mut weights = self.routers.last().expect("base epoch").weights().to_vec();
        weights[shard] = (weights[shard] / factor.max(1)).max(1);
        self.starts.push(at);
        self.routers.push(ShardRouter::with_weights(weights));
    }
}

/// One entry of the membership epoch timeline: a lifecycle event or
/// weight re-tune, with the number of tracked keys whose live primary
/// moved across the boundary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MembershipEpoch {
    /// Event instant, simulated seconds.
    pub at_s: f64,
    /// `drain`, `fail`, `join` or `retune`.
    pub kind: String,
    /// The shard whose lifecycle or weight changed.
    pub shard: usize,
    /// Distinct trace keys whose primary differs across the boundary.
    pub moved_keys: u64,
}

/// Aggregate accounting of one membership-churn campaign; joins
/// [`ClusterReport`](crate::ClusterReport) with the key omitted entirely
/// when the plan is empty, so plans that schedule nothing stay
/// byte-invisible.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct MembershipReport {
    /// Whether a non-empty plan was in force (false omits the key).
    pub enabled: bool,
    /// Membership epochs the campaign passed through (initial + one per
    /// timeline entry).
    pub epochs: usize,
    /// Planned shard drains executed.
    pub drains: u64,
    /// Fail-stop shard failures executed.
    pub failures: u64,
    /// Cold shard joins executed.
    pub joins: u64,
    /// Weight re-tunes triggered by queue-occupancy crossings.
    pub retunes: u64,
    /// Distinct routing keys the hot-key detector declared hot.
    pub hot_keys: u64,
    /// Requests fanned out across a hot key's replica chain.
    pub split_requests: u64,
    /// Requests stranded on failed shards and handed back for re-routing.
    pub stranded_exports: u64,
    /// Requests shed because no live replica existed for their key — the
    /// dedicated all-replicas-down counter (still part of the cluster
    /// partition: these land in the shed pool, never silently dropped).
    pub unroutable_shed: u64,
    /// Resident stories handed from drained shards to their next live
    /// replica.
    pub stories_moved: u64,
    /// Hand-off payload bytes (story re-uploads through the link model).
    pub handoff_bytes: u64,
    /// Hand-off link time converted to fabric cycles.
    pub handoff_cycles: u64,
    /// Hand-off link time, seconds.
    pub handoff_s: f64,
    /// Hand-off energy at idle-board power (the link-retry precedent), J.
    pub handoff_energy_j: f64,
    /// Distinct routing keys in the trace (the moved-key denominator).
    pub tracked_keys: u64,
    /// Sum of `moved_keys` over the epoch timeline.
    pub moved_keys: u64,
    /// Mean fraction of tracked keys relocated per *leave* event — the
    /// live measurement the rendezvous bound (≤ 1/K + ε per removal)
    /// speaks about.
    pub moved_key_fraction: f64,
    /// The epoch timeline in `(time, shard)` order.
    pub timeline: Vec<MembershipEpoch>,
}

impl ReportSection for MembershipReport {
    fn key(&self) -> &'static str {
        "membership"
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn render(&self) -> String {
        let mut t = TextTable::new(vec!["membership".into(), "value".into()]);
        t.row(vec!["epochs".into(), self.epochs.to_string()]);
        t.row(vec![
            "drains / failures / joins".into(),
            format!("{} / {} / {}", self.drains, self.failures, self.joins),
        ]);
        t.row(vec!["weight re-tunes".into(), self.retunes.to_string()]);
        t.row(vec![
            "hot keys (split requests)".into(),
            format!("{} ({})", self.hot_keys, self.split_requests),
        ]);
        t.row(vec![
            "stranded exports".into(),
            self.stranded_exports.to_string(),
        ]);
        t.row(vec![
            "unroutable shed".into(),
            self.unroutable_shed.to_string(),
        ]);
        t.row(vec![
            "stories handed off".into(),
            format!(
                "{} ({} B, {} cycles, {} J)",
                self.stories_moved,
                self.handoff_bytes,
                self.handoff_cycles,
                fnum(self.handoff_energy_j, 6)
            ),
        ]);
        t.row(vec![
            "moved keys".into(),
            format!(
                "{} / {} tracked ({} per leave)",
                self.moved_keys,
                self.tracked_keys,
                fnum(self.moved_key_fraction, 4)
            ),
        ]);
        let mut out = t.render();
        if !self.timeline.is_empty() {
            out.push('\n');
            let mut tl = TextTable::new(vec![
                "t (us)".into(),
                "event".into(),
                "shard".into(),
                "moved keys".into(),
            ]);
            for e in &self.timeline {
                tl.row(vec![
                    fnum(e.at_s * 1e6, 1),
                    e.kind.clone(),
                    e.shard.to_string(),
                    e.moved_keys.to_string(),
                ]);
            }
            out.push_str(&tl.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = MembershipPlan::none();
        assert!(p.is_empty());
        p.validate_for(1).expect("empty plan valid at any K");
        p.validate_for(4).expect("empty plan valid at any K");
    }

    #[test]
    fn spec_round_trip() {
        let p = MembershipPlan::parse_spec(
            "drain=1@1500,fail=2@2600,join=3@700,hot-key=10,retune-threshold=0.05,retune-factor=4",
        )
        .expect("valid spec");
        assert_eq!(p.events.len(), 3);
        assert_eq!(p.events[0].kind, MembershipEventKind::Drain);
        assert_eq!(p.events[0].shard, 1);
        assert!((p.events[0].at_s - 1500e-6).abs() < 1e-12);
        assert_eq!(p.hot_key_threshold, 10);
        assert_eq!(p.retune_factor, 4);
        assert!(!p.is_empty());
        p.validate_for(4).expect("fits K=4");
    }

    #[test]
    fn json_partial_fields_keep_defaults() {
        let p: MembershipPlan = serde_json::from_str(
            r#"{"events": [{"kind": "fail", "shard": 0, "at_s": 0.001}], "hot_key_threshold": 8}"#,
        )
        .expect("valid JSON plan");
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].kind, MembershipEventKind::Fail);
        assert_eq!(p.retune_factor, 2, "omitted field keeps default");
        assert_eq!(p.hot_key_threshold, 8);
    }

    #[test]
    fn bad_specs_are_hard_errors() {
        assert!(matches!(
            MembershipPlan::parse_spec("drain=1"),
            Err(PlanError::BadValue { .. })
        ));
        assert!(matches!(
            MembershipPlan::parse_spec("evict=1@100"),
            Err(PlanError::UnknownKey { .. })
        ));
        assert!(matches!(
            MembershipPlan::parse_spec("drain=1@0"),
            Err(PlanError::Invalid { .. })
        ));
        assert!(matches!(
            MembershipPlan::parse_spec("drain=1@100,fail=1@200"),
            Err(PlanError::Invalid { .. })
        ));
        assert!(matches!(
            MembershipPlan::parse_spec("hot-key=1"),
            Err(PlanError::Invalid { .. })
        ));
        assert!(matches!(
            MembershipPlan::parse_spec("retune-threshold=0.5,retune-factor=1"),
            Err(PlanError::Invalid { .. })
        ));
        assert!(matches!(
            MembershipPlan::parse_spec("retune-threshold=1.5"),
            Err(PlanError::Invalid { .. })
        ));
    }

    #[test]
    fn instants_that_round_to_zero_ps_are_hard_errors() {
        // 1e-7 us is 0.1 ps: positive, but zero on the simulation clock.
        for spec in ["fail=1@0.0000001", "drain=0@0.0000001", "join=1@0.0000004"] {
            assert!(
                matches!(
                    MembershipPlan::parse_spec(spec),
                    Err(PlanError::Invalid { .. })
                ),
                "{spec} must be rejected"
            );
        }
        let p: MembershipPlan =
            serde_json::from_str(r#"{"events": [{"kind": "fail", "shard": 1, "at_s": 1e-13}]}"#)
                .expect("shape-valid JSON");
        assert!(p.validate().is_err());
        // Past the clock's range is an error too, not a panic.
        assert!(matches!(
            MembershipPlan::parse_spec("drain=1@1e300"),
            Err(PlanError::Invalid { .. })
        ));
        // One picosecond is the first servable instant.
        let p = MembershipPlan::parse_spec("fail=1@0.000001").expect("1 ps is valid");
        assert_eq!(p.events[0].at(), SimTime::from_ps(1));
    }

    #[test]
    fn validate_for_rejects_out_of_range_shards_and_k1() {
        let p = MembershipPlan::parse_spec("fail=4@100").expect("shape-valid");
        assert!(matches!(p.validate_for(4), Err(PlanError::Invalid { .. })));
        p.validate_for(5).expect("shard 4 exists at K=5");
        let p = MembershipPlan::parse_spec("hot-key=8").expect("shape-valid");
        assert!(matches!(p.validate_for(1), Err(PlanError::Invalid { .. })));
    }

    #[test]
    fn view_liveness_windows() {
        let plan =
            MembershipPlan::parse_spec("drain=1@100,fail=2@200,join=3@50").expect("valid plan");
        let view = MembershipView::new(&plan, vec![1; 4], 2);
        let us = |u: f64| SimTime::from_s(u * 1e-6);
        assert!(view.alive(0, SimTime::ZERO));
        assert!(view.alive(1, us(99.0)) && !view.alive(1, us(100.0)));
        assert!(view.alive(2, us(199.0)) && !view.alive(2, us(200.0)));
        assert!(!view.alive(3, us(49.0)) && view.alive(3, us(50.0)));
        // After both leaves, chains draw only from {0, 3}.
        let mut chain = Vec::new();
        for key in 0..64u64 {
            view.resolve(key, us(300.0), &mut chain);
            assert!(!chain.is_empty() && chain.iter().all(|&(_, s)| s == 0 || s == 3));
        }
        // Before the join, shard 3 is never ranked.
        for key in 0..64u64 {
            view.resolve(key, us(10.0), &mut chain);
            assert!(chain.iter().all(|&(_, s)| s != 3));
        }
    }

    #[test]
    fn view_resolve_empty_when_all_dead() {
        let plan = MembershipPlan::parse_spec("fail=0@100,fail=1@100").expect("valid plan");
        let view = MembershipView::new(&plan, vec![1; 2], 2);
        let t = SimTime::from_s(150e-6);
        let mut chain = vec![(0, 0)];
        view.resolve(7, t, &mut chain);
        assert!(chain.is_empty());
        assert_eq!(view.primary(7, t), None);
    }

    #[test]
    fn retune_shifts_keys_off_the_shard() {
        let plan = MembershipPlan::none();
        let mut view = MembershipView::new(&plan, vec![8, 8], 1);
        let t = SimTime::from_s(100e-6);
        let before: Vec<_> = (0..512u64).map(|k| view.primary(k, t).unwrap()).collect();
        view.retune(SimTime::from_s(50e-6), 0, 8);
        let after: Vec<_> = (0..512u64).map(|k| view.primary(k, t).unwrap()).collect();
        let shed = before
            .iter()
            .zip(&after)
            .filter(|&(&b, &a)| b == 0 && a == 1)
            .count();
        assert!(shed > 0, "an 8x weight cut must shed keys to the peer");
        assert!(
            before
                .iter()
                .zip(&after)
                .all(|(&b, &a)| !(b == 1 && a == 0)),
            "a weight cut must never attract keys"
        );
        // Before the retune instant, the old router is in force.
        let early = SimTime::from_s(10e-6);
        for k in 0..512u64 {
            assert_eq!(view.primary(k, early).unwrap(), before[k as usize]);
        }
    }

    #[test]
    fn hot_keys_need_the_threshold() {
        let plan = MembershipPlan::parse_spec("hot-key=3").expect("valid");
        let stories = [0, 0, 0, 1, 1, 2];
        assert_eq!(
            plan.hot_keys(3, stories.iter().copied()),
            [true, false, false]
        );
        assert_eq!(
            MembershipPlan::none().hot_keys(3, stories.iter().copied()),
            [false; 3]
        );
    }
}
