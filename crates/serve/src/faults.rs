//! Deterministic fault-injection campaigns for the serve stack.
//!
//! A [`FaultConfig`] describes *what can go wrong* during a serve — link
//! corruption, instance crashes, radiation upsets in resident story
//! memory, host-queue overload — and a [`FaultPlan`] materializes that
//! description into a concrete, seeded schedule of fault events in
//! simulated time. The plan is a pure function of `(config, trace span,
//! instance count)`: every decision — whether a given transfer attempt is
//! corrupted, when an instance crashes, which resident story an SEU
//! flips — derives from counter-mode hashes ([`mann_hw::fault_mix`]) or a
//! dedicated `StdRng` stream, never from wall-clock state or event-loop
//! interleaving. That is what makes a fault campaign byte-identical
//! across worker counts.
//!
//! Recovery is the serving engine's job ([`crate::Server::serve`]): CRC
//! retransmission with bounded exponential backoff, watchdog-driven
//! failover to a healthy replica, degraded-ITH admission under overload,
//! and scrub-and-reupload of poisoned resident stories. The outcome is
//! summarized in a [`FaultReport`] embedded in the serve report.
//!
//! Every way an instance or a shard stops comes from one of two plans,
//! read by the one grammar here ([`PlanError`]): this module's seeded
//! classes, whose draws all live here (crashes, SEUs, and the node kill
//! the durable store applies to a finished journal), and the scheduled
//! fail, drain and join events of a
//! [`MembershipPlan`](crate::MembershipPlan).

use mann_hw::{fault_coin, fault_mix, shard_fault_seed, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use mann_core::report::{fnum, TextTable};

use crate::report::{mean, ReportSection};

/// Everything that can go wrong reading or validating a fault or
/// membership plan. `plan` names which of the two it was.
#[derive(Debug, thiserror::Error)]
pub enum PlanError {
    /// The plan file could not be read.
    #[error("cannot read {plan} plan {path}: {source}")]
    Io {
        /// `fault` or `membership`.
        plan: &'static str,
        /// Path of the unreadable plan.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The plan file was not valid JSON of the expected shape.
    #[error("cannot parse {plan} plan {path}: {source}")]
    Parse {
        /// `fault` or `membership`.
        plan: &'static str,
        /// Path of the malformed plan.
        path: String,
        /// The underlying JSON error.
        source: serde_json::Error,
    },
    /// A field value is out of range or inconsistent.
    #[error("invalid {plan} plan: {field} {reason}")]
    Invalid {
        /// `fault` or `membership`.
        plan: &'static str,
        /// The offending field.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// An inline `key=value` spec used an unknown key.
    #[error("unknown {plan}-plan key {key:?}: expected one of {keys}")]
    UnknownKey {
        /// `fault` or `membership`.
        plan: &'static str,
        /// The unrecognized key.
        key: String,
        /// The keys the plan knows.
        keys: &'static str,
    },
    /// An inline `key=value` spec had an unparseable value.
    #[error("bad value {value:?} for {plan}-plan key {key}{syntax}")]
    BadValue {
        /// `fault` or `membership`.
        plan: &'static str,
        /// The key whose value failed to parse.
        key: String,
        /// The rejected value text.
        value: String,
        /// What the plan's values look like, if it says.
        syntax: &'static str,
    },
}

/// One plan's part of the plan grammar: its name, inline keys, JSON
/// fields and validation. [`read_spec`], [`read_arg`] and [`read_json`]
/// are the rest, shared by [`FaultConfig`] and
/// [`MembershipPlan`](crate::MembershipPlan).
pub(crate) trait Plan: Default + Deserialize {
    /// The plan's name in errors.
    const NAME: &'static str;
    /// The inline keys, listed by the unknown-key error.
    const KEYS: &'static str;
    /// Appended to the bad-value error.
    const SYNTAX: &'static str = "";

    /// Sets inline key `key` from its value text.
    fn set_key(&mut self, key: &str, value: &str) -> Result<(), KeyError>;

    /// Sets JSON field `field`; `Ok(false)` when the plan has no such field.
    fn set_field(
        &mut self,
        field: &str,
        value: &serde_json::Value,
    ) -> Result<bool, serde_json::Error>;

    /// Checks ranges and cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Invalid`] naming the first bad field.
    fn validate(&self) -> Result<(), PlanError>;
}

/// Why [`Plan::set_key`] refused a `key=value` pair.
pub(crate) enum KeyError {
    Unknown,
    BadValue,
}

/// An inline value parsed as `T`, or a bad value.
pub(crate) fn parsed<T: std::str::FromStr>(value: &str) -> Result<T, KeyError> {
    value.parse().map_err(|_| KeyError::BadValue)
}

/// Parses and validates an inline `key=value[,key=value...]` spec.
/// Omitted keys keep their defaults.
pub(crate) fn read_spec<P: Plan>(spec: &str) -> Result<P, PlanError> {
    let mut out = P::default();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let bad = |key: &str, value: &str| PlanError::BadValue {
            plan: P::NAME,
            key: key.to_owned(),
            value: value.to_owned(),
            syntax: P::SYNTAX,
        };
        let Some((key, value)) = part.split_once('=') else {
            return Err(bad(part.trim(), ""));
        };
        let (key, value) = (key.trim(), value.trim());
        out.set_key(key, value).map_err(|e| match e {
            KeyError::Unknown => PlanError::UnknownKey {
                plan: P::NAME,
                key: key.to_owned(),
                keys: P::KEYS,
            },
            KeyError::BadValue => bad(key, value),
        })?;
    }
    out.validate()?;
    Ok(out)
}

/// Reads and validates a plan from an inline spec (an argument holding
/// `=`) or else from the JSON file at that path.
pub(crate) fn read_arg<P: Plan>(arg: &str) -> Result<P, PlanError> {
    if arg.contains('=') {
        return read_spec(arg);
    }
    let text = std::fs::read_to_string(arg).map_err(|source| PlanError::Io {
        plan: P::NAME,
        path: arg.to_owned(),
        source,
    })?;
    let plan: P = serde_json::from_str(&text).map_err(|source| PlanError::Parse {
        plan: P::NAME,
        path: arg.to_owned(),
        source,
    })?;
    plan.validate()?;
    Ok(plan)
}

/// A plan from a JSON object, unvalidated. Omitted fields keep their
/// defaults, so a plan file says only what it changes.
pub(crate) fn read_json<P: Plan>(v: &serde_json::Value) -> Result<P, serde_json::Error> {
    let serde_json::Value::Object(pairs) = v else {
        return Err(serde_json::Error::msg(format!(
            "expected {}-plan object, got {}",
            P::NAME,
            v.kind()
        )));
    };
    let mut out = P::default();
    for (field, val) in pairs {
        if !out.set_field(field, val)? {
            return Err(serde_json::Error::msg(format!(
                "unknown {}-plan field `{field}`",
                P::NAME
            )));
        }
    }
    Ok(out)
}

/// Declarative description of one fault campaign.
///
/// The default value injects nothing: a zero [`FaultConfig`] serves
/// byte-identically to a build without the fault layer at all (pinned by
/// the golden suite). All probabilities and durations are interpreted in
/// simulated time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultConfig {
    /// Seed of the campaign; all fault randomness derives from it.
    pub seed: u64,
    /// Per-attempt probability that a link transfer arrives corrupted
    /// (detected by CRC at the receiver, answered by retransmission).
    pub link_corrupt_prob: f64,
    /// Retransmissions allowed per link job before the payload is
    /// declared undeliverable and its requests are shed; at most 20.
    pub max_retries: u32,
    /// Backoff before the first retransmission, seconds; doubles per
    /// subsequent attempt on the same job.
    pub backoff_base_s: f64,
    /// Instance crash events injected uniformly over the trace span.
    pub crashes: u32,
    /// Time a crashed instance stays down before rejoining, seconds.
    pub crash_cooldown_s: f64,
    /// Per-request watchdog timeout, seconds; 0 disables the watchdog.
    /// Required whenever `crashes > 0` — it is the only mechanism that
    /// rescues requests stranded on a dead instance.
    pub watchdog_s: f64,
    /// Single-event upsets injected into resident story memory, uniformly
    /// over the trace span.
    pub seus: u32,
    /// Host-queue depth at (and beyond) which newly admitted requests are
    /// answered in aggressive-ITH degraded mode; 0 disables degradation.
    pub degrade_depth: usize,
    /// How far degraded mode lowers every calibrated ITH threshold
    /// (earlier early-exit: cheaper, less accurate).
    pub degrade_margin: f32,
    /// Host-level fail-stop kills: a whole serving node (shard) killed
    /// mid-journal and recovered by WAL replay. Unlike every other class
    /// this is not an event-loop fault: the simulated serve is untouched
    /// (so it stays out of [`FaultConfig::is_active`]), and the durable
    /// store kills the journaling process around it, so the class needs
    /// the WAL. The victim shard and its kill point are drawn here, from
    /// the base seed, beside the other classes' streams. Contrast with a
    /// membership-plan `fail` event ([`crate::MembershipPlan`]), which
    /// fail-stops a shard *inside* the simulated timeline at a scheduled
    /// instant, stranding its in-flight work for live re-routing.
    pub node_kills: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            link_corrupt_prob: 0.0,
            max_retries: 3,
            backoff_base_s: 1e-6,
            crashes: 0,
            crash_cooldown_s: 100e-6,
            watchdog_s: 0.0,
            seus: 0,
            degrade_depth: 0,
            degrade_margin: 0.0,
            node_kills: 0,
        }
    }
}

impl Deserialize for FaultConfig {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        read_json(v)
    }
}

impl Plan for FaultConfig {
    const NAME: &'static str = "fault";
    const KEYS: &'static str = "seed, corrupt, retries, backoff-us, crashes, cooldown-us, \
                                watchdog-us, seus, degrade-depth, degrade-margin, node-kills";

    fn set_key(&mut self, key: &str, value: &str) -> Result<(), KeyError> {
        match key {
            "seed" => self.seed = parsed(value)?,
            "corrupt" => self.link_corrupt_prob = parsed(value)?,
            "retries" => self.max_retries = parsed(value)?,
            "backoff-us" => self.backoff_base_s = parsed::<f64>(value)? * 1e-6,
            "crashes" => self.crashes = parsed(value)?,
            "cooldown-us" => self.crash_cooldown_s = parsed::<f64>(value)? * 1e-6,
            "watchdog-us" => self.watchdog_s = parsed::<f64>(value)? * 1e-6,
            "seus" => self.seus = parsed(value)?,
            "degrade-depth" => self.degrade_depth = parsed(value)?,
            "degrade-margin" => self.degrade_margin = parsed(value)?,
            "node-kills" => self.node_kills = parsed(value)?,
            _ => return Err(KeyError::Unknown),
        }
        Ok(())
    }

    fn set_field(&mut self, field: &str, v: &serde_json::Value) -> Result<bool, serde_json::Error> {
        match field {
            "seed" => self.seed = Deserialize::from_value(v)?,
            "link_corrupt_prob" => self.link_corrupt_prob = Deserialize::from_value(v)?,
            "max_retries" => self.max_retries = Deserialize::from_value(v)?,
            "backoff_base_s" => self.backoff_base_s = Deserialize::from_value(v)?,
            "crashes" => self.crashes = Deserialize::from_value(v)?,
            "crash_cooldown_s" => self.crash_cooldown_s = Deserialize::from_value(v)?,
            "watchdog_s" => self.watchdog_s = Deserialize::from_value(v)?,
            "seus" => self.seus = Deserialize::from_value(v)?,
            "degrade_depth" => self.degrade_depth = Deserialize::from_value(v)?,
            "degrade_margin" => self.degrade_margin = Deserialize::from_value(v)?,
            "node_kills" => self.node_kills = Deserialize::from_value(v)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), PlanError> {
        let bad = |field: &'static str, reason: String| {
            Err(PlanError::Invalid {
                plan: Self::NAME,
                field,
                reason,
            })
        };
        if !(self.link_corrupt_prob.is_finite() && (0.0..=1.0).contains(&self.link_corrupt_prob)) {
            return bad(
                "link_corrupt_prob",
                format!("must be in [0, 1], got {}", self.link_corrupt_prob),
            );
        }
        if self.link_corrupt_prob >= 1.0 {
            return bad(
                "link_corrupt_prob",
                "of 1.0 corrupts every attempt forever; no transfer can succeed".into(),
            );
        }
        // The backoff doubles per attempt: retry 20 already waits 2^19 bases.
        if self.max_retries > 20 {
            return bad(
                "max_retries",
                format!("must be at most 20, got {}", self.max_retries),
            );
        }
        for (field, s) in [
            ("backoff_base_s", self.backoff_base_s),
            ("crash_cooldown_s", self.crash_cooldown_s),
            ("watchdog_s", self.watchdog_s),
        ] {
            if SimTime::try_from_s(s).is_none() {
                return bad(field, format!("must be >= 0 and under 2^64 ps, got {s}"));
            }
        }
        // One transfer may wait out every backoff of its retry budget.
        let ladder = self.backoff_base_s * f64::from((1u32 << self.max_retries) - 1);
        if SimTime::try_from_s(ladder).is_none() {
            return bad(
                "backoff_base_s",
                format!(
                    "of {} s doubled over {} retries waits {ladder} s, which must be under \
                     2^64 ps",
                    self.backoff_base_s, self.max_retries
                ),
            );
        }
        if self.crashes > 0 && self.watchdog_s <= 0.0 {
            return bad(
                "watchdog_s",
                "must be positive when crashes > 0 (the watchdog is the only \
                 mechanism that rescues requests stranded on a dead instance)"
                    .into(),
            );
        }
        if !(self.degrade_margin.is_finite() && self.degrade_margin >= 0.0) {
            return bad(
                "degrade_margin",
                format!("must be finite and >= 0, got {}", self.degrade_margin),
            );
        }
        Ok(())
    }
}

impl FaultConfig {
    /// A campaign that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this campaign injects any fault at all. An inactive config
    /// leaves the serve path untouched (byte-identical reports).
    pub fn is_active(&self) -> bool {
        self.link_corrupt_prob > 0.0 || self.crashes > 0 || self.seus > 0 || self.degrade_depth > 0
    }

    /// Parses and validates an inline `key=value[,key=value...]` spec,
    /// e.g. `corrupt=0.05,retries=4,crashes=2,watchdog-us=400,seed=7`.
    ///
    /// Keys: `seed`, `corrupt`, `retries`, `backoff-us`, `crashes`,
    /// `cooldown-us`, `watchdog-us`, `seus`, `degrade-depth`,
    /// `degrade-margin`, `node-kills`. Omitted keys keep their defaults.
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

    /// The node kill drawn over one journal per shard (`journal_lens`):
    /// the victim shard and the index into its journal at which it dies,
    /// in the journal's middle half so the campaign is mid-flight. Drawn
    /// from the base seed, never a shard's re-mixed one, so every shard
    /// agrees on the victim. `None` without `node_kills`, or when the
    /// victim journaled fewer than two records.
    pub(crate) fn node_kill(&self, journal_lens: &[usize]) -> Option<(usize, usize)> {
        if self.node_kills == 0 {
            return None;
        }
        let stream = self.seed ^ STREAM_KILL;
        let victim = (fault_mix(stream, 0, 0) % journal_lens.len() as u64) as usize;
        let len = journal_lens[victim];
        if len < 2 {
            return None;
        }
        let quarter = len / 4;
        let span = (len - 2 * quarter).max(1) as u64;
        let roll = fault_mix(stream, 1, len as u64) % span;
        Some((victim, (quarter + roll as usize).min(len - 1)))
    }
}

/// A materialized fault schedule: the [`FaultConfig`] plus concrete,
/// seeded crash and SEU event times for one `(trace span, instances)`
/// geometry. Link-corruption decisions are not precomputed — they hash
/// `(job, attempt)` on demand, so they cost nothing when clean and never
/// depend on event interleaving.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    /// `(time, instance)` crash events, time-ordered.
    crash_events: Vec<(SimTime, usize)>,
    /// `(time, instance, pick)` SEU events, time-ordered; `pick` selects
    /// a resident story uniformly at fire time.
    seu_events: Vec<(SimTime, usize, u64)>,
}

/// Domain-separation constants: one per consumer of the campaign seed, so
/// streams never alias.
const STREAM_LINK: u64 = 0x6c69_6e6b;
const STREAM_CRASH: u64 = 0x0063_7261_7368;
const STREAM_SEU: u64 = 0x0073_6575;
const STREAM_KILL: u64 = 0x0000_6b69_6c6c;

impl FaultPlan {
    /// Materializes `config` over a trace of `span` with `instances`
    /// replicas. Validates the config first.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Invalid`] on a bad config.
    pub fn materialize(
        config: &FaultConfig,
        span: SimTime,
        instances: usize,
    ) -> Result<Self, PlanError> {
        config.validate()?;
        assert!(instances > 0, "fault plan needs at least one instance");
        // Degenerate single-request traces have span 0; give the uniform
        // draw a 1 ns floor so events still land at a defined time.
        let horizon_s = span.as_s().max(1e-9);
        let mut crash_rng = StdRng::seed_from_u64(config.seed ^ STREAM_CRASH);
        let mut crash_events: Vec<(SimTime, usize)> = (0..config.crashes)
            .map(|_| {
                let t = crash_rng.gen_range(0.0..horizon_s);
                let inst = crash_rng.gen_range(0..instances);
                (SimTime::from_s(t), inst)
            })
            .collect();
        crash_events.sort_by_key(|&(t, i)| (t, i));
        let mut seu_rng = StdRng::seed_from_u64(config.seed ^ STREAM_SEU);
        let mut seu_events: Vec<(SimTime, usize, u64)> = (0..config.seus)
            .map(|_| {
                let t = seu_rng.gen_range(0.0..horizon_s);
                let inst = seu_rng.gen_range(0..instances);
                let pick = seu_rng.next_u64();
                (SimTime::from_s(t), inst, pick)
            })
            .collect();
        seu_events.sort_by_key(|&(t, i, _)| (t, i));
        Ok(Self {
            config: config.clone(),
            crash_events,
            seu_events,
        })
    }

    /// The crash and SEU plan of shard `shard` of `shards` over
    /// `[0, horizon]`, or `None` when `config` injects nothing. At K > 1
    /// the seed is re-mixed per shard ([`shard_fault_seed`]), so what a
    /// shard injects never depends on the shard count or the order shards
    /// step in; a standalone node (K = 1) runs `config` as it is.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config (`ServeConfig::validate` rejects it
    /// first).
    pub(crate) fn for_shard(
        config: &FaultConfig,
        shard: usize,
        shards: usize,
        horizon: SimTime,
        instances: usize,
    ) -> Option<Self> {
        if !config.is_active() {
            return None;
        }
        let mut config = config.clone();
        if shards > 1 {
            config.seed = shard_fault_seed(config.seed, shard as u64);
        }
        let plan = Self::materialize(&config, horizon, instances)
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        Some(plan)
    }

    /// The campaign description this plan was materialized from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether transfer attempt `attempt` of link job `job` arrives
    /// corrupted. Pure in `(seed, job, attempt)` — independent of when the
    /// attempt happens or what else is in flight.
    pub fn corrupts(&self, job: u64, attempt: u32) -> bool {
        fault_coin(
            self.config.link_corrupt_prob,
            self.config.seed ^ STREAM_LINK,
            job,
            u64::from(attempt),
        )
    }

    /// Backoff before retransmitting after `attempt` failures of one job:
    /// `backoff_base_s * 2^attempt`, exponential per job.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        SimTime::from_s(self.config.backoff_base_s * f64::from(1u32 << attempt))
    }

    /// Scheduled `(time, instance)` crash events, time-ordered.
    pub fn crash_events(&self) -> &[(SimTime, usize)] {
        &self.crash_events
    }

    /// Scheduled `(time, instance, pick)` SEU events, time-ordered.
    pub fn seu_events(&self) -> &[(SimTime, usize, u64)] {
        &self.seu_events
    }
}

/// What a fault campaign did to one served trace, and what recovery cost.
///
/// All times are simulated seconds. `mttr_*` fields are means over the
/// repaired events of that class (0 when the class never fired):
/// link = first corrupted attempt to the successful retransmission;
/// instance = crash to watchdog-driven failover of a stranded request;
/// SEU = scrub detection at dispatch to the repaired story being resident
/// again (upload complete).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Whether any fault class was active; `false` means every other
    /// field is zero and the serve was byte-identical to a fault-free one.
    pub enabled: bool,
    /// Seed the campaign derived its randomness from.
    pub plan_seed: u64,
    /// Link transfer attempts that arrived corrupted (CRC failures).
    pub link_corruptions: u64,
    /// Retransmissions issued in response.
    pub retransmits: u64,
    /// Link jobs that exhausted their retry budget (payload undeliverable).
    pub retry_exhausted: u64,
    /// Link time spent on retransmissions, seconds (subset of link busy).
    pub retry_link_s: f64,
    /// Board energy burned while replaying transfers, joules.
    pub retry_energy_j: f64,
    /// Instance crash events that hit a live instance.
    pub crashes: u64,
    /// Watchdog expirations that found their request still unanswered
    /// (most are benign re-arms; see `failovers` for actual rescues).
    pub watchdog_fires: u64,
    /// Requests rescued off a dead instance and re-dispatched.
    pub failovers: u64,
    /// Requests shed because a link job exhausted its retries.
    pub shed_link: u64,
    /// Requests shed at admission by the bounded queue while the campaign
    /// was active (overload class).
    pub shed_overload: u64,
    /// Requests answered in aggressive-ITH degraded mode.
    pub degraded: u64,
    /// SEU events injected (whether or not they hit a resident story).
    pub seu_events: u64,
    /// Poisoned stories detected by digest check and scrubbed.
    pub scrubs: u64,
    /// Write-phase cycles re-run to repair scrubbed stories.
    pub scrub_cycles: u64,
    /// Fabric energy of the scrub re-writes, joules.
    pub scrub_energy_j: f64,
    /// Mean time-to-repair of link corruption, seconds.
    pub mttr_link_s: f64,
    /// Mean time from crash to failover of a stranded request, seconds.
    pub mttr_instance_s: f64,
    /// Mean time from SEU detection to repaired residency, seconds.
    pub mttr_seu_s: f64,
}

impl FaultReport {
    /// Requests shed for any reason.
    pub fn total_shed(&self) -> u64 {
        self.shed_link + self.shed_overload
    }

    /// Folds per-shard sections: the enabled ones' counters add, and each
    /// MTTR is re-weighted by its event count, so the merged figure is the
    /// fleet mean rather than a mean of shard means. `plan_seed` is left
    /// for the caller: shards run re-mixed seeds of one base seed.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut m = Self::default();
        let (mut link, mut instance, mut seu) = (0.0, 0.0, 0.0);
        for p in parts.into_iter().filter(|p| p.enabled) {
            m.enabled = true;
            m.link_corruptions += p.link_corruptions;
            m.retransmits += p.retransmits;
            m.retry_exhausted += p.retry_exhausted;
            m.retry_link_s += p.retry_link_s;
            m.retry_energy_j += p.retry_energy_j;
            m.crashes += p.crashes;
            m.watchdog_fires += p.watchdog_fires;
            m.failovers += p.failovers;
            m.shed_link += p.shed_link;
            m.shed_overload += p.shed_overload;
            m.degraded += p.degraded;
            m.seu_events += p.seu_events;
            m.scrubs += p.scrubs;
            m.scrub_cycles += p.scrub_cycles;
            m.scrub_energy_j += p.scrub_energy_j;
            link += p.mttr_link_s * p.retransmits as f64;
            instance += p.mttr_instance_s * p.failovers as f64;
            seu += p.mttr_seu_s * p.scrubs as f64;
        }
        m.mttr_link_s = mean(link, m.retransmits);
        m.mttr_instance_s = mean(instance, m.failovers);
        m.mttr_seu_s = mean(seu, m.scrubs);
        m
    }
}

impl ReportSection for FaultReport {
    fn key(&self) -> &'static str {
        "fault"
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn render(&self) -> String {
        let mut t = TextTable::new(vec!["fault metric".into(), "value".into()]);
        t.row(vec!["plan seed".into(), self.plan_seed.to_string()]);
        t.row(vec![
            "link corruptions".into(),
            format!(
                "{} ({} retransmits, {} exhausted)",
                self.link_corruptions, self.retransmits, self.retry_exhausted
            ),
        ]);
        t.row(vec![
            "retry cost".into(),
            format!(
                "{} us link, {} J",
                fnum(self.retry_link_s * 1e6, 1),
                fnum(self.retry_energy_j, 3)
            ),
        ]);
        t.row(vec![
            "crashes / failovers".into(),
            format!("{} / {}", self.crashes, self.failovers),
        ]);
        t.row(vec![
            "shed (link / overload)".into(),
            format!("{} / {}", self.shed_link, self.shed_overload),
        ]);
        t.row(vec!["degraded answers".into(), self.degraded.to_string()]);
        t.row(vec![
            "seu events / scrubs".into(),
            format!("{} / {}", self.seu_events, self.scrubs),
        ]);
        t.row(vec![
            "scrub cost".into(),
            format!(
                "{} cycles, {} J",
                self.scrub_cycles,
                fnum(self.scrub_energy_j, 3)
            ),
        ]);
        t.row(vec![
            "mttr link/instance/seu".into(),
            format!(
                "{} / {} / {} us",
                fnum(self.mttr_link_s * 1e6, 1),
                fnum(self.mttr_instance_s * 1e6, 1),
                fnum(self.mttr_seu_s * 1e6, 1)
            ),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inactive_and_valid() {
        let c = FaultConfig::none();
        assert!(!c.is_active());
        c.validate().expect("default config valid");
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let mut c = FaultConfig {
            link_corrupt_prob: 1.5,
            ..FaultConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(PlanError::Invalid { field, .. }) if field == "link_corrupt_prob"
        ));
        c.link_corrupt_prob = 0.0;
        c.crashes = 1;
        c.watchdog_s = 0.0;
        assert!(matches!(
            c.validate(),
            Err(PlanError::Invalid { field, .. }) if field == "watchdog_s"
        ));
        c.watchdog_s = 100e-6;
        c.validate().expect("crashes with watchdog valid");
        c.crash_cooldown_s = 1e300;
        assert!(matches!(
            c.validate(),
            Err(PlanError::Invalid { field, .. }) if field == "crash_cooldown_s"
        ));
        c.crash_cooldown_s = 100e-6;
        c.max_retries = 20;
        c.validate().expect("the full retry budget is valid");
        c.max_retries = 21;
        assert!(matches!(
            c.validate(),
            Err(PlanError::Invalid { field, .. }) if field == "max_retries"
        ));
        // A base that fits the clock, doubled into a ladder that does not:
        // 1e7 s waits 7e7 s over 3 retries, past 2^64 ps (1.8e7 s).
        c.max_retries = 3;
        c.backoff_base_s = 1e7;
        assert!(matches!(
            c.validate(),
            Err(PlanError::Invalid { field, .. }) if field == "backoff_base_s"
        ));
        c.max_retries = 1;
        c.validate().expect("one retry waits the base alone");
    }

    #[test]
    fn spec_round_trips_and_rejects_unknown_keys() {
        let c = FaultConfig::parse_spec(
            "corrupt=0.05,retries=4,backoff-us=2,crashes=2,cooldown-us=300,\
             watchdog-us=400,seus=3,degrade-depth=8,degrade-margin=0.5,seed=7",
        )
        .expect("spec parses");
        assert_eq!(c.seed, 7);
        assert_eq!(c.max_retries, 4);
        assert_eq!(c.crashes, 2);
        assert_eq!(c.seus, 3);
        assert_eq!(c.degrade_depth, 8);
        assert!((c.link_corrupt_prob - 0.05).abs() < 1e-12);
        assert!((c.backoff_base_s - 2e-6).abs() < 1e-15);
        assert!((c.watchdog_s - 400e-6).abs() < 1e-12);
        assert!(c.is_active());
        assert!(matches!(
            FaultConfig::parse_spec("corupt=0.1"),
            Err(PlanError::UnknownKey { .. })
        ));
        for spec in ["corrupt=lots", "retries=4294967296", "seed"] {
            assert!(
                matches!(
                    FaultConfig::parse_spec(spec),
                    Err(PlanError::BadValue { .. })
                ),
                "{spec} must be a bad value"
            );
        }
    }

    #[test]
    fn partial_json_plan_keeps_defaults() {
        let c: FaultConfig =
            serde_json::from_str(r#"{"crashes": 2, "watchdog_s": 0.0004}"#).expect("parses");
        assert_eq!(c.crashes, 2);
        assert_eq!(c.max_retries, FaultConfig::default().max_retries);
        assert!((c.watchdog_s - 0.0004).abs() < 1e-12);
        assert!(serde_json::from_str::<FaultConfig>(r#"{"crashs": 2}"#).is_err());
    }

    #[test]
    fn config_json_round_trips() {
        let c = FaultConfig::parse_spec("corrupt=0.1,crashes=1,watchdog-us=50,seed=3")
            .expect("spec parses");
        let json = serde_json::to_string(&c).expect("serializes");
        let back: FaultConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, c);
    }

    #[test]
    fn plan_is_deterministic_and_in_range() {
        let c = FaultConfig::parse_spec("crashes=5,watchdog-us=100,seus=7,seed=11")
            .expect("spec parses");
        let span = SimTime::from_s(1e-3);
        let a = FaultPlan::materialize(&c, span, 3).expect("plan");
        let b = FaultPlan::materialize(&c, span, 3).expect("plan");
        assert_eq!(a.crash_events(), b.crash_events());
        assert_eq!(a.seu_events(), b.seu_events());
        assert_eq!(a.crash_events().len(), 5);
        assert_eq!(a.seu_events().len(), 7);
        for &(t, i) in a.crash_events() {
            assert!(t <= span && i < 3);
        }
        for w in a.crash_events().windows(2) {
            assert!(w[0].0 <= w[1].0, "crash events time-ordered");
        }
        let other = FaultPlan::materialize(
            &FaultConfig {
                seed: 12,
                ..c.clone()
            },
            span,
            3,
        )
        .expect("plan");
        assert_ne!(a.crash_events(), other.crash_events());
    }

    #[test]
    fn node_kill_is_seed_pure_and_picks_one_victim() {
        let c = FaultConfig {
            seed: 7,
            node_kills: 1,
            ..FaultConfig::default()
        };
        let (victim, at) = c.node_kill(&[100; 4]).expect("a kill");
        assert!(victim < 4);
        assert_eq!(c.node_kill(&[100; 4]), Some((victim, at)));
        assert!((25..100).contains(&at), "mid-campaign kill point, got {at}");
        // The victim is drawn before its journal length is read.
        let mut lens = [7; 4];
        lens[victim] = 100;
        assert_eq!(c.node_kill(&lens), Some((victim, at)));
        lens[victim] = 1;
        assert_eq!(c.node_kill(&lens), None, "a one-record journal is not cut");
        let off = FaultConfig { node_kills: 0, ..c };
        assert_eq!(off.node_kill(&[100; 4]), None);
    }

    #[test]
    fn corruption_is_pure_in_job_and_attempt() {
        let c = FaultConfig::parse_spec("corrupt=0.5,seed=9").expect("spec parses");
        let p = FaultPlan::materialize(&c, SimTime::from_s(1e-3), 2).expect("plan");
        let hits: Vec<bool> = (0..64).map(|j| p.corrupts(j, 0)).collect();
        let again: Vec<bool> = (0..64).map(|j| p.corrupts(j, 0)).collect();
        assert_eq!(hits, again);
        assert!(hits.iter().any(|&h| h) && hits.iter().any(|&h| !h));
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let c = FaultConfig::parse_spec("backoff-us=2,corrupt=0.1").expect("spec parses");
        let p = FaultPlan::materialize(&c, SimTime::from_s(1e-3), 1).expect("plan");
        assert_eq!(p.backoff(0).ps(), 2_000_000);
        assert_eq!(p.backoff(1).ps(), 4_000_000);
        assert_eq!(p.backoff(3).ps(), 16_000_000);
    }

    #[test]
    fn fault_report_renders_every_counter() {
        let r = FaultReport {
            enabled: true,
            plan_seed: 7,
            link_corruptions: 3,
            retransmits: 2,
            retry_exhausted: 1,
            crashes: 1,
            failovers: 2,
            shed_link: 1,
            shed_overload: 4,
            degraded: 5,
            seu_events: 2,
            scrubs: 1,
            ..FaultReport::default()
        };
        let text = r.render();
        for needle in ["retransmits", "failovers", "scrubs", "mttr"] {
            assert!(text.contains(needle), "render missing {needle}");
        }
        assert_eq!(r.total_shed(), 5);
    }
}
