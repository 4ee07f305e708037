//! The serving engine: a deterministic discrete-event simulation of N
//! replicated accelerator instances behind one bounded host queue and one
//! shared PCIe link, with per-instance resident-story caches.
//!
//! # Execution phases
//!
//! A serve separates *numeric* work from *orchestration*:
//!
//! 1. **Story dedup.** Requests are grouped by `(task, sample)` query and
//!    each distinct query by `(task, story digest)`, so a story is digested
//!    once per distinct query and written into memory exactly once
//!    ([`Accelerator::write_story`]), however many questions the trace asks
//!    about it. A story is then its index in the phase's per-story table,
//!    which holds its task, digest and routing key.
//! 2. **Query simulation.** Every distinct query's pipeline runs against
//!    its resident story ([`Accelerator::answer_query`]) on the worker
//!    pool ([`ServeConfig::workers`]; one worker is a plain map). Results
//!    are accumulated in request order at any width.
//! 3. **Event loop.** A sequential merge on integer-picosecond
//!    [`SimTime`] with a submission-order tie-break replays the arrival
//!    stream beside a heap of in-flight link, compute and fault events and
//!    a FIFO of watchdog ticks.
//!    Each instance models its story cache as an LRU of story indices;
//!    whether a dispatch hits is decided here, because it depends on which
//!    instance the scheduler picked.
//!
//! The event loop is one `ServeState` with one handler per event kind;
//! the fault campaign and the WAL journal are `Option` state, `None` when
//! off (DESIGN.md §9).
//!
//! # Determinism
//!
//! Two properties are load-bearing and pinned by the test suite:
//!
//! * **Thread independence.** The numeric phase is index-ordered and
//!   `MANN_THREADS`-invariant, and the event loop is sequential with a
//!   total order on `(time, seq)` — so the whole serve replays
//!   byte-identically for any worker count: a one-worker [`ServeReport`]
//!   equals a many-worker one bit for bit.
//! * **Orchestration purity.** Answers, cycle counts and comparisons come
//!   from the same split pipeline a standalone [`Accelerator::run`] would
//!   execute; a cache hit changes *when and where* a story is written,
//!   never what the inference computes.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use mann_core::{TaskSuite, TrainedTask};
use mann_hw::{
    story_digest, AccelConfig, Accelerator, Admission, ClockDomain, Cycles, InferenceRun,
    LinkArbiter, LruSet, MemIndexConfig, PcieLink, PowerModel, ResidentStory, SimTime,
};
use mann_ith::{HopPrune, ThresholdingModel};
use mann_store::WalRecord;
use serde::{Deserialize, Serialize};

use crate::faults::{FaultConfig, FaultPlan, FaultReport, Plan};
use crate::numeric::{NumericHealth, NumericPolicy};
use crate::report::{
    answers_digest, mean, BatchReport, CacheReport, HopPruneReport, IndexReport, InstanceReport,
    LatencySummary, LinkReport, ServeReport,
};
use crate::request::{request_key, Completion, Rejection, Request, RequestTimestamps};
use crate::scheduler::{InstanceView, Scheduler};
use crate::store::{DurabilityReport, WalConfig};
use crate::trace::ArrivalTrace;
use crate::SchedulePolicy;

/// Serving-layer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Replicated accelerator instances sharing the link.
    pub instances: usize,
    /// Host queue capacity; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Max requests dispatched to one instance and not yet computed
    /// (1 computing + the rest buffered in its input FIFO).
    pub inflight_limit: usize,
    /// Max story uploads packed into one link grant (batching amortizes
    /// the per-transfer driver latency).
    pub upload_batch: usize,
    /// Resident stories each instance keeps (LRU; 0 disables caching).
    pub story_cache: usize,
    /// Instance-selection policy.
    pub policy: SchedulePolicy,
    /// Worker threads of the numeric phase: 0 (the default) sizes the
    /// pool by [`mann_core::parallel::worker_threads`], so by
    /// `MANN_THREADS`; `n ≥ 1` pins `n`. Results are the same bytes at
    /// any width.
    pub workers: usize,
    /// Fabric clock of every instance.
    pub clock: ClockDomain,
    /// Shared host-link model.
    pub pcie: PcieLink,
    /// Per-instance power model.
    pub power: PowerModel,
    /// Load each task's calibrated thresholds (ITH early exit); the
    /// output search probes in silhouette order.
    pub use_ith: bool,
    /// Fault-injection campaign; [`FaultConfig::none`] (the default)
    /// injects nothing and leaves the serve path byte-identical.
    pub faults: FaultConfig,
    /// What to do with per-inference numeric-event flags; the default
    /// ([`NumericPolicy::Ignore`]) leaves the serve path byte-identical.
    pub numeric_policy: NumericPolicy,
    /// Max queries sharing one resident story drained into a single fused
    /// compute group; 0 or 1 disables batching and leaves the serve path
    /// byte-identical.
    pub batch_window: usize,
    /// Adaptive hop pruning on every instance's datapath; the default
    /// (off) leaves the serve path byte-identical.
    pub hop_prune: HopPrune,
    /// Candidate-generation index in front of every instance's MEM
    /// module; the default (off) leaves the serve path byte-identical.
    pub mem_index: MemIndexConfig,
    /// Write-ahead-log configuration. When enabled, the serve collects
    /// the durable journal ([`ServeOutcome::wal_records`]) for the store
    /// driver to persist; the event loop itself stays I/O-free and
    /// byte-identical, and the default (off) leaves even the collection
    /// path untouched.
    pub wal: WalConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            instances: 2,
            queue_capacity: 64,
            inflight_limit: 2,
            upload_batch: 4,
            story_cache: 16,
            policy: SchedulePolicy::default(),
            workers: 0,
            clock: ClockDomain::default(),
            pcie: PcieLink::default(),
            power: PowerModel::default(),
            use_ith: false,
            faults: FaultConfig::none(),
            numeric_policy: NumericPolicy::default(),
            batch_window: 0,
            hop_prune: HopPrune::default(),
            mem_index: MemIndexConfig::default(),
            wal: WalConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.instances == 0 {
            return Err("need at least one accelerator instance".into());
        }
        if self.queue_capacity == 0 {
            return Err("host queue capacity must be positive".into());
        }
        if self.inflight_limit == 0 {
            return Err("inflight limit must be positive".into());
        }
        if self.upload_batch == 0 {
            return Err("upload batch must be positive".into());
        }
        let (bandwidth, latency) = (
            self.pcie.bandwidth_bytes_per_s,
            self.pcie.latency_per_transfer_s,
        );
        // A byte's transfer time must fit the clock, as must the latency.
        if !(bandwidth > 0.0 && bandwidth.is_finite())
            || SimTime::try_from_s(1.0 / bandwidth).is_none()
        {
            return Err(format!(
                "link bandwidth {bandwidth} B/s must be positive, finite and move a byte \
                 in under 2^64 ps"
            ));
        }
        if SimTime::try_from_s(latency).is_none() {
            return Err(format!(
                "link latency {latency} s per transfer must be non-negative and under 2^64 ps"
            ));
        }
        self.faults.validate().map_err(|e| e.to_string())?;
        self.wal.validate()?;
        if self.faults.node_kills > 0 && !self.wal.enabled {
            return Err(
                "node_kills require the write-ahead log (set `wal`, or pass --wal-dir): \
                 a killed node can only be recovered by replaying its journal"
                    .into(),
            );
        }
        Ok(())
    }

    /// Checks what needs the suite: the largest upload one link grant can
    /// carry, `min(upload_batch, inflight_limit)` payloads of the suite's
    /// largest story-and-question stream, must fit the clock.
    ///
    /// # Errors
    ///
    /// Returns a description when that upload takes 2^64 ps or more.
    pub fn validate_for(&self, suite: &TaskSuite) -> Result<(), String> {
        let largest = suite
            .tasks
            .iter()
            .flat_map(|t| &t.test_set)
            .map(|s| PcieLink::input_bytes(Accelerator::input_words(s)))
            .max()
            .unwrap_or(0);
        let payloads = self.upload_batch.min(self.inflight_limit);
        let s = self
            .pcie
            .batched_transfer_time_s(largest * payloads as u64, payloads);
        if SimTime::try_from_s(s).is_none() {
            return Err(format!(
                "link too slow: an upload of {payloads} payload(s) of {largest} B takes {s} s, \
                 past the simulated clock's 2^64 ps"
            ));
        }
        Ok(())
    }

    /// Activity-dependent fabric energy of `cycles` at the configured
    /// clock, joules (static and clock power are drawn regardless).
    pub(crate) fn active_energy_j(&self, cycles: u64) -> f64 {
        self.power.active_energy_j(
            self.clock.freq_mhz(),
            self.clock.seconds(Cycles::new(cycles)),
        )
    }
}

/// Everything a served trace produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Completed requests, in request-id order.
    pub completions: Vec<Completion>,
    /// Rejected requests, in arrival order.
    pub rejections: Vec<Rejection>,
    /// Requests admitted but later dropped by the fault campaign (retry
    /// exhaustion); empty without an active campaign.
    pub sheds: Vec<Request>,
    /// The durable journal of this serve (story admissions, evictions,
    /// completions) in canonical `(stamp, kind, id)` order; always empty
    /// unless `wal.enabled` is set. The store driver persists these — the
    /// serve itself never touches the filesystem.
    pub wal_records: Vec<WalRecord>,
    /// The aggregate report.
    pub report: ServeReport,
}

/// A multi-tenant server over a trained suite.
///
/// One [`Accelerator`] is loaded per task (the tenant's bitstream +
/// weights); the configured number of *instances* are scheduling replicas
/// of that loadout. Because replicas are numerically identical, the server
/// computes each distinct story and each distinct query once, and lets the
/// event loop treat instances as timing resources with story residency.
#[derive(Debug)]
pub struct Server<'a> {
    suite: &'a TaskSuite,
    accels: Vec<Accelerator>,
    /// Aggressive-ITH loadouts for degraded-mode answers; empty unless
    /// the fault campaign enables overload degradation.
    deg_accels: Vec<Accelerator>,
    config: ServeConfig,
}

/// Event-queue entry; total order = (time, scheduling sequence).
struct Entry {
    time: SimTime,
    seq: u64,
    event: Event,
}

/// An in-flight event. Arrivals are not events: they stream from a
/// cursor beside the heap (`ServeState::run`), and watchdog ticks queue in
/// a FIFO beside it (`ServeState::ticks`).
enum Event {
    LinkDone(u64),
    /// `epoch` is the instance's crash epoch at compute start; a crash
    /// bumps the epoch so this event is recognized as stale and dropped.
    ComputeDone {
        instance: usize,
        epoch: u64,
    },
    /// Fault-campaign events (never scheduled without an active plan).
    Crash(usize),
    InstanceUp(usize),
    Watchdog(usize),
    Seu(usize),
    /// Whole-node fail-stop (only a cluster shard the membership plan
    /// fails has one): halts the event loop at the cut.
    FailStop,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

enum LinkJob {
    /// `epoch` is the target's crash epoch at dispatch; if the instance
    /// crashed while the payload was on the wire, delivery is void.
    Upload {
        instance: usize,
        reqs: Vec<usize>,
        epoch: u64,
    },
    Drain {
        req: usize,
    },
}

#[derive(Debug, Default, Clone)]
struct Inst {
    inflight: usize,
    free_at: SimTime,
    ready: VecDeque<usize>,
    /// The fused compute group currently on the fabric (empty = idle;
    /// a single entry without batching). The buffer outlives its groups.
    computing: Vec<usize>,
    busy: SimTime,
    /// Answers drained from this instance.
    completed: u64,
    /// Resident stories, by story index; its hit count is the instance's.
    cache: LruSet,
    /// Crashed and cooling down; invisible to the scheduler (0 credits).
    down: bool,
    /// Bumped on every halt; stale events carry the old value.
    epoch: u64,
}

impl Inst {
    /// Halts the instance at `now`, by crash or node fail-stop: the busy
    /// time of the killed (never finished) compute is rolled back, FIFO'd
    /// work is dropped, every resident story is lost (BRAM state is gone),
    /// and the epoch bump voids every event in flight.
    fn halt(&mut self, now: SimTime) {
        let unfinished = self.free_at.saturating_sub(now);
        self.busy = self.busy.saturating_sub(unfinished);
        self.free_at = now;
        self.computing.clear();
        self.ready.clear();
        self.cache.clear_resident();
        self.inflight = 0;
        self.down = true;
        self.epoch += 1;
    }
}

/// The runs of every distinct `(task, sample)` query on one loadout, in
/// first-seen order; every completion of a query shares its run.
struct QueryRuns {
    /// The story is written too; equals `Accelerator::run`.
    miss: Vec<PricedRun>,
    /// The story is already resident.
    hit: Vec<PricedRun>,
}

/// One query's run in one form, with its compute time priced once at the
/// serve's clock.
struct PricedRun {
    run: Arc<InferenceRun>,
    /// [`InferenceRun::compute_time`] of `run`.
    compute: SimTime,
}

/// One distinct `(task, story digest)` pair of a trace. Its index in
/// [`NumericPhase::stories`] is the story's one identity: instance
/// residency, the journal and the cluster's per-story tables key on it.
pub(crate) struct Story {
    pub(crate) task: usize,
    /// [`story_digest`] of the story, taken once.
    pub(crate) digest: u64,
    /// Routing key ([`request_key`]).
    pub(crate) key: u64,
    resident: ResidentStory,
}

/// The numeric work of a serve, shared by the shards of a cluster: every
/// distinct story and every distinct query simulated once, indexed per
/// request (its position in the trace) through its query.
pub(crate) struct NumericPhase {
    /// One entry per distinct `(task, story digest)` pair, in first-seen
    /// order.
    pub(crate) stories: Vec<Story>,
    /// Query index of each request.
    query_of: Vec<usize>,
    /// Story index of each query.
    story_of: Vec<usize>,
    /// Runs at the configured ITH setting.
    exact: QueryRuns,
    /// Aggressive-ITH runs; `None` unless the campaign enables overload
    /// degradation.
    degraded: Option<QueryRuns>,
    /// Link payload per query, `[miss, hit]`: story and question, or the
    /// question alone.
    bytes: Vec<[u64; 2]>,
}

impl NumericPhase {
    /// Story index of request `r`.
    pub(crate) fn story_id(&self, r: usize) -> usize {
        self.story_of[self.query_of[r]]
    }

    /// Routing key of request `r`.
    pub(crate) fn key(&self, r: usize) -> u64 {
        self.stories[self.story_id(r)].key
    }

    /// The run a flight computes, given its latest dispatch.
    fn run(&self, f: &Flight) -> &PricedRun {
        let runs = if f.degraded {
            self.degraded
                .as_ref()
                .expect("degraded runs exist when degradation is armed")
        } else {
            &self.exact
        };
        let q = self.query_of[f.req];
        if f.hit {
            &runs.hit[q]
        } else {
            &runs.miss[q]
        }
    }

    fn bytes(&self, r: usize, hit: bool) -> u64 {
        self.bytes[self.query_of[r]][usize::from(hit)]
    }
}

/// How a request left the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Bounced by the full host queue at arrival.
    Rejected,
    /// Answer landed on the host.
    Drained,
    /// Dropped by the fault campaign (link retries exhausted).
    Shed,
    /// Handed back to the cluster for failover.
    Exported,
}

/// A request a cluster shard hands back for failover.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Handoff {
    pub(crate) at: SimTime,
    /// The request's position in the trace.
    pub(crate) req: usize,
    /// Replica-chain links the request has crossed so far.
    pub(crate) hop: usize,
}

/// Event-loop state of one request on this node.
#[derive(Debug, Clone, Copy, Default)]
struct Flight {
    /// The request's position in the trace.
    req: usize,
    /// Replica-chain links the request crossed before it arrived here.
    hop: usize,
    ts: RequestTimestamps,
    /// Instance of the latest dispatch and its epoch then; `None` until
    /// dispatched and after a local failover re-queue.
    assigned: Option<(usize, u64)>,
    /// Whether the latest dispatch found the story resident.
    hit: bool,
    /// Admitted past the degrade depth: answered in aggressive-ITH mode.
    degraded: bool,
    /// Compute finished; only the answer drain is left.
    computed: bool,
    watchdog_armed: bool,
    /// When a dispatch scrubbed this request's poisoned story, until the
    /// repaired story lands (SEU MTTR).
    seu_pending: Option<SimTime>,
    /// `None` while the request is still on the node.
    fate: Option<Fate>,
}

/// Summed repair time and repair count of one MTTR class.
#[derive(Debug, Default)]
struct Repairs(SimTime, u64);

impl Repairs {
    fn record(&mut self, since: SimTime, now: SimTime) {
        self.0 += now.saturating_sub(since);
        self.1 += 1;
    }
}

/// Fault-campaign state; built only with an active plan.
struct Campaign {
    plan: FaultPlan,
    report: FaultReport,
    /// The plan's watchdog period (`None` when the watchdog is off) and
    /// crash cooldown, each priced once.
    watchdog: Option<SimTime>,
    cooldown: SimTime,
    /// Crash instants by (instance, pre-crash epoch), for MTTR.
    crash_at: HashMap<(usize, u64), SimTime>,
    /// Corrupted attempts of the transfer holding the link retransmitted
    /// so far, and its first corrupted attempt until it lands (link MTTR).
    attempts: u32,
    first_fail: Option<SimTime>,
    link: Repairs,
    instance: Repairs,
    seu: Repairs,
}

impl Campaign {
    fn finish(self, config: &ServeConfig, arb: &LinkArbiter<LinkJob>) -> FaultReport {
        let mut fr = self.report;
        fr.enabled = true;
        fr.plan_seed = self.plan.config().seed;
        fr.retransmits = arb.retransmits();
        fr.retry_link_s = arb.retry_busy_time().as_s();
        fr.retry_energy_j = config
            .power
            .retry_energy_j(config.clock.freq_mhz(), fr.retry_link_s);
        fr.scrub_energy_j = config.active_energy_j(fr.scrub_cycles);
        fr.mttr_link_s = mean(self.link.0.as_s(), self.link.1);
        fr.mttr_instance_s = mean(self.instance.0.as_s(), self.instance.1);
        fr.mttr_seu_s = mean(self.seu.0.as_s(), self.seu.1);
        fr
    }
}

/// Durable-journal collection; built only when the WAL is armed.
struct Journal {
    records: Vec<WalRecord>,
    /// Quantized rows are identical for every request of a story —
    /// extracted once per story, lazily, only for journaled misses.
    rows: Vec<Option<Vec<i32>>>,
}

impl Journal {
    /// Journals story `sid`'s admission: the eviction it forced and, on a
    /// miss, its write. Residency keys are story indices, so an evicted
    /// key names its story.
    fn admit(&mut self, num: &NumericPhase, sid: usize, a: Admission, now: SimTime) {
        if let Some(k) = a.evicted {
            let gone = &num.stories[k as usize];
            self.records
                .push(WalRecord::evict(gone.digest, gone.task as u32, now.ps()));
        }
        if !a.hit {
            let story = &num.stories[sid];
            let rows = self.rows[sid]
                .get_or_insert_with(|| story.resident.quantized_rows())
                .clone();
            self.records.push(WalRecord::story(
                story.digest,
                story.task as u32,
                now.ps(),
                rows,
            ));
        }
    }

    /// The journal with `completions` appended — after the numeric policy
    /// has settled the final answers, so replaying the WAL reproduces
    /// exactly what was served — in canonical order, which makes it a
    /// pure function of (suite, trace, config), independent of the worker
    /// count.
    fn finish(mut self, completions: &[Completion]) -> Vec<WalRecord> {
        for c in completions {
            self.records.push(WalRecord::completion(
                c.request.id,
                c.run.answer as u32,
                c.timestamps.drain_end.ps(),
            ));
        }
        self.records.sort_by(|a, b| {
            (a.stamp_ps, a.kind, a.id, a.task, a.digest)
                .cmp(&(b.stamp_ps, b.kind, b.id, b.task, b.digest))
        });
        self.records
    }
}

impl<'a> Server<'a> {
    /// Loads every task of `suite` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, alone or for this suite
    /// ([`ServeConfig::validate_for`]), or the suite is empty.
    pub fn new(suite: &'a TaskSuite, config: ServeConfig) -> Self {
        config
            .validate()
            .and_then(|()| config.validate_for(suite))
            .unwrap_or_else(|e| panic!("invalid serve config: {e}"));
        assert!(!suite.tasks.is_empty(), "server needs at least one task");
        let loadout = |ith: &dyn Fn(&TrainedTask) -> Option<ThresholdingModel>| -> Vec<_> {
            suite
                .tasks
                .iter()
                .map(|t| {
                    Accelerator::new(
                        t.model.clone(),
                        AccelConfig {
                            clock: config.clock,
                            pcie: config.pcie,
                            power: config.power,
                            ith: ith(t),
                            use_ordering: true,
                            hop_prune: config.hop_prune,
                            mem_index: config.mem_index,
                            ..AccelConfig::default()
                        },
                    )
                })
                .collect()
        };
        let accels = loadout(&|t| config.use_ith.then(|| t.ith.clone()));
        // Degraded mode forces ITH on with every threshold lowered by the
        // configured margin — earlier early-exit, cheaper, less accurate.
        let deg_accels = if config.faults.degrade_depth > 0 {
            loadout(&|t| Some(t.ith.degraded(config.faults.degrade_margin)))
        } else {
            Vec::new()
        };
        Self {
            suite,
            accels,
            deg_accels,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The accelerator loadout for tenant `task_idx`.
    pub fn accelerator(&self, task_idx: usize) -> &Accelerator {
        &self.accels[task_idx]
    }

    /// One-time cost of shipping every tenant's weights to every instance
    /// over the (serial) link — paid before traffic starts, reported as
    /// `setup_s`, not folded into per-request latency.
    pub fn setup_time_s(&self) -> f64 {
        let per_instance: f64 = self
            .accels
            .iter()
            .map(|a| self.config.pcie.model_upload_time_s(a.model_bytes()))
            .sum();
        per_instance * self.config.instances as f64
    }

    pub(crate) fn sample_of(&self, req: &Request) -> &mann_babi::EncodedSample {
        &self.suite.tasks[req.task_idx].test_set[req.sample_idx]
    }

    /// Simulates every distinct story once and every distinct query once,
    /// on the configured worker count. Output is index-ordered and
    /// width-invariant.
    pub(crate) fn numeric_phase(&self, trace: &ArrivalTrace) -> NumericPhase {
        let n = trace.requests.len();
        // Group requests by (task, sample) through a dense per-task table,
        // then each distinct query by (task, story digest), first-seen
        // order. Identical requests — same (task, sample) — are
        // bit-identical inferences, so each distinct query is digested and
        // simulated once and shared: repeated-story traces collapse to a
        // handful of runs.
        let tasks = &self.suite.tasks;
        let mut query_at: Vec<Vec<Option<usize>>> =
            tasks.iter().map(|t| vec![None; t.test_set.len()]).collect();
        let mut story_ids = HashMap::new();
        // First request and digest of each story.
        let mut firsts: Vec<(usize, u64)> = Vec::new();
        let (mut query_req, mut story_of) = (Vec::new(), Vec::new());
        let mut query_of = Vec::with_capacity(n);
        for (i, r) in trace.requests.iter().enumerate() {
            let task = r.task_idx;
            assert!(task < tasks.len(), "request {} task out of range", r.id);
            let query = query_at[task]
                .get_mut(r.sample_idx)
                .unwrap_or_else(|| panic!("request {} sample out of range", r.id));
            query_of.push(*query.get_or_insert_with(|| {
                // A new query: digest its story once.
                let digest = story_digest(self.sample_of(r));
                let next = firsts.len();
                story_of.push(*story_ids.entry((task, digest)).or_insert_with(|| {
                    firsts.push((i, digest));
                    next
                }));
                query_req.push(i);
                query_req.len() - 1
            }));
        }

        let workers = match self.config.workers {
            0 => mann_core::parallel::worker_threads(n),
            pinned => pinned,
        };
        let stories: Vec<Story> =
            mann_core::parallel::parallel_map_indexed(firsts.len(), workers, |s| {
                let (i, digest) = firsts[s];
                let r = &trace.requests[i];
                Story {
                    task: r.task_idx,
                    digest,
                    key: request_key(digest, r.task_idx),
                    resident: self.accels[r.task_idx].write_story(self.sample_of(r)),
                }
            });
        let clock = self.config.clock;
        let priced = |run: InferenceRun| PricedRun {
            compute: run.compute_time(clock),
            run: Arc::new(run),
        };
        let simulate = |accels: &[Accelerator]| {
            let hit: Vec<PricedRun> =
                mann_core::parallel::parallel_map_indexed(query_req.len(), workers, |u| {
                    let r = &trace.requests[query_req[u]];
                    let story = &stories[story_of[u]].resident;
                    priced(accels[r.task_idx].answer_query(story, self.sample_of(r)))
                });
            let miss = hit
                .iter()
                .enumerate()
                .map(|(u, h)| {
                    let r = &trace.requests[query_req[u]];
                    let story = &stories[story_of[u]].resident;
                    priced(accels[r.task_idx].compose_uncached(story, &h.run, self.sample_of(r)))
                })
                .collect();
            QueryRuns { miss, hit }
        };
        let bytes = query_req
            .iter()
            .map(|&i| {
                let sample = self.sample_of(&trace.requests[i]);
                [
                    PcieLink::input_bytes(Accelerator::input_words(sample)),
                    PcieLink::input_bytes(Accelerator::query_words(sample)),
                ]
            })
            .collect();
        NumericPhase {
            exact: simulate(&self.accels),
            // Degraded (aggressive-ITH) runs go through the same dedup, so
            // the phase stays width-invariant.
            degraded: (!self.deg_accels.is_empty()).then(|| simulate(&self.deg_accels)),
            stories,
            query_of,
            story_of,
            bytes,
        }
    }

    /// Serves `trace` as a standalone node, returning per-request
    /// completions, rejections and the aggregate report.
    ///
    /// # Panics
    ///
    /// Panics if a request references a task or sample outside the suite.
    pub fn serve(&self, trace: &ArrivalTrace) -> ServeOutcome {
        let num = self.numeric_phase(trace);
        let config = &self.config;
        let faults = FaultPlan::for_shard(&config.faults, 0, 1, trace.span(), config.instances);
        let mut node = ServeState::new(self, trace, &num, faults, None, 1);
        node.flights.reserve_exact(trace.requests.len());
        // Arrivals stream beside the heap in `(arrival, index)` order (a
        // stable sort), each before the events at its instant.
        let mut arrivals: Vec<usize> = (0..trace.requests.len()).collect();
        arrivals.sort_by_key(|&i| trace.requests[i].arrival);
        for i in arrivals {
            let at = trace.requests[i].arrival;
            while node.next_event().is_some_and(|t| t < at) {
                node.step();
            }
            node.arrive(at, i, 0);
        }
        while node.next_event().is_some() {
            node.step();
        }
        node.finish()
    }

    /// Applies the configured [`NumericPolicy`] to the assembled
    /// completions — after the event loop, as a pure per-completion
    /// function of each run's numeric report, so the outcome is invariant
    /// across worker counts and hit/miss paths.
    ///
    /// Under [`NumericPolicy::Failover`], a stressed completion's answer
    /// is replaced by the `f32` reference model's prediction, in a copy of
    /// the shared run that the completion owns, and the re-run's compute
    /// cycles/energy are accounted in the returned [`NumericHealth`]. SEU
    /// scrubs never reach this accounting: a poisoned story is repaired in
    /// the event loop by re-writing the *same* numeric-phase story, so its
    /// events are counted once here regardless of how many scrubs the
    /// campaign forced.
    fn apply_numeric_policy(&self, completions: &mut [Completion]) -> NumericHealth {
        let policy = self.config.numeric_policy;
        let mut nh = NumericHealth::default();
        if policy == NumericPolicy::Ignore {
            return nh;
        }
        nh.enabled = true;
        nh.policy = policy.to_string();
        for c in completions {
            let st = c.run.numeric.total();
            nh.histogram.merge(&st);
            nh.vetoed += c.run.vetoes as u64;
            if !st.stressed() {
                continue;
            }
            c.numeric_flagged = true;
            nh.flagged += 1;
            if policy == NumericPolicy::Failover {
                let sample = self.sample_of(&c.request);
                let sw = self.suite.tasks[c.request.task_idx].model.predict(sample);
                c.failed_over = true;
                Arc::make_mut(&mut c.run).answer = sw;
                c.correct = sw == sample.answer;
                nh.failed_over += 1;
                nh.failover_cycles += c.run.cycles.get();
            }
        }
        nh.failover_energy_j = self.config.active_energy_j(nh.failover_cycles);
        nh
    }

    /// Hop-pruning accounting over the completions. For a fixed story
    /// every hop of a run spends the same addressing/read/controller
    /// cycles, so the per-hop cost divides exactly and the saved-cycle
    /// figure is an exact count, not an estimate.
    fn prune_report(&self, completions: &[Completion]) -> HopPruneReport {
        let mut prune = HopPruneReport {
            enabled: self.config.hop_prune.enabled,
            threshold: self.config.hop_prune.threshold,
            ..HopPruneReport::default()
        };
        for c in completions {
            prune.hops_executed += c.run.hops_executed as u64;
            prune.hops_saved += c.run.hops_saved as u64;
            prune.vetoes += c.run.prune_vetoes as u64;
            if c.run.hops_saved > 0 {
                prune.pruned_completions += 1;
                let hop_cycles =
                    (c.run.phases.addressing + c.run.phases.read + c.run.phases.controller).get();
                // With the candidate index armed, hops inside one run can
                // scan different candidate counts, so the per-hop figure
                // below is a mean rather than an exact per-hop cost.
                if !self.config.mem_index.enabled {
                    debug_assert_eq!(hop_cycles % c.run.hops_executed as u64, 0);
                }
                prune.cycles_saved +=
                    hop_cycles / c.run.hops_executed as u64 * c.run.hops_saved as u64;
            }
        }
        prune.energy_saved_j = self.config.active_energy_j(prune.cycles_saved);
        prune
    }

    /// Candidate-index counters summed over the completions. A disabled
    /// report stays `IndexReport::default()`, not a config echo.
    fn index_report(&self, completions: &[Completion]) -> IndexReport {
        let cfg = self.config.mem_index;
        if !cfg.enabled {
            return IndexReport::default();
        }
        let mut index = IndexReport {
            enabled: true,
            k: cfg.k,
            nprobe: cfg.nprobe,
            band: cfg.band,
            ..IndexReport::default()
        };
        for c in completions {
            index.scanned_slots += c.run.index.scanned_slots;
            index.skipped_slots += c.run.index.skipped_slots;
            index.fallbacks += c.run.index.fallbacks;
            index.build_cycles += c.run.index.build_cycles;
            index.cycles_saved += c.run.index.cycles_saved;
        }
        index.energy_saved_j = self.config.active_energy_j(index.cycles_saved);
        index
    }
}

/// The event loop of one node. Arrivals and each [`Event`] variant have
/// one handler; `dispatch`, `grant` and `start_compute` are the moves they
/// share. A driver delivers arrivals (`arrive`) and steps in-flight events
/// (`step`) in time order: [`Server::serve`] its trace's, a cluster its
/// one timeline's, which also hands on what a shard exports.
pub(crate) struct ServeState<'s, 'a> {
    server: &'s Server<'a>,
    trace: &'s ArrivalTrace,
    num: &'s NumericPhase,
    /// Replica-chain length: a request on hop `h` stranded by a crash is
    /// exported while `h + 1 < replicas`, else re-queued here.
    replicas: usize,
    /// Fail-stop the whole node at this instant, exporting everything not
    /// yet drained; a completion that never drained is never journaled.
    fail_stop: Option<SimTime>,
    /// In-flight events only: link, compute and fault events.
    heap: BinaryHeap<Entry>,
    /// Watchdog ticks, in `(time, seq)` order by construction: each is due
    /// one fixed period after the instant that schedules it, and those
    /// instants never decrease, so push order is due order.
    ticks: VecDeque<Entry>,
    /// The next sequence number. Arrivals take none: they are not events.
    seq: u64,
    queue: VecDeque<usize>,
    insts: Vec<Inst>,
    /// What the scheduler sees of each instance, refilled per pick.
    views: Vec<InstanceView>,
    /// Emptied upload request lists, taken again by the next upload.
    spare: Vec<Vec<usize>>,
    /// The link and every transfer on it, from submission to landing.
    arb: LinkArbiter<LinkJob>,
    scheduler: Scheduler,
    /// One per arrival on this node, in arrival order.
    flights: Vec<Flight>,
    rejections: Vec<Rejection>,
    pub(crate) max_queue_depth: usize,
    last_drain: SimTime,
    write_cycles_saved: u64,
    upload_bytes_saved: u64,
    /// Batching counters; inert with a window of 0 or 1.
    batch: BatchReport,
    campaign: Option<Campaign>,
    journal: Option<Journal>,
    /// Requests exported since the cluster last collected them.
    pub(crate) exports: Vec<Handoff>,
    /// Link payload of handed-over requests: their uploads and answers.
    pub(crate) handoff_bytes: u64,
}

impl<'s, 'a> ServeState<'s, 'a> {
    /// A node with nothing arrived yet, running the crash and SEU plan
    /// `faults` (`None` injects nothing); a standalone node has no
    /// fail-stop and 1 replica.
    pub(crate) fn new(
        server: &'s Server<'a>,
        trace: &'s ArrivalTrace,
        num: &'s NumericPhase,
        faults: Option<FaultPlan>,
        fail_stop: Option<SimTime>,
        replicas: usize,
    ) -> Self {
        let config = &server.config;
        let instances = config.instances;
        let mut state = Self {
            server,
            trace,
            num,
            replicas,
            fail_stop,
            heap: BinaryHeap::new(),
            ticks: VecDeque::new(),
            seq: 0,
            queue: VecDeque::new(),
            insts: vec![
                Inst {
                    cache: LruSet::new(config.story_cache),
                    ..Inst::default()
                };
                instances
            ],
            views: Vec::with_capacity(instances),
            spare: Vec::new(),
            arb: LinkArbiter::new(config.pcie),
            scheduler: Scheduler::new(config.policy),
            flights: Vec::new(),
            rejections: Vec::new(),
            max_queue_depth: 0,
            last_drain: SimTime::ZERO,
            write_cycles_saved: 0,
            upload_bytes_saved: 0,
            batch: BatchReport {
                enabled: config.batch_window > 1,
                window: config.batch_window,
                ..BatchReport::default()
            },
            campaign: None,
            journal: config.wal.enabled.then(|| Journal {
                records: Vec::new(),
                rows: vec![None; num.stories.len()],
            }),
            exports: Vec::new(),
            handoff_bytes: 0,
        };
        // Fault events take the first sequence numbers, so a zero-fault
        // campaign consumes exactly the same sequence numbers as no
        // campaign at all (byte-identity with the fault layer compiled
        // in).
        if let Some(plan) = faults {
            for (k, &(t, _)) in plan.crash_events().iter().enumerate() {
                state.schedule(t, Event::Crash(k));
            }
            for (k, &(t, _, _)) in plan.seu_events().iter().enumerate() {
                state.schedule(t, Event::Seu(k));
            }
            let fc = plan.config();
            state.campaign = Some(Campaign {
                watchdog: (fc.watchdog_s > 0.0).then(|| SimTime::from_s(fc.watchdog_s)),
                cooldown: SimTime::from_s(fc.crash_cooldown_s),
                plan,
                report: FaultReport::default(),
                crash_at: HashMap::new(),
                attempts: 0,
                first_fail: None,
                link: Repairs::default(),
                instance: Repairs::default(),
                seu: Repairs::default(),
            });
        }
        // The fail-stop goes on last for the same reason: a node that
        // never fails consumes no sequence number for it.
        if let Some(t) = fail_stop {
            state.schedule(t, Event::FailStop);
        }
        state
    }

    /// The instant of this node's next in-flight event.
    pub(crate) fn next_event(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|e| e.time);
        let tick = self.ticks.front().map(|e| e.time);
        heap.into_iter().chain(tick).min()
    }

    /// Handles this node's next in-flight event: the heap's top or the
    /// tick FIFO's front, whichever is earlier by `(time, seq)`.
    pub(crate) fn step(&mut self) {
        let key = |e: &Entry| (e.time, e.seq);
        let tick_first = self
            .ticks
            .front()
            .is_some_and(|t| self.heap.peek().is_none_or(|h| key(t) < key(h)));
        let next = if tick_first {
            self.ticks.pop_front()
        } else {
            self.heap.pop()
        };
        if let Some(Entry { time, event, .. }) = next {
            self.on_event(time, event);
        }
    }

    /// Request `req` of the trace arrives at `now`, having crossed `hop`
    /// replica-chain links.
    pub(crate) fn arrive(&mut self, now: SimTime, req: usize, hop: usize) {
        self.flights.push(Flight {
            req,
            hop,
            ..Flight::default()
        });
        self.on_arrival(now, self.flights.len() - 1);
    }

    /// The flights that left this node by `fate`, in arrival order.
    fn left_by(&self, fate: Fate) -> impl Iterator<Item = &Flight> + '_ {
        self.flights.iter().filter(move |f| f.fate == Some(fate))
    }

    /// `(trace index, drain instant)` of every answer drained here, in
    /// arrival order.
    pub(crate) fn drained(&self) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        self.left_by(Fate::Drained).map(|f| (f.req, f.ts.drain_end))
    }

    /// Trace index of every request this node handed back to the cluster,
    /// once per hand-off, in arrival order.
    pub(crate) fn exported(&self) -> impl Iterator<Item = usize> + '_ {
        self.left_by(Fate::Exported).map(|f| f.req)
    }

    fn schedule(&mut self, time: SimTime, event: Event) {
        let entry = Entry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if let Event::Watchdog(_) = entry.event {
            debug_assert!(
                self.ticks.back().is_none_or(|last| last.time <= time),
                "watchdog ticks must be scheduled in time order"
            );
            self.ticks.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    fn on_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::LinkDone(id) => self.on_link_done(now, id),
            Event::ComputeDone { instance, epoch } => self.on_compute_done(now, instance, epoch),
            Event::Crash(k) => self.on_crash(now, k),
            Event::InstanceUp(i) => self.on_instance_up(now, i),
            Event::Watchdog(r) => self.on_watchdog(now, r),
            Event::Seu(k) => self.on_seu(k),
            Event::FailStop => self.on_fail_stop(now),
        }
    }

    fn on_arrival(&mut self, now: SimTime, i: usize) {
        if self.queue.len() >= self.server.config.queue_capacity {
            self.rejections.push(Rejection {
                request: self.trace.requests[self.flights[i].req],
                queue_depth: self.queue.len(),
            });
            self.flights[i].fate = Some(Fate::Rejected);
            if let Some(c) = &mut self.campaign {
                c.report.shed_overload += 1;
            }
            return;
        }
        self.flights[i].ts.enqueue = now;
        self.queue.push_back(i);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
        if let Some(c) = &mut self.campaign {
            // Overload response: past the degrade depth, survivors are
            // answered in aggressive-ITH degraded mode instead of being
            // shed.
            let depth = c.plan.config().degrade_depth;
            if depth > 0 && self.queue.len() >= depth {
                self.flights[i].degraded = true;
                c.report.degraded += 1;
            }
        }
        self.dispatch(now);
        self.grant(now);
    }

    /// Transfer `id`, the one holding the link, lands at `now`.
    fn on_link_done(&mut self, now: SimTime, id: u64) {
        let corrupted = self
            .campaign
            .as_ref()
            .is_some_and(|c| c.plan.corrupts(id, c.attempts));
        if corrupted {
            self.on_corruption(now);
        } else {
            self.on_delivery(now);
        }
    }

    /// A transfer arrived corrupted (CRC failure): replay it within the
    /// retry budget, else the payload is undeliverable.
    fn on_corruption(&mut self, now: SimTime) {
        let c = self
            .campaign
            .as_mut()
            .expect("corruption implies a campaign");
        c.report.link_corruptions += 1;
        c.first_fail.get_or_insert(now);
        let attempt = c.attempts;
        if attempt < c.plan.config().max_retries {
            // Hold the link through backoff and replay the whole transfer.
            // Holding (rather than completing and resubmitting) keeps the
            // FIFO order of every other pending transfer intact.
            c.attempts += 1;
            let g = self.arb.retransmit(now + c.plan.backoff(attempt));
            self.schedule(g.end, Event::LinkDone(g.id));
            return;
        }
        c.report.retry_exhausted += 1;
        // The next transfer starts with no retries behind it.
        c.attempts = 0;
        c.first_fail = None;
        let job = self.arb.complete();
        let shed: &[usize] = match &job {
            // Target alive since dispatch: these requests have no other
            // copy in flight, so they are shed.
            LinkJob::Upload {
                instance,
                reqs,
                epoch,
            } if self.insts[*instance].epoch == *epoch => {
                self.insts[*instance].inflight -= reqs.len();
                reqs
            }
            // Epoch mismatch: the instance crashed while this payload was
            // on the wire; its requests are already stranded and the
            // watchdog re-dispatches them.
            LinkJob::Upload { .. } => &[],
            LinkJob::Drain { req } => std::slice::from_ref(req),
        };
        let c = self
            .campaign
            .as_mut()
            .expect("corruption implies a campaign");
        c.report.shed_link += shed.len() as u64;
        for &r in shed {
            self.flights[r].fate = Some(Fate::Shed);
        }
        if let LinkJob::Upload { reqs, .. } = job {
            self.recycle(reqs);
        }
        self.dispatch(now);
        self.grant(now);
    }

    /// A transfer landed intact: an upload joins its instance's FIFO, a
    /// drain completes its request.
    fn on_delivery(&mut self, now: SimTime) {
        if let Some(c) = &mut self.campaign {
            c.attempts = 0;
            if let Some(t0) = c.first_fail.take() {
                c.link.record(t0, now);
            }
        }
        let mut ready = None;
        match self.arb.complete() {
            LinkJob::Upload {
                instance,
                reqs,
                epoch,
            } => {
                // A stale epoch means the payload arrived at an instance
                // that crashed after dispatch — delivery is void, the
                // watchdog recovers the stranded requests.
                if self.insts[instance].epoch == epoch {
                    debug_assert!(!self.insts[instance].down);
                    for &r in &reqs {
                        let f = &mut self.flights[r];
                        f.ts.upload_end = now;
                        if let Some(t0) = f.seu_pending.take() {
                            let c = self.campaign.as_mut().expect("a scrub implies a campaign");
                            c.seu.record(t0, now);
                        }
                    }
                    self.insts[instance].ready.extend(&reqs);
                    ready = Some(instance);
                }
                self.recycle(reqs);
            }
            LinkJob::Drain { req } => {
                let f = &mut self.flights[req];
                f.ts.drain_end = now;
                f.fate = Some(Fate::Drained);
                // Credit the instance only now: an answer shed on the
                // drain link, or stranded by a fail-stop, never completed.
                let (i, _) = f.assigned.expect("a drained request was dispatched");
                self.insts[i].completed += 1;
                self.last_drain = self.last_drain.max(now);
            }
        }
        if let Some(i) = ready {
            self.start_compute(i, now);
        }
        self.grant(now);
    }

    fn on_compute_done(&mut self, now: SimTime, instance: usize, epoch: u64) {
        // A stale epoch means the instance crashed mid-compute; the result
        // never materialized.
        if self.insts[instance].epoch != epoch {
            return;
        }
        let mut group = std::mem::take(&mut self.insts[instance].computing);
        debug_assert!(!group.is_empty(), "a live compute has its group");
        self.insts[instance].inflight -= group.len();
        for &q in &group {
            let f = &mut self.flights[q];
            f.ts.compute_end = now;
            f.computed = true;
            if f.hop > 0 {
                self.handoff_bytes += PcieLink::answer_bytes();
            }
            self.arb
                .submit(LinkJob::Drain { req: q }, PcieLink::answer_bytes(), 1);
        }
        group.clear();
        self.insts[instance].computing = group;
        self.start_compute(instance, now);
        self.dispatch(now);
        self.grant(now);
    }

    fn on_crash(&mut self, now: SimTime, k: usize) {
        let c = self.campaign.as_mut().expect("crash implies a campaign");
        let (_, i) = c.plan.crash_events()[k];
        if self.insts[i].down {
            return;
        }
        c.report.crashes += 1;
        c.crash_at.insert((i, self.insts[i].epoch), now);
        let up = now + c.cooldown;
        self.insts[i].halt(now);
        self.schedule(up, Event::InstanceUp(i));
    }

    fn on_instance_up(&mut self, now: SimTime, i: usize) {
        self.insts[i].down = false;
        self.dispatch(now);
        self.grant(now);
    }

    fn on_watchdog(&mut self, now: SimTime, r: usize) {
        let f = self.flights[r];
        if f.fate.is_some() {
            return;
        }
        let c = self.campaign.as_mut().expect("watchdog implies a campaign");
        c.report.watchdog_fires += 1;
        let period = c.watchdog.expect("a tick implies the watchdog");
        let stranded = f
            .assigned
            .filter(|&(i, epoch)| !f.computed && self.insts[i].epoch != epoch);
        if let Some(at) = stranded {
            // The instance crashed under this request: fail over to
            // whatever replica the scheduler picks next (re-admission is
            // capacity-exempt; the request was already admitted once).
            c.report.failovers += 1;
            if let Some(&t0) = c.crash_at.get(&at) {
                c.instance.record(t0, now);
            }
            if f.hop + 1 < self.replicas {
                // Cross-shard failover: hand the request back to the
                // cluster, which delivers it to the next link of its
                // story's replica chain; this node is done with it.
                self.export(now, r);
            } else {
                self.flights[r].assigned = None;
                self.queue.push_front(r);
                self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
                self.dispatch(now);
                self.grant(now);
            }
        }
        // Re-arm while the request is alive; the chain dies with its fate
        // (which an export just set).
        if self.flights[r].fate.is_none() {
            self.schedule(now + period, Event::Watchdog(r));
        }
    }

    fn on_seu(&mut self, k: usize) {
        let c = self.campaign.as_mut().expect("SEU implies a campaign");
        let (_, i, pick) = c.plan.seu_events()[k];
        c.report.seu_events += 1;
        if self.insts[i].down {
            return;
        }
        let cache = &mut self.insts[i].cache;
        let keys = cache.keys();
        if !keys.is_empty() {
            let key = keys[(pick % keys.len() as u64) as usize];
            cache.poison(key);
        }
    }

    /// Whole-node fail-stop: the fabric, caches and host queue vanish at
    /// the cut. Every instance halts (the killed compute never happened,
    /// the same rule as a crash), the heap and the ticks are dropped, and
    /// everything unfinished is handed back to the cluster at the cut.
    fn on_fail_stop(&mut self, now: SimTime) {
        for inst in &mut self.insts {
            inst.halt(now);
        }
        self.heap.clear();
        self.ticks.clear();
        for r in 0..self.flights.len() {
            if self.flights[r].fate.is_none() {
                self.export(now, r);
            }
        }
    }

    /// Hands request `r` back to the cluster at `now`.
    fn export(&mut self, now: SimTime, r: usize) {
        let f = &mut self.flights[r];
        f.fate = Some(Fate::Exported);
        self.exports.push(Handoff {
            at: now,
            req: f.req,
            hop: f.hop,
        });
    }

    /// Moves as many queued requests as credits allow onto the link.
    fn dispatch(&mut self, now: SimTime) {
        let limit = self.server.config.inflight_limit;
        while let Some(&head) = self.queue.front() {
            let story = self.num.story_id(self.flights[head].req) as u64;
            self.views.clear();
            self.views
                .extend(self.insts.iter().map(|inst| InstanceView {
                    inflight: inst.inflight,
                    // A crashed instance advertises no credits, so the
                    // (unchanged) scheduler never picks it.
                    credits: if inst.down { 0 } else { limit - inst.inflight },
                    free_at: inst.free_at,
                    resident: inst.cache.contains(story),
                }));
            let Some(target) = self.scheduler.pick(&self.views) else {
                break;
            };
            let credits = limit - self.insts[target].inflight;
            let take = credits
                .min(self.server.config.upload_batch)
                .min(self.queue.len());
            let mut reqs = self.spare.pop().unwrap_or_default();
            reqs.extend(self.queue.drain(..take));
            let bytes = reqs.iter().map(|&r| self.admit(now, target, r)).sum();
            self.insts[target].inflight += take;
            let epoch = self.insts[target].epoch;
            let upload = LinkJob::Upload {
                instance: target,
                reqs,
                epoch,
            };
            self.arb.submit(upload, bytes, take);
        }
    }

    /// Dispatches request `r` to instance `target`, returning its upload
    /// bytes. Residency (hit or miss) is decided here, per request,
    /// because it depends on the chosen instance's cache state.
    fn admit(&mut self, now: SimTime, target: usize, r: usize) -> u64 {
        let num = self.num;
        let g = self.flights[r].req;
        let sid = num.story_id(g);
        let admission = self.insts[target].cache.admit(sid as u64);
        if let Some(j) = &mut self.journal {
            j.admit(num, sid, admission, now);
        }
        let story_cycles = num.stories[sid].resident.phases().total().get();
        if admission.scrubbed {
            // A poisoned resident story: the digest check caught it, so
            // this dispatch pays a full re-write (miss form) to repair it.
            let c = self.campaign.as_mut().expect("only an SEU poisons a story");
            c.report.scrubs += 1;
            c.report.scrub_cycles += story_cycles;
            self.flights[r].seu_pending = Some(now);
        }
        if admission.hit {
            self.write_cycles_saved += story_cycles;
            self.upload_bytes_saved += num.bytes(g, false) - num.bytes(g, true);
        }
        let f = &mut self.flights[r];
        f.hit = admission.hit;
        f.ts.dispatch = now;
        f.assigned = Some((target, self.insts[target].epoch));
        let watchdog = self.campaign.as_ref().and_then(|c| c.watchdog);
        if let Some(period) = watchdog.filter(|_| !f.watchdog_armed) {
            f.watchdog_armed = true;
            self.schedule(now + period, Event::Watchdog(r));
        }
        let bytes = num.bytes(g, admission.hit);
        if self.flights[r].hop > 0 {
            self.handoff_bytes += bytes;
        }
        bytes
    }

    /// Keeps an upload's emptied request list for the next upload.
    fn recycle(&mut self, mut reqs: Vec<usize>) {
        reqs.clear();
        self.spare.push(reqs);
    }

    /// Grants the head link job if the link is idle.
    fn grant(&mut self, now: SimTime) {
        let Some((g, job)) = self.arb.try_grant(now) else {
            return;
        };
        match job {
            LinkJob::Upload { reqs, .. } => {
                for &r in reqs {
                    self.flights[r].ts.upload_start = g.start;
                }
            }
            LinkJob::Drain { req } => self.flights[*req].ts.drain_start = g.start,
        }
        self.schedule(g.end, Event::LinkDone(g.id));
    }

    /// Starts the next ready request if instance `i`'s fabric is idle.
    /// With a batch window > 1, the head request additionally drains
    /// every FIFO'd request on the *same resident story* (up to the
    /// window) into one fused compute group: the shared per-hop memory
    /// stream and the shared output-search stream are paid once instead
    /// of once per query, so the fused duration is the sum of the
    /// per-query durations minus the deduplicated stream cycles.
    fn start_compute(&mut self, i: usize, now: SimTime) {
        let num = self.num;
        let story = |f: &Flight| num.story_id(f.req);
        let inst = &mut self.insts[i];
        if !inst.computing.is_empty() {
            return;
        }
        let Some(r) = inst.ready.pop_front() else {
            return;
        };
        // The idle instance's emptied group buffer.
        let mut group = std::mem::take(&mut inst.computing);
        group.push(r);
        let window = self.batch.window;
        if window > 1 {
            let flights = &self.flights;
            inst.ready.retain(|&q| {
                let joins = group.len() < window && story(&flights[q]) == story(&flights[r]);
                if joins {
                    group.push(q);
                }
                !joins
            });
            let b = &mut self.batch;
            b.groups += 1;
            b.batched_requests += group.len() as u64;
            if b.size_histogram.len() < group.len() {
                b.size_histogram.resize(group.len(), 0);
            }
            b.size_histogram[group.len() - 1] += 1;
        }
        let mut total = SimTime::ZERO;
        for &q in &group {
            self.flights[q].ts.compute_start = now;
            total += num.run(&self.flights[q]).compute;
        }
        let fused = if group.len() > 1 {
            self.batch.fused_groups += 1;
            // Same story => same per-hop stream cost; the batch pays
            // max(hops) streams instead of sum(hops), and one output row
            // stream instead of one per query.
            let run = |q: usize| &num.run(&self.flights[q]).run;
            let stream = run(r).mem_stream_per_hop;
            let hops: u64 = group.iter().map(|&q| run(q).hops_executed as u64).sum();
            let max_hops = group
                .iter()
                .map(|&q| run(q).hops_executed as u64)
                .max()
                .unwrap_or(0);
            let outs: u64 = group.iter().map(|&q| run(q).out_stream_cycles).sum();
            let max_out = group
                .iter()
                .map(|&q| run(q).out_stream_cycles)
                .max()
                .unwrap_or(0);
            let saved = stream * (hops - max_hops) + (outs - max_out);
            self.batch.cycles_saved += saved;
            let clock = self.server.config.clock;
            total.saturating_sub(clock.sim_time(Cycles::new(saved)))
        } else {
            total
        };
        let end = now + fused;
        inst.free_at = end;
        inst.busy += fused;
        inst.computing = group;
        let epoch = inst.epoch;
        self.schedule(end, Event::ComputeDone { instance: i, epoch });
    }

    /// Assembles the outcome: completions and sheds in trace order.
    pub(crate) fn finish(mut self) -> ServeOutcome {
        debug_assert!(
            self.fail_stop.is_some() || self.queue.is_empty(),
            "event loop left work queued"
        );
        debug_assert!(
            self.fail_stop.is_some() || self.arb.is_idle(),
            "link work stranded"
        );
        // Flights are in arrival order; outcomes follow the trace. The
        // flight index makes every key distinct, so the unstable sort, which
        // needs no scratch buffer, is the stable one.
        let mut order: Vec<usize> = (0..self.flights.len()).collect();
        order.sort_unstable_by_key(|&i| (self.flights[i].req, i));
        let drained = self.drained().count();
        let (mut completions, mut sheds) = (Vec::with_capacity(drained), Vec::new());
        for i in order {
            let f = &self.flights[i];
            match f.fate.expect("every request leaves the node") {
                Fate::Drained => completions.push(self.completion(f)),
                Fate::Shed => sheds.push(self.trace.requests[f.req]),
                Fate::Exported | Fate::Rejected => {}
            }
        }
        let server = self.server;
        let numeric = server.apply_numeric_policy(&mut completions);
        let wal_records = self
            .journal
            .take()
            .map_or_else(Vec::new, |j| j.finish(&completions));
        let fault = self.campaign.take().map_or_else(FaultReport::default, |c| {
            c.finish(&server.config, &self.arb)
        });
        let report = self.report(&completions, fault, numeric);
        ServeOutcome {
            completions,
            rejections: self.rejections,
            sheds,
            wal_records,
            report,
        }
    }

    fn completion(&self, f: &Flight) -> Completion {
        let r = &self.trace.requests[f.req];
        debug_assert!(f.ts.is_monotone(), "request {} timeline broken", r.id);
        let run = Arc::clone(&self.num.run(f).run);
        let correct = run.answer == self.server.sample_of(r).answer;
        Completion {
            request: *r,
            instance: f.assigned.expect("a drained request was dispatched").0,
            run,
            timestamps: f.ts,
            correct,
            degraded: f.degraded,
            numeric_flagged: false,
            failed_over: false,
        }
    }

    /// Distinct stories among the requests that arrived here.
    fn unique_stories(&self) -> usize {
        let mut seen = vec![false; self.num.stories.len()];
        self.flights
            .iter()
            .filter(|f| !std::mem::replace(&mut seen[self.num.story_id(f.req)], true))
            .count()
    }

    fn report(
        &self,
        completions: &[Completion],
        fault: FaultReport,
        numeric: NumericHealth,
    ) -> ServeReport {
        let server = self.server;
        let config = &server.config;
        let makespan_s = self.last_drain.as_s();
        let share = |busy_s: f64| {
            if makespan_s > 0.0 {
                (busy_s / makespan_s).clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        let instances: Vec<InstanceReport> = self
            .insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let busy_s = inst.busy.as_s();
                InstanceReport {
                    instance: i,
                    completed: inst.completed,
                    cache_hits: inst.cache.stats().hits,
                    busy_s,
                    occupancy: share(busy_s),
                    energy_j: config.power.interval_energy_j(
                        config.clock.freq_mhz(),
                        busy_s,
                        makespan_s,
                        config.use_ith,
                    ),
                }
            })
            .collect();
        let stats = self.insts.iter().map(|inst| inst.cache.stats()).fold(
            mann_hw::CacheStats::default(),
            |mut acc, s| {
                acc += s;
                acc
            },
        );
        let mut batch = self.batch.clone();
        batch.energy_saved_j = config.active_energy_j(batch.cycles_saved);
        let correct = completions.iter().filter(|c| c.correct).count();
        let wait: f64 = completions
            .iter()
            .map(|c| c.timestamps.queue_wait().as_s())
            .sum();
        let done = completions.len();
        ServeReport {
            requests: self.flights.len(),
            completed: done,
            rejected: self.rejections.len(),
            accuracy: mean(correct as f64, done as u64),
            makespan_s,
            throughput_rps: if makespan_s > 0.0 {
                done as f64 / makespan_s
            } else {
                0.0
            },
            latency: LatencySummary::from_latencies(
                &completions
                    .iter()
                    .map(|c| c.timestamps.latency().as_s())
                    .collect::<Vec<_>>(),
            ),
            mean_queue_wait_s: mean(wait, done as u64),
            max_queue_depth: self.max_queue_depth,
            total_energy_j: instances.iter().map(|i| i.energy_j).sum(),
            instances,
            link: LinkReport {
                grants: self.arb.grants(),
                bytes: self.arb.bytes_moved(),
                busy_s: self.arb.busy_time().as_s(),
                utilization: share(self.arb.busy_time().as_s()),
            },
            cache: CacheReport {
                capacity: config.story_cache,
                unique_stories: self.unique_stories(),
                hits: stats.hits,
                misses: stats.misses,
                evictions: stats.evictions,
                hit_rate: stats.hit_rate(),
                write_cycles_saved: self.write_cycles_saved,
                upload_bytes_saved: self.upload_bytes_saved,
                write_energy_saved_j: config.active_energy_j(self.write_cycles_saved),
            },
            phase_totals: completions.iter().map(|c| c.run.phases).sum(),
            speculated: completions.iter().filter(|c| c.run.speculated).count(),
            setup_s: server.setup_time_s(),
            answers_digest: answers_digest(
                completions.iter().map(|c| (c.request.id, c.run.answer)),
            ),
            fault,
            numeric,
            batch,
            prune: server.prune_report(completions),
            index: server.index_report(completions),
            // The durable driver (`crate::store`) patches this section in
            // after persisting the journal; the pure serve never fills it.
            durability: DurabilityReport::default(),
            fail_stopped: self.fail_stop.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::TraceConfig;
    use mann_babi::TaskId;
    use mann_core::SuiteConfig;

    fn suite() -> TaskSuite {
        let cfg = SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 100,
            test_samples: 12,
            seed: 5,
            ..SuiteConfig::quick()
        };
        TaskSuite::build(&cfg)
    }

    fn trace(suite: &TaskSuite, requests: usize) -> ArrivalTrace {
        ArrivalTrace::generate(
            &TraceConfig {
                requests,
                seed: 11,
                mean_interarrival_s: 150e-6,
                ..TraceConfig::default()
            },
            suite,
        )
    }

    #[test]
    fn serves_every_request_with_monotone_timelines() {
        let s = suite();
        let server = Server::new(&s, ServeConfig::default());
        let t = trace(&s, 64);
        let out = server.serve(&t);
        assert_eq!(out.completions.len(), 64);
        assert!(out.rejections.is_empty());
        for c in &out.completions {
            assert!(c.timestamps.is_monotone());
            assert!(c.instance < server.config().instances);
            assert!(c.timestamps.latency() > SimTime::ZERO);
        }
        // Ids stay in order.
        assert!(out
            .completions
            .windows(2)
            .all(|w| w[0].request.id < w[1].request.id));
        let r = &out.report;
        assert_eq!(r.completed, 64);
        assert!(r.makespan_s > 0.0 && r.throughput_rps > 0.0);
        assert!(r.latency.p50_s <= r.latency.p99_s);
        assert!(r.total_energy_j > 0.0);
        assert!(r.setup_s > 0.0);
        assert_eq!(r.instances.len(), 2);
        // Both instances did work under shortest-queue at this load.
        assert!(r.instances.iter().all(|i| i.completed > 0));
        // Every drain crossed the link, plus at least one upload grant.
        assert!(r.link.grants > 64);
        assert!(r.link.utilization > 0.0 && r.link.utilization <= 1.0);
        // Cache accounting is coherent: every completion was admitted once.
        assert_eq!(r.cache.hits + r.cache.misses, 64);
        assert_eq!(
            r.instances.iter().map(|i| i.cache_hits).sum::<u64>(),
            r.cache.hits
        );
        // 24 test samples, 64 draws: repeats are certain, and with capacity
        // 16 per instance the cache must convert some into hits.
        assert!(r.cache.unique_stories <= 24);
        assert!(r.cache.hits > 0);
        assert!(r.cache.write_cycles_saved > 0);
        assert!(r.cache.upload_bytes_saved > 0);
        assert!(r.cache.write_energy_saved_j > 0.0);
    }

    #[test]
    fn serve_is_deterministic() {
        let s = suite();
        let server = Server::new(&s, ServeConfig::default());
        let t = trace(&s, 48);
        let a = server.serve(&t);
        let b = server.serve(&t);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }

    #[test]
    fn links_need_a_positive_bandwidth_and_a_finite_latency() {
        let with_link = |bandwidth_bytes_per_s, latency_per_transfer_s| ServeConfig {
            pcie: PcieLink {
                bandwidth_bytes_per_s,
                latency_per_transfer_s,
            },
            ..ServeConfig::default()
        };
        for (bandwidth, latency) in [
            (0.0, 65e-6),
            (-1e9, 65e-6),
            (f64::NAN, 65e-6),
            (f64::INFINITY, 65e-6),
            (1e-300, 65e-6),
            (1.5e9, -1e-6),
            (1.5e9, f64::NAN),
            (1.5e9, f64::INFINITY),
            (1.5e9, 1e300),
        ] {
            let err = with_link(bandwidth, latency)
                .validate()
                .expect_err("an unusable link is rejected");
            assert!(err.starts_with("link "), "{bandwidth}, {latency}: {err}");
        }
        assert_eq!(with_link(1.5e9, 0.0).validate(), Ok(()));
    }

    #[test]
    fn serial_and_parallel_engines_agree_bit_for_bit() {
        let s = suite();
        let t = trace(&s, 48);
        let serve_with = |workers| {
            let server = Server::new(
                &s,
                ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t)
        };
        let serial = serve_with(1);
        let parallel = serve_with(0);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
    }

    #[test]
    fn cache_off_matches_standalone_runs_exactly() {
        let s = suite();
        let server = Server::new(
            &s,
            ServeConfig {
                story_cache: 0,
                ..ServeConfig::default()
            },
        );
        let t = trace(&s, 32);
        let out = server.serve(&t);
        assert_eq!(out.report.cache.hits, 0);
        assert_eq!(out.report.cache.capacity, 0);
        for c in &out.completions {
            let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
            let direct = server.accelerator(c.request.task_idx).run(sample);
            assert_eq!(*c.run, direct);
        }
    }

    #[test]
    fn cache_hits_change_write_phase_only() {
        let s = suite();
        let server = Server::new(&s, ServeConfig::default());
        let t = trace(&s, 64);
        let out = server.serve(&t);
        let hits = out.completions.iter().filter(|c| c.run.cache_hit).count();
        assert!(hits > 0, "no cache hits in a repeat-heavy trace");
        for c in &out.completions {
            let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
            let direct = server.accelerator(c.request.task_idx).run(sample);
            assert_eq!(c.run.answer, direct.answer);
            assert_eq!(c.run.comparisons, direct.comparisons);
            assert_eq!(c.run.phases.addressing, direct.phases.addressing);
            assert_eq!(c.run.phases.read, direct.phases.read);
            assert_eq!(c.run.phases.controller, direct.phases.controller);
            assert_eq!(c.run.phases.output, direct.phases.output);
            if c.run.cache_hit {
                assert!(c.run.phases.write < direct.phases.write);
                assert!(c.run.interface_s < direct.interface_s);
            } else {
                assert_eq!(*c.run, direct);
            }
        }
    }

    #[test]
    fn story_affinity_beats_shortest_queue_on_hits() {
        let s = suite();
        // Few stories, many questions: residency matters.
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests: 96,
                seed: 17,
                mean_interarrival_s: 120e-6,
                story_pool: 3,
            },
            &s,
        );
        let serve_with = |policy| {
            let server = Server::new(
                &s,
                ServeConfig {
                    instances: 3,
                    story_cache: 2,
                    policy,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t).report
        };
        let sq = serve_with(SchedulePolicy::ShortestQueue);
        let af = serve_with(SchedulePolicy::StoryAffinity);
        assert_eq!(sq.answers_digest, af.answers_digest);
        assert!(
            af.cache.hits > sq.cache.hits,
            "affinity hits {} !> shortest-queue hits {}",
            af.cache.hits,
            sq.cache.hits
        );
    }

    #[test]
    fn tiny_queue_rejects_under_burst() {
        let s = suite();
        let server = Server::new(
            &s,
            ServeConfig {
                instances: 1,
                queue_capacity: 2,
                ..ServeConfig::default()
            },
        );
        // A burst: everything arrives nearly at once.
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests: 40,
                seed: 3,
                mean_interarrival_s: 1e-9,
                ..TraceConfig::default()
            },
            &s,
        );
        let out = server.serve(&t);
        assert!(!out.rejections.is_empty(), "no backpressure under burst");
        assert_eq!(out.completions.len() + out.rejections.len(), 40);
        assert_eq!(out.report.rejected, out.rejections.len());
        for r in &out.rejections {
            assert_eq!(r.queue_depth, 2);
        }
        // Rejected ids are absent from completions.
        let done: std::collections::HashSet<u64> =
            out.completions.iter().map(|c| c.request.id).collect();
        assert!(out.rejections.iter().all(|r| !done.contains(&r.request.id)));
    }

    #[test]
    fn more_instances_reduce_tail_latency() {
        let s = suite();
        // A near-simultaneous burst on a fast link, so the fabric compute
        // time — not the shared-link serialization — is the bottleneck and
        // replication can actually help. Caching off keeps service times
        // instance-independent for a clean comparison.
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests: 96,
                seed: 13,
                mean_interarrival_s: 1e-9,
                ..TraceConfig::default()
            },
            &s,
        );
        let fast_link = mann_hw::PcieLink {
            bandwidth_bytes_per_s: 1.5e9,
            latency_per_transfer_s: 1e-6,
        };
        let serve = |instances: usize| {
            let server = Server::new(
                &s,
                ServeConfig {
                    instances,
                    queue_capacity: 256,
                    story_cache: 0,
                    pcie: fast_link,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t).report
        };
        let one = serve(1);
        let four = serve(4);
        assert!(
            four.latency.p99_s < one.latency.p99_s,
            "p99 {} !< {} with 4x instances",
            four.latency.p99_s,
            one.latency.p99_s
        );
        assert!(
            four.makespan_s < 0.6 * one.makespan_s,
            "makespan {} !< 0.6 * {}",
            four.makespan_s,
            one.makespan_s
        );
        // Replication never changes an answer.
        assert_eq!(one.answers_digest, four.answers_digest);
    }

    #[test]
    fn caching_improves_throughput_under_story_reuse() {
        let s = suite();
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests: 128,
                seed: 23,
                mean_interarrival_s: 1e-9,
                story_pool: 4,
            },
            &s,
        );
        let serve_with = |story_cache| {
            let server = Server::new(
                &s,
                ServeConfig {
                    queue_capacity: 256,
                    story_cache,
                    policy: SchedulePolicy::StoryAffinity,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t).report
        };
        let cold = serve_with(0);
        let warm = serve_with(8);
        assert_eq!(cold.answers_digest, warm.answers_digest);
        assert!(warm.cache.hits > 0);
        assert!(
            warm.makespan_s < cold.makespan_s,
            "warm {} !< cold {}",
            warm.makespan_s,
            cold.makespan_s
        );
    }

    #[test]
    fn policies_agree_on_answers_but_may_differ_in_timing() {
        let s = suite();
        let t = trace(&s, 48);
        let serve_with = |policy| {
            let server = Server::new(
                &s,
                ServeConfig {
                    instances: 3,
                    policy,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t)
        };
        let rr = serve_with(SchedulePolicy::RoundRobin);
        let sq = serve_with(SchedulePolicy::ShortestQueue);
        let af = serve_with(SchedulePolicy::StoryAffinity);
        assert_eq!(rr.report.answers_digest, sq.report.answers_digest);
        assert_eq!(rr.report.completed, sq.report.completed);
        assert_eq!(sq.report.answers_digest, af.report.answers_digest);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let s = suite();
        let server = Server::new(&s, ServeConfig::default());
        let t = ArrivalTrace {
            requests: Vec::new(),
            config: TraceConfig::default(),
        };
        let out = server.serve(&t);
        assert!(out.completions.is_empty());
        assert_eq!(out.report.makespan_s, 0.0);
        assert_eq!(out.report.total_energy_j, 0.0);
        assert_eq!(out.report.cache.hits + out.report.cache.misses, 0);
    }

    #[test]
    fn numeric_ignore_emits_no_key_and_flag_is_clean_at_babi_scale() {
        let s = suite();
        let t = trace(&s, 16);
        let out = Server::new(&s, ServeConfig::default()).serve(&t);
        assert!(!out.report.numeric.enabled);
        assert!(
            !serde_json::to_string(&out.report)
                .unwrap()
                .contains("\"numeric\""),
            "ignore policy must not emit the numeric key"
        );
        // A flag policy on the clean suite publishes the section but every
        // counter is zero and no answer moves.
        let flagged = Server::new(
            &s,
            ServeConfig {
                numeric_policy: NumericPolicy::Flag,
                ..ServeConfig::default()
            },
        )
        .serve(&t);
        let nh = &flagged.report.numeric;
        assert!(nh.enabled);
        assert_eq!(nh.policy, "flag");
        assert_eq!((nh.flagged, nh.vetoed, nh.failed_over), (0, 0, 0));
        assert!(nh.histogram.is_clean());
        assert_eq!(flagged.report.answers_digest, out.report.answers_digest);
        assert!(flagged.completions.iter().all(|c| !c.numeric_flagged));
    }

    #[test]
    fn failover_reroutes_stressed_completions_to_the_reference_model() {
        let s = suite().with_embedding_scale(f32::MAX);
        let t = trace(&s, 24);
        let serve_with = |numeric_policy| {
            Server::new(
                &s,
                ServeConfig {
                    use_ith: true,
                    numeric_policy,
                    ..ServeConfig::default()
                },
            )
            .serve(&t)
        };
        let flagged = serve_with(NumericPolicy::Flag);
        let nh = &flagged.report.numeric;
        assert!(nh.flagged > 0, "stress campaign produced no flags");
        assert!(nh.histogram.add_sat > 0 && nh.histogram.mul_sat > 0);
        assert!(nh.histogram.nan_boundary > 0, "±inf weights at load");
        assert_eq!(nh.failed_over, 0, "flag policy must not fail over");
        assert_eq!(nh.failover_cycles, 0);

        let failover = serve_with(NumericPolicy::Failover);
        let nf = &failover.report.numeric;
        assert_eq!(nf.flagged, nh.flagged, "same flags, different response");
        assert_eq!(nf.failed_over, nf.flagged);
        assert!(nf.failover_cycles > 0 && nf.failover_energy_j > 0.0);
        for c in &failover.completions {
            if c.failed_over {
                let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
                assert_eq!(
                    c.run.answer,
                    s.tasks[c.request.task_idx].model.predict(sample),
                    "failover answer must come from the f32 reference"
                );
                assert!(c.numeric_flagged);
            }
        }
    }

    #[test]
    fn numeric_health_is_engine_invariant_under_stress() {
        let s = suite().with_embedding_scale(f32::MAX);
        let t = trace(&s, 24);
        let serve_with = |workers| {
            Server::new(
                &s,
                ServeConfig {
                    workers,
                    use_ith: true,
                    numeric_policy: NumericPolicy::Failover,
                    ..ServeConfig::default()
                },
            )
            .serve(&t)
        };
        let serial = serve_with(1);
        let parallel = serve_with(0);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
    }

    #[test]
    fn seu_scrubs_do_not_double_count_numeric_events() {
        // An SEU-poisoned story is repaired by re-writing the *same*
        // numeric-phase story: the scrub costs cycles in the fault report,
        // but the story's saturation events are counted once per
        // completion either way.
        let s = suite().with_embedding_scale(f32::MAX);
        let t = trace(&s, 32);
        let serve_with = |faults| {
            Server::new(
                &s,
                ServeConfig {
                    numeric_policy: NumericPolicy::Flag,
                    faults,
                    ..ServeConfig::default()
                },
            )
            .serve(&t)
        };
        let clean = serve_with(FaultConfig::none());
        let seus = serve_with(FaultConfig {
            seed: 9,
            seus: 8,
            ..FaultConfig::none()
        });
        assert!(seus.report.fault.seu_events > 0);
        assert_eq!(
            clean.report.numeric, seus.report.numeric,
            "scrub re-writes leaked into the numeric section"
        );
    }

    /// A burst of same-story questions against one instance over a fast
    /// link: uploads outrun the fabric, the ready FIFO backs up, and the
    /// batcher has real groups to fuse.
    fn reuse_trace(s: &TaskSuite) -> ArrivalTrace {
        ArrivalTrace::generate(
            &TraceConfig {
                requests: 96,
                seed: 23,
                mean_interarrival_s: 1e-9,
                story_pool: 3,
            },
            s,
        )
    }

    fn batched_config(window: usize) -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            story_cache: 4,
            // Deep input FIFOs: groups can only form from requests already
            // buffered behind the computing one.
            inflight_limit: 8,
            policy: SchedulePolicy::StoryAffinity,
            pcie: mann_hw::PcieLink {
                bandwidth_bytes_per_s: 1.5e9,
                latency_per_transfer_s: 1e-6,
            },
            batch_window: window,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn batch_window_zero_and_one_are_byte_identical() {
        let s = suite();
        let t = reuse_trace(&s);
        let off = Server::new(&s, batched_config(0)).serve(&t);
        let one = Server::new(&s, batched_config(1)).serve(&t);
        assert_eq!(off.completions, one.completions);
        assert_eq!(off.rejections, one.rejections);
        // Window 0 and 1 differ only in the (disabled) config echo; the
        // emitted JSON must be byte-identical, and neither lever key may
        // appear with the levers off.
        let j0 = serde_json::to_string(&off.report).unwrap();
        let j1 = serde_json::to_string(&one.report).unwrap();
        assert!(!j0.contains("\"batch\""), "disabled batching emitted a key");
        assert!(!j0.contains("\"prune\""), "disabled pruning emitted a key");
        assert_eq!(j0, j1);
    }

    #[test]
    fn batched_compute_fuses_groups_without_changing_answers() {
        let s = suite();
        let t = reuse_trace(&s);
        let unbatched = Server::new(&s, batched_config(0)).serve(&t);
        let batched = Server::new(&s, batched_config(4)).serve(&t);
        let b = &batched.report.batch;
        assert!(b.enabled);
        assert_eq!(b.window, 4);
        assert!(b.fused_groups > 0, "burst trace formed no fused group");
        assert!(b.batched_requests > b.groups, "no group exceeded size 1");
        // The histogram partitions the groups and never exceeds the window.
        assert_eq!(b.size_histogram.iter().sum::<u64>(), b.groups);
        assert!(b.size_histogram.len() <= 4);
        let by_size: u64 = b
            .size_histogram
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        assert_eq!(by_size, b.batched_requests);
        assert!(b.cycles_saved > 0 && b.energy_saved_j > 0.0);
        // Fusing dedups stream cycles; it never touches a datapath result.
        // (Write/control totals may drift: earlier compute completions
        // shift dispatch timing and with it the hit/miss split.)
        assert_eq!(
            unbatched.report.answers_digest,
            batched.report.answers_digest
        );
        let (u, f) = (unbatched.report.phase_totals, batched.report.phase_totals);
        assert_eq!(u.addressing, f.addressing);
        assert_eq!(u.read, f.read);
        assert_eq!(u.controller, f.controller);
        assert_eq!(u.output, f.output);
        assert_eq!(unbatched.report.accuracy, batched.report.accuracy);
        assert!(
            batched.report.makespan_s < unbatched.report.makespan_s,
            "batched {} !< unbatched {}",
            batched.report.makespan_s,
            unbatched.report.makespan_s
        );
    }

    #[test]
    fn batched_and_pruned_serve_is_engine_invariant() {
        let s = suite();
        let t = reuse_trace(&s);
        let serve_with = |workers| {
            Server::new(
                &s,
                ServeConfig {
                    workers,
                    hop_prune: HopPrune::with_threshold(0.5),
                    ..batched_config(4)
                },
            )
            .serve(&t)
        };
        let serial = serve_with(1);
        let parallel = serve_with(0);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
        let p = &serial.report.prune;
        assert!(p.enabled);
        assert!(p.hops_executed > 0);
        assert!(
            serde_json::to_string(&serial.report)
                .unwrap()
                .contains("\"prune\""),
            "enabled pruning must publish its section"
        );
    }

    #[test]
    fn disabled_index_emits_no_key_and_changes_nothing() {
        let s = suite();
        let t = trace(&s, 24);
        let off = Server::new(&s, ServeConfig::default()).serve(&t);
        assert!(!off.report.index.enabled);
        assert_eq!(off.report.index, IndexReport::default());
        assert!(
            !serde_json::to_string(&off.report)
                .unwrap()
                .contains("\"index\""),
            "disabled index emitted a key"
        );
        // An explicit `enabled: false` config is byte-identical to the
        // default: the index is inert until armed.
        let explicit = Server::new(
            &s,
            ServeConfig {
                mem_index: MemIndexConfig {
                    enabled: false,
                    k: 32,
                    nprobe: 4,
                    band: 0.5,
                },
                ..ServeConfig::default()
            },
        )
        .serve(&t);
        assert_eq!(off.completions, explicit.completions);
        assert_eq!(
            serde_json::to_string(&off.report).unwrap(),
            serde_json::to_string(&explicit.report).unwrap()
        );
    }

    #[test]
    fn indexed_serve_is_engine_invariant_and_publishes_counters() {
        let s = suite();
        let t = trace(&s, 32);
        let serve_with = |workers| {
            Server::new(
                &s,
                ServeConfig {
                    workers,
                    mem_index: MemIndexConfig::with_params(4, 2, 0.0),
                    ..ServeConfig::default()
                },
            )
            .serve(&t)
        };
        let serial = serve_with(1);
        let parallel = serve_with(0);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
        let i = &serial.report.index;
        assert!(i.enabled);
        assert_eq!((i.k, i.nprobe), (4, 2));
        assert!(i.build_cycles > 0, "no centroid construction charged");
        assert!(i.scanned_slots > 0);
        assert_eq!(
            i.scanned_slots + i.skipped_slots,
            serial
                .completions
                .iter()
                .map(|c| {
                    let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
                    (sample.sentences.len() * c.run.hops_executed) as u64
                })
                .sum::<u64>(),
            "scanned + skipped must partition story slots x hops"
        );
        assert!(
            serde_json::to_string(&serial.report)
                .unwrap()
                .contains("\"index\""),
            "armed index must publish its section"
        );
        let _ = serial.report.render();
    }

    #[test]
    fn full_fallback_index_matches_unindexed_answers_exactly() {
        let s = suite();
        let t = trace(&s, 24);
        let plain = Server::new(&s, ServeConfig::default()).serve(&t);
        // A huge band forces every hop back to the exact scan: answers,
        // comparisons and the digest are untouched; only timing moves.
        let fb = Server::new(
            &s,
            ServeConfig {
                mem_index: MemIndexConfig::with_params(4, 2, 1e9),
                ..ServeConfig::default()
            },
        )
        .serve(&t);
        assert_eq!(plain.report.answers_digest, fb.report.answers_digest);
        assert_eq!(plain.report.accuracy, fb.report.accuracy);
        let i = &fb.report.index;
        assert!(i.fallbacks > 0);
        assert_eq!(i.skipped_slots, 0, "fallback hops skip nothing");
        assert_eq!(i.cycles_saved, 0);
        for (p, f) in plain.completions.iter().zip(&fb.completions) {
            assert_eq!(p.run.answer, f.run.answer);
            assert_eq!(p.run.comparisons, f.run.comparisons);
        }
    }

    #[test]
    fn aggressive_pruning_prunes_every_unvetoed_completion() {
        let s = suite();
        let t = trace(&s, 24);
        // Attention sums to 1, so a tiny threshold fires on every hop
        // boundary: each completion either prunes or is vetoed.
        let out = Server::new(
            &s,
            ServeConfig {
                hop_prune: HopPrune::with_threshold(0.001),
                ..ServeConfig::default()
            },
        )
        .serve(&t);
        let p = &out.report.prune;
        assert!(p.hops_saved > 0, "aggressive threshold saved nothing");
        assert!(p.cycles_saved > 0 && p.energy_saved_j > 0.0);
        assert_eq!(
            p.pruned_completions + p.vetoes,
            out.report.completed as u64,
            "every completion must prune or veto at threshold 0.001"
        );
        // The render path covers the all-pruned shape without panicking.
        let _ = out.report.render();
    }

    #[test]
    fn single_request_campaign_has_degenerate_percentiles() {
        let s = suite();
        let t = trace(&s, 1);
        let out = Server::new(
            &s,
            ServeConfig {
                hop_prune: HopPrune::with_threshold(0.001),
                ..batched_config(8)
            },
        )
        .serve(&t);
        assert_eq!(out.report.completed, 1);
        let l = &out.report.latency;
        assert_eq!(l.p50_s, l.p99_s);
        assert_eq!(l.p50_s, l.max_s);
        assert!(l.p50_s > 0.0);
        // A lone request forms a group of one: nothing fused, nothing saved.
        assert_eq!(out.report.batch.fused_groups, 0);
        assert_eq!(out.report.batch.cycles_saved, 0);
        let _ = out.report.render();
    }

    /// An arrival goes before every event at its instant: an arrival at
    /// the instant of a compute completion runs first.
    #[test]
    fn an_arrival_runs_before_an_event_at_the_same_instant() {
        let s = suite();
        let server = Server::new(
            &s,
            ServeConfig {
                instances: 1,
                inflight_limit: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        let serve = |arrivals: &[SimTime]| {
            let requests = arrivals
                .iter()
                .enumerate()
                .map(|(id, &arrival)| Request {
                    id: id as u64,
                    task_idx: 0,
                    sample_idx: 0,
                    arrival,
                })
                .collect();
            server.serve(&ArrivalTrace {
                requests,
                config: TraceConfig::default(),
            })
        };
        let alone = serve(&[SimTime::ZERO]).completions[0].timestamps;
        let mid = SimTime::from_ps((alone.compute_start.ps() + alone.compute_end.ps()) / 2);
        // Request 1 arrives during request 0's compute and waits in the
        // queue's one slot until that compute's completion dispatches it.
        let two = serve(&[SimTime::ZERO, mid]);
        let done = two.completions[0].timestamps.compute_end;
        assert_eq!(done, alone.compute_end);
        assert_eq!(two.completions[1].timestamps.dispatch, done);
        // Request 2 arrives at that very instant: it runs before the
        // completion, finds the slot taken, and is rejected.
        let tie = serve(&[SimTime::ZERO, mid, done]);
        let rejected: Vec<u64> = tie.rejections.iter().map(|r| r.request.id).collect();
        assert_eq!(rejected, [2]);
        // One picosecond later the slot is free again.
        let after = serve(&[SimTime::ZERO, mid, done + SimTime::from_ps(1)]);
        assert!(after.rejections.is_empty());
        assert_eq!(after.completions.len(), 3);
    }

    /// Arrivals stream beside the heap, so before the first event the heap
    /// holds only the fault plan, however long the trace.
    #[test]
    fn the_heap_starts_with_only_the_fault_plan() {
        let s = suite();
        let t = trace(&s, 10_000);
        let heap_at_start = |faults: FaultConfig| {
            let server = Server::new(
                &s,
                ServeConfig {
                    faults,
                    ..ServeConfig::default()
                },
            );
            let num = server.numeric_phase(&t);
            let c = server.config();
            let plan = FaultPlan::for_shard(&c.faults, 0, 1, t.span(), c.instances);
            let state = ServeState::new(&server, &t, &num, plan, None, 1);
            let mut events: Vec<(SimTime, &str, usize)> = state
                .heap
                .iter()
                .map(|e| match e.event {
                    Event::Crash(k) => (e.time, "crash", k),
                    Event::Seu(k) => (e.time, "seu", k),
                    _ => panic!("an in-flight event before the loop ran"),
                })
                .collect();
            events.sort_unstable();
            events
        };
        assert!(heap_at_start(FaultConfig::none()).is_empty());
        let faults = FaultConfig {
            seed: 4,
            crashes: 3,
            watchdog_s: 300e-6,
            seus: 5,
            ..FaultConfig::default()
        };
        let instances = ServeConfig::default().instances;
        let plan = FaultPlan::materialize(&faults, t.span(), instances).unwrap();
        let crashes = plan.crash_events().iter().map(|&(at, _)| (at, "crash"));
        let seus = plan.seu_events().iter().map(|&(at, _, _)| (at, "seu"));
        let mut expected: Vec<(SimTime, &str, usize)> = crashes
            .enumerate()
            .chain(seus.enumerate())
            .map(|(k, (at, kind))| (at, kind, k))
            .collect();
        expected.sort_unstable();
        assert_eq!(expected.len(), 8);
        assert_eq!(heap_at_start(faults), expected);
    }

    /// A repeated-story trace costs one story write per distinct story and
    /// one hit and one miss run per distinct query, in both loadouts,
    /// however many requests repeat them. The story table holds each
    /// distinct `(task, digest)` once, with its routing key.
    #[test]
    fn the_numeric_phase_simulates_each_distinct_story_and_query_once() {
        let s = suite();
        let t = trace(&s, 10_000);
        let server = Server::new(
            &s,
            ServeConfig {
                faults: FaultConfig {
                    degrade_depth: 8,
                    ..FaultConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        let queries: HashSet<(usize, usize)> = t
            .requests
            .iter()
            .map(|r| (r.task_idx, r.sample_idx))
            .collect();
        let stories: HashSet<(usize, u64)> = queries
            .iter()
            .map(|&(task, sample)| (task, story_digest(&s.tasks[task].test_set[sample])))
            .collect();
        assert_eq!(queries.len(), 24);
        let num = server.numeric_phase(&t);
        assert_eq!(num.stories.len(), stories.len());
        let table: HashSet<(usize, u64)> = num.stories.iter().map(|s| (s.task, s.digest)).collect();
        assert_eq!(table, stories);
        for (i, r) in t.requests.iter().enumerate() {
            let story = &num.stories[num.story_id(i)];
            let digest = story_digest(server.sample_of(r));
            assert_eq!((story.task, story.digest), (r.task_idx, digest));
            assert_eq!(story.key, request_key(digest, r.task_idx));
            assert_eq!(num.key(i), story.key);
        }
        let degraded = num.degraded.as_ref().expect("degradation is armed");
        for runs in [&num.exact, degraded] {
            assert_eq!(runs.hit.len(), queries.len());
            assert_eq!(runs.miss.len(), queries.len());
        }
    }

    /// With one story slot per instance, admitting a new story evicts the
    /// story last admitted on that instance, and the evict record names
    /// that story's `(digest, task)`.
    #[test]
    fn evict_records_name_the_story_last_admitted_on_the_instance() {
        let s = suite();
        let t = trace(&s, 64);
        let server = Server::new(
            &s,
            ServeConfig {
                story_cache: 1,
                // The pure serve only collects the journal; it writes
                // nothing under the directory.
                wal: WalConfig::parse("unwritten").expect("a bare directory"),
                ..ServeConfig::default()
            },
        );
        let out = server.serve(&t);
        // Without faults an instance admits in dispatch order, and
        // requests dispatched at one instant leave the queue in arrival
        // order.
        let mut admitted: Vec<&Completion> = out.completions.iter().collect();
        admitted.sort_by_key(|c| (c.timestamps.dispatch, c.request.arrival, c.request.id));
        let mut resident: Vec<Option<(u64, u32)>> = vec![None; server.config().instances];
        let mut expected = Vec::new();
        for c in admitted {
            let story = (
                story_digest(server.sample_of(&c.request)),
                c.request.task_idx as u32,
            );
            if let Some(last) = resident[c.instance].replace(story) {
                if last != story {
                    expected.push((c.timestamps.dispatch.ps(), last));
                }
            }
        }
        let mut evicts: Vec<(u64, (u64, u32))> = out
            .wal_records
            .iter()
            .filter(|r| r.kind == mann_store::KIND_EVICT)
            .map(|r| (r.stamp_ps, (r.digest, r.task)))
            .collect();
        expected.sort_unstable();
        evicts.sort_unstable();
        assert!(expected.len() > 8, "{} evictions", expected.len());
        assert_eq!(evicts, expected);
    }

    /// One grant carries `min(upload_batch, inflight_limit)` payloads, so a
    /// link that moves one largest payload inside the clock but not two
    /// rejects the default config and accepts an inflight limit of 1.
    #[test]
    fn a_link_too_slow_for_the_largest_upload_is_rejected() {
        let s = suite();
        let largest = s
            .tasks
            .iter()
            .flat_map(|t| &t.test_set)
            .map(|x| PcieLink::input_bytes(Accelerator::input_words(x)))
            .max()
            .expect("a nonempty suite");
        // One payload takes 10^7 s; the clock ends at 2^64 ps ≈ 1.8·10^7 s.
        let slow = ServeConfig {
            pcie: PcieLink {
                bandwidth_bytes_per_s: largest as f64 / 1e7,
                ..PcieLink::default()
            },
            ..ServeConfig::default()
        };
        assert_eq!((slow.upload_batch, slow.inflight_limit), (4, 2));
        assert!(slow.validate().is_ok());
        let err = slow
            .validate_for(&s)
            .expect_err("two payloads pass the clock");
        assert!(err.contains("link too slow"), "{err}");
        let one = ServeConfig {
            inflight_limit: 1,
            ..slow.clone()
        };
        assert!(one.validate_for(&s).is_ok());
        let panic = std::panic::catch_unwind(|| Server::new(&s, slow)).expect_err("panics");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            msg.starts_with("invalid serve config: link too slow"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid serve config")]
    fn zero_instances_rejected() {
        let s = suite();
        let _ = Server::new(
            &s,
            ServeConfig {
                instances: 0,
                ..ServeConfig::default()
            },
        );
    }
}
