//! The `ServeReport`: everything measured about one served trace, in
//! simulated time, exportable as JSON.

use mann_core::report::{fnum, percent, percentile, TextTable};
use mann_hw::{fnv1a_absorb, PhaseCycles, FNV_OFFSET};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::faults::FaultReport;
use crate::numeric::NumericHealth;
use crate::store::DurabilityReport;

/// An optional report section (fault, numeric, batch, prune, index,
/// durability, membership). A disabled section is absent from both the
/// JSON and the text rendering, so a layer that is off leaves every
/// report byte-identical to one from before the layer existed.
///
/// [`ServeReport`] and [`ClusterReport`](crate::ClusterReport) each list
/// their sections once; serialization and rendering walk that list.
pub trait ReportSection: Serialize {
    /// The section's JSON key.
    fn key(&self) -> &'static str;
    /// Whether the section is published.
    fn enabled(&self) -> bool;
    /// The section as a text table.
    fn render(&self) -> String;
}

/// Appends every enabled section to a report's JSON fields, in list order.
pub(crate) fn push_sections(pairs: &mut Vec<(String, Value)>, sections: &[&dyn ReportSection]) {
    for s in sections.iter().filter(|s| s.enabled()) {
        pairs.push((s.key().into(), s.to_value()));
    }
}

/// Renders every enabled section, in list order, each followed by a blank
/// line.
pub(crate) fn render_sections(out: &mut String, sections: &[&dyn ReportSection]) {
    for s in sections.iter().filter(|s| s.enabled()) {
        out.push_str(&s.render());
        out.push('\n');
    }
}

/// `sum / count`, or 0 when nothing was counted. Merged sections
/// re-weight per-shard means through it: `mean(Σ mean_i · n_i, Σ n_i)`.
pub(crate) fn mean(sum: f64, count: u64) -> f64 {
    if count > 0 {
        sum / count as f64
    } else {
        0.0
    }
}

/// Latency summary over completed requests (simulated seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Mean end-to-end latency.
    pub mean_s: f64,
    /// Nearest-rank 50th percentile.
    pub p50_s: f64,
    /// Nearest-rank 95th percentile.
    pub p95_s: f64,
    /// Nearest-rank 99th percentile.
    pub p99_s: f64,
    /// Worst-case latency.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarizes a set of latencies (need not be sorted).
    pub fn from_latencies(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return Self::default();
        }
        // `total_cmp` instead of `partial_cmp(..).expect(..)`: a NaN
        // latency (impossible today, but this is the report path of last
        // resort) sorts to the end instead of panicking mid-report, and
        // the hardened `percentile` below reads the same sorted view.
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self {
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_s: percentile(&sorted, 50.0),
            p95_s: percentile(&sorted, 95.0),
            p99_s: percentile(&sorted, 99.0),
            max_s: sorted.last().copied().unwrap_or_default(),
        }
    }

    /// Summarizes the union of several shards' raw latency samples — the
    /// only sound way to merge shard summaries into a fleet summary.
    /// Percentiles are not linear: averaging per-shard p99s misstates the
    /// fleet tail whenever load is skewed (a cold shard's cheap p99 dilutes
    /// a hot shard's expensive one), so cluster aggregation must pool the
    /// samples and rank once.
    pub fn from_pooled<'a>(groups: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let pooled: Vec<f64> = groups.into_iter().flatten().copied().collect();
        Self::from_latencies(&pooled)
    }
}

/// Per-instance utilization and energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceReport {
    /// Instance index.
    pub instance: usize,
    /// Requests completed on this instance.
    pub completed: u64,
    /// Requests served from this instance's resident-story cache.
    pub cache_hits: u64,
    /// Total fabric compute time, seconds.
    pub busy_s: f64,
    /// `busy_s / makespan` — fraction of the served interval spent
    /// computing.
    pub occupancy: f64,
    /// Board energy over the served interval at this occupancy (from the
    /// calibrated [`mann_hw::PowerModel`]).
    pub energy_j: f64,
}

/// Aggregate story-cache effectiveness across every instance.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CacheReport {
    /// Resident stories each instance can hold (`--story-cache`;
    /// 0 = caching off).
    pub capacity: usize,
    /// Distinct `(task, story)` pairs in the trace.
    pub unique_stories: usize,
    /// Dispatches that found the story resident on the chosen instance.
    pub hits: u64,
    /// Dispatches that had to upload and write the story.
    pub misses: u64,
    /// Resident stories displaced by capacity pressure.
    pub evictions: u64,
    /// `hits / (hits + misses)`, zero when nothing was dispatched.
    pub hit_rate: f64,
    /// CONTROL + INPUT & WRITE cycles the hits did not re-run.
    pub write_cycles_saved: u64,
    /// Story-payload bytes the hits kept off the shared link.
    pub upload_bytes_saved: u64,
    /// Activity-dependent fabric energy of the skipped write phases,
    /// joules (static/clock power is drawn regardless).
    pub write_energy_saved_j: f64,
}

impl CacheReport {
    /// Folds per-shard sections: counters add and the hit rate is
    /// recomputed over the fleet.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut m = Self::default();
        for p in parts {
            m.capacity = p.capacity;
            m.unique_stories += p.unique_stories;
            m.hits += p.hits;
            m.misses += p.misses;
            m.evictions += p.evictions;
            m.write_cycles_saved += p.write_cycles_saved;
            m.upload_bytes_saved += p.upload_bytes_saved;
            m.write_energy_saved_j += p.write_energy_saved_j;
        }
        m.hit_rate = mean(m.hits as f64, m.hits + m.misses);
        m
    }
}

/// Shared-story compute batching effectiveness: queries queued behind the
/// same resident story drained into one fused compute group, sharing the
/// per-hop story stream and the OUTPUT weight stream.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchReport {
    /// Whether batching was on (`batch_window > 1`); the `batch` key is
    /// absent from JSON when off, keeping seed reports byte-identical.
    pub enabled: bool,
    /// Configured window: max queries fused into one compute group.
    pub window: usize,
    /// Compute groups started (any size; a group of one is a plain
    /// un-fused compute).
    pub groups: u64,
    /// Groups that actually fused two or more queries.
    pub fused_groups: u64,
    /// Requests that computed inside a fused group.
    pub batched_requests: u64,
    /// Group-size histogram: entry `k` counts groups of size `k + 1`.
    pub size_histogram: Vec<u64>,
    /// Story/OUTPUT stream cycles the fused groups shared instead of
    /// re-spending.
    pub cycles_saved: u64,
    /// Activity-dependent fabric energy of those cycles, joules.
    pub energy_saved_j: f64,
}

impl BatchReport {
    /// Folds per-shard sections: every shard runs the same window, and
    /// the enabled ones' counters and histograms add element-wise.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut m = Self::default();
        for p in parts {
            (m.enabled, m.window) = (p.enabled, p.window);
            if !p.enabled {
                continue;
            }
            m.groups += p.groups;
            m.fused_groups += p.fused_groups;
            m.batched_requests += p.batched_requests;
            if m.size_histogram.len() < p.size_histogram.len() {
                m.size_histogram.resize(p.size_histogram.len(), 0);
            }
            for (acc, &v) in m.size_histogram.iter_mut().zip(&p.size_histogram) {
                *acc += v;
            }
            m.cycles_saved += p.cycles_saved;
            m.energy_saved_j += p.energy_saved_j;
        }
        m
    }
}

impl ReportSection for BatchReport {
    fn key(&self) -> &'static str {
        "batch"
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn render(&self) -> String {
        let mut t = TextTable::new(vec!["batch metric".into(), "value".into()]);
        t.row(vec!["window".into(), self.window.to_string()]);
        t.row(vec![
            "groups (fused)".into(),
            format!("{} ({})", self.groups, self.fused_groups),
        ]);
        t.row(vec![
            "batched requests".into(),
            self.batched_requests.to_string(),
        ]);
        let hist = self
            .size_histogram
            .iter()
            .enumerate()
            .map(|(k, n)| format!("{}x{n}", k + 1))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            "size histogram".into(),
            if hist.is_empty() { "-".into() } else { hist },
        ]);
        t.row(vec![
            "stream cycles saved".into(),
            format!("{} ({} J)", self.cycles_saved, fnum(self.energy_saved_j, 3)),
        ]);
        t.render()
    }
}

/// Adaptive hop-pruning effectiveness over the completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HopPruneReport {
    /// Whether pruning was on; the `prune` key is absent from JSON when
    /// off, keeping seed reports byte-identical.
    pub enabled: bool,
    /// Convergence threshold on the maximum attention weight.
    pub threshold: f32,
    /// Completions that exited the hop schedule early.
    pub pruned_completions: u64,
    /// MEM/READ hops executed, summed over completions.
    pub hops_executed: u64,
    /// Hops skipped, summed over completions.
    pub hops_saved: u64,
    /// Prunes vetoed by the winning weight's saturation flag.
    pub vetoes: u64,
    /// Addressing + read + controller cycles the skipped hops never spent.
    pub cycles_saved: u64,
    /// Activity-dependent fabric energy of those cycles, joules.
    pub energy_saved_j: f64,
}

impl HopPruneReport {
    /// Folds per-shard sections: every shard runs the same threshold, and
    /// the enabled ones' counters add.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut m = Self::default();
        for p in parts {
            (m.enabled, m.threshold) = (p.enabled, p.threshold);
            if !p.enabled {
                continue;
            }
            m.pruned_completions += p.pruned_completions;
            m.hops_executed += p.hops_executed;
            m.hops_saved += p.hops_saved;
            m.vetoes += p.vetoes;
            m.cycles_saved += p.cycles_saved;
            m.energy_saved_j += p.energy_saved_j;
        }
        m
    }
}

impl ReportSection for HopPruneReport {
    fn key(&self) -> &'static str {
        "prune"
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn render(&self) -> String {
        let mut t = TextTable::new(vec!["prune metric".into(), "value".into()]);
        t.row(vec!["threshold".into(), self.threshold.to_string()]);
        t.row(vec![
            "pruned completions".into(),
            self.pruned_completions.to_string(),
        ]);
        t.row(vec![
            "hops executed / saved".into(),
            format!("{} / {}", self.hops_executed, self.hops_saved),
        ]);
        t.row(vec!["saturation vetoes".into(), self.vetoes.to_string()]);
        t.row(vec![
            "hop cycles saved".into(),
            format!("{} ({} J)", self.cycles_saved, fnum(self.energy_saved_j, 3)),
        ]);
        t.render()
    }
}

/// Candidate-index effectiveness over the completed requests: how many
/// memory slots the IVF index let the MEM module skip, and what the
/// probe/fallback machinery cost.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IndexReport {
    /// Whether the index was armed; the `index` key is absent from JSON
    /// when off, keeping seed reports byte-identical.
    pub enabled: bool,
    /// Configured centroid count (clamped to the story length at build).
    pub k: usize,
    /// Centroid lists probed per hop.
    pub nprobe: usize,
    /// Fallback margin: a hop rescans exactly when the best candidate
    /// score is within `band` of the worst retained one.
    pub band: f32,
    /// Memory slots exact-scored inside candidate lists (fallback hops
    /// count the full story length).
    pub scanned_slots: u64,
    /// Memory slots the index let the addressing pass skip.
    pub skipped_slots: u64,
    /// Hops that fell back to a full exact scan.
    pub fallbacks: u64,
    /// Centroid-construction cycles charged to the story-upload phase.
    pub build_cycles: u64,
    /// Addressing cycles the surviving candidate scans avoided versus the
    /// exact pass, net of probe overhead.
    pub cycles_saved: u64,
    /// Activity-dependent fabric energy of those cycles, joules.
    pub energy_saved_j: f64,
}

impl IndexReport {
    /// Folds per-shard sections: the enabled ones carry the (shared)
    /// index configuration, and their counters add.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut m = Self::default();
        for p in parts.into_iter().filter(|p| p.enabled) {
            (m.enabled, m.k, m.nprobe, m.band) = (true, p.k, p.nprobe, p.band);
            m.scanned_slots += p.scanned_slots;
            m.skipped_slots += p.skipped_slots;
            m.fallbacks += p.fallbacks;
            m.build_cycles += p.build_cycles;
            m.cycles_saved += p.cycles_saved;
            m.energy_saved_j += p.energy_saved_j;
        }
        m
    }
}

impl ReportSection for IndexReport {
    fn key(&self) -> &'static str {
        "index"
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn render(&self) -> String {
        let mut t = TextTable::new(vec!["index metric".into(), "value".into()]);
        t.row(vec![
            "config (k,nprobe,band)".into(),
            format!("{},{},{}", self.k, self.nprobe, self.band),
        ]);
        t.row(vec![
            "slots scanned / skipped".into(),
            format!("{} / {}", self.scanned_slots, self.skipped_slots),
        ]);
        t.row(vec!["fallback scans".into(), self.fallbacks.to_string()]);
        t.row(vec!["build cycles".into(), self.build_cycles.to_string()]);
        t.row(vec![
            "addressing cycles saved".into(),
            format!("{} ({} J)", self.cycles_saved, fnum(self.energy_saved_j, 3)),
        ]);
        t.render()
    }
}

/// Shared host-link utilization.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkReport {
    /// DMA grants issued (uploads + drains).
    pub grants: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Time the link spent transferring, seconds.
    pub busy_s: f64,
    /// `busy_s / makespan`.
    pub utilization: f64,
}

/// Aggregate report of one served trace.
///
/// Serialization is hand-written (not derived) for one reason: each
/// optional [`ReportSection`] is emitted only when enabled, so a report
/// with a layer off stays byte-identical to reports from before that
/// layer existed (the golden suite pins this).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests rejected by the bounded queue (backpressure accounting).
    pub rejected: usize,
    /// Fraction of completed requests answered correctly.
    pub accuracy: f64,
    /// First arrival to last drain, seconds.
    pub makespan_s: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// End-to-end latency distribution.
    pub latency: LatencySummary,
    /// Mean time spent in the host queue, seconds.
    pub mean_queue_wait_s: f64,
    /// High-water mark of the host queue.
    pub max_queue_depth: usize,
    /// Per-instance utilization, in index order.
    pub instances: Vec<InstanceReport>,
    /// Shared-link utilization.
    pub link: LinkReport,
    /// Story-cache effectiveness (zeros when caching is off).
    pub cache: CacheReport,
    /// Compute cycles summed over completions, by pipeline phase — the
    /// ITH-under-load tests read the output phase here.
    pub phase_totals: PhaseCycles,
    /// Completions that exited the output search early (ITH).
    pub speculated: usize,
    /// Sum of per-instance energies, joules.
    pub total_energy_j: f64,
    /// One-time model-upload cost paid before serving, seconds.
    pub setup_s: f64,
    /// FNV-1a digest over `(id, answer)` of completions in id order.
    /// Invariant across instance counts and scheduler policies — the
    /// serving layer never changes an answer.
    pub answers_digest: String,
    /// Fault-campaign summary; `fault.enabled == false` (and the key
    /// absent from JSON) when no faults were injected.
    pub fault: FaultReport,
    /// Numeric-health summary; `numeric.enabled == false` (and the key
    /// absent from JSON) under the default ignore policy.
    pub numeric: NumericHealth,
    /// Shared-story batching summary; `batch.enabled == false` (and the
    /// key absent from JSON) when `batch_window <= 1`.
    pub batch: BatchReport,
    /// Hop-pruning summary; `prune.enabled == false` (and the key absent
    /// from JSON) when pruning is off.
    pub prune: HopPruneReport,
    /// Candidate-index summary; `index.enabled == false` (and the key
    /// absent from JSON) when the index is off.
    pub index: IndexReport,
    /// Durable-store summary; `durability.enabled == false` (and the key
    /// absent from JSON) when the write-ahead log is off.
    pub durability: DurabilityReport,
    /// Whether this serve was cut short by a membership fail-stop; the
    /// key is absent from JSON when false, so every pre-membership report
    /// stays byte-identical.
    pub fail_stopped: bool,
}

impl Serialize for ServeReport {
    fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![
            ("requests".into(), self.requests.to_value()),
            ("completed".into(), self.completed.to_value()),
            ("rejected".into(), self.rejected.to_value()),
            ("accuracy".into(), self.accuracy.to_value()),
            ("makespan_s".into(), self.makespan_s.to_value()),
            ("throughput_rps".into(), self.throughput_rps.to_value()),
            ("latency".into(), self.latency.to_value()),
            (
                "mean_queue_wait_s".into(),
                self.mean_queue_wait_s.to_value(),
            ),
            ("max_queue_depth".into(), self.max_queue_depth.to_value()),
            ("instances".into(), self.instances.to_value()),
            ("link".into(), self.link.to_value()),
            ("cache".into(), self.cache.to_value()),
            ("phase_totals".into(), self.phase_totals.to_value()),
            ("speculated".into(), self.speculated.to_value()),
            ("total_energy_j".into(), self.total_energy_j.to_value()),
            ("setup_s".into(), self.setup_s.to_value()),
            ("answers_digest".into(), self.answers_digest.to_value()),
        ];
        push_sections(&mut pairs, &self.sections());
        if self.fail_stopped {
            pairs.push(("fail_stopped".into(), self.fail_stopped.to_value()));
        }
        Value::Object(pairs)
    }
}

impl ServeReport {
    /// The optional sections, in JSON and render order.
    fn sections(&self) -> [&dyn ReportSection; 6] {
        [
            &self.fault,
            &self.numeric,
            &self.batch,
            &self.prune,
            &self.index,
            &self.durability,
        ]
    }

    /// Sum of per-instance busy seconds.
    pub fn total_busy_s(&self) -> f64 {
        self.instances.iter().map(|i| i.busy_s).sum()
    }

    /// A copy with the durability section reset to the disabled default:
    /// with the WAL on (even across a kill-and-recover), everything else
    /// must be byte-identical to the same serve without a WAL — the
    /// journaling layer may observe a serve, never change it.
    #[must_use]
    pub fn sans_durability(&self) -> Self {
        let mut r = self.clone();
        r.durability = DurabilityReport::default();
        r
    }

    /// Renders the report as text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = TextTable::new(vec!["metric".into(), "value".into()]);
        t.row(vec!["requests".into(), self.requests.to_string()]);
        t.row(vec!["completed".into(), self.completed.to_string()]);
        t.row(vec!["rejected".into(), self.rejected.to_string()]);
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
            "latency p50/p95/p99".into(),
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
            "max queue depth".into(),
            self.max_queue_depth.to_string(),
        ]);
        t.row(vec![
            "link utilization".into(),
            format!(
                "{} ({} grants)",
                percent(self.link.utilization),
                self.link.grants
            ),
        ]);
        t.row(vec![
            "cache hits".into(),
            format!(
                "{} / {} ({}), {} stories, cap {}",
                self.cache.hits,
                self.cache.hits + self.cache.misses,
                percent(self.cache.hit_rate),
                self.cache.unique_stories,
                self.cache.capacity
            ),
        ]);
        t.row(vec![
            "cache savings".into(),
            format!(
                "{} write cycles, {} B upload, {} J",
                self.cache.write_cycles_saved,
                self.cache.upload_bytes_saved,
                fnum(self.cache.write_energy_saved_j, 3)
            ),
        ]);
        t.row(vec!["early exits".into(), self.speculated.to_string()]);
        t.row(vec![
            "energy".into(),
            format!("{} J", fnum(self.total_energy_j, 3)),
        ]);
        t.row(vec![
            "setup (model upload)".into(),
            format!("{} ms", fnum(self.setup_s * 1e3, 3)),
        ]);
        if self.fail_stopped {
            t.row(vec!["fail-stopped".into(), "yes".into()]);
        }
        t.row(vec!["answers digest".into(), self.answers_digest.clone()]);
        out.push_str(&t.render());
        out.push('\n');
        render_sections(&mut out, &self.sections());
        let mut inst = TextTable::new(vec![
            "instance".into(),
            "completed".into(),
            "cache hits".into(),
            "busy (ms)".into(),
            "occupancy".into(),
            "energy (J)".into(),
        ]);
        for i in &self.instances {
            inst.row(vec![
                i.instance.to_string(),
                i.completed.to_string(),
                i.cache_hits.to_string(),
                fnum(i.busy_s * 1e3, 3),
                percent(i.occupancy),
                fnum(i.energy_j, 3),
            ]);
        }
        out.push_str(&inst.render());
        out
    }
}

/// FNV-1a digest over the 8 little-endian bytes of each id and answer of
/// `(id, answer)` pairs; see [`ServeReport::answers_digest`].
pub fn answers_digest(pairs: impl IntoIterator<Item = (u64, usize)>) -> String {
    let hash = pairs.into_iter().fold(FNV_OFFSET, |hash, (id, answer)| {
        fnv1a_absorb(fnv1a_absorb(hash, id), answer as u64)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_orders_percentiles() {
        let lat: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = LatencySummary::from_latencies(&lat);
        assert!(s.p50_s <= s.p95_s && s.p95_s <= s.p99_s && s.p99_s <= s.max_s);
        assert_eq!(s.p50_s, 100.0);
        assert_eq!(s.p95_s, 190.0);
        assert_eq!(s.p99_s, 198.0);
        assert_eq!(s.max_s, 200.0);
        assert_eq!(
            LatencySummary::from_latencies(&[]),
            LatencySummary::default()
        );
    }

    #[test]
    fn pooled_p99_is_not_the_mean_of_shard_p99s() {
        // Skewed two-shard campaign: shard A is uniformly fast; shard B
        // hides a heavy tail. Nearest-rank p99 per shard: A = 1 ms,
        // B = 100 ms, so the (wrong) mean-of-p99s merge reports 50.5 ms.
        let a: Vec<f64> = vec![1e-3; 100];
        let mut b: Vec<f64> = vec![1e-3; 90];
        b.extend(std::iter::repeat_n(100e-3, 10));
        let pa = LatencySummary::from_latencies(&a);
        let pb = LatencySummary::from_latencies(&b);
        assert_eq!(pa.p99_s, 1e-3);
        assert_eq!(pb.p99_s, 100e-3);
        let mean_of_p99s = (pa.p99_s + pb.p99_s) / 2.0;
        // The pooled rank sees 10 slow samples out of 200 — the fleet p99
        // *is* the tail value, nowhere near the averaged summaries.
        let pooled = LatencySummary::from_pooled([a.as_slice(), b.as_slice()]);
        assert_eq!(pooled.p99_s, 100e-3);
        assert!((pooled.p99_s - mean_of_p99s).abs() > 40e-3);
        // Pooling is also insensitive to shard order and matches a flat
        // concatenation summarized directly.
        let mut flat = a.clone();
        flat.extend_from_slice(&b);
        assert_eq!(pooled, LatencySummary::from_latencies(&flat));
        assert_eq!(pooled, LatencySummary::from_pooled([b.as_slice(), &a]));
    }

    #[test]
    fn batch_report_renders_every_counter() {
        let b = BatchReport {
            enabled: true,
            window: 4,
            groups: 9,
            fused_groups: 3,
            batched_requests: 8,
            size_histogram: vec![6, 1, 2],
            cycles_saved: 1234,
            energy_saved_j: 0.5,
        };
        let r = b.render();
        for needle in ["4", "9 (3)", "8", "1x6 2x1 3x2", "1234"] {
            assert!(r.contains(needle), "missing {needle:?} in:\n{r}");
        }
        // An idle report renders a placeholder histogram, not a panic.
        assert!(BatchReport::default().render().contains('-'));
    }

    #[test]
    fn prune_report_renders_every_counter() {
        let p = HopPruneReport {
            enabled: true,
            threshold: 0.85,
            pruned_completions: 5,
            hops_executed: 40,
            hops_saved: 7,
            vetoes: 2,
            cycles_saved: 999,
            energy_saved_j: 0.25,
        };
        let r = p.render();
        for needle in ["0.85", "5", "40 / 7", "2", "999"] {
            assert!(r.contains(needle), "missing {needle:?} in:\n{r}");
        }
    }

    #[test]
    fn index_report_renders_every_counter() {
        let i = IndexReport {
            enabled: true,
            k: 64,
            nprobe: 8,
            band: 0.25,
            scanned_slots: 4200,
            skipped_slots: 8400,
            fallbacks: 3,
            build_cycles: 512,
            cycles_saved: 777,
            energy_saved_j: 0.125,
        };
        let r = i.render();
        for needle in ["64,8,0.25", "4200 / 8400", "3", "512", "777"] {
            assert!(r.contains(needle), "missing {needle:?} in:\n{r}");
        }
    }

    #[test]
    fn index_report_round_trips_through_json() {
        let i = IndexReport {
            enabled: true,
            k: 16,
            nprobe: 4,
            band: 0.5,
            scanned_slots: 10,
            skipped_slots: 20,
            fallbacks: 1,
            build_cycles: 99,
            cycles_saved: 42,
            energy_saved_j: 0.01,
        };
        let i2 = IndexReport::from_value(&i.to_value()).unwrap();
        assert_eq!(i, i2);
    }

    #[test]
    fn batch_and_prune_reports_round_trip_through_json() {
        let b = BatchReport {
            enabled: true,
            window: 3,
            groups: 2,
            fused_groups: 1,
            batched_requests: 3,
            size_histogram: vec![1, 0, 1],
            cycles_saved: 77,
            energy_saved_j: 1.5,
        };
        let p = HopPruneReport {
            enabled: true,
            threshold: 0.9,
            pruned_completions: 1,
            hops_executed: 3,
            hops_saved: 1,
            vetoes: 0,
            cycles_saved: 10,
            energy_saved_j: 0.1,
        };
        let b2 = BatchReport::from_value(&b.to_value()).unwrap();
        let p2 = HopPruneReport::from_value(&p.to_value()).unwrap();
        assert_eq!(b, b2);
        assert_eq!(p, p2);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = answers_digest([(0, 3), (1, 7)]);
        let b = answers_digest([(0, 3), (1, 7)]);
        let c = answers_digest([(1, 7), (0, 3)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    /// The byte-wise FNV-1a loop over the pairs: the oracle of the folded
    /// digest.
    fn answers_digest_bytewise(pairs: &[(u64, usize)]) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut absorb = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &(id, answer) in pairs {
            absorb(id);
            absorb(answer as u64);
        }
        format!("{hash:016x}")
    }

    #[test]
    fn folded_answers_digest_is_the_bytewise_loop() {
        // A change to these values moves every report's answers digest.
        let wide = [(0, usize::MAX), (255, 0), (1 << 40, 1 << 20), (u64::MAX, 9)];
        let served: Vec<(u64, usize)> = (0..1000).map(|i| (i, (i as usize * 7) % 23)).collect();
        for (pairs, want) in [
            (&[][..], "cbf29ce484222325"),
            (&[(0, 3), (1, 7)][..], "a94c5e3cd17ef160"),
            (&wide[..], "90a8899d0d02873c"),
            (&served[..], "d8fce537fbb2fdd9"),
        ] {
            assert_eq!(answers_digest(pairs.iter().copied()), want);
            assert_eq!(answers_digest_bytewise(pairs), want);
        }
        // Ids and answers of every byte width.
        let pairs: Vec<(u64, usize)> = (0..1000u64)
            .map(|i| (i << (i % 57), ((i as usize * 7) % 23) << (i % 41)))
            .collect();
        assert_eq!(
            answers_digest(pairs.iter().copied()),
            answers_digest_bytewise(&pairs)
        );
    }
}
