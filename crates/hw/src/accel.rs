//! The assembled accelerator (Fig 1) and its per-inference accounting.
//!
//! Inference is split into its two natural phases: [`Accelerator::write_story`]
//! streams a story through CONTROL and INPUT & WRITE into the MEM module's
//! address/content memories, producing a [`ResidentStory`]; and
//! [`Accelerator::answer_query`] runs the recurrent read and output search
//! against a resident story, one question at a time, as the paper's
//! streaming dataflow does. [`Accelerator::run`] composes the two — one
//! upload, one write, one query — and is cycle-for-cycle identical to the
//! pre-split monolithic pipeline; [`Accelerator::compose_uncached`]
//! rebuilds that run from the two phases. Which stories stay resident is
//! the serving layer's decision (an [`LruSet`](crate::LruSet) per
//! instance): a resident story skips the INPUT & WRITE cycles and the PCIe
//! story upload entirely, paying only the question stream.

use mann_babi::EncodedSample;
use mann_ith::{ExitGuard, HopPrune, ThresholdingModel};
use mann_linalg::{Fixed, NumericStatus};
use memn2n::flops::{count_inference_with_output_rows, FlopBreakdown};
use memn2n::TrainedModel;
use serde::{Deserialize, Serialize};

use crate::index::{IndexCounters, MemIndexConfig};
use crate::modules::{attention_peak, InputWriteModule, MemModule, OutputModule, ReadModule};
use crate::quantize::quantize_params_tracked;
use crate::trace::SignalTrace;
use crate::{ClockDomain, Cycles, DatapathConfig, PcieLink, PowerModel};

/// Accelerator configuration: operating point, datapath, interface, power
/// model, and optional inference thresholding.
#[derive(Debug, Clone, Default)]
pub struct AccelConfig {
    /// Fabric clock (the paper sweeps 25/50/75/100 MHz).
    pub clock: ClockDomain,
    /// Structural datapath parameters.
    pub datapath: DatapathConfig,
    /// Host interface model.
    pub pcie: PcieLink,
    /// Power model.
    pub power: PowerModel,
    /// Calibrated thresholding model; `None` runs the conventional search.
    pub ith: Option<ThresholdingModel>,
    /// Whether thresholding probes in silhouette order (Step 3).
    pub use_ordering: bool,
    /// Saturation guard over ITH early exits (enabled, zero band by
    /// default; invisible on flag-free inferences).
    pub guard: ExitGuard,
    /// Adaptive hop pruning: skip the remaining MEM/READ hops once a hop's
    /// attention has converged (off by default — the exact seed datapath).
    pub hop_prune: HopPrune,
    /// Candidate-generation index in front of MEM: sub-linear content-based
    /// addressing over large stories (off by default — the exact O(L) scan).
    pub mem_index: MemIndexConfig,
}

impl AccelConfig {
    /// Convenience: the paper's full method (ITH + ordering) at `clock`.
    pub fn with_thresholding(clock: ClockDomain, ith: ThresholdingModel) -> Self {
        Self {
            clock,
            ith: Some(ith),
            use_ordering: true,
            ..Self::default()
        }
    }
}

/// Compute cycles per pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseCycles {
    /// Host stream decode (CONTROL).
    pub control: Cycles,
    /// Sentence + question embedding and memory writes (INPUT & WRITE).
    pub write: Cycles,
    /// Content-based addressing over all hops (MEM).
    pub addressing: Cycles,
    /// Soft reads over all hops (MEM).
    pub read: Cycles,
    /// Controller steps over all hops (READ).
    pub controller: Cycles,
    /// Output-layer search (OUTPUT).
    pub output: Cycles,
}

impl PhaseCycles {
    /// Total compute cycles.
    pub fn total(&self) -> Cycles {
        self.control + self.write + self.addressing + self.read + self.controller + self.output
    }
}

impl std::ops::Add for PhaseCycles {
    type Output = PhaseCycles;
    fn add(self, rhs: PhaseCycles) -> PhaseCycles {
        PhaseCycles {
            control: self.control + rhs.control,
            write: self.write + rhs.write,
            addressing: self.addressing + rhs.addressing,
            read: self.read + rhs.read,
            controller: self.controller + rhs.controller,
            output: self.output + rhs.output,
        }
    }
}

impl std::ops::AddAssign for PhaseCycles {
    fn add_assign(&mut self, rhs: PhaseCycles) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for PhaseCycles {
    fn sum<I: Iterator<Item = PhaseCycles>>(iter: I) -> PhaseCycles {
        iter.fold(PhaseCycles::default(), |a, b| a + b)
    }
}

/// Per-module numeric-event registers for one inference — the software
/// mirror of a hardware status register bank: each module accumulates a
/// sticky [`NumericStatus`], latched into the run when the answer drains.
///
/// Counters are pure functions of the inputs: the same model, story and
/// question produce byte-identical reports on every engine, thread count
/// and cache path (hit-form runs always fold the resident story's write
/// events back in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NumericReport {
    /// Model-load boundary: weights clipped (or non-finite) while being
    /// quantized into the BRAMs. Identical for every inference on one
    /// loaded model.
    pub load: NumericStatus,
    /// INPUT & WRITE: sentence + question embedding accumulators.
    pub write: NumericStatus,
    /// MEM: addressing MACs, score subtractor, exp/divider units, soft read.
    pub mem: NumericStatus,
    /// READ: controller matvecs and gate combines.
    pub controller: NumericStatus,
    /// OUTPUT: logit dot products.
    pub output: NumericStatus,
}

impl NumericReport {
    /// All per-module registers merged into one status word.
    pub fn total(&self) -> NumericStatus {
        self.load
            .merged(&self.write)
            .merged(&self.mem)
            .merged(&self.controller)
            .merged(&self.output)
    }

    /// Whether any module recorded any event.
    pub fn stressed(&self) -> bool {
        self.total().stressed()
    }
}

/// Everything measured about one inference on the accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceRun {
    /// Predicted class.
    pub answer: usize,
    /// Whether a threshold fired (early exit).
    pub speculated: bool,
    /// Output rows evaluated.
    pub comparisons: usize,
    /// Per-phase compute cycles.
    pub phases: PhaseCycles,
    /// Total compute cycles.
    pub cycles: Cycles,
    /// Fabric compute time, seconds.
    pub compute_s: f64,
    /// Host-interface time, seconds.
    pub interface_s: f64,
    /// End-to-end latency, seconds.
    pub total_s: f64,
    /// FLOPs the inference represents (for FLOPS/kJ). Cache hits keep the
    /// full count — the cache changes where the story resides, not what
    /// the inference logically computes.
    pub flops: FlopBreakdown,
    /// Whether the story was already resident (CONTROL/WRITE cycles and
    /// `interface_s` then cover only the question stream).
    pub cache_hit: bool,
    /// ITH early exits vetoed by the saturation guard.
    pub vetoes: usize,
    /// MEM/READ hops actually executed (`<=` the configured hop count).
    pub hops_executed: usize,
    /// Hops skipped because the attention converged ([`HopPrune`]); their
    /// MEM/READ cycles were never spent.
    pub hops_saved: usize,
    /// Hop prunes vetoed because the winning attention weight was computed
    /// through flagged (saturated) arithmetic.
    pub prune_vetoes: usize,
    /// Story-stream cycles one hop spends fetching the resident address and
    /// content rows — what each additional query fused into a shared-story
    /// batch saves per common hop.
    pub mem_stream_per_hop: u64,
    /// OUTPUT weight-stream cycles of this run's search, shareable across a
    /// fused batch. Zero under inference thresholding, where per-query
    /// early exits make the stream query-dependent.
    pub out_stream_cycles: u64,
    /// Per-module numeric-event registers.
    pub numeric: NumericReport,
    /// Candidate-index accounting: slots scanned vs skipped, fallback
    /// rescans, build cost and addressing cycles saved. All-zero when
    /// `mem_index` is off.
    pub index: IndexCounters,
}

impl InferenceRun {
    /// Fraction of the end-to-end latency spent computing (drives the
    /// activity-dependent part of the power model).
    pub fn busy_fraction(&self) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            (self.compute_s / self.total_s).clamp(0.0, 1.0)
        }
    }

    /// Simulated duration of the compute phase in `clock`'s domain —
    /// the serving scheduler's per-request service time.
    pub fn compute_time(&self, clock: ClockDomain) -> crate::clock::SimTime {
        clock.sim_time(self.cycles)
    }
}

/// A story made resident in the MEM module's address/content memories:
/// the populated memory plus the CONTROL and INPUT & WRITE cycles that
/// were spent making it resident (what a cache hit saves).
#[derive(Debug, Clone)]
pub struct ResidentStory {
    mem: MemModule,
    phases: PhaseCycles,
    story_words: usize,
    numeric: NumericStatus,
    index_build: Cycles,
}

impl ResidentStory {
    /// CONTROL + INPUT & WRITE cycles spent writing the story.
    pub fn phases(&self) -> PhaseCycles {
        self.phases
    }

    /// Story words of the host stream (what a hit keeps off the link).
    pub fn story_words(&self) -> usize {
        self.story_words
    }

    /// Occupied memory slots `L`.
    pub fn sentences(&self) -> usize {
        self.mem.len()
    }

    /// Numeric events recorded while embedding and writing the story.
    pub fn numeric(&self) -> NumericStatus {
        self.numeric
    }

    /// Cycles the candidate-index build added to the write phase (zero when
    /// `mem_index` is off).
    pub fn index_build_cycles(&self) -> Cycles {
        self.index_build
    }

    /// The quantized Q16.16 rows of the resident address/content memories
    /// (address rows then content rows, row-major) — the payload a
    /// write-ahead log persists for this story.
    pub fn quantized_rows(&self) -> Vec<i32> {
        self.mem.raw_words()
    }
}

/// The assembled Fig 1 pipeline for one trained model.
#[derive(Debug, Clone)]
pub struct Accelerator {
    model: TrainedModel,
    input_write: InputWriteModule,
    read: ReadModule,
    output: OutputModule,
    /// Empty MEM module cloned per story: the exp LUT and divider setup are
    /// built once at load time, not per inference, and every clone shares
    /// the one LUT.
    mem_proto: MemModule,
    config: AccelConfig,
    hops: usize,
    embed_dim: usize,
    /// Numeric events latched while quantizing the model into the BRAMs —
    /// replayed into every run's `load` register.
    load_status: NumericStatus,
}

impl Accelerator {
    /// Loads `model` into the accelerator: weights are quantized onto the
    /// fixed-point datapath and distributed to the modules' BRAMs.
    ///
    /// # Panics
    ///
    /// Panics if the datapath config is invalid or the thresholding model
    /// does not match the model's class count.
    pub fn new(model: TrainedModel, config: AccelConfig) -> Self {
        config.datapath.validate().expect("valid datapath");
        let mut load_status = NumericStatus::default();
        let q = quantize_params_tracked(&model.params, config.datapath.frac_bits, &mut load_status);
        // The module constructors below re-quantize already-quantized
        // weights into their BRAM words — the load register counts each
        // clip once, at the quantization boundary above. A weight the
        // re-quantization clips again (the positive rail) is charged per
        // access, as a per-access datapath would: the READ and OUTPUT
        // stores replay it into the controller and output registers.
        let input_write = InputWriteModule::new(q.w_emb_a.clone(), q.content_embedding().clone());
        let read = match &q.gru {
            Some(gru) => ReadModule::new_gru(gru.clone(), &config.datapath),
            None => ReadModule::new(q.w_r.clone(), &config.datapath),
        };
        let mut output =
            OutputModule::new(q.w_o.clone(), &config.datapath).with_guard(config.guard);
        if let Some(ith) = &config.ith {
            output = output.with_thresholding(ith, config.use_ordering);
        }
        let hops = model.params.config.hops;
        let embed_dim = model.params.config.embed_dim;
        let mem_proto = MemModule::new(embed_dim, &config.datapath);
        Self {
            model,
            input_write,
            read,
            output,
            mem_proto,
            config,
            hops,
            embed_dim,
            load_status,
        }
    }

    /// The loaded model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The active configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Size of the trained model in bytes (for the one-time PCIe upload).
    pub fn model_bytes(&self) -> u64 {
        4 * self.model.params.parameter_count() as u64
    }

    /// Words of the host input stream for `sample` (story + question) —
    /// what the serving layer ships over the shared link per request.
    pub fn input_words(sample: &EncodedSample) -> usize {
        sample.story_words() + sample.question.len()
    }

    /// Words of the host input stream for a repeat query against a resident
    /// story: only the question crosses the link.
    pub fn query_words(sample: &EncodedSample) -> usize {
        sample.question.len()
    }

    /// Streams `sample`'s story into fresh address/content memories:
    /// CONTROL decodes `BEGIN_STORY` + one `SENTENCE` header + payload per
    /// sentence (one cycle per stream word), and INPUT & WRITE embeds each
    /// sentence into a memory row.
    pub fn write_story(&self, sample: &EncodedSample) -> ResidentStory {
        let mut mem = self.mem_proto.clone();
        mem.reserve(sample.sentences.len());
        let mut phases = PhaseCycles::default();
        let mut numeric = NumericStatus::default();
        for sent in &sample.sentences {
            // The sentence sums accumulate in the memory's next slot.
            phases.write += mem.write_embedded_tracked(&mut numeric, |a, c, st| {
                self.input_write.embed_sentence_tracked(sent, a, c, st)
            });
        }
        // With `--mem-index` armed the write path clusters the freshly
        // written address rows into the candidate index; the build rides
        // the INPUT & WRITE phase (a story-upload cost the cache amortizes
        // exactly like the embedding work).
        let mut index_build = Cycles::ZERO;
        if self.config.mem_index.enabled {
            index_build = mem.build_index(self.config.mem_index, &mut numeric);
            phases.write += index_build;
        }
        let story_words = sample.story_words();
        // One CONTROL cycle per story stream word: BEGIN_STORY, a SENTENCE
        // header per sentence, and the word payloads (the stream layout of
        // `modules::encode_sample_stream`, accounted analytically).
        phases.control = Cycles::new(1 + sample.sentences.len() as u64 + story_words as u64);
        ResidentStory {
            mem,
            phases,
            story_words,
            numeric,
            index_build,
        }
    }

    /// Answers `sample`'s question against an already-resident story: the
    /// QUESTION/RUN_INFERENCE control words, the question embedding, the
    /// recurrent read path and the output search — no INPUT & WRITE cycles
    /// and no story upload. `interface_s` covers the question stream plus
    /// the answer drain only, and `cache_hit` is set.
    pub fn answer_query(&self, story: &ResidentStory, sample: &EncodedSample) -> InferenceRun {
        self.query_traced(story, sample, None, false)
    }

    /// Runs one inference, returning full timing/energy accounting.
    pub fn run(&self, sample: &EncodedSample) -> InferenceRun {
        self.run_traced(sample, None)
    }

    /// Runs one inference while recording phase signals into `trace`.
    pub fn run_with_trace(&self, sample: &EncodedSample, trace: &mut SignalTrace) -> InferenceRun {
        self.run_traced(sample, Some(trace))
    }

    /// Rebuilds the uncached (miss) accounting from a resident story and
    /// its hit-form query run: the result equals [`Accelerator::run`] on
    /// the same sample, without re-simulating either phase. The serving
    /// layer uses this to materialize per-request runs after deciding
    /// hit/miss at dispatch time.
    pub fn compose_uncached(
        &self,
        story: &ResidentStory,
        query: &InferenceRun,
        sample: &EncodedSample,
    ) -> InferenceRun {
        debug_assert!(query.cache_hit, "compose_uncached expects a hit-form run");
        let phases = story.phases + query.phases;
        let cycles = phases.total();
        let compute_s = self.config.clock.seconds(cycles);
        let interface_s = self
            .config
            .pcie
            .inference_time_s(story.story_words + sample.question.len());
        InferenceRun {
            answer: query.answer,
            speculated: query.speculated,
            comparisons: query.comparisons,
            phases,
            cycles,
            compute_s,
            interface_s,
            total_s: compute_s + interface_s,
            flops: query.flops,
            cache_hit: false,
            vetoes: query.vetoes,
            hops_executed: query.hops_executed,
            hops_saved: query.hops_saved,
            prune_vetoes: query.prune_vetoes,
            mem_stream_per_hop: query.mem_stream_per_hop,
            out_stream_cycles: query.out_stream_cycles,
            numeric: query.numeric,
            index: IndexCounters {
                build_cycles: story.index_build.get() + query.index.build_cycles,
                ..query.index
            },
        }
    }

    fn run_traced(&self, sample: &EncodedSample, trace: Option<&mut SignalTrace>) -> InferenceRun {
        let story = self.write_story(sample);
        self.query_traced(&story, sample, trace, true)
    }

    /// The query pipeline against `story`'s memory. With `include_story`
    /// the story's CONTROL/WRITE cycles and upload words are folded in
    /// (a full uncached inference); without, the run is the hit form.
    fn query_traced(
        &self,
        story: &ResidentStory,
        sample: &EncodedSample,
        mut trace: Option<&mut SignalTrace>,
        include_story: bool,
    ) -> InferenceRun {
        let mut phases = if include_story {
            story.phases
        } else {
            PhaseCycles::default()
        };
        // CONTROL: QUESTION header + payload + RUN_INFERENCE, one cycle per
        // stream word.
        phases.control += Cycles::new(2 + sample.question.len() as u64);

        // Per-module numeric registers. The story's write events are always
        // folded in — hit-form and miss-form runs must report identical
        // numeric health, since the cache changes where the story resides,
        // not what the inference computes.
        let mut numeric = NumericReport {
            load: self.load_status,
            write: story.numeric,
            ..NumericReport::default()
        };

        // Declare trace signals up front.
        let sig = trace.as_deref_mut().map(|t| {
            (
                t.add_signal("write_busy", 1),
                t.add_signal("mem_busy", 1),
                t.add_signal("read_busy", 1),
                t.add_signal("output_busy", 1),
                t.add_signal("attention_argmax", 16),
                t.add_signal("comparisons", 32),
                t.add_signal("numeric_events", 32),
                t.add_signal("exit_vetoes", 8),
            )
        });
        let mut now: u64 = phases.control.get();

        // Question embedding rides the write path (green in Fig 1).
        if let (Some(t), Some(s)) = (trace.as_deref_mut(), sig) {
            t.record(s.0, now, 1);
        }
        let mut key = Vec::new();
        phases.write +=
            self.input_write
                .embed_question_tracked(&sample.question, &mut key, &mut numeric.write);
        now += phases.write.get();
        if let (Some(t), Some(s)) = (trace.as_deref_mut(), sig) {
            t.record(s.0, now, 0);
        }

        // Recurrent read path (blue in Fig 1), on Q16.16 words from the
        // question embedding to the OUTPUT search; each module re-quantizes
        // what it takes where the `f32` hand-off quantized it. The per-hop
        // buffers are hoisted out of the loop and reused: attention and
        // read vector are rewritten in place, and the controller output
        // swaps with the key instead of being cloned.
        let mem = &story.mem;
        let prune = self.config.hop_prune;
        let use_index = self.config.mem_index.enabled && mem.index().is_some();
        let mut index = IndexCounters::default();
        if include_story {
            index.build_cycles = story.index_build.get();
        }
        let mut hidden = vec![Fixed::ZERO; self.embed_dim];
        let mut attention = Vec::new();
        let mut read_vec: Vec<Fixed> = Vec::new();
        let mut flags: Vec<bool> = Vec::new();
        let mut hops_executed = 0usize;
        let mut hops_saved = 0usize;
        let mut prune_vetoes = 0usize;
        for hop in 0..self.hops {
            if let (Some(t), Some(s)) = (trace.as_deref_mut(), sig) {
                t.record(s.1, now, 1);
            }
            // With pruning enabled the addressing pass also captures
            // per-row numeric provenance (identical values, cycles and
            // merged status) so a converged-but-saturated winner can veto
            // the early exit. The indexed pass always carries the flags, so
            // it composes with pruning unchanged.
            let ac = if use_index {
                let exact = mem.exact_addressing_cycles();
                let (ac, hop_stats) = mem.address_indexed_flagged_into_tracked(
                    &key,
                    &mut attention,
                    &mut numeric.mem,
                    &mut flags,
                );
                index.scanned_slots += hop_stats.scanned;
                index.skipped_slots += hop_stats.skipped;
                index.fallbacks += u64::from(hop_stats.fallback);
                index.cycles_saved += exact.saturating_sub(ac.get());
                ac
            } else if prune.enabled {
                mem.address_flagged_into_tracked(&key, &mut attention, &mut numeric.mem, &mut flags)
            } else {
                mem.address_words_tracked(&key, &mut attention, &mut numeric.mem)
            };
            phases.addressing += ac;
            now += ac.get();
            if let (Some(t), Some(s)) = (trace.as_deref_mut(), sig) {
                t.record(s.4, now, attention_peak(&attention).0 as u64);
                t.record(s.1, now, 0);
                t.record(s.2, now, 1);
            }
            let rc = mem.read_words_tracked(&attention, &mut read_vec, &mut numeric.mem);
            phases.read += rc;
            now += rc.get();
            let cc =
                self.read
                    .step_words_tracked(&read_vec, &key, &mut hidden, &mut numeric.controller);
            phases.controller += cc;
            now += cc.get();
            if let (Some(t), Some(s)) = (trace.as_deref_mut(), sig) {
                t.record(s.2, now, 0);
            }
            std::mem::swap(&mut key, &mut hidden);
            hops_executed += 1;
            if prune.enabled && hop + 1 < self.hops {
                let (argmax, max_w) = attention_peak(&attention);
                if prune.fires(max_w) {
                    if flags.get(argmax).copied().unwrap_or(false) {
                        // ExitGuard discipline: a saturated winner carries
                        // no information — run the full hop schedule.
                        prune_vetoes += 1;
                    } else {
                        hops_saved = self.hops - hop - 1;
                        break;
                    }
                }
            }
        }
        // After the swap the final controller output lives in `key`; with
        // zero hops this degenerates to searching an all-zero hidden state,
        // as before.
        let hidden = if self.hops == 0 { &hidden } else { &key };

        // OUTPUT search.
        if let (Some(t), Some(s)) = (trace.as_deref_mut(), sig) {
            t.record(s.3, now, 1);
        }
        let out = self.output.search_words(hidden);
        phases.output = out.cycles;
        now += out.cycles.get();
        numeric.output = out.numeric;
        if let (Some(t), Some(s)) = (trace, sig) {
            t.record(s.3, now, 0);
            t.record(s.5, now, out.comparisons as u64);
            t.record(s.6, now, numeric.total().total().min(u64::from(u32::MAX)));
            t.record(s.7, now, (out.vetoes as u64).min(u64::from(u8::MAX)));
        }

        let cycles = phases.total();
        let compute_s = self.config.clock.seconds(cycles);
        let upload_words = if include_story {
            story.story_words + sample.question.len()
        } else {
            sample.question.len()
        };
        let interface_s = self.config.pcie.inference_time_s(upload_words);
        let flops = count_inference_with_output_rows(
            &self.model.params.config,
            self.model.params.vocab_size,
            sample,
            out.comparisons,
        );
        InferenceRun {
            answer: out.label,
            speculated: out.speculated,
            comparisons: out.comparisons,
            phases,
            cycles,
            compute_s,
            interface_s,
            total_s: compute_s + interface_s,
            flops,
            cache_hit: !include_story,
            vetoes: out.vetoes,
            hops_executed,
            hops_saved,
            prune_vetoes,
            mem_stream_per_hop: mem.stream_cycles_per_hop(),
            out_stream_cycles: if self.output.is_thresholded() {
                0
            } else {
                out.comparisons as u64 * self.output.row_stream_cycles()
            },
            numeric,
            index,
        }
    }

    /// Average board power over a run with the given busy fraction.
    pub fn power_w(&self, busy_fraction: f64) -> f64 {
        self.config.power.power_w(
            self.config.clock.freq_mhz(),
            busy_fraction,
            self.config.ith.is_some(),
        )
    }
}

/// Wall-clock time of a *double-buffered* batch: while inference `i`
/// computes, the host streams inference `i+1`'s input, so in steady state
/// each inference costs `max(compute, interface)` instead of their sum.
/// An empty batch takes no time; a single inference cannot overlap with
/// anything and costs its full sequential latency.
///
/// The paper's measured setup is strictly sequential (which is why the
/// interface dominates at high clocks); this utility quantifies the obvious
/// architectural fix as an extension experiment.
pub fn double_buffered_time_s(runs: &[InferenceRun]) -> f64 {
    match runs.split_first() {
        None => 0.0,
        Some((first, rest)) => {
            // Prologue: the first input must fully arrive before compute.
            let mut total = first.interface_s + first.compute_s;
            let mut prev_compute = first.compute_s;
            for run in rest {
                // The next transfer overlapped the previous compute.
                total += run.compute_s + (run.interface_s - prev_compute).max(0.0);
                prev_compute = run.compute_s;
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::encode_sample_stream;
    use mann_babi::{DatasetBuilder, TaskId};
    use memn2n::{ModelConfig, TrainConfig, Trainer};

    fn trained() -> (TrainedModel, Vec<EncodedSample>, Vec<EncodedSample>) {
        let data = DatasetBuilder::new()
            .train_samples(120)
            .test_samples(30)
            .seed(12)
            .build_task(TaskId::SingleSupportingFact);
        let mut trainer = Trainer::from_task_data(
            &data,
            ModelConfig {
                embed_dim: 16,
                hops: 2,
                tie_embeddings: false,
                ..ModelConfig::default()
            },
            TrainConfig {
                epochs: 12,
                learning_rate: 0.05,
                decay_every: 6,
                clip_norm: 40.0,
                seed: 12,
                ..TrainConfig::default()
            },
        );
        trainer.train();
        trainer.into_parts()
    }

    #[test]
    fn accelerator_matches_reference_model_answers() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model.clone(), AccelConfig::default());
        let mut agree = 0usize;
        for s in &test {
            let hw = accel.run(s).answer;
            let sw = model.predict(s);
            if hw == sw {
                agree += 1;
            }
        }
        // Q16.16 is near-lossless at bAbI scale: demand ≥ 90 % agreement.
        assert!(agree * 10 >= test.len() * 9, "{agree}/{}", test.len());
    }

    #[test]
    fn split_control_cycles_match_stream_codec() {
        // The analytic CONTROL accounting of the split pipeline must equal
        // one cycle per word of the actual host stream.
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        for s in test.iter().take(8) {
            let story = accel.write_story(s);
            let query = accel.answer_query(&story, s);
            let stream_words = encode_sample_stream(s).len() as u64;
            assert_eq!(
                story.phases().control.get() + query.phases.control.get(),
                stream_words
            );
            assert_eq!(accel.run(s).phases.control.get(), stream_words);
        }
    }

    #[test]
    fn split_composes_to_the_monolithic_run() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        for s in &test {
            let full = accel.run(s);
            assert!(!full.cache_hit);
            let story = accel.write_story(s);
            let hit = accel.answer_query(&story, s);
            assert!(hit.cache_hit);
            // Identical answers and READ/OUTPUT-side cycles; only the
            // CONTROL/WRITE phases and the interface differ.
            assert_eq!(hit.answer, full.answer);
            assert_eq!(hit.comparisons, full.comparisons);
            assert_eq!(hit.phases.addressing, full.phases.addressing);
            assert_eq!(hit.phases.read, full.phases.read);
            assert_eq!(hit.phases.controller, full.phases.controller);
            assert_eq!(hit.phases.output, full.phases.output);
            assert!(hit.cycles < full.cycles);
            assert!(hit.interface_s < full.interface_s);
            // Recomposing the miss form reproduces `run` exactly.
            let composed = accel.compose_uncached(&story, &hit, s);
            assert_eq!(composed, full);
        }
    }

    #[test]
    fn frequency_scaling_is_sublinear_end_to_end() {
        let (model, _, test) = trained();
        let run_at = |mhz: f64| {
            let accel = Accelerator::new(
                model.clone(),
                AccelConfig {
                    clock: ClockDomain::mhz(mhz),
                    ..AccelConfig::default()
                },
            );
            accel.run(&test[0])
        };
        let slow = run_at(25.0);
        let fast = run_at(100.0);
        // Compute scales 4x...
        assert!((slow.compute_s / fast.compute_s - 4.0).abs() < 0.01);
        // ...but the end-to-end speedup is well below 4x (interface bound).
        let speedup = slow.total_s / fast.total_s;
        assert!(speedup > 1.05 && speedup < 3.0, "speedup {speedup}");
        // Same answers regardless of clock.
        assert_eq!(slow.answer, fast.answer);
    }

    #[test]
    fn thresholding_cuts_output_cycles_not_answers_much() {
        let (model, train, test) = trained();
        let ith = mann_ith::ThresholdingCalibrator::new()
            .rho(1.0)
            .calibrate(&model, &train);
        let base = Accelerator::new(model.clone(), AccelConfig::default());
        let fast = Accelerator::new(
            model.clone(),
            AccelConfig::with_thresholding(ClockDomain::default(), ith),
        );
        let mut base_out = 0u64;
        let mut fast_out = 0u64;
        let mut disagreements = 0usize;
        for s in &test {
            let b = base.run(s);
            let f = fast.run(s);
            base_out += b.phases.output.get();
            fast_out += f.phases.output.get();
            if b.answer != f.answer {
                disagreements += 1;
            }
        }
        assert!(fast_out < base_out, "no output-cycle savings");
        assert!(
            disagreements * 10 <= test.len(),
            "{disagreements} disagreements"
        );
    }

    #[test]
    fn phase_totals_add_up() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        let run = accel.run(&test[0]);
        assert_eq!(run.cycles, run.phases.total());
        assert!(run.total_s >= run.compute_s);
        assert!((0.0..=1.0).contains(&run.busy_fraction()));
        assert_eq!(run.flops.output, run.comparisons as u64 * (2 * 16 + 1));
    }

    #[test]
    fn tracing_records_module_activity() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        let mut trace = SignalTrace::new();
        let _ = accel.run_with_trace(&test[0], &mut trace);
        assert!(!trace.is_empty());
        let vcd = trace.to_vcd();
        assert!(vcd.contains("mem_busy"));
        assert!(vcd.contains("output_busy"));
    }

    #[test]
    fn double_buffering_beats_sequential_and_respects_bounds() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        let runs: Vec<InferenceRun> = test.iter().map(|s| accel.run(s)).collect();
        let sequential: f64 = runs.iter().map(|r| r.total_s).sum();
        let pipelined = double_buffered_time_s(&runs);
        assert!(pipelined < sequential, "{pipelined} !< {sequential}");
        // Lower bounds: the slower of the two resource totals.
        let compute: f64 = runs.iter().map(|r| r.compute_s).sum();
        let interface: f64 = runs.iter().map(|r| r.interface_s).sum();
        assert!(pipelined >= compute.max(interface) * 0.999);
    }

    #[test]
    fn double_buffering_handles_empty_and_single_runs() {
        // Regression: the batch helper must not assume two inferences.
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        let run = accel.run(&test[0]);
        assert_eq!(double_buffered_time_s(&[]), 0.0);
        // One inference: nothing overlaps, full sequential latency.
        let single = double_buffered_time_s(std::slice::from_ref(&run));
        assert!((single - run.total_s).abs() < 1e-12);
        // Two inferences follow the prologue + overlap formula exactly.
        let pair = [run.clone(), run.clone()];
        let expect = run.interface_s
            + run.compute_s
            + run.compute_s
            + (run.interface_s - run.compute_s).max(0.0);
        assert!((double_buffered_time_s(&pair) - expect).abs() < 1e-12);
    }

    #[test]
    fn numeric_reports_are_clean_and_path_invariant_at_babi_scale() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        for s in test.iter().take(6) {
            let full = accel.run(s);
            assert!(!full.numeric.stressed(), "bAbI-scale run recorded events");
            assert_eq!(full.vetoes, 0);
            // Monolithic, hit-form and composed runs report identical health.
            let story = accel.write_story(s);
            let hit = accel.answer_query(&story, s);
            let composed = accel.compose_uncached(&story, &hit, s);
            assert!(hit.cache_hit && !composed.cache_hit);
            assert_eq!(composed.numeric, full.numeric);
            assert_eq!(hit.numeric, full.numeric);
        }
    }

    fn pruned_config(threshold: f32) -> AccelConfig {
        AccelConfig {
            hop_prune: HopPrune::with_threshold(threshold),
            ..AccelConfig::default()
        }
    }

    #[test]
    fn hop_pruning_disabled_reports_full_schedule() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        for s in test.iter().take(6) {
            let run = accel.run(s);
            assert_eq!(run.hops_executed, 2);
            assert_eq!((run.hops_saved, run.prune_vetoes), (0, 0));
            assert!(run.mem_stream_per_hop > 0);
            assert!(run.out_stream_cycles > 0);
        }
    }

    #[test]
    fn hop_pruning_saves_cycles_without_changing_clean_runs() {
        let (model, _, test) = trained();
        let base = Accelerator::new(model.clone(), AccelConfig::default());
        let pruned = Accelerator::new(model, pruned_config(0.5));
        let mut saved_total = 0usize;
        let mut agree = 0usize;
        for s in &test {
            let b = base.run(s);
            let p = pruned.run(s);
            assert_eq!(p.hops_executed + p.hops_saved, 2);
            if p.hops_saved == 0 && p.prune_vetoes == 0 {
                // No prune fired: the flagged addressing pass is
                // bit-identical to the plain one, so the whole run matches
                // the seed datapath exactly.
                assert_eq!(p, b);
            } else if p.hops_saved > 0 {
                assert!(p.cycles < b.cycles);
                assert!(p.phases.addressing < b.phases.addressing);
            }
            saved_total += p.hops_saved;
            if p.answer == b.answer {
                agree += 1;
            }
        }
        assert!(saved_total > 0, "criterion never fired at threshold 0.5");
        // Pruned hops barely move trained bAbI answers (A2P-MANN claim).
        assert!(agree * 10 >= test.len() * 9, "{agree}/{}", test.len());
    }

    #[test]
    fn hop_pruning_is_monotone_in_threshold() {
        let (model, _, test) = trained();
        let loose = Accelerator::new(model.clone(), pruned_config(0.3));
        let tight = Accelerator::new(model, pruned_config(0.7));
        for s in &test {
            let l = loose.run(s).hops_saved;
            let t = tight.run(s).hops_saved;
            // Raising the threshold can only prune later (or never): the
            // hop trajectory is identical until the first fire, and a fire
            // at 0.8 implies one at 0.2.
            assert!(l >= t, "loose saved {l} < tight saved {t}");
        }
    }

    #[test]
    fn saturated_winner_vetoes_the_prune() {
        // Scale the embeddings until the addressing MACs saturate Q16.16
        // against a single-sentence story: the attention collapses to
        // exactly 1.0 (converged), but the winning weight is flagged, so
        // the ExitGuard-style veto keeps the full hop schedule.
        let (mut model, _, test) = trained();
        model.params.w_emb_a.scale_in_place(2000.0);
        let mut sample = test[0].clone();
        sample.sentences.truncate(1);
        let accel = Accelerator::new(model, pruned_config(1.0));
        let run = accel.run(&sample);
        assert!(run.numeric.stressed(), "MACs did not saturate");
        assert_eq!(run.hops_saved, 0, "flagged winner must not prune");
        assert!(run.prune_vetoes > 0, "veto not recorded");
        assert_eq!(run.hops_executed, 2);
    }

    fn indexed_config(k: usize, nprobe: usize, band: f32) -> AccelConfig {
        AccelConfig {
            mem_index: MemIndexConfig::with_params(k, nprobe, band),
            ..AccelConfig::default()
        }
    }

    #[test]
    fn disabled_index_reports_zero_counters() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, AccelConfig::default());
        let run = accel.run(&test[0]);
        assert_eq!(run.index, IndexCounters::default());
        let story = accel.write_story(&test[0]);
        assert_eq!(story.index_build_cycles(), Cycles::ZERO);
    }

    #[test]
    fn indexed_runs_partition_counters_and_charge_the_build() {
        let (model, _, test) = trained();
        let base = Accelerator::new(model.clone(), AccelConfig::default());
        let indexed = Accelerator::new(model, indexed_config(4, 2, 0.0));
        let mut agree = 0usize;
        for s in &test {
            let b = base.run(s);
            let r = indexed.run(s);
            assert_eq!(r.cycles, r.phases.total());
            // Every executed hop scans or skips each occupied slot once.
            let l = s.sentences.len() as u64;
            assert_eq!(
                r.index.scanned_slots + r.index.skipped_slots,
                l * r.hops_executed as u64
            );
            assert!(r.index.build_cycles > 0);
            assert!(
                r.phases.write > b.phases.write,
                "build rides the write phase"
            );
            if r.answer == b.answer {
                agree += 1;
            }
        }
        // Tiny 4-8 sentence stories are the index's worst case (candidate
        // sets of 2-4 slots); the ≥99% agreement floor is asserted at the
        // large-memory operating point by `indexed_addressing_floor` in
        // crates/serve/tests/sim_floors.rs.
        assert!(agree * 10 >= test.len() * 8, "{agree}/{}", test.len());
    }

    #[test]
    fn wide_band_index_always_falls_back_to_exact_answers() {
        let (model, _, test) = trained();
        let base = Accelerator::new(model.clone(), AccelConfig::default());
        let indexed = Accelerator::new(model, indexed_config(4, 1, 1.0e9));
        for s in test.iter().take(8) {
            let b = base.run(s);
            let r = indexed.run(s);
            // Every hop rescans: answers and attention-side results match
            // the exact datapath; only probe/build overhead is added.
            assert_eq!(r.answer, b.answer);
            assert_eq!(r.comparisons, b.comparisons);
            assert_eq!(r.index.fallbacks, r.hops_executed as u64);
            assert_eq!(r.index.skipped_slots, 0);
            assert_eq!(r.index.cycles_saved, 0);
            assert!(r.phases.addressing > b.phases.addressing);
        }
    }

    #[test]
    fn indexed_split_composes_to_the_monolithic_run() {
        let (model, _, test) = trained();
        let accel = Accelerator::new(model, indexed_config(4, 2, 0.0));
        for s in test.iter().take(8) {
            let full = accel.run(s);
            let story = accel.write_story(s);
            let hit = accel.answer_query(&story, s);
            assert_eq!(hit.index.build_cycles, 0, "hit form never pays the build");
            let composed = accel.compose_uncached(&story, &hit, s);
            assert_eq!(composed, full);
        }
    }

    #[test]
    fn power_reflects_ith_and_frequency() {
        let (model, train, _) = trained();
        let ith = mann_ith::ThresholdingCalibrator::new()
            .rho(1.0)
            .calibrate(&model, &train);
        let base25 = Accelerator::new(
            model.clone(),
            AccelConfig {
                clock: ClockDomain::mhz(25.0),
                ..AccelConfig::default()
            },
        );
        let base100 = Accelerator::new(model.clone(), AccelConfig::default());
        let ith100 = Accelerator::new(
            model,
            AccelConfig::with_thresholding(ClockDomain::default(), ith),
        );
        assert!(base100.power_w(0.2) > base25.power_w(0.4));
        assert!(ith100.power_w(0.2) > base100.power_w(0.2));
    }
}
