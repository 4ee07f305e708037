//! The MEM module: address memory (content-based addressing, Eq 1) and
//! content memory (soft read, Eq 5).
//!
//! Softmax runs element-wise and sequential, as the paper describes: scores
//! stream through the pipelined dot-product tree, a running-max register
//! stabilizes the exponent, the exp LUT pipeline produces numerators, an
//! adder tree forms the denominator, and one non-pipelined divider
//! normalizes score by score.
//!
//! Each memory is one flat `L x E` table of Q16.16 words, mirroring the
//! BRAM contents: the write port takes each sentence's embedding sums as
//! words, once, so addressing and reads multiply stored words directly.
//! Keys, attention and read vectors cross the module boundary as words
//! too; each pass re-quantizes its operand once ([`Fixed::requant`], the
//! identity below `2^24`) where an `f32` hand-off would have quantized it.
//! Every score and soft-read element goes through the certified MAC entry
//! [`fixed::dot_certified`], which equals the in-order chain
//! [`fixed::dot_tracked`] over the stored words. The write port keeps one
//! `max|w|` per memory for the story; each pass takes its key's or
//! attention's `Σ|x|` once, and the two certify every dot product of the
//! pass.

use std::borrow::Cow;

use mann_linalg::activation::ExpLut;
use mann_linalg::{fixed, Fixed, NumericStatus};

use crate::adder_tree::AdderTree;
use crate::div_unit::DivUnit;
use crate::exp_unit::ExpUnit;
use crate::index::{IndexedHopStats, MemIndex, MemIndexConfig};
use crate::{Cycles, DatapathConfig};

/// The last slot holding the largest attention weight, and that weight as
/// `f32` (slot 0 and −∞ when empty): what hop pruning tests and the signal
/// trace record.
pub(crate) fn attention_peak(attention: &[Fixed]) -> (usize, f32) {
    attention
        .iter()
        .map(|w| w.to_f32())
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, f32::NEG_INFINITY))
}

/// Address + content memory with the softmax datapath.
#[derive(Debug, Clone)]
pub struct MemModule {
    /// Address memory: `len` rows of `embed_dim` words, row-major.
    addr: Vec<Fixed>,
    /// Content memory, laid out as `addr`.
    content: Vec<Fixed>,
    /// Occupied slots `L`.
    len: usize,
    /// `max|w|` over every stored address word, kept by the write port.
    addr_abs_max: u64,
    /// `max|w|` over every stored content word, kept by the write port.
    content_abs_max: u64,
    tree: AdderTree,
    exp: ExpUnit,
    div: DivUnit,
    embed_dim: usize,
    index: Option<MemIndex>,
}

impl MemModule {
    /// Creates an empty memory for `embed_dim`-wide rows with the given
    /// datapath.
    ///
    /// # Panics
    ///
    /// Panics if the datapath config is invalid.
    pub fn new(embed_dim: usize, dp: &DatapathConfig) -> Self {
        dp.validate().expect("valid datapath");
        Self {
            addr: Vec::new(),
            content: Vec::new(),
            len: 0,
            addr_abs_max: 0,
            content_abs_max: 0,
            tree: AdderTree::new(dp.tree_width),
            exp: ExpUnit::new(ExpLut::new(dp.exp_lut_entries, -16.0), dp.exp_latency),
            div: DivUnit::new(dp.div_latency),
            embed_dim,
            index: None,
        }
    }

    /// Clears both memories (the `BEGIN_STORY` control action). Any
    /// candidate index built over the previous story is dropped with it.
    pub fn reset(&mut self) {
        self.addr.clear();
        self.content.clear();
        self.len = 0;
        self.addr_abs_max = 0;
        self.content_abs_max = 0;
        self.index = None;
    }

    /// Reserves table room for `rows` more sentences, so a story written
    /// at once sizes each memory's table once.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.addr.reserve_exact(rows * self.embed_dim);
        self.content.reserve_exact(rows * self.embed_dim);
    }

    /// Number of occupied memory slots `L`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memory holds no sentences.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn addr_row(&self, i: usize) -> &[Fixed] {
        &self.addr[i * self.embed_dim..(i + 1) * self.embed_dim]
    }

    /// The raw Q16.16 words of both memories (address rows then content
    /// rows, row-major): the exact bits a durable story journal must
    /// persist to rebuild this memory without re-embedding.
    pub fn raw_words(&self) -> Vec<i32> {
        self.addr
            .iter()
            .chain(&self.content)
            .map(|x| x.raw())
            .collect()
    }

    /// Writes one sentence from its embedding words: `embed` fills the
    /// zeroed address and content rows of the next slot in place (the
    /// INPUT & WRITE sums), and the BRAM write port re-quantizes them
    /// ([`Fixed::requant`]), recording its events in `st`. The port folds
    /// the stored words into each memory's `max|w|`, the stored side of
    /// every certified score and soft-read element
    /// ([`fixed::dot_certified`]): one word per memory, not one per row or
    /// column. Returns what `embed` returns.
    pub fn write_embedded_tracked<R>(
        &mut self,
        st: &mut NumericStatus,
        embed: impl FnOnce(&mut [Fixed], &mut [Fixed], &mut NumericStatus) -> R,
    ) -> R {
        let start = self.addr.len();
        self.addr.resize(start + self.embed_dim, Fixed::ZERO);
        self.content.resize(start + self.embed_dim, Fixed::ZERO);
        let (a, c) = (&mut self.addr[start..], &mut self.content[start..]);
        let out = embed(a, c, st);
        fixed::requant_in_place(a, st);
        fixed::requant_in_place(c, st);
        self.addr_abs_max = self.addr_abs_max.max(fixed::abs_max(a));
        self.content_abs_max = self.content_abs_max.max(fixed::abs_max(c));
        self.len += 1;
        out
    }

    /// Score of address row `row` against a quantized key whose `Σ|k|` is
    /// `key_abs_sum`: the certified MAC entry over the stored words.
    fn score(
        &self,
        row: usize,
        key_q: &[Fixed],
        key_abs_sum: u64,
        st: &mut NumericStatus,
    ) -> Fixed {
        fixed::dot_certified(
            self.addr_row(row),
            key_q,
            key_abs_sum,
            self.addr_abs_max,
            st,
        )
    }

    fn score_cycles(&self, rows: usize) -> Cycles {
        Cycles::new(rows as u64 * self.slots_per_row() + self.tree.depth() + 1)
    }

    /// Content-based addressing (Eq 1) of a key of words, such as the
    /// question embedding or the READ output: the key is re-quantized once
    /// per pass ([`Fixed::requant`]), scored against every stored address
    /// row, and normalized by the softmax pipeline into `attention`.
    /// Numeric events of the key quantizer, the score MACs, the max-shift
    /// subtractor, the exp pipeline, the denominator tree and the divider
    /// land in `st`. Returns the cycles of the score/softmax pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the stored rows' width.
    pub fn address_words_tracked(
        &self,
        key: &[Fixed],
        attention: &mut Vec<Fixed>,
        st: &mut NumericStatus,
    ) -> Cycles {
        attention.clear();
        if self.is_empty() {
            return Cycles::ZERO;
        }
        let key_q = fixed::requant_all(key, st);
        let key_sum = fixed::abs_sum(&key_q);
        attention.reserve(self.len);
        for i in 0..self.len {
            attention.push(self.score(i, &key_q, key_sum, st));
        }
        self.score_cycles(self.len) + self.softmax_tail(attention, st)
    }

    /// [`MemModule::address_words_tracked`] with per-row numeric
    /// provenance: `flags[i]` reports whether attention weight `i` was
    /// computed through flagged arithmetic — the key quantizer or row `i`'s
    /// score MACs saturated, or the shared softmax tail
    /// (shift/exp/denominator/divide, which touches every weight) recorded
    /// any event. Attention values, cycle counts and the merged status in
    /// `st` are identical to the unflagged pass: [`NumericStatus::merge`]
    /// is a field-wise saturating sum, so splitting the accounting into
    /// per-row registers and merging them back cannot change the totals.
    ///
    /// The hop-prune veto consults `flags[argmax]`: a converged-looking
    /// maximum that rode saturated arithmetic must not end the hop loop.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the stored rows' width.
    pub fn address_flagged_into_tracked(
        &self,
        key: &[Fixed],
        attention: &mut Vec<Fixed>,
        st: &mut NumericStatus,
        flags: &mut Vec<bool>,
    ) -> Cycles {
        attention.clear();
        flags.clear();
        if self.is_empty() {
            return Cycles::ZERO;
        }
        let mut key_st = NumericStatus::default();
        let key_q = fixed::requant_all(key, &mut key_st);
        let key_sum = fixed::abs_sum(&key_q);
        let mut rows_st = NumericStatus::default();
        attention.reserve(self.len);
        flags.reserve(self.len);
        for i in 0..self.len {
            let mut row_st = NumericStatus::default();
            let score = self.score(i, &key_q, key_sum, &mut row_st);
            flags.push(key_st.stressed() || row_st.stressed());
            rows_st.merge(&row_st);
            attention.push(score);
        }
        let mut tail_st = NumericStatus::default();
        let tail_cycles = self.softmax_tail(attention, &mut tail_st);
        if tail_st.stressed() {
            // The normalization chain feeds every weight: flag them all.
            flags.fill(true);
        }
        st.merge(&key_st);
        st.merge(&rows_st);
        st.merge(&tail_st);
        self.score_cycles(self.len) + tail_cycles
    }

    /// Batched content-based addressing for queries sharing this story,
    /// with the per-row numeric provenance of
    /// [`MemModule::address_flagged_into_tracked`] for every query: each
    /// address row is fetched once and scored against every key while
    /// resident, instead of one full row stream per query. Per `(query,
    /// row)` pair the MAC order — and the per-query softmax tail — are
    /// exactly those of the per-query pass, so every attention vector,
    /// flag, cycle count and status register is bit-identical to it.
    /// Returned cycles are the *standalone* per-query counts; the sharing
    /// the fused stream saves is accounted by the caller (see
    /// `Accelerator::query_batch`).
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `sts` lengths differ, or a key's width differs
    /// from the stored rows' width.
    pub fn address_batch_flagged_into_tracked(
        &self,
        keys: &[&[Fixed]],
        attentions: &mut Vec<Vec<Fixed>>,
        sts: &mut [NumericStatus],
        flags: &mut Vec<Vec<bool>>,
    ) -> Vec<Cycles> {
        assert_eq!(keys.len(), sts.len(), "one status register per query");
        attentions.resize_with(keys.len(), Vec::new);
        attentions.iter_mut().for_each(Vec::clear);
        flags.resize_with(keys.len(), Vec::new);
        flags.iter_mut().for_each(Vec::clear);
        if self.is_empty() {
            return vec![Cycles::ZERO; keys.len()];
        }
        let mut key_sts = vec![NumericStatus::default(); keys.len()];
        let keys_q: Vec<(Cow<[Fixed]>, u64)> = keys
            .iter()
            .zip(key_sts.iter_mut())
            .map(|(key, st)| {
                let key_q = fixed::requant_all(key, st);
                let key_sum = fixed::abs_sum(&key_q);
                (key_q, key_sum)
            })
            .collect();
        let mut rows_sts = vec![NumericStatus::default(); keys.len()];
        for (attention, flags) in attentions.iter_mut().zip(flags.iter_mut()) {
            attention.reserve(self.len);
            flags.reserve(self.len);
        }
        // Shared story stream: each address row is fetched once and scored
        // against every key while resident.
        for i in 0..self.len {
            for (q, (key_q, key_sum)) in keys_q.iter().enumerate() {
                let mut row_st = NumericStatus::default();
                let score = self.score(i, key_q, *key_sum, &mut row_st);
                flags[q].push(key_sts[q].stressed() || row_st.stressed());
                rows_sts[q].merge(&row_st);
                attentions[q].push(score);
            }
        }
        let score_cycles = self.score_cycles(self.len);
        (0..keys.len())
            .map(|q| {
                let mut tail_st = NumericStatus::default();
                let tail_cycles = self.softmax_tail(&mut attentions[q], &mut tail_st);
                if tail_st.stressed() {
                    flags[q].fill(true);
                }
                sts[q].merge(&key_sts[q]);
                sts[q].merge(&rows_sts[q]);
                sts[q].merge(&tail_st);
                score_cycles + tail_cycles
            })
            .collect()
    }

    /// The softmax pipeline tail shared by every addressing variant, in
    /// place over the pass's scores in `words`: the numerators and their
    /// denominator ([`MemModule::softmax_numerators`]), then the
    /// sequential divider.
    fn softmax_tail(&self, words: &mut [Fixed], st: &mut NumericStatus) -> Cycles {
        let (denom, cycles) = self.softmax_numerators(words, st);
        cycles + self.div.div_in_place_tracked(words, denom, st)
    }

    /// Running max, fixed-point shift shadow, exp LUT and adder-tree
    /// denominator, in place over the scores in `words`: returns the
    /// denominator and the cycles. The shift and the exp input stay `f32`,
    /// as the LUT takes them. The largest score shifts to exactly `0.0`,
    /// which the LUT maps to `1.0`, and no numerator is negative, so the
    /// denominator of a non-empty pass is at least [`Fixed::ONE`].
    fn softmax_numerators(&self, words: &mut [Fixed], st: &mut NumericStatus) -> (Fixed, Cycles) {
        // Stable softmax: running max costs nothing extra (register compare
        // overlapped with the score pass). `to_f32` is monotone, so the
        // word maximum is the `f32` one.
        let max_fx = words.iter().copied().max().unwrap_or(Fixed::ZERO);
        let max = max_fx.to_f32();
        // Shadow the shift through the fixed-point score registers so the
        // status register sees what the hardware subtractor would; the
        // functional value below stays the f32 shift, byte-for-byte.
        for s_fx in words.iter() {
            let _ = s_fx.sub_tracked(max_fx, st);
        }
        for w in words.iter_mut() {
            *w = self.exp.eval_tracked(w.to_f32() - max, st);
        }
        let exp_cycles = self.exp.batch_cycles(words.len());
        // Denominator via the adder tree.
        let (denom, sum_cycles) = self.tree.reduce_tracked(words, st);
        (denom, exp_cycles + sum_cycles)
    }

    /// Soft read (Eq 5): the weighted sum of the content rows under
    /// attention words, which are re-quantized once per read
    /// ([`Fixed::requant`]). The read vector stays words for the READ
    /// module. Numeric events of the attention quantizer and the
    /// weighted-sum MACs land in `st`.
    ///
    /// # Panics
    ///
    /// Panics if the attention length differs from the occupied slots.
    pub fn read_words_tracked(
        &self,
        attention: &[Fixed],
        out: &mut Vec<Fixed>,
        st: &mut NumericStatus,
    ) -> Cycles {
        assert_eq!(attention.len(), self.len, "attention length");
        let att_q = fixed::requant_all(attention, st);
        let att_sum = fixed::abs_sum(&att_q);
        out.clear();
        out.extend((0..self.embed_dim).map(|j| self.column_dot(&att_q, att_sum, j, st)));
        self.read_cycles()
    }

    fn read_cycles(&self) -> Cycles {
        self.score_cycles(self.len)
    }

    /// Batched soft read for queries sharing this story: each content
    /// column is streamed once and accumulated against every query's
    /// attention weights while resident. Per `(query, element)` pair the
    /// accumulation visits the rows in the same order as
    /// [`MemModule::read_words_tracked`], so outputs, cycles and status
    /// registers are bit-identical to the per-query call. Returned cycles
    /// are the standalone per-query counts (see
    /// [`MemModule::address_batch_flagged_into_tracked`] for the fusion
    /// accounting).
    ///
    /// # Panics
    ///
    /// Panics if `attentions` and `sts` lengths differ, or any attention
    /// length differs from the occupied slots.
    pub fn read_batch_into_tracked(
        &self,
        attentions: &[&[Fixed]],
        outs: &mut Vec<Vec<Fixed>>,
        sts: &mut [NumericStatus],
    ) -> Vec<Cycles> {
        assert_eq!(attentions.len(), sts.len(), "one status register per query");
        outs.resize_with(attentions.len(), Vec::new);
        let atts_q: Vec<(Cow<[Fixed]>, u64)> = attentions
            .iter()
            .zip(sts.iter_mut())
            .map(|(attention, st)| {
                assert_eq!(attention.len(), self.len, "attention length");
                let att_q = fixed::requant_all(attention, st);
                let att_sum = fixed::abs_sum(&att_q);
                (att_q, att_sum)
            })
            .collect();
        for out in outs.iter_mut() {
            out.clear();
        }
        for j in 0..self.embed_dim {
            for (q, (att_q, att_sum)) in atts_q.iter().enumerate() {
                outs[q].push(self.column_dot(att_q, *att_sum, j, &mut sts[q]));
            }
        }
        vec![self.read_cycles(); attentions.len()]
    }

    /// Output element `j` of a soft read: the weighted sum of content
    /// column `j` over the stored rows, in row order, through the
    /// certified MAC entry, from the attention's `Σ|a|` and the content
    /// memory's `max|w|`. The rows stay row-major, as
    /// [`MemModule::raw_words`] persists them.
    fn column_dot(&self, att_q: &[Fixed], att_sum: u64, j: usize, st: &mut NumericStatus) -> Fixed {
        let column = att_q
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, self.content[i * self.embed_dim + j]));
        fixed::dot_certified_pairs(column, att_sum, self.content_abs_max, st)
    }

    /// Per-hop row-stream issue slots a fused same-story query shares with
    /// the batch leader: the address-score stream plus the soft-read
    /// stream, `L * ceil(E / width)` slots each. Pipeline latencies (tree
    /// depth, exp, divider) stay per query — they are not shared.
    pub fn stream_cycles_per_hop(&self) -> u64 {
        2 * self.len as u64 * self.slots_per_row()
    }

    /// Issue slots one stored row occupies on the score (or read) stream:
    /// `ceil(E / width)` — the unit of the candidate-index savings
    /// accounting.
    pub fn slots_per_row(&self) -> u64 {
        self.embed_dim.div_ceil(self.tree.width()) as u64
    }

    /// Builds the per-story candidate index over the occupied address rows
    /// (the extra story-upload work when `--mem-index` is armed), replacing
    /// any previous index. Returns the build's cycle cost, which the
    /// caller charges to the write phase; centroid-quantizer events land in
    /// `st` like every other BRAM write.
    ///
    /// # Panics
    ///
    /// Panics if `config` is disabled.
    pub fn build_index(&mut self, config: MemIndexConfig, st: &mut NumericStatus) -> Cycles {
        let idx = MemIndex::build(&self.addr, config, &self.tree, self.embed_dim, st);
        let cycles = Cycles::new(idx.build_cycles());
        self.index = Some(idx);
        cycles
    }

    /// The candidate index built by [`MemModule::build_index`], if any.
    pub fn index(&self) -> Option<&MemIndex> {
        self.index.as_ref()
    }

    /// Cycle cost of one exact addressing pass over all `L` occupied slots
    /// — the counterfactual the indexed path's `cycles_saved` accounting
    /// compares against. Matches [`MemModule::address_words_tracked`]'s
    /// count term by term: score stream, exp pipeline occupancy,
    /// denominator reduce, and the sequential divider.
    pub fn exact_addressing_cycles(&self) -> u64 {
        let l = self.len;
        if l == 0 {
            return 0;
        }
        let score = self.score_cycles(l).get();
        let exp = l as u64 + self.exp.latency();
        let reduce = self.tree.reduce_cycles(l).get();
        let div = l as u64 * self.div.latency();
        score + exp + reduce + div
    }

    /// One indexed addressing hop: probe the candidate index, score only
    /// the surviving candidates exactly, and fall back to the full scan
    /// when the margin is too tight or the probe arithmetic saturated.
    /// Returns the hop's cycles, its counter slice, and the scanned slot
    /// set (`None` when the hop fell back and streamed every slot) for the
    /// batch union accounting.
    fn indexed_hop_core(
        &self,
        key: &[Fixed],
        attention: &mut Vec<Fixed>,
        st: &mut NumericStatus,
        flags: &mut Vec<bool>,
    ) -> (Cycles, IndexedHopStats, Option<Vec<usize>>) {
        let idx = self
            .index
            .as_ref()
            .expect("indexed addressing needs a built index");
        attention.clear();
        flags.clear();
        let l = self.len;
        if l == 0 {
            let stats = IndexedHopStats {
                scanned: 0,
                skipped: 0,
                fallback: false,
            };
            return (Cycles::ZERO, stats, Some(Vec::new()));
        }
        let band = idx.config().band;
        let mut key_st = NumericStatus::default();
        let key_q = fixed::requant_all(key, &mut key_st);
        let key_sum = fixed::abs_sum(&key_q);
        let mut probe_st = NumericStatus::default();
        let (candidates, probe_cycles, probe_stressed) = idx.probe(&key_q, &mut probe_st);
        // Exact scoring over the surviving candidates: the same per-row MAC
        // chain as the full scan, restricted to the candidate rows.
        let c = candidates.len();
        let mut rows_st = NumericStatus::default();
        let mut cand_flags = Vec::with_capacity(c);
        let mut cand = Vec::with_capacity(c);
        for &slot in &candidates {
            let mut row_st = NumericStatus::default();
            let score = self.score(slot, &key_q, key_sum, &mut row_st);
            cand_flags.push(key_st.stressed() || row_st.stressed());
            rows_st.merge(&row_st);
            cand.push(score);
        }
        let score_cycles = self.score_cycles(c);
        // ExitGuard-style margin check: when the best candidate score sits
        // within `band` of the worst retained one, the probe carried no
        // usable margin — rerun the exact scan. A single-candidate hop has
        // zero spread and always falls back. Saturated probe arithmetic
        // falls back unconditionally.
        let best = cand.iter().max().map_or(f32::NEG_INFINITY, |s| s.to_f32());
        let worst = cand.iter().min().map_or(f32::INFINITY, |s| s.to_f32());
        let fallback = probe_stressed || c == 0 || best - worst <= band;
        st.merge(&key_st);
        st.merge(&probe_st);
        st.merge(&rows_st);
        if fallback {
            // The hardware rescans: the full exact pass re-quantizes the
            // key, so its quantizer events are (deliberately) counted for
            // both the probe use and the rescan.
            let exact_cycles = self.address_flagged_into_tracked(key, attention, st, flags);
            let stats = IndexedHopStats {
                scanned: l as u64,
                skipped: 0,
                fallback: true,
            };
            return (probe_cycles + score_cycles + exact_cycles, stats, None);
        }
        let mut tail_st = NumericStatus::default();
        let tail_cycles = self.softmax_tail(&mut cand, &mut tail_st);
        let tail_stressed = tail_st.stressed();
        st.merge(&tail_st);
        // Scatter the candidate softmax into the full slot space: skipped
        // slots carry exactly zero attention and a clean flag.
        attention.resize(l, Fixed::ZERO);
        flags.resize(l, false);
        for ((&slot, &w), &f) in candidates.iter().zip(&cand).zip(&cand_flags) {
            attention[slot] = w;
            flags[slot] = f || tail_stressed;
        }
        let stats = IndexedHopStats {
            scanned: c as u64,
            skipped: (l - c) as u64,
            fallback: false,
        };
        (
            probe_cycles + score_cycles + tail_cycles,
            stats,
            Some(candidates),
        )
    }

    /// Indexed content-based addressing with per-row numeric provenance:
    /// the sub-linear counterpart of
    /// [`MemModule::address_flagged_into_tracked`]. Requires
    /// [`MemModule::build_index`] to have run for the current story.
    /// Skipped slots get attention exactly zero and a clean flag; a
    /// fallback hop is bit-identical to the exact pass (attention, flags)
    /// with the probe and candidate-scan overhead added to its cycles.
    ///
    /// # Panics
    ///
    /// Panics if no index is built, or the key width differs from the
    /// stored rows' width.
    pub fn address_indexed_flagged_into_tracked(
        &self,
        key: &[Fixed],
        attention: &mut Vec<Fixed>,
        st: &mut NumericStatus,
        flags: &mut Vec<bool>,
    ) -> (Cycles, IndexedHopStats) {
        let (cycles, stats, _) = self.indexed_hop_core(key, attention, st, flags);
        (cycles, stats)
    }

    /// Batched indexed addressing for queries sharing this story: each
    /// query runs the exact per-query indexed hop (results are
    /// bit-identical to [`MemModule::address_indexed_flagged_into_tracked`]
    /// by construction), and the fused stream fetches the *union* of the
    /// queries' candidate rows once. Returns the standalone per-query
    /// cycles, per-query stats, and the union's slot count (`L` when any
    /// query fell back to the full scan) for the caller's stream-sharing
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `sts` lengths differ, no index is built, or a
    /// key's width differs from the stored rows' width.
    pub fn address_indexed_batch_flagged_into_tracked(
        &self,
        keys: &[&[Fixed]],
        attentions: &mut Vec<Vec<Fixed>>,
        sts: &mut [NumericStatus],
        flags: &mut Vec<Vec<bool>>,
    ) -> (Vec<Cycles>, Vec<IndexedHopStats>, u64) {
        assert_eq!(keys.len(), sts.len(), "one status register per query");
        attentions.resize_with(keys.len(), Vec::new);
        flags.resize_with(keys.len(), Vec::new);
        let l = self.len;
        let mut scanned_union = vec![false; l];
        let mut any_fallback = false;
        let mut cycles = Vec::with_capacity(keys.len());
        let mut stats = Vec::with_capacity(keys.len());
        for (q, key) in keys.iter().enumerate() {
            let (cy, hop, scanned) =
                self.indexed_hop_core(key, &mut attentions[q], &mut sts[q], &mut flags[q]);
            cycles.push(cy);
            stats.push(hop);
            match scanned {
                None => any_fallback = true,
                Some(slots) => {
                    for slot in slots {
                        scanned_union[slot] = true;
                    }
                }
            }
        }
        let union = if any_fallback {
            l as u64
        } else {
            scanned_union.iter().filter(|&&b| b).count() as u64
        };
        (cycles, stats, union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_support::{quantized, write_f32_rows};

    fn filled(l: usize, e: usize) -> MemModule {
        let mut m = MemModule::new(e, &DatapathConfig::default());
        for i in 0..l {
            let row_a: Vec<f32> = (0..e).map(|j| ((i + j) as f32 * 0.1).sin()).collect();
            let row_c: Vec<f32> = (0..e).map(|j| ((i * j) as f32 * 0.1).cos()).collect();
            write_f32_rows(&mut m, &row_a, &row_c, &mut NumericStatus::default());
        }
        m
    }

    /// One addressing pass of an `f32` key: the attention and the cycles.
    fn attention_of(m: &MemModule, key: &[f32]) -> (Vec<Fixed>, Cycles) {
        let mut attention = Vec::new();
        let cycles = m.address_words_tracked(
            &quantized(key),
            &mut attention,
            &mut NumericStatus::default(),
        );
        (attention, cycles)
    }

    #[test]
    fn attention_is_a_distribution() {
        let m = filled(6, 8);
        let key: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).cos()).collect();
        let (a, cycles) = attention_of(&m, &key);
        assert_eq!(a.len(), 6);
        let sum: f32 = a.iter().map(|w| w.to_f32()).sum();
        assert!((sum - 1.0).abs() < 1e-2, "{sum}");
        assert!(a.iter().all(|&x| x >= Fixed::ZERO));
        assert!(cycles.get() > 0);
    }

    #[test]
    fn attention_matches_float_softmax_closely() {
        let m = filled(5, 8);
        let key: Vec<f32> = vec![0.5; 8];
        let (a, _) = attention_of(&m, &key);
        // Reference float computation over the stored rows.
        let scores: Vec<f32> = (0..5)
            .map(|i| {
                m.addr_row(i)
                    .iter()
                    .zip(&key)
                    .map(|(x, y)| x.to_f32() * y)
                    .sum()
            })
            .collect();
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        for (hw, sw) in a.iter().zip(exps.iter().map(|e| e / z)) {
            assert!((hw.to_f32() - sw).abs() < 5e-3, "{hw} vs {sw}");
        }
    }

    #[test]
    fn quantized_storage_matches_fixed_dot_scores() {
        // The stored-row accumulation must equal the adder tree's
        // quantize-at-access dot over the original f32 rows, bit for bit.
        let e = 8;
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..e).map(|j| ((i * 3 + j) as f32 * 0.17).sin()).collect())
            .collect();
        let mut m = MemModule::new(e, &DatapathConfig::default());
        for r in &rows {
            write_f32_rows(&mut m, r, r, &mut NumericStatus::default());
        }
        let key: Vec<f32> = (0..e).map(|j| (j as f32 * 0.4).cos()).collect();
        let tree = AdderTree::new(DatapathConfig::default().tree_width);
        let key_q = quantized(&key);
        for (i, r) in rows.iter().enumerate() {
            let (expect, _) = tree.fixed_dot_tracked(r, &key, &mut NumericStatus::default());
            let mut acc = Fixed::ZERO;
            for (x, y) in m.addr_row(i).iter().zip(&key_q) {
                acc += *x * *y;
            }
            assert_eq!(acc, expect, "row {i}");
        }
    }

    #[test]
    fn read_is_attention_weighted_sum() {
        let m = filled(3, 4);
        let attention = quantized(&[1.0, 0.0, 0.0]);
        let mut r = Vec::new();
        m.read_words_tracked(&attention, &mut r, &mut NumericStatus::default());
        assert_eq!(r, m.content[..4]);
    }

    #[test]
    fn reset_empties_memory() {
        let mut m = filled(4, 4);
        assert_eq!(m.len(), 4);
        m.reset();
        assert!(m.is_empty());
        assert!(m.raw_words().is_empty());
        let (a, c) = attention_of(&m, &[0.0; 4]);
        assert!(a.is_empty());
        assert_eq!(c, Cycles::ZERO);
    }

    #[test]
    fn addressing_cycles_grow_with_memory_size() {
        let key = vec![0.1f32; 8];
        let small = attention_of(&filled(4, 8), &key).1;
        let large = attention_of(&filled(16, 8), &key).1;
        assert!(large > small);
    }

    #[test]
    fn divider_dominates_addressing_time() {
        // With the default datapath (div latency 16, tree width 8), the
        // sequential divider is the largest addressing term — the paper's
        // motivation for calling softmax costly.
        let m = filled(10, 32);
        let key = vec![0.1f32; 32];
        let (_, total) = attention_of(&m, &key);
        let div_only = 10 * DatapathConfig::default().div_latency;
        assert!(total.get() > div_only, "{total} vs divider {div_only}");
        assert!(div_only as f64 / total.get() as f64 > 0.3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_row_width_panics() {
        // A key must be as wide as the stored rows.
        let _ = attention_of(&filled(2, 4), &[0.0; 3]);
    }

    /// Whatever the scores, the divider never sees zero: the largest
    /// score's numerator is exactly `1.0`, so the denominator is at least
    /// [`Fixed::ONE`] and the tail records no `div_zero`.
    fn assert_denominator_is_at_least_one(scores: &[Fixed]) {
        let m = MemModule::new(1, &DatapathConfig::default());
        let mut words = scores.to_vec();
        let (denom, _) = m.softmax_numerators(&mut words, &mut NumericStatus::default());
        assert!(denom >= Fixed::ONE, "denominator {denom} for {scores:?}");
        let mut words = scores.to_vec();
        let mut st = NumericStatus::default();
        m.softmax_tail(&mut words, &mut st);
        assert_eq!(st.div_zero, 0, "{scores:?}");
    }

    #[test]
    fn softmax_denominator_is_at_least_one() {
        let below_lut = Fixed::from_f32(-16.5);
        for scores in [
            vec![Fixed::from_f32(-3.25)],
            vec![Fixed::from_f32(0.75); 6],
            vec![Fixed::MIN, Fixed::MAX, Fixed::MIN, Fixed::MAX],
            // Every score but the max shifts below the LUT's -16 and
            // flushes to zero.
            vec![below_lut, Fixed::ZERO, below_lut, Fixed::from_f32(-40.0)],
            vec![Fixed::MIN, Fixed::ZERO],
        ] {
            assert_denominator_is_at_least_one(&scores);
        }
    }

    #[test]
    fn flagged_addressing_matches_plain_addressing() {
        let m = filled(7, 8);
        let key = quantized(&(0..8).map(|i| (i as f32 * 0.7).sin()).collect::<Vec<_>>());
        let mut plain = Vec::new();
        let mut plain_st = NumericStatus::default();
        let plain_cycles = m.address_words_tracked(&key, &mut plain, &mut plain_st);
        let mut flagged = Vec::new();
        let mut flagged_st = NumericStatus::default();
        let mut flags = Vec::new();
        let flagged_cycles =
            m.address_flagged_into_tracked(&key, &mut flagged, &mut flagged_st, &mut flags);
        assert_eq!(plain, flagged);
        assert_eq!(plain_cycles, flagged_cycles);
        assert_eq!(plain_st, flagged_st);
        assert_eq!(flags.len(), 7);
        // bAbI-scale values never stress Q16.16: every flag is clean.
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn flagged_addressing_marks_saturated_rows() {
        let e = 4;
        let mut m = MemModule::new(e, &DatapathConfig::default());
        // Row 0 saturates its score MACs at Q16.16 scale; row 1 stays tame.
        let mut st = NumericStatus::default();
        write_f32_rows(&mut m, &[30000.0; 4], &[0.1; 4], &mut st);
        write_f32_rows(&mut m, &[0.1; 4], &[0.1; 4], &mut st);
        let key = quantized(&[30000.0; 4]);
        let mut att = Vec::new();
        let mut st = NumericStatus::default();
        let mut flags = Vec::new();
        let _ = m.address_flagged_into_tracked(&key, &mut att, &mut st, &mut flags);
        assert!(st.stressed());
        assert!(flags[0], "saturated row must be flagged");
    }

    #[test]
    fn batched_addressing_and_read_match_per_query() {
        let m = filled(6, 8);
        let keys: Vec<Vec<Fixed>> = (0..4)
            .map(|q| {
                quantized(
                    &(0..8)
                        .map(|i| ((q * 8 + i) as f32 * 0.23).sin())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let key_refs: Vec<&[Fixed]> = keys.iter().map(Vec::as_slice).collect();
        let mut atts = Vec::new();
        let mut sts = vec![NumericStatus::default(); keys.len()];
        let mut flags = Vec::new();
        let cycles =
            m.address_batch_flagged_into_tracked(&key_refs, &mut atts, &mut sts, &mut flags);
        let mut reads = Vec::new();
        let mut read_sts = vec![NumericStatus::default(); keys.len()];
        let weights: Vec<&[Fixed]> = atts.iter().map(Vec::as_slice).collect();
        let read_cycles = m.read_batch_into_tracked(&weights, &mut reads, &mut read_sts);
        for (q, key) in keys.iter().enumerate() {
            let mut att = Vec::new();
            let mut st = NumericStatus::default();
            assert_eq!(cycles[q], m.address_words_tracked(key, &mut att, &mut st));
            assert_eq!(atts[q], att);
            assert_eq!(sts[q], st);
            let mut out = Vec::new();
            let mut rst = NumericStatus::default();
            assert_eq!(
                read_cycles[q],
                m.read_words_tracked(&att, &mut out, &mut rst)
            );
            assert_eq!(reads[q], out);
            assert_eq!(read_sts[q], rst);
        }
        // Empty batches are fine.
        let mut none = Vec::new();
        assert!(m
            .address_batch_flagged_into_tracked(&[], &mut none, &mut [], &mut flags)
            .is_empty());
        assert!(none.is_empty());
    }

    #[test]
    fn exact_addressing_cycles_matches_the_exact_pass() {
        let m = filled(14, 8);
        let key: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).sin()).collect();
        let (_, cycles) = attention_of(&m, &key);
        assert_eq!(m.exact_addressing_cycles(), cycles.get());
        assert_eq!(
            MemModule::new(8, &DatapathConfig::default()).exact_addressing_cycles(),
            0
        );
    }

    fn indexed(l: usize, e: usize, k: usize, nprobe: usize, band: f32) -> MemModule {
        let mut m = filled(l, e);
        let mut st = NumericStatus::default();
        let build = m.build_index(MemIndexConfig::with_params(k, nprobe, band), &mut st);
        assert!(build.get() > 0);
        m
    }

    /// The exact flagged pass: attention, flags, status and cycles.
    fn exact_flagged(
        m: &MemModule,
        key: &[Fixed],
    ) -> (Vec<Fixed>, Vec<bool>, NumericStatus, Cycles) {
        let mut att = Vec::new();
        let mut st = NumericStatus::default();
        let mut flags = Vec::new();
        let cycles = m.address_flagged_into_tracked(key, &mut att, &mut st, &mut flags);
        (att, flags, st, cycles)
    }

    #[test]
    fn full_coverage_index_matches_exact_addressing() {
        // k = nprobe = 1: every slot survives the probe, so the candidate
        // softmax sees the same scores in the same order as the full scan.
        let m = indexed(6, 8, 1, 1, 0.0);
        let key = quantized(&(0..8).map(|i| (i as f32 * 0.3).cos()).collect::<Vec<_>>());
        let (exact, exact_flags, _, exact_cycles) = exact_flagged(&m, &key);
        let mut att = Vec::new();
        let mut st = NumericStatus::default();
        let mut flags = Vec::new();
        let (cycles, stats) =
            m.address_indexed_flagged_into_tracked(&key, &mut att, &mut st, &mut flags);
        assert_eq!(att, exact);
        assert_eq!(flags, exact_flags);
        assert!(!stats.fallback);
        assert_eq!((stats.scanned, stats.skipped), (6, 0));
        assert!(cycles > exact_cycles, "probe overhead must be charged");
    }

    #[test]
    fn indexed_addressing_skips_slots_and_partitions_counters() {
        let m = indexed(24, 8, 8, 1, 0.0);
        let key = quantized(&(0..8).map(|i| (i as f32 * 0.3).cos()).collect::<Vec<_>>());
        let mut att = Vec::new();
        let mut st = NumericStatus::default();
        let mut flags = Vec::new();
        let (cycles, stats) =
            m.address_indexed_flagged_into_tracked(&key, &mut att, &mut st, &mut flags);
        assert_eq!(stats.scanned + stats.skipped, 24);
        assert!(stats.skipped > 0, "nprobe=1 of k=8 must skip slots");
        assert!(!stats.fallback);
        assert_eq!(att.len(), 24);
        let sum: f32 = att.iter().map(|w| w.to_f32()).sum();
        assert!((sum - 1.0).abs() < 1e-2, "{sum}");
        // Skipped slots carry exactly zero attention.
        assert_eq!(
            att.iter().filter(|w| w.is_zero()).count() as u64,
            stats.skipped
        );
        assert!(
            cycles.get() < m.exact_addressing_cycles(),
            "skipping must pay off"
        );
    }

    #[test]
    fn wide_band_forces_fallback_and_matches_exact() {
        let m = indexed(10, 8, 4, 1, 1.0e9);
        let key = quantized(&(0..8).map(|i| (i as f32 * 0.5).sin()).collect::<Vec<_>>());
        let (exact, exact_flags, _, exact_cycles) = exact_flagged(&m, &key);
        let mut att = Vec::new();
        let mut st = NumericStatus::default();
        let mut flags = Vec::new();
        let (cycles, stats) =
            m.address_indexed_flagged_into_tracked(&key, &mut att, &mut st, &mut flags);
        assert!(stats.fallback);
        assert_eq!((stats.scanned, stats.skipped), (10, 0));
        assert_eq!(att, exact, "fallback must be bit-identical to the scan");
        assert_eq!(flags, exact_flags);
        assert!(cycles > exact_cycles, "fallback pays probe + rescan");
    }

    #[test]
    fn batched_indexed_addressing_matches_solo() {
        let m = indexed(20, 8, 5, 2, 0.0);
        let keys: Vec<Vec<Fixed>> = (0..3)
            .map(|q| {
                quantized(
                    &(0..8)
                        .map(|i| ((q * 8 + i) as f32 * 0.23).sin())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let key_refs: Vec<&[Fixed]> = keys.iter().map(Vec::as_slice).collect();
        let mut atts = Vec::new();
        let mut sts = vec![NumericStatus::default(); keys.len()];
        let mut flags = Vec::new();
        let (cycles, stats, union) = m
            .address_indexed_batch_flagged_into_tracked(&key_refs, &mut atts, &mut sts, &mut flags);
        let mut sum_scanned = 0;
        for (q, key) in keys.iter().enumerate() {
            let mut att = Vec::new();
            let mut st = NumericStatus::default();
            let mut f = Vec::new();
            let (cy, hop) = m.address_indexed_flagged_into_tracked(key, &mut att, &mut st, &mut f);
            assert_eq!(atts[q], att);
            assert_eq!(sts[q], st);
            assert_eq!(flags[q], f);
            assert_eq!(cycles[q], cy);
            assert_eq!(stats[q], hop);
            sum_scanned += hop.scanned;
        }
        assert!(union <= 20);
        assert!(union <= sum_scanned, "union cannot exceed the scan total");
        assert!(stats.iter().all(|s| union >= s.scanned));
        // Empty batches are fine.
        let (none, no_stats, u) =
            m.address_indexed_batch_flagged_into_tracked(&[], &mut atts, &mut [], &mut flags);
        assert!(none.is_empty() && no_stats.is_empty() && u == 0);
    }

    #[test]
    fn stream_cycles_per_hop_counts_both_row_streams() {
        let m = filled(10, 32);
        // 10 rows x ceil(32/8) issue slots, addressing + read.
        assert_eq!(m.stream_cycles_per_hop(), 2 * 10 * 4);
        let empty = MemModule::new(8, &DatapathConfig::default());
        assert_eq!(empty.stream_cycles_per_hop(), 0);
    }

    use crate::test_support::{stress_vec, stress_words};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One addressing pass: attention bits, flags, status and cycles.
    #[derive(Debug, PartialEq)]
    struct Pass {
        attention: Vec<Fixed>,
        flags: Vec<bool>,
        st: NumericStatus,
        cycles: Cycles,
    }

    fn requant(v: &[Fixed], st: &mut NumericStatus) -> Vec<Fixed> {
        v.iter().map(|w| w.requant(st)).collect()
    }

    fn empty_pass() -> Pass {
        Pass {
            attention: Vec::new(),
            flags: Vec::new(),
            st: NumericStatus::default(),
            cycles: Cycles::ZERO,
        }
    }

    /// Scores of the address rows `slots`, each the in-order chain over
    /// the stored words, with each row's flag and the rows' merged
    /// register.
    fn chain_scores(
        m: &MemModule,
        key_q: &[Fixed],
        key_st: &NumericStatus,
        slots: &[usize],
    ) -> (Vec<Fixed>, Vec<bool>, NumericStatus) {
        let mut rows_st = NumericStatus::default();
        let mut flags = Vec::new();
        let mut scores = Vec::new();
        for &i in slots {
            let mut row_st = NumericStatus::default();
            scores.push(fixed::dot_tracked(m.addr_row(i), key_q, &mut row_st));
            flags.push(key_st.stressed() || row_st.stressed());
            rows_st.merge(&row_st);
        }
        (scores, flags, rows_st)
    }

    /// The shared softmax tail over `scores`; an event in it flags every
    /// weight.
    fn tail(
        m: &MemModule,
        scores: Vec<Fixed>,
        flags: &mut [bool],
    ) -> (Vec<Fixed>, NumericStatus, Cycles) {
        let mut st = NumericStatus::default();
        let mut attention = scores;
        let cycles = m.softmax_tail(&mut attention, &mut st);
        if st.stressed() {
            flags.iter_mut().for_each(|f| *f = true);
        }
        (attention, st, cycles)
    }

    /// The exact flagged addressing pass, from the chain.
    fn chain_address(m: &MemModule, key: &[Fixed]) -> Pass {
        if m.is_empty() {
            return empty_pass();
        }
        let mut key_st = NumericStatus::default();
        let key_q = requant(key, &mut key_st);
        let all: Vec<usize> = (0..m.len()).collect();
        let (scores, mut flags, rows_st) = chain_scores(m, &key_q, &key_st, &all);
        let (attention, tail_st, tail_cycles) = tail(m, scores, &mut flags);
        Pass {
            attention,
            flags,
            st: key_st.merged(&rows_st).merged(&tail_st),
            cycles: m.score_cycles(m.len()) + tail_cycles,
        }
    }

    /// One indexed hop, from the chain: the probe's candidates scored,
    /// then either the candidate softmax scattered over the slots or the
    /// exact pass on fallback.
    fn chain_indexed(m: &MemModule, key: &[Fixed]) -> Pass {
        if m.is_empty() {
            return empty_pass();
        }
        let mut key_st = NumericStatus::default();
        let key_q = requant(key, &mut key_st);
        let mut probe_st = NumericStatus::default();
        let idx = m.index().expect("built");
        let (cands, probe_cycles, probe_stressed) = idx.probe(&key_q, &mut probe_st);
        let (scores, mut cand_flags, rows_st) = chain_scores(m, &key_q, &key_st, &cands);
        let scores_f: Vec<f32> = scores.iter().map(|s| s.to_f32()).collect();
        let best = scores_f.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let worst = scores_f.iter().copied().fold(f32::INFINITY, f32::min);
        let st = key_st.merged(&probe_st).merged(&rows_st);
        let front = probe_cycles + m.score_cycles(cands.len());
        if probe_stressed || cands.is_empty() || best - worst <= idx.config().band {
            let exact = chain_address(m, key);
            return Pass {
                st: st.merged(&exact.st),
                cycles: front + exact.cycles,
                ..exact
            };
        }
        let (cand_att, tail_st, tail_cycles) = tail(m, scores, &mut cand_flags);
        let mut attention = vec![Fixed::ZERO; m.len()];
        let mut flags = vec![false; m.len()];
        for ((&slot, &w), &f) in cands.iter().zip(&cand_att).zip(&cand_flags) {
            attention[slot] = w;
            flags[slot] = f;
        }
        Pass {
            attention,
            flags,
            st: st.merged(&tail_st),
            cycles: front + tail_cycles,
        }
    }

    /// A soft read, from the chain over each stored content column.
    fn chain_read(m: &MemModule, attention: &[Fixed]) -> (Vec<Fixed>, NumericStatus, Cycles) {
        let mut st = NumericStatus::default();
        let att_q = requant(attention, &mut st);
        let out: Vec<Fixed> = (0..m.embed_dim)
            .map(|j| {
                let column = att_q
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (*a, m.content[i * m.embed_dim + j]));
                fixed::dot_tracked_pairs(column, &mut st)
            })
            .collect();
        (out, st, m.score_cycles(m.len()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The four addressing passes and both soft reads equal the
        /// in-order chain over the stored words, pushed through the same
        /// softmax tail, in attention words, flags, cycles and status, on
        /// rows that saturate and rows that do not, with keys and attention
        /// words beyond `2^24` and on the rails.
        #[test]
        fn mem_passes_match_the_in_order_chain(
            (e, rows, (keys, atts), (k, nprobe, band)) in (1usize..=6, 0usize..=8)
                .prop_flat_map(|(e, l)| {
                    (
                        Just(e),
                        vec((stress_vec(e), stress_vec(e)), l),
                        (vec(stress_words(e), 1..=3), vec(stress_words(l), 1..=3)),
                        (1usize..=4, 0usize..4, 0usize..3),
                    )
                })
        ) {
            let mut m = MemModule::new(e, &DatapathConfig::default());
            for (a, c) in &rows {
                write_f32_rows(&mut m, a, c, &mut NumericStatus::default());
            }
            let want: Vec<Pass> = keys.iter().map(|key| chain_address(&m, key)).collect();
            for (key, want) in keys.iter().zip(&want) {
                let mut att = Vec::new();
                let mut st = NumericStatus::default();
                let cycles = m.address_words_tracked(key, &mut att, &mut st);
                prop_assert_eq!(
                    (&att, st, cycles),
                    (&want.attention, want.st, want.cycles)
                );
                let mut flags = Vec::new();
                let mut st = NumericStatus::default();
                let cycles = m.address_flagged_into_tracked(key, &mut att, &mut st, &mut flags);
                let got = Pass { attention: att, flags, st, cycles };
                prop_assert_eq!(&got, want);
            }
            let key_refs: Vec<&[Fixed]> = keys.iter().map(Vec::as_slice).collect();
            let mut batch_att = Vec::new();
            let mut batch_st = vec![NumericStatus::default(); keys.len()];
            let mut batch_flags = Vec::new();
            let batch_cycles = m.address_batch_flagged_into_tracked(
                &key_refs,
                &mut batch_att,
                &mut batch_st,
                &mut batch_flags,
            );
            for (q, want) in want.iter().enumerate() {
                let got = Pass {
                    attention: batch_att[q].clone(),
                    flags: batch_flags[q].clone(),
                    st: batch_st[q],
                    cycles: batch_cycles[q],
                };
                prop_assert_eq!(&got, want);
            }

            let mut mi = m.clone();
            let cfg = MemIndexConfig::with_params(k, nprobe % k + 1, [0.0, 0.5, 1.0e9][band]);
            mi.build_index(cfg, &mut NumericStatus::default());
            for key in &keys {
                let mut att = Vec::new();
                let mut st = NumericStatus::default();
                let mut flags = Vec::new();
                let (cycles, hop) =
                    mi.address_indexed_flagged_into_tracked(key, &mut att, &mut st, &mut flags);
                // A fallback hop records the key's quantizer twice, for the
                // probe and for the rescan.
                let mut key_st = NumericStatus::default();
                requant(key, &mut key_st);
                let copies = if m.is_empty() { 0 } else if hop.fallback { 2 } else { 1 };
                prop_assert!(st.quant_clamp >= copies * key_st.quant_clamp);
                let got = Pass { attention: att, flags, st, cycles };
                prop_assert_eq!(got, chain_indexed(&mi, key));
            }

            let att_refs: Vec<&[Fixed]> = atts.iter().map(Vec::as_slice).collect();
            let mut reads = Vec::new();
            let mut read_sts = vec![NumericStatus::default(); atts.len()];
            let read_cycles = m.read_batch_into_tracked(&att_refs, &mut reads, &mut read_sts);
            for (q, attention) in atts.iter().enumerate() {
                let want = chain_read(&m, attention);
                let mut out = Vec::new();
                let mut st = NumericStatus::default();
                let cycles = m.read_words_tracked(attention, &mut out, &mut st);
                prop_assert_eq!(&(out, st, cycles), &want);
                prop_assert_eq!((reads[q].clone(), read_sts[q], read_cycles[q]), want);
            }
        }

        /// The divider guard has nothing to catch on any score vector of
        /// the stress mix.
        #[test]
        fn softmax_denominator_holds_on_stress_words(
            scores in (1usize..=12).prop_flat_map(stress_words)
        ) {
            assert_denominator_is_at_least_one(&scores);
        }
    }
}
