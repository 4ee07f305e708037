//! Candidate-generation index in front of MEM: sub-linear content-based
//! addressing for large story memories.
//!
//! The MEM module's addressing pass (Eq 1) streams every occupied slot
//! through the adder tree and then pays the sequential divider once per
//! slot — O(L) in the story length, with the divider dominating at scale.
//! This module applies the paper's own "approximate MIPS" idea (inference
//! thresholding, Park et al. 2019 — there applied to OUTPUT) to address
//! memory: a small IVF-style clustering index built once per story at
//! `write_story` time narrows each addressing pass to the members of the
//! `nprobe` centroids nearest the query key, and the exact fixed-point
//! scorer runs only over those candidates.
//!
//! Safety rails mirror the established ExitGuard discipline:
//!
//! * **Margin fallback**: after exact scoring, when the best candidate
//!   score sits within `band` of the worst retained candidate's score the
//!   ranking carries no usable margin — the full exact scan runs instead,
//!   so the hop's attention is bit-identical to the unindexed datapath.
//! * **Probe saturation fallback**: a centroid walk that saturated Q16.16
//!   picked its candidates through flagged arithmetic; the hop falls back
//!   to the exact scan.
//! * **Inert when disabled**: a disabled config never builds an index and
//!   the addressing path is byte-identical to the exact scan.
//!
//! The cycle model charges the index walk to the same hardware the exact
//! scan uses: centroid dot-products take adder-tree issue slots
//! (`ceil(E/width)` per centroid) plus the tree latency, top-`nprobe`
//! selection and candidate-list gather take one bookkeeping cycle per
//! element, and the build (Lloyd assignment/update sweeps over the
//! quantized address rows) is charged to the story-upload phase.

use serde::{Deserialize, Serialize};

use mann_linalg::{fixed, Fixed, NumericStatus};

use crate::adder_tree::AdderTree;
use crate::Cycles;

/// Configuration of the addressing candidate index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemIndexConfig {
    /// When false, addressing runs the exact O(L) scan — the seed datapath.
    pub enabled: bool,
    /// Number of centroids built per story (clamped to the story length).
    pub k: usize,
    /// Centroids probed per hop, `1 ..= k`.
    pub nprobe: usize,
    /// Fallback margin: when the best exact candidate score is within
    /// `band` of the worst retained candidate's score, the hop falls back
    /// to the full scan. `0` falls back only on exact ties.
    pub band: f32,
}

impl Default for MemIndexConfig {
    fn default() -> Self {
        MemIndexConfig {
            enabled: false,
            k: 16,
            nprobe: 4,
            band: 0.0,
        }
    }
}

/// A malformed mem-index spec (the serve CLI's `--mem-index`). Invalid
/// values are rejected rather than silently falling back to the default.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
#[error(
    "invalid mem-index spec {value:?}: expected `off` or `k,nprobe,band` \
     with k >= 1, 1 <= nprobe <= k, and a finite band >= 0"
)]
pub struct MemIndexError {
    /// The rejected input.
    pub value: String,
}

impl MemIndexConfig {
    /// An enabled index with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `k >= 1`, `1 <= nprobe <= k`, and `band` is finite
    /// and `>= 0`.
    pub fn with_params(k: usize, nprobe: usize, band: f32) -> Self {
        assert!(k >= 1, "mem-index k {k} < 1");
        assert!(
            nprobe >= 1 && nprobe <= k,
            "mem-index nprobe {nprobe} outside 1..={k}"
        );
        assert!(
            band.is_finite() && band >= 0.0,
            "mem-index band {band} not a finite non-negative number"
        );
        MemIndexConfig {
            enabled: true,
            k,
            nprobe,
            band,
        }
    }

    /// Parses a CLI-style spec: `off` disables the index, anything else
    /// must be `k,nprobe,band`.
    ///
    /// # Errors
    ///
    /// Returns [`MemIndexError`] for malformed input: wrong arity,
    /// non-numeric parts, `k < 1`, `nprobe` outside `1..=k`, or a
    /// negative/non-finite band.
    pub fn parse(s: &str) -> Result<Self, MemIndexError> {
        if s == "off" {
            return Ok(Self::default());
        }
        let err = || MemIndexError {
            value: s.to_owned(),
        };
        let parts: Vec<&str> = s.split(',').collect();
        let [k, nprobe, band] = parts.as_slice() else {
            return Err(err());
        };
        let k: usize = k.trim().parse().map_err(|_| err())?;
        let nprobe: usize = nprobe.trim().parse().map_err(|_| err())?;
        let band: f32 = band.trim().parse().map_err(|_| err())?;
        if k < 1 || nprobe < 1 || nprobe > k || !band.is_finite() || band < 0.0 {
            return Err(err());
        }
        Ok(Self::with_params(k, nprobe, band))
    }
}

impl std::fmt::Display for MemIndexConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.enabled {
            write!(f, "{},{},{}", self.k, self.nprobe, self.band)
        } else {
            write!(f, "off")
        }
    }
}

/// Per-inference index accounting, attributed exactly like cycle phases:
/// counters sum across hops (and compose across the story/query split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IndexCounters {
    /// Memory slots scored exactly (candidates, plus every slot of each
    /// fallback hop). With the index enabled,
    /// `scanned + skipped == L * hops_executed`.
    pub scanned_slots: u64,
    /// Memory slots whose exact scoring the index skipped.
    pub skipped_slots: u64,
    /// Hops that fell back to the full exact scan (tight margin or a
    /// saturated probe).
    pub fallbacks: u64,
    /// Cycles spent building the story's index (charged to INPUT & WRITE;
    /// nonzero only on runs that paid the story write).
    pub build_cycles: u64,
    /// Addressing cycles saved vs the exact-scan counterfactual, summed
    /// over hops (a fallback hop saves nothing and its probe overhead is
    /// visible in `fallbacks`).
    pub cycles_saved: u64,
}

impl std::ops::Add for IndexCounters {
    type Output = IndexCounters;
    fn add(self, rhs: IndexCounters) -> IndexCounters {
        IndexCounters {
            scanned_slots: self.scanned_slots + rhs.scanned_slots,
            skipped_slots: self.skipped_slots + rhs.skipped_slots,
            fallbacks: self.fallbacks + rhs.fallbacks,
            build_cycles: self.build_cycles + rhs.build_cycles,
            cycles_saved: self.cycles_saved + rhs.cycles_saved,
        }
    }
}

impl std::ops::AddAssign for IndexCounters {
    fn add_assign(&mut self, rhs: IndexCounters) {
        *self = *self + rhs;
    }
}

/// What one indexed addressing hop did — the per-hop slice of
/// [`IndexCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedHopStats {
    /// Slots scored exactly this hop.
    pub scanned: u64,
    /// Slots skipped this hop.
    pub skipped: u64,
    /// Whether the hop fell back to the full scan.
    pub fallback: bool,
}

/// The per-story IVF index: `k_eff` centroids over the quantized address
/// rows, with disjoint member lists covering every slot.
///
/// The build runs Lloyd's algorithm on the dequantized rows (squared-L2
/// assignment, deterministic `min_by` ties toward the lower centroid
/// index) and stores the final centroids re-quantized, as the BRAM would.
/// Probing scores the key against every centroid with the same certified
/// fixed-point MAC entry the exact scan uses, keeps the `nprobe` best by
/// dot product, and returns the union of their member lists in ascending
/// slot order.
#[derive(Debug, Clone)]
pub struct MemIndex {
    config: MemIndexConfig,
    /// The stored centroids, row-major, `embed_dim` words each.
    centroids: Vec<Fixed>,
    embed_dim: usize,
    /// `max|w|` over every stored centroid word, taken at build.
    centroid_abs_max: u64,
    /// Every slot, grouped by centroid, ascending within each group.
    members: Vec<usize>,
    /// Centroid `c`'s group is `members[member_starts[c]..member_starts[c + 1]]`.
    member_starts: Vec<usize>,
    build_cycles: u64,
    per_dot: u64,
    tree_depth: u64,
}

/// Lloyd assignment/update sweeps run at build time.
const BUILD_ROUNDS: usize = 2;

impl MemIndex {
    /// Builds the index over `rows`, the story's address table: its
    /// quantized rows of `embed_dim` words each, row-major in slot order.
    /// The build reads the table in place, converting each word to `f32`
    /// where it is used, and allocates a fixed number of buffers whatever
    /// the story length. Quantizer events from storing the centroids land
    /// in `st`, merged into the story's write register like every other
    /// BRAM write.
    ///
    /// # Panics
    ///
    /// Panics unless `config.enabled` (a disabled config must never build),
    /// or if `embed_dim` is 0.
    pub fn build(
        rows: &[Fixed],
        config: MemIndexConfig,
        tree: &AdderTree,
        embed_dim: usize,
        st: &mut NumericStatus,
    ) -> Self {
        assert!(config.enabled, "building an index from a disabled config");
        let e = embed_dim;
        let l = rows.len() / e;
        let mut index = MemIndex {
            config,
            centroids: Vec::new(),
            embed_dim,
            centroid_abs_max: 0,
            members: Vec::new(),
            member_starts: Vec::new(),
            build_cycles: 0,
            per_dot: e.div_ceil(tree.width()) as u64,
            tree_depth: tree.depth(),
        };
        if l == 0 {
            return index;
        }
        let k_eff = config.k.min(l);
        let row = |i: usize| &rows[i * e..(i + 1) * e];
        // Deterministic init: evenly spaced story rows.
        let mut centroids_f = Vec::with_capacity(k_eff * e);
        for c in 0..k_eff {
            centroids_f.extend(row(c * l / k_eff).iter().map(|x| x.to_f32()));
        }
        let assign = |centroids_f: &[f32], assignment: &mut [usize]| {
            for (i, slot) in assignment.iter_mut().enumerate() {
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for (c, cent) in centroids_f.chunks_exact(e).enumerate() {
                    let d: f32 = row(i)
                        .iter()
                        .zip(cent)
                        .map(|(a, b)| {
                            let d = a.to_f32() - b;
                            d * d
                        })
                        .sum();
                    // Strict `<` ties toward the lower centroid index.
                    if d < best_d {
                        best = c;
                        best_d = d;
                    }
                }
                *slot = best;
            }
        };
        let mut assignment = vec![0usize; l];
        let mut counts = vec![0usize; k_eff];
        for _ in 0..BUILD_ROUNDS {
            assign(&centroids_f, &mut assignment);
            counts.fill(0);
            for &c in &assignment {
                counts[c] += 1;
            }
            // Each non-empty cluster's centroid becomes its members' mean;
            // empty clusters keep their previous centroid.
            for (cent, &count) in centroids_f.chunks_exact_mut(e).zip(&counts) {
                if count > 0 {
                    cent.fill(0.0);
                }
            }
            for (i, &c) in assignment.iter().enumerate() {
                for (s, x) in centroids_f[c * e..(c + 1) * e].iter_mut().zip(row(i)) {
                    *s += x.to_f32();
                }
            }
            for (cent, &count) in centroids_f.chunks_exact_mut(e).zip(&counts) {
                if count > 0 {
                    cent.iter_mut().for_each(|s| *s /= count as f32);
                }
            }
        }
        assign(&centroids_f, &mut assignment);
        index.members.reserve_exact(l);
        index.member_starts.reserve_exact(k_eff + 1);
        index.member_starts.push(0);
        for c in 0..k_eff {
            index
                .members
                .extend((0..l).filter(|&slot| assignment[slot] == c));
            index.member_starts.push(index.members.len());
        }
        index.centroids = centroids_f
            .iter()
            .map(|&x| Fixed::from_f32_tracked(x, st))
            .collect();
        index.centroid_abs_max = fixed::abs_max(&index.centroids);
        // Build cost, charged to the story-upload phase: each of the
        // `BUILD_ROUNDS + 1` assignment sweeps scores every row against
        // every centroid through the adder tree; each update sweep
        // re-accumulates every row once; storing the centroids takes one
        // BRAM write slot each.
        let (per_dot, depth) = (index.per_dot, index.tree_depth);
        let sweeps = (BUILD_ROUNDS as u64 + 1) * (l as u64 * k_eff as u64 * per_dot + depth + 1);
        let updates = BUILD_ROUNDS as u64 * (l as u64 * per_dot + depth + 1);
        index.build_cycles = sweeps + updates + k_eff as u64;
        index
    }

    /// The slots of centroid `c`, ascending.
    fn members(&self, c: usize) -> &[usize] {
        &self.members[self.member_starts[c]..self.member_starts[c + 1]]
    }

    /// The generating configuration.
    pub fn config(&self) -> &MemIndexConfig {
        &self.config
    }

    /// Number of centroids actually built (`min(k, L)`).
    pub fn centroid_count(&self) -> usize {
        self.centroids.len() / self.embed_dim
    }

    /// Cycles the build charged to the story-upload phase.
    pub fn build_cycles(&self) -> u64 {
        self.build_cycles
    }

    /// Probes the index with an already-quantized key whose `Σ|k|` is
    /// `key_sum` (the caller's scan of the key): scores every centroid
    /// with the certified fixed-point MAC entry (`key_sum` against the
    /// centroids' `max|w|`), keeps the `nprobe` best by dot product (ties
    /// toward the lower centroid index), and returns `(candidates, cycles,
    /// probe_stressed)` — the union of the selected members in ascending
    /// slot order, the walk's cycle cost, and whether the centroid
    /// arithmetic recorded any numeric event (which the caller must treat
    /// as a fallback signal).
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the centroid width.
    pub fn probe(
        &self,
        key_q: &[Fixed],
        key_sum: u64,
        st: &mut NumericStatus,
    ) -> (Vec<usize>, Cycles, bool) {
        let k_eff = self.centroid_count();
        if k_eff == 0 {
            return (Vec::new(), Cycles::ZERO, false);
        }
        let mut probe_st = NumericStatus::default();
        let mut scores: Vec<Fixed> = Vec::with_capacity(k_eff);
        for cent in self.centroids.chunks_exact(self.embed_dim) {
            scores.push(fixed::dot_certified(
                cent,
                key_q,
                key_sum,
                self.centroid_abs_max,
                &mut probe_st,
            ));
        }
        let nprobe = self.config.nprobe.min(k_eff);
        let mut order: Vec<usize> = (0..k_eff).collect();
        // Descending score; equal scores keep the lower centroid first.
        order.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
        let mut candidates: Vec<usize> = order[..nprobe]
            .iter()
            .flat_map(|&c| self.members(c).iter().copied())
            .collect();
        candidates.sort_unstable();
        // Centroid scores through the tree, top-nprobe selection compares,
        // and one gather slot per surviving candidate.
        let cycles = Cycles::new(
            k_eff as u64 * self.per_dot
                + self.tree_depth
                + 1
                + k_eff as u64
                + candidates.len() as u64,
        );
        let stressed = probe_st.stressed();
        st.merge(&probe_st);
        (candidates, cycles, stressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatapathConfig;

    /// An address table of `l` rows of `e` words.
    fn rows(l: usize, e: usize) -> Vec<Fixed> {
        (0..l * e)
            .map(|n| Fixed::from_f32(((n / e * 7 + n % e) as f32 * 0.13).sin()))
            .collect()
    }

    fn tree() -> AdderTree {
        AdderTree::new(DatapathConfig::default().tree_width)
    }

    #[test]
    fn default_is_off() {
        let c = MemIndexConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.to_string(), "off");
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(MemIndexConfig::parse("off"), Ok(MemIndexConfig::default()));
        let c = MemIndexConfig::parse("64,8,0.5").unwrap();
        assert_eq!(c, MemIndexConfig::with_params(64, 8, 0.5));
        assert_eq!(MemIndexConfig::parse(&c.to_string()), Ok(c));
        assert_eq!(
            MemIndexConfig::parse(&MemIndexConfig::default().to_string()),
            Ok(MemIndexConfig::default())
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "of",
            "64",
            "64,8",
            "64,8,0.5,9",
            "0,1,0",
            "8,0,0",
            "8,9,0",
            "8,4,-1",
            "8,4,NaN",
            "8,4,inf",
            "x,4,0",
            "8,y,0",
            "8,4,z",
        ] {
            let err = MemIndexConfig::parse(bad).unwrap_err();
            assert!(err.to_string().contains(bad) || bad.is_empty(), "{bad}");
        }
    }

    #[test]
    fn members_partition_the_slots() {
        let r = rows(50, 8);
        let mut st = NumericStatus::default();
        let idx = MemIndex::build(
            &r,
            MemIndexConfig::with_params(8, 2, 0.0),
            &tree(),
            8,
            &mut st,
        );
        assert_eq!(idx.centroid_count(), 8);
        let mut all = idx.members.clone();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
        assert!(idx.build_cycles() > 0);
    }

    #[test]
    fn k_clamps_to_story_length() {
        let r = rows(3, 8);
        let mut st = NumericStatus::default();
        let idx = MemIndex::build(
            &r,
            MemIndexConfig::with_params(64, 8, 0.0),
            &tree(),
            8,
            &mut st,
        );
        assert_eq!(idx.centroid_count(), 3);
    }

    #[test]
    fn probe_returns_sorted_candidates_and_charges_cycles() {
        let r = rows(40, 8);
        let mut st = NumericStatus::default();
        let idx = MemIndex::build(
            &r,
            MemIndexConfig::with_params(8, 3, 0.0),
            &tree(),
            8,
            &mut st,
        );
        let key: Vec<Fixed> = (0..8)
            .map(|j| Fixed::from_f32((j as f32 * 0.3).cos()))
            .collect();
        let (cands, cycles, stressed) = idx.probe(&key, fixed::abs_sum(&key), &mut st);
        assert!(!stressed);
        assert!(!cands.is_empty() && cands.len() < 40);
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        assert!(cycles.get() > 0);
    }

    #[test]
    fn probe_is_deterministic() {
        let r = rows(30, 8);
        let mut st = NumericStatus::default();
        let cfg = MemIndexConfig::with_params(6, 2, 0.0);
        let a = MemIndex::build(&r, cfg, &tree(), 8, &mut st);
        let b = MemIndex::build(&r, cfg, &tree(), 8, &mut st);
        let key: Vec<Fixed> = (0..8).map(|j| Fixed::from_f32(j as f32 * 0.1)).collect();
        let mut s1 = NumericStatus::default();
        let mut s2 = NumericStatus::default();
        let key_sum = fixed::abs_sum(&key);
        assert_eq!(
            a.probe(&key, key_sum, &mut s1),
            b.probe(&key, key_sum, &mut s2)
        );
        assert_eq!(s1, s2);
    }

    #[test]
    fn saturated_probe_reports_stress() {
        let e = 4;
        let r = vec![Fixed::from_f32(30000.0); 4 * e];
        let mut st = NumericStatus::default();
        let idx = MemIndex::build(
            &r,
            MemIndexConfig::with_params(2, 1, 0.0),
            &tree(),
            e,
            &mut st,
        );
        let key: Vec<Fixed> = (0..e).map(|_| Fixed::from_f32(30000.0)).collect();
        let mut pst = NumericStatus::default();
        let (_, _, stressed) = idx.probe(&key, fixed::abs_sum(&key), &mut pst);
        assert!(stressed, "saturating centroid MACs must flag the probe");
        assert!(pst.stressed());
    }

    #[test]
    #[should_panic(expected = "disabled")]
    fn building_from_a_disabled_config_panics() {
        let mut st = NumericStatus::default();
        let _ = MemIndex::build(&rows(4, 8), MemIndexConfig::default(), &tree(), 8, &mut st);
    }

    use crate::test_support::{quantized, stress_vec};
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The probe equals the in-order chain over each stored centroid
        /// followed by the top-`nprobe` selection, in candidates, cycles,
        /// stress flag and status, on centroids and keys from the stress
        /// mix.
        #[test]
        fn probe_matches_the_in_order_chain(
            (e, rows, key, (k, nprobe)) in (1usize..=6, 0usize..=10).prop_flat_map(|(e, l)| {
                (Just(e), vec(stress_vec(e), l), stress_vec(e), (1usize..=5, 0usize..5))
            })
        ) {
            let rows: Vec<Fixed> = rows.iter().flat_map(|r| quantized(r)).collect();
            let key = quantized(&key);
            let cfg = MemIndexConfig::with_params(k, nprobe % k + 1, 0.0);
            let idx = MemIndex::build(
                &rows,
                cfg,
                &tree(),
                e,
                &mut NumericStatus::default(),
            );
            let mut want_st = NumericStatus::default();
            let scores: Vec<Fixed> = idx
                .centroids
                .chunks_exact(e)
                .map(|c| fixed::dot_tracked(c, &key, &mut want_st))
                .collect();
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
            let mut want: Vec<usize> = order[..cfg.nprobe.min(scores.len())]
                .iter()
                .flat_map(|&c| idx.members(c).iter().copied())
                .collect();
            want.sort_unstable();
            let k_eff = scores.len() as u64;
            let want_cycles = if k_eff == 0 {
                Cycles::ZERO
            } else {
                let depth = tree().depth();
                Cycles::new(k_eff * idx.per_dot + depth + 1 + k_eff + want.len() as u64)
            };
            let mut st = NumericStatus::default();
            let got = idx.probe(&key, fixed::abs_sum(&key), &mut st);
            prop_assert_eq!(got, (want, want_cycles, want_st.stressed()));
            prop_assert_eq!(st, want_st);
        }
    }
}
