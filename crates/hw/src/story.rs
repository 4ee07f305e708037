//! Content-addressed story residency: digests and the LRU residency model.
//!
//! The paper's MEM module writes a story into address/content memory once
//! and then answers queries against it (Fig 1). A served trace with many
//! questions over the same story — the bAbI access pattern — therefore
//! re-pays the INPUT & WRITE phase and the PCIe story upload for work the
//! on-chip memories already hold. The serving layer keeps an [`LruSet`] of
//! story keys per accelerator instance, modelling the last `K` written
//! stories held resident: a hit skips the write-phase cycles and ships only
//! the question over the link.
//!
//! Capacity models on-chip memory: one resident story occupies `2 * L * E`
//! fixed-point words of BRAM (address + content rows), so a bounded LRU of
//! whole stories is exactly what a double-buffered BRAM allocator would
//! hold. Eviction is least-recently-used, matching a hardware replacement
//! register file.

use mann_babi::EncodedSample;
use serde::{Deserialize, Serialize};

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^n` (wrapping) for `n` from 0 to 8.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut n = 1;
    while n < 9 {
        powers[n] = powers[n - 1].wrapping_mul(FNV_PRIME);
        n += 1;
    }
    powers
};

/// `hash` after FNV-1a absorbs the 8 little-endian bytes of `v`. A zero
/// byte leaves the xor as it is, so it only multiplies by the prime: the
/// bytes up to the highest nonzero one are absorbed one by one and the zero
/// bytes above it in one multiply by a power of the prime, which gives the
/// byte-wise loop's value. [`story_digest`] and the serve's answers digest
/// fold with it, starting from [`FNV_OFFSET`].
#[inline]
pub fn fnv1a_absorb(mut hash: u64, mut v: u64) -> u64 {
    let bytes = 8 - v.leading_zeros() as usize / 8;
    for _ in 0..bytes {
        hash ^= v & 0xff;
        hash = hash.wrapping_mul(FNV_PRIME);
        v >>= 8;
    }
    hash.wrapping_mul(FNV_PRIME_POWERS[8 - bytes])
}

/// FNV-1a digest of a sample's *story* (sentence shapes and word indices;
/// the question is deliberately excluded), over the 8 little-endian bytes
/// of each value: the sentence count, then each sentence's length and word
/// indices. Two samples with the same story but different questions
/// collide on purpose — that is the reuse the cache exploits. The serve's
/// story identity, WAL records and rendezvous routing all derive from it,
/// so a test pins its value.
pub fn story_digest(sample: &EncodedSample) -> u64 {
    let mut hash = fnv1a_absorb(FNV_OFFSET, sample.sentences.len() as u64);
    for sent in &sample.sentences {
        hash = fnv1a_absorb(hash, sent.len() as u64);
        for &w in sent {
            hash = fnv1a_absorb(hash, w as u64);
        }
    }
    hash
}

/// Hit/miss/eviction counters of one cache (or one instance's residency
/// model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the story resident.
    pub hits: u64,
    /// Lookups that had to write the story.
    pub misses: u64,
    /// Resident stories displaced to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
    }
}

/// Outcome of admitting a key into an LRU set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Whether the key was already resident (and clean).
    pub hit: bool,
    /// The key evicted to make room, if any: in the serve, the index of
    /// the evicted story, which names its digest and task.
    pub evicted: Option<u64>,
    /// Whether the key was resident but poisoned by an SEU: the digest
    /// check caught the corruption, so the admit counts as a miss (the
    /// story must be re-uploaded and re-written) and the entry comes back
    /// clean.
    pub scrubbed: bool,
}

/// A bounded LRU set of story keys — the residency model the serving
/// layer keeps per instance. The serve's keys are story indices into its
/// precomputed table of written stories
/// ([`ResidentStory`](crate::ResidentStory)s), so instances only track
/// *which* stories they hold.
///
/// Keys are ordered least- to most-recently used in a `Vec`; capacities are
/// small (on-chip memory holds a handful of stories), so the `O(capacity)`
/// scan is cheaper than hashing and the iteration order is deterministic.
#[derive(Debug, Clone, Default)]
pub struct LruSet {
    capacity: usize,
    keys: Vec<u64>,
    // Resident keys whose BRAM image took a runtime SEU: still occupying a
    // slot, but the next admit detects the bad digest and scrubs.
    poisoned: Vec<u64>,
    stats: CacheStats,
}

impl LruSet {
    /// An empty set holding at most `capacity` keys (0 disables residency:
    /// every admit misses and nothing is retained).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            keys: Vec::with_capacity(capacity),
            poisoned: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Maximum resident keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently resident keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `key` is resident (does not touch recency or stats).
    pub fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    /// Accumulated hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident keys in least- to most-recently-used order.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Marks a resident key as SEU-poisoned: it keeps its slot, but the
    /// next admit of that key detects the digest mismatch and scrubs
    /// instead of hitting. Returns whether the key was resident (a flip in
    /// an unoccupied BRAM row is harmless). Idempotent.
    pub fn poison(&mut self, key: u64) -> bool {
        if !self.keys.contains(&key) {
            return false;
        }
        if !self.poisoned.contains(&key) {
            self.poisoned.push(key);
        }
        true
    }

    /// Whether `key` is resident but carrying an undetected SEU.
    pub fn is_poisoned(&self, key: u64) -> bool {
        self.poisoned.contains(&key)
    }

    /// Drops every resident key (and any pending poison marks) while
    /// keeping the counters — the failover invalidation: a recovering
    /// instance's BRAM contents cannot be trusted after a crash.
    pub fn clear_resident(&mut self) {
        self.keys.clear();
        self.poisoned.clear();
    }

    /// Admits `key`: a clean resident key is refreshed to
    /// most-recently-used, a new key is inserted, evicting the LRU key when
    /// full. A poisoned resident key is scrubbed: the admit counts as a
    /// miss (the caller re-pays the upload and write phase), the entry is
    /// refreshed and comes back clean.
    pub fn admit(&mut self, key: u64) -> Admission {
        if let Some(pos) = self.keys.iter().position(|&k| k == key) {
            self.keys.remove(pos);
            self.keys.push(key);
            if let Some(p) = self.poisoned.iter().position(|&k| k == key) {
                self.poisoned.remove(p);
                self.stats.misses += 1;
                return Admission {
                    hit: false,
                    evicted: None,
                    scrubbed: true,
                };
            }
            self.stats.hits += 1;
            return Admission {
                hit: true,
                evicted: None,
                scrubbed: false,
            };
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return Admission {
                hit: false,
                evicted: None,
                scrubbed: false,
            };
        }
        let evicted = if self.keys.len() == self.capacity {
            self.stats.evictions += 1;
            let gone = self.keys.remove(0);
            self.poisoned.retain(|&k| k != gone);
            Some(gone)
        } else {
            None
        };
        self.keys.push(key);
        Admission {
            hit: false,
            evicted,
            scrubbed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample(sentences: Vec<Vec<usize>>, question: Vec<usize>) -> EncodedSample {
        EncodedSample {
            sentences,
            question,
            answer: 0,
        }
    }

    /// The byte-wise FNV-1a loop over the story: the oracle of the folded
    /// digest.
    fn story_digest_bytewise(sample: &EncodedSample) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut absorb = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        absorb(sample.sentences.len() as u64);
        for sent in &sample.sentences {
            absorb(sent.len() as u64);
            for &w in sent {
                absorb(w as u64);
            }
        }
        hash
    }

    /// A value of `bytes` significant bytes (0 when `bytes` is 0), its
    /// lower bytes drawn from `low`.
    fn of_width(bytes: u32, low: u64) -> u64 {
        match bytes {
            0 => 0,
            8 => low | 1 << 63,
            b => (low & ((1 << (8 * b)) - 1)) | 1 << (8 * b - 1),
        }
    }

    #[test]
    fn digest_is_pinned() {
        // A change to this value moves every cache key, WAL record and
        // rendezvous route.
        let story = sample(
            vec![
                vec![3, 14, 15],
                vec![92, 65],
                vec![],
                vec![358, 97_932, usize::MAX],
            ],
            vec![2],
        );
        assert_eq!(story_digest(&story), 0x954a_a4d7_bd95_e486);
        assert_eq!(story_digest_bytewise(&story), 0x954a_a4d7_bd95_e486);
        assert_eq!(story_digest(&sample(vec![], vec![])), 0xa8c7_f832_281a_39c5);
    }

    proptest! {
        /// The folded digest equals the byte-wise loop on stories with
        /// empty sentences or none, and word indices of every byte width up
        /// to `usize::MAX`; so does one absorb of any value of every width,
        /// which covers the sentence counts and lengths too.
        #[test]
        fn folded_digest_is_the_bytewise_loop(
            sentences in vec(vec((0u32..=8, any::<u64>()), 0..12), 0..8),
            hash in any::<u64>(),
            values in vec((0u32..=8, any::<u64>()), 0..32),
        ) {
            let sentences = sentences
                .into_iter()
                .map(|sent| sent.into_iter().map(|(b, low)| of_width(b, low) as usize).collect())
                .collect();
            let story = sample(sentences, Vec::new());
            prop_assert_eq!(story_digest(&story), story_digest_bytewise(&story));
            for (b, low) in values {
                let v = of_width(b, low);
                let mut want = hash;
                for byte in v.to_le_bytes() {
                    want = (want ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                }
                prop_assert_eq!(fnv1a_absorb(hash, v), want, "{:#x}", v);
            }
        }
    }

    #[test]
    fn digest_ignores_question_but_not_story() {
        let a = sample(vec![vec![1, 2], vec![3]], vec![9]);
        let b = sample(vec![vec![1, 2], vec![3]], vec![7, 8]);
        let c = sample(vec![vec![1, 2], vec![4]], vec![9]);
        assert_eq!(story_digest(&a), story_digest(&b));
        assert_ne!(story_digest(&a), story_digest(&c));
    }

    #[test]
    fn digest_distinguishes_sentence_boundaries() {
        // Same word sequence, different sentence split.
        let a = sample(vec![vec![1, 2, 3]], vec![0]);
        let b = sample(vec![vec![1, 2], vec![3]], vec![0]);
        let c = sample(vec![vec![1], vec![2, 3]], vec![0]);
        assert_ne!(story_digest(&a), story_digest(&b));
        assert_ne!(story_digest(&b), story_digest(&c));
    }

    #[test]
    fn lru_set_admits_hits_and_evicts_in_lru_order() {
        let mut s = LruSet::new(2);
        assert!(!s.admit(1).hit);
        assert!(!s.admit(2).hit);
        assert!(s.admit(1).hit); // refresh 1 → LRU is now 2
        let a = s.admit(3);
        assert!(!a.hit);
        assert_eq!(a.evicted, Some(2));
        assert!(s.contains(1) && s.contains(3) && !s.contains(2));
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.evictions), (1, 3, 1));
    }

    #[test]
    fn zero_capacity_lru_never_retains() {
        let mut s = LruSet::new(0);
        for _ in 0..3 {
            let a = s.admit(7);
            assert!(!a.hit);
            assert_eq!(a.evicted, None);
        }
        assert!(s.is_empty());
        assert_eq!(s.stats().misses, 3);
        assert_eq!(s.stats().evictions, 0);
    }

    #[test]
    fn poisoned_key_scrubs_once_then_hits_clean() {
        let mut s = LruSet::new(2);
        s.admit(1);
        s.admit(2);
        assert!(s.poison(1));
        assert!(s.is_poisoned(1));
        assert!(!s.poison(99), "non-resident keys cannot be poisoned");
        let a = s.admit(1);
        assert!(a.scrubbed && !a.hit, "scrub counts as a miss");
        assert!(!s.is_poisoned(1));
        let b = s.admit(1);
        assert!(b.hit && !b.scrubbed, "scrubbed entry is clean again");
        let st = s.stats();
        assert_eq!((st.hits, st.misses), (1, 3));
    }

    #[test]
    fn eviction_and_clear_drop_poison_marks() {
        let mut s = LruSet::new(1);
        s.admit(5);
        s.poison(5);
        s.admit(6); // evicts 5
        s.admit(5); // 5 re-enters clean (the flip died with the old image)
        assert!(!s.is_poisoned(5));
        s.poison(5);
        let stats_before = s.stats();
        s.clear_resident();
        assert!(s.is_empty());
        assert!(!s.is_poisoned(5));
        assert_eq!(s.stats(), stats_before, "clear keeps the counters");
        assert!(!s.admit(5).scrubbed);
    }

    #[test]
    fn keys_expose_lru_order() {
        let mut s = LruSet::new(3);
        s.admit(1);
        s.admit(2);
        s.admit(1);
        assert_eq!(s.keys(), &[2, 1]);
    }

    #[test]
    fn hit_rate_is_well_defined() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
