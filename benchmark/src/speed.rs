//! Host times at one reference speed.
//!
//! The host clock runs on a machine shared with other tenants, whose
//! speed changes in phases of seconds to minutes: over five minutes, the
//! median `story_heavy` serve of a 15-second window took between 15 and
//! 27 ms. A fixed reference loop, timed before and after every measured
//! call, slows down with it. Each call's wall time over its reference
//! loops', times [`REFERENCE_S`], is the call's time at the reference
//! speed, and the median of those is the metric. The loop is this file's
//! own code, so no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Wall seconds of one reference loop at the reference speed. Only ratios
/// between runs matter; this round number is of the order of the loop's
/// time on the machine README.md describes (5 to 10 ms).
pub const REFERENCE_S: f64 = 0.005;

/// Words in the reference loop's buffer: 4 MiB, more than a core's
/// private caches hold, so the loop feels the shared cache and memory the
/// way a serve does.
const WORDS: usize = 1 << 19;

/// Steps of each half of the reference loop. A memory half alone tracked
/// `story_heavy` and `cluster_churn` but not `unique_stories`, whose
/// fixed-point datapath is arithmetic; equal step counts of the memory
/// and the arithmetic half tracked all three best.
const STEPS: u64 = 1_000_000;

/// The reference loop and its buffer.
pub struct Reference(Vec<u64>);

impl Reference {
    pub fn new() -> Self {
        Self(vec![1; WORDS])
    }

    /// Runs the loop once and returns its wall seconds: dependent random
    /// reads and writes over the buffer, then a dependent multiply chain.
    fn seconds(&mut self) -> f64 {
        let start = Instant::now();
        let buf = black_box(&mut self.0);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % WORDS as u64) as usize;
            acc = acc.wrapping_add(buf[i]);
            buf[i] = acc ^ x;
        }
        for i in 0..black_box(STEPS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_mul(31).wrapping_add(x ^ i);
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// Wall times of one repeated call, bracketed by the reference loop: the
/// loop runs before the first call and after every call.
#[derive(Default)]
pub struct Timings {
    secs: Vec<f64>,
    /// One more than `secs`: the loop before call `i` is entry `i`, the
    /// loop after it entry `i + 1`.
    reference_secs: Vec<f64>,
}

impl Timings {
    /// Times `f` between two reference loops; returns what `f` returned.
    pub fn time<T>(&mut self, reference: &mut Reference, f: impl FnOnce() -> T) -> T {
        if self.reference_secs.is_empty() {
            self.reference_secs.push(reference.seconds());
        }
        let start = Instant::now();
        let out = f();
        self.secs.push(start.elapsed().as_secs_f64());
        self.reference_secs.push(reference.seconds());
        out
    }

    pub fn len(&self) -> usize {
        self.secs.len()
    }

    /// Median wall seconds of the call, as measured.
    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }

    /// Median wall seconds of the reference loop.
    pub fn median_reference_s(&self) -> f64 {
        median(&self.reference_secs)
    }

    /// Median wall seconds of the call at the reference speed, each call
    /// against the mean of the loops before and after it.
    pub fn at_reference_speed(&self) -> f64 {
        let scaled: Vec<f64> = self
            .secs
            .iter()
            .zip(self.reference_secs.windows(2))
            .map(|(s, r)| s / (r[0] + r[1]) * 2.0 * REFERENCE_S)
            .collect();
        median(&scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_call_as_slow_as_its_reference_loops_takes_reference_s() {
        let t = Timings {
            secs: vec![0.25, 1.0, 0.125],
            reference_secs: vec![0.375, 0.125, 0.375, 0.125],
        };
        assert_eq!(t.len(), 3);
        assert_eq!(t.median_s(), 0.25);
        assert_eq!(t.median_reference_s(), 0.25);
        // Ratios 1, 4 and 0.5: the median call is as slow as its loops.
        assert_eq!(t.at_reference_speed(), REFERENCE_S);
    }

    #[test]
    fn the_reference_loop_brackets_every_call() {
        let mut reference = Reference::new();
        let mut t = Timings::default();
        assert_eq!(t.time(&mut reference, || 7), 7);
        t.time(&mut reference, || ());
        assert_eq!((t.secs.len(), t.reference_secs.len()), (2, 3));
        assert!(t.reference_secs.iter().all(|&s| s > 0.0));
    }
}
