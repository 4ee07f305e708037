//! Order statistics and the capacity ladder.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of the `permille`-th per-mille of `n` samples,
/// `ceil(n * permille / 1000)`, in integers so that p99.9 of 10 000
/// samples is exactly rank 9 990 (the float form rounds up to 9 991).
fn nearest_rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted `samples`; 0 for no samples.
pub fn percentile(samples: &[u64], permille: usize) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[nearest_rank(s.len(), permille) - 1]
}

/// The rung of the workload's own arrival rate.
const BASE_RUNG: usize = 4;

/// Rungs of the capacity ladder, as multiples of the workload's own
/// arrival rate: 2^(k/4) for k = -4..=4.
fn rungs() -> Vec<f64> {
    (-4..=4).map(|k| 2f64.powf(f64::from(k) / 4.0)).collect()
}

/// Bisection steps between the highest passing rung and the next one;
/// three steps resolve the capacity to 2^(1/32), about 2 %.
const REFINE_STEPS: usize = 3;

/// The highest rate multiple on the ladder at which `pass` holds, found by
/// walking from the base rung (up while passing, down while failing) and
/// then bisecting, in log space, the gap to the first failing rung above
/// it. Returns 0 when no rung passes. Assumes `pass` holds at every rate
/// below one where it holds, which is what a queue does; the walk never
/// looks past the first failure.
pub fn capacity(mut pass: impl FnMut(f64) -> bool) -> f64 {
    let rungs = rungs();
    let best = if pass(rungs[BASE_RUNG]) {
        let mut best = BASE_RUNG;
        while best + 1 < rungs.len() && pass(rungs[best + 1]) {
            best += 1;
        }
        best
    } else {
        match (0..BASE_RUNG).rev().find(|&k| pass(rungs[k])) {
            Some(k) => k,
            None => return 0.0,
        }
    };
    if best + 1 == rungs.len() {
        return rungs[best];
    }
    let (mut lo, mut hi) = (rungs[best].ln(), rungs[best + 1].ln());
    for _ in 0..REFINE_STEPS {
        let mid = (lo + hi) / 2.0;
        if pass(mid.exp()) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p999_of_ten_thousand_is_rank_9990() {
        assert_eq!(nearest_rank(10_000, 999), 9_990);
        assert_eq!(nearest_rank(10_000, 500), 5_000);
        assert_eq!(nearest_rank(1, 999), 1);
        let samples: Vec<u64> = (1..=10_000).rev().collect();
        assert_eq!(percentile(&samples, 999), 9_990);
        assert_eq!(percentile(&[], 999), 0);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ladder_picks_the_highest_passing_rate() {
        let r = rungs();
        assert_eq!(r[BASE_RUNG], 1.0);
        // Every rung passes: the top rung, with nothing left to refine.
        assert_eq!(capacity(|_| true), r[8]);
        // Only the bottom rung passes, found walking down from the base.
        assert_eq!(capacity(|x| x <= r[0]), r[0]);
        // A knee between rungs: the walk stops below it and bisection
        // lands within one refinement step under it.
        let knee = 1.3;
        let c = capacity(|x| x <= knee);
        assert!(c <= knee && c > r[5], "capacity {c}");
        assert!(knee / c < 2f64.powf(1.0 / 32.0) + 1e-12, "capacity {c}");
    }

    #[test]
    fn ladder_returns_zero_when_no_rate_passes() {
        assert_eq!(capacity(|_| false), 0.0);
    }
}
