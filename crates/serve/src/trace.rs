//! Seeded arrival traces: the deterministic "traffic" the server replays.
//!
//! Arrivals follow a Poisson process (exponential inter-arrival times drawn
//! by inverse CDF from the vendored deterministic `StdRng`), and each
//! request picks a uniformly random `(task, sample)` pair from the trained
//! suite — a multi-tenant mix. The same `(config, suite shape)` always
//! yields the same trace, byte for byte, which is what lets serving results
//! be compared across scheduler policies and instance counts.

use mann_core::TaskSuite;
use mann_hw::SimTime;
use rand::{Rng, SeedableRng, StdRng};
use serde::{Deserialize, Serialize};

use crate::Request;

/// Arrival-trace generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of requests.
    pub requests: usize,
    /// RNG seed (drives both arrival times and sample choices).
    pub seed: u64,
    /// Mean inter-arrival time, seconds. The default (200 µs) loads a
    /// 100 MHz instance to roughly its single-stream service rate, so a
    /// few instances sharing one link show real queueing.
    pub mean_interarrival_s: f64,
    /// Restrict each task's sample draws to its first `story_pool` test
    /// samples (0 = the whole test set, the historical behavior). Small
    /// pools model many questions over few stories — the bAbI access
    /// pattern the story cache exploits.
    pub story_pool: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            requests: 256,
            seed: 0,
            mean_interarrival_s: 200e-6,
            story_pool: 0,
        }
    }
}

/// A fully materialized arrival trace, sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalTrace {
    /// Requests in arrival order; ids are the positions in this order.
    pub requests: Vec<Request>,
    /// The generating configuration.
    pub config: TraceConfig,
}

impl ArrivalTrace {
    /// Generates the trace for `suite`'s test sets.
    ///
    /// # Panics
    ///
    /// Panics if the suite has no tasks, any task has an empty test set, or
    /// the mean inter-arrival time is not positive and finite.
    pub fn generate(config: &TraceConfig, suite: &TaskSuite) -> Self {
        assert!(!suite.tasks.is_empty(), "trace needs at least one task");
        assert!(
            suite.tasks.iter().all(|t| !t.test_set.is_empty()),
            "every task needs test samples to draw requests from"
        );
        assert!(
            config.mean_interarrival_s > 0.0 && config.mean_interarrival_s.is_finite(),
            "mean inter-arrival must be positive and finite"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut now_s = 0.0f64;
        let requests = (0..config.requests)
            .map(|id| {
                // Inverse-CDF exponential sample; 1-u keeps ln's argument
                // in (0, 1].
                let u: f64 = rng.gen_range(0.0f64..1.0);
                now_s += -config.mean_interarrival_s * (1.0 - u).ln();
                let task_idx = rng.gen_range(0..suite.tasks.len());
                let len = suite.tasks[task_idx].test_set.len();
                let limit = if config.story_pool == 0 {
                    len
                } else {
                    config.story_pool.min(len)
                };
                let sample_idx = rng.gen_range(0..limit);
                Request {
                    id: id as u64,
                    task_idx,
                    sample_idx,
                    arrival: SimTime::from_s(now_s),
                }
            })
            .collect();
        Self {
            requests,
            config: config.clone(),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The latest arrival time (zero for an empty trace): the last
    /// request's in a sorted trace, and the same for any reordering of it.
    pub fn span(&self) -> SimTime {
        self.requests
            .iter()
            .map(|r| r.arrival)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mann_babi::TaskId;
    use mann_core::SuiteConfig;

    fn suite() -> TaskSuite {
        let cfg = SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 40,
            test_samples: 8,
            ..SuiteConfig::quick()
        };
        TaskSuite::build(&cfg)
    }

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let s = suite();
        let cfg = TraceConfig {
            requests: 100,
            seed: 42,
            ..TraceConfig::default()
        };
        let a = ArrivalTrace::generate(&cfg, &s);
        let b = ArrivalTrace::generate(&cfg, &s);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.requests.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn different_seeds_differ_and_indices_are_in_range() {
        let s = suite();
        let a = ArrivalTrace::generate(
            &TraceConfig {
                requests: 64,
                seed: 1,
                ..TraceConfig::default()
            },
            &s,
        );
        let b = ArrivalTrace::generate(
            &TraceConfig {
                requests: 64,
                seed: 2,
                ..TraceConfig::default()
            },
            &s,
        );
        assert_ne!(a.requests, b.requests);
        for r in a.requests.iter().chain(&b.requests) {
            assert!(r.task_idx < s.tasks.len());
            assert!(r.sample_idx < s.tasks[r.task_idx].test_set.len());
        }
        // Both tenants appear in a 64-request mix.
        assert!(a.requests.iter().any(|r| r.task_idx == 0));
        assert!(a.requests.iter().any(|r| r.task_idx == 1));
    }

    #[test]
    fn mean_interarrival_tracks_config() {
        let s = suite();
        let cfg = TraceConfig {
            requests: 2000,
            seed: 9,
            mean_interarrival_s: 100e-6,
            ..TraceConfig::default()
        };
        let t = ArrivalTrace::generate(&cfg, &s);
        let mean = t.span().as_s() / t.len() as f64;
        assert!(
            (mean - 100e-6).abs() < 15e-6,
            "empirical mean inter-arrival {mean}"
        );
    }

    #[test]
    fn story_pool_restricts_sample_draws_without_shifting_arrivals() {
        let s = suite();
        let base = TraceConfig {
            requests: 64,
            seed: 4,
            ..TraceConfig::default()
        };
        let full = ArrivalTrace::generate(&base, &s);
        let pooled = ArrivalTrace::generate(
            &TraceConfig {
                story_pool: 2,
                ..base.clone()
            },
            &s,
        );
        assert!(pooled.requests.iter().all(|r| r.sample_idx < 2));
        // Pool 0 and pool >= test-set size reproduce the unrestricted draw.
        let wide = ArrivalTrace::generate(
            &TraceConfig {
                story_pool: 999,
                ..base.clone()
            },
            &s,
        );
        assert_eq!(full.requests, wide.requests);
        // The RNG stream (arrivals, task picks) is shared: same schedule.
        for (a, b) in full.requests.iter().zip(&pooled.requests) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.task_idx, b.task_idx);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_rate_rejected() {
        let s = suite();
        let _ = ArrivalTrace::generate(
            &TraceConfig {
                mean_interarrival_s: 0.0,
                ..TraceConfig::default()
            },
            &s,
        );
    }
}
