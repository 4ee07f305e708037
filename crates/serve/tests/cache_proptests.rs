//! Property tests for the story cache and the numeric phase's worker pool.
//!
//! Two invariants hold for *any* trace and serve configuration:
//!
//! 1. Caching is invisible to the numbers the model produces: a cached
//!    serve returns the same answer, the same comparison count, and the
//!    same MEM/READ/CONTROLLER/OUTPUT phase cycles as the cache-off serve
//!    of the same trace — only the CONTROL/WRITE phases and the PCIe
//!    upload may shrink, and never grow.
//! 2. The worker count is a pure implementation detail: a numeric phase
//!    on any number of workers produces byte-identical `ServeReport` JSON.

use std::sync::OnceLock;

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_serve::{
    ArrivalTrace, Completion, SchedulePolicy, ServeConfig, ServeOutcome, Server, TraceConfig,
};
use proptest::prelude::*;

fn suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        TaskSuite::build(&SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 120,
            test_samples: 12,
            seed: 5,
            ..SuiteConfig::quick()
        })
    })
}

fn policy(pick: u8) -> SchedulePolicy {
    match pick % 3 {
        0 => SchedulePolicy::RoundRobin,
        1 => SchedulePolicy::ShortestQueue,
        _ => SchedulePolicy::StoryAffinity,
    }
}

fn serve(trace: &ArrivalTrace, config: ServeConfig) -> ServeOutcome {
    Server::new(suite(), config).serve(trace)
}

/// Completions indexed by request id (completion order may legitimately
/// differ between two serves whose service times differ).
fn by_id(out: &ServeOutcome, n: usize) -> Vec<Option<&Completion>> {
    let mut slots: Vec<Option<&Completion>> = vec![None; n];
    for c in &out.completions {
        slots[c.request.id as usize] = Some(c);
    }
    slots
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached vs uncached serving of the same random trace: identical
    /// answers and identical read-side phases; the write side only shrinks.
    #[test]
    fn cache_changes_write_phase_only(
        trace_seed in 0u64..1000,
        requests in 24usize..80,
        rate_us in 60u64..300,
        pool in 0usize..6,
        instances in 1usize..4,
        cache in 1usize..6,
        pick in any::<u8>(),
    ) {
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests,
                seed: trace_seed,
                mean_interarrival_s: rate_us as f64 * 1e-6,
                story_pool: pool,
            },
            suite(),
        );
        // The queue is oversized so neither serve rejects: a completion
        // set difference would make the per-request comparison vacuous.
        let base = ServeConfig {
            instances,
            queue_capacity: 256,
            policy: policy(pick),
            ..ServeConfig::default()
        };
        let cold = serve(&t, ServeConfig { story_cache: 0, ..base.clone() });
        let warm = serve(&t, ServeConfig { story_cache: cache, ..base });
        prop_assert_eq!(cold.completions.len(), t.len());
        prop_assert_eq!(warm.completions.len(), t.len());
        prop_assert_eq!(cold.report.answers_digest, warm.report.answers_digest);
        prop_assert_eq!(cold.report.accuracy, warm.report.accuracy);

        let cold_by_id = by_id(&cold, t.len());
        let warm_by_id = by_id(&warm, t.len());
        for (c, w) in cold_by_id.iter().zip(&warm_by_id) {
            let (c, w) = (c.expect("served"), w.expect("served"));
            prop_assert_eq!(c.run.answer, w.run.answer);
            prop_assert_eq!(c.run.comparisons, w.run.comparisons);
            prop_assert_eq!(c.correct, w.correct);
            // Read-side phases are untouchable.
            prop_assert_eq!(c.run.phases.addressing, w.run.phases.addressing);
            prop_assert_eq!(c.run.phases.read, w.run.phases.read);
            prop_assert_eq!(c.run.phases.controller, w.run.phases.controller);
            prop_assert_eq!(c.run.phases.output, w.run.phases.output);
            // The write side may only shrink, and only on a hit.
            prop_assert!(w.run.phases.control <= c.run.phases.control);
            prop_assert!(w.run.phases.write <= c.run.phases.write);
            prop_assert!(w.run.interface_s <= c.run.interface_s);
            if !w.run.cache_hit {
                prop_assert_eq!(&c.run, &w.run);
            }
        }
        // The report's cache ledger matches the per-request view.
        let hits = warm_by_id
            .iter()
            .filter(|c| c.expect("served").run.cache_hit)
            .count() as u64;
        prop_assert_eq!(warm.report.cache.hits, hits);
        prop_assert_eq!(warm.report.cache.hits + warm.report.cache.misses, t.len() as u64);
        prop_assert_eq!(cold.report.cache.hits, 0);
    }

    /// Any worker count serializes to the one-worker report bytes on any
    /// trace/config pair.
    #[test]
    fn engines_are_byte_identical(
        trace_seed in 0u64..1000,
        requests in 16usize..64,
        rate_us in 60u64..300,
        pool in 0usize..6,
        instances in 1usize..4,
        cache in 0usize..6,
        queue in 8usize..64,
        pick in any::<u8>(),
        workers in 0usize..4,
    ) {
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests,
                seed: trace_seed,
                mean_interarrival_s: rate_us as f64 * 1e-6,
                story_pool: pool,
            },
            suite(),
        );
        let base = ServeConfig {
            instances,
            queue_capacity: queue,
            story_cache: cache,
            policy: policy(pick),
            ..ServeConfig::default()
        };
        let pooled = serve(&t, ServeConfig { workers, ..base.clone() });
        let serial = serve(&t, ServeConfig { workers: 1, ..base });
        prop_assert_eq!(&serial, &pooled);
        prop_assert_eq!(
            serde_json::to_string(&serial.report).expect("serializable report"),
            serde_json::to_string(&pooled.report).expect("serializable report"),
        );
    }
}
