//! Allocation budget of the serve event loop.
//!
//! A warm `Server::serve` over one repeated story pool simulates the same
//! handful of stories and queries whatever the trace length, so what grows
//! with the request count is the event loop and the outcome. The loop
//! reuses its buffers (the dispatch view, upload lists, fused groups), and
//! each per-request record is sized once, so the allocation count of a
//! serve may grow by at most one per doubling of the trace: a buffer that
//! doubles its capacity once more. One allocation per request, as a
//! collected `Vec` per dispatch would make, fails this at once. Unlike host
//! time, an allocation count is deterministic, so the budget is pinned
//! exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::OnceLock;

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_serve::{ArrivalTrace, FaultConfig, SchedulePolicy, ServeConfig, Server, TraceConfig};

thread_local! {
    /// Allocations made by this thread; tests run on parallel threads and
    /// must not see each other's.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread. The default
/// `alloc_zeroed` and `realloc` go through `alloc`, so they count too.
struct CountingAlloc;

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a thread-local
// `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One tenant whose traces draw from its first 4 test samples.
fn suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        TaskSuite::build(&SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact],
            train_samples: 60,
            test_samples: 8,
            seed: 5,
            ..SuiteConfig::quick()
        })
    })
}

/// Trace lengths of the budget: each doubles the last.
const REQUESTS: [usize; 3] = [2_000, 4_000, 8_000];

/// Allocations of a warm serve of `config` at each of [`REQUESTS`]: the
/// trace is served once untimed, then counted.
fn serve_allocations(config: ServeConfig, mean_interarrival_s: f64) -> [u64; 3] {
    let suite = suite();
    let server = Server::new(
        suite,
        ServeConfig {
            workers: 1,
            ..config
        },
    );
    REQUESTS.map(|requests| {
        let trace = ArrivalTrace::generate(
            &TraceConfig {
                requests,
                seed: 3,
                mean_interarrival_s,
                story_pool: 4,
            },
            suite,
        );
        let warm = server.serve(&trace);
        assert_eq!(warm.completions.len(), requests, "every request completes");
        let (batch, fault) = (&warm.report.batch, &warm.report.fault);
        assert!(!batch.enabled || batch.fused_groups > 0, "no group fused");
        assert!(
            !fault.enabled || fault.failovers > 0,
            "no request failed over"
        );
        allocations_during(|| {
            black_box(server.serve(black_box(&trace)));
        })
    })
}

/// The per-node stack of the repeated-story benchmark workload.
fn node() -> ServeConfig {
    ServeConfig {
        instances: 2,
        queue_capacity: 256,
        story_cache: 4,
        policy: SchedulePolicy::StoryAffinity,
        ..ServeConfig::default()
    }
}

/// Asserts the counts grow by at most one per doubling and equal `pinned`.
fn assert_budget(name: &str, counts: [u64; 3], pinned: [u64; 3]) {
    for w in counts.windows(2) {
        assert!(
            w[1] <= w[0] + 1,
            "{name}: {counts:?} allocations at {REQUESTS:?} requests grow with the trace"
        );
    }
    assert_eq!(
        counts, pinned,
        "{name}: allocations at {REQUESTS:?} requests"
    );
}

#[test]
fn a_plain_serve_allocates_nothing_per_request() {
    let counts = serve_allocations(node(), 200e-6);
    assert_budget("plain", counts, [76, 76, 76]);
}

#[test]
fn a_batched_serve_allocates_nothing_per_request() {
    // A fast link and deep input FIFOs: uploads outrun the fabric, so
    // queries on one story queue up behind each other and fuse.
    let config = ServeConfig {
        batch_window: 4,
        inflight_limit: 8,
        pcie: mann_hw::PcieLink {
            bandwidth_bytes_per_s: 1.5e9,
            latency_per_transfer_s: 1e-6,
        },
        ..node()
    };
    let counts = serve_allocations(config, 10e-6);
    assert_budget("batched", counts, [79, 79, 79]);
}

#[test]
fn a_crash_campaign_allocates_nothing_per_request() {
    let config = ServeConfig {
        faults: FaultConfig {
            seed: 9,
            crashes: 16,
            crash_cooldown_s: 500e-6,
            watchdog_s: 250e-6,
            ..FaultConfig::none()
        },
        ..node()
    };
    let counts = serve_allocations(config, 200e-6);
    assert_budget("crash", counts, [84, 84, 84]);
}
