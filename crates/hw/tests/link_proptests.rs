//! Property tests for the host-interface model and the bounded FIFOs:
//! transfer-time monotonicity, lossless in-order link arbitration, and
//! overflow/deadlock freedom under arbitrary push/pop interleavings.

use mann_hw::fifo::HwFifo;
use mann_hw::{LinkArbiter, PcieLink, SimTime};
use proptest::prelude::*;

/// A random but physically plausible link model.
fn link(bw_gbps: f64, lat_us: f64) -> PcieLink {
    PcieLink {
        bandwidth_bytes_per_s: bw_gbps * 1e9,
        latency_per_transfer_s: lat_us * 1e-6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transfer time is monotone in payload size for any link parameters:
    /// more bytes never transfer faster.
    #[test]
    fn transfer_time_monotone_in_payload(
        bw in 0.1f64..16.0,
        lat in 1.0f64..500.0,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let l = link(bw, lat);
        let (small, big) = (a.min(b), a.max(b));
        prop_assert!(l.transfer_time_s(small) <= l.transfer_time_s(big));
        // Same for the word-level QA helpers.
        prop_assert!(l.input_transfer_time_s(small as usize % 4096)
            <= l.input_transfer_time_s(big as usize % 4096 + (small as usize % 4096)));
    }

    /// Batching N payloads into one grant never costs more than N separate
    /// grants, and a batch is never cheaper than its bandwidth floor.
    #[test]
    fn batched_transfer_bounds(
        bw in 0.1f64..16.0,
        lat in 1.0f64..500.0,
        sizes in proptest::collection::vec(1u64..100_000, 1..16),
    ) {
        let l = link(bw, lat);
        let total: u64 = sizes.iter().sum();
        let separate: f64 = sizes.iter().map(|&b| l.transfer_time_s(b)).sum();
        let batched = l.batched_transfer_time_s(total, sizes.len());
        prop_assert!(batched <= separate + 1e-12);
        prop_assert!(batched >= total as f64 / l.bandwidth_bytes_per_s);
    }

    /// For any schedule of submissions (nondecreasing submit times, random
    /// payloads), the arbiter grants every job exactly once, in submission
    /// order, with non-overlapping windows that never start before the job
    /// was submitted; each grant lends the payload submitted under its id,
    /// and its completion hands that payload back.
    #[test]
    fn arbiter_is_lossless_in_order_and_non_overlapping(
        jobs in proptest::collection::vec((0u64..1_000_000, 1u64..100_000), 1..40),
    ) {
        let mut arb = LinkArbiter::new(PcieLink::default());
        // Build nondecreasing submit times from random deltas.
        let mut t = 0u64;
        let submits: Vec<(SimTime, u64)> = jobs
            .iter()
            .map(|&(dt, bytes)| {
                t += dt;
                (SimTime::from_ps(t), bytes)
            })
            .collect();
        // Drive the arbiter event-style: submit everything that has arrived
        // by `now`, then grant/complete one job at a time. Each payload is
        // its job's submission time and size.
        let mut grants = Vec::new();
        let mut next_submit = 0usize;
        let mut now = SimTime::ZERO;
        while grants.len() < submits.len() {
            // Submit arrivals up to `now`, plus — if the link would idle —
            // jump to the next arrival.
            while next_submit < submits.len() && submits[next_submit].0 <= now {
                let (at, bytes) = submits[next_submit];
                let id = arb.submit((at, bytes), bytes, 1);
                prop_assert_eq!(id, next_submit as u64, "ids are submission indices");
                next_submit += 1;
            }
            match arb.try_grant(now) {
                Some((g, &lent)) => {
                    prop_assert_eq!(lent, submits[g.id as usize], "lent another job's payload");
                    now = g.end;
                    prop_assert_eq!(arb.complete(), lent, "completion returned another payload");
                    grants.push(g);
                }
                None => {
                    // Nothing pending: advance to the next submission.
                    prop_assert!(arb.is_idle());
                    prop_assert!(next_submit < submits.len(), "deadlock: no work, none arriving");
                    now = now.max(submits[next_submit].0);
                }
            }
        }
        // Lossless: every job granted exactly once, in submission order.
        prop_assert!(arb.is_idle());
        prop_assert_eq!(grants.len(), submits.len());
        for (i, (g, s)) in grants.iter().zip(&submits).enumerate() {
            prop_assert_eq!(g.id, i as u64);
            prop_assert_eq!(g.bytes, s.1);
            prop_assert!(g.start >= s.0, "grant before submission");
            prop_assert!(g.end >= g.start);
        }
        // Non-overlapping, time-ordered windows.
        for w in grants.windows(2) {
            prop_assert!(w[1].start >= w[0].end, "overlapping grants");
        }
        // Accounting adds up.
        let busy: SimTime = grants
            .iter()
            .map(|g| g.end.saturating_sub(g.start))
            .sum();
        prop_assert_eq!(arb.busy_time(), busy);
        prop_assert_eq!(arb.grants(), grants.len() as u64);
    }

    /// A bounded FIFO under an arbitrary push/pop interleaving never
    /// exceeds its capacity, refuses pushes exactly when full, pops exactly
    /// when nonempty (no deadlock), and delivers values in push order.
    #[test]
    fn bounded_fifo_never_overflows_or_deadlocks(
        capacity in 1usize..16,
        ops in proptest::collection::vec(any::<u8>(), 1..200),
    ) {
        let mut fifo = HwFifo::new(capacity);
        let mut reference = std::collections::VecDeque::new();
        let mut next_value = 0u32;
        for op in ops {
            if op % 3 != 0 {
                // Push twice as often as pop to exercise backpressure.
                let was_full = fifo.is_full();
                match fifo.push(next_value) {
                    Ok(()) => {
                        prop_assert!(!was_full, "push accepted while full");
                        reference.push_back(next_value);
                    }
                    Err(v) => {
                        prop_assert!(was_full, "push refused while not full");
                        prop_assert_eq!(v, next_value, "backpressure lost the value");
                    }
                }
                next_value += 1;
            } else {
                let popped = fifo.pop();
                prop_assert_eq!(popped, reference.pop_front(), "order or liveness violated");
            }
            prop_assert!(fifo.len() <= capacity, "occupancy exceeded capacity");
            prop_assert_eq!(fifo.len(), reference.len());
            prop_assert_eq!(fifo.is_empty(), reference.is_empty());
        }
        // Drain: everything pushed comes out, in order — nothing lost.
        while let Some(v) = fifo.pop() {
            prop_assert_eq!(Some(v), reference.pop_front());
        }
        prop_assert!(reference.is_empty());
    }
}
