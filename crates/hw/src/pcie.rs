//! Host ↔ FPGA interface model.
//!
//! The paper observes that above ~50 MHz the host-FPGA interface dominates
//! inference time ("the improvement was not linear"). The model here is the
//! standard two-term DMA cost: a fixed per-transfer software/driver latency
//! plus bandwidth-limited streaming. Interface time is independent of the
//! fabric clock, which is exactly what flattens the frequency scaling.

use serde::{Deserialize, Serialize};

use crate::clock::SimTime;

/// PCIe link + driver-stack cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieLink {
    /// Effective streaming bandwidth in bytes/second (well below the wire
    /// rate: a Gen3 x8 link delivers ~1.5 GB/s to a single-channel DMA
    /// engine through a vendor driver).
    pub bandwidth_bytes_per_s: f64,
    /// Fixed software + DMA-setup latency per transfer, seconds.
    pub latency_per_transfer_s: f64,
}

impl Default for PcieLink {
    /// Calibrated so a QA inference (two small transfers) costs ~130 µs of
    /// interface time, reproducing Table I's sub-linear frequency scaling.
    fn default() -> Self {
        Self {
            bandwidth_bytes_per_s: 1.5e9,
            latency_per_transfer_s: 65e-6,
        }
    }
}

impl PcieLink {
    /// Payload bytes of one QA input stream: story + question words at
    /// 4 bytes each, plus 8 control words framing the stream.
    pub fn input_bytes(input_words: usize) -> u64 {
        (input_words as u64 + 8) * 4
    }

    /// Payload bytes of one answer read-back (answer index + status word).
    pub fn answer_bytes() -> u64 {
        8
    }

    /// Time for one transfer of `bytes` payload.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        self.latency_per_transfer_s + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Time for one transfer that batches `transfers` logical payloads of
    /// `bytes` total: the DMA ring is set up once, so the fixed latency is
    /// paid once rather than per payload. `transfers == 0` costs nothing.
    pub fn batched_transfer_time_s(&self, bytes: u64, transfers: usize) -> f64 {
        if transfers == 0 {
            0.0
        } else {
            self.transfer_time_s(bytes)
        }
    }

    /// Upload time of one QA input stream of `input_words` words.
    pub fn input_transfer_time_s(&self, input_words: usize) -> f64 {
        self.transfer_time_s(Self::input_bytes(input_words))
    }

    /// Read-back time of one answer.
    pub fn answer_transfer_time_s(&self) -> f64 {
        self.transfer_time_s(Self::answer_bytes())
    }

    /// Interface time of one QA inference: the input stream upload plus the
    /// answer read-back.
    pub fn inference_time_s(&self, input_words: usize) -> f64 {
        self.input_transfer_time_s(input_words) + self.answer_transfer_time_s()
    }

    /// One-time cost of shipping the trained model (`bytes` of weights).
    pub fn model_upload_time_s(&self, bytes: u64) -> f64 {
        self.transfer_time_s(bytes)
    }
}

/// A grant issued by the [`LinkArbiter`]: job `id` owns the link for
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkGrant {
    /// Caller-chosen job identifier.
    pub id: u64,
    /// Payload bytes of the job.
    pub bytes: u64,
    /// Simulated time the transfer starts.
    pub start: SimTime,
    /// Simulated time the transfer completes.
    pub end: SimTime,
}

/// FIFO arbitration of one shared PCIe link among many accelerator
/// instances.
///
/// Replicated instances share the single host interface, so their uploads
/// and answer read-backs contend for it. The arbiter is a strict FIFO —
/// jobs are granted in submission order, one at a time, never dropped and
/// never reordered (the property suite in `tests/link_proptests.rs` pins
/// this) — which keeps the serving schedule deterministic.
///
/// Protocol: [`submit`](LinkArbiter::submit) enqueues a job;
/// [`try_grant`](LinkArbiter::try_grant) starts the head job if the link is
/// idle, returning its grant window; [`complete`](LinkArbiter::complete)
/// retires the in-flight job (normally at the grant's `end` event).
#[derive(Debug, Clone)]
pub struct LinkArbiter {
    link: PcieLink,
    /// One answer read-back's link time, priced once: every drain moves
    /// the same [`PcieLink::answer_bytes`]. `None` when it does not fit the
    /// clock.
    drain: Option<SimTime>,
    pending: std::collections::VecDeque<(u64, u64, usize)>,
    in_flight: Option<(u64, u64, usize)>,
    free_at: SimTime,
    busy: SimTime,
    grants: u64,
    bytes_moved: u64,
    retransmits: u64,
    retry_busy: SimTime,
}

impl LinkArbiter {
    /// An idle arbiter over `link`.
    pub fn new(link: PcieLink) -> Self {
        Self {
            link,
            drain: SimTime::try_from_s(link.transfer_time_s(PcieLink::answer_bytes())),
            pending: std::collections::VecDeque::new(),
            in_flight: None,
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
            grants: 0,
            bytes_moved: 0,
            retransmits: 0,
            retry_busy: SimTime::ZERO,
        }
    }

    /// The arbitrated link model.
    pub fn link(&self) -> &PcieLink {
        &self.link
    }

    /// Enqueues a job of `bytes` payload comprising `transfers` batched
    /// logical payloads (1 for a plain transfer).
    pub fn submit(&mut self, id: u64, bytes: u64, transfers: usize) {
        self.pending.push_back((id, bytes, transfers.max(1)));
    }

    /// Jobs submitted but not yet granted.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether a granted job has not yet been completed.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Grants the head job if the link is idle and work is pending. The
    /// transfer starts at `max(now, previous grant end)`.
    pub fn try_grant(&mut self, now: SimTime) -> Option<LinkGrant> {
        if self.in_flight.is_some() {
            return None;
        }
        let (id, bytes, transfers) = self.pending.pop_front()?;
        let start = now.max(self.free_at);
        let duration = self.duration(bytes, transfers);
        let end = start + duration;
        self.in_flight = Some((id, bytes, transfers));
        self.free_at = end;
        self.busy += duration;
        self.grants += 1;
        self.bytes_moved += bytes;
        Some(LinkGrant {
            id,
            bytes,
            start,
            end,
        })
    }

    /// Re-grants the in-flight job for a CRC-triggered retransmission
    /// starting at `resume_at` (the corrupted attempt's end plus the
    /// caller's backoff). The link stays **held** through the backoff gap —
    /// pending jobs cannot jump the queue, so strict FIFO order survives
    /// faults — while the replayed transfer accrues busy time and payload
    /// bytes like any other, plus the retry counters.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the job currently holding the link.
    pub fn retransmit(&mut self, id: u64, resume_at: SimTime) -> LinkGrant {
        let (current, bytes, transfers) = match self.in_flight {
            Some(job) if job.0 == id => job,
            other => panic!("retransmit for job {id} but in flight is {other:?}"),
        };
        let start = resume_at.max(self.free_at);
        let duration = self.duration(bytes, transfers);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        self.retry_busy += duration;
        self.retransmits += 1;
        self.bytes_moved += bytes;
        LinkGrant {
            id: current,
            bytes,
            start,
            end,
        }
    }

    /// Link time of one grant of `bytes` over `transfers` payloads.
    fn duration(&self, bytes: u64, transfers: usize) -> SimTime {
        match self.drain {
            Some(drain) if bytes == PcieLink::answer_bytes() && transfers == 1 => drain,
            _ => SimTime::from_s(self.link.batched_transfer_time_s(bytes, transfers)),
        }
    }

    /// Retires the in-flight job.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the job currently holding the link — catching
    /// out-of-order completion bugs in the scheduler.
    pub fn complete(&mut self, id: u64) {
        match self.in_flight.take() {
            Some((current, _, _)) if current == id => {}
            other => panic!("link completion for job {id} but in flight is {other:?}"),
        }
    }

    /// Total time the link has been transferring.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total payload bytes granted.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of retransmission grants issued via
    /// [`retransmit`](LinkArbiter::retransmit).
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Link time spent replaying corrupted transfers (a subset of
    /// [`busy_time`](LinkArbiter::busy_time)).
    pub fn retry_busy_time(&self) -> SimTime {
        self.retry_busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_floor_dominates_small_transfers() {
        let link = PcieLink::default();
        let t_small = link.transfer_time_s(64);
        assert!(t_small >= link.latency_per_transfer_s);
        assert!(t_small < link.latency_per_transfer_s * 1.01);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let link = PcieLink::default();
        let t = link.transfer_time_s(1_500_000_000);
        assert!((t - (1.0 + link.latency_per_transfer_s)).abs() < 1e-6);
    }

    #[test]
    fn inference_time_counts_two_transfers() {
        let link = PcieLink::default();
        let t = link.inference_time_s(50);
        assert!(t > 2.0 * link.latency_per_transfer_s);
        assert!(t < 2.5 * link.latency_per_transfer_s);
    }

    #[test]
    fn interface_time_is_clock_independent() {
        // The type has no clock input at all; this test documents the fact.
        let link = PcieLink::default();
        assert_eq!(link.inference_time_s(40), link.inference_time_s(40));
    }

    #[test]
    fn inference_time_splits_into_input_and_answer() {
        let link = PcieLink::default();
        let t = link.input_transfer_time_s(50) + link.answer_transfer_time_s();
        assert!((t - link.inference_time_s(50)).abs() < 1e-15);
        assert_eq!(PcieLink::input_bytes(50), (50 + 8) * 4);
        assert_eq!(PcieLink::answer_bytes(), 8);
    }

    #[test]
    fn batching_amortizes_the_fixed_latency() {
        let link = PcieLink::default();
        let bytes = PcieLink::input_bytes(40);
        let separate = 4.0 * link.transfer_time_s(bytes);
        let batched = link.batched_transfer_time_s(4 * bytes, 4);
        assert!(batched < separate, "{batched} !< {separate}");
        // Exactly three fixed latencies saved.
        assert!((separate - batched - 3.0 * link.latency_per_transfer_s).abs() < 1e-12);
        assert_eq!(link.batched_transfer_time_s(0, 0), 0.0);
    }

    #[test]
    fn arbiter_serves_fifo_without_overlap() {
        let mut arb = LinkArbiter::new(PcieLink::default());
        arb.submit(1, 64, 1);
        arb.submit(2, 128, 1);
        arb.submit(3, 32, 1);
        let g1 = arb.try_grant(SimTime::ZERO).unwrap();
        assert_eq!(g1.id, 1);
        // Link busy: nothing else grants until completion.
        assert!(arb.try_grant(g1.start).is_none());
        arb.complete(1);
        let g2 = arb.try_grant(g1.end).unwrap();
        assert_eq!(g2.id, 2);
        assert!(g2.start >= g1.end);
        arb.complete(2);
        let g3 = arb.try_grant(g2.end).unwrap();
        assert_eq!(g3.id, 3);
        arb.complete(3);
        assert_eq!(arb.grants(), 3);
        assert_eq!(arb.bytes_moved(), 64 + 128 + 32);
        assert_eq!(arb.pending_len(), 0);
        assert!(!arb.is_busy());
    }

    #[test]
    fn retransmit_holds_the_link_and_accrues_retry_time() {
        let mut arb = LinkArbiter::new(PcieLink::default());
        arb.submit(1, 256, 1);
        arb.submit(2, 64, 1);
        let g1 = arb.try_grant(SimTime::ZERO).unwrap();
        // Corrupted: replay after a backoff gap. The link stays held, so
        // job 2 cannot be granted in the gap.
        let backoff = SimTime::from_s(10e-6);
        let r = arb.retransmit(1, g1.end + backoff);
        assert_eq!(r.id, 1);
        assert_eq!(r.start, g1.end + backoff);
        assert!(arb.try_grant(r.start).is_none(), "link must stay held");
        assert_eq!(arb.retransmits(), 1);
        let first = g1.end.saturating_sub(g1.start);
        let replay = r.end.saturating_sub(r.start);
        assert_eq!(arb.retry_busy_time(), replay);
        assert_eq!(arb.busy_time(), first + replay);
        assert_eq!(arb.bytes_moved(), 2 * 256);
        // Grants counts logical jobs, not replays.
        assert_eq!(arb.grants(), 1);
        arb.complete(1);
        let g2 = arb.try_grant(r.end).unwrap();
        assert_eq!(g2.id, 2);
        assert!(g2.start >= r.end, "FIFO order survives the retry");
    }

    /// A drain's link time, priced once per arbiter, is the same
    /// picosecond count every other transfer of its size gets.
    #[test]
    fn the_priced_drain_is_the_transfer_time() {
        for link in [
            PcieLink::default(),
            PcieLink {
                bandwidth_bytes_per_s: 3.0e7,
                latency_per_transfer_s: 1.7e-6,
            },
        ] {
            let mut arb = LinkArbiter::new(link);
            let drain = SimTime::from_s(link.transfer_time_s(PcieLink::answer_bytes()));
            arb.submit(1, PcieLink::answer_bytes(), 1);
            arb.submit(2, PcieLink::answer_bytes() + 1, 1);
            let g = arb.try_grant(SimTime::ZERO).unwrap();
            assert_eq!(g.end.saturating_sub(g.start), drain);
            let r = arb.retransmit(1, g.end);
            assert_eq!(r.end.saturating_sub(r.start), drain);
            arb.complete(1);
            let other = arb.try_grant(r.end).unwrap();
            let nine = SimTime::from_s(link.transfer_time_s(PcieLink::answer_bytes() + 1));
            assert_eq!(other.end.saturating_sub(other.start), nine);
        }
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn retransmit_requires_the_holding_job() {
        let mut arb = LinkArbiter::new(PcieLink::default());
        arb.submit(1, 64, 1);
        let _ = arb.try_grant(SimTime::ZERO).unwrap();
        let _ = arb.retransmit(2, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn arbiter_rejects_wrong_completion() {
        let mut arb = LinkArbiter::new(PcieLink::default());
        arb.submit(1, 64, 1);
        let _ = arb.try_grant(SimTime::ZERO).unwrap();
        arb.complete(99);
    }
}
