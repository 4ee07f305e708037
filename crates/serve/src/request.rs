//! Request and completion records: what flows through the serving layer and
//! what comes back out.

use std::sync::Arc;

use mann_hw::{InferenceRun, SimTime};
use serde::{Deserialize, Serialize};

/// One QA inference request in an arrival trace.
///
/// A request references a `(task, sample)` pair of the trained suite rather
/// than carrying the sample itself — the serving layer is an orchestrator
/// over the suite's artifacts, not a data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Trace-unique id, assigned in arrival order.
    pub id: u64,
    /// Index of the tenant task within the suite.
    pub task_idx: usize,
    /// Index of the sample within the task's test set.
    pub sample_idx: usize,
    /// Simulated arrival time.
    pub arrival: SimTime,
}

/// The full simulated-time lifecycle of one served request:
/// enqueue → dispatch → upload → compute → drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RequestTimestamps {
    /// Admitted to the host queue (= arrival time for admitted requests).
    pub enqueue: SimTime,
    /// Left the host queue and was assigned an instance.
    pub dispatch: SimTime,
    /// Shared link began streaming the story + question.
    pub upload_start: SimTime,
    /// Input stream fully resident in the instance's FIFO.
    pub upload_end: SimTime,
    /// Fabric compute began.
    pub compute_start: SimTime,
    /// Fabric compute finished.
    pub compute_end: SimTime,
    /// Shared link began the answer read-back.
    pub drain_start: SimTime,
    /// Answer landed on the host — the request is complete.
    pub drain_end: SimTime,
}

/// A story's routing key: its digest with the task index mixed in, so
/// equal digests of different tasks (different embeddings!) never alias.
/// The numeric phase computes it once per story, and only the cluster
/// reads it: it routes, and it orders the drain hand-off's ties. Residency
/// and every per-story table key on the story's index instead.
pub(crate) fn request_key(story_digest: u64, task_idx: usize) -> u64 {
    story_digest ^ (task_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl RequestTimestamps {
    /// End-to-end latency: enqueue to answer-on-host.
    pub fn latency(&self) -> SimTime {
        self.drain_end.saturating_sub(self.enqueue)
    }

    /// Time spent waiting in the host queue before dispatch.
    pub fn queue_wait(&self) -> SimTime {
        self.dispatch.saturating_sub(self.enqueue)
    }

    /// Whether the phases are causally ordered (debug invariant).
    pub fn is_monotone(&self) -> bool {
        self.enqueue <= self.dispatch
            && self.dispatch <= self.upload_start
            && self.upload_start <= self.upload_end
            && self.upload_end <= self.compute_start
            && self.compute_start <= self.compute_end
            && self.compute_end <= self.drain_start
            && self.drain_start <= self.drain_end
    }
}

/// A request that made it all the way through.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The originating request.
    pub request: Request,
    /// Which accelerator instance computed it.
    pub instance: usize,
    /// The accelerator's full per-inference accounting — identical to what
    /// a standalone [`mann_hw::Accelerator::run`] would report, because the
    /// serving layer never touches the numeric path. Every completion of
    /// one query in one form (story resident or written, exact or degraded)
    /// shares one run; a precision failover gives its completion a copy of
    /// its own with the replaced answer.
    pub run: Arc<InferenceRun>,
    /// Lifecycle timestamps in simulated time.
    pub timestamps: RequestTimestamps,
    /// Whether the answer matched the sample's label.
    pub correct: bool,
    /// Whether the request was answered in aggressive-ITH degraded mode
    /// (fault-campaign overload response); always `false` otherwise.
    pub degraded: bool,
    /// Whether the run's sticky numeric flags were set and a non-ignore
    /// [`crate::NumericPolicy`] marked it; always `false` under the
    /// default policy.
    pub numeric_flagged: bool,
    /// Whether the answer was replaced by the `f32` reference datapath
    /// (precision failover); implies `numeric_flagged`.
    pub failed_over: bool,
}

/// A request refused at the door: the bounded host queue was full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rejection {
    /// The refused request.
    pub request: Request,
    /// Queue depth observed at arrival (= configured capacity).
    pub queue_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_queue_wait_derive_from_timestamps() {
        let ts = RequestTimestamps {
            enqueue: SimTime::from_ps(100),
            dispatch: SimTime::from_ps(150),
            upload_start: SimTime::from_ps(150),
            upload_end: SimTime::from_ps(200),
            compute_start: SimTime::from_ps(200),
            compute_end: SimTime::from_ps(300),
            drain_start: SimTime::from_ps(300),
            drain_end: SimTime::from_ps(320),
        };
        assert_eq!(ts.latency().ps(), 220);
        assert_eq!(ts.queue_wait().ps(), 50);
        assert!(ts.is_monotone());
        let mut broken = ts;
        broken.compute_start = SimTime::from_ps(120);
        assert!(!broken.is_monotone());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_completion_points_at_its_run() {
        // One record per request: the run is shared, not inlined.
        assert_eq!(std::mem::size_of::<Completion>(), 120);
    }
}
