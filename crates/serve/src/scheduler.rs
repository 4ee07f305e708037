//! Instance-selection policies.
//!
//! The scheduler only ever *orders* work — it never computes anything — so
//! any policy yields the same per-request answers; policies differ purely
//! in latency and occupancy. Both policies are deterministic: ties break by
//! instance index, and the round-robin cursor is part of scheduler state,
//! so a trace replays byte-identically.

use mann_hw::SimTime;
use serde::{Deserialize, Serialize};

/// How the dispatcher picks an instance for the next upload batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Cycle through instances in index order, skipping instances that are
    /// out of input credits.
    RoundRobin,
    /// Pick the instance with the fewest requests in flight; ties go to
    /// the one that frees earliest, then to the lowest index. Adapts to
    /// the data-dependent service times ITH creates.
    #[default]
    ShortestQueue,
    /// Prefer an instance that already holds the head request's story
    /// resident (skipping its write phase and story upload); among equally
    /// resident instances fall back to shortest-queue order. Repeat
    /// stories land where they are cached.
    StoryAffinity,
}

impl SchedulePolicy {
    /// Parses a CLI-style policy name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rr" | "round-robin" => Some(Self::RoundRobin),
            "sq" | "shortest-queue" => Some(Self::ShortestQueue),
            "af" | "affinity" | "story-affinity" => Some(Self::StoryAffinity),
            _ => None,
        }
    }
}

impl std::fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RoundRobin => write!(f, "round-robin"),
            Self::ShortestQueue => write!(f, "shortest-queue"),
            Self::StoryAffinity => write!(f, "story-affinity"),
        }
    }
}

/// What the dispatcher sees of an instance when picking.
#[derive(Debug, Clone, Copy)]
pub struct InstanceView {
    /// Requests dispatched to the instance and not yet finished computing.
    pub inflight: usize,
    /// Remaining input credits (0 = cannot accept another upload).
    pub credits: usize,
    /// When the instance's current compute finishes.
    pub free_at: SimTime,
    /// Whether the story of the request at the head of the host queue is
    /// resident in this instance's story cache.
    pub resident: bool,
}

/// Deterministic instance picker; owns the round-robin cursor.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    policy: SchedulePolicy,
    rr_cursor: usize,
}

impl Scheduler {
    /// A scheduler with the given policy.
    pub fn new(policy: SchedulePolicy) -> Self {
        Self {
            policy,
            rr_cursor: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Picks an instance with available credits, or `None` if every
    /// instance is saturated.
    pub fn pick(&mut self, instances: &[InstanceView]) -> Option<usize> {
        match self.policy {
            SchedulePolicy::RoundRobin => {
                let n = instances.len();
                for step in 0..n {
                    let i = (self.rr_cursor + step) % n;
                    if instances[i].credits > 0 {
                        self.rr_cursor = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            SchedulePolicy::ShortestQueue => instances
                .iter()
                .enumerate()
                .filter(|(_, v)| v.credits > 0)
                .min_by_key(|(i, v)| (v.inflight, v.free_at, *i))
                .map(|(i, _)| i),
            // Residency first (false < true, so negate), then the
            // shortest-queue order as tie-break — fully deterministic.
            SchedulePolicy::StoryAffinity => instances
                .iter()
                .enumerate()
                .filter(|(_, v)| v.credits > 0)
                .min_by_key(|(i, v)| (!v.resident, v.inflight, v.free_at, *i))
                .map(|(i, _)| i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(inflight: usize, credits: usize, free_ps: u64) -> InstanceView {
        InstanceView {
            inflight,
            credits,
            free_at: SimTime::from_ps(free_ps),
            resident: false,
        }
    }

    fn resident(mut v: InstanceView) -> InstanceView {
        v.resident = true;
        v
    }

    #[test]
    fn round_robin_cycles_and_skips_saturated() {
        let mut s = Scheduler::new(SchedulePolicy::RoundRobin);
        let views = vec![view(0, 1, 0), view(0, 1, 0), view(0, 0, 0)];
        assert_eq!(s.pick(&views), Some(0));
        assert_eq!(s.pick(&views), Some(1));
        // Instance 2 has no credit: wraps back to 0.
        assert_eq!(s.pick(&views), Some(0));
        let starved = vec![view(0, 0, 0); 3];
        assert_eq!(s.pick(&starved), None);
    }

    #[test]
    fn shortest_queue_prefers_least_loaded_then_earliest_free() {
        let mut s = Scheduler::new(SchedulePolicy::ShortestQueue);
        assert_eq!(s.pick(&[view(2, 1, 0), view(1, 1, 0)]), Some(1));
        // Equal load: earliest free wins.
        assert_eq!(s.pick(&[view(1, 1, 900), view(1, 1, 100)]), Some(1));
        // Full tie: lowest index.
        assert_eq!(s.pick(&[view(1, 1, 5), view(1, 1, 5)]), Some(0));
        // Saturated instances are invisible even if idle soonest.
        assert_eq!(s.pick(&[view(0, 0, 0), view(3, 2, 9)]), Some(1));
    }

    #[test]
    fn story_affinity_prefers_resident_then_shortest_queue() {
        let mut s = Scheduler::new(SchedulePolicy::StoryAffinity);
        // A resident instance beats a less-loaded non-resident one.
        assert_eq!(s.pick(&[view(0, 2, 0), resident(view(1, 1, 0))]), Some(1));
        // No residency anywhere: identical to shortest-queue.
        assert_eq!(s.pick(&[view(2, 1, 0), view(1, 1, 0)]), Some(1));
        // Residency without credits is invisible.
        assert_eq!(s.pick(&[view(0, 1, 0), resident(view(0, 0, 0))]), Some(0));
        // Two resident instances: load then free time then index.
        assert_eq!(
            s.pick(&[resident(view(1, 1, 900)), resident(view(1, 1, 100))]),
            Some(1)
        );
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ShortestQueue,
            SchedulePolicy::StoryAffinity,
        ] {
            assert_eq!(SchedulePolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(
            SchedulePolicy::parse("rr"),
            Some(SchedulePolicy::RoundRobin)
        );
        assert_eq!(
            SchedulePolicy::parse("sq"),
            Some(SchedulePolicy::ShortestQueue)
        );
        assert_eq!(SchedulePolicy::parse("lifo"), None);
    }
}
