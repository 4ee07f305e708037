//! Batched multi-accelerator serving layer.
//!
//! This crate turns the single-inference accelerator model of `mann-hw`
//! into a *served system*: a stream of QA requests arrives at a bounded
//! host queue, story uploads are batched over the one shared PCIe link,
//! and a deterministic scheduler spreads work across N replicated
//! accelerator instances. Every request carries simulated-time
//! timestamps for each lifecycle phase (enqueue → upload → compute →
//! drain), and a serve produces a [`ServeReport`] with p50/p95/p99
//! latency, per-instance occupancy, link utilization and aggregate
//! energy — exportable as JSON via `mann_core::write_json_report`.
//!
//! # Architecture
//!
//! ```text
//!   seeded ArrivalTrace        bounded host queue          N instances
//!  ┌──────────────────┐   ┌──────────────────────┐   ┌───────────────────┐
//!  │ Poisson arrivals  │──▶│ reject when full     │──▶│ Scheduler picks   │
//!  │ (task, sample)    │   │ (backpressure acct.) │   │ rr / shortest-q   │
//!  └──────────────────┘   └──────────────────────┘   └─────────┬─────────┘
//!                                                              ▼
//!                          ┌───────────────────────────────────────────┐
//!                          │ LinkArbiter: one shared PCIe link, FIFO;  │
//!                          │ uploads batched to amortize DMA latency   │
//!                          └───────────────────────────────────────────┘
//! ```
//!
//! # Scale-out
//!
//! The [`Cluster`] layer shards this single-node stack across K nodes: a
//! frontend [`ShardRouter`] consistent-hashes each request's story onto
//! its shard (weighted rendezvous hashing), every shard runs its own
//! queue, link arbiter, instance pool, story cache and fault plan, and a
//! replication factor R re-dispatches crash-stranded requests to the
//! story's replica shard at real re-upload cost. A [`ClusterReport`]
//! merges the per-shard reports (percentiles ranked over pooled samples,
//! never averaged) and is byte-identical across worker counts and
//! shard-iteration order; at K=1/R=1 it reduces byte-identically to
//! the single-node [`ServeReport`]. A [`MembershipPlan`] makes the shard
//! set itself a timeline — scheduled joins, drains and fail-stops,
//! queue-pressure weight retuning and hot-key splitting — resolved
//! purely against the plan so the churned report keeps every one of
//! those byte-identity guarantees.
//!
//! # Determinism
//!
//! A serve is a pure function of `(suite, trace, config)`. The numeric
//! work is precomputed in request order on the deterministic worker pool
//! (`MANN_THREADS`-invariant), and the event loop runs on an integer
//! picosecond clock with a submission-order tie-break — so reports are
//! byte-identical run to run, and the per-request answers (pinned by
//! [`ServeReport::answers_digest`]) are invariant across instance counts
//! and scheduler policies.

#![forbid(unsafe_code)]

mod cluster;
mod faults;
mod membership;
mod numeric;
mod report;
mod request;
mod scheduler;
mod server;
mod store;
mod trace;

pub use cluster::{
    Cluster, ClusterConfig, ClusterFailover, ClusterOutcome, ClusterReport, ShardRouter,
};
pub use faults::{FaultConfig, FaultPlan, FaultReport, PlanError};
pub use mann_ith::{HopPrune, HopPruneError};
pub use membership::{
    MembershipEpoch, MembershipEvent, MembershipEventKind, MembershipPlan, MembershipReport,
};
pub use numeric::{NumericHealth, NumericPolicy, NumericPolicyError};
pub use report::{
    answers_digest, BatchReport, CacheReport, HopPruneReport, InstanceReport, LatencySummary,
    LinkReport, ReportSection, ServeReport,
};
pub use request::{Completion, Rejection, Request, RequestTimestamps};
pub use scheduler::{InstanceView, SchedulePolicy, Scheduler};
pub use server::{ServeConfig, ServeOutcome, Server};
pub use store::{serve_cluster_durable, serve_durable, DurabilityReport, WalConfig, WalSpecError};
pub use trace::{ArrivalTrace, TraceConfig};

pub use mann_store::{StoreError, WalRecord};
