//! End-to-end pipeline and experiment runners.
//!
//! This crate glues the reproduction together: it generates the bAbI-style
//! datasets, trains one memory network per task, calibrates inference
//! thresholding, and measures every platform configuration the paper
//! evaluates, producing
//!
//! * [`experiments::table1`] — Table I (time / power / speedup / FLOPS-per-kJ
//!   for CPU, GPU and the FPGA at 25–100 MHz, with and without ITH);
//! * [`experiments::fig2b`] — the logit-distribution view behind Fig 2(b);
//! * [`experiments::fig3`] — accuracy and comparison counts against ρ with
//!   and without index ordering (Fig 3);
//! * [`experiments::fig4`] — per-task energy efficiency normalized to the
//!   GPU (Fig 4).
//!
//! # Example
//!
//! ```no_run
//! use mann_core::{SuiteConfig, TaskSuite};
//! use mann_babi::TaskId;
//!
//! // Train a small two-task suite and regenerate a Table I-style report.
//! let cfg = SuiteConfig { tasks: vec![TaskId::SingleSupportingFact], ..SuiteConfig::quick() };
//! let suite = TaskSuite::build(&cfg);
//! let table = mann_core::experiments::table1::run(&suite, &Default::default());
//! println!("{}", table.render());
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod parallel;
pub mod persist;
pub mod report;

mod pipeline;
mod workload;

pub use persist::{write_json_report, ModelBundle, SuiteCache};
pub use pipeline::{SuiteConfig, TaskSuite, TrainedTask};
pub use workload::{run_workload, WorkloadResult};
