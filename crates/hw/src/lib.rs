//! Cycle-level simulator of the FPGA dataflow accelerator (paper Fig 1).
//!
//! The accelerator is a streaming dataflow architecture: the host pushes the
//! trained model and inference data through a PCIe FIFO; the INPUT & WRITE
//! module embeds sentences by reading one embedding column per word (Eq 2)
//! and writes address/content memories; the MEM module performs
//! content-based addressing with a pipelined exponential LUT and a
//! sequential divider (Eq 1, Eq 5); the READ module is the recurrent
//! controller (Eqs 3–4); and the OUTPUT module evaluates output rows
//! sequentially (Eq 6) with optional inference-thresholding early exit.
//!
//! The simulator is *functional and timed*: every module really computes its
//! outputs on a Q16.16 fixed-point datapath ([`mann_linalg::Fixed`]) and
//! reports the cycles it occupied, so
//!
//! * answers can be cross-checked against the `f32` reference model, and
//! * inference latency, host-interface time, power, and energy follow from
//!   the same run (Table I / Fig 4).
//!
//! # Example
//!
//! ```
//! use mann_babi::{DatasetBuilder, TaskId};
//! use memn2n::{ModelConfig, TrainConfig, Trainer};
//! use mann_hw::{Accelerator, AccelConfig, ClockDomain};
//!
//! let data = DatasetBuilder::new().train_samples(30).test_samples(5).seed(1)
//!     .build_task(TaskId::SingleSupportingFact);
//! let mut trainer = Trainer::from_task_data(
//!     &data,
//!     ModelConfig { embed_dim: 16, hops: 2, ..ModelConfig::default() },
//!     TrainConfig { epochs: 3, ..TrainConfig::default() },
//! );
//! trainer.train();
//! let (model, _, test) = trainer.into_parts();
//! let accel = Accelerator::new(model, AccelConfig { clock: ClockDomain::mhz(100.0), ..AccelConfig::default() });
//! let run = accel.run(&test[0]);
//! assert!(run.cycles.get() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod adder_tree;
pub mod clock;
pub mod div_unit;
pub mod energy;
pub mod exp_unit;
pub mod fault;
pub mod fifo;
pub mod modules;
pub mod pcie;
pub mod resource;
pub mod sigmoid_unit;
pub mod trace;
pub mod weight_store;
pub mod write_path;

pub mod index;
pub mod story;

mod accel;
mod datapath;
mod quantize;
#[cfg(test)]
mod test_support;

pub use accel::{
    double_buffered_time_s, AccelConfig, Accelerator, InferenceRun, NumericReport, PhaseCycles,
    ResidentStory,
};
pub use clock::{ClockDomain, Cycles, SimTime};
pub use datapath::DatapathConfig;
pub use energy::PowerModel;
pub use fault::{
    fault_coin, fault_mix, inject_upsets, inject_upsets_in_bits, shard_fault_seed, UpsetSite,
};
pub use index::{IndexCounters, IndexedHopStats, MemIndex, MemIndexConfig, MemIndexError};
pub use pcie::{LinkArbiter, LinkGrant, PcieLink};
pub use quantize::quantize_params_tracked;
pub use resource::{ResourceEstimate, VCU107_BUDGET};
pub use story::{fnv1a_absorb, story_digest, Admission, CacheStats, LruSet, FNV_OFFSET};
