//! Facade crate for the MANN FPGA-accelerator reproduction (Park et al.,
//! DATE 2019).
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can depend on a single package:
//!
//! * [`linalg`] — vectors, matrices, fixed point, activation LUTs.
//! * [`babi`] — synthetic bAbI task generators and encoders.
//! * [`model`] — the end-to-end memory network with training.
//! * [`ith`] — inference thresholding (Algorithm 1).
//! * [`hw`] — the cycle-level dataflow accelerator simulator.
//! * [`platform`] — CPU/GPU analytic execution models and energy reports.
//! * [`core`] — end-to-end pipeline and Table I / Fig 3 / Fig 4 experiment
//!   runners.
//! * [`serve`] — batched multi-accelerator serving layer with simulated-time
//!   latency/energy reporting.
//!
//! # Quick start
//!
//! ```
//! use mann_accel::babi::{DatasetBuilder, TaskId};
//!
//! let data = DatasetBuilder::new().train_samples(5).test_samples(2).seed(1)
//!     .build_task(TaskId::SingleSupportingFact);
//! assert_eq!(data.train.len(), 5);
//! ```

#![forbid(unsafe_code)]

pub use mann_babi as babi;
pub use mann_core as core;
pub use mann_hw as hw;
pub use mann_ith as ith;
pub use mann_linalg as linalg;
pub use mann_platform as platform;
pub use mann_serve as serve;
pub use memn2n as model;
