//! End-to-end memory network (MANN) with from-scratch training.
//!
//! This crate implements the model of Park et al. (DATE 2019), Eqs 1–6: an
//! end-to-end memory network in which
//!
//! * each story sentence is embedded by **summing embedding columns** over
//!   its word indices (Eq 2) into an *address memory* `M_a` and a *content
//!   memory* `M_c`;
//! * the read key is the embedded question on the first hop and the
//!   controller output thereafter (Eq 3);
//! * content-based addressing computes attention
//!   `a_i = softmax(M_a[i] · k)` (Eq 1) and the read vector `r = M_c^T a`
//!   (Eq 5);
//! * the controller emits `h = r + W_r k` (Eq 4);
//! * the output layer predicts `argmax_i (W_o[i] · h)` (Eq 6).
//!
//! Training is plain SGD with manually derived gradients ([`backward()`]),
//! verified against finite differences by property tests. The paper runs
//! inference from pre-trained models; training in-process is what makes the
//! inference-thresholding calibration (Algorithm 1) honest, because it needs
//! real logit distributions.
//!
//! # Example
//!
//! ```
//! use mann_babi::{DatasetBuilder, TaskId};
//! use memn2n::{ModelConfig, Trainer, TrainConfig};
//!
//! let data = DatasetBuilder::new().train_samples(50).test_samples(10).seed(3)
//!     .build_task(TaskId::SingleSupportingFact);
//! let mut trainer = Trainer::from_task_data(&data, ModelConfig::default(), TrainConfig {
//!     epochs: 3, ..TrainConfig::default()
//! });
//! let report = trainer.train();
//! assert!(report.final_train_accuracy >= 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod backward;
pub mod flops;
pub mod forward;
pub mod loss;

mod config;
mod params;
mod trainer;
mod workspace;

pub use backward::{backward, backward_into, BackwardScratch, Gradients};
pub use config::{ControllerKind, ModelConfig};
pub use forward::{forward, forward_into, ForwardScratch, ForwardTrace};
pub use params::{GruParams, Params};
pub use trainer::{train_step, TrainConfig, TrainReport, TrainedModel, Trainer};
pub use workspace::Workspace;
