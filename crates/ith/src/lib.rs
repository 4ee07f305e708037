//! Inference thresholding — the paper's data-based approximate maximum
//! inner-product search (Algorithm 1).
//!
//! In an NLP task the output dimension `|I|` is much larger than the
//! embedding dimension `|E|`, so the accelerator's OUTPUT module computes
//! logits `z_i = W_o[i] · h` *sequentially* and the output layer dominates
//! inference time. Inference thresholding speculates: if logit `z_i` clears
//! a per-class threshold `θ_i` whose Bayesian posterior `p(y = i | z_i)`
//! exceeds a confidence `ρ`, the search stops early.
//!
//! The calibration pipeline (Steps 1–3 of Algorithm 1) lives in
//! [`calibrate`]:
//!
//! 1. run the trained model over its training set and histogram each class's
//!    logit conditioned on being the (correct) answer ([`LogitStats`]);
//! 2. fit conditional densities by kernel density estimation ([`kde`]) and
//!    invert them through Bayes' rule into per-class thresholds
//!    ([`threshold`], Eq 8);
//! 3. order classes by descending silhouette coefficient ([`silhouette`]) so
//!    the most separable classes are probed first.
//!
//! Step 4 — the actual search — is [`search::ThresholdedMips`], with
//! [`search::ExhaustiveMips`] as the conventional baseline.
//!
//! # Example
//!
//! ```
//! use mann_babi::{DatasetBuilder, TaskId};
//! use memn2n::{ModelConfig, TrainConfig, Trainer};
//! use mann_ith::{ThresholdingCalibrator, search::{ExhaustiveMips, MipsStrategy, ThresholdedMips}};
//!
//! let data = DatasetBuilder::new().train_samples(60).test_samples(10).seed(2)
//!     .build_task(TaskId::SingleSupportingFact);
//! let mut trainer = Trainer::from_task_data(
//!     &data,
//!     ModelConfig { embed_dim: 16, hops: 2, ..ModelConfig::default() },
//!     TrainConfig { epochs: 5, ..TrainConfig::default() },
//! );
//! trainer.train();
//! let (model, train_set, test_set) = trainer.into_parts();
//! let ith = ThresholdingCalibrator::new().rho(1.0).calibrate(&model, &train_set);
//! let h = memn2n::forward::forward_until_output(&model.params, &test_set[0]);
//! let fast = ThresholdedMips::new(&ith).search(&model.params, &h);
//! let exact = ExhaustiveMips.search(&model.params, &h);
//! assert!(fast.comparisons <= exact.comparisons);
//! ```

#![forbid(unsafe_code)]

pub mod baselines;
pub mod calibrate;
pub mod guard;
pub mod histogram;
pub mod kde;
pub mod prune;
pub mod search;
pub mod silhouette;
pub mod threshold;

pub use calibrate::{LogitStats, PriorMode, ThresholdingCalibrator, ThresholdingModel};
pub use guard::ExitGuard;
pub use kde::{Kde, Kernel};
pub use prune::{HopPrune, HopPruneError};
pub use search::{ExhaustiveMips, MipsResult, MipsStrategy, ThresholdedMips};
