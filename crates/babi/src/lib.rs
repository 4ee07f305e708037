//! Synthetic bAbI-style question-answering tasks.
//!
//! The paper evaluates on the 20 bAbI QA tasks (Weston et al., 2015). The
//! original corpus is itself template-generated synthetic English; this crate
//! regenerates statistically equivalent data procedurally — same entities,
//! story shapes, vocabulary sizes, and answer-class structure — from a seeded
//! RNG, so every experiment is reproducible offline.
//!
//! # Structure
//!
//! * [`tasks`] — one generator per task archetype (1–20), all implementing
//!   [`tasks::TaskGenerator`].
//! * [`Sample`] — a story (list of sentences), a question, the single-token
//!   answer, and the indices of the supporting facts.
//! * [`Vocab`] / [`encode`] — token ↔ index maps and conversion of samples
//!   into the index form the model and the accelerator consume (bag-of-words
//!   plus a temporal token per sentence).
//! * [`TaskData`] / [`DatasetBuilder`] — deterministic train/test splits.
//!
//! # Example
//!
//! ```
//! use mann_babi::{DatasetBuilder, TaskId};
//!
//! let data = DatasetBuilder::new()
//!     .train_samples(20)
//!     .test_samples(5)
//!     .seed(42)
//!     .build_task(TaskId::SingleSupportingFact);
//! assert_eq!(data.train.len(), 20);
//! let s = &data.train[0];
//! assert!(!s.story.is_empty());
//! assert!(!s.answer.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod encode;
pub mod io;
pub mod tasks;

mod dataset;
mod sample;
mod vocab;
mod world;

pub use dataset::{DatasetBuilder, TaskData};
pub use encode::{EncodedSample, Encoder};
pub use sample::{Sample, Sentence};
pub use tasks::{TaskGenerator, TaskId};
pub use vocab::Vocab;
