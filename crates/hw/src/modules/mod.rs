//! The five modules of the Fig 1 dataflow pipeline.
//!
//! Each module is functional *and* timed: it computes its real outputs on
//! the fixed-point datapath and reports the [`Cycles`](crate::Cycles) it
//! occupied. The [`Accelerator`](crate::Accelerator) sequences them along
//! the write path (green in Fig 1) and the recurrent read path (blue).

mod control;
mod input_write;
mod mem;
mod output;
mod read;

pub use control::{decode_stream, encode_sample_stream, ControlModule, HostWord, StreamError};
pub use input_write::InputWriteModule;
pub(crate) use mem::attention_peak;
pub use mem::MemModule;
pub use output::{OutputModule, OutputResult};
pub use read::ReadModule;
