//! Dense linear algebra and fixed-point arithmetic for the MANN accelerator
//! reproduction.
//!
//! This crate is the numeric substrate shared by the software reference model
//! ([`memn2n`]), the inference-thresholding search, and the cycle-level FPGA
//! simulator. It provides:
//!
//! * [`Vector`] and [`Matrix`] — small, row-major, `f32` dense containers with
//!   the handful of kernels a memory network needs (dot products,
//!   matrix-vector products, outer products, softmax).
//! * [`Fixed`] — a Q16.16 fixed-point scalar mirroring the FPGA datapath,
//!   with saturating arithmetic and conversion to/from `f32`.
//! * [`activation`] — exact and LUT-approximated transcendental functions;
//!   the LUT variant models the BRAM exponential unit of the accelerator.
//! * [`NumericStatus`] — sticky numeric-event counters populated by the
//!   `*_tracked` fixed-point ops, mirroring a hardware status register.
//! * [`init`] — seeded weight initializers.
//! * [`stats`] — summary statistics used by calibration and tests.
//!
//! # Example
//!
//! ```
//! use mann_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), mann_linalg::ShapeError> {
//! let w = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 2.0]])?;
//! let x = Vector::from(vec![3.0, 4.0]);
//! let y = w.matvec(&x)?;
//! assert_eq!(y.as_slice(), &[3.0, 8.0]);
//! # Ok(())
//! # }
//! ```
//!
//! [`memn2n`]: https://docs.rs/memn2n

#![deny(unsafe_code)]

pub mod activation;
pub mod fixed;
pub mod init;
pub mod matrix;
pub mod numeric;
pub mod reference;
pub mod stats;
pub mod vector;

mod error;

pub use error::ShapeError;
pub use fixed::Fixed;
pub use matrix::Matrix;
pub use numeric::NumericStatus;
pub use vector::Vector;
