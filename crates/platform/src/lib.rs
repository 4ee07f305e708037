//! Analytic CPU/GPU execution models and energy-efficiency accounting.
//!
//! The paper measures an Intel Core i9-7900X, an NVIDIA TITAN V, and the
//! FPGA accelerator on the same workload and reports time, power, speedup,
//! and energy efficiency in FLOPS/kJ (Table I). Without the physical
//! testbed, this crate substitutes *calibrated analytic models*:
//!
//! * [`CpuModel`] — per-operation dispatch overhead plus bounded-throughput
//!   math; recurrent MANN inference on a CPU is dominated by op dispatch.
//! * [`GpuModel`] — per-kernel launch latency plus transfer time; small
//!   recurrent kernels leave a TITAN V almost entirely latency-bound.
//! * [`FpgaPlatform`] — an adapter over the cycle-level simulator in
//!   [`mann_hw`].
//!
//! Calibration constants and their derivation from Table I live in
//! [`calibration`].
//!
//! # The FLOPS/kJ metric
//!
//! Table I's "FLOPS/kJ" is achieved *throughput per energy*:
//! `(FLOPs / t) / (P · t / 1000)`. Both a platform's speed and its energy
//! enter, which is why the FPGA's advantage (~84x at 25 MHz) exceeds the
//! plain energy ratio (~16x): the normalized metric equals
//! `speedup² x power-ratio`. [`metrics::flops_per_kj`] implements exactly
//! this definition and the identity is property-tested.

#![forbid(unsafe_code)]

pub mod calibration;
pub mod cpu;
pub mod fpga;
pub mod gpu;
pub mod metrics;

mod device;

pub use cpu::CpuModel;
pub use device::{ExecutionModel, Measurement, MipsMode};
pub use fpga::FpgaPlatform;
pub use gpu::GpuModel;
pub use metrics::{flops_per_kj, EfficiencyRow};
