//! ARM-side convolution kernels (paper Sec. 3) on the `neon-sim` substrate.
//!
//! Pipelines provided:
//!
//! * [`algo`] — the kernel table: [`ArmAlgo`], where each algorithm
//!   applies and which drain scheme it runs (the ncnn-like 8-bit baseline
//!   is the narrow tile under `Scheme::ncnn16`),
//! * [`direct`] — the plain nested-loop convolution, used as the correctness
//!   oracle for every other path,
//! * [`mod@gemm_conv`] — the paper's explicit-GEMM convolution: im2col → pad/pack
//!   → the re-designed low-bit GEMM (2–8 bit via the `SMLAL` / `MLA` schemes);
//!   the one-shot [`gemm_conv()`] packs the weights and runs [`gemm_conv_ws`],
//!   and [`explicit_gemm_schedule`] prices any GEMM micro-kernel inside it,
//! * [`winograd`] — the integer `F(2x2, 3x3)` fast path for 3x3/stride-1
//!   layers at ≤ 6 bit (Sec. 3.4): weights transformed once into
//!   [`WinogradWeights`], then run by [`gemm_conv_ws`] on the shared arena
//!   and the GEMM driver,
//! * [`bitserial`] — the TVM-like popcount (bit-serial) 2-bit baseline
//!   (Fig. 9),
//! * [`range_analysis`] — computed Winograd transform ranges, deriving the
//!   4–6-bit F(2x2,3x3) boundary and the F(4x4,3x3) rejection of Sec. 3.4,
//! * [`workspace`] — the engine's steady-state convolution: one entry
//!   point, [`gemm_conv_ws`], runs any of the three GEMM micro-kernels or
//!   Winograd from [`PackedWeights`] packed once per layer, with every
//!   intermediate buffer in a reusable [`ConvWorkspace`] arena of three
//!   buffers that both families share.
//!
//! Every kernel returns a [`ConvOutput`]: the exact i32 accumulator tensor in
//! NCHW plus the analytic [`neon_sim::KernelSchedule`] that prices the whole
//! pipeline on the Cortex-A53 cost model.

#![forbid(unsafe_code)]

pub mod algo;
pub mod bitserial;
pub mod direct;
pub mod gemm_conv;
pub mod range_analysis;
pub mod winograd;
pub mod winograd_kernel;
pub mod workspace;

use lowbit_tensor::Tensor;
use neon_sim::KernelSchedule;

/// Result of an ARM convolution: exact i32 accumulators plus modeled cost.
#[derive(Clone, Debug)]
pub struct ConvOutput {
    /// `batch x c_out x out_h x out_w` accumulator tensor (NCHW).
    pub acc: Tensor<i32>,
    /// Analytic pipeline schedule.
    pub schedule: KernelSchedule,
}

pub use algo::ArmAlgo;
pub use bitserial::{bitserial_conv, schedule_bitserial_conv};
pub use direct::{direct_conv, schedule_direct_conv};
pub use gemm_conv::{explicit_gemm_schedule, gemm_conv, schedule_gemm_conv};
pub use winograd::{
    schedule_winograd_conv, winograd_conv, winograd_operand_bounds, winograd_scheme,
    winograd_supported, WinogradWeights,
};
pub use workspace::{
    gemm_conv_ws, parallel_cycle_split, prepack_fingerprint, ConvWorkspace, PackedWeights,
};
