//! ARM-side convolution kernels (paper Sec. 3) on the `neon-sim` substrate.
//!
//! Pipelines provided:
//!
//! * [`direct`] — the plain nested-loop convolution, used as the correctness
//!   oracle for every other path,
//! * [`mod@gemm_conv`] — the paper's explicit-GEMM convolution: im2col → pad/pack
//!   → the re-designed low-bit GEMM (2–8 bit via the `SMLAL` / `MLA` schemes),
//! * [`winograd`] — the integer `F(2x2, 3x3)` fast path for 3x3/stride-1
//!   layers at ≤ 6 bit (Sec. 3.4): weights transformed once into
//!   [`WinogradWeights`], then [`winograd_conv_ws`] on the shared arena and
//!   the GEMM driver,
//! * [`ncnn`] — the ncnn-like 8-bit baseline (16-bit `SMLAL` directly into
//!   i32),
//! * [`bitserial`] — the TVM-like popcount (bit-serial) 2-bit baseline
//!   (Fig. 9),
//! * [`range_analysis`] — computed Winograd transform ranges, deriving the
//!   4–6-bit F(2x2,3x3) boundary and the F(4x4,3x3) rejection of Sec. 3.4,
//! * [`workspace`] — the engine's steady-state convolution: one entry
//!   point, [`gemm_conv_ws`], runs any of the three GEMM micro-kernels or
//!   Winograd from [`PackedWeights`] packed once per layer, with every
//!   intermediate buffer in a reusable [`ConvWorkspace`] arena.
//!
//! Every kernel returns a [`ConvOutput`]: the exact i32 accumulator tensor in
//! NCHW plus the analytic [`neon_sim::KernelSchedule`] that prices the whole
//! pipeline on the Cortex-A53 cost model.

#![forbid(unsafe_code)]

pub mod bitserial;
pub mod direct;
pub mod gemm_conv;
pub mod ncnn;
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

pub use bitserial::{bitserial_conv, schedule_bitserial_conv};
pub use direct::{direct_conv, direct_conv_scheduled, schedule_direct_conv};
pub use gemm_conv::{
    gemm_conv, gemm_conv_narrow, gemm_conv_sdot, schedule_gemm_conv, schedule_gemm_conv_narrow,
    schedule_gemm_conv_sdot,
};
pub use ncnn::{ncnn_conv, schedule_ncnn_conv};
pub use winograd::{
    schedule_winograd_conv, winograd_conv, winograd_conv_ws, winograd_operand_bounds,
    winograd_scheme, winograd_supported, WinogradWeights,
};
pub use workspace::{gemm_conv_ws, parallel_cycle_split, ConvWorkspace, PackedWeights};
