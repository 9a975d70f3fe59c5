//! Quantized-network plumbing around the convolution kernels.
//!
//! The paper's layer sequence (Sec. 4.4) is
//! `quantize → conv(+re-quantize) → dequantize → quantize → ReLU → dequantize`;
//! this crate provides the linear symmetric quantizer, the i32→i8
//! re-quantization (with the adjustable truncation range that makes
//! conv+ReLU fusion possible), per-channel quantization and the elementwise
//! ops. The network graph lives in `lowbit::graph`; the Sec. 4.4 fusion
//! pricing lives in `lowbit_conv_gpu::fusion`.

#![forbid(unsafe_code)]

pub mod per_channel;
pub mod ops;
pub mod quant;

pub use ops::{add_bias, relu_f32, relu_q};
pub use per_channel::{per_tensor_mse, PerChannelQuantizer};
pub use quant::{
    dequantize_i32, quantize_f32, requantize, requantize_with_bias, Quantizer, RequantParams,
};
