//! Quantization fusion (paper Sec. 4.4, Fig. 12).
//!
//! Around every conv sits the representation plumbing
//! `… conv(+requant) → dequantize → quantize → ReLU → dequantize`. Each
//! elementwise stage is a full kernel launch plus a round trip through
//! global memory; the two fusions eliminate them:
//!
//! * **conv + dequantization** — the epilogue converts i32 accumulators to
//!   f32 in registers and writes f32 once (no intermediate i8 tensor, one
//!   kernel fewer),
//! * **conv + ReLU** — the re-quantization truncation range is clamped at 0
//!   ([`lowbit_qnn::RequantParams::with_relu`]), which deletes the whole
//!   `dequantize → quantize → ReLU` sandwich.

use crate::implicit_gemm::ConvGpuPlan;
use lowbit_qnn::{dequantize_i32, requantize, RequantParams};
use lowbit_tensor::{QTensor, Tensor};
use turing_sim::kernel::elementwise_time;
use turing_sim::Device;

/// Which fusion the conv kernel's epilogue performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FusionMode {
    /// Plain conv with i8 re-quantized output; downstream stages run as
    /// separate kernels.
    None,
    /// Conv + dequantization: f32 output directly from registers.
    Dequant,
    /// Conv + ReLU: re-quantization truncates at zero (then a single
    /// dequantize follows if float output is needed).
    Relu,
}

/// Modeled time of the *conv + dequantize* sequence (Fig. 12, first group).
///
/// Returns `(unfused_seconds, fused_seconds)`.
pub fn dequant_fusion_times(plan: &ConvGpuPlan, device: &Device) -> (f64, f64) {
    let out_elems = plan.shape.output_len() as u64;
    // Unfused: conv writes i8 (in-place requant), then a dequantize kernel
    // reads i8 and writes f32.
    let conv_i8 = plan.time(device).total_s;
    let dequant = elementwise_time(device, out_elems, 4 * out_elems);
    let unfused = conv_i8 + dequant;
    // Fused: the conv epilogue writes f32 directly (4x output traffic, no
    // second kernel).
    let mut fused_plan = plan.clone();
    fused_plan.opts.in_place_epilogue = false; // f32 output = 4 B/elem
    let fused = fused_plan.time(device).total_s;
    (unfused, fused)
}

/// Modeled time of the *conv … ReLU* block (Fig. 12, second group).
///
/// Unfused: `conv(+requant) → dequantize → quantize → ReLU → dequantize`;
/// fused: `conv(+requant clamped at 0) → dequantize`.
/// Returns `(unfused_seconds, fused_seconds)`.
pub fn relu_fusion_times(plan: &ConvGpuPlan, device: &Device) -> (f64, f64) {
    let out = plan.shape.output_len() as u64;
    let conv = plan.time(device).total_s;
    let dequant = elementwise_time(device, out, 4 * out); // i8 -> f32
    let quant = elementwise_time(device, 4 * out, out); // f32 -> i8
    let relu = elementwise_time(device, out, out); // i8 -> i8
    let unfused = conv + dequant + quant + relu + dequant;
    let fused = conv + dequant; // ReLU folded into the conv's truncation
    (unfused, fused)
}

/// Functional fused execution: conv accumulators through the fused epilogue.
///
/// * `FusionMode::None` → re-quantized i8 tensor (dequantized here only for
///   comparison convenience),
/// * `FusionMode::Dequant` → f32 tensor,
/// * `FusionMode::Relu` → f32 tensor after the clamped re-quantization and
///   final dequantize.
pub fn execute_fused(
    plan: &ConvGpuPlan,
    input: &QTensor,
    weights: &QTensor,
    requant: &RequantParams,
    out_scale: f32,
    mode: FusionMode,
) -> Tensor<f32> {
    let (acc, _) = plan.execute(input, weights);
    match mode {
        FusionMode::None => {
            // conv(+requant) then separate dequantize kernel.
            let q = requantize(&acc, requant);
            let data: Vec<f32> = q.data().iter().map(|&v| v as f32 * out_scale).collect();
            Tensor::from_vec(q.dims(), q.layout(), data)
        }
        FusionMode::Dequant => {
            // i32 -> f32 directly with the combined scale.
            dequantize_i32(&acc, input.scale() * weights.scale())
        }
        FusionMode::Relu => {
            let q = requantize(&acc, &requant.with_relu());
            let data: Vec<f32> = q.data().iter().map(|&v| v as f32 * out_scale).collect();
            Tensor::from_vec(q.dims(), q.layout(), data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::default_config;
    use lowbit_qnn::relu_f32;
    use lowbit_tensor::{BitWidth, ConvShape, Layout};
    use turing_sim::Precision;

    fn plan_for(shape: ConvShape) -> ConvGpuPlan {
        ConvGpuPlan::new(
            shape,
            default_config(Precision::TensorCoreInt8),
            Precision::TensorCoreInt8,
        )
    }

    #[test]
    fn dequant_fusion_speeds_up_the_block() {
        let d = Device::rtx2080ti();
        let plan = plan_for(ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1));
        let (unfused, fused) = dequant_fusion_times(&plan, &d);
        let speedup = unfused / fused;
        assert!(
            (1.02..=1.8).contains(&speedup),
            "Fig. 12 band for conv+dequant is ~1.18x, got {speedup}"
        );
    }

    #[test]
    fn relu_fusion_speeds_up_more_than_dequant_fusion() {
        let d = Device::rtx2080ti();
        let plan = plan_for(ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1));
        let (u_d, f_d) = dequant_fusion_times(&plan, &d);
        let (u_r, f_r) = relu_fusion_times(&plan, &d);
        assert!(
            u_r / f_r > u_d / f_d,
            "ReLU fusion removes three kernels, dequant fusion one"
        );
        assert!((1.2..=2.5).contains(&(u_r / f_r)), "got {}", u_r / f_r);
    }

    #[test]
    fn fused_relu_equals_unfused_sequence() {
        // Functional equivalence of the Sec. 4.4 rewrite: requant-with-clamp
        // == requant -> relu, elementwise, for the full conv block.
        let shape = ConvShape::new(1, 8, 6, 6, 8, 3, 1, 1);
        let cfg = crate::tiling::TileConfig {
            m_tile: 16, n_tile: 8, k_tile: 32, k_step: 16, warps_m: 2, warps_n: 1,
        };
        let plan = ConvGpuPlan::new(shape, cfg, Precision::TensorCoreInt8);
        let input = QTensor::random((1, 8, 6, 6), Layout::Nhwc, BitWidth::W8, 31);
        let weights = QTensor::random((8, 8, 3, 3), Layout::Nhwc, BitWidth::W8, 32);
        let rq = RequantParams::new(BitWidth::W8, 0.01);
        let out_scale = 0.33;

        let fused = execute_fused(&plan, &input, &weights, &rq, out_scale, FusionMode::Relu);
        let unfused = {
            let base = execute_fused(&plan, &input, &weights, &rq, out_scale, FusionMode::None);
            relu_f32(&base)
        };
        assert_eq!(fused.data(), unfused.data());
    }

    #[test]
    fn fused_dequant_equals_plain_dequantized_accumulators() {
        let shape = ConvShape::new(1, 4, 5, 5, 6, 1, 1, 0);
        let cfg = crate::tiling::TileConfig {
            m_tile: 16, n_tile: 8, k_tile: 32, k_step: 16, warps_m: 2, warps_n: 1,
        };
        let plan = ConvGpuPlan::new(shape, cfg, Precision::TensorCoreInt8);
        let input = QTensor::random((1, 4, 5, 5), Layout::Nhwc, BitWidth::W8, 41);
        let weights = QTensor::random((6, 4, 1, 1), Layout::Nhwc, BitWidth::W8, 42);
        let rq = RequantParams::new(BitWidth::W8, 1.0);
        let fused =
            execute_fused(&plan, &input, &weights, &rq, 1.0, FusionMode::Dequant);
        let (acc, _) = plan.execute(&input, &weights);
        let want = dequantize_i32(&acc, input.scale() * weights.scale());
        assert_eq!(fused.data(), want.data());
    }
}
