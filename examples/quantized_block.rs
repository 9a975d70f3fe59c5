//! Conv+ReLU quantization fusion (paper Sec. 4.4): runs the reference
//! sequence `quantize -> conv -> dequantize -> quantize -> ReLU ->
//! dequantize` and its fused form (ReLU folded into the re-quantization
//! range) on real data, verifies they agree elementwise, and prices both
//! pipelines on the GPU model (Fig. 12).
//!
//! ```sh
//! cargo run --release --example quantized_block
//! ```

use lowbit::prelude::*;
use lowbit::qnn::{quantize_f32, relu_f32, Quantizer, RequantParams};
use lowbit_conv_gpu::fusion::{execute_fused, relu_fusion_times, FusionMode};
use lowbit_conv_gpu::{auto_search, ConvGpuPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let shape = ConvShape::new(1, 16, 12, 12, 16, 3, 1, 1);
    let device = *GpuEngine::rtx2080ti().device();

    // Float inputs, calibrated symmetric quantizers (the paper adopts the
    // DSQ/LSQ-style linear scheme).
    let mut rng = StdRng::seed_from_u64(2020);
    let input_f: Vec<f32> = (0..shape.input_len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let weight_f: Vec<f32> = (0..shape.weight_len()).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let qi = Quantizer::calibrate(BitWidth::W8, &input_f);
    let qw = Quantizer::calibrate(BitWidth::W8, &weight_f);
    let input = quantize_f32(
        &Tensor::from_vec((shape.batch, shape.c_in, shape.h, shape.w), Layout::Nhwc, input_f),
        &qi,
    );
    let weights = quantize_f32(
        &Tensor::from_vec((shape.c_out, shape.c_in, shape.kh, shape.kw), Layout::Nhwc, weight_f),
        &qw,
    );

    // Execute both forms of the conv+ReLU block and verify equivalence.
    let (cfg, _) = auto_search(&shape, Precision::TensorCoreInt8, &device);
    let plan = ConvGpuPlan::new(shape, cfg, Precision::TensorCoreInt8);
    let out_scale = 0.05f32;
    let rq = RequantParams::new(BitWidth::W8, qi.scale * qw.scale / out_scale);
    let fused_out = execute_fused(&plan, &input, &weights, &rq, out_scale, FusionMode::Relu);
    let unfused_out = relu_f32(&execute_fused(
        &plan, &input, &weights, &rq, out_scale, FusionMode::None,
    ));
    assert_eq!(fused_out.data(), unfused_out.data());
    println!("check : fused and unfused ReLU blocks agree on all {} outputs", fused_out.data().len());

    // Price the two pipelines at a realistic layer size.
    let big = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
    let (cfg, _) = auto_search(&big, Precision::TensorCoreInt8, &device);
    let plan = ConvGpuPlan::new(big, cfg, Precision::TensorCoreInt8);
    let (unfused_s, fused_s) = relu_fusion_times(&plan, &device);
    println!(
        "cost  : {big}: unfused {:.2} us vs fused {:.2} us -> {:.2}x (paper Fig. 12: 1.51x avg)",
        unfused_s * 1e6,
        fused_s * 1e6,
        unfused_s / fused_s
    );
}
