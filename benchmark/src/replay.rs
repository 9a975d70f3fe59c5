//! Replays of single layers' public calls on a workload's own shapes, each
//! recorded as a span of the traced pass.

use crate::spans::Recorder;
use lowbit::prelude::*;
use lowbit::qgemm::narrow::pack_a_narrow;
use lowbit::qgemm::parallel::{gemm_parallel_cm, ParallelConfig, SharedWeights};
use lowbit::qgemm::{pack_a, GemmWorkspace, Scheme};
use lowbit::qnn::{quantize_f32, requantize, Quantizer};
use lowbit::tensor::{im2col_nchw_into, Im2colMatrix};

/// The metric family of an ARM kernel.
fn family(algo: ArmAlgo) -> &'static str {
    match algo {
        ArmAlgo::Gemm => "gemm_wide",
        ArmAlgo::GemmNarrow => "gemm_narrow",
        ArmAlgo::Winograd => "winograd",
        ArmAlgo::GemmSdot => "gemm_sdot",
        _ => "baseline",
    }
}

/// The concrete ARM kernel a plan layer runs.
pub fn arm_algo(lp: &LayerPlan) -> Option<ArmAlgo> {
    match lp.algo {
        PlanAlgo::Arm(a) => Some(a),
        PlanAlgo::GpuImplicitGemm(_) => None,
    }
}

/// Times `ArmEngine::conv` and books it under `conv.ms`, the kernel
/// family's `conv.<family>_ms`, any `extra` metric, and their MAC rates.
#[allow(clippy::too_many_arguments)]
pub fn arm_conv(
    rec: &mut Recorder,
    engine: &ArmEngine,
    act: &QTensor,
    weights: &QTensor,
    shape: &ConvShape,
    algo: ArmAlgo,
    label: &str,
    extra: Option<&str>,
) -> ArmConvResult {
    let resolved = match algo {
        ArmAlgo::Auto => engine.select_algo(act.bits().max(weights.bits()), shape),
        a => a,
    };
    let fam = family(resolved);
    let fam_ms = format!("conv.{fam}_ms");
    let mut metrics = vec!["conv.ms", fam_ms.as_str()];
    metrics.extend(extra);
    let out = rec.call(
        "ArmEngine::conv",
        &format!("{label} {resolved:?}"),
        &metrics,
        || engine.conv(act, weights, shape, algo),
    );
    book_rates(rec, fam, shape.macs());
    out
}

/// Books `macs` of convolution work under the total and the family rate.
pub fn book_rates(rec: &mut Recorder, fam: &'static str, macs: u64) {
    rec.work("conv.gmacps", "conv.ms", macs);
    let rate: &'static str = match fam {
        "gemm_wide" => "conv.gemm_wide_gmacps",
        "gemm_narrow" => "conv.gemm_narrow_gmacps",
        "winograd" => "conv.winograd_gmacps",
        "gpu" => "conv.gpu_gmacps",
        _ => return,
    };
    rec.work(rate, &format!("conv.{fam}_ms"), macs);
}

/// Reusable buffers of the stage replays.
#[derive(Default)]
pub struct StageScratch {
    col: Im2colMatrix,
    gemm: GemmWorkspace,
}

/// Replays the explicit-GEMM pipeline's stages of one layer:
/// `im2col_nchw_into`, the weight pack (`pack_a` or `pack_a_narrow`), and
/// `gemm_parallel_cm` at the engine's thread count. Other kernels have no
/// such stages and are skipped.
#[allow(clippy::too_many_arguments)]
pub fn gemm_stages(
    rec: &mut Recorder,
    scratch: &mut StageScratch,
    act: &QTensor,
    weights: &QTensor,
    shape: &ConvShape,
    algo: ArmAlgo,
    threads: usize,
    label: &str,
) {
    if !matches!(algo, ArmAlgo::Gemm | ArmAlgo::GemmNarrow) {
        return;
    }
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    let scheme = Scheme::for_bits(act.bits().max(weights.bits()));
    let cfg = ParallelConfig::with_threads(threads);
    rec.call("im2col_nchw_into", label, &["stage.im2col_ms"], || {
        im2col_nchw_into(act, shape, &mut scratch.col)
    });
    let b = &scratch.col.data;
    let gemm = &mut scratch.gemm;
    if algo == ArmAlgo::Gemm {
        let pa = rec.call("pack_a", label, &["stage.pack_a_ms"], || {
            pack_a(weights.data(), m, k)
        });
        rec.call("gemm_parallel_cm", label, &["stage.gemm_ms"], || {
            gemm_parallel_cm(&scheme, SharedWeights::Wide(&pa), b, k, n, &cfg, gemm)
                .first()
                .copied()
        });
    } else {
        let pa = rec.call("pack_a_narrow", label, &["stage.pack_a_ms"], || {
            pack_a_narrow(weights.data(), m, k)
        });
        rec.call("gemm_parallel_cm", label, &["stage.gemm_ms"], || {
            gemm_parallel_cm(&scheme, SharedWeights::Narrow(&pa), b, k, n, &cfg, gemm)
                .first()
                .copied()
        });
    }
}

/// Replays the input quantization (`Quantizer::calibrate` + `quantize_f32`).
pub fn quantize(rec: &mut Recorder, input: &Tensor<f32>, bits: BitWidth) -> QTensor {
    rec.call("quantize_f32", "input", &["stage.quantize_ms"], || {
        quantize_f32(input, &Quantizer::calibrate(bits, input.data()))
    })
}

/// Replays one layer's re-quantization of its accumulators.
pub fn requant(rec: &mut Recorder, acc: &Tensor<i32>, epilogue: &Epilogue, label: &str) -> QTensor {
    let rq = epilogue.effective_requant();
    rec.call("requantize", label, &["stage.requantize_ms"], || {
        requantize(acc, &rq)
    })
}

/// A seeded activation of a layer's input shape.
pub fn activation(shape: &ConvShape, bits: BitWidth, seed: u64) -> QTensor {
    QTensor::random(
        (shape.batch, shape.c_in, shape.h, shape.w),
        Layout::Nchw,
        bits,
        seed,
    )
}
