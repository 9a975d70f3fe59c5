//! Explicit-GEMM convolution (paper Sec. 3.2): im2col, pad/pack, and the
//! re-designed low-bit GEMM storing straight into the NCHW output.
//!
//! The pipeline itself is [`gemm_conv_ws`]; the one-shot [`gemm_conv`]
//! packs the weights and runs it on a fresh [`ConvWorkspace`]. The
//! schedules of all three GEMM micro-kernels are their GEMM schedule
//! inside the same conv stages ([`explicit_gemm_schedule`]).

use crate::workspace::{gemm_conv_ws, ConvWorkspace, PackedWeights};
use crate::ConvOutput;
use lowbit_qgemm::gemm::schedule_gemm;
use lowbit_qgemm::parallel::ParallelConfig;
use lowbit_qgemm::{pack_a, Scheme};
use lowbit_tensor::{ConvShape, QTensor};
use lowbit_trace::Tracer;
use neon_sim::{KernelSchedule, StageCost};

/// Runs the low-bit explicit-GEMM convolution at the input's bit width.
///
/// Weights must be NCHW `c_out x c_in x kh x kw` at the same bit width (or
/// narrower) than the activations; the scheme is chosen from the wider of the
/// two so the drain ratios stay safe. The weights are packed on every call
/// and the pipeline runs at one thread; the engine's prepack cache and
/// arena make repeated calls cheaper.
pub fn gemm_conv(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> ConvOutput {
    assert_eq!(
        weights.dims(),
        (shape.c_out, shape.c_in, shape.kh, shape.kw)
    );
    let scheme = Scheme::for_bits(input.bits().max(weights.bits()));
    let packed = PackedWeights::Wide(pack_a(weights.data(), shape.gemm_m(), shape.gemm_k()));
    let (cfg, mut ws) = (ParallelConfig::default(), ConvWorkspace::new());
    let acc = gemm_conv_ws(input, &packed, &scheme, shape, &cfg, &mut ws, &Tracer::null());
    ConvOutput {
        acc,
        schedule: schedule_gemm_conv(&scheme, shape),
    }
}

/// Analytic schedule for the whole explicit-GEMM pipeline on the paper's
/// wide 16x4 kernel.
///
/// # Panics
/// Under [`Scheme::ncnn16`], which the wide tile does not run: price the
/// ncnn baseline with [`lowbit_qgemm::TileKind::Ncnn`]'s schedule, as
/// `lowbit::arm_schedule` does.
pub fn schedule_gemm_conv(scheme: &Scheme, shape: &ConvShape) -> KernelSchedule {
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    explicit_gemm_schedule(schedule_gemm(scheme, m, k, n), shape)
}

/// Puts a GEMM's schedule (for the drain kernels: `pack A`, `pack B`,
/// `gemm`) inside the conv pipeline: the im2col expansion before it (read
/// the activation once per kernel tap, write the K x N matrix) and the
/// requantization pass after.
pub fn explicit_gemm_schedule(gemm: KernelSchedule, shape: &ConvShape) -> KernelSchedule {
    let (k, n) = (shape.gemm_k(), shape.gemm_n());
    let mut sched = KernelSchedule::new();
    sched.push(StageCost::bulk_move(
        "im2col",
        (k * n) as u64, // gathered reads (incl. re-reads of overlapping taps)
        (k * n) as u64,
    ));
    for stage in gemm.stages {
        sched.push(stage);
    }
    sched.push(requant_stage(shape));
    sched
}

/// The per-layer requantization pass (i32 accumulators back to i8), charged
/// in every pipeline exactly like the paper's measured kernels, which include
/// the quantized output store.
pub(crate) fn requant_stage(shape: &ConvShape) -> StageCost {
    let out = shape.output_len() as u64;
    StageCost::bulk_move("requant", out * 4, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_qgemm::TileKind;
    use lowbit_tensor::BitWidth;
    use neon_sim::CortexA53;

    /// Modeled A53 cycles of the explicit-GEMM conv on `tile`.
    fn conv_cycles(tile: TileKind, scheme: &Scheme, shape: &ConvShape) -> f64 {
        let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
        let gemm = tile.schedule(scheme, m, k, n);
        explicit_gemm_schedule(gemm, shape).cycles(&CortexA53::cost_model())
    }

    #[test]
    fn schedule_includes_all_pipeline_stages() {
        let shape = ConvShape::new(1, 16, 14, 14, 32, 3, 1, 1);
        let sched = schedule_gemm_conv(&Scheme::for_bits(BitWidth::W4), &shape);
        let model = CortexA53::cost_model();
        for stage in ["im2col", "pack A", "pack B", "gemm"] {
            assert!(
                sched.stage_cycles(stage, &model) > 0.0,
                "missing stage {stage}"
            );
        }
    }

    #[test]
    fn low_bit_gemm_conv_models_faster_than_ncnn() {
        // The headline of Fig. 7: 2-bit and 4-bit beat the ncnn 8-bit
        // baseline on the same layer; 8-bit does not beat it.
        let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        let model = CortexA53::cost_model();
        let ncnn = conv_cycles(TileKind::Ncnn, &Scheme::ncnn16(), &shape);
        let ours = |bits| schedule_gemm_conv(&Scheme::for_bits(bits), &shape).cycles(&model);
        assert!(ours(BitWidth::W2) < ncnn, "2-bit must beat ncnn");
        assert!(ours(BitWidth::W4) < ncnn, "4-bit must beat ncnn");
        let speedup8 = ncnn / ours(BitWidth::W8);
        assert!(
            (0.7..=1.1).contains(&speedup8),
            "8-bit should be at or below parity, got {speedup8}"
        );
    }

    #[test]
    fn sdot_pipeline_models_faster_than_ncnn_at_8_bit() {
        // The ARMv8.2 projection: with SDOT, even 8-bit convincingly beats
        // the v8.1 ncnn baseline.
        let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        let sdot = conv_cycles(TileKind::Sdot, &Scheme::for_bits(BitWidth::W8), &shape);
        let ncnn = conv_cycles(TileKind::Ncnn, &Scheme::ncnn16(), &shape);
        assert!(
            sdot * 1.5 < ncnn,
            "SDOT conv ({sdot:.0}) should handily beat ncnn ({ncnn:.0})"
        );
    }
}
