//! The ncnn-like 8-bit baseline (paper Sec. 5.2's description of ncnn):
//! im2col explicit GEMM where 8-bit operands are pre-widened to 16 bits and
//! `SMLAL vd.4s` accumulates directly into 32-bit registers — no drain
//! instructions, but half the MAC lanes and double the operand traffic.
//!
//! On the host it is the narrow 8x4 tile under [`Scheme::ncnn16`] (i8
//! panels widened in registers) on [`crate::gemm_conv()`]'s pipeline; the
//! schedule still prices ncnn's pre-widened i16 panels.

use crate::gemm_conv::explicit_gemm_schedule;
use crate::workspace::{gemm_conv_ws, ConvWorkspace, PackedWeights};
use crate::ConvOutput;
use lowbit_qgemm::gemm::schedule_gemm;
use lowbit_qgemm::narrow::pack_a_narrow;
use lowbit_qgemm::parallel::ParallelConfig;
use lowbit_qgemm::Scheme;
use lowbit_tensor::{ConvShape, QTensor};
use lowbit_trace::Tracer;
use neon_sim::KernelSchedule;

/// Runs the ncnn-like 8-bit convolution. The weights are packed on every
/// call and the pipeline runs at one thread.
pub fn ncnn_conv(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> ConvOutput {
    assert_eq!(
        weights.dims(),
        (shape.c_out, shape.c_in, shape.kh, shape.kw)
    );
    let (m, k) = (shape.gemm_m(), shape.gemm_k());
    let packed = PackedWeights::Narrow(pack_a_narrow(weights.data(), m, k));
    let (scheme, cfg, mut ws) = (Scheme::ncnn16(), ParallelConfig::default(), ConvWorkspace::new());
    let acc = gemm_conv_ws(input, &packed, &scheme, shape, &cfg, &mut ws, &Tracer::null());
    ConvOutput {
        acc,
        schedule: schedule_ncnn_conv(shape),
    }
}

/// Analytic schedule for the ncnn-like pipeline.
pub fn schedule_ncnn_conv(shape: &ConvShape) -> KernelSchedule {
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    explicit_gemm_schedule(schedule_gemm(&Scheme::ncnn16(), m, k, n), shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{direct_conv, gemm_conv};
    use lowbit_tensor::{BitWidth, Layout};
    use neon_sim::CortexA53;

    #[test]
    fn matches_direct_conv() {
        let shape = ConvShape::new(2, 4, 8, 8, 6, 3, 1, 1);
        let input = QTensor::random((2, 4, 8, 8), Layout::Nchw, BitWidth::W8, 61);
        let weights = QTensor::random((6, 4, 3, 3), Layout::Nchw, BitWidth::W8, 62);
        let out = ncnn_conv(&input, &weights, &shape);
        assert_eq!(out.acc.data(), direct_conv(&input, &weights, &shape).data());
    }

    #[test]
    fn low_bit_gemm_conv_models_faster_than_ncnn() {
        // The headline of Fig. 7: 2-bit and 4-bit beat the ncnn 8-bit
        // baseline on the same layer; 8-bit does not beat it.
        let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        let model = CortexA53::cost_model();
        let ncnn = schedule_ncnn_conv(&shape).cycles(&model);
        let ours = |bits: BitWidth| {
            crate::schedule_gemm_conv(&lowbit_qgemm::Scheme::for_bits(bits), &shape)
                .cycles(&model)
        };
        assert!(ours(BitWidth::W2) < ncnn, "2-bit must beat ncnn");
        assert!(ours(BitWidth::W4) < ncnn, "4-bit must beat ncnn");
        let speedup8 = ncnn / ours(BitWidth::W8);
        assert!(
            (0.7..=1.1).contains(&speedup8),
            "8-bit should be at or below parity, got {speedup8}"
        );
    }

    #[test]
    fn gemm_conv_and_ncnn_agree_numerically_at_8_bit() {
        let shape = ConvShape::new(1, 3, 7, 9, 5, 3, 2, 1);
        let input = QTensor::random((1, 3, 7, 9), Layout::Nchw, BitWidth::W8, 71);
        let weights = QTensor::random((5, 3, 3, 3), Layout::Nchw, BitWidth::W8, 72);
        let ours = gemm_conv(&input, &weights, &shape);
        let ncnn = ncnn_conv(&input, &weights, &shape);
        assert_eq!(ours.acc.data(), ncnn.acc.data());
    }
}
