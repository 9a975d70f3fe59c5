//! Direct (nested-loop) convolution — the correctness oracle.

#![allow(clippy::field_reassign_with_default)] // InstCounts builders read clearer this way

use crate::gemm_conv::requant_stage;
use lowbit_qgemm::Scheme;
use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor, Tensor};
use neon_sim::{InstCounts, KernelSchedule, StageCost};

/// Computes the exact i32 convolution accumulators by definition.
///
/// `input` is NCHW `batch x c_in x h x w`; `weights` is NCHW
/// `c_out x c_in x kh x kw` (batch dim reused as `c_out`).
pub fn direct_conv(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> Tensor<i32> {
    assert_eq!(input.layout(), Layout::Nchw);
    assert_eq!(weights.layout(), Layout::Nchw);
    assert_eq!(
        input.dims(),
        (shape.batch, shape.c_in, shape.h, shape.w),
        "input dims mismatch"
    );
    assert_eq!(
        weights.dims(),
        (shape.c_out, shape.c_in, shape.kh, shape.kw),
        "weight dims mismatch"
    );
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut out: Tensor<i32> = Tensor::zeros((shape.batch, shape.c_out, oh, ow), Layout::Nchw);
    for b in 0..shape.batch {
        for co in 0..shape.c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i32;
                    for ci in 0..shape.c_in {
                        for kr in 0..shape.kh {
                            let iy = (oy * shape.stride + kr) as isize - shape.pad as isize;
                            if iy < 0 || iy >= shape.h as isize {
                                continue;
                            }
                            for kc in 0..shape.kw {
                                let ix =
                                    (ox * shape.stride + kc) as isize - shape.pad as isize;
                                if ix < 0 || ix >= shape.w as isize {
                                    continue;
                                }
                                acc += input.get((b, ci, iy as usize, ix as usize)) as i32
                                    * weights.get((co, ci, kr, kc)) as i32;
                            }
                        }
                    }
                    out.set((b, co, oy, ox), acc);
                }
            }
        }
    }
    out
}

/// Analytic schedule of the vectorized direct convolution (paper Sec. 2.2's
/// first class: "simple to implement but inefficient").
///
/// The modeled kernel vectorizes 16 output pixels along a row per step: for
/// each kernel tap it loads the corresponding input segment, broadcasts the
/// weight, and multiply-accumulates with the bit-width's drain scheme. It
/// needs no im2col or packing stages, but re-reads the input once per tap
/// and loses vector efficiency on strided layers — which is exactly why the
/// paper (and this crate's `Auto` policy) picks the GEMM-based method.
pub fn schedule_direct_conv(bits: BitWidth, shape: &ConvShape) -> KernelSchedule {
    let scheme = Scheme::for_bits(bits);
    let k = shape.gemm_k();
    let vectors =
        (shape.batch * shape.c_out * shape.out_h()) as u64 * shape.out_w().div_ceil(16) as u64;

    let mut per_vec = InstCounts::default();
    // Per tap: the 16-pixel input segment (two loads plus shuffle ALU when
    // the stride breaks contiguity) and an amortized weight broadcast.
    let (seg_loads, shuffle_alu) = if shape.stride == 1 { (1u64, 0u64) } else { (2, 2) };
    per_vec.loads = k as u64 * (seg_loads + 1); // + broadcast load per tap
    per_vec.load_bytes = k as u64 * (16 * seg_loads + 1);
    // MACs: 16 lanes per tap at the scheme's lane width.
    let mac_per_tap = 16usize.div_ceil(scheme.lanes_per_mac_inst()) as u64;
    per_vec.neon_mac = k as u64 * mac_per_tap;
    // Drains: 16 lanes of i16 partials = 4 SADDW per level-1 drain.
    let drains = k.div_ceil(scheme.ratio()).max(1) as u64;
    per_vec.neon_alu = 4 * drains + shuffle_alu * k as u64;
    per_vec.stores = 4;
    per_vec.store_bytes = 64;

    let mut total = InstCounts::default();
    total.add_scaled(&per_vec, vectors);
    let mut sched = KernelSchedule::new();
    sched.push(StageCost::compute("direct conv", total));
    sched.push(requant_stage(shape));
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_tensor::BitWidth;

    #[test]
    fn identity_kernel_reproduces_input() {
        // A single 1x1 weight of value 1 makes conv the identity.
        let shape = ConvShape::new(1, 1, 4, 4, 1, 1, 1, 0);
        let input = QTensor::random((1, 1, 4, 4), Layout::Nchw, BitWidth::W6, 1);
        let w = Tensor::from_vec((1, 1, 1, 1), Layout::Nchw, vec![1i8]);
        let weights = QTensor::new(w, BitWidth::W6, 1.0);
        let out = direct_conv(&input, &weights, &shape);
        for (o, &i) in out.data().iter().zip(input.data()) {
            assert_eq!(*o, i as i32);
        }
    }

    #[test]
    fn all_ones_kernel_sums_receptive_field() {
        let shape = ConvShape::new(1, 1, 3, 3, 1, 3, 1, 1);
        let data: Vec<i8> = (1..=9).collect();
        let input = QTensor::new(
            Tensor::from_vec((1, 1, 3, 3), Layout::Nchw, data),
            BitWidth::W5,
            1.0,
        );
        let weights = QTensor::new(
            Tensor::from_vec((1, 1, 3, 3), Layout::Nchw, vec![1i8; 9]),
            BitWidth::W5,
            1.0,
        );
        let out = direct_conv(&input, &weights, &shape);
        // Center output = sum of all 9 inputs = 45; corner (0,0) sums the
        // 2x2 in-bounds patch {1,2,4,5} = 12.
        assert_eq!(out.get((0, 0, 1, 1)), 45);
        assert_eq!(out.get((0, 0, 0, 0)), 12);
    }

    #[test]
    fn stride_two_subsamples() {
        let shape = ConvShape::new(1, 1, 5, 5, 1, 1, 2, 0);
        let input = QTensor::random((1, 1, 5, 5), Layout::Nchw, BitWidth::W4, 3);
        let weights = QTensor::new(
            Tensor::from_vec((1, 1, 1, 1), Layout::Nchw, vec![1i8]),
            BitWidth::W4,
            1.0,
        );
        let out = direct_conv(&input, &weights, &shape);
        assert_eq!(out.dims(), (1, 1, 3, 3));
        assert_eq!(out.get((0, 0, 1, 2)), input.get((0, 0, 2, 4)) as i32);
    }

    #[test]
    fn direct_conv_models_slower_than_gemm() {
        // Sec. 2.2: direct convolution is "simple to implement but
        // inefficient" — the reason every optimized path here is GEMM-based.
        let model = neon_sim::CortexA53::cost_model();
        let big = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        let direct = schedule_direct_conv(BitWidth::W4, &big).cycles(&model);
        let gemm = crate::schedule_gemm_conv(
            &lowbit_qgemm::Scheme::for_bits(BitWidth::W4),
            &big,
        )
        .cycles(&model);
        assert!(
            direct > gemm,
            "direct ({direct:.0}) should lose to the GEMM path ({gemm:.0})"
        );
    }

    #[test]
    fn strided_direct_conv_pays_the_shuffle_tax() {
        let model = neon_sim::CortexA53::cost_model();
        let s1 = ConvShape::new(1, 64, 28, 28, 64, 3, 1, 1);
        let s2 = ConvShape::new(1, 64, 56, 56, 64, 3, 2, 1); // same output size
        let t1 = schedule_direct_conv(BitWidth::W4, &s1).cycles(&model);
        let t2 = schedule_direct_conv(BitWidth::W4, &s2).cycles(&model);
        assert!(t2 > t1, "strided access must cost more per output");
    }

    #[test]
    fn channels_accumulate() {
        let shape = ConvShape::new(1, 3, 2, 2, 1, 1, 1, 0);
        let input = QTensor::new(
            Tensor::from_vec((1, 3, 2, 2), Layout::Nchw, vec![1i8; 12]),
            BitWidth::W3,
            1.0,
        );
        let weights = QTensor::new(
            Tensor::from_vec((1, 3, 1, 1), Layout::Nchw, vec![2i8, 3, -4]),
            BitWidth::W4,
            1.0,
        );
        let out = direct_conv(&input, &weights, &shape);
        assert!(out.data().iter().all(|&v| v == 2 + 3 - 4));
    }
}
