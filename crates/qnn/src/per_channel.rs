//! Per-output-channel weight quantization (extension).
//!
//! The paper uses per-tensor linear quantization; deployed int8/int4 stacks
//! almost universally quantize *weights* per output channel, which costs
//! nothing in the kernels (the scale is folded into each channel's
//! re-quantization multiplier) and reduces quantization error when channel
//! magnitudes are heterogeneous. This module provides the calibration, the
//! folded multipliers, and a measurable error comparison against per-tensor.

use crate::quant::{Quantizer, RequantParams};
use lowbit_tensor::{BitWidth, Layout, QTensor, Tensor};

/// Per-output-channel weight quantizer.
#[derive(Clone, Debug)]
pub struct PerChannelQuantizer {
    /// Bit width.
    pub bits: BitWidth,
    /// One scale per output channel.
    pub scales: Vec<f32>,
}

impl PerChannelQuantizer {
    /// Calibrates one scale per output channel of an NCHW weight tensor
    /// (`c_out x c_in x kh x kw`).
    pub fn calibrate(bits: BitWidth, weights: &Tensor<f32>) -> PerChannelQuantizer {
        let (c_out, c_in, kh, kw) = weights.dims();
        let per_ch = c_in * kh * kw;
        let scales = (0..c_out)
            .map(|co| {
                Quantizer::calibrate(bits, &weights.data()[co * per_ch..(co + 1) * per_ch]).scale
            })
            .collect();
        PerChannelQuantizer { bits, scales }
    }

    /// Quantizes the weight tensor channel by channel.
    pub fn quantize(&self, weights: &Tensor<f32>) -> QTensor {
        let (c_out, c_in, kh, kw) = weights.dims();
        assert_eq!(c_out, self.scales.len());
        assert_eq!(weights.layout(), Layout::Nchw);
        let per_ch = c_in * kh * kw;
        let mut data = Vec::with_capacity(weights.data().len());
        for co in 0..c_out {
            let q = Quantizer { bits: self.bits, scale: self.scales[co] };
            data.extend(
                weights.data()[co * per_ch..(co + 1) * per_ch]
                    .iter()
                    .map(|&v| q.quantize(v)),
            );
        }
        QTensor::new(
            Tensor::from_vec(weights.dims(), Layout::Nchw, data),
            self.bits,
            // The per-tensor scale slot is meaningless here; kernels use the
            // per-channel requant multipliers instead.
            1.0,
        )
    }

    /// The folded per-channel re-quantization parameters
    /// (`input_scale * weight_scale[c] / output_scale`).
    pub fn requant_params(
        &self,
        input_scale: f32,
        output_scale: f32,
        out_bits: BitWidth,
    ) -> Vec<RequantParams> {
        self.scales
            .iter()
            .map(|&s| RequantParams::new(out_bits, input_scale * s / output_scale))
            .collect()
    }

    /// Mean squared dequantization error of this quantizer on `weights`.
    pub fn mse(&self, weights: &Tensor<f32>) -> f64 {
        let q = self.quantize(weights);
        let (c_out, c_in, kh, kw) = weights.dims();
        let per_ch = c_in * kh * kw;
        let mut err = 0f64;
        for co in 0..c_out {
            for i in 0..per_ch {
                let w = weights.data()[co * per_ch + i];
                let d = q.data()[co * per_ch + i] as f32 * self.scales[co];
                err += ((w - d) as f64).powi(2);
            }
        }
        err / weights.data().len() as f64
    }
}

/// MSE of plain per-tensor quantization (for comparison).
pub fn per_tensor_mse(bits: BitWidth, weights: &Tensor<f32>) -> f64 {
    let q = Quantizer::calibrate(bits, weights.data());
    weights
        .data()
        .iter()
        .map(|&w| {
            let d = q.dequantize(q.quantize(w));
            ((w - d) as f64).powi(2)
        })
        .sum::<f64>()
        / weights.data().len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Weights with strongly heterogeneous channel magnitudes.
    fn heterogeneous_weights(seed: u64) -> Tensor<f32> {
        let (c_out, c_in, kh, kw) = (8, 4, 3, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for co in 0..c_out {
            let magnitude = 0.01 * 4f32.powi(co as i32 % 4);
            for _ in 0..c_in * kh * kw {
                data.push(rng.gen_range(-magnitude..magnitude));
            }
        }
        Tensor::from_vec((c_out, c_in, kh, kw), Layout::Nchw, data)
    }

    #[test]
    fn per_channel_beats_per_tensor_on_heterogeneous_channels() {
        let w = heterogeneous_weights(5);
        for bits in [BitWidth::W4, BitWidth::W8] {
            let pc = PerChannelQuantizer::calibrate(bits, &w);
            let e_pc = pc.mse(&w);
            let e_pt = per_tensor_mse(bits, &w);
            assert!(
                e_pc < e_pt / 2.0,
                "{bits}: per-channel MSE {e_pc:.3e} should be well below per-tensor {e_pt:.3e}"
            );
        }
    }

    #[test]
    fn per_channel_values_stay_in_range() {
        let w = heterogeneous_weights(6);
        let pc = PerChannelQuantizer::calibrate(BitWidth::W4, &w);
        let q = pc.quantize(&w);
        assert!(q
            .data()
            .iter()
            .all(|&v| v >= BitWidth::W4.qmin() && v <= BitWidth::W4.qmax()));
    }

    #[test]
    fn folded_multipliers_track_channel_scales() {
        let w = heterogeneous_weights(7);
        let pc = PerChannelQuantizer::calibrate(BitWidth::W8, &w);
        let rq = pc.requant_params(0.1, 0.05, BitWidth::W8);
        assert_eq!(rq.len(), 8);
        for (p, &s) in rq.iter().zip(&pc.scales) {
            assert!((p.multiplier - 0.1 * s / 0.05).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_channels_make_both_schemes_equal() {
        // When every channel has the same range, per-channel degenerates to
        // per-tensor.
        let (c_out, c_in, kh, kw) = (4, 2, 3, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let mut data: Vec<f32> = (0..c_out * c_in * kh * kw)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        // Pin the max of every channel to exactly 1.0.
        let per_ch = c_in * kh * kw;
        for co in 0..c_out {
            data[co * per_ch] = 1.0;
        }
        let w = Tensor::from_vec((c_out, c_in, kh, kw), Layout::Nchw, data);
        let pc = PerChannelQuantizer::calibrate(BitWidth::W6, &w);
        let ratio = pc.mse(&w) / per_tensor_mse(BitWidth::W6, &w);
        assert!((0.9..=1.1).contains(&ratio), "got {ratio}");
    }
}
