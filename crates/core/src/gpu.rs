//! The GPU convolution engine: tiling policy over the Sec. 4 kernel.

use lowbit_conv_gpu::{auto_search, default_config, ConvGpuPlan, TileConfig};
use lowbit_tensor::{BitWidth, ConvShape, QTensor, Tensor};
use turing_sim::{Device, KernelTime, Precision};

/// How tiling parameters are chosen.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tuning {
    /// The Fig. 11 `w/o profile` default parameters.
    Default,
    /// Profile-run auto-search over the template space (Fig. 11
    /// `w/ profile`).
    AutoSearch,
    /// A caller-supplied configuration.
    Fixed(TileConfig),
}

/// Result of a GPU convolution.
#[derive(Clone, Debug)]
pub struct GpuConvResult {
    /// Exact i32 accumulators (NHWC).
    pub acc: Tensor<i32>,
    /// The tiling configuration that ran.
    pub cfg: TileConfig,
    /// Modeled launch time.
    pub time: KernelTime,
}

/// A GPU target.
#[derive(Clone, Debug)]
pub struct GpuEngine {
    device: Device,
}

impl GpuEngine {
    /// The RTX 2080 Ti target of the paper.
    pub fn rtx2080ti() -> GpuEngine {
        GpuEngine {
            device: Device::rtx2080ti(),
        }
    }

    /// An engine on a custom device description.
    pub fn with_device(device: Device) -> GpuEngine {
        GpuEngine { device }
    }

    /// The engine's device model.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Maps a bit width to the Tensor Core path (only 4- and 8-bit exist on
    /// the GPU, Sec. 2.3).
    pub fn precision_for(bits: BitWidth) -> Option<Precision> {
        ConvGpuPlan::precision_for_bits(bits)
    }

    /// Builds the plan for one layer.
    pub fn plan(&self, shape: &ConvShape, bits: BitWidth, tuning: Tuning) -> ConvGpuPlan {
        let precision = Self::precision_for(bits)
            .unwrap_or_else(|| panic!("GPU path supports 4/8-bit, got {bits}"));
        let cfg = match tuning {
            Tuning::Default => default_config(precision),
            Tuning::AutoSearch => auto_search(shape, precision, &self.device).0,
            Tuning::Fixed(cfg) => cfg,
        };
        ConvGpuPlan::new(*shape, cfg, precision)
    }

    /// Runs a convolution functionally (NHWC in, NHWC i32 out) and reports
    /// modeled time.
    pub fn conv(
        &self,
        input: &QTensor,
        weights: &QTensor,
        shape: &ConvShape,
        tuning: Tuning,
    ) -> GpuConvResult {
        let bits = input.bits().max(weights.bits());
        let plan = self.plan(shape, bits, tuning);
        let (acc, _) = plan.execute(input, weights);
        let time = plan.time(&self.device);
        GpuConvResult {
            acc,
            cfg: plan.cfg,
            time,
        }
    }

    /// Modeled time without executing.
    pub fn estimate(&self, shape: &ConvShape, bits: BitWidth, tuning: Tuning) -> KernelTime {
        self.plan(shape, bits, tuning).time(&self.device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_tensor::Layout;

    #[test]
    fn conv_runs_and_times_both_precisions() {
        let engine = GpuEngine::rtx2080ti();
        let shape = ConvShape::new(1, 8, 6, 6, 8, 3, 1, 1);
        for bits in [BitWidth::W4, BitWidth::W8] {
            let input = QTensor::random((1, 8, 6, 6), Layout::Nhwc, bits, 3);
            let weights = QTensor::random((8, 8, 3, 3), Layout::Nhwc, bits, 4);
            let out = engine.conv(&input, &weights, &shape, Tuning::Default);
            assert_eq!(out.acc.dims(), (1, 8, 6, 6));
            assert!(out.time.total_s > 0.0);
        }
    }

    #[test]
    fn auto_search_estimate_dominates_default() {
        let engine = GpuEngine::rtx2080ti();
        let shape = ConvShape::new(1, 512, 7, 7, 512, 3, 1, 1);
        let default = engine.estimate(&shape, BitWidth::W8, Tuning::Default);
        let tuned = engine.estimate(&shape, BitWidth::W8, Tuning::AutoSearch);
        assert!(tuned.total_s <= default.total_s);
    }

    #[test]
    #[should_panic(expected = "supports 4/8-bit")]
    fn rejects_unsupported_bit_widths() {
        let engine = GpuEngine::rtx2080ti();
        let shape = ConvShape::new(1, 8, 6, 6, 8, 1, 1, 0);
        let _ = engine.plan(&shape, BitWidth::W5, Tuning::Default);
    }

    #[test]
    fn precision_mapping_is_exactly_4_and_8() {
        assert_eq!(
            GpuEngine::precision_for(BitWidth::W4),
            Some(Precision::TensorCoreInt4)
        );
        assert_eq!(
            GpuEngine::precision_for(BitWidth::W8),
            Some(Precision::TensorCoreInt8)
        );
        for bits in [BitWidth::W2, BitWidth::W3, BitWidth::W5, BitWidth::W6, BitWidth::W7] {
            assert_eq!(GpuEngine::precision_for(bits), None);
        }
    }
}
