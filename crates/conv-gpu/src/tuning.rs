//! Tiling-parameter auto-search via profile runs (Sec. 5.1, Fig. 11).
//!
//! The paper generates kernels for many tiling-parameter combinations with
//! C++ templates and picks the fastest by profiling each shape once. Here the
//! "profile run" evaluates the analytic launch model — the same model that
//! times the chosen kernel — so searched configurations are exactly
//! comparable.

use crate::implicit_gemm::ConvGpuPlan;
use crate::tiling::TileConfig;
use lowbit_tensor::ConvShape;
use turing_sim::{Device, KernelTime, Precision};

/// The "programmer experience" default of Fig. 11's `w/o profile` bars: a
/// large square tile that is excellent for big GEMMs and poor for batch-1
/// ResNet shapes.
pub fn default_config(precision: Precision) -> TileConfig {
    TileConfig {
        m_tile: 128,
        n_tile: 128,
        k_tile: 64,
        k_step: TileConfig::k_mma(precision) * 2,
        warps_m: 2,
        warps_n: 2,
    }
}

/// What the tuner's candidate enumeration saw: how many template
/// instantiations survived and why the rest were rejected, tallied by
/// [`crate::tiling::TileRejection::kind`]. Surfaced in tuning logs and the
/// `lowbit-verify --gpu` report so a shrinking search space is explainable.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SearchStats {
    /// Configurations that entered the search.
    pub accepted: usize,
    /// Rejection tallies, keyed by the typed reason's stable tag.
    pub rejected: std::collections::BTreeMap<&'static str, usize>,
}

impl SearchStats {
    /// Total configurations enumerated (accepted + rejected).
    pub fn enumerated(&self) -> usize {
        self.accepted + self.rejected.values().sum::<usize>()
    }
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} configs valid", self.accepted, self.enumerated())?;
        for (kind, n) in &self.rejected {
            write!(f, ", {n} {kind}")?;
        }
        Ok(())
    }
}

/// Enumerates the valid search space for a precision (the template
/// instantiations of Sec. 5.1).
pub fn search_space(precision: Precision) -> Vec<TileConfig> {
    search_space_stats(precision).0
}

/// [`search_space`] plus the typed rejection tally for everything the
/// enumeration filtered out.
pub fn search_space_stats(precision: Precision) -> (Vec<TileConfig>, SearchStats) {
    let mut out = Vec::new();
    let mut stats = SearchStats::default();
    let k_mma = TileConfig::k_mma(precision);
    for &m_tile in &[16, 32, 64, 128, 256] {
        for &n_tile in &[16, 32, 64, 128, 256] {
            for &k_tile in &[32, 64, 128] {
                for &(warps_m, warps_n) in
                    &[(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 2), (4, 4)]
                {
                    for &k_step in &[k_mma, 2 * k_mma] {
                        let cfg = TileConfig {
                            m_tile,
                            n_tile,
                            k_tile,
                            k_step,
                            warps_m,
                            warps_n,
                        };
                        match cfg.validate(precision, 64 * 1024) {
                            Ok(()) => {
                                stats.accepted += 1;
                                out.push(cfg);
                            }
                            Err(r) => *stats.rejected.entry(r.kind()).or_insert(0) += 1,
                        }
                    }
                }
            }
        }
    }
    (out, stats)
}

/// Profile-run auto-search: returns the best configuration and its modeled
/// time for one shape. Deterministic; run once per shape (the paper notes
/// the overhead is negligible and amortized).
///
/// ```
/// use lowbit_conv_gpu::{auto_search, default_config, ConvGpuPlan};
/// use lowbit_tensor::ConvShape;
/// use turing_sim::{Device, Precision};
///
/// let device = Device::rtx2080ti();
/// let shape = ConvShape::new(1, 512, 7, 7, 512, 3, 1, 1); // batch-1 late layer
/// let (cfg, tuned) = auto_search(&shape, Precision::TensorCoreInt8, &device);
/// let default = ConvGpuPlan::new(shape, default_config(Precision::TensorCoreInt8),
///                                Precision::TensorCoreInt8).time(&device);
/// assert!(tuned.total_s <= default.total_s); // Fig. 11's whole point
/// assert!(cfg.m_tile <= 128);
/// ```
pub fn auto_search(
    shape: &ConvShape,
    precision: Precision,
    device: &Device,
) -> (TileConfig, KernelTime) {
    let mut best: Option<(TileConfig, KernelTime)> = None;
    for cfg in search_space(precision) {
        let plan = ConvGpuPlan::new(*shape, cfg, precision);
        let t = plan.time(device);
        if best
            .as_ref()
            .map(|(_, bt)| t.total_s < bt.total_s)
            .unwrap_or(true)
        {
            best = Some((cfg, t));
        }
    }
    best.expect("search space is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_space_is_nonempty_and_valid() {
        for precision in [Precision::TensorCoreInt8, Precision::TensorCoreInt4] {
            let space = search_space(precision);
            assert!(space.len() > 50, "need a meaningful space to search");
            assert!(space.iter().all(|c| c.valid(precision, 64 * 1024)));
        }
    }

    #[test]
    fn searched_config_never_loses_to_default() {
        let d = Device::rtx2080ti();
        for shape in [
            ConvShape::new(1, 64, 56, 56, 64, 1, 1, 0),
            ConvShape::new(1, 512, 7, 7, 2048, 1, 1, 0),
            ConvShape::new(16, 64, 56, 56, 64, 3, 1, 1),
        ] {
            let (best, t_best) = auto_search(&shape, Precision::TensorCoreInt8, &d);
            let t_default = ConvGpuPlan::new(
                shape,
                default_config(Precision::TensorCoreInt8),
                Precision::TensorCoreInt8,
            )
            .time(&d);
            assert!(
                t_best.total_s <= t_default.total_s + 1e-12,
                "auto-search must dominate the default on {shape} (best {best:?})"
            );
        }
    }

    #[test]
    fn batch_one_prefers_smaller_tiles_than_batch_sixteen() {
        // The Fig. 11 mechanism: at batch 1 the GEMM M dimension is tiny, so
        // big default tiles strand SMs.
        let d = Device::rtx2080ti();
        let small = ConvShape::new(1, 512, 7, 7, 512, 3, 1, 1);
        let big = small.with_batch(16);
        let (cfg1, _) = auto_search(&small, Precision::TensorCoreInt8, &d);
        let (cfg16, _) = auto_search(&big, Precision::TensorCoreInt8, &d);
        assert!(
            cfg1.m_tile <= cfg16.m_tile,
            "batch 1 chose {cfg1:?}, batch 16 chose {cfg16:?}"
        );
    }

    #[test]
    fn profile_runs_gain_is_large_at_batch_one() {
        // Fig. 11: 2.29x (4-bit) / 2.91x (8-bit) average over ResNet-50
        // layers; individual layers can be higher. Use a representative
        // late layer.
        let d = Device::rtx2080ti();
        let shape = ConvShape::new(1, 512, 7, 7, 512, 3, 1, 1);
        for precision in [Precision::TensorCoreInt8, Precision::TensorCoreInt4] {
            let (_, best) = auto_search(&shape, precision, &d);
            let default =
                ConvGpuPlan::new(shape, default_config(precision), precision).time(&d);
            let gain = default.total_s / best.total_s;
            assert!(
                gain > 1.3,
                "{precision:?}: expected a substantial profile-run gain, got {gain}"
            );
        }
    }
}
