//! The batch-size/backend decision rule — the paper's Fig. 10 crossover
//! made executable.
//!
//! Two modeled latency curves per request class and batch size:
//!
//! - **GPU**: [`GpuEngine::estimate`] per layer. The fixed launch overhead
//!   is paid per layer-launch regardless of batch, so batching amortizes it
//!   — per-request GPU cost falls steeply with batch size (and tiny
//!   networks at batch 1 are launch-bound).
//! - **ARM (T threads)**: the engine's warm analytic schedule split by
//!   [`parallel_cycle_split`] into serial (im2col, requant) and
//!   parallelizable (pack-B, GEMM) cycles. The parallel part is divided by
//!   the *actual* worst-thread share from [`partition_columns`] — at small
//!   or misaligned GEMM widths the NB-tile round-robin leaves threads
//!   imbalanced (share > 1/T), and batching grows `gemm_n` toward the
//!   balanced 1/T limit. That imbalance amortization is the ARM side's
//!   batching win.
//!
//! [`choose_point`] picks the lower curve; [`crossover_table`] evaluates
//! every bucket so reports (and the planner-driven batcher) can see where
//! the curves cross.

use crate::class::RequestClass;
use lowbit::conv_arm::parallel_cycle_split;
use lowbit::prelude::*;
use lowbit::qgemm::partition_columns;
use lowbit::{arm_schedule, select_arm_algo};

/// The batch buckets requests are padded up to. Bounding the bucket set
/// bounds the plan-cache key space, which is what makes a ≥90% steady-state
/// hit rate structural rather than lucky.
pub const BATCH_BUCKETS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The smallest bucket holding `n` requests (the largest bucket for any
/// overflow — the batcher never forms batches past its policy bound).
pub fn bucket_for(n: usize) -> usize {
    for &b in &BATCH_BUCKETS {
        if n <= b {
            return b;
        }
    }
    *BATCH_BUCKETS.last().expect("buckets non-empty")
}

/// Modeled ARM milliseconds for one batched run of `class` at `batch` on
/// `threads` workers (warm prepack cache). GEMM-family layers split into
/// serial + parallel cycles with the worst thread's column share; other
/// algorithms (Winograd, baselines) run serial. The wide-GEMM schedule's
/// serial/parallel split is used for all three GEMM variants — the stage
/// structure (im2col/pack/gemm/requant) is shared, only tile widths differ.
pub fn arm_batch_millis(class: &RequestClass, batch: usize, engine: &ArmEngine) -> f64 {
    let model = engine.model();
    let threads = engine.threads();
    let mut total = 0.0;
    for l in class.template().layers() {
        let bits = l.weights.bits();
        let shape = l.shape.with_batch(batch);
        let algo = select_arm_algo(model, bits, &shape);
        let warm = engine.estimate_millis(bits, &shape, algo);
        total += match algo {
            ArmAlgo::Gemm | ArmAlgo::GemmNarrow | ArmAlgo::GemmSdot => {
                let sched = arm_schedule(ArmAlgo::Gemm, bits, &shape, true);
                let (s, p) = parallel_cycle_split(&sched, model);
                let n = shape.gemm_n();
                let worst = partition_columns(n, threads)
                    .iter()
                    .map(|sp| sp.cols)
                    .max()
                    .unwrap_or(n);
                let share = worst as f64 / n as f64;
                warm * (s + p * share) / (s + p)
            }
            _ => warm,
        };
    }
    total
}

/// Modeled GPU milliseconds for one batched run of `class` at `batch`
/// (`None` when any layer's bit width has no Tensor Core path).
pub fn gpu_batch_millis(class: &RequestClass, batch: usize, engine: &GpuEngine) -> Option<f64> {
    let mut total = 0.0;
    for l in class.template().layers() {
        let bits = l.weights.bits();
        GpuEngine::precision_for(bits)?;
        let t = engine.estimate(&l.shape.with_batch(batch), bits, Tuning::Default);
        total += t.total_s * 1e3;
    }
    Some(total)
}

/// One evaluated point of the crossover: both curves plus the winner.
#[derive(Clone, Copy, Debug)]
pub struct CostPoint {
    /// Batch size evaluated.
    pub batch: usize,
    /// The chosen backend (lower modeled batch latency).
    pub backend: BackendKind,
    /// The chosen curve's batch latency in milliseconds.
    pub batch_millis: f64,
    /// The ARM curve.
    pub arm_millis: f64,
    /// The GPU curve (`None` when the class's width is unsupported).
    pub gpu_millis: Option<f64>,
}

impl CostPoint {
    /// Modeled per-request latency at this point.
    pub fn per_request_millis(&self) -> f64 {
        self.batch_millis / self.batch as f64
    }
}

/// Evaluates both curves at `batch` and picks the winner (ties go to ARM —
/// no reason to pay a device transfer for a wash).
pub fn choose_point(
    class: &RequestClass,
    batch: usize,
    arm: &ArmEngine,
    gpu: &GpuEngine,
) -> CostPoint {
    let arm_millis = arm_batch_millis(class, batch, arm);
    let gpu_millis = gpu_batch_millis(class, batch, gpu);
    let (backend, batch_millis) = match gpu_millis {
        Some(g) if g < arm_millis => (BackendKind::GpuModel, g),
        _ => (BackendKind::Arm, arm_millis),
    };
    CostPoint { batch, backend, batch_millis, arm_millis, gpu_millis }
}

/// The full crossover table over [`BATCH_BUCKETS`].
pub fn crossover_table(
    class: &RequestClass,
    arm: &ArmEngine,
    gpu: &GpuEngine,
) -> Vec<CostPoint> {
    BATCH_BUCKETS.iter().map(|&b| choose_point(class, b, arm, gpu)).collect()
}

/// Modeled plan-compilation cost charged on a cache miss (per layer): the
/// ARM planner ranks a handful of analytic schedules, the GPU planner runs
/// its tile auto-search plus the static verifier — orders of magnitude
/// apart, which is exactly why the plan cache exists.
pub fn modeled_compile_millis(backend: BackendKind, layers: usize) -> f64 {
    match backend {
        BackendKind::Arm => 0.2 * layers as f64,
        BackendKind::GpuModel => 2.0 * layers as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit::turing_sim::Device;

    #[test]
    fn buckets_round_up() {
        assert_eq!(bucket_for(1), 1);
        assert_eq!(bucket_for(3), 4);
        assert_eq!(bucket_for(8), 8);
        assert_eq!(bucket_for(17), 32);
        assert_eq!(bucket_for(99), 32);
    }

    #[test]
    fn arm_batching_amortizes_thread_imbalance_on_demo_w6() {
        // demo(12) at W6: conv2/conv3 have gemm_n = 36 (5 NB-tiles over 4
        // threads -> worst share 16/36 ≈ 0.444 vs the balanced 0.25).
        // Batching grows n and the worst share converges to 1/T.
        let class = RequestClass::demo(BitWidth::W6, 12, 9);
        let arm = ArmEngine::cortex_a53().with_threads(4);
        let per1 = arm_batch_millis(&class, 1, &arm);
        let per8 = arm_batch_millis(&class, 8, &arm) / 8.0;
        assert!(
            per8 < per1 * 0.97,
            "batching must amortize imbalance: per-request {per8:.6} vs {per1:.6}"
        );
        // W6 has no Tensor Core path: the chooser must fall to ARM.
        let gpu = GpuEngine::rtx2080ti();
        let pt = choose_point(&class, 1, &arm, &gpu);
        assert_eq!(pt.backend, BackendKind::Arm);
        assert_eq!(pt.gpu_millis, None);
    }

    #[test]
    fn gpu_batching_amortizes_launch_overhead_on_demo_w4() {
        let class = RequestClass::demo(BitWidth::W4, 12, 9);
        let gpu = GpuEngine::rtx2080ti();
        let per1 = gpu_batch_millis(&class, 1, &gpu).unwrap();
        let per8 = gpu_batch_millis(&class, 8, &gpu).unwrap() / 8.0;
        assert!(per8 < per1, "per-request GPU cost must fall with batch");
    }

    #[test]
    fn weak_gpu_crosses_over_from_arm_to_gpu_as_batch_grows() {
        // A device with a huge launch overhead loses at batch 1 (launch
        // dominates the tiny demo layers) but wins once batching amortizes
        // it — the Fig. 10 shape, demonstrated end-to-end through the
        // chooser.
        let class = RequestClass::demo(BitWidth::W4, 12, 9);
        let arm = ArmEngine::cortex_a53().with_threads(4);
        let weak = GpuEngine::with_device(Device {
            launch_overhead_s: 120e-6,
            ..Device::rtx2080ti()
        });
        let table = crossover_table(&class, &arm, &weak);
        assert_eq!(table[0].backend, BackendKind::Arm, "launch-bound at batch 1");
        assert_eq!(
            table.last().unwrap().backend,
            BackendKind::GpuModel,
            "amortized at batch 32"
        );
        // The winner switches exactly once along the table.
        let flips = table
            .windows(2)
            .filter(|w| w[0].backend != w[1].backend)
            .count();
        assert_eq!(flips, 1, "one crossover point");
    }

    #[test]
    fn compile_cost_is_much_higher_on_gpu() {
        assert!(
            modeled_compile_millis(BackendKind::GpuModel, 3)
                > 5.0 * modeled_compile_millis(BackendKind::Arm, 3)
        );
    }
}
