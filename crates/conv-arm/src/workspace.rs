//! The parallel, allocation-free convolution path: prepacked weights +
//! caller-owned [`ConvWorkspace`] arena, behind one entry point,
//! [`gemm_conv_ws`], for all three GEMM micro-kernels and the Winograd
//! path built on them.
//!
//! * the weights arrive packed once per layer as a [`PackedWeights`] value
//!   (the engine's prepack cache holds them), so no call pays `pack A` —
//!   nor, for Winograd, the weight transform;
//! * the im2col matrix, the per-thread packed-B panels, the GEMM result and
//!   Winograd's transform buffers live in one reusable arena — after a
//!   warm-up pass over a network's layer shapes, repeated inference
//!   performs **zero heap allocations** in these stages (the output tensor
//!   itself is still returned by value);
//! * the wide and narrow GEMMs run on `lowbit_qgemm::parallel` across N,
//!   bit-exact versus the serial kernels for any thread count.

use crate::gemm_conv::matrix_to_nchw_cm;
use crate::winograd::{winograd_conv_ws, WinogradScratch, WinogradWeights};
use lowbit_qgemm::narrow::PackedANarrow;
use lowbit_qgemm::parallel::{gemm_parallel_cm_traced, ParallelConfig, SharedWeights};
use lowbit_qgemm::sdot::{gemm_sdot_prepacked_cm, pack_b_quads_into, PackedAQuads, PackedBQuads};
use lowbit_qgemm::workspace::{GemmWorkspace, WorkspaceStats};
use lowbit_qgemm::{PackedA, Scheme};
use lowbit_tensor::{im2col_nchw_into, ConvShape, Im2colMatrix, QTensor, Tensor};
use lowbit_trace::{Tracer, MAIN_TRACK};
use neon_sim::KernelSchedule;

/// One layer's weight matrix, packed once into the layout its GEMM
/// micro-kernel reads.
#[derive(Debug)]
pub enum PackedWeights {
    /// The paper's wide 16x4 tiles (`lowbit_qgemm::pack_a`).
    Wide(PackedA),
    /// The narrow 8x4 tiles (`lowbit_qgemm::narrow::pack_a_narrow`).
    Narrow(PackedANarrow),
    /// The SDOT quad panels (`lowbit_qgemm::sdot::pack_a_quads`).
    Quads(PackedAQuads),
    /// Winograd's 16 transformed position matrices
    /// ([`WinogradWeights::pack`]).
    Winograd(WinogradWeights),
}

impl PackedWeights {
    /// Packed bytes held.
    pub fn bytes(&self) -> usize {
        match self {
            PackedWeights::Wide(p) => p.data.len(),
            PackedWeights::Narrow(p) => p.data.len(),
            PackedWeights::Quads(p) => p.data.len(),
            PackedWeights::Winograd(w) => w.bytes(),
        }
    }
}

/// Caller-owned scratch for [`gemm_conv_ws`]: the im2col matrix, the
/// parallel-GEMM arena, the SDOT kernel's quad-packed B and column-major
/// result, and Winograd's transformed input, output planes and per-thread
/// GEMM arenas.
#[derive(Default)]
pub struct ConvWorkspace {
    col: Im2colMatrix,
    gemm: GemmWorkspace,
    bq: PackedBQuads,
    c_sdot: Vec<i32>,
    pub(crate) wg: WinogradScratch,
    stats: WorkspaceStats,
}

impl ConvWorkspace {
    /// An empty arena; the first convolution sizes it.
    pub fn new() -> ConvWorkspace {
        ConvWorkspace::default()
    }

    /// Allocation statistics over every buffer in the arena.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Current total buffer capacity in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.col.data.capacity()
            + self.gemm.footprint_bytes()
            + self.bq.data.capacity()
            + self.c_sdot.capacity() * std::mem::size_of::<i32>()
            + self.wg.footprint_bytes()
    }

    pub(crate) fn note_call(&mut self, footprint_before: usize) {
        self.stats.calls += 1;
        let after = self.footprint_bytes();
        if after > footprint_before {
            self.stats.alloc_events += 1;
        }
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(after);
    }
}

/// Prepacked convolution on whichever kernel `pa` was packed for,
/// returning the exact NCHW accumulators.
///
/// `scheme` must cover the wider of the two operand bit widths, exactly as
/// [`crate::gemm_conv()`] chooses it (the SDOT kernel has no drain machinery
/// and ignores it; Winograd weights carry their own width and run
/// [`winograd_conv_ws`]). The wide and narrow kernels run the GEMM across
/// `cfg`'s threads, recording onto per-worker tracks; the SDOT kernel runs
/// serially (it has no drain cadence to block around and gains prepack +
/// buffer reuse only) under `pack B quads` and `gemm sdot` spans on the
/// main track. `im2col` and `reshape nchw` spans bracket every kernel.
///
/// The call never pays `pack A`; its analytic price is the one-shot
/// pipeline schedule without that stage.
pub fn gemm_conv_ws(
    input: &QTensor,
    pa: &PackedWeights,
    scheme: &Scheme,
    shape: &ConvShape,
    cfg: &ParallelConfig,
    ws: &mut ConvWorkspace,
    tracer: &Tracer,
) -> Tensor<i32> {
    let (m, k) = match pa {
        PackedWeights::Wide(p) => (p.m, p.k),
        PackedWeights::Narrow(p) => (p.m, p.k),
        PackedWeights::Quads(p) => (p.m, p.k),
        PackedWeights::Winograd(w) => return winograd_conv_ws(input, w, shape, cfg, ws, tracer),
    };
    assert_eq!(m, shape.gemm_m(), "packed weights disagree with shape on M");
    assert_eq!(k, shape.gemm_k(), "packed weights disagree with shape on K");
    let before = ws.footprint_bytes();
    let n = shape.gemm_n();
    {
        let mut span = tracer.span("im2col", MAIN_TRACK);
        span.set_label(|| format!("{k}x{n}"));
        im2col_nchw_into(input, shape, &mut ws.col);
    }
    let (b, gemm) = (&ws.col.data, &mut ws.gemm);
    let c_cm = match pa {
        PackedWeights::Wide(pa) => {
            gemm_parallel_cm_traced(scheme, SharedWeights::Wide(pa), b, k, n, cfg, gemm, tracer)
        }
        PackedWeights::Narrow(pa) => {
            gemm_parallel_cm_traced(scheme, SharedWeights::Narrow(pa), b, k, n, cfg, gemm, tracer)
        }
        PackedWeights::Quads(pa) => {
            {
                let _span = tracer.span("pack B quads", MAIN_TRACK);
                pack_b_quads_into(b, k, n, &mut ws.bq);
            }
            {
                let _span = tracer.span("gemm sdot", MAIN_TRACK);
                gemm_sdot_prepacked_cm(pa, &ws.bq, &mut ws.c_sdot);
            }
            &ws.c_sdot
        }
        PackedWeights::Winograd(_) => unreachable!("returned above"),
    };
    let acc = {
        let _span = tracer.span("reshape nchw", MAIN_TRACK);
        matrix_to_nchw_cm(c_cm, shape)
    };
    ws.note_call(before);
    acc
}

/// The serial + parallelizable cycle split of a GEMM-conv schedule: pack B
/// and the GEMM itself scale across N, every other stage (im2col, requant,
/// a one-shot schedule's pack A) stays serial.
///
/// Used by the benchmark suite's Amdahl projection of multi-thread speedup
/// (the cost model itself stays single-core).
pub fn parallel_cycle_split(sched: &KernelSchedule, model: &neon_sim::CostModel) -> (f64, f64) {
    // GEMM-conv schedules have unique stage names by construction, so
    // summing per-name stage cycles partitions the schedule exactly.
    let mut serial = 0.0;
    let mut parallel = 0.0;
    for stage in &sched.stages {
        let cycles = sched.stage_cycles(stage.name, model);
        if stage.name == "pack B" || stage.name == "gemm" {
            parallel += cycles;
        } else {
            serial += cycles;
        }
    }
    (serial, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{direct_conv, schedule_gemm_conv};
    use lowbit_qgemm::narrow::pack_a_narrow;
    use lowbit_qgemm::pack_a;
    use lowbit_qgemm::sdot::pack_a_quads;
    use lowbit_tensor::{BitWidth, Layout};
    use neon_sim::CortexA53;

    fn tensors(shape: &ConvShape, bits: BitWidth, seed: u64) -> (QTensor, QTensor) {
        let input = QTensor::random(
            (shape.batch, shape.c_in, shape.h, shape.w),
            Layout::Nchw,
            bits,
            seed,
        );
        let weights = QTensor::random(
            (shape.c_out, shape.c_in, shape.kh, shape.kw),
            Layout::Nchw,
            bits,
            seed + 1,
        );
        (input, weights)
    }

    #[test]
    fn prepacked_paths_match_the_oracle_across_threads() {
        let shape = ConvShape::new(2, 5, 9, 7, 11, 3, 2, 1);
        let bits = BitWidth::W8; // SMLAL: valid for wide, narrow and sdot
        let scheme = Scheme::for_bits(bits);
        let (input, weights) = tensors(&shape, bits, 700);
        let oracle = direct_conv(&input, &weights, &shape);
        let (m, k) = (shape.gemm_m(), shape.gemm_k());
        let packings = [
            PackedWeights::Wide(pack_a(weights.data(), m, k)),
            PackedWeights::Narrow(pack_a_narrow(weights.data(), m, k)),
            PackedWeights::Quads(pack_a_quads(weights.data(), m, k)),
        ];
        let mut ws = ConvWorkspace::new();
        for threads in [1, 3] {
            let cfg = ParallelConfig::with_threads(threads);
            for pa in &packings {
                let acc = gemm_conv_ws(&input, pa, &scheme, &shape, &cfg, &mut ws, &Tracer::null());
                assert_eq!(acc.data(), oracle.data(), "{pa:?} x{threads}");
            }
        }
    }

    #[test]
    fn workspace_stops_allocating_after_warmup() {
        let shapes = [
            ConvShape::new(1, 4, 10, 10, 8, 3, 1, 1),
            ConvShape::new(1, 8, 5, 5, 16, 1, 1, 0),
        ];
        let bits = BitWidth::W4;
        let scheme = Scheme::for_bits(bits);
        let cfg = ParallelConfig::with_threads(2);
        let mut ws = ConvWorkspace::new();
        let cases: Vec<_> = shapes
            .iter()
            .map(|shape| {
                let (input, weights) = tensors(shape, bits, 800);
                let pa = pack_a(weights.data(), shape.gemm_m(), shape.gemm_k());
                (*shape, input, PackedWeights::Wide(pa))
            })
            .collect();
        let pass = |ws: &mut ConvWorkspace| {
            for (shape, input, pa) in &cases {
                let _ = gemm_conv_ws(input, pa, &scheme, shape, &cfg, ws, &Tracer::null());
            }
        };
        // Warm-up pass sizes the arena.
        pass(&mut ws);
        let warm = ws.stats();
        assert!(warm.alloc_events > 0, "warm-up must have allocated");
        // Steady state: repeated passes over the same layer set.
        for _ in 0..3 {
            pass(&mut ws);
        }
        let steady = ws.stats();
        assert_eq!(steady.calls, warm.calls + 6);
        assert_eq!(
            steady.alloc_events, warm.alloc_events,
            "steady state allocated"
        );
        assert_eq!(steady.high_water_bytes, warm.high_water_bytes);
    }

    #[test]
    fn cycle_split_partitions_the_whole_schedule() {
        let shape = ConvShape::new(1, 16, 14, 14, 32, 3, 1, 1);
        let scheme = Scheme::for_bits(BitWidth::W4);
        let model = CortexA53::cost_model();
        let sched = schedule_gemm_conv(&scheme, &shape);
        let (serial, parallel) = parallel_cycle_split(&sched, &model);
        assert!(serial > 0.0 && parallel > 0.0);
        assert!((serial + parallel - sched.cycles(&model)).abs() < 1e-6);
        assert!(parallel > serial, "GEMM should dominate this layer");
    }
}
