//! The implicit-precomp GEMM convolution kernel (paper Alg. 2).
//!
//! GEMM view (NHWC): `C[M x N] = A[M x K] x B[K x N]` with
//! `M = batch*oh*ow` (output pixels), `N = c_out`, `K = kh*kw*c_in`.
//! `A` is gathered on the fly through the [`crate::Precomp`] offsets; `B` is
//! the OHWI weight tensor.
//!
//! Two consistent artifacts per plan:
//!
//! * [`ConvGpuPlan::execute`] — a functional execution that walks the exact
//!   block/warp/k-tile structure and computes every 8x8 fragment with the
//!   `turing-sim` `mma` semantics (bit-exact against direct convolution),
//! * [`ConvGpuPlan::kernel_desc`] — the analytic launch descriptor whose
//!   fields encode each Sec. 4.3 memory optimization, timed by the
//!   wave-quantized model.

use crate::precomp::Precomp;
use crate::tiling::TileConfig;
use lowbit_qnn::{requantize_with_bias, RequantParams};
use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor, Tensor};
use turing_sim::memory::{
    bank_conflict_degree, global_coalescing_factor, smem_load_insts, SmemWidth,
};
use turing_sim::mma::{mma_m8n8k16_s8, mma_m8n8k32_s4};
use turing_sim::{Device, KernelDesc, KernelTime, Precision};

/// The Sec. 4.3 memory-optimization toggles (all on by default; the
/// `gpu_memopt_ablation` bench switches them off one at a time).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemOpts {
    /// Coalesced 16-byte `int4`-vector global loads (vs 4-byte scalar).
    pub vector_loads: bool,
    /// Fig. 5 shared-memory access reordering (`LDS.128` vs 4x `LDS.32`).
    pub smem_reordered: bool,
    /// Fig. 6 register double-buffer overlapping DRAM with `mma`.
    pub double_buffered: bool,
    /// In-place bias + re-quantization on registers (i8 output traffic
    /// instead of i32).
    pub in_place_epilogue: bool,
}

impl Default for MemOpts {
    fn default() -> MemOpts {
        MemOpts {
            vector_loads: true,
            smem_reordered: true,
            double_buffered: true,
            in_place_epilogue: true,
        }
    }
}

/// Counters collected by [`ConvGpuPlan::execute_traced`]: what the
/// functional walk actually did, reconciled against the analytic
/// [`KernelDesc`] by tests (the GPU analog of the ARM emit-vs-counts
/// invariant).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ExecTrace {
    /// Thread blocks executed.
    pub blocks: u64,
    /// `mma` instructions executed.
    pub mma_calls: u64,
    /// Operand elements staged into shared memory (A + B tiles).
    pub smem_staged_elems: u64,
    /// Output elements written to global memory.
    pub c_writes: u64,
}

/// A planned implicit-GEMM convolution on the GPU.
#[derive(Clone, Debug)]
pub struct ConvGpuPlan {
    /// Convolution geometry.
    pub shape: ConvShape,
    /// Tiling parameters.
    pub cfg: TileConfig,
    /// Arithmetic path.
    pub precision: Precision,
    /// Memory-optimization toggles.
    pub opts: MemOpts,
    /// Issue efficiency of the generated kernel (calibrated; baselines use
    /// their own values).
    pub compute_efficiency: f64,
}

impl ConvGpuPlan {
    /// Plans our kernel at the given precision with all optimizations on.
    pub fn new(shape: ConvShape, cfg: TileConfig, precision: Precision) -> ConvGpuPlan {
        match Self::try_new(shape, cfg, precision) {
            Ok(plan) => plan,
            Err(r) => panic!("invalid tile config {cfg:?} for {precision:?}: {r}"),
        }
    }

    /// [`ConvGpuPlan::new`] with the validity check surfaced as a typed
    /// [`TileRejection`](crate::TileRejection) instead of a panic — the constructor plan-time
    /// callers (the planner, the verifier sweep) use.
    pub fn try_new(
        shape: ConvShape,
        cfg: TileConfig,
        precision: Precision,
    ) -> Result<ConvGpuPlan, crate::tiling::TileRejection> {
        cfg.validate(precision, 64 * 1024)?;
        Ok(ConvGpuPlan {
            shape,
            cfg,
            precision,
            opts: MemOpts::default(),
            compute_efficiency: 0.45,
        })
    }

    /// GEMM dimensions `(m, n, k)`.
    pub fn gemm_dims(&self) -> (usize, usize, usize) {
        (
            self.shape.gemm_n(), // batch*oh*ow (GEMM rows on the GPU path)
            self.shape.gemm_m(),     // c_out
            self.shape.gemm_k(),
        )
    }

    /// The analytic launch descriptor.
    pub fn kernel_desc(&self, device: &Device) -> KernelDesc {
        let (m, n, k) = self.gemm_dims();
        let cfg = &self.cfg;
        let grid_m = m.div_ceil(cfg.m_tile) as u64;
        let grid_n = n.div_ceil(cfg.n_tile) as u64;
        let k_pad = k.next_multiple_of(cfg.k_tile);

        // Global traffic: A is re-read once per column of blocks and B once
        // per row of blocks, except when the operand fits in half the L2.
        let a_elems = (m as u64) * k_pad as u64;
        let b_elems = (k_pad as u64) * n as u64;
        let a_bytes = Precision::operand_bytes(self.precision, a_elems);
        let b_bytes = Precision::operand_bytes(self.precision, b_elems);
        let a_traffic = if a_bytes <= device.l2_bytes / 2 {
            a_bytes
        } else {
            a_bytes * grid_n
        };
        let b_traffic = if b_bytes <= device.l2_bytes / 2 {
            b_bytes
        } else {
            b_bytes * grid_m
        };
        let c_bytes = (m as u64) * n as u64 * if self.opts.in_place_epilogue { 1 } else { 4 };
        let dram_bytes = a_traffic + b_traffic + c_bytes;

        // Coalescing: activation gathers run contiguously along channels;
        // weights are fully contiguous. Weight traffic is usually the minor
        // share, so weight the factors by traffic.
        let per_thread = if self.opts.vector_loads { 16 } else { 4 };
        let run_bytes =
            Precision::operand_bytes(self.precision, self.shape.c_in as u64).max(1);
        let f_a = global_coalescing_factor(per_thread, run_bytes);
        let f_b = global_coalescing_factor(per_thread, 16);
        let coalescing_factor = ((f_a * a_traffic as f64 + f_b * (b_traffic + c_bytes) as f64)
            / dram_bytes as f64)
            .clamp(0.01, 1.0);

        // Shared memory instructions: 128-bit stores stage both tiles; the
        // fragment loads depend on the Fig. 5 reordering.
        let k_iters = (k_pad / cfg.k_tile) as u64;
        let stage_bytes = cfg.smem_stage_bytes(self.precision) as u64;
        let sts = smem_load_insts(stage_bytes * k_iters, SmemWidth::Lds128);
        // The Fig. 5 reordering buys two things at once: one LDS.128 in
        // place of four LDS.32, and conflict-free bank access (the strided
        // pattern's 16-byte thread stride serializes 4-way on the banks).
        let (lds_width, bank_degree) = if self.opts.smem_reordered {
            (SmemWidth::Lds128, 1)
        } else {
            (SmemWidth::Lds32, bank_conflict_degree(16))
        };
        // Each warp row re-reads the B stripe and each warp column the A
        // stripe.
        let frag_elems = (cfg.warps_n * cfg.m_tile + cfg.warps_m * cfg.n_tile) as u64
            * k_pad as u64;
        let lds = smem_load_insts(
            Precision::operand_bytes(self.precision, frag_elems),
            lds_width,
        ) * bank_degree;

        KernelDesc {
            grid_blocks: grid_m * grid_n,
            threads_per_block: cfg.threads() as u32,
            smem_per_block: (stage_bytes
                * if self.opts.double_buffered { 2 } else { 1 }) as u32,
            regs_per_thread: cfg.regs_per_thread(self.opts.double_buffered),
            macs_per_block: (cfg.m_tile * cfg.n_tile) as u64 * k_pad as u64,
            precision: self.precision,
            compute_efficiency: self.compute_efficiency,
            dram_bytes,
            coalescing_factor,
            smem_insts_per_block: sts + lds,
            per_block_overhead_cycles: 400 + 64 * k_iters,
            double_buffered: self.opts.double_buffered,
        }
    }

    /// Modeled launch time.
    pub fn time(&self, device: &Device) -> KernelTime {
        self.kernel_desc(device).time(device)
    }

    /// Executes the convolution functionally: NHWC activations, OHWI weights
    /// (`(c_out, c_in, kh, kw)` dims in `Nhwc` layout), NHWC i32 output.
    ///
    /// Walks the exact block/k-tile/warp/fragment structure of Alg. 2 and
    /// computes every fragment with the Tensor Core `mma` semantics.
    pub fn execute(&self, input: &QTensor, weights: &QTensor) -> Tensor<i32> {
        self.execute_traced(input, weights).0
    }

    /// Executes with the Alg. 2 line-15 epilogue: per-output-channel bias is
    /// added and the accumulator re-quantized *inside the kernel* ("on
    /// register"), so only i8 ever reaches global memory — the in-place
    /// optimization of Sec. 4.3.
    ///
    /// Functionally equivalent to `execute` followed by `add_bias` and
    /// `requantize` (tested), but expressed at the fidelity the paper
    /// describes.
    pub fn execute_with_epilogue(
        &self,
        input: &QTensor,
        weights: &QTensor,
        bias: &[i32],
        requant: &RequantParams,
    ) -> QTensor {
        assert_eq!(bias.len(), self.shape.c_out, "one bias per output channel");
        let (acc, _) = self.execute_traced(input, weights);
        // The functional walk stores whole tiles; the shared host epilogue
        // maps each element before it would leave the registers.
        requantize_with_bias(&acc, Some(bias), requant)
    }

    /// [`ConvGpuPlan::execute`] plus the execution trace.
    pub fn execute_traced(&self, input: &QTensor, weights: &QTensor) -> (Tensor<i32>, ExecTrace) {
        let shape = &self.shape;
        assert_eq!(input.layout(), Layout::Nhwc, "GPU path expects NHWC");
        assert_eq!(weights.layout(), Layout::Nhwc, "weights must be OHWI");
        assert_eq!(
            weights.dims(),
            (shape.c_out, shape.c_in, shape.kh, shape.kw)
        );
        if self.precision == Precision::TensorCoreInt4 {
            let ok = |v: i8| (-8..=7).contains(&v);
            assert!(
                input.data().iter().copied().all(ok)
                    && weights.data().iter().copied().all(ok),
                "int4 path requires 4-bit operands"
            );
        }
        let (m, n, k) = self.gemm_dims();
        let cfg = &self.cfg;
        let k_mma = TileConfig::k_mma(self.precision);
        let k_pad = k.next_multiple_of(cfg.k_tile);
        let pc = Precomp::new(shape);
        // B[k][n] with k ordered (kr, kc, ci) to match the precomp taps.
        let b_at = |kk: usize, co: usize| -> i8 {
            if kk >= k {
                return 0;
            }
            let kr = kk / (shape.kw * shape.c_in);
            let kc = (kk / shape.c_in) % shape.kw;
            let ci = kk % shape.c_in;
            weights.get((co, ci, kr, kc))
        };

        let (oh, ow) = (shape.out_h(), shape.out_w());
        let mut out: Tensor<i32> = Tensor::zeros((shape.batch, shape.c_out, oh, ow), Layout::Nhwc);
        let (frag_m, frag_n) = cfg.warp_frag();
        let mut trace = ExecTrace::default();

        let mut smem_a = vec![0i8; cfg.m_tile * cfg.k_tile];
        let mut smem_b = vec![0i8; cfg.k_tile * cfg.n_tile];
        for bm in 0..m.div_ceil(cfg.m_tile) {
            for bn in 0..n.div_ceil(cfg.n_tile) {
                trace.blocks += 1;
                let mut c_tile = vec![0i32; cfg.m_tile * cfg.n_tile];
                for k0 in (0..k_pad).step_by(cfg.k_tile) {
                    trace.smem_staged_elems +=
                        ((cfg.m_tile + cfg.n_tile) * cfg.k_tile) as u64;
                    // Stage A via the precomputed offsets, B directly
                    // (Alg. 2 lines 3-4).
                    for r in 0..cfg.m_tile {
                        let mm = bm * cfg.m_tile + r;
                        for kk in 0..cfg.k_tile {
                            smem_a[r * cfg.k_tile + kk] = if mm < m && k0 + kk < k {
                                pc.gather(input, mm, k0 + kk)
                            } else {
                                0
                            };
                        }
                    }
                    for kk in 0..cfg.k_tile {
                        for c in 0..cfg.n_tile {
                            let nn = bn * cfg.n_tile + c;
                            smem_b[kk * cfg.n_tile + c] =
                                if nn < n { b_at(k0 + kk, nn) } else { 0 };
                        }
                    }
                    // Warp loop (Alg. 2 lines 6-14).
                    for ks in (0..cfg.k_tile).step_by(cfg.k_step) {
                        for wm in 0..cfg.warps_m {
                            for wn in 0..cfg.warps_n {
                                for fr in (0..frag_m).step_by(8) {
                                    for fc in (0..frag_n).step_by(8) {
                                        let row0 = wm * frag_m + fr;
                                        let col0 = wn * frag_n + fc;
                                        for kf in (0..cfg.k_step).step_by(k_mma) {
                                            let kbase = ks + kf;
                                            trace.mma_calls += 1;
                                            self.mma_fragment(
                                                &smem_a, &smem_b, &mut c_tile, row0, col0,
                                                kbase, k_mma,
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                // Epilogue: store the fragment (requant/bias are applied by
                // the fusion layer on top of these exact accumulators).
                for r in 0..cfg.m_tile {
                    let mm = bm * cfg.m_tile + r;
                    if mm >= m {
                        break;
                    }
                    let (b, oy, ox) = pc.row_coords(mm);
                    for c in 0..cfg.n_tile {
                        let nn = bn * cfg.n_tile + c;
                        if nn >= n {
                            break;
                        }
                        trace.c_writes += 1;
                        out.set((b, nn, oy, ox), c_tile[r * cfg.n_tile + c]);
                    }
                }
            }
        }
        (out, trace)
    }

    /// One warp-level `mma` on the staged tiles.
    #[allow(clippy::too_many_arguments)]
    fn mma_fragment(
        &self,
        smem_a: &[i8],
        smem_b: &[i8],
        c_tile: &mut [i32],
        row0: usize,
        col0: usize,
        kbase: usize,
        k_mma: usize,
    ) {
        let cfg = &self.cfg;
        match self.precision {
            Precision::TensorCoreInt4 => {
                let mut a = [0i8; 256];
                let mut b = [0i8; 256];
                for r in 0..8 {
                    for kk in 0..32 {
                        a[r * 32 + kk] = smem_a[(row0 + r) * cfg.k_tile + kbase + kk];
                    }
                }
                for c in 0..8 {
                    for kk in 0..32 {
                        b[c * 32 + kk] = smem_b[(kbase + kk) * cfg.n_tile + col0 + c];
                    }
                }
                let mut frag = [0i32; 64];
                mma_m8n8k32_s4(&a, &b, &mut frag);
                for r in 0..8 {
                    for c in 0..8 {
                        c_tile[(row0 + r) * cfg.n_tile + col0 + c] += frag[r * 8 + c];
                    }
                }
            }
            _ => {
                debug_assert_eq!(k_mma, 16);
                let mut a = [0i8; 128];
                let mut b = [0i8; 128];
                for r in 0..8 {
                    for kk in 0..16 {
                        a[r * 16 + kk] = smem_a[(row0 + r) * cfg.k_tile + kbase + kk];
                    }
                }
                for c in 0..8 {
                    for kk in 0..16 {
                        b[c * 16 + kk] = smem_b[(kbase + kk) * cfg.n_tile + col0 + c];
                    }
                }
                let mut frag = [0i32; 64];
                mma_m8n8k16_s8(&a, &b, &mut frag);
                for r in 0..8 {
                    for c in 0..8 {
                        c_tile[(row0 + r) * cfg.n_tile + col0 + c] += frag[r * 8 + c];
                    }
                }
            }
        }
    }

    /// Selects the Tensor Core precision for a bit width (the GPU path
    /// supports exactly 4- and 8-bit, Sec. 2.3).
    pub fn precision_for_bits(bits: BitWidth) -> Option<Precision> {
        match bits.bits() {
            4 => Some(Precision::TensorCoreInt4),
            8 => Some(Precision::TensorCoreInt8),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::default_config;

    /// NHWC direct convolution oracle.
    fn direct_nhwc(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> Tensor<i32> {
        let (oh, ow) = (shape.out_h(), shape.out_w());
        let mut out: Tensor<i32> =
            Tensor::zeros((shape.batch, shape.c_out, oh, ow), Layout::Nhwc);
        for b in 0..shape.batch {
            for co in 0..shape.c_out {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0i32;
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
                                for ci in 0..shape.c_in {
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

    fn case(shape: ConvShape, bits: BitWidth, seed: u64) {
        let precision = ConvGpuPlan::precision_for_bits(bits).unwrap();
        let input = QTensor::random(
            (shape.batch, shape.c_in, shape.h, shape.w),
            Layout::Nhwc,
            bits,
            seed,
        );
        let weights = QTensor::random(
            (shape.c_out, shape.c_in, shape.kh, shape.kw),
            Layout::Nhwc,
            bits,
            seed + 1,
        );
        // A small config keeps the functional walk affordable while still
        // exercising multi-block, multi-warp, multi-k-tile structure.
        let cfg = TileConfig {
            m_tile: 32,
            n_tile: 16,
            k_tile: 64,
            k_step: 32,
            warps_m: 2,
            warps_n: 1,
        };
        let plan = ConvGpuPlan::new(shape, cfg, precision);
        let got = plan.execute(&input, &weights);
        let want = direct_nhwc(&input, &weights, &shape);
        assert_eq!(got.data(), want.data(), "{shape} {bits}");
    }

    #[test]
    fn int8_matches_direct_conv() {
        case(ConvShape::new(1, 19, 9, 9, 21, 3, 1, 1), BitWidth::W8, 7);
    }

    #[test]
    fn int4_matches_direct_conv() {
        case(ConvShape::new(1, 13, 8, 8, 10, 3, 1, 1), BitWidth::W4, 8);
    }

    #[test]
    fn strided_batched_pointwise_matches() {
        case(ConvShape::new(2, 17, 7, 7, 9, 1, 2, 0), BitWidth::W8, 9);
        case(ConvShape::new(2, 6, 10, 7, 5, 3, 2, 1), BitWidth::W4, 10);
    }

    #[test]
    fn default_config_executes_correctly_too() {
        let shape = ConvShape::new(1, 8, 6, 6, 12, 3, 1, 1);
        let precision = Precision::TensorCoreInt8;
        let input = QTensor::random((1, 8, 6, 6), Layout::Nhwc, BitWidth::W8, 11);
        let weights = QTensor::random((12, 8, 3, 3), Layout::Nhwc, BitWidth::W8, 12);
        let plan = ConvGpuPlan::new(shape, default_config(precision), precision);
        let got = plan.execute(&input, &weights);
        assert_eq!(got.data(), direct_nhwc(&input, &weights, &shape).data());
    }

    #[test]
    fn int4_rejects_wide_operands() {
        let shape = ConvShape::new(1, 8, 6, 6, 8, 1, 1, 0);
        let input = QTensor::random((1, 8, 6, 6), Layout::Nhwc, BitWidth::W8, 13);
        let weights = QTensor::random((8, 8, 1, 1), Layout::Nhwc, BitWidth::W8, 14);
        let cfg = TileConfig { m_tile: 16, n_tile: 8, k_tile: 32, k_step: 32, warps_m: 2, warps_n: 1 };
        let plan = ConvGpuPlan::new(shape, cfg, Precision::TensorCoreInt4);
        let result = std::panic::catch_unwind(|| plan.execute(&input, &weights));
        assert!(result.is_err(), "8-bit data into the int4 path must panic");
    }

    #[test]
    fn epilogue_equals_unfused_bias_then_requant() {
        use lowbit_qnn::{add_bias, requantize, RequantParams};
        let shape = ConvShape::new(1, 8, 6, 6, 5, 3, 1, 1);
        let cfg = TileConfig {
            m_tile: 16, n_tile: 8, k_tile: 32, k_step: 16, warps_m: 2, warps_n: 1,
        };
        let plan = ConvGpuPlan::new(shape, cfg, Precision::TensorCoreInt8);
        let input = QTensor::random((1, 8, 6, 6), Layout::Nhwc, BitWidth::W8, 61);
        let weights = QTensor::random((5, 8, 3, 3), Layout::Nhwc, BitWidth::W8, 62);
        let bias = vec![100, -250, 0, 7, 99999];
        let rq = RequantParams::new(BitWidth::W8, 0.004).with_relu();

        let fused = plan.execute_with_epilogue(&input, &weights, &bias, &rq);
        let mut acc = plan.execute(&input, &weights);
        add_bias(&mut acc, &bias, false);
        let unfused = requantize(&acc, &rq);
        assert_eq!(fused.data(), unfused.data());
        // With the ReLU-fused truncation nothing is negative.
        assert!(fused.data().iter().all(|&v| v >= 0));
    }

    #[test]
    fn execution_trace_reconciles_with_the_analytic_descriptor() {
        // The GPU analog of the ARM emit-vs-counts invariant: what the
        // functional walk did must equal what the cost model priced.
        let d = Device::rtx2080ti();
        let shape = ConvShape::new(1, 12, 9, 9, 10, 3, 1, 1);
        for precision in [Precision::TensorCoreInt8, Precision::TensorCoreInt4] {
            let bits = if precision == Precision::TensorCoreInt4 {
                BitWidth::W4
            } else {
                BitWidth::W8
            };
            let cfg = TileConfig {
                m_tile: 32, n_tile: 16, k_tile: 64, k_step: 32, warps_m: 2, warps_n: 1,
            };
            let plan = ConvGpuPlan::new(shape, cfg, precision);
            let input = QTensor::random(
                (shape.batch, shape.c_in, shape.h, shape.w),
                Layout::Nhwc,
                bits,
                51,
            );
            let weights = QTensor::random(
                (shape.c_out, shape.c_in, shape.kh, shape.kw),
                Layout::Nhwc,
                bits,
                52,
            );
            let (_, trace) = plan.execute_traced(&input, &weights);
            let desc = plan.kernel_desc(&d);
            assert_eq!(trace.blocks, desc.grid_blocks, "{precision:?} blocks");
            // Every mma covers 8x8xK_mma MACs; the descriptor prices padded
            // tile volume.
            let k_mma = TileConfig::k_mma(precision) as u64;
            assert_eq!(
                trace.mma_calls * 64 * k_mma,
                desc.macs_per_block * desc.grid_blocks,
                "{precision:?} mma work"
            );
            // Staged elements match the descriptor's per-stage byte count
            // (element-for-byte at int8; halved at int4).
            let staged_bytes = Precision::operand_bytes(precision, trace.smem_staged_elems);
            let k_iters = shape.gemm_k().next_multiple_of(cfg.k_tile) as u64
                / cfg.k_tile as u64;
            assert_eq!(
                staged_bytes,
                cfg.smem_stage_bytes(precision) as u64 * k_iters * desc.grid_blocks,
                "{precision:?} staging"
            );
            // Every logical output is written exactly once.
            assert_eq!(trace.c_writes, shape.output_len() as u64);
        }
    }

    #[test]
    fn memory_opts_shape_the_descriptor() {
        let d = Device::rtx2080ti();
        let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        let mut plan = ConvGpuPlan::new(
            shape,
            default_config(Precision::TensorCoreInt8),
            Precision::TensorCoreInt8,
        );
        let base = plan.kernel_desc(&d);
        plan.opts.smem_reordered = false;
        let no_reorder = plan.kernel_desc(&d);
        assert!(no_reorder.smem_insts_per_block > 2 * base.smem_insts_per_block);
        plan.opts.smem_reordered = true;
        plan.opts.vector_loads = false;
        let scalar_loads = plan.kernel_desc(&d);
        assert!(scalar_loads.coalescing_factor < base.coalescing_factor);
        plan.opts.vector_loads = true;
        plan.opts.in_place_epilogue = false;
        let fat_output = plan.kernel_desc(&d);
        assert!(fat_output.dram_bytes > base.dram_bytes);
    }

    #[test]
    fn every_memory_optimization_helps_modeled_time() {
        let d = Device::rtx2080ti();
        let shape = ConvShape::new(1, 256, 14, 14, 256, 3, 1, 1);
        let mut plan = ConvGpuPlan::new(
            shape,
            default_config(Precision::TensorCoreInt8),
            Precision::TensorCoreInt8,
        );
        let full = plan.time(&d).total_s;
        for toggle in 0..4 {
            let mut opts = MemOpts::default();
            match toggle {
                0 => opts.vector_loads = false,
                1 => opts.smem_reordered = false,
                2 => opts.double_buffered = false,
                _ => opts.in_place_epilogue = false,
            }
            plan.opts = opts;
            let degraded = plan.time(&d).total_s;
            assert!(
                degraded >= full,
                "disabling optimization {toggle} should not speed things up"
            );
        }
    }

    #[test]
    fn int4_models_faster_than_int8() {
        let d = Device::rtx2080ti();
        let shape = ConvShape::new(1, 256, 14, 14, 256, 3, 1, 1);
        let p8 = ConvGpuPlan::new(
            shape,
            default_config(Precision::TensorCoreInt8),
            Precision::TensorCoreInt8,
        );
        let p4 = ConvGpuPlan::new(
            shape,
            default_config(Precision::TensorCoreInt4),
            Precision::TensorCoreInt4,
        );
        assert!(p4.time(&d).total_s < p8.time(&d).total_s);
    }
}
