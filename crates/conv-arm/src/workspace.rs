//! The parallel convolution path: prepacked weights + caller-owned
//! [`ConvWorkspace`] arena, behind one entry point, [`gemm_conv_ws`], for
//! all three GEMM micro-kernels and the Winograd path built on them. It is
//! the only explicit-GEMM pipeline: the one-shot [`crate::gemm_conv()`]
//! packs the weights and runs it on a fresh arena, just as
//! [`crate::winograd_conv()`] does for Winograd.
//!
//! * the weights arrive packed once per layer as a [`PackedWeights`] value
//!   (the engine's prepack cache holds them), so no call pays `pack A` —
//!   nor, for Winograd, the weight transform;
//! * both families share one reusable arena of three buffers (B operand,
//!   B panels, Winograd's output planes), which stops growing after a
//!   warm-up pass over a network's layer shapes. What a warm call
//!   still allocates does not grow with the layer: the returned output
//!   tensor, and on the GEMM kernels the NCHW share list and one row-slice
//!   list per working thread; on Winograd, its output buffer and, above
//!   one thread, the thread scope that `lowbit_qgemm::parallel::fan_out`
//!   opens. The column spans are computed, not listed;
//! * the wide, narrow and SDOT GEMMs are three tile kinds of one driver,
//!   `lowbit_qgemm::parallel`: it splits N across threads and stores the
//!   micro-tiles straight into that NCHW output, bit-exact versus direct
//!   convolution for any thread count. The ncnn baseline
//!   ([`ArmAlgo::NcnnBaseline`]) is the narrow tile under its own scheme
//!   ([`ArmAlgo::scheme`]), on the narrow tile's packed weights.

use crate::algo::ArmAlgo;
use crate::winograd::{winograd_conv_ws, WinogradWeights};
use lowbit_isa::Isa;
use lowbit_qgemm::narrow::pack_a_narrow;
use lowbit_qgemm::parallel::{gemm_parallel_nchw_on, panels_len, ParallelConfig, SharedWeights};
use lowbit_qgemm::workspace::{grow_exact, WorkspaceStats};
use lowbit_qgemm::{pack_a, PackedA, PackedANarrow, PackedAQuads, Scheme, TileKind};
use lowbit_tensor::{
    im2col_nchw_into, BitWidth, ConvShape, Fnv1a, Im2colMatrix, Layout, QTensor, Tensor,
};
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
    /// The SDOT quad panels (`PackedAQuads::from_a`).
    Quads(PackedAQuads),
    /// Winograd's 16 transformed position matrices
    /// ([`WinogradWeights::pack`]).
    Winograd(WinogradWeights),
}

impl PackedWeights {
    /// Packs `weights` (NCHW) once into the layout `algo`'s kernel reads at
    /// the effective width `bits`; only Winograd's weight transform depends
    /// on `bits`. `None` for the bitserial baseline, which packs per call,
    /// and for `Auto`.
    pub fn pack(weights: &QTensor, algo: ArmAlgo, bits: BitWidth) -> Option<PackedWeights> {
        let (c_out, c_in, kh, kw) = weights.dims();
        let k = c_in * kh * kw;
        Some(match (algo.tile(), algo) {
            (Some(tile), _) => PackedWeights::pack_gemm(tile, weights.data(), c_out, k),
            (None, ArmAlgo::Winograd) => {
                PackedWeights::Winograd(WinogradWeights::pack(weights, bits))
            }
            (None, _) => return None,
        })
    }

    /// Packs the row-major `m x k` matrix `a` into the layout the host
    /// block kernel of `tile` reads; the ncnn baseline's is the narrow
    /// tile's.
    pub(crate) fn pack_gemm(tile: TileKind, a: &[i8], m: usize, k: usize) -> PackedWeights {
        match tile {
            TileKind::Wide => PackedWeights::Wide(pack_a(a, m, k)),
            TileKind::Narrow | TileKind::Ncnn => PackedWeights::Narrow(pack_a_narrow(a, m, k)),
            TileKind::Sdot => PackedWeights::Quads(PackedAQuads::from_a(a, m, k)),
        }
    }

    /// The GEMM operand the driver reads from a GEMM-family layout.
    ///
    /// # Panics
    /// On Winograd's weights, which are 16 operands, one per position.
    pub(crate) fn operand(&self) -> SharedWeights<'_> {
        match self {
            PackedWeights::Wide(p) => SharedWeights::Wide(p),
            PackedWeights::Narrow(p) => SharedWeights::Narrow(p),
            PackedWeights::Quads(p) => SharedWeights::Quads(p),
            PackedWeights::Winograd(_) => panic!("Winograd weights are one operand per position"),
        }
    }

    /// Packed bytes held.
    pub fn bytes(&self) -> usize {
        match self {
            PackedWeights::Wide(p) => p.data.len(),
            PackedWeights::Narrow(p) => p.data.len(),
            PackedWeights::Quads(p) => p.data.len(),
            PackedWeights::Winograd(w) => w.bytes(),
        }
    }

    /// What a cache key for [`PackedWeights::pack`]'s result must cover
    /// besides the weights: the tag of the layout `algo` packs into and,
    /// for Winograd, whose transform depends on it, the effective width
    /// `bits`. Kernels that read one layout share its tag, and so one cache
    /// entry. `None` exactly when `pack` returns `None`.
    pub fn layout_tag(algo: ArmAlgo, bits: BitWidth) -> Option<(u8, Option<BitWidth>)> {
        Some(match algo {
            ArmAlgo::Gemm => (0, None),
            ArmAlgo::GemmNarrow | ArmAlgo::NcnnBaseline => (1, None),
            ArmAlgo::GemmSdot => (2, None),
            ArmAlgo::Winograd => (3, Some(bits)),
            ArmAlgo::BitserialBaseline | ArmAlgo::Auto => return None,
        })
    }
}

/// The published identity of [`PackedWeights::pack`]'s result for
/// `weights`, `algo` and the effective width `bits` (`None` exactly when
/// `pack` returns `None`): FNV-1a over the layout's tag, the weights' bit
/// width, dims and raw bytes, then — for Winograd — `bits`. Plans,
/// `Network::fingerprint` and the certificates carry it; the engine's
/// cache is found by a faster key over the same fields.
pub fn prepack_fingerprint(weights: &QTensor, algo: ArmAlgo, bits: BitWidth) -> Option<u64> {
    let (tag, transform_bits) = PackedWeights::layout_tag(algo, bits)?;
    let mut h = Fnv1a::default();
    h.eat(&[tag, weights.bits().bits()]);
    let (d0, d1, d2, d3) = weights.dims();
    for d in [d0, d1, d2, d3] {
        h.eat_word(d);
    }
    for &v in weights.data() {
        h.eat(&[v as u8]);
    }
    if let Some(bits) = transform_bits {
        h.eat(&[bits.bits()]);
    }
    Some(h.0)
}

/// Caller-owned scratch for [`gemm_conv_ws`]: three flat buffers that the
/// GEMM family and Winograd use alike, so a plan that mixes the two grows
/// each to its largest layer. No buffer holds a GEMM result.
#[derive(Default)]
pub struct ConvWorkspace {
    /// The layer's B operand: the im2col matrix, or per tile span
    /// Winograd's 16 row-major `c_in x cols` transformed-input matrices.
    pub(crate) b: Vec<i8>,
    /// One `panel_len` B panel per GEMM worker or Winograd tile span (span
    /// `t` runs on thread `t`), carved off the front with `split_at_mut`.
    pub(crate) panels: Vec<i8>,
    /// Per Winograd tile span, four column-major `c_out x cols` planes.
    pub(crate) planes: Vec<i32>,
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
        self.b.capacity() + self.panels.capacity() + self.planes.capacity() * 4
    }
}

/// Prepacked convolution on whichever kernel `pa` was packed for,
/// returning the exact NCHW accumulators.
///
/// `scheme` is the one [`ArmAlgo::scheme`] names for the kernel at the
/// wider of the two operand bit widths: the paper's scheme for that width,
/// or [`Scheme::ncnn16`] on narrow weights for the ncnn baseline (the SDOT
/// kernel has no drain machinery and ignores it; Winograd weights carry
/// their own width and run Winograd's transform and position GEMMs on the
/// same arena). Every GEMM kernel runs
/// across `cfg`'s threads, recording onto per-worker tracks after an
/// `im2col` span, and stores each micro-tile straight into the returned
/// NCHW tensor: the output channels are the GEMM rows and the
/// `batch * oh * ow` columns run image by image.
///
/// The call never pays `pack A`; its analytic price is the one-shot
/// pipeline schedule without that stage. It is the arena's one entry
/// point: it records each call in the arena's [`WorkspaceStats`].
pub fn gemm_conv_ws(
    input: &QTensor,
    pa: &PackedWeights,
    scheme: &Scheme,
    shape: &ConvShape,
    cfg: &ParallelConfig,
    ws: &mut ConvWorkspace,
    tracer: &Tracer,
) -> Tensor<i32> {
    let before = ws.footprint_bytes();
    let acc = match pa {
        PackedWeights::Winograd(w) => winograd_conv_ws(input, w, shape, cfg, ws, tracer),
        _ => {
            let weights = pa.operand();
            let (m, k, n) = (weights.m(), weights.k(), shape.gemm_n());
            assert_eq!(m, shape.gemm_m(), "packed weights disagree with shape on M");
            assert_eq!(k, shape.gemm_k(), "packed weights disagree with shape on K");
            {
                let mut span = tracer.span("im2col", MAIN_TRACK);
                span.set_label(|| format!("{k}x{n}"));
                let mut col = Im2colMatrix { k, n, data: std::mem::take(&mut ws.b) };
                im2col_nchw_into(input, shape, &mut col);
                ws.b = col.data;
            }
            let (oh, ow) = (shape.out_h(), shape.out_w());
            let mut acc = Tensor::zeros((shape.batch, m, oh, ow), Layout::Nchw);
            let (isa, panels) = (Isa::host(), grow_exact(&mut ws.panels, panels_len(k, n, cfg)));
            let (b, out) = (&ws.b, acc.data_mut());
            gemm_parallel_nchw_on(isa, scheme, weights, b, k, n, oh * ow, cfg, panels, out, tracer);
            acc
        }
    };
    ws.stats.note_call(before, ws.footprint_bytes());
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
    use crate::{direct_conv, gemm_conv, schedule_gemm_conv};
    use lowbit_qgemm::narrow::pack_a_narrow;
    use lowbit_qgemm::{pack_a, partition_columns, NB};
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
        let square = ConvShape::new(1, 5, 8, 8, 7, 3, 1, 1);
        // (shape, activation bits, weight bits): every width on one shape,
        // then strided, padded and batched shapes, then 4-bit weights under
        // 6-bit activations (the scheme follows the wider operand).
        let mut cases: Vec<_> = BitWidth::ALL.iter().map(|&b| (square, b, b)).collect();
        cases.extend([
            (ConvShape::new(2, 5, 9, 7, 11, 3, 2, 1), BitWidth::W8, BitWidth::W8),
            (ConvShape::new(2, 3, 9, 7, 5, 3, 2, 1), BitWidth::W4, BitWidth::W4),
            (ConvShape::new(2, 4, 7, 7, 6, 1, 1, 0), BitWidth::W2, BitWidth::W2),
            (ConvShape::new(1, 2, 11, 11, 3, 5, 2, 2), BitWidth::W7, BitWidth::W7),
            (ConvShape::new(1, 3, 6, 6, 4, 3, 1, 1), BitWidth::W6, BitWidth::W4),
        ]);
        // One arena across every shape: stale capacity must stay invisible.
        let mut ws = ConvWorkspace::new();
        for (seed, (shape, act_bits, w_bits)) in (700..).step_by(2).zip(cases) {
            let (input, _) = tensors(&shape, act_bits, seed);
            let (_, weights) = tensors(&shape, w_bits, seed);
            let bits = act_bits.max(w_bits);
            let scheme = Scheme::for_bits(bits);
            let oracle = direct_conv(&input, &weights, &shape);
            let (m, k) = (shape.gemm_m(), shape.gemm_k());
            // Wide and SDOT: 2-8 bit; narrow: the SMLAL widths 4-8.
            let mut packings = vec![
                PackedWeights::Wide(pack_a(weights.data(), m, k)),
                PackedWeights::Quads(PackedAQuads::from_a(weights.data(), m, k)),
            ];
            if !bits.uses_mla_scheme() {
                packings.push(PackedWeights::Narrow(pack_a_narrow(weights.data(), m, k)));
            }
            let case = format!("{shape} a{act_bits} w{w_bits}");
            for threads in [1, 3] {
                let cfg = ParallelConfig::with_threads(threads);
                for pa in &packings {
                    let acc =
                        gemm_conv_ws(&input, pa, &scheme, &shape, &cfg, &mut ws, &Tracer::null());
                    assert_eq!(acc.data(), oracle.data(), "{case} {pa:?} x{threads}");
                }
            }
            let one_shot = gemm_conv(&input, &weights, &shape);
            assert_eq!(one_shot.acc.data(), oracle.data(), "{case} one-shot gemm_conv");
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
        // The wide and SDOT tiles over each shape: the two kernels share one
        // set of B panels.
        let cases: Vec<_> = shapes
            .iter()
            .flat_map(|shape| {
                let (input, weights) = tensors(shape, bits, 800);
                let (w, m, k) = (weights.data(), shape.gemm_m(), shape.gemm_k());
                let wide = PackedWeights::Wide(pack_a(w, m, k));
                let sdot = PackedWeights::Quads(PackedAQuads::from_a(w, m, k));
                [wide, sdot].map(|pa| (*shape, input.clone(), pa))
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
        assert_eq!(steady.calls, warm.calls + 3 * cases.len() as u64);
        assert_eq!(
            steady.alloc_events, warm.alloc_events,
            "steady state allocated"
        );
        assert_eq!(steady.high_water_bytes, warm.high_water_bytes);
        // Both GEMMs store into the output tensor: the arena holds the
        // largest im2col matrix and one buffer of per-thread B panels sized
        // for the largest layer, no `m x n` result and no SDOT buffer.
        let panels = |shape: &ConvShape| -> usize {
            let (k, nc_tiles) = (shape.gemm_k().min(cfg.kc), cfg.nc / NB);
            let spans = partition_columns(shape.gemm_n(), cfg.threads);
            spans.map(|span| span.cols.div_ceil(NB).min(nc_tiles) * NB * k).sum()
        };
        let col = shapes.iter().map(|s| s.gemm_k() * s.gemm_n()).max().unwrap_or(0);
        let panels = shapes.iter().map(panels).max().unwrap_or(0);
        assert_eq!(steady.high_water_bytes, col + panels);
    }

    #[test]
    fn nchw_store_matches_direct_conv_across_k_blocks_batches_and_threads() {
        // With kc = 16, K = c_in * kh * kw runs below (9), at (16), just
        // past (17) and past twice (36) the K block; K of 9 and 17 ends the
        // last block inside an SDOT quad. The 5x5, 3x3 and 7x7
        // outputs are not a multiple of 4 pixels, so from batch 2 a column
        // tile straddles two images; the 3x3 output at batch 1 has three
        // column tiles, fewer than 4 threads. 70 output channels fill a
        // register block of wide and of narrow tiles and leave a remainder.
        let shapes = |batch| {
            [
                ConvShape::new(batch, 1, 5, 5, 7, 3, 1, 1),
                ConvShape::new(batch, 16, 3, 3, 18, 1, 1, 0),
                ConvShape::new(batch, 17, 7, 7, 5, 1, 1, 0),
                ConvShape::new(batch, 4, 9, 9, 70, 3, 2, 1),
            ]
        };
        // One arena across every case: stale capacity must stay invisible.
        let mut ws = ConvWorkspace::new();
        for (seed, bits) in (900..).step_by(32).zip(BitWidth::ALL) {
            let scheme = Scheme::for_bits(bits);
            for (shape, seed) in (1..=3).flat_map(shapes).zip(seed..) {
                let (input, weights) = tensors(&shape, bits, seed);
                let oracle = direct_conv(&input, &weights, &shape);
                let (m, k) = (shape.gemm_m(), shape.gemm_k());
                // The narrow tile runs the ncnn baseline's scheme at every
                // width and SMLAL at 4-8 bits.
                let narrow = || PackedWeights::Narrow(pack_a_narrow(weights.data(), m, k));
                let mut packings = vec![
                    (PackedWeights::Wide(pack_a(weights.data(), m, k)), scheme),
                    (PackedWeights::Quads(PackedAQuads::from_a(weights.data(), m, k)), scheme),
                    (narrow(), Scheme::ncnn16()),
                ];
                if !bits.uses_mla_scheme() {
                    packings.push((narrow(), scheme));
                }
                for threads in 1..=4 {
                    let cfg = ParallelConfig { threads, kc: 16, nc: 8 };
                    for (pa, scheme) in &packings {
                        let null = Tracer::null();
                        let acc = gemm_conv_ws(&input, pa, scheme, &shape, &cfg, &mut ws, &null);
                        let at = format!("{shape} {bits} {pa:?} {:?} x{threads}", scheme.kind());
                        assert_eq!(acc.data(), oracle.data(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn no_kernel_records_a_reshape() {
        let shape = ConvShape::new(2, 3, 7, 7, 9, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W5, 820);
        let (m, k) = (shape.gemm_m(), shape.gemm_k());
        let packings = [
            PackedWeights::Wide(pack_a(weights.data(), m, k)),
            PackedWeights::Narrow(pack_a_narrow(weights.data(), m, k)),
            PackedWeights::Quads(PackedAQuads::from_a(weights.data(), m, k)),
        ];
        let (scheme, cfg) = (Scheme::for_bits(BitWidth::W5), ParallelConfig::with_threads(2));
        let mut ws = ConvWorkspace::new();
        for pa in &packings {
            let (tracer, sink) = Tracer::recording();
            let _ = gemm_conv_ws(&input, pa, &scheme, &shape, &cfg, &mut ws, &tracer);
            let cap = sink.capture();
            let named = |name| cap.spans.iter().any(|s| s.name == name);
            assert!(named("im2col") && named("gemm worker"), "{pa:?}");
            assert!(!named("reshape nchw"), "{pa:?}");
        }
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
