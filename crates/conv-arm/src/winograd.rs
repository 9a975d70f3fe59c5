//! Integer Winograd `F(2x2, 3x3)` convolution (paper Sec. 3.4).
//!
//! `Y = Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A` with the canonical matrices
//!
//! ```text
//! G  = [1 0 0; ½ ½ ½; ½ -½ ½; 0 0 1]     (weight transform, range x 9/4)
//! Bᵀ = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1]  (input transform, range x 4)
//! Aᵀ = [1 1 1 0; 0 1 -1 -1]              (output transform)
//! ```
//!
//! The fractional `G` rows are handled in two integer-exact ways:
//!
//! * **Exact mode (≤ 4 bit)** — store `Ū = R g Rᵀ` with `R = 2G`-style
//!   integer rows (`[1,1,1]` instead of `½[1,1,1]`), i.e. `Ū = γᵢγⱼU` with
//!   `γ = (1,2,2,1)`. The inverse scaling folds into an integer output
//!   transform `A₂ᵀ = 2·Aᵀ·diag(1/γ) = [2 1 1 0; 0 1 -1 -2]` followed by an
//!   exact `/4`. `|Ū| ≤ 9·2^{b-1} ≤ 72`, so it fits i8 through 4-bit and the
//!   result is **bit-exact** against direct convolution.
//! * **Rounded mode (5–6 bit)** — exactness is information-theoretically
//!   impossible in i8 (a 6-bit weight's true `U` has quarter resolution over
//!   ±72, i.e. 577 levels). Following deployed int8 Winograd practice, the
//!   *offline* weight transform stores a per-row halved
//!   `Ū = round(U / 2^{hᵢ+hⱼ-2})` with middle-row levels `h = 1` (5-bit,
//!   `Ū ≈ round(U)`, plain `Aᵀ` output transform — the paper's 9/4 range
//!   claim) or `h = 2` (6-bit, `Ū ≈ round(U/2)`, compensated by the integer
//!   `A₂ᵀ = [1 2 2 0; 0 2 -2 -1]`). The sub-LSB rounding error is the same
//!   winograd-domain quantization deployed int8 stacks accept; tests bound
//!   it.
//!
//! Either way the elementwise-multiply stage runs the `SMLAL` scheme with a
//! product bound computed from the transformed ranges (Sec. 3.4's reason for
//! the 4–6 bit restriction: 7-bit would need `|Ū| ≤ 144`).
//!
//! On the host the two phases are separate calls: [`WinogradWeights::pack`]
//! transforms and packs the weights once (the engine's prepack cache holds
//! the result), and [`crate::gemm_conv_ws`] on those weights runs the input
//! transform, the 16 position GEMMs on `lowbit_qgemm::parallel` and the
//! NCHW scatter over a reusable [`ConvWorkspace`], in the same three
//! buffers as the GEMM family: the transformed input is the layer's B
//! operand, and each tile span's position GEMMs pack into its slice of the
//! B panels. The output transform `Aᵀ M A` is linear in
//! each position's result `M`, so it has no pass of its own: each position
//! GEMM adds its weighted micro-tiles straight into the four output planes
//! as it stores them (`gemm_parallel_cm_weighted`).

#![allow(clippy::field_reassign_with_default)] // InstCounts builders read clearer this way

use crate::workspace::{ConvWorkspace, PackedWeights};
use crate::{ArmAlgo, ConvOutput};
use lowbit_isa::Isa;
use lowbit_qgemm::parallel::{fan_out, gemm_parallel_cm_weighted, panel_len, panels_len};
use lowbit_qgemm::parallel::{worker_track, ParallelConfig};
use lowbit_qgemm::{grow_exact, partition_columns, ColumnSpan, Scheme, SchemeKind, TileKind};
use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor, Tensor};
use lowbit_trace::{Tracer, MAIN_TRACK};
use neon_sim::{InstCounts, KernelSchedule, StageCost};

/// `true` when the Winograd fast path applies to this bit width (2–6 bit;
/// the paper *uses* it for 4–6 bit because the MLA-scheme GEMM already wins
/// below that, which the cost model reproduces).
pub fn winograd_supported(bits: BitWidth) -> bool {
    bits.bits() <= 6
}

/// `true` when the transform is bit-exact (no winograd-domain rounding).
pub fn winograd_exact(bits: BitWidth) -> bool {
    bits.bits() <= 4
}

/// Magnitude bound of the transformed input `V = Bᵀ d B`: values lie in
/// `[-2^(b+1), 2^(b+1) - 1]` (the sum-sum path reaches `4·qmin`), which still
/// fits i8 at 6 bit (`-128`).
fn v_bound(bits: BitWidth) -> i32 {
    1i32 << (bits.bits() + 1)
}

/// Halving level applied to the two middle rows of the weight transform
/// (0 = exact integer `R g Rᵀ`).
fn h_mid(bits: BitWidth) -> u32 {
    match bits.bits() {
        0..=4 => 0,
        5 => 1,
        _ => 2,
    }
}

/// Worst-case |value| of the stored transformed weight `Ū`.
fn u_bound(bits: BitWidth) -> i32 {
    let qmax = 1i32 << (bits.bits() - 1); // |qmin| dominates
    let h = h_mid(bits);
    // Element (i, j) is bounded by (rowsum_i * rowsum_j * qmax) >> (h_i+h_j)
    // (+1 rounding when halved); rowsums are (1, 3, 3, 1).
    let mm = ((9 * qmax) >> (2 * h)) + if h > 0 { 1 } else { 0 };
    let me = ((3 * qmax) >> h) + if h > 0 { 1 } else { 0 };
    mm.max(me).max(qmax)
}

/// Worst-case magnitudes of the Winograd-domain GEMM operands for `bits`:
/// `(u, v)` with the stored transformed weight `Ū ∈ [-u, u]` and the
/// transformed input `V ∈ [-v, v - 1]`. This is the operand-range contract
/// the static verifier (`lowbit-verify`) feeds to the interval analysis when
/// proving the Sec. 3.4 inflated ranges still respect the drain ratios.
pub fn winograd_operand_bounds(bits: BitWidth) -> (i32, i32) {
    (u_bound(bits), v_bound(bits))
}

/// The Winograd-domain GEMM scheme for `bits`.
pub fn winograd_scheme(bits: BitWidth) -> Scheme {
    let bound = u_bound(bits) * v_bound(bits);
    Scheme::for_product_bound(SchemeKind::Smlal8, bound)
}

/// The GEMM tile of the 16 position GEMMs at `bits`: at tight drain
/// ratios the 16x4 tile's per-drain spill MOVs outweigh its operand reuse,
/// so the Winograd GEMM switches to the spill-free narrow 8x4 tile (see
/// `lowbit_qgemm::narrow`). The paper fixes Alg. 1's 16x4 for the direct
/// GEMM path; the Winograd-domain kernel is unspecified, and this is the
/// register allocation "tailored for the instruction scheme".
fn position_gemm(bits: BitWidth) -> TileKind {
    if winograd_scheme(bits).ratio() <= 8 {
        TileKind::Narrow
    } else {
        TileKind::Wide
    }
}

/// Transforms one 3x3 weight into the 16 stored i8 coefficients:
/// `Ū[i][j] = round((Rᵢ g Rⱼᵀ) / 2^{hᵢ+hⱼ})` with `h = (0, h_mid, h_mid, 0)`.
fn transform_weight(g: &[i32; 9], bits: BitWidth) -> [i8; 16] {
    // Rows of R applied to the 3-vector (a, b, c).
    #[inline]
    fn apply_r(v: [i32; 3]) -> [i32; 4] {
        [v[0], v[0] + v[1] + v[2], v[0] - v[1] + v[2], v[2]]
    }
    // First pass: rows of g.
    let mut tmp = [[0i32; 3]; 4]; // 4 x 3
    for col in 0..3 {
        let r = apply_r([g[col], g[3 + col], g[6 + col]]);
        for (i, v) in r.iter().enumerate() {
            tmp[i][col] = *v;
        }
    }
    let hm = h_mid(bits);
    let h = [0u32, hm, hm, 0];
    let mut out = [0i8; 16];
    for (i, row) in tmp.iter().enumerate() {
        let r = apply_r(*row);
        for (j, &v) in r.iter().enumerate() {
            // Round-half-away-from-zero division by 2^(h_i + h_j).
            let s = h[i] + h[j];
            let scaled = if s == 0 {
                v
            } else {
                let half = 1i32 << (s - 1);
                if v >= 0 { (v + half) >> s } else { -((-v + half) >> s) }
            };
            debug_assert!(scaled.abs() <= u_bound(bits), "U out of bound: {scaled}");
            out[i * 4 + j] = scaled as i8;
        }
    }
    out
}

/// The integer output-transform rows `(row0, row1)` and the exact final
/// right shift, compensating the weight-transform row scaling `γᵢ`: exact
/// mode stored `Ū = γᵢγⱼU` with `γ = (1,2,2,1)` so uses
/// `A₂ᵀ = 2·Aᵀ·diag(1/γ)` and an exact `/4`; 5-bit stored `Ū ≈ U` so uses
/// the plain `Aᵀ`; 6-bit stored `Ū ≈ U/2` on middle rows so uses
/// `Aᵀ·diag(1/γ)` with `γ = (1,½,½,1)`.
fn output_rows(bits: BitWidth) -> ([i32; 4], [i32; 4], u32) {
    match h_mid(bits) {
        0 => ([2, 1, 1, 0], [0, 1, -1, -2], 2),
        1 => ([1, 1, 1, 0], [0, 1, -1, -1], 0),
        _ => ([1, 2, 2, 0], [0, 2, -2, -1], 0),
    }
}

/// The output transform as 16 x 4 weights plus the final shift: output
/// `(r, c)` of a tile (plane `q = 2r + c`) is
/// `Σ_p coef[p][q] · M_p >> shift` over the position GEMM results `M_p`,
/// `p = 4i + j`, with `coef[p][q] = row_r[i] · row_c[j]`. The sum is exact in
/// wrapping i32 because the final value fits i32. Every coefficient is 0 or
/// `±2^s`, as the GEMM driver's weighted sink requires.
fn output_coefficients(bits: BitWidth) -> ([[i32; 4]; 16], u32) {
    let (row0, row1, shift) = output_rows(bits);
    let rows = [row0, row1];
    let coef = std::array::from_fn(|p| {
        std::array::from_fn(|q| rows[q / 2][p / 4] * rows[q % 2][p % 4])
    });
    (coef, shift)
}

/// One layer's transformed weights: the 16 `c_out x c_in` matrices `Ū`
/// (one per Winograd-domain position), packed once for the GEMM tile the
/// bit width's drain ratio picks. This is the offline weight transform of
/// Sec. 3.4; the engine's prepack cache holds it, keyed by the weights and
/// the effective bit width, because the transform depends on both.
#[derive(Debug)]
pub struct WinogradWeights {
    bits: BitWidth,
    c_out: usize,
    c_in: usize,
    /// The packed `Ū` of each position `p = 4i + j`, all in the layout of
    /// the GEMM tile [`position_gemm`] picks.
    positions: Vec<PackedWeights>,
}

impl WinogradWeights {
    /// Transforms and packs NCHW 3x3 `weights` for inputs up to `bits`
    /// (the effective width `max(input, weight)`).
    ///
    /// Panics if the filter is not 3x3, the layout not NCHW, the weights
    /// wider than `bits`, or `bits` above 6.
    pub fn pack(weights: &QTensor, bits: BitWidth) -> WinogradWeights {
        let (c_out, c_in, kh, kw) = weights.dims();
        assert_eq!((kh, kw), (3, 3), "requires 3x3 stride-1");
        assert_eq!(weights.layout(), Layout::Nchw, "ARM path expects NCHW");
        assert!(winograd_supported(bits), "winograd supports <= 6 bit");
        assert!(weights.bits() <= bits, "weights wider than the transform width {bits}");
        // Row `co * c_in + ci` of every position matrix is one 3x3 filter.
        let mut u = vec![vec![0i8; c_out * c_in]; 16];
        for (row, g) in weights.data().chunks_exact(9).enumerate() {
            let g = std::array::from_fn(|i| g[i] as i32);
            for (pos, &tv) in transform_weight(&g, bits).iter().enumerate() {
                u[pos][row] = tv;
            }
        }
        let tile = position_gemm(bits);
        let positions = u.iter().map(|a| PackedWeights::pack_gemm(tile, a, c_out, c_in)).collect();
        WinogradWeights { bits, c_out, c_in, positions }
    }

    /// Packed bytes held over all 16 positions.
    pub fn bytes(&self) -> usize {
        self.positions.iter().map(PackedWeights::bytes).sum()
    }
}

/// Tiles per input-transform block: bounds the stack buffers of
/// [`transform_input`].
const TRANSFORM_BLOCK: usize = 64;

/// The input transform `V = Bᵀ d B` of the tiles `[span.col0, span.end())`
/// into `v`, position `p`'s `c_in x cols` matrix at `v[p * c_in * cols..]`.
///
/// Tiles are walked in runs along one tile row. For each run and channel
/// the four input rows under it are copied into zero-padded line buffers,
/// then every tile of the run is transformed in wrapping i8 arithmetic:
/// `|V| <= 2^(b+1) <= 128` fits i8 (`v_bound`), so the wrapped
/// intermediates still give the exact result, and the loop over the run
/// vectorizes.
#[inline(always)]
fn transform_input(input: &[i8], shape: &ConvShape, span: ColumnSpan, v: &mut [i8]) {
    let (c_in, h, w, pad) = (shape.c_in, shape.h, shape.w, shape.pad as isize);
    let ty_n = shape.out_h().div_ceil(2);
    let tx_n = shape.out_w().div_ceil(2);
    let matrix = c_in * span.cols;
    let mut t = span.col0;
    while t < span.end() {
        let (row, tx0) = (t / tx_n, t % tx_n);
        let (b, ty) = (row / ty_n, row % ty_n);
        let len = (tx_n - tx0).min(span.end() - t).min(TRANSFORM_BLOCK);
        // Input columns `ix0 .. ix0 + 2 * len + 2` feed the run.
        let ix0 = 2 * tx0 as isize - pad;
        let x_lo = (-ix0).clamp(0, 2 * len as isize + 2) as usize;
        let x_hi = (w as isize - ix0).clamp(x_lo as isize, 2 * len as isize + 2) as usize;
        let dst0 = t - span.col0;
        for ci in 0..c_in {
            let plane = &input[(b * c_in + ci) * h * w..][..h * w];
            let mut lines = [[0i8; 2 * TRANSFORM_BLOCK + 2]; 4];
            for (r, line) in lines.iter_mut().enumerate() {
                let iy = (2 * ty + r) as isize - pad;
                if (0..h as isize).contains(&iy) && x_lo < x_hi {
                    let src = &plane[iy as usize * w..][..w];
                    let from = (ix0 + x_lo as isize) as usize;
                    line[x_lo..x_hi].copy_from_slice(&src[from..from + x_hi - x_lo]);
                }
            }
            let mut out = [[0i8; TRANSFORM_BLOCK]; 16];
            for j in 0..len {
                // Columns first (`d B`), then rows (`Bᵀ (d B)`).
                let t: [[i8; 4]; 4] = std::array::from_fn(|r| {
                    let d = &lines[r][2 * j..2 * j + 4];
                    [
                        d[0].wrapping_sub(d[2]),
                        d[1].wrapping_add(d[2]),
                        d[2].wrapping_sub(d[1]),
                        d[1].wrapping_sub(d[3]),
                    ]
                });
                for c in 0..4 {
                    out[c][j] = t[0][c].wrapping_sub(t[2][c]);
                    out[4 + c][j] = t[1][c].wrapping_add(t[2][c]);
                    out[8 + c][j] = t[2][c].wrapping_sub(t[1][c]);
                    out[12 + c][j] = t[1][c].wrapping_sub(t[3][c]);
                }
            }
            for (p, o) in out.iter().enumerate() {
                v[p * matrix + ci * span.cols + dst0..][..len].copy_from_slice(&o[..len]);
            }
        }
        t += len;
    }
}

/// Writes a span's four planes, shifted, to their 2x2 output pixels of the
/// NCHW accumulator `out` (pixels past the output edge are dropped).
#[inline(always)]
fn scatter(planes: &[i32], shape: &ConvShape, span: ColumnSpan, shift: u32, out: &mut [i32]) {
    let (m, oh, ow) = (shape.c_out, shape.out_h(), shape.out_w());
    let ty_n = oh.div_ceil(2);
    let tx_n = ow.div_ceil(2);
    for (jl, t) in (span.col0..span.end()).enumerate() {
        let (row, tx) = (t / tx_n, t % tx_n);
        let (b, ty) = (row / ty_n, row % ty_n);
        for q in 0..4 {
            let (oy, ox) = (2 * ty + q / 2, 2 * tx + q % 2);
            if oy >= oh || ox >= ow {
                continue;
            }
            let src = &planes[(q * span.cols + jl) * m..][..m];
            let dst = &mut out[(b * m * oh + oy) * ow + ox..];
            for (co, &y) in src.iter().enumerate() {
                dst[co * oh * ow] = y >> shift;
            }
        }
    }
}

/// One tile span's share of the arena, carved on the caller: its span,
/// trace track, and its blocks of the transformed input `v`, the output
/// planes and the B panels.
type SpanShare<'w> = (ColumnSpan, u32, &'w mut [i8], &'w mut [i32], &'w mut [i8]);

/// Everything one tile span's worker reads.
struct SpanJob<'a> {
    isa: Isa,
    input: &'a [i8],
    weights: &'a WinogradWeights,
    shape: &'a ConvShape,
    /// The position GEMMs run serially inside the span's thread.
    cfg: ParallelConfig,
    tracer: &'a Tracer,
}

impl SpanJob<'_> {
    /// Input transform, then the 16 position GEMMs, each adding its
    /// output-transform terms straight into the span's planes, recorded on
    /// the span's track.
    fn run(&self, (span, track, v, planes, panel): SpanShare<'_>) {
        let (isa, tracer) = (self.isa, self.tracer);
        let mut worker_span = tracer.span("winograd worker", track);
        worker_span.set_label(|| format!("tiles [{}..{}) {isa}", span.col0, span.end()));
        {
            let _s = tracer.span("wg input transform", track);
            isa.run(
                #[inline(always)]
                || transform_input(self.input, self.shape, span, v),
            );
        }
        let (k, cols, bits) = (self.shape.c_in, span.cols, self.weights.bits);
        let (scheme, (coef, _)) = (winograd_scheme(bits), output_coefficients(bits));
        let mut started = [false; 4];
        let positions = v.chunks_exact(k * cols).zip(&self.weights.positions).zip(coef);
        for ((v_p, pw), coef) in positions {
            let _s = tracer.span("wg gemm", track);
            let (pw, cfg, null) = (pw.operand(), &self.cfg, &Tracer::null());
            gemm_parallel_cm_weighted(
                isa, &scheme, pw, v_p, k, cols, cfg, panel, planes, coef, &mut started, null,
            );
        }
    }
}

/// The engine's Winograd `F(2x2, 3x3)` convolution from prepacked
/// [`WinogradWeights`], with every intermediate buffer in the reusable
/// `ws` arena: the slice-based input transform, the 16 position GEMMs on
/// the host ISA's micro-tiles (`lowbit_qgemm::parallel`), each adding its
/// output-transform terms into four i32 output planes as it stores its
/// micro-tiles, and one shift-and-scatter into the returned NCHW
/// accumulators.
///
/// With `cfg.threads > 1` the tiles are split by
/// [`lowbit_qgemm::partition_columns`] and each span runs all of its
/// stages on one thread through [`lowbit_qgemm::parallel::fan_out`], the
/// first span on the caller; the output is bit-identical for every thread
/// count. Input bits above the transform width of `weights` are rejected.
/// The engine reaches it through [`crate::gemm_conv_ws`], which records
/// the call in the arena's stats.
pub(crate) fn winograd_conv_ws(
    input: &QTensor,
    weights: &WinogradWeights,
    shape: &ConvShape,
    cfg: &ParallelConfig,
    ws: &mut ConvWorkspace,
    tracer: &Tracer,
) -> Tensor<i32> {
    winograd_conv_ws_on(Isa::host(), input, weights, shape, cfg, ws, tracer)
}

/// [`winograd_conv_ws`] with every vector pass compiled for `isa`.
pub(crate) fn winograd_conv_ws_on(
    isa: Isa,
    input: &QTensor,
    weights: &WinogradWeights,
    shape: &ConvShape,
    cfg: &ParallelConfig,
    ws: &mut ConvWorkspace,
    tracer: &Tracer,
) -> Tensor<i32> {
    assert!(shape.winograd_applicable(), "requires 3x3 stride-1");
    assert_eq!(input.layout(), Layout::Nchw, "ARM path expects NCHW");
    let input_dims = (shape.batch, shape.c_in, shape.h, shape.w);
    assert_eq!(input.dims(), input_dims, "input dims do not match conv shape");
    let (m, k) = (shape.c_out, shape.c_in);
    let packed_dims = (weights.c_out, weights.c_in);
    assert_eq!(packed_dims, (m, k), "transformed weights disagree with shape");
    let bits = weights.bits;
    assert!(input.bits() <= bits, "input wider than the transform width {bits}");

    let tiles = shape.winograd_tiles();
    let spans = partition_columns(tiles, cfg.threads);
    let job = SpanJob {
        isa,
        input: input.data(),
        weights,
        shape,
        cfg: ParallelConfig { threads: 1, ..*cfg },
        tracer,
    };
    // Carve each span's blocks off the front of the arena buffers and
    // register its track, on the calling thread in span order. Nothing is
    // cleared: the transform writes all of `v`, the position GEMMs store
    // each plane's first term, and each packs every panel byte it reads.
    let mut v = grow_exact(&mut ws.b, 16 * k * tiles);
    let mut planes = grow_exact(&mut ws.planes, 4 * m * tiles);
    let mut panels = grow_exact(&mut ws.panels, panels_len(k, tiles, cfg));
    let shares = spans.clone().filter(|span| span.cols > 0).map(|span| {
        let (v_t, rest) = std::mem::take(&mut v).split_at_mut(16 * k * span.cols);
        v = rest;
        let (planes_t, rest) = std::mem::take(&mut planes).split_at_mut(4 * m * span.cols);
        planes = rest;
        let (panel, rest) = std::mem::take(&mut panels).split_at_mut(panel_len(k, span.cols, cfg));
        panels = rest;
        (span, worker_track(tracer, "winograd worker", &span), v_t, planes_t, panel)
    });
    fan_out(shares, |share| job.run(share));

    let (_, shift) = output_coefficients(bits);
    let mut acc = vec![0i32; shape.output_len()];
    {
        let _span = tracer.span("wg scatter nchw", MAIN_TRACK);
        let mut planes = &ws.planes[..];
        for span in spans.filter(|s| s.cols > 0) {
            let (planes_t, rest) = planes.split_at(4 * m * span.cols);
            planes = rest;
            isa.run(
                #[inline(always)]
                || scatter(planes_t, shape, span, shift, &mut acc),
            );
        }
    }
    let (oh, ow) = (shape.out_h(), shape.out_w());
    Tensor::from_vec((shape.batch, m, oh, ow), Layout::Nchw, acc)
}

/// Runs the Winograd `F(2x2, 3x3)` convolution one-shot: transforms and
/// packs the weights, then runs [`winograd_conv_ws`] on one thread with a
/// fresh workspace.
///
/// Panics if the shape is not 3x3/stride-1 or the bit width exceeds 6.
pub fn winograd_conv(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> ConvOutput {
    assert!(shape.winograd_applicable(), "requires 3x3 stride-1");
    let bits = input.bits().max(weights.bits());
    assert!(winograd_supported(bits), "winograd supports <= 6 bit");
    assert_eq!(
        weights.dims(),
        (shape.c_out, shape.c_in, shape.kh, shape.kw)
    );
    let packed = WinogradWeights::pack(weights, bits);
    let (cfg, mut ws) = (ParallelConfig::default(), ConvWorkspace::new());
    let acc = winograd_conv_ws(input, &packed, shape, &cfg, &mut ws, &Tracer::null());
    ConvOutput {
        acc,
        schedule: schedule_winograd_conv(bits, shape),
    }
}

/// Analytic schedule of the Winograd pipeline: input transform, 16 GEMMs
/// (with their packing), output transform. The weight transform is offline
/// (model load time) and charged as a bulk stage like weight packing.
pub fn schedule_winograd_conv(bits: BitWidth, shape: &ConvShape) -> KernelSchedule {
    assert!(ArmAlgo::Winograd.applies(bits, shape));
    let n_tiles = shape.winograd_tiles();
    let scheme = winograd_scheme(bits);

    let mut sched = KernelSchedule::new();
    sched.push(StageCost::bulk_move(
        "wg weight transform",
        (shape.c_out * shape.c_in * 9) as u64,
        (shape.c_out * shape.c_in * 16) as u64,
    ));
    // Input transform: per (channel, tile) a strided 4-row gather, the
    // 32-op BᵀdB transform (partially vectorizable on the in-order A53,
    // including address arithmetic), and a scatter of 16 single bytes into
    // 16 distinct position matrices (cache-hostile).
    let tc = (shape.c_in * n_tiles) as u64;
    let mut itc = InstCounts::default();
    itc.loads = 4 * tc;
    itc.load_bytes = 64 * tc;
    itc.neon_alu = 88 * tc;
    itc.stores = 16 * tc;
    itc.store_bytes = 16 * tc;
    sched.push(StageCost::compute("wg input transform", itc));

    // 16 Winograd-domain GEMMs (pack A is the offline-transformed weight, so
    // only its packing is charged, consistent with the GEMM path).
    let gemm_sched = position_gemm(bits).schedule(&scheme, shape.c_out, shape.c_in, n_tiles);
    for stage in gemm_sched.stages {
        let mut counts = InstCounts::default();
        counts.add_scaled(&stage.counts, 16);
        sched.push(StageCost::compute(stage.name, counts));
    }

    // Output transform: per (c_out, tile) 16 scattered i32 gathers from the
    // 16 position matrices, the 24-op i32 AᵀMA transform plus scaling, and
    // the 2x2 store.
    let oc = (shape.c_out * n_tiles) as u64;
    let mut otc = InstCounts::default();
    otc.loads = 16 * oc;
    otc.load_bytes = 64 * oc;
    otc.neon_alu = 96 * oc;
    otc.stores = 4 * oc;
    otc.store_bytes = 16 * oc;
    sched.push(StageCost::compute("wg output transform", otc));
    sched.push(crate::gemm_conv::requant_stage(shape));
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{direct_conv, schedule_gemm_conv};
    use lowbit_qgemm::{gemm, gemm_narrow};
    use neon_sim::CortexA53;
    use proptest::prelude::*;

    /// Transforms one 4x4 input patch: `V = Bᵀ d B` (always exact).
    fn transform_input(d: &[i32; 16], bits: BitWidth) -> [i8; 16] {
        #[inline]
        fn apply_bt(v: [i32; 4]) -> [i32; 4] {
            [v[0] - v[2], v[1] + v[2], v[2] - v[1], v[1] - v[3]]
        }
        let mut tmp = [[0i32; 4]; 4];
        for col in 0..4 {
            let r = apply_bt([d[col], d[4 + col], d[8 + col], d[12 + col]]);
            for (i, v) in r.iter().enumerate() {
                tmp[i][col] = *v;
            }
        }
        let mut out = [0i8; 16];
        for (i, row) in tmp.iter().enumerate() {
            let r = apply_bt(*row);
            for (j, &v) in r.iter().enumerate() {
                debug_assert!(
                    v >= -v_bound(bits) && v < v_bound(bits),
                    "V out of bound: {v}"
                );
                out[i * 4 + j] = v as i8;
            }
        }
        out
    }

    /// Output transform of one 4x4 block of i32 GEMM results into 2x2 outputs.
    fn transform_output(m: &[i32; 16], bits: BitWidth) -> [i32; 4] {
        let (row0, row1, shift) = output_rows(bits);
        let apply = |v: [i32; 4]| -> [i32; 2] {
            [
                row0[0] * v[0] + row0[1] * v[1] + row0[2] * v[2] + row0[3] * v[3],
                row1[0] * v[0] + row1[1] * v[1] + row1[2] * v[2] + row1[3] * v[3],
            ]
        };
        let mut tmp = [[0i32; 4]; 2]; // 2 x 4
        for col in 0..4 {
            let r = apply([m[col], m[4 + col], m[8 + col], m[12 + col]]);
            tmp[0][col] = r[0];
            tmp[1][col] = r[1];
        }
        let mut out = [0i32; 4];
        for (i, row) in tmp.iter().enumerate() {
            let r = apply(*row);
            for (j, &v) in r.iter().enumerate() {
                out[i * 2 + j] = if shift > 0 {
                    debug_assert_eq!(v & ((1 << shift) - 1), 0, "exact division expected");
                    v >> shift
                } else {
                    v
                };
            }
        }
        out
    }

    /// The per-tile pipeline the slice-based path replaced, kept as the
    /// oracle: per-element gathers, one 4x4 patch transform per (channel,
    /// tile), 16 serial GEMMs that pack their own operands, and one output
    /// transform per (channel, tile). Its rounded 5-6 bit results are the
    /// reference the engine path must reproduce byte for byte.
    fn per_tile_oracle(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> Tensor<i32> {
        assert!(shape.winograd_applicable(), "requires 3x3 stride-1");
        let bits = input.bits().max(weights.bits());
        assert!(winograd_supported(bits), "winograd supports <= 6 bit");
        assert_eq!(
            weights.dims(),
            (shape.c_out, shape.c_in, shape.kh, shape.kw)
        );

        let (oh, ow) = (shape.out_h(), shape.out_w());
        let (ty, tx) = (oh.div_ceil(2), ow.div_ceil(2));
        let n_tiles = shape.batch * ty * tx;

        // Offline weight transform: 16 matrices of c_out x c_in.
        let mut u = vec![vec![0i8; shape.c_out * shape.c_in]; 16];
        for co in 0..shape.c_out {
            for ci in 0..shape.c_in {
                let mut g = [0i32; 9];
                for (idx, gv) in g.iter_mut().enumerate() {
                    *gv = weights.get((co, ci, idx / 3, idx % 3)) as i32;
                }
                let t = transform_weight(&g, bits);
                for (pos, &tv) in t.iter().enumerate() {
                    u[pos][co * shape.c_in + ci] = tv;
                }
            }
        }

        // Input transform: 16 matrices of c_in x n_tiles.
        let mut v = vec![vec![0i8; shape.c_in * n_tiles]; 16];
        for b in 0..shape.batch {
            for ci in 0..shape.c_in {
                for tyy in 0..ty {
                    for txx in 0..tx {
                        let tile = (b * ty + tyy) * tx + txx;
                        let mut d = [0i32; 16];
                        for r in 0..4 {
                            let iy = (2 * tyy + r) as isize - shape.pad as isize;
                            if iy < 0 || iy >= shape.h as isize {
                                continue;
                            }
                            for c in 0..4 {
                                let ix = (2 * txx + c) as isize - shape.pad as isize;
                                if ix < 0 || ix >= shape.w as isize {
                                    continue;
                                }
                                d[r * 4 + c] =
                                    input.get((b, ci, iy as usize, ix as usize)) as i32;
                            }
                        }
                        let t = transform_input(&d, bits);
                        for (pos, &tv) in t.iter().enumerate() {
                            v[pos][ci * n_tiles + tile] = tv;
                        }
                    }
                }
            }
        }

        // 16 position-wise GEMMs in the Winograd domain.
        let scheme = winograd_scheme(bits);
        let narrow = position_gemm(bits) == TileKind::Narrow;
        let mut m_mats = Vec::with_capacity(16);
        for pos in 0..16 {
            let out = if narrow {
                gemm_narrow(&scheme, &u[pos], &v[pos], shape.c_out, shape.c_in, n_tiles)
            } else {
                gemm(&scheme, &u[pos], &v[pos], shape.c_out, shape.c_in, n_tiles)
            };
            m_mats.push(out.c);
        }

        // Output transform back to NCHW.
        let mut acc: Tensor<i32> = Tensor::zeros((shape.batch, shape.c_out, oh, ow), Layout::Nchw);
        for co in 0..shape.c_out {
            for b in 0..shape.batch {
                for tyy in 0..ty {
                    for txx in 0..tx {
                        let tile = (b * ty + tyy) * tx + txx;
                        let mut m = [0i32; 16];
                        for (pos, mv) in m.iter_mut().enumerate() {
                            *mv = m_mats[pos][co * n_tiles + tile];
                        }
                        let y = transform_output(&m, bits);
                        for r in 0..2 {
                            let oy = 2 * tyy + r;
                            if oy >= oh {
                                continue;
                            }
                            for cx in 0..2 {
                                let ox = 2 * txx + cx;
                                if ox >= ow {
                                    continue;
                                }
                                acc.set((b, co, oy, ox), y[r * 2 + cx]);
                            }
                        }
                    }
                }
            }
        }

        acc
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The engine path is bit-identical to direct conv where Winograd is
        /// exact and to the per-tile oracle where it rounds, on every ISA
        /// instance and thread count, with one arena reused throughout.
        #[test]
        fn engine_path_matches_the_oracles(
            batch in 1usize..=3,
            c_in in 1usize..=21,
            c_out in 1usize..=21,
            h in 3usize..=13,
            w in 3usize..=13,
            pad in 0usize..=1,
            bits in 2u8..=6,
            seed in 0u64..1000,
        ) {
            let bits = BitWidth::new(bits).unwrap();
            let shape = ConvShape::new(batch, c_in, h, w, c_out, 3, 1, pad);
            let input = QTensor::random((batch, c_in, shape.h, shape.w), Layout::Nchw, bits, seed);
            let weights = QTensor::random((c_out, c_in, 3, 3), Layout::Nchw, bits, seed + 1);
            let oracle = if winograd_exact(bits) {
                direct_conv(&input, &weights, &shape)
            } else {
                per_tile_oracle(&input, &weights, &shape)
            };
            let packed = WinogradWeights::pack(&weights, bits);
            let mut ws = ConvWorkspace::new();
            for isa in Isa::supported() {
                for threads in [1, 2, 4] {
                    let cfg = ParallelConfig::with_threads(threads);
                    let null = Tracer::null();
                    let acc =
                        winograd_conv_ws_on(isa, &input, &packed, &shape, &cfg, &mut ws, &null);
                    prop_assert_eq!(acc.dims(), oracle.dims());
                    prop_assert_eq!(acc.data(), oracle.data(), "{} x{}", isa, threads);
                }
            }
        }
    }

    #[test]
    fn one_shot_is_the_engine_path_and_the_arena_stops_growing() {
        let shape = ConvShape::new(2, 5, 9, 11, 7, 3, 1, 1);
        let input = QTensor::random((2, 5, 9, 11), Layout::Nchw, BitWidth::W5, 41);
        let weights = QTensor::random((7, 5, 3, 3), Layout::Nchw, BitWidth::W5, 42);
        let one_shot = winograd_conv(&input, &weights, &shape);
        assert_eq!(one_shot.acc.data(), per_tile_oracle(&input, &weights, &shape).data());
        let packed = PackedWeights::pack(&weights, ArmAlgo::Winograd, BitWidth::W5).unwrap();
        let (cfg, scheme) = (ParallelConfig::with_threads(3), winograd_scheme(BitWidth::W5));
        let mut ws = ConvWorkspace::new();
        let run = |ws: &mut ConvWorkspace| {
            crate::gemm_conv_ws(&input, &packed, &scheme, &shape, &cfg, ws, &Tracer::null())
        };
        let _ = run(&mut ws);
        let warm = ws.stats();
        for _ in 0..3 {
            assert_eq!(run(&mut ws).data(), one_shot.acc.data());
        }
        assert_eq!(ws.stats().alloc_events, warm.alloc_events, "steady state allocated");
        assert_eq!(ws.stats().calls, warm.calls + 3);
    }

    #[test]
    fn traced_run_records_one_track_per_tile_span_and_matches_untraced() {
        let shape = ConvShape::new(1, 6, 12, 10, 5, 3, 1, 1);
        let input = QTensor::random((1, 6, 12, 10), Layout::Nchw, BitWidth::W4, 51);
        let weights = QTensor::random((5, 6, 3, 3), Layout::Nchw, BitWidth::W4, 52);
        let packed = WinogradWeights::pack(&weights, BitWidth::W4);
        let mut ws = ConvWorkspace::new();
        for threads in [2, 4] {
            let cfg = ParallelConfig::with_threads(threads);
            let plain = winograd_conv_ws(&input, &packed, &shape, &cfg, &mut ws, &Tracer::null());
            let (tracer, sink) = Tracer::recording();
            let traced = winograd_conv_ws(&input, &packed, &shape, &cfg, &mut ws, &tracer);
            assert_eq!(traced.data(), plain.data(), "tracing must not change the result");
            let cap = sink.capture();
            let spans = partition_columns(shape.winograd_tiles(), threads);
            let names: Vec<String> = (spans.filter(|s| s.cols > 0))
                .map(|s| format!("winograd worker [{}..{})", s.col0, s.end()))
                .collect();
            // Tracks are registered on the caller, in span order, whatever
            // order the workers run in.
            let workers: Vec<&String> =
                cap.tracks.iter().filter(|t| t.starts_with("winograd worker")).collect();
            assert_eq!(workers, names.iter().collect::<Vec<_>>(), "x{threads}: track order");
            for name in &names {
                let track = cap.track_id(name).unwrap_or_else(|| panic!("missing track {name}"));
                let on_track: Vec<_> = cap.spans_on(track).collect();
                let outer =
                    on_track.iter().find(|s| s.name == "winograd worker").expect("worker span");
                for stage in ["wg input transform", "wg gemm"] {
                    assert!(on_track.iter().any(|s| s.name == stage), "{name}: {stage}");
                }
                for child in on_track.iter().filter(|s| s.name != "winograd worker") {
                    assert!(child.start_ns >= outer.start_ns && child.end_ns() <= outer.end_ns());
                }
            }
            assert!(cap.spans_on(MAIN_TRACK).any(|s| s.name == "wg scatter nchw"));
        }
    }

    #[test]
    #[should_panic(expected = "input wider than the transform width")]
    fn rejects_inputs_wider_than_the_transform() {
        let shape = ConvShape::new(1, 2, 6, 6, 2, 3, 1, 1);
        let input = QTensor::random((1, 2, 6, 6), Layout::Nchw, BitWidth::W6, 1);
        let weights = QTensor::random((2, 2, 3, 3), Layout::Nchw, BitWidth::W4, 2);
        let packed = WinogradWeights::pack(&weights, BitWidth::W4);
        let cfg = ParallelConfig::default();
        let mut ws = ConvWorkspace::new();
        let _ = winograd_conv_ws(&input, &packed, &shape, &cfg, &mut ws, &Tracer::null());
    }

    fn case(shape: ConvShape, bits: BitWidth, seed: u64) -> (ConvOutput, Tensor<i32>) {
        let input = QTensor::random(
            (shape.batch, shape.c_in, shape.h, shape.w),
            Layout::Nchw,
            bits,
            seed,
        );
        let weights = QTensor::random(
            (shape.c_out, shape.c_in, 3, 3),
            Layout::Nchw,
            bits,
            seed + 1,
        );
        let out = winograd_conv(&input, &weights, &shape);
        let oracle = direct_conv(&input, &weights, &shape);
        (out, oracle)
    }

    #[test]
    fn exact_mode_is_bit_exact() {
        for bits in [BitWidth::W2, BitWidth::W3, BitWidth::W4] {
            let shape = ConvShape::new(1, 3, 8, 8, 5, 3, 1, 1);
            let (out, oracle) = case(shape, bits, 7 + bits.bits() as u64);
            assert_eq!(out.acc.data(), oracle.data(), "{bits}");
        }
    }

    #[test]
    fn exact_mode_handles_odd_output_and_batch() {
        let shape = ConvShape::new(2, 2, 7, 9, 3, 3, 1, 1); // 7x9 output, odd
        let (out, oracle) = case(shape, BitWidth::W4, 100);
        assert_eq!(out.acc.data(), oracle.data());
    }

    #[test]
    fn exact_mode_no_padding() {
        let shape = ConvShape::new(1, 2, 6, 6, 2, 3, 1, 0); // 4x4 output
        let (out, oracle) = case(shape, BitWidth::W3, 200);
        assert_eq!(out.acc.data(), oracle.data());
    }

    #[test]
    fn rounded_mode_error_is_sub_lsb() {
        // 5/6-bit: the winograd-domain rounding perturbs each weight tap by
        // < 0.5 of a quarter-unit; the end-to-end error per output is bounded
        // by c_in * (sum of |A| coefficients)^2 * max|V| rounding analysis.
        // Empirically it stays well inside the requantization step; assert a
        // conservative bound relative to the accumulator magnitude.
        for bits in [BitWidth::W5, BitWidth::W6] {
            let shape = ConvShape::new(1, 4, 10, 10, 4, 3, 1, 1);
            let (out, oracle) = case(shape, bits, 300 + bits.bits() as u64);
            let max_err = out
                .acc
                .data()
                .iter()
                .zip(oracle.data())
                .map(|(a, b)| (a - b).abs())
                .max()
                .unwrap();
            // Each of c_in=4 channels contributes at most 0.5 units of
            // transformed-weight rounding per position, amplified by |V| and
            // the output-transform coefficient mass (<= 5 per side at 6-bit).
            let bound = 4 * 25 * v_bound(bits) / 2;
            assert!(
                max_err <= bound,
                "{bits}: rounding error {max_err} exceeds bound {bound}"
            );
            // And it must stay a small fraction of the accumulator range —
            // at 6-bit the fast (h=2) transform trades ~1 weight-LSB of
            // winograd-domain rounding for the drain-ratio win (see module
            // docs and EXPERIMENTS.md).
            let max_acc = oracle.data().iter().map(|v| v.abs()).max().unwrap();
            assert!(max_err as f64 <= 0.12 * max_acc as f64 + 64.0);
        }
    }

    #[test]
    fn transformed_operands_fit_i8() {
        // Bound check is a debug assertion inside the transforms; drive it
        // with extreme values.
        for bits in [BitWidth::W4, BitWidth::W5, BitWidth::W6] {
            let g = [bits.qmin() as i32; 9];
            let _ = transform_weight(&g, bits);
            let d = {
                let mut d = [bits.qmin() as i32; 16];
                // Alternating extremes maximize the subtract rows.
                for (i, v) in d.iter_mut().enumerate() {
                    if i % 2 == 0 {
                        *v = bits.qmax() as i32;
                    }
                }
                d
            };
            let _ = transform_input(&d, bits);
        }
    }

    #[test]
    fn winograd_models_faster_than_gemm_at_4_to_6_bit() {
        // Fig. 8: winograd beats the GEMM path on 3x3 s1 layers at 4-6 bit.
        let model = CortexA53::cost_model();
        let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        for bits in [BitWidth::W4, BitWidth::W5, BitWidth::W6] {
            let wg = schedule_winograd_conv(bits, &shape).cycles(&model);
            let gm = schedule_gemm_conv(&Scheme::for_bits(bits), &shape).cycles(&model);
            assert!(
                wg < gm,
                "{bits}: winograd ({wg:.0}) should beat GEMM ({gm:.0})"
            );
        }
    }

    #[test]
    fn winograd_does_not_beat_mla_gemm_at_2_bit() {
        // Sec. 3.4: MLA's 2x throughput offsets winograd's 2.25x MAC saving.
        let model = CortexA53::cost_model();
        let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        let wg = schedule_winograd_conv(BitWidth::W2, &shape).cycles(&model);
        let gm = schedule_gemm_conv(&Scheme::for_bits(BitWidth::W2), &shape).cycles(&model);
        assert!(
            wg > 0.85 * gm,
            "2-bit winograd should not meaningfully beat the MLA GEMM"
        );
    }

    #[test]
    fn six_bit_winograd_takes_the_narrow_tile() {
        // Ratio 7 at 6-bit: the tailored allocation must kick in and help.
        assert_eq!(super::position_gemm(BitWidth::W6), TileKind::Narrow);
        assert_eq!(super::position_gemm(BitWidth::W4), TileKind::Wide); // ratio 14: wide wins
        // And the narrow-tile path stays bit-consistent (rounded mode bound
        // already verified; exactness at 4-bit is unaffected since it keeps
        // the wide tile).
        let shape = ConvShape::new(1, 3, 8, 8, 4, 3, 1, 1);
        let input = QTensor::random((1, 3, 8, 8), Layout::Nchw, BitWidth::W6, 88);
        let weights = QTensor::random((4, 3, 3, 3), Layout::Nchw, BitWidth::W6, 89);
        let out = winograd_conv(&input, &weights, &shape);
        assert_eq!(out.acc.dims(), (1, 4, 8, 8));
    }

    #[test]
    #[should_panic(expected = "winograd supports")]
    fn rejects_7_bit() {
        let shape = ConvShape::new(1, 2, 6, 6, 2, 3, 1, 1);
        let input = QTensor::random((1, 2, 6, 6), Layout::Nchw, BitWidth::W7, 1);
        let weights = QTensor::random((2, 2, 3, 3), Layout::Nchw, BitWidth::W7, 2);
        let _ = winograd_conv(&input, &weights, &shape);
    }

    #[test]
    #[should_panic(expected = "3x3 stride-1")]
    fn rejects_strided_shapes() {
        let shape = ConvShape::new(1, 2, 6, 6, 2, 3, 2, 1);
        let input = QTensor::random((1, 2, 6, 6), Layout::Nchw, BitWidth::W4, 1);
        let weights = QTensor::random((2, 2, 3, 3), Layout::Nchw, BitWidth::W4, 2);
        let _ = winograd_conv(&input, &weights, &shape);
    }
}
