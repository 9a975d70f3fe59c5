//! The verification case catalog: every emitted kernel variant paired with
//! the operand value ranges it must be safe for.
//!
//! A [`VerifyCase`] is a [`KernelStream`] plus [`OperandBounds`]. The
//! standard catalog covers, for every bit width 2–8:
//!
//! * the wide 16x4 tile (Alg. 1) at K depths that exercise zero, exactly one
//!   and more-than-one drain boundary (`k ∈ {1, r, 2r+1}`);
//! * for the MLA widths, a K deep enough to cross the *second-level*
//!   i16→i32 drain (`k = r·r2 + 5`);
//! * the spill-free narrow 8x4 tile for the SMLAL widths;
//! * the Winograd-domain operand ranges of Sec. 3.4 (bits 2–6) on both
//!   tiles — the inflated `Ū`/`V` bounds are the hard case for i16 safety;
//! * the `SDOT` and ncnn-baseline streams;
//! * whole multi-tile GEMM programs with ragged edges.

use crate::absint::OperandBounds;
use crate::interval::Interval;
use lowbit_conv_arm::{winograd_operand_bounds, winograd_scheme, winograd_supported};
use lowbit_qgemm::{gemm_stream, KernelStream, Scheme, TileKind};
use lowbit_tensor::BitWidth;

impl OperandBounds {
    /// Natural quantized operand ranges for `bits` (adjusted symmetric at
    /// 7/8 bit, asymmetric two's-complement below).
    pub fn for_bits(bits: BitWidth) -> OperandBounds {
        let iv = Interval::new(bits.qmin() as i64, bits.qmax() as i64);
        OperandBounds { a: iv, b: iv }
    }

    /// Winograd-domain ranges for `bits` (Sec. 3.4): transformed weights
    /// `Ū ∈ [-u, u]`, transformed inputs `V ∈ [-v, v - 1]`.
    pub fn winograd(bits: BitWidth) -> OperandBounds {
        let (u, v) = winograd_operand_bounds(bits);
        OperandBounds {
            a: Interval::symmetric(u as i64),
            b: Interval::new(-(v as i64), v as i64 - 1),
        }
    }
}

/// One stream/bounds pair to verify.
pub struct VerifyCase {
    /// The emitted program and its memory contract.
    pub stream: KernelStream,
    /// Operand value ranges the program must be safe for.
    pub bounds: OperandBounds,
}

impl VerifyCase {
    fn new(stream: KernelStream, bounds: OperandBounds) -> VerifyCase {
        VerifyCase { stream, bounds }
    }
}

/// K depths that bracket the drain boundaries of `scheme`: no drain, the
/// last drain-free depth, and one that crosses several boundaries (plus the
/// second-level boundary for MLA).
fn interesting_ks(scheme: &Scheme) -> Vec<usize> {
    let r = scheme.ratio();
    let mut ks = vec![1, r, 2 * r + 1];
    if scheme.ratio2() != usize::MAX {
        // Deep enough to force the second-level i16 -> i32 drain.
        ks.push(r * scheme.ratio2() + 5);
    }
    ks.dedup();
    ks
}

/// Direct-convolution cases for one bit width: wide tile at the interesting
/// K depths, plus the narrow tile for the SMLAL widths.
pub fn direct_cases(bits: BitWidth) -> Vec<VerifyCase> {
    let scheme = Scheme::for_bits(bits);
    let bounds = OperandBounds::for_bits(bits);
    let mut cases = Vec::new();
    for k in interesting_ks(&scheme) {
        cases.push(VerifyCase::new(TileKind::Wide.stream(&scheme, k), bounds));
    }
    if !bits.uses_mla_scheme() {
        let r = scheme.ratio();
        for k in [1, r, 2 * r + 1] {
            cases.push(VerifyCase::new(TileKind::Narrow.stream(&scheme, k), bounds));
        }
    }
    cases
}

/// Winograd-domain cases for one bit width (empty above 6 bit, where the
/// transform is unsupported). These use the inflated Sec. 3.4 operand
/// bounds on both tile shapes.
pub fn winograd_cases(bits: BitWidth) -> Vec<VerifyCase> {
    if !winograd_supported(bits) {
        return Vec::new();
    }
    let scheme = winograd_scheme(bits);
    let bounds = OperandBounds::winograd(bits);
    let r = scheme.ratio();
    let mut cases = Vec::new();
    for k in [1, r, 2 * r + 1] {
        cases.push(VerifyCase::new(TileKind::Wide.stream(&scheme, k), bounds));
        cases.push(VerifyCase::new(TileKind::Narrow.stream(&scheme, k), bounds));
    }
    cases
}

/// The drain-free baselines: the ncnn-like pre-widened i16 kernel and the
/// ARMv8.2 `SDOT` kernel, both at 8-bit operand ranges.
pub fn baseline_cases() -> Vec<VerifyCase> {
    let i8_bounds = OperandBounds::for_bits(BitWidth::W8);
    let ncnn = [1, 5, 64].map(|k| (TileKind::Ncnn, Scheme::ncnn16(), k));
    let sdot = [1, 7, 64].map(|k| (TileKind::Sdot, Scheme::for_bits(BitWidth::W8), k));
    let streams = ncnn.into_iter().chain(sdot).map(|(tile, scheme, k)| tile.stream(&scheme, k));
    streams.map(|stream| VerifyCase::new(stream, i8_bounds)).collect()
}

/// Whole multi-tile GEMM programs (ragged M/N edges, tile-major C) at a
/// representative MLA width, SMLAL width and the 8-bit worst case.
pub fn gemm_cases() -> Vec<VerifyCase> {
    [BitWidth::W2, BitWidth::W4, BitWidth::W8]
        .into_iter()
        .map(|bits| {
            let scheme = Scheme::for_bits(bits);
            VerifyCase::new(
                gemm_stream(&scheme, 21, 40, 9),
                OperandBounds::for_bits(bits),
            )
        })
        .collect()
}

/// The full standard catalog: every bit width's direct and Winograd cases,
/// the baselines, and the multi-tile GEMMs.
pub fn standard_cases() -> Vec<VerifyCase> {
    let mut cases = Vec::new();
    for bits in BitWidth::ALL {
        cases.extend(direct_cases(bits));
        cases.extend(winograd_cases(bits));
    }
    cases.extend(baseline_cases());
    cases.extend(gemm_cases());
    cases
}
