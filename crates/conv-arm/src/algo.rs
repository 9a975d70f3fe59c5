//! The ARM kernel table: [`ArmAlgo`] names every convolution algorithm this
//! crate implements, and the facts that decide where each one may run live
//! beside it — the applicability rule ([`ArmAlgo::applies`]) here, the
//! prepacked weight layout and its cache tag in
//! [`crate::workspace::PackedWeights::pack`] and
//! [`crate::workspace::prepack_fingerprint`].

use crate::winograd::winograd_supported;
use lowbit_tensor::{BitWidth, ConvShape};

/// Algorithm choice for one layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArmAlgo {
    /// Pick the modeled-fastest applicable algorithm (the paper's policy:
    /// Winograd for 4–6-bit 3x3/s1, the scheme-matched GEMM otherwise).
    Auto,
    /// Force the explicit-GEMM path.
    Gemm,
    /// Force the Winograd `F(2x2, 3x3)` path (panics if not applicable).
    Winograd,
    /// The spill-free narrow 8x4 GEMM tile (extension; SMLAL widths only).
    GemmNarrow,
    /// The ARMv8.2 `SDOT` GEMM (extension; models a newer core's ISA).
    GemmSdot,
    /// The ncnn-like 8-bit baseline.
    NcnnBaseline,
    /// The TVM-like popcount baseline (2-bit only).
    BitserialBaseline,
}

impl ArmAlgo {
    /// Every algorithm except `Auto`.
    pub const CONCRETE: [ArmAlgo; 6] = [
        ArmAlgo::Gemm,
        ArmAlgo::GemmNarrow,
        ArmAlgo::GemmSdot,
        ArmAlgo::Winograd,
        ArmAlgo::NcnnBaseline,
        ArmAlgo::BitserialBaseline,
    ];

    /// Whether the algorithm can run a layer of `shape` whose wider operand
    /// is `bits` wide (Sec. 3.3–3.4): the narrow tile is `SMLAL`-only, so it
    /// needs at least 4 bit; Winograd `F(2x2, 3x3)` needs a 3x3/stride-1
    /// layer and at most 6 bit, past which its input transform escapes i8;
    /// the popcount baseline is A2W2. Every other algorithm runs at any
    /// width and shape, and `Auto` resolves to one that applies.
    pub fn applies(self, bits: BitWidth, shape: &ConvShape) -> bool {
        match self {
            ArmAlgo::GemmNarrow => !bits.uses_mla_scheme(),
            ArmAlgo::Winograd => shape.winograd_applicable() && winograd_supported(bits),
            ArmAlgo::BitserialBaseline => bits == BitWidth::W2,
            ArmAlgo::Auto | ArmAlgo::Gemm | ArmAlgo::GemmSdot | ArmAlgo::NcnnBaseline => true,
        }
    }
}

/// The kernel-family names the plan verifier's reports print and its
/// concurrency certificate digest hashes.
impl std::fmt::Display for ArmAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ArmAlgo::Auto => "auto",
            ArmAlgo::Gemm => "gemm",
            ArmAlgo::GemmNarrow => "gemm-narrow",
            ArmAlgo::GemmSdot => "gemm-sdot",
            ArmAlgo::Winograd => "winograd",
            ArmAlgo::NcnnBaseline => "ncnn",
            ArmAlgo::BitserialBaseline => "bitserial",
        })
    }
}
