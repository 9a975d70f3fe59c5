//! The ARM kernel table: [`ArmAlgo`] names every convolution algorithm this
//! crate implements, and the facts that decide where and how each one runs
//! live beside it — the applicability rule ([`ArmAlgo::applies`]), the
//! modeled GEMM tile kind ([`ArmAlgo::tile`], which also says whether the
//! algorithm is one of the GEMM family) and the drain scheme
//! ([`ArmAlgo::scheme`]) here, the prepacked weight layout and its cache
//! tag in [`crate::workspace::PackedWeights::pack`] and
//! [`crate::workspace::prepack_fingerprint`].

use crate::winograd::winograd_supported;
use lowbit_qgemm::{Scheme, TileKind};
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
    /// The ncnn-like 8-bit baseline (paper Sec. 5.2's description of ncnn):
    /// im2col explicit GEMM where 8-bit operands are pre-widened to 16 bits
    /// and `SMLAL vd.4s` accumulates directly into 32-bit registers — no
    /// drain instructions, but half the MAC lanes and double the operand
    /// traffic. On the host it is the narrow 8x4 tile under
    /// [`Scheme::ncnn16`] (i8 panels widened in registers), sharing
    /// `GemmNarrow`'s packed weights; its schedule prices ncnn's
    /// pre-widened i16 panels.
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

    /// The algorithm's display name, as plans, reports and the concurrency
    /// certificate spell it.
    pub fn name(self) -> &'static str {
        match self {
            ArmAlgo::Auto => "auto",
            ArmAlgo::Gemm => "gemm",
            ArmAlgo::GemmNarrow => "gemm-narrow",
            ArmAlgo::GemmSdot => "gemm-sdot",
            ArmAlgo::Winograd => "winograd",
            ArmAlgo::NcnnBaseline => "ncnn",
            ArmAlgo::BitserialBaseline => "bitserial",
        }
    }

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

    /// The modeled GEMM tile kind the algorithm runs: its row of the tile
    /// table, which the schedule, the verifiers and the serving cost model
    /// read. `Some` exactly for the GEMM family (the wide, narrow and SDOT
    /// tiles and the ncnn baseline); `None` for Winograd, whose 16 position
    /// GEMMs pick their own tile, the bitserial baseline and `Auto`.
    pub fn tile(self) -> Option<TileKind> {
        match self {
            ArmAlgo::Gemm => Some(TileKind::Wide),
            ArmAlgo::GemmNarrow => Some(TileKind::Narrow),
            ArmAlgo::GemmSdot => Some(TileKind::Sdot),
            ArmAlgo::NcnnBaseline => Some(TileKind::Ncnn),
            ArmAlgo::Winograd | ArmAlgo::BitserialBaseline | ArmAlgo::Auto => None,
        }
    }

    /// The drain scheme the algorithm's GEMM runs, and is priced at, for
    /// operands at most `bits` wide: the baseline's drain-free
    /// [`Scheme::ncnn16`], and the paper's [`Scheme::for_bits`] for every
    /// other kernel (the SDOT kernel has no drain machinery and ignores it;
    /// Winograd's weights carry their own width).
    pub fn scheme(self, bits: BitWidth) -> Scheme {
        match self {
            ArmAlgo::NcnnBaseline => Scheme::ncnn16(),
            _ => Scheme::for_bits(bits),
        }
    }
}

/// The kernel-family names the plan verifier's reports print and its
/// concurrency certificate digest hashes.
impl std::fmt::Display for ArmAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
