//! Self-describing kernel instruction streams for static verification.
//!
//! The emitters in [`crate::micro`], [`crate::narrow`], [`crate::sdot`] and
//! [`mod@crate::emit_gemm`] produce bare instruction vectors against
//! caller-chosen addresses. A [`KernelStream`] bundles one such program
//! with the *contract* needed to reason about it without running it: where
//! the packed A/B operands live and what element type they hold, and where
//! the i32 output goes. [`crate::TileKind::stream`] builds one tile of any
//! kind; [`gemm_stream`] a whole wide-tile GEMM. The `lowbit-verify` crate consumes these descriptors —
//! attaching operand *value* ranges per bit width — to prove saturation
//! safety and register-allocation discipline for every emitted variant.

use crate::emit_gemm::emit_gemm;
use crate::pack::{pack_a, PackedB, NA, NB};
use crate::scheme::Scheme;
use neon_sim::inst::Inst;
use neon_sim::meta::{ElemWidth, MemSpan};

/// A memory region holding one packed operand: its byte span and the lane
/// element type the kernel loads from it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OperandRegion {
    /// Byte extent of the packed operand.
    pub span: MemSpan,
    /// Element type of the packed data (`B` for i8 operands, `H` for the
    /// pre-widened ncnn baseline).
    pub elem: ElemWidth,
}

/// One emitted kernel program plus the memory contract it was emitted
/// against.
#[derive(Clone, Debug)]
pub struct KernelStream {
    /// Human-readable identifier (`"smlal16x4"`, `"gemm 21x40x9"`, …).
    pub name: String,
    /// The instruction stream.
    pub prog: Vec<Inst>,
    /// Packed A (weights) region.
    pub a: OperandRegion,
    /// Packed B (activations) region.
    pub b: OperandRegion,
    /// i32 output region (the only legal store target).
    pub c: MemSpan,
    /// K-loop depth the program was emitted for.
    pub k: usize,
}

impl KernelStream {
    /// Total simulator memory the stream requires.
    pub fn mem_len(&self) -> usize {
        self.c.end() as usize
    }
}

/// A whole multi-tile GEMM program over an `m x k x n` problem, stitched by
/// [`emit_gemm`] across the full `(⌈m/16⌉ x ⌈n/4⌉)` tile grid. Operand
/// *contents* are irrelevant to the static analysis, so the packed matrices
/// are built from zeros purely to size the layout.
pub fn gemm_stream(scheme: &Scheme, m: usize, k: usize, n: usize) -> KernelStream {
    let pa = pack_a(&vec![0i8; m * k], m, k);
    let pb = PackedB::from_b(&vec![0i8; k * n], k, n);
    let (prog, layout) = emit_gemm(scheme, &pa, &pb);
    let c_len = (pa.tiles() * pb.tiles() * NA * NB * 4) as u32;
    let i8_region = |start, len: usize| OperandRegion {
        span: MemSpan::new(start, len as u32),
        elem: ElemWidth::B,
    };
    KernelStream {
        name: format!("gemm {m}x{k}x{n} r={}", scheme.ratio()),
        prog,
        a: i8_region(layout.addr_a, pa.data.len()),
        b: i8_region(layout.addr_b, pb.data.len()),
        c: MemSpan::new(layout.addr_c, c_len),
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::TileKind;
    use lowbit_tensor::BitWidth;

    #[test]
    fn regions_are_disjoint_and_cover_all_accesses() {
        let streams = [
            TileKind::Wide.stream(&Scheme::for_bits(BitWidth::W4), 7),
            TileKind::Wide.stream(&Scheme::for_bits(BitWidth::W2), 33),
            TileKind::Narrow.stream(&Scheme::for_bits(BitWidth::W8), 5),
            TileKind::Sdot.stream(&Scheme::for_bits(BitWidth::W8), 10),
            TileKind::Ncnn.stream(&Scheme::ncnn16(), 6),
            gemm_stream(&Scheme::for_bits(BitWidth::W8), 21, 9, 9),
        ];
        for s in &streams {
            assert!(s.a.span.end() <= s.b.span.start, "{}: A/B disjoint", s.name);
            assert!(s.b.span.end() <= s.c.start, "{}: B/C disjoint", s.name);
            for inst in &s.prog {
                if let Some(acc) = inst.mem_access() {
                    let inside = s.a.span.contains(acc.addr, acc.bytes)
                        || s.b.span.contains(acc.addr, acc.bytes)
                        || s.c.contains(acc.addr, acc.bytes);
                    assert!(inside, "{}: {inst} escapes the declared regions", s.name);
                }
            }
        }
    }
}
