//! Self-describing kernel instruction streams for static verification.
//!
//! The emitters in [`crate::micro`], [`crate::narrow`], [`crate::sdot`] and
//! [`mod@crate::emit_gemm`] produce bare instruction vectors against
//! caller-chosen addresses. A [`KernelStream`] bundles one such program with
//! the *contract* needed to reason about it without running it: where the
//! packed A/B operands live and what element type they hold, and where the
//! i32 output goes. The `lowbit-verify` crate consumes these descriptors —
//! attaching operand *value* ranges per bit width — to prove saturation
//! safety and register-allocation discipline for every emitted variant.

use crate::emit_gemm::emit_gemm;
use crate::micro::{emit_tile, emit_tile_ncnn, TILE_LEN};
use crate::narrow::{emit_tile_narrow, NA8, NARROW_TILE_LEN};
use crate::pack::{pack_a, pack_b, NA, NB};
use crate::scheme::{Scheme, SchemeKind};
use crate::sdot::{emit_tile_sdot, KQ, SDOT_NA};
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

fn i8_region(start: u32, len: u32) -> OperandRegion {
    OperandRegion { span: MemSpan::new(start, len), elem: ElemWidth::B }
}

/// The 16x4 micro-tile of Alg. 1 (SMLAL or MLA scheme per `scheme.kind()`),
/// emitted at the canonical layout: A at 0 (`k * 16` i8), B after it
/// (`k * 4` i8), C 16-byte-aligned after B.
pub fn tile_stream_wide(scheme: &Scheme, k: usize) -> KernelStream {
    assert_ne!(scheme.kind(), SchemeKind::Ncnn16, "use tile_stream_ncnn");
    let a_len = (k * NA) as u32;
    let b_len = (k * NB) as u32;
    let addr_c = (a_len + b_len).next_multiple_of(16);
    let kind = match scheme.kind() {
        SchemeKind::Smlal8 => "smlal",
        SchemeKind::Mla => "mla",
        SchemeKind::Ncnn16 => unreachable!(),
    };
    KernelStream {
        name: format!("{kind}16x4 k={k} r={}", scheme.ratio()),
        prog: emit_tile(scheme, k, 0, a_len, addr_c),
        a: i8_region(0, a_len),
        b: i8_region(a_len, b_len),
        c: MemSpan::new(addr_c, (TILE_LEN * 4) as u32),
        k,
    }
}

/// The spill-free narrow 8x4 tile under the SMLAL scheme (the ncnn
/// scheme's A53 program is [`tile_stream_ncnn`]).
pub fn tile_stream_narrow(scheme: &Scheme, k: usize) -> KernelStream {
    assert_eq!(scheme.kind(), SchemeKind::Smlal8, "the emitted narrow tile is SMLAL-only");
    let a_len = (k * NA8) as u32;
    let b_len = (k * NB) as u32;
    let addr_c = (a_len + b_len).next_multiple_of(16);
    KernelStream {
        name: format!("narrow8x4 k={k} r={}", scheme.ratio()),
        prog: emit_tile_narrow(scheme, k, 0, a_len, addr_c),
        a: i8_region(0, a_len),
        b: i8_region(a_len, b_len),
        c: MemSpan::new(addr_c, (NARROW_TILE_LEN * 4) as u32),
        k,
    }
}

/// The ARMv8.2 `SDOT` 16x4 tile (no drains; operands quad-packed to
/// `k_pad = ⌈k/4⌉·4`).
pub fn tile_stream_sdot(k: usize) -> KernelStream {
    let k_pad = k.div_ceil(KQ) * KQ;
    let a_len = (k_pad * SDOT_NA) as u32;
    let b_len = (k_pad * NB) as u32;
    let addr_c = (a_len + b_len).next_multiple_of(16);
    KernelStream {
        name: format!("sdot16x4 k={k}"),
        prog: emit_tile_sdot(k, 0, a_len, addr_c),
        a: i8_region(0, a_len),
        b: i8_region(a_len, b_len),
        c: MemSpan::new(addr_c, (SDOT_NA * NB * 4) as u32),
        k,
    }
}

/// The ncnn-like 8x4 baseline on pre-widened i16 operands (accumulates
/// straight into i32 — the stream the drain schemes are measured against).
pub fn tile_stream_ncnn(k: usize) -> KernelStream {
    let a_len = (k * NA8 * 2) as u32;
    let b_len = (k * NB * 2) as u32;
    let addr_c = (a_len + b_len).next_multiple_of(16);
    KernelStream {
        name: format!("ncnn8x4 k={k}"),
        prog: emit_tile_ncnn(k, 0, a_len, addr_c),
        a: OperandRegion { span: MemSpan::new(0, a_len), elem: ElemWidth::H },
        b: OperandRegion { span: MemSpan::new(a_len, b_len), elem: ElemWidth::H },
        c: MemSpan::new(addr_c, (NARROW_TILE_LEN * 4) as u32),
        k,
    }
}

/// A whole multi-tile GEMM program over an `m x k x n` problem, stitched by
/// [`emit_gemm`] across the full `(⌈m/16⌉ x ⌈n/4⌉)` tile grid. Operand
/// *contents* are irrelevant to the static analysis, so the packed matrices
/// are built from zeros purely to size the layout.
pub fn gemm_stream(scheme: &Scheme, m: usize, k: usize, n: usize) -> KernelStream {
    let pa = pack_a(&vec![0i8; m * k], m, k);
    let pb = pack_b(&vec![0i8; k * n], k, n);
    let (prog, layout) = emit_gemm(scheme, &pa, &pb);
    let c_len = (pa.tiles() * pb.tiles() * NA * NB * 4) as u32;
    KernelStream {
        name: format!("gemm {m}x{k}x{n} r={}", scheme.ratio()),
        prog,
        a: i8_region(layout.addr_a, pa.data.len() as u32),
        b: i8_region(layout.addr_b, pb.data.len() as u32),
        c: MemSpan::new(layout.addr_c, c_len),
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_tensor::BitWidth;

    #[test]
    fn regions_are_disjoint_and_cover_all_accesses() {
        let streams = [
            tile_stream_wide(&Scheme::for_bits(BitWidth::W4), 7),
            tile_stream_wide(&Scheme::for_bits(BitWidth::W2), 33),
            tile_stream_narrow(&Scheme::for_bits(BitWidth::W8), 5),
            tile_stream_sdot(10),
            tile_stream_ncnn(6),
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

    #[test]
    fn stream_k_round_trips_the_mac_count() {
        let s = tile_stream_wide(&Scheme::for_bits(BitWidth::W8), 11);
        let macs = s
            .prog
            .iter()
            .filter(|i| matches!(i, Inst::Smlal8 { .. } | Inst::Smull8 { .. }))
            .count();
        assert_eq!(macs, 8 * s.k);
    }
}
