//! The ARMv8.2 `SDOT` GEMM path (extension).
//!
//! Sec. 2.3 of the paper: "In the latest ARMv8.2 architecture, SDOT … is
//! introduced to support dot product calculation with 8-bit input and 32-bit
//! output. However, ARMv8.1 is still the dominant architecture" — hence the
//! drain schemes. This module implements the v8.2 kernel the paper leaves as
//! future territory, to quantify exactly how much of the scheme machinery
//! `SDOT` deletes:
//!
//! * operands are packed in **k-quads** (four consecutive K elements
//!   interleaved), so one `SDOT` performs 16 MACs straight into i32 —
//!   no drains, no spills, no range adjustment, any bit width up to 8;
//! * the 16x4 tile needs 16 accumulator registers (`v16..v31`), 4 A
//!   registers and 4 B registers — exactly the register budget;
//! * per k-quad: 4x `LD1` + 1x `LD4R.4s` + 16x `SDOT` = 256 MACs in 21
//!   instructions, vs 2-bit MLA's 64 MACs in ~6.3.
//!
//! Both operand images are [`crate::pack::Panels`] with K grouped in quads:
//! [`PackedAQuads`] (16 lanes) and [`crate::pack::PackedBQuads`] (4 lanes),
//! the B image the emitted `LD4R.4s` stream reads. On the host the tile is
//! the third tile kind of [`crate::parallel`] ([`crate::SharedWeights::Quads`]):
//! A stays quad-packed, B comes from the driver's step-major panels, and
//! [`gemm_sdot`], the engine and [`crate::parallel::run_tile`] all run the
//! one kernel.

#![allow(clippy::field_reassign_with_default)] // InstCounts builders read clearer this way

use crate::gemm::{one_shot, GemmOutput};
use crate::kind::TileKind;
use crate::micro::TILE_LEN;
use crate::pack::{PackedAQuads, NB};
use crate::parallel::SharedWeights;
use crate::scheme::Scheme;
use lowbit_isa::Isa;
use lowbit_tensor::BitWidth;
use neon_sim::inst::Inst;
use neon_sim::InstCounts;

/// Rows per SDOT A tile.
pub const SDOT_NA: usize = 16;
/// K elements consumed per SDOT step.
pub const KQ: usize = 4;
/// SDOT tiles per register block of the parallel driver.
pub const SDOT_BLOCK: usize = 4;

/// A register block of `T` 16x4 SDOT tiles against one K block of the
/// driver's step-major B panel (`b[step * NB + col]`), compiled for `isa`.
/// `a[t]` is tile `t`'s quads covering the block ([`PackedAQuads::block`]:
/// within a quad, each row's four K elements sit together, so one 128-bit
/// register holds four rows' quads, lane-aligned for `SDOT`),
/// its first step at lane `lane0` of the first quad; `acc[t]` is the tile's
/// result, `acc[t][col * 16 + row]`.
///
/// Each i8 x i8 product goes straight into i32, as `SDOT` does: B lanes
/// outside the block read as zero, so a block may start and end inside a
/// quad and every split of K sums to the same bits.
pub(crate) fn accumulate_sdot_on<const T: usize>(
    isa: Isa,
    a: [&[i8]; T],
    lane0: usize,
    b: &[i8],
    acc: &mut [[i32; TILE_LEN]; T],
) {
    isa.run(
        #[inline(always)]
        || accumulate_sdot(a, lane0, b, acc),
    )
}

/// The body of [`accumulate_sdot_on`], always inlined so it is compiled for
/// the ISA of the [`Isa::run`] trampoline. Per quad, B's four steps are
/// gathered per column (zero outside the block) and every row's quad is
/// dotted with them: 16 MACs per output, the `SDOT` shape.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn accumulate_sdot<const T: usize>(
    a: [&[i8]; T],
    lane0: usize,
    b: &[i8],
    acc: &mut [[i32; TILE_LEN]; T],
) {
    let (b, b_rest) = b.as_chunks::<NB>();
    let quads = (lane0 + b.len()).div_ceil(KQ);
    let a = a.map(|at| {
        let (at, a_rest) = at.as_chunks::<{ SDOT_NA * KQ }>();
        assert!(
            a_rest.is_empty() && b_rest.is_empty() && at.len() == quads,
            "operand blocks disagree on K: {} A quads for {} B steps from lane {lane0}",
            at.len(),
            b.len()
        );
        at
    });
    for q in 0..quads {
        let b_quad: [[i32; KQ]; NB] = std::array::from_fn(|c| {
            std::array::from_fn(|j| {
                let step = (q * KQ + j).wrapping_sub(lane0);
                b.get(step).map_or(0, |row| row[c] as i32)
            })
        });
        for t in 0..T {
            let quad = &a[t][q];
            for c in 0..NB {
                for r in 0..SDOT_NA {
                    let dot: i32 = (0..KQ).map(|j| quad[r * KQ + j] as i32 * b_quad[c][j]).sum();
                    let i = c * SDOT_NA + r;
                    acc[t][i] = acc[t][i].wrapping_add(dot);
                }
            }
        }
    }
}

/// Analytic instruction counts for one SDOT tile over `k` logical K steps.
pub fn tile_counts_sdot(k: usize) -> InstCounts {
    assert!(k > 0);
    let quads = k.div_ceil(KQ) as u64;
    let mut c = InstCounts::default();
    c.loads = 5 * quads; // 4x LD1 (A) + 1x LD4R.4s (B)
    c.load_bytes = 80 * quads;
    c.neon_mac = 16 * quads; // 4 row groups x 4 columns
    c.neon_mov = 16; // accumulator zeroing prologue
    c.stores = 16;
    c.store_bytes = 256;
    c
}

/// Emits the SDOT tile program: quad-packed A at `addr_a`
/// (`k_pad * 16` bytes), B at `addr_b` (`k_pad * 4`), result at `addr_c`.
pub fn emit_tile_sdot(k: usize, addr_a: u32, addr_b: u32, addr_c: u32) -> Vec<Inst> {
    assert!(k > 0);
    let quads = k.div_ceil(KQ);
    let mut prog = Vec::new();
    // A: v0..v3 (row groups of 4), B: v4..v7 (one per column),
    // acc: v16..v31, index = col*4 + rowgroup.
    for vd in 16..32u8 {
        prog.push(Inst::MoviZero { vd });
    }
    for q in 0..quads {
        let abase = addr_a + (q * SDOT_NA * KQ) as u32;
        for g in 0..4u8 {
            prog.push(Inst::Ld1 { vt: g, addr: abase + 16 * g as u32 });
        }
        prog.push(Inst::Ld4rW { vt: 4, addr: addr_b + (q * NB * KQ) as u32 });
        for c in 0..NB {
            for g in 0..4 {
                prog.push(Inst::Sdot {
                    vd: 16 + (c * 4 + g) as u8,
                    vn: g as u8,
                    vm: 4 + c as u8,
                });
            }
        }
    }
    for idx in 0..16 {
        prog.push(Inst::St1 { vt: 16 + idx as u8, addr: addr_c + (idx * 16) as u32 });
    }
    prog
}

/// Full GEMM on the SDOT path: packs A into k-quads and runs the one-shot
/// body of [`crate::gemm()`] (functional path + schedule).
pub fn gemm_sdot(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> GemmOutput {
    // The SDOT tile has no drain machinery: any scheme passes and none applies.
    let scheme = Scheme::for_bits(BitWidth::W8);
    one_shot(TileKind::Sdot, &scheme, SharedWeights::Quads(&PackedAQuads::from_a(a, m, k)), b, n)
}

/// Largest bit width the SDOT path accepts (full 8-bit — the whole point).
pub fn sdot_supported(bits: BitWidth) -> bool {
    bits.bits() <= 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{reference_gemm, schedule_gemm};
    use crate::scheme::Scheme;
    use neon_sim::CortexA53;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(len: usize, bits: BitWidth, seed: u64) -> Vec<i8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(bits.qmin() as i32..=bits.qmax() as i32) as i8)
            .collect()
    }

    #[test]
    fn sdot_gemm_matches_reference_for_all_bit_widths() {
        for bits in BitWidth::ALL {
            let (m, k, n) = (21, 29, 9); // all three dims ragged
            let a = random_mat(m * k, bits, 100 + bits.bits() as u64);
            let b = random_mat(k * n, bits, 200 + bits.bits() as u64);
            let out = gemm_sdot(&a, &b, m, k, n);
            assert_eq!(out.c, reference_gemm(&a, &b, m, k, n), "{bits}");
        }
    }

    #[test]
    fn sdot_models_far_faster_than_the_v81_schemes_at_8_bit() {
        // The extension's headline: on a v8.2 core the drain machinery is
        // obsolete — SDOT models several times faster at 8-bit.
        let model = CortexA53::cost_model();
        let (m, k, n) = (128, 512, 128);
        let s8 = Scheme::for_bits(BitWidth::W8);
        let sdot = TileKind::Sdot.schedule(&s8, m, k, n).stage_cycles("gemm", &model);
        let smlal = schedule_gemm(&s8, m, k, n).stage_cycles("gemm", &model);
        assert!(
            sdot * 2.5 < smlal,
            "SDOT ({sdot:.0}) should be >2.5x faster than the SMLAL scheme ({smlal:.0})"
        );
        // And it even beats the 2-bit MLA scheme's throughput per MAC.
        let mla = schedule_gemm(&Scheme::for_bits(BitWidth::W2), m, k, n)
            .stage_cycles("gemm", &model);
        assert!(sdot < mla, "SDOT ({sdot:.0}) vs MLA ({mla:.0})");
    }

    #[test]
    fn supported_for_the_full_range() {
        for bits in BitWidth::ALL {
            assert!(sdot_supported(bits));
        }
    }
}
