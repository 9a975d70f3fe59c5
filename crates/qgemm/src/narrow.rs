//! The narrow 8x4 `SMLAL` micro-kernel — an extension of the paper's
//! "register allocation tailored for the instruction scheme" idea.
//!
//! The 16x4 tile of Alg. 1 needs 16 result registers and must spill two of
//! them to general registers around *every* drain. At loose drain ratios
//! (4–6 bit) that cost is negligible; at tight ratios (8-bit: one drain per
//! two k-steps) the spill `MOV`s dominate the drain. An 8x4 tile halves the
//! accumulator footprint: all eight i32 result registers fit (`v20..v27`),
//! the four i16 partial registers fit (`v10..v13`), and drains become eight
//! plain `SADDW`s with **zero** moves — at the price of re-loading the B
//! operand twice as often per MAC.
//!
//! The crossover is verified by tests: the narrow tile models faster at
//! ratio ≤ ~8 (7/8-bit and the ratio-3..8 Winograd domains) and slower at
//! the loose 4–6-bit ratios.
//!
//! Its A image is [`PackedANarrow`], the 8-lane instance of
//! [`crate::pack::Panels`], against the wide tile's [`crate::pack::PackedB`];
//! on the host it is the driver's [`SharedWeights::Narrow`] tile kind, and
//! [`crate::parallel::run_tile`] runs one of its tiles.

#![allow(clippy::field_reassign_with_default)] // InstCounts builders read clearer this way

use crate::gemm::{one_shot, GemmOutput};
use crate::kind::TileKind;
use crate::micro::accumulate_smlal;
use crate::pack::{PackedANarrow, NB};
use crate::parallel::SharedWeights;
use crate::scheme::{Scheme, SchemeKind};
use lowbit_isa::Isa;
use neon_sim::inst::{Half, Inst};
use neon_sim::InstCounts;

/// Rows per narrow A tile.
pub const NA8: usize = 8;
/// Elements in the narrow 8x4 result tile.
pub const NARROW_TILE_LEN: usize = NA8 * NB;
/// Narrow tiles per register block (see `accumulate_tiles_narrow_on`):
/// the block size that measured fastest on the AVX-512 host.
pub const NARROW_BLOCK: usize = 4;

/// Packs a row-major `M x K` matrix into 8-row tiles.
pub fn pack_a_narrow(a: &[i8], m: usize, k: usize) -> PackedANarrow {
    PackedANarrow::from_a(a, m, k)
}

/// A register block of `T` narrow tiles against one B block, compiled for
/// `isa` (one block per dispatch; see
/// [`crate::micro::accumulate_tiles_on`]): `a[t]` is tile `t`'s
/// [`PackedANarrow::block`], `b` the matching `klen * NB` bytes. The
/// `SMLAL` scheme drains i16 partials into i32 every `ratio` steps; the
/// ncnn scheme adds every product into i32, as the same kernel draining
/// after each step. Panics on the MLA scheme.
pub(crate) fn accumulate_tiles_narrow_on<const T: usize>(
    isa: Isa,
    scheme: &Scheme,
    a: [&[i8]; T],
    b: &[i8],
    acc32: &mut [[i32; NARROW_TILE_LEN]; T],
) {
    let acc32 = acc32.as_flattened_mut();
    match scheme.kind() {
        SchemeKind::Smlal8 => isa.run(
            #[inline(always)]
            || accumulate_smlal::<NA8, T>(scheme.ratio(), a, b, acc32),
        ),
        // A one-step i16 partial of an i8 product is exact (|a·b| <= 2^14).
        SchemeKind::Ncnn16 => isa.run(
            #[inline(always)]
            || accumulate_smlal::<NA8, T>(1, a, b, acc32),
        ),
        SchemeKind::Mla => panic!("narrow tile runs the SMLAL or the ncnn scheme, not MLA"),
    }
}

/// Analytic instruction counts for one narrow tile (must match
/// [`emit_tile_narrow`]; enforced by tests).
pub fn tile_counts_narrow(scheme: &Scheme, k: usize) -> InstCounts {
    assert!(k > 0);
    assert_eq!(scheme.kind(), SchemeKind::Smlal8);
    let nf = k.div_ceil(scheme.ratio()) as u64;
    let mut c = InstCounts::default();
    c.loads = 2 * k as u64; // LD1.8b (A) + LD4R (B)
    c.load_bytes = 12 * k as u64; // 8 + 4 bytes
    c.neon_mac = 4 * k as u64; // one SMLAL/SMULL per column
    c.neon_alu = 8 * nf; // SADDW(2) x 2 per column per drain
    c.neon_mov = 8; // accumulator zeroing prologue only — no spills
    c.stores = 8;
    c.store_bytes = 8 * 16;
    c
}

/// Emits the narrow tile: packed A tile at `addr_a` (`k * 8` bytes), B tile
/// at `addr_b` (`k * 4` bytes), 128-byte result at `addr_c`.
pub fn emit_tile_narrow(
    scheme: &Scheme,
    k: usize,
    addr_a: u32,
    addr_b: u32,
    addr_c: u32,
) -> Vec<Inst> {
    assert!(k > 0);
    assert_eq!(scheme.kind(), SchemeKind::Smlal8);
    let ratio = scheme.ratio();
    let mut prog = Vec::new();
    // acc16: v10..v13 (col c -> v10+c); acc32: v20..v27 (col c -> v20+2c
    // low rows, v21+2c high rows). No spills by construction.
    let drain = |prog: &mut Vec<Inst>| {
        for c in 0..NB {
            let acc16 = 10 + c as u8;
            prog.push(Inst::Saddw16 {
                vd: 20 + 2 * c as u8,
                vn: 20 + 2 * c as u8,
                vm: acc16,
                half: Half::Low,
            });
            prog.push(Inst::Saddw16 {
                vd: 21 + 2 * c as u8,
                vn: 21 + 2 * c as u8,
                vm: acc16,
                half: Half::High,
            });
        }
    };
    for vd in 20..28u8 {
        prog.push(Inst::MoviZero { vd });
    }
    let mut since = 0usize;
    let mut fresh = true;
    for kk in 0..k {
        prog.push(Inst::Ld1B8 { vt: 0, addr: addr_a + (kk * NA8) as u32 });
        prog.push(Inst::Ld4r { vt: 2, addr: addr_b + (kk * NB) as u32 });
        for c in 0..NB {
            let (vd, vm) = (10 + c as u8, 2 + c as u8);
            if fresh {
                prog.push(Inst::Smull8 { vd, vn: 0, vm, half: Half::Low });
            } else {
                prog.push(Inst::Smlal8 { vd, vn: 0, vm, half: Half::Low });
            }
        }
        fresh = false;
        since += 1;
        if since == ratio {
            drain(&mut prog);
            since = 0;
            fresh = true;
        }
    }
    if since > 0 {
        drain(&mut prog);
    }
    for idx in 0..8 {
        prog.push(Inst::St1 { vt: 20 + idx as u8, addr: addr_c + (idx * 16) as u32 });
    }
    prog
}

/// Full GEMM with the narrow tile: packs A into 8-row tiles and runs the
/// one-shot body of [`crate::gemm()`] (functional path + schedule).
pub fn gemm_narrow(
    scheme: &Scheme,
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
) -> GemmOutput {
    one_shot(TileKind::Narrow, scheme, SharedWeights::Narrow(&pack_a_narrow(a, m, k)), b, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{reference_gemm, schedule_gemm};
    use crate::pack::PackedB;
    use crate::parallel::{gemm_row_major_on, run_tile};
    use lowbit_tensor::BitWidth;
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
    fn narrow_gemm_matches_reference_for_smlal_widths() {
        for bits in [BitWidth::W4, BitWidth::W5, BitWidth::W6, BitWidth::W7, BitWidth::W8] {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (19, 37, 11);
            let a = random_mat(m * k, bits, 60 + bits.bits() as u64);
            let b = random_mat(k * n, bits, 70 + bits.bits() as u64);
            let want = reference_gemm(&a, &b, m, k, n);
            let pa = pack_a_narrow(&a, m, k);
            for isa in Isa::supported() {
                let got = gemm_row_major_on(isa, &scheme, SharedWeights::Narrow(&pa), &b, n);
                assert_eq!(got, want, "{bits} {isa}");
            }
            assert_eq!(gemm_narrow(&scheme, &a, &b, m, k, n).c, want, "{bits} host dispatch");
        }
    }

    #[test]
    fn narrow_tile_has_no_spill_moves() {
        let scheme = Scheme::for_bits(BitWidth::W8);
        let counts = tile_counts_narrow(&scheme, 128);
        assert_eq!(
            counts.neon_mov, 8,
            "only the zeroing prologue — no per-drain spill MOVs"
        );
        let wide = crate::micro::tile_counts(&scheme, 128);
        assert!(wide.neon_mov > 0);
    }

    #[test]
    fn crossover_narrow_wins_at_tight_ratios_wide_at_loose() {
        // The register-allocation trade-off: per-MAC modeled cycles of the
        // inner loop only (packing identical in structure).
        let model = CortexA53::cost_model();
        let (m, k, n) = (128, 512, 128);
        let inner = |sched: &neon_sim::KernelSchedule| sched.stage_cycles("gemm", &model);
        // 8-bit (ratio 2): narrow wins.
        let s8 = Scheme::for_bits(BitWidth::W8);
        let narrow8 = inner(&TileKind::Narrow.schedule(&s8, m, k, n));
        let wide8 = inner(&schedule_gemm(&s8, m, k, n));
        assert!(
            narrow8 < wide8,
            "narrow ({narrow8:.0}) should beat wide ({wide8:.0}) at ratio 2"
        );
        // 4-bit (ratio 511): wide wins.
        let s4 = Scheme::for_bits(BitWidth::W4);
        let narrow4 = inner(&TileKind::Narrow.schedule(&s4, m, k, n));
        let wide4 = inner(&schedule_gemm(&s4, m, k, n));
        assert!(
            wide4 < narrow4,
            "wide ({wide4:.0}) should beat narrow ({narrow4:.0}) at ratio 511"
        );
    }

    #[test]
    #[should_panic(expected = "narrow tile runs the SMLAL or the ncnn scheme, not MLA")]
    fn narrow_tile_rejects_mla_scheme() {
        let scheme = Scheme::for_bits(BitWidth::W2);
        let pa = pack_a_narrow(&[0i8; 8], 8, 1);
        let pb = PackedB::from_b(&[0i8; 4], 1, 4);
        let _ = run_tile(&scheme, SharedWeights::Narrow(&pa), &pb, 0, 0);
    }

    #[test]
    #[should_panic(expected = "the ncnn baseline runs on the narrow tile")]
    fn wide_tile_rejects_ncnn_scheme() {
        let pa = crate::pack::pack_a(&[0i8; 16], 16, 1);
        let weights = SharedWeights::Wide(&pa);
        let _ = gemm_row_major_on(Isa::host(), &Scheme::ncnn16(), weights, &[0; 4], 4);
    }

    #[test]
    fn padding_rows_stay_zero_in_output_region() {
        let bits = BitWidth::W6;
        let scheme = Scheme::for_bits(bits);
        let (m, k, n) = (5, 10, 3); // m, n both ragged
        let a = random_mat(m * k, bits, 91);
        let b = random_mat(k * n, bits, 92);
        let pa = pack_a_narrow(&a, m, k);
        for isa in Isa::supported() {
            let c = gemm_row_major_on(isa, &scheme, SharedWeights::Narrow(&pa), &b, n);
            assert_eq!(c.len(), m * n);
            assert_eq!(c, reference_gemm(&a, &b, m, k, n), "{isa}");
        }
    }
}
