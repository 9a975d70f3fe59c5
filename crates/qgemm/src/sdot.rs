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
//! On the host the tile is the third tile kind of [`crate::parallel`]
//! ([`crate::SharedWeights::Quads`]): A stays quad-packed, B comes from the
//! driver's step-major panels, and [`gemm_sdot`], the engine and
//! [`run_tile_sdot`] all run the one kernel. [`pack_b_quads`] is the B image
//! the emitted `LD4R.4s` stream reads.

#![allow(clippy::field_reassign_with_default)] // InstCounts builders read clearer this way

use crate::gemm::GemmOutput;
use crate::micro::TILE_LEN;
use crate::pack::{PackedB, NB};
use crate::parallel::{gemm_row_major_on, SharedWeights};
use crate::scheme::Scheme;
use lowbit_isa::Isa;
use lowbit_tensor::BitWidth;
use neon_sim::inst::Inst;
use neon_sim::{InstCounts, KernelSchedule, StageCost};

/// Rows per SDOT A tile.
pub const SDOT_NA: usize = 16;
/// K elements consumed per SDOT step.
pub const KQ: usize = 4;
/// SDOT tiles per register block of the parallel driver.
pub const SDOT_BLOCK: usize = 4;

/// Packed A for the SDOT kernel: 16-row tiles of k-quads.
///
/// Within a tile, quad `q` stores rows `0..16` as 16 consecutive 4-byte
/// groups `a[row][4q..4q+4]` — i.e. each 128-bit register holds four rows'
/// quads, lane-aligned for `SDOT`.
#[derive(Clone, PartialEq, Debug)]
pub struct PackedAQuads {
    /// Logical rows.
    pub m: usize,
    /// Rows padded to a multiple of 16.
    pub m_pad: usize,
    /// Logical K.
    pub k: usize,
    /// K padded to a multiple of 4.
    pub k_pad: usize,
    /// Tile-major storage.
    pub data: Vec<i8>,
}

impl PackedAQuads {
    /// Number of 16-row tiles.
    pub fn tiles(&self) -> usize {
        self.m_pad / SDOT_NA
    }

    /// Tile `i`'s quads covering K steps `[k0, k0 + klen)`: the block's
    /// first step sits at lane `k0 % KQ` of the first quad.
    pub fn block(&self, i: usize, k0: usize, klen: usize) -> &[i8] {
        let quad = |q: usize| (i * self.k_pad / KQ + q) * SDOT_NA * KQ;
        &self.data[quad(k0 / KQ)..quad((k0 + klen).div_ceil(KQ))]
    }
}

/// Packed B for the SDOT kernel: 4-column tiles of k-quads; quad `q` stores
/// the 4 columns' 4-byte groups contiguously (16 bytes, fed to `LD4R.4s`).
#[derive(Clone, PartialEq, Debug)]
pub struct PackedBQuads {
    /// Logical K.
    pub k: usize,
    /// K padded to a multiple of 4.
    pub k_pad: usize,
    /// Logical columns.
    pub n: usize,
    /// Columns padded to a multiple of 4.
    pub n_pad: usize,
    /// Tile-major storage.
    pub data: Vec<i8>,
}

/// Packs a row-major `M x K` matrix into SDOT quad layout.
pub fn pack_a_quads(a: &[i8], m: usize, k: usize) -> PackedAQuads {
    assert_eq!(a.len(), m * k);
    let m_pad = m.div_ceil(SDOT_NA) * SDOT_NA;
    let k_pad = k.div_ceil(KQ) * KQ;
    let quads = k_pad / KQ;
    let mut data = vec![0i8; m_pad * k_pad];
    for tile in 0..m_pad / SDOT_NA {
        for q in 0..quads {
            let base = (tile * quads + q) * SDOT_NA * KQ;
            for r in 0..SDOT_NA {
                let row = tile * SDOT_NA + r;
                for j in 0..KQ {
                    let kk = q * KQ + j;
                    if row < m && kk < k {
                        data[base + r * KQ + j] = a[row * k + kk];
                    }
                }
            }
        }
    }
    PackedAQuads { m, m_pad, k, k_pad, data }
}

/// Packs a row-major `K x N` matrix into SDOT quad layout: the operand
/// image the emitted `LD4R.4s` stream reads ([`emit_tile_sdot`]).
pub fn pack_b_quads(b: &[i8], k: usize, n: usize) -> PackedBQuads {
    assert_eq!(b.len(), k * n);
    let k_pad = k.div_ceil(KQ) * KQ;
    let n_pad = n.div_ceil(NB) * NB;
    let quads = k_pad / KQ;
    let mut data = vec![0i8; k_pad * n_pad];
    for tile in 0..n_pad / NB {
        for q in 0..quads {
            let base = (tile * quads + q) * NB * KQ;
            for c in 0..NB {
                let col = tile * NB + c;
                for j in 0..KQ {
                    let kk = q * KQ + j;
                    if col < n && kk < k {
                        data[base + c * KQ + j] = b[kk * n + col];
                    }
                }
            }
        }
    }
    PackedBQuads { k, k_pad, n, n_pad, data }
}

/// Runs one 16x4 SDOT tile functionally on a [`PackedB`] tile, through the
/// driver's kernel. Output: `out[col * 16 + row]`.
pub fn run_tile_sdot(pa: &PackedAQuads, pb: &PackedB, ti: usize, tj: usize) -> Vec<i32> {
    assert_eq!(pa.k, pb.k, "packed operands disagree on K");
    let mut acc = [0i32; TILE_LEN];
    let a = [pa.block(ti, 0, pa.k)];
    accumulate_sdot_on(Isa::host(), a, 0, pb.tile(tj), std::array::from_mut(&mut acc));
    acc.to_vec()
}

/// A register block of `T` 16x4 SDOT tiles against one K block of the
/// driver's step-major B panel (`b[step * NB + col]`), compiled for `isa`.
/// `a[t]` is tile `t`'s quads covering the block ([`PackedAQuads::block`]),
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

/// Full GEMM on the SDOT path: packs A into k-quads and runs the one tiled
/// driver, [`crate::parallel`], at one thread into a row-major result.
pub fn gemm_sdot(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> GemmOutput {
    let pa = pack_a_quads(a, m, k);
    // The SDOT tile has no drain machinery: any scheme passes and none applies.
    let scheme = Scheme::for_bits(BitWidth::W8);
    let c = gemm_row_major_on(Isa::host(), &scheme, SharedWeights::Quads(&pa), b, n);
    GemmOutput { m, n, c, schedule: schedule_gemm_sdot(m, k, n) }
}

/// Analytic schedule of the SDOT GEMM.
pub fn schedule_gemm_sdot(m: usize, k: usize, n: usize) -> KernelSchedule {
    let m_pad = m.div_ceil(SDOT_NA) * SDOT_NA;
    let n_pad = n.div_ceil(NB) * NB;
    let k_pad = k.div_ceil(KQ) * KQ;
    let tiles = (m_pad / SDOT_NA) as u64 * (n_pad / NB) as u64;
    let mut sched = KernelSchedule::new();
    sched.push(StageCost::bulk_move("pack A", (m * k) as u64, (m_pad * k_pad) as u64));
    sched.push(StageCost::bulk_move("pack B", (k * n) as u64, (k_pad * n_pad) as u64));
    let mut counts = InstCounts::default();
    counts.add_scaled(&tile_counts_sdot(k), tiles);
    sched.push(StageCost::compute("gemm", counts));
    sched
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
    use neon_sim::{CortexA53, Machine};
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
    fn emitted_sdot_kernel_matches_functional_and_counts() {
        let bits = BitWidth::W8;
        let (m, k, n) = (16, 22, 4); // k not a multiple of 4: quad padding
        let a = random_mat(m * k, bits, 301);
        let b = random_mat(k * n, bits, 302);
        let pa = pack_a_quads(&a, m, k);
        let pb = pack_b_quads(&b, k, n);
        let functional = run_tile_sdot(&pa, &crate::pack::pack_b(&b, k, n), 0, 0);

        let addr_a = 0u32;
        let addr_b = (pa.k_pad * SDOT_NA) as u32;
        let addr_c = (pa.k_pad * SDOT_NA + pb.k_pad * NB).next_multiple_of(16) as u32;
        let mut machine = Machine::new(addr_c as usize + 300, CortexA53::cost_model());
        machine.write_mem_i8(addr_a as usize, &pa.data[..pa.k_pad * SDOT_NA]);
        machine.write_mem_i8(addr_b as usize, &pb.data[..pb.k_pad * NB]);
        machine.run(&emit_tile_sdot(k, addr_a, addr_b, addr_c));
        assert_eq!(machine.read_mem_i32(addr_c as usize, 64), functional);
        assert_eq!(machine.stats().counts, tile_counts_sdot(k));
    }

    #[test]
    fn sdot_models_far_faster_than_the_v81_schemes_at_8_bit() {
        // The extension's headline: on a v8.2 core the drain machinery is
        // obsolete — SDOT models several times faster at 8-bit.
        let model = CortexA53::cost_model();
        let (m, k, n) = (128, 512, 128);
        let sdot = schedule_gemm_sdot(m, k, n).stage_cycles("gemm", &model);
        let smlal = schedule_gemm(&Scheme::for_bits(BitWidth::W8), m, k, n)
            .stage_cycles("gemm", &model);
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
    fn quad_packing_round_trips() {
        let (m, k) = (17, 10);
        let a = random_mat(m * k, BitWidth::W8, 400);
        let pa = pack_a_quads(&a, m, k);
        for row in 0..m {
            for kk in 0..k {
                let tile = row / SDOT_NA;
                let r = row % SDOT_NA;
                let got = pa.block(tile, kk, 1)[r * KQ + kk % KQ];
                assert_eq!(got, a[row * k + kk], "({row},{kk})");
            }
        }
        // Padding (both row and k) is zero.
        assert_eq!(pa.block(1, 8, 1)[(m % SDOT_NA) * KQ], 0);
        assert_eq!(pa.block(0, 8, 1)[2], 0); // row 0: k=10,11 of quad 2 are padded
    }

    #[test]
    fn supported_for_the_full_range() {
        for bits in BitWidth::ALL {
            assert!(sdot_supported(bits));
        }
    }
}
