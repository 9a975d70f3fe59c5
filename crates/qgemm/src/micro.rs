//! The register-tiled micro-kernels (paper Alg. 1 and the 2–3-bit variant).
//!
//! Each micro-kernel exists in **three consistent forms**:
//!
//! 1. `accumulate_tiles_on` — a fast functional implementation with
//!    the exact lane semantics of the NEON instructions (wrapping i8/i16
//!    accumulation), used at full layer scale. It runs each drain interval
//!    as one branch-free loop over contiguous packed operand blocks, on a
//!    *register block* of [`SMLAL_BLOCK`] or [`MLA_BLOCK`] consecutive A
//!    tiles against one B tile, so each B broadcast feeds every row of the
//!    block; the A53 tile of the paper half-fills the host's vector
//!    registers. Each block is one dispatch onto the host's widest vector
//!    ISA ([`Isa::host`]). The GEMM driver is its one caller, and
//!    [`crate::parallel::run_tile`] runs the driver's one-tile block. The
//!    ncnn baseline's functional form is the narrow tile under
//!    [`Scheme::ncnn16`], which runs the SMLAL block kernel draining after
//!    every K step;
//! 2. [`tile_counts`] (and [`tile_counts_ncnn`]) — analytic instruction
//!    counts for the same shape, fed to the cost model;
//! 3. [`emit_tile`] (and [`emit_tile_ncnn`]) — the actual instruction stream
//!    for the `neon-sim` interpreter, used by tests to prove (1) and (2)
//!    faithful: the interpreted output must equal the functional output,
//!    and the interpreter's instruction counters must equal the analytic
//!    counts.
//!
//! Register allocation follows the paper:
//!
//! * **SMLAL scheme** (4–8 bit, 16x4 tile): `v0/v1` read A, `v2..v9` read B,
//!   `v10..v17` hold i16 partials, `v18..v31` plus `x0..x3` hold the i32
//!   result (two result registers spill to general registers — the `MOV`
//!   dance of Alg. 1 lines 9–13).
//! * **MLA scheme** (2–3 bit, 16x4 tile): `v0..v3` read A, `v4..v7` read B,
//!   `v8..v11` hold i8 partials, `v12..v19` i16 partials, `v20..v31` plus
//!   `x0..x7` the i32 result.
//! * **ncnn-like baseline** (8x4 tile): on the A53, pre-widened i16
//!   operands, and `SMLAL vd.4s` accumulates directly into i32 in
//!   `v10..v17` — no drains, no spills. The host kernel reads the narrow
//!   tile's i8 panels and widens in registers, with the same arithmetic
//!   per lane.

#![allow(clippy::field_reassign_with_default)] // InstCounts builders read clearer this way

use crate::pack::{NA, NB};
use crate::scheme::{Scheme, SchemeKind};
use lowbit_isa::Isa;
use neon_sim::inst::{Half, Inst};
use neon_sim::InstCounts;

/// Elements in the 16x4 i32 result tile.
pub const TILE_LEN: usize = NA * NB;

/// Wide SMLAL tiles per register block (see `accumulate_tiles_on`):
/// the block size that measured fastest on the AVX-512 host.
pub const SMLAL_BLOCK: usize = 4;
/// Wide MLA tiles per register block, chosen the same way.
pub const MLA_BLOCK: usize = 4;

/// A register block of `T` 16x4 tiles against one K block, compiled for
/// `isa`, adding into `acc32`. `a[t]` is tile `t`'s
/// [`crate::pack::PackedA::block`] (`klen * NA` bytes: `klen` contiguous
/// 16-row columns), `b` the matching B block (`klen * NB` bytes, as
/// [`crate::pack::PackedB::block`] and the driver's panels lay it out) and
/// `acc32[t]` the tile's result, column-major quarters in the emitter's
/// store order (`acc32[t][col * 16 + row]`).
///
/// Drain cadence is relative to the start of this call, so splitting K into
/// blocks and accumulating block partials is bit-exact versus one full-K run:
/// within the published ratios every i8/i16 partial is exact, hence every
/// i32 block partial is the exact sub-sum and i32 addition is associative.
/// Each K step widens every A tile once and broadcasts each B value once
/// for all `T x 16` rows, and every tile keeps the per-call drain cadence,
/// so each output lane sees the same wrapping i8/i16 sequence at every `T`.
///
/// The dispatch wraps exactly one block: the drivers' tile loops stay out of
/// line, where inlining the kernel into them measured several times slower.
pub(crate) fn accumulate_tiles_on<const T: usize>(
    isa: Isa,
    scheme: &Scheme,
    a: [&[i8]; T],
    b: &[i8],
    acc32: &mut [[i32; TILE_LEN]; T],
) {
    let acc32 = acc32.as_flattened_mut();
    match scheme.kind() {
        SchemeKind::Smlal8 => isa.run(
            #[inline(always)]
            || accumulate_smlal::<NA, T>(scheme.ratio(), a, b, acc32),
        ),
        SchemeKind::Mla => isa.run(#[inline(always)] || accumulate_mla::<T>(scheme, a, b, acc32)),
        SchemeKind::Ncnn16 => panic!("the ncnn baseline runs on the narrow tile"),
    }
}

/// The SMLAL scheme for a block of `T` `R`x4 tiles (`R` = 16 wide, 8
/// narrow): each drain interval of `ratio` K steps accumulates wrapping i16
/// partials, which `SADDW` then adds into the i32 result, tile `t` at
/// `acc32[t * R * NB..]`. Always inlined, so it is compiled for the ISA of
/// the [`Isa::run`] trampoline that calls it.
///
/// The drains index the partials with constant-bound loops, which the
/// compiler unrolls, so the partials never leave the registers. Iterating
/// over the flattened partials instead stored them to the stack at every
/// drain, and the wide kernel at ratio 2 (W8) measured about 2x slower.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
pub(crate) fn accumulate_smlal<const R: usize, const T: usize>(
    ratio: usize,
    a: [&[i8]; T],
    b: &[i8],
    acc32: &mut [i32],
) {
    assert_eq!(acc32.len(), T * R * NB, "result block length");
    let (a, b) = k_steps::<R, T>(a, b);
    for (s0, bi) in (0..).step_by(ratio).zip(b.chunks(ratio)) {
        let part = mac_interval(a.map(|at| &at[s0..s0 + bi.len()]), bi);
        for t in 0..T {
            for c in 0..NB {
                for r in 0..R {
                    let i = (t * NB + c) * R + r;
                    acc32[i] = acc32[i].wrapping_add(part[t][c][r] as i32);
                }
            }
        }
    }
}

/// The MLA scheme: each first-level interval of `ratio` K steps is
/// computed in i16 and truncated to i8 at its drain, every `ratio2` such
/// drains the i16 level is added into i32.
///
/// Computing the interval in i16 instead of i8 lanes is bit-exact for *any*
/// ratio: an i8 `MLA` lane holds its true sum mod 2^8, the i16 interval
/// holds it mod 2^16, and since 2^8 divides 2^16 `as i8` recovers exactly
/// the wrapped i8 lane (sign-extended by `as i16`, like `SADDW`). The
/// drains index the partials like [`accumulate_smlal`]'s.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn accumulate_mla<const T: usize>(scheme: &Scheme, a: [&[i8]; T], b: &[i8], acc32: &mut [i32]) {
    assert_eq!(acc32.len(), T * TILE_LEN, "result block length");
    let (a, b) = k_steps::<NA, T>(a, b);
    let (r1, r2) = (scheme.ratio(), scheme.ratio2());
    let r12 = r1.saturating_mul(r2);
    for (o0, bo) in (0..).step_by(r12).zip(b.chunks(r12)) {
        let mut acc16 = [[[0i16; NA]; NB]; T];
        for (s0, bi) in (o0..).step_by(r1).zip(bo.chunks(r1)) {
            let part = mac_interval(a.map(|at| &at[s0..s0 + bi.len()]), bi);
            for t in 0..T {
                for c in 0..NB {
                    for r in 0..NA {
                        acc16[t][c][r] = acc16[t][c][r].wrapping_add(part[t][c][r] as i8 as i16);
                    }
                }
            }
        }
        for t in 0..T {
            for c in 0..NB {
                for r in 0..NA {
                    let i = (t * NB + c) * NA + r;
                    acc32[i] = acc32[i].wrapping_add(acc16[t][c][r] as i32);
                }
            }
        }
    }
}

/// One drain interval of a block of `T` tiles: the wrapping i16 sums of
/// `a[t] x b` over its K steps, per tile and column `[t][c][row]`.
/// Returning the partials (rather than threading an accumulator through)
/// keeps them register-resident for the whole loop. Each K step widens
/// every A tile once and multiplies it by the same 4 B broadcasts, which
/// the host compiler hoists out of the tile loop. Rows go in groups of
/// eight i16 lanes, one `SMLAL` destination register each, which keeps the
/// host's vectorizer at full register width.
///
/// The length check up front is load-bearing: it lets the compiler drop
/// the per-step bounds checks on `a[t]`. Without it each step keeps a
/// panic edge and the partials may stay in memory: on the AVX-512 host the
/// wide `T = 2` block fell to about 3 GMAC/s, and `T = 4` lost about 20%.
#[inline(always)]
fn mac_interval<const R: usize, const T: usize>(
    a: [&[[i8; R]]; T],
    b: &[[i8; NB]],
) -> [[[i16; R]; NB]; T] {
    let mut acc = [[[0i16; R]; NB]; T];
    for at in a {
        assert!(at.len() == b.len(), "A tile and B disagree on the interval length");
    }
    for (s, bk) in b.iter().enumerate() {
        for t in 0..T {
            for h in (0..R).step_by(8) {
                let av: [i16; 8] = std::array::from_fn(|i| a[t][s][h + i] as i16);
                for c in 0..NB {
                    let bv = bk[c] as i16;
                    for i in 0..8 {
                        // SMLAL: widening multiply (always fits i16), wrapping add.
                        acc[t][c][h + i] = acc[t][c][h + i].wrapping_add(av[i] * bv);
                    }
                }
            }
        }
    }
    acc
}

/// Views one K block's packed operands as per-step rows: `R` A bytes per
/// step for each of the `T` tiles and [`NB`] B bytes per step. Panics unless
/// every operand covers the same steps.
fn k_steps<'a, const R: usize, const T: usize>(
    a: [&'a [i8]; T],
    b: &'a [i8],
) -> ([&'a [[i8; R]]; T], &'a [[i8; NB]]) {
    let (b, b_rest) = b.as_chunks::<NB>();
    let a = a.map(|at| {
        let (at, a_rest) = at.as_chunks::<R>();
        assert!(
            a_rest.is_empty() && b_rest.is_empty() && at.len() == b.len(),
            "operand blocks disagree on K: {} A steps vs {} B steps",
            at.len(),
            b.len()
        );
        at
    });
    (a, b)
}

/// Number of first-level drains a K-loop of length `k` performs.
fn drain_count(k: usize, ratio: usize) -> usize {
    if ratio == usize::MAX {
        0
    } else {
        k.div_ceil(ratio)
    }
}

/// Number of second-level drains for the MLA scheme.
fn drain2_count(k: usize, r1: usize, r2: usize) -> usize {
    drain_count(k, r1).div_ceil(r2).max(1)
}

/// Analytic instruction counts for one 16x4 micro-tile with a K-loop of
/// length `k` (must match [`emit_tile`] exactly; enforced by tests).
pub fn tile_counts(scheme: &Scheme, k: usize) -> InstCounts {
    assert!(k > 0);
    let mut c = InstCounts::default();
    match scheme.kind() {
        SchemeKind::Smlal8 => {
            let nf = drain_count(k, scheme.ratio()) as u64;
            c.loads = 2 * k as u64; // LD1 (A) + LD4R (B) per step
            c.load_bytes = 20 * k as u64; // 16 + 4 bytes
            c.neon_mac = 8 * k as u64; // SMLAL/SMULL(2) x 4 columns
            c.neon_alu = 16 * nf; // SADDW(2): one per i32 result register
            c.neon_mov = 8 * nf + 4 + 19; // drains + store restores + zeroing prologue
            c.stores = 16; // ST1 x 16 result registers
            c.store_bytes = 16 * 16;
        }
        SchemeKind::Mla => {
            let nf1 = drain_count(k, scheme.ratio()) as u64;
            let nf2 = drain2_count(k, scheme.ratio(), scheme.ratio2()) as u64;
            c.loads = 2 * k as u64;
            c.load_bytes = 20 * k as u64;
            c.neon_mac = 4 * k as u64; // MLA/MUL x 4 columns (16 lanes each)
            c.neon_alu = 8 * nf1 + 16 * nf2; // SADDW8/SSHLL per drain1, SADDW16 per drain2
            c.neon_mov = 16 * nf2 + 8 + 21; // drain2 spills + restores + zeroing prologue
            c.stores = 16;
            c.store_bytes = 16 * 16;
        }
        SchemeKind::Ncnn16 => panic!("Ncnn16 uses tile_counts_ncnn"),
    }
    c
}

/// Analytic instruction counts for one ncnn-like 8x4 tile on pre-widened
/// i16 operands (must match [`emit_tile_ncnn`]; enforced by tests).
pub fn tile_counts_ncnn(k: usize) -> InstCounts {
    assert!(k > 0);
    let mut c = InstCounts::default();
    c.loads = 2 * k as u64; // LD1 (8 x i16) + LD4R.8h
    c.load_bytes = 24 * k as u64; // 16 + 8 bytes
    c.neon_mac = 8 * k as u64; // SMLAL(2).4s x 4 columns
    c.neon_mov = 8; // accumulator zeroing prologue
    c.stores = 8;
    c.store_bytes = 8 * 16;
    c
}

/// Emits the instruction stream for one 16x4 micro-tile.
///
/// The packed A tile must be at `addr_a` (`k * 16` bytes), the packed B tile
/// at `addr_b` (`k * 4` bytes), and the 256-byte i32 result tile is stored to
/// `addr_c` in the same `out[col*16+row]` layout as
/// [`crate::parallel::run_tile`].
pub fn emit_tile(scheme: &Scheme, k: usize, addr_a: u32, addr_b: u32, addr_c: u32) -> Vec<Inst> {
    match scheme.kind() {
        SchemeKind::Smlal8 => emit_tile_smlal(scheme, k, addr_a, addr_b, addr_c),
        SchemeKind::Mla => emit_tile_mla(scheme, k, addr_a, addr_b, addr_c),
        SchemeKind::Ncnn16 => panic!("Ncnn16 uses emit_tile_ncnn"),
    }
}

fn emit_tile_smlal(
    scheme: &Scheme,
    k: usize,
    addr_a: u32,
    addr_b: u32,
    addr_c: u32,
) -> Vec<Inst> {
    assert!(k > 0);
    let ratio = scheme.ratio();
    let mut prog = Vec::new();
    // acc32 register for result index `idx = col*4 + quarter`:
    // idx < 14 lives in v18+idx, idx 14/15 are spilled to x0..x3 and
    // temporarily restored into v0/v1 during drains.
    let acc32_reg = |idx: usize| -> u8 {
        if idx < 14 {
            18 + idx as u8
        } else {
            (idx - 14) as u8 // v0 or v1
        }
    };
    let drain = |prog: &mut Vec<Inst>| {
        // Restore the two spilled result registers into v0/v1.
        for (i, (vd, lane)) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
            prog.push(Inst::MovXToD { vd: *vd, lane: *lane, xn: i as u8 });
        }
        for col in 0..NB {
            let lo = 10 + 2 * col as u8; // i16 rows 0..8
            let hi = 11 + 2 * col as u8; // i16 rows 8..16
            for quarter in 0..4 {
                let vd = acc32_reg(col * 4 + quarter);
                let (vm, half) = match quarter {
                    0 => (lo, Half::Low),
                    1 => (lo, Half::High),
                    2 => (hi, Half::Low),
                    _ => (hi, Half::High),
                };
                prog.push(Inst::Saddw16 { vd, vn: vd, vm, half });
            }
        }
        // Spill back; the i16 partials are *not* cleared — the first product
        // of the next interval uses SMULL, which overwrites them.
        for (i, (vn, lane)) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
            prog.push(Inst::MovDToX { xd: i as u8, vn: *vn, lane: *lane });
        }
    };

    // Prologue: zero the i32 accumulators and the spill registers (the
    // i8/i16 partials need no clearing — the first MAC of each interval
    // overwrites them via SMULL).
    prog.push(Inst::MoviZero { vd: 0 });
    for x in 0..4u8 {
        prog.push(Inst::MovDToX { xd: x, vn: 0, lane: 0 });
    }
    for vd in 18..32u8 {
        prog.push(Inst::MoviZero { vd });
    }

    let mut since_flush = 0usize;
    let mut fresh = true; // partials undefined: first MAC must overwrite
    for kk in 0..k {
        // Alternate the A/B register groups per the paper's prefetch
        // interleave (v0 with v2..v5, v1 with v6..v9).
        let (va, vb0) = if kk % 2 == 0 { (0u8, 2u8) } else { (1u8, 6u8) };
        prog.push(Inst::Ld1 { vt: va, addr: addr_a + (kk * NA) as u32 });
        prog.push(Inst::Ld4r { vt: vb0, addr: addr_b + (kk * NB) as u32 });
        for col in 0..NB {
            let lo = 10 + 2 * col as u8;
            let hi = 11 + 2 * col as u8;
            let vm = vb0 + col as u8;
            if fresh {
                prog.push(Inst::Smull8 { vd: lo, vn: va, vm, half: Half::Low });
                prog.push(Inst::Smull8 { vd: hi, vn: va, vm, half: Half::High });
            } else {
                prog.push(Inst::Smlal8 { vd: lo, vn: va, vm, half: Half::Low });
                prog.push(Inst::Smlal8 { vd: hi, vn: va, vm, half: Half::High });
            }
        }
        fresh = false;
        since_flush += 1;
        if since_flush == ratio {
            drain(&mut prog);
            since_flush = 0;
            fresh = true;
        }
    }
    if since_flush > 0 {
        drain(&mut prog);
    }
    // Store: restore spilled registers, then 16 consecutive ST1.
    for (i, (vd, lane)) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
        prog.push(Inst::MovXToD { vd: *vd, lane: *lane, xn: i as u8 });
    }
    for idx in 0..16 {
        prog.push(Inst::St1 { vt: acc32_reg(idx), addr: addr_c + (idx * 16) as u32 });
    }
    prog
}

fn emit_tile_mla(scheme: &Scheme, k: usize, addr_a: u32, addr_b: u32, addr_c: u32) -> Vec<Inst> {
    assert!(k > 0);
    let (r1, r2) = (scheme.ratio(), scheme.ratio2());
    let mut prog = Vec::new();
    // acc32 index `idx = col*4 + quarter`: idx < 12 in v20+idx, idx 12..16
    // spilled across x0..x7, restored into scratch v0..v3 during drains.
    let acc32_reg = |idx: usize| -> u8 {
        if idx < 12 {
            20 + idx as u8
        } else {
            (idx - 12) as u8 // v0..v3
        }
    };
    let restore_spills = |prog: &mut Vec<Inst>| {
        for s in 0..4u8 {
            prog.push(Inst::MovXToD { vd: s, lane: 0, xn: 2 * s });
            prog.push(Inst::MovXToD { vd: s, lane: 1, xn: 2 * s + 1 });
        }
    };
    // First-level drain: i8 partials into i16. When the i16 partials are
    // fresh (first drain after a level-2 drain) SSHLL overwrites them instead
    // of SADDW accumulating — no explicit clears anywhere.
    let drain1 = |prog: &mut Vec<Inst>, fresh16: bool| {
        for col in 0..NB {
            let acc8 = 8 + col as u8;
            let lo16 = 12 + 2 * col as u8;
            let hi16 = 13 + 2 * col as u8;
            if fresh16 {
                prog.push(Inst::Sshll8 { vd: lo16, vn: acc8, half: Half::Low });
                prog.push(Inst::Sshll8 { vd: hi16, vn: acc8, half: Half::High });
            } else {
                prog.push(Inst::Saddw8 { vd: lo16, vn: lo16, vm: acc8, half: Half::Low });
                prog.push(Inst::Saddw8 { vd: hi16, vn: hi16, vm: acc8, half: Half::High });
            }
        }
    };
    let drain2 = |prog: &mut Vec<Inst>| {
        restore_spills(prog);
        for col in 0..NB {
            let lo16 = 12 + 2 * col as u8;
            let hi16 = 13 + 2 * col as u8;
            for quarter in 0..4 {
                let vd = acc32_reg(col * 4 + quarter);
                let (vm, half) = match quarter {
                    0 => (lo16, Half::Low),
                    1 => (lo16, Half::High),
                    2 => (hi16, Half::Low),
                    _ => (hi16, Half::High),
                };
                prog.push(Inst::Saddw16 { vd, vn: vd, vm, half });
            }
        }
        for s in 0..4u8 {
            prog.push(Inst::MovDToX { xd: 2 * s, vn: s, lane: 0 });
            prog.push(Inst::MovDToX { xd: 2 * s + 1, vn: s, lane: 1 });
        }
    };

    // Prologue: zero the i32 accumulators and the eight spill registers.
    prog.push(Inst::MoviZero { vd: 0 });
    for x in 0..8u8 {
        prog.push(Inst::MovDToX { xd: x, vn: 0, lane: 0 });
    }
    for vd in 20..32u8 {
        prog.push(Inst::MoviZero { vd });
    }

    let mut since8 = 0usize;
    let mut drains8 = 0usize;
    let mut fresh8 = true;
    let mut fresh16 = true;
    for kk in 0..k {
        let va = (kk % 4) as u8; // v0..v3 rotate over the 4-way unroll
        prog.push(Inst::Ld1 { vt: va, addr: addr_a + (kk * NA) as u32 });
        prog.push(Inst::Ld4r { vt: 4, addr: addr_b + (kk * NB) as u32 });
        for col in 0..NB {
            let (vd, vm) = (8 + col as u8, 4 + col as u8);
            if fresh8 {
                prog.push(Inst::Mul8 { vd, vn: va, vm });
            } else {
                prog.push(Inst::Mla8 { vd, vn: va, vm });
            }
        }
        fresh8 = false;
        since8 += 1;
        if since8 == r1 {
            drain1(&mut prog, fresh16);
            fresh16 = false;
            since8 = 0;
            fresh8 = true;
            drains8 += 1;
            if drains8 == r2 {
                drain2(&mut prog);
                drains8 = 0;
                fresh16 = true;
            }
        }
    }
    if since8 > 0 {
        drain1(&mut prog, fresh16);
        drains8 += 1;
    }
    if drains8 > 0 {
        drain2(&mut prog);
    }
    restore_spills(&mut prog);
    for idx in 0..16 {
        prog.push(Inst::St1 { vt: acc32_reg(idx), addr: addr_c + (idx * 16) as u32 });
    }
    prog
}

/// Emits the ncnn-like 8x4 micro-tile on pre-widened i16 operands.
///
/// A must be at `addr_a` (`k * 16` bytes: the narrow A block widened to
/// i16) and B at `addr_b` (`k * 8` bytes: the [`crate::pack::PackedB`] tile
/// widened to i16); the 128-byte result is stored to `addr_c` in the
/// `out[col*8+row]` layout [`crate::parallel::run_tile`] gives the narrow
/// tile.
pub fn emit_tile_ncnn(k: usize, addr_a: u32, addr_b: u32, addr_c: u32) -> Vec<Inst> {
    assert!(k > 0);
    let mut prog = Vec::new();
    for vd in 10..18u8 {
        prog.push(Inst::MoviZero { vd });
    }
    for kk in 0..k {
        prog.push(Inst::Ld1 { vt: 0, addr: addr_a + (kk * 16) as u32 });
        prog.push(Inst::Ld4rH { vt: 2, addr: addr_b + (kk * 8) as u32 });
        for col in 0..NB {
            let lo = 10 + 2 * col as u8; // rows 0..4
            let hi = 11 + 2 * col as u8; // rows 4..8
            let vm = 2 + col as u8;
            prog.push(Inst::Smlal16 { vd: lo, vn: 0, vm, half: Half::Low });
            prog.push(Inst::Smlal16 { vd: hi, vn: 0, vm, half: Half::High });
        }
    }
    for idx in 0..8 {
        prog.push(Inst::St1 { vt: 10 + idx as u8, addr: addr_c + (idx * 16) as u32 });
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::TileKind;
    use crate::narrow::{pack_a_narrow, NA8, NARROW_TILE_LEN};
    use crate::pack::{pack_a, PackedA, PackedB};
    use crate::parallel::{run_tile, SharedWeights};
    use lowbit_tensor::BitWidth;
    use neon_sim::{CortexA53, Machine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_operands(
        m: usize,
        k: usize,
        n: usize,
        bits: BitWidth,
        seed: u64,
    ) -> (Vec<i8>, Vec<i8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo = bits.qmin() as i32;
        let hi = bits.qmax() as i32;
        let a = (0..m * k).map(|_| rng.gen_range(lo..=hi) as i8).collect();
        let b = (0..k * n).map(|_| rng.gen_range(lo..=hi) as i8).collect();
        (a, b)
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_tile(
        a: &[i8],
        b: &[i8],
        m: usize,
        k: usize,
        n: usize,
        ti: usize,
        tj: usize,
        rows: usize,
    ) -> Vec<i32> {
        // Plain i32 dot products over the logical (padded-with-zero) matrices.
        let mut out = vec![0i32; rows * NB];
        for c in 0..NB {
            for r in 0..rows {
                let row = ti * rows + r;
                let col = tj * NB + c;
                let mut acc = 0i32;
                for kk in 0..k {
                    let av = if row < m { a[row * k + kk] as i32 } else { 0 };
                    let bv = if col < n { b[kk * n + col] as i32 } else { 0 };
                    acc += av * bv;
                }
                out[c * rows + r] = acc;
            }
        }
        out
    }

    #[test]
    fn functional_tile_matches_reference_all_bit_widths() {
        for bits in BitWidth::ALL {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (21, 37, 9);
            let (a, b) = random_operands(m, k, n, bits, bits.bits() as u64);
            let pa = pack_a(&a, m, k);
            let pb = PackedB::from_b(&b, k, n);
            for ti in 0..pa.tiles() {
                for tj in 0..pb.tiles() {
                    let got = run_tile(&scheme, SharedWeights::Wide(&pa), &pb, ti, tj);
                    let want = reference_tile(&a, &b, m, k, n, ti, tj, NA);
                    assert_eq!(got, want, "{bits} tile ({ti},{tj})");
                }
            }
        }
    }

    #[test]
    fn functional_tile_exercises_multiple_drains() {
        // K big enough that 8-bit (ratio 2) and 2-bit (ratio 31) both drain
        // many times, and 2-bit crosses a second-level drain boundary.
        for bits in [BitWidth::W2, BitWidth::W8] {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (16, 500, 4);
            let (a, b) = random_operands(m, k, n, bits, 99);
            let pa = pack_a(&a, m, k);
            let pb = PackedB::from_b(&b, k, n);
            let got = run_tile(&scheme, SharedWeights::Wide(&pa), &pb, 0, 0);
            let want = reference_tile(&a, &b, m, k, n, 0, 0, NA);
            assert_eq!(got, want, "{bits}");
        }
    }

    #[test]
    fn ncnn_tile_matches_reference() {
        // Five narrow tiles: one register block of four on every ISA, and
        // each tile alone through the host dispatch.
        use crate::narrow::{accumulate_tiles_narrow_on, NARROW_BLOCK};
        let (m, k, n) = (NA8 * NARROW_BLOCK + 3, 29, 7);
        let (a, b) = random_operands(m, k, n, BitWidth::W8, 5);
        let (pa, pb) = (pack_a_narrow(&a, m, k), PackedB::from_b(&b, k, n));
        let scheme = Scheme::ncnn16();
        for tj in 0..pb.tiles() {
            let want: Vec<_> =
                (0..pa.tiles()).map(|ti| reference_tile(&a, &b, m, k, n, ti, tj, NA8)).collect();
            for (ti, want) in want.iter().enumerate() {
                let got = run_tile(&scheme, SharedWeights::Narrow(&pa), &pb, ti, tj);
                assert_eq!(&got, want, "tile ({ti},{tj})");
            }
            for isa in Isa::supported() {
                let mut block = [[0i32; NARROW_TILE_LEN]; NARROW_BLOCK];
                let a_blk = std::array::from_fn(|t| pa.block(t, 0, k));
                accumulate_tiles_narrow_on(isa, &scheme, a_blk, pb.block(tj, 0, k), &mut block);
                for (ti, tile) in block.iter().enumerate() {
                    assert_eq!(&tile.to_vec(), &want[ti], "{isa} block tile ({ti},{tj})");
                }
            }
        }
    }

    /// Loads a packed tile into simulator memory, runs the wide row's
    /// emitted stream and returns (result, interpreter counts).
    fn interpret_tile(
        scheme: &Scheme,
        pa: &PackedA,
        pb: &PackedB,
        ti: usize,
        tj: usize,
    ) -> (Vec<i32>, InstCounts) {
        let s = TileKind::Wide.stream(scheme, pa.k);
        let mut machine = Machine::new(s.mem_len(), CortexA53::cost_model());
        machine.write_mem_i8(s.a.span.start as usize, pa.block(ti, 0, pa.k));
        machine.write_mem_i8(s.b.span.start as usize, pb.block(tj, 0, pb.k));
        machine.run(&s.prog);
        (machine.read_mem_i32(s.c.start as usize, TILE_LEN), machine.stats().counts)
    }

    #[test]
    fn ratio_violation_wraps_the_intermediate() {
        // Failure injection: force an over-long drain interval and check the
        // i16 partials actually wrap (i.e. the published ratio is load-bearing).
        let bits = BitWidth::W8;
        let bad = Scheme::for_product_bound(SchemeKind::Smlal8, 1).with_unroll(2); // ratio 32767: never drains in-range
        let k = 8;
        let (m, n) = (16, 4);
        // All-max operands: 127*127*8 = 129032 >> i16::MAX.
        let a = vec![bits.qmax(); m * k];
        let b = vec![bits.qmax(); k * n];
        let pa = pack_a(&a, m, k);
        let pb = PackedB::from_b(&b, k, n);
        let wrapped = run_tile(&bad, SharedWeights::Wide(&pa), &pb, 0, 0);
        let correct = run_tile(&Scheme::for_bits(bits), SharedWeights::Wide(&pa), &pb, 0, 0);
        assert_ne!(wrapped, correct, "overflow must corrupt the result");
        assert_eq!(correct[0], 127 * 127 * k as i32);
    }

    #[test]
    fn functional_kernel_matches_interpreter_under_any_ratio() {
        // The functional kernel computes MLA intervals in i16 and truncates
        // at the drain; the interpreter runs real wrapping i8 MLA lanes. Full
        // range operands make every over-long interval actually wrap, so
        // agreement here proves the mod-2^8 argument, the interval chunking
        // and the remainder drains for ratio 1, ratio >= K and violated
        // ratios at both MLA levels. Each case runs as one register block
        // of distinct A tiles, every tile checked against the interpreter.
        let k = 70;
        let (m, n) = (NA * SMLAL_BLOCK.max(MLA_BLOCK), 4);
        let mut rng = StdRng::seed_from_u64(4242);
        let mut full_range = |len: usize| -> Vec<i8> { (0..len).map(|_| rng.gen_range(-128..=127i32) as i8).collect() };
        let (a, b) = (full_range(m * k), full_range(k * n));
        let pa = pack_a(&a, m, k);
        let pb = PackedB::from_b(&b, k, n);
        let smlal = Scheme::for_bits(BitWidth::W8);
        let mla = Scheme::for_bits(BitWidth::W2);
        let cases = [
            ("smlal published", smlal),
            ("smlal ratio 1", smlal.with_ratio_unchecked(1)),
            ("smlal violated ratio", smlal.with_ratio_unchecked(9)),
            ("smlal ratio == K", smlal.with_ratio_unchecked(k)),
            ("smlal ratio > K", smlal.with_ratio_unchecked(10 * k)),
            ("mla published", mla),
            ("mla ratio 1", mla.with_ratio_unchecked(1)),
            ("mla violated ratio", mla.with_ratio_unchecked(13)),
            ("mla violated ratio2", mla.with_ratio_unchecked(2).with_ratio2_unchecked(3)),
            ("mla both violated", mla.with_ratio_unchecked(6).with_ratio2_unchecked(4)),
            ("mla ratio2 1", mla.with_ratio2_unchecked(1)),
            ("mla ratio == K", mla.with_ratio_unchecked(k)),
            ("mla ratio > K", mla.with_ratio_unchecked(10 * k).with_ratio2_unchecked(3)),
        ];
        for (name, scheme) in cases {
            let run_block = match scheme.kind() {
                SchemeKind::Mla => run_block_on::<MLA_BLOCK>,
                _ => run_block_on::<SMLAL_BLOCK>,
            };
            let baseline = run_block(Isa::BASELINE, &scheme, &pa, &pb);
            for (ti, tile) in baseline.iter().enumerate() {
                let (interpreted, counts) = interpret_tile(&scheme, &pa, &pb, ti, 0);
                assert_eq!(counts, tile_counts(&scheme, k), "{name}: interpreter vs analytic counts");
                assert_eq!(&interpreted, tile, "{name} tile {ti}: interpreter vs functional block");
                let one = run_tile(&scheme, SharedWeights::Wide(&pa), &pb, ti, 0);
                assert_eq!(one, interpreted, "{name} tile {ti}: one-tile host dispatch");
            }
            for isa in Isa::supported() {
                let functional = run_block_on::<1>(isa, &scheme, &pa, &pb);
                assert_eq!(functional[0], baseline[0], "{name} on {isa}: one-tile instance");
                let functional = run_block(isa, &scheme, &pa, &pb);
                assert_eq!(functional, baseline, "{name} on {isa}: vs the baseline instance");
            }
        }
    }

    /// The first `T` A tiles against the first B tile as one register block
    /// compiled for `isa`, one result per tile.
    fn run_block_on<const T: usize>(
        isa: Isa,
        scheme: &Scheme,
        pa: &PackedA,
        pb: &PackedB,
    ) -> Vec<Vec<i32>> {
        let mut acc32 = [[0i32; TILE_LEN]; T];
        let a = std::array::from_fn(|t| pa.block(t, 0, pa.k));
        accumulate_tiles_on(isa, scheme, a, pb.block(0, 0, pb.k), &mut acc32);
        acc32.iter().map(|tile| tile.to_vec()).collect()
    }

    #[test]
    fn violated_mla_ratios_wrap_like_i8_and_i16_lanes() {
        // Constant 11 x 11 operands: each MAC adds 121, so closed forms say
        // exactly what wrapping i8 and i16 lanes must hold, in every tile of
        // a register block too.
        let (m, n) = (NA * MLA_BLOCK, 4);
        let run = |scheme: &Scheme, k: usize| {
            let pa = pack_a(&vec![11; m * k], m, k);
            let pb = PackedB::from_b(&vec![11; k * n], k, n);
            let functional = run_tile(scheme, SharedWeights::Wide(&pa), &pb, 0, 0);
            assert_eq!(interpret_tile(scheme, &pa, &pb, 0, 0).0, functional);
            for tile in run_block_on::<MLA_BLOCK>(Isa::host(), scheme, &pa, &pb) {
                assert_eq!(tile, functional, "register block vs one tile");
            }
            functional
        };
        let mla = Scheme::for_bits(BitWidth::W2);
        // Level 1 violated: two MACs (242) wrap the i8 lane to -14, and five
        // such drains sum to -70 in i16.
        let i8_wrapped = run(&mla.with_ratio_unchecked(2), 10);
        assert!(i8_wrapped.iter().all(|&v| v == 5 * (242 - 256)));
        // Level 2 violated: 300 single-MAC drains of 121 overflow the i16
        // level (36300 -> 36300 - 65536) before it reaches i32.
        let i16_wrapped = run(&mla.with_ratio_unchecked(1).with_ratio2_unchecked(300), 300);
        assert!(i16_wrapped.iter().all(|&v| v == 36_300 - 65_536));
        // Ratios resolved for the true bound (121: ratio 1, ratio2 270)
        // keep both levels exact.
        let safe = Scheme::for_product_bound(SchemeKind::Mla, 121);
        assert!(run(&safe, 300).iter().all(|&v| v == 36_300));
    }

    #[test]
    fn k_blocks_through_the_parallel_driver_are_exact() {
        // The parallel driver restarts the drain cadence at every kc block;
        // within the published ratios that must still be exact, for block
        // lengths below, at and above the drain intervals. M runs through
        // 1 to 2T + 1 tiles (the last one ragged), so full register blocks
        // and the one-tile remainder both run.
        use crate::gemm::reference_gemm;
        use crate::parallel::{gemm_parallel_cm_weighted, panels_len, ParallelConfig, SharedWeights};
        use lowbit_trace::Tracer;
        let (k, n) = (150, 9);
        for bits in [BitWidth::W2, BitWidth::W3, BitWidth::W4, BitWidth::W8] {
            let scheme = Scheme::for_bits(bits);
            let block = if bits.uses_mla_scheme() { MLA_BLOCK } else { SMLAL_BLOCK };
            for m in (1..=2 * block + 1).map(|tiles| tiles * NA - 3) {
                let seed = 500 + (m * 8) as u64 + bits.bits() as u64;
                let (a, b) = random_operands(m, k, n, bits, seed);
                let want = reference_gemm(&a, &b, m, k, n);
                let pa = pack_a(&a, m, k);
                for (threads, kc) in [(1, 1), (1, 7), (2, 31), (2, 32), (3, 64), (1, 149), (2, 150)] {
                    let cfg = ParallelConfig { threads, kc, nc: 8 };
                    for isa in Isa::supported() {
                        let mut panels = vec![0; panels_len(k, n, &cfg)];
                        let (mut c_cm, weights) = (vec![i32::MIN; m * n], SharedWeights::Wide(&pa));
                        gemm_parallel_cm_weighted(
                            isa, &scheme, weights, &b, k, n, &cfg, &mut panels, &mut c_cm, [1],
                            &mut [false], &Tracer::null(),
                        );
                        for i in 0..m {
                            for j in 0..n {
                                let at = format!("{bits} m {m} kc {kc} {isa} ({i},{j})");
                                assert_eq!(c_cm[j * m + i], want[i * n + j], "{at}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn emitted_kernel_sustains_high_ipc_on_the_pipeline_model() {
        // Alg. 1's prefetch interleave (alternating v0/v1 and v2-5/v6-9
        // register groups) must hide the load-use latency: the emitted
        // program should run near one instruction per cycle on the
        // latency-aware in-order model.
        use neon_sim::{pipeline_schedule, PipelineModel};
        let scheme = Scheme::for_bits(BitWidth::W4);
        let prog = emit_tile(&scheme, 64, 0, 2048, 4096);
        let report = pipeline_schedule(&prog, &PipelineModel::cortex_a53());
        assert!(
            report.ipc() > 0.8,
            "emitted 4-bit kernel IPC {:.2} ({} stalls over {} cycles)",
            report.ipc(),
            report.stall_cycles,
            report.cycles
        );
        // Loads should mostly pair with MACs.
        assert!(report.dual_issue_cycles as f64 > 0.05 * report.cycles as f64);
    }

    #[test]
    fn tile_counts_scale_with_drains() {
        let s4 = Scheme::for_bits(BitWidth::W4);
        let s8 = Scheme::for_bits(BitWidth::W8);
        let k = 512;
        let c4 = tile_counts(&s4, k);
        let c8 = tile_counts(&s8, k);
        // Same MAC count, but 8-bit drains 256x as often as 4-bit (ratio 2 vs
        // 511) and therefore spends far more ALU instructions.
        assert_eq!(c4.neon_mac, c8.neon_mac);
        assert!(c8.neon_alu > 100 * c4.neon_alu);
    }
}
