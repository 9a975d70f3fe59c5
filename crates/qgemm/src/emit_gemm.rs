//! Whole-GEMM program emission: stitches the micro-tile emitter across all
//! `(M/16) x (N/4)` tiles into one interpreter program.
//!
//! This closes the consistency loop one level above the micro-kernel tests:
//! the interpreted multi-tile program must reproduce the functional driver's
//! full `C` matrix *and* the analytic schedule's instruction counts for the
//! whole `gemm` stage.

use crate::micro::emit_tile;
use crate::pack::{PackedA, PackedB, NA, NB};
use crate::scheme::Scheme;
use neon_sim::inst::Inst;

/// Memory layout of an emitted whole-GEMM program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GemmLayout {
    /// Base address of packed A.
    pub addr_a: u32,
    /// Base address of packed B.
    pub addr_b: u32,
    /// Base address of the tile-major i32 output
    /// (tile `(ti, tj)` at `addr_c + (ti * b_tiles + tj) * 256`).
    pub addr_c: u32,
    /// Total bytes of simulator memory required.
    pub mem_len: usize,
}

/// Emits the full tiled GEMM over packed operands, returning the program and
/// its memory layout.
pub fn emit_gemm(scheme: &Scheme, pa: &PackedA, pb: &PackedB) -> (Vec<Inst>, GemmLayout) {
    assert_eq!(pa.k, pb.k);
    let k = pa.k;
    let addr_a = 0u32;
    let addr_b = (pa.data.len()).next_multiple_of(16) as u32;
    let addr_c = (addr_b as usize + pb.data.len()).next_multiple_of(16) as u32;
    let c_bytes = pa.tiles() * pb.tiles() * NA * NB * 4;
    let layout = GemmLayout {
        addr_a,
        addr_b,
        addr_c,
        mem_len: addr_c as usize + c_bytes + 64,
    };
    let mut prog = Vec::new();
    for ti in 0..pa.tiles() {
        for tj in 0..pb.tiles() {
            let a_tile = addr_a + (ti * k * NA) as u32;
            let b_tile = addr_b + (tj * k * NB) as u32;
            let c_tile = addr_c + ((ti * pb.tiles() + tj) * NA * NB * 4) as u32;
            prog.extend(emit_tile(scheme, k, a_tile, b_tile, c_tile));
        }
    }
    (prog, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, schedule_gemm};
    use crate::pack::{pack_a, PackedB};
    use lowbit_tensor::BitWidth;
    use neon_sim::{CortexA53, Machine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn interpreted_whole_gemm_matches_driver_and_schedule() {
        for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (21, 40, 9); // 2x3 ragged tile grid
            let mut rng = StdRng::seed_from_u64(bits.bits() as u64);
            let a: Vec<i8> = (0..m * k)
                .map(|_| rng.gen_range(bits.qmin()..=bits.qmax()))
                .collect();
            let b: Vec<i8> = (0..k * n)
                .map(|_| rng.gen_range(bits.qmin()..=bits.qmax()))
                .collect();
            let pa = pack_a(&a, m, k);
            let pb = PackedB::from_b(&b, k, n);

            let (prog, layout) = emit_gemm(&scheme, &pa, &pb);
            let mut machine = Machine::new(layout.mem_len, CortexA53::cost_model());
            machine.write_mem_i8(layout.addr_a as usize, &pa.data);
            machine.write_mem_i8(layout.addr_b as usize, &pb.data);
            machine.run(&prog);

            // Gather the interpreted C and compare with the functional
            // driver (which includes unpadding).
            let functional = gemm(&scheme, &a, &b, m, k, n);
            for ti in 0..pa.tiles() {
                for tj in 0..pb.tiles() {
                    let base = layout.addr_c as usize + (ti * pb.tiles() + tj) * NA * NB * 4;
                    let tile = machine.read_mem_i32(base, NA * NB);
                    for col in 0..NB {
                        let j = tj * NB + col;
                        if j >= n {
                            continue;
                        }
                        for r in 0..NA {
                            let i = ti * NA + r;
                            if i >= m {
                                continue;
                            }
                            assert_eq!(
                                tile[col * NA + r],
                                functional.c[i * n + j],
                                "{bits} tile ({ti},{tj}) elem ({r},{col})"
                            );
                        }
                    }
                }
            }

            // Interpreter counters must equal the analytic gemm stage.
            let analytic = schedule_gemm(&scheme, m, k, n);
            let gemm_stage = analytic
                .stages
                .iter()
                .find(|s| s.name == "gemm")
                .unwrap();
            assert_eq!(machine.stats().counts, gemm_stage.counts, "{bits} counts");
        }
    }
}
