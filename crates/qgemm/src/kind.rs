//! The modeled GEMM tile kinds, one row each.
//!
//! The paper's Sec. 3 kernels differ only in how the tile is cut for the
//! instruction scheme: the 16x4 tile of Alg. 1 under `SMLAL` or `MLA`, and
//! this crate's extensions, the spill-free narrow 8x4, the ncnn baseline's
//! 8x4 on pre-widened i16 panels and the ARMv8.2 `SDOT` 16x4 on k-quads.
//! A [`TileKind`] variant is one row, and its small `match` methods state
//! the kind's facts once: its A rows, its K grouping and its operand
//! element bytes (the packed image the A53 program reads), and the kind's
//! analytic counts, emitter and stream label. Two builders read a row:
//! [`TileKind::schedule`] prices the `pack A`/`pack B`/`gemm` pipeline, and
//! [`TileKind::stream`] emits one tile as the [`KernelStream`] the static
//! verifier checks. A new tile kind is one more variant, whose arms the
//! compiler asks for, plus its block kernel in [`crate::parallel`].

use crate::micro::{emit_tile, emit_tile_ncnn, tile_counts, tile_counts_ncnn};
use crate::narrow::{emit_tile_narrow, tile_counts_narrow, NA8};
use crate::pack::{NA, NB};
use crate::scheme::{Scheme, SchemeKind};
use crate::sdot::{emit_tile_sdot, tile_counts_sdot, KQ, SDOT_NA};
use crate::stream::{KernelStream, OperandRegion};
use neon_sim::inst::Inst;
use neon_sim::meta::{ElemWidth, MemSpan};
use neon_sim::{InstCounts, KernelSchedule, StageCost};

/// One modeled GEMM tile kind: `rows` x [`NB`] outputs per tile, K in
/// groups of `kg` steps (its layout).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TileKind {
    /// The 16x4 tile of Alg. 1, under the `SMLAL` or the `MLA` scheme.
    Wide,
    /// The spill-free narrow 8x4 tile under the `SMLAL` scheme.
    Narrow,
    /// The ncnn-like baseline's 8x4 tile on pre-widened i16 panels,
    /// accumulating straight into i32 (on the host it is the narrow tile
    /// under [`Scheme::ncnn16`], widening in registers). It has no drains,
    /// so it ignores the scheme.
    Ncnn,
    /// The ARMv8.2 `SDOT` 16x4 tile on k-quads. It has no drains, so it
    /// ignores the scheme.
    Sdot,
}

impl TileKind {
    /// Every modeled tile kind.
    pub const ALL: [TileKind; 4] =
        [TileKind::Wide, TileKind::Narrow, TileKind::Ncnn, TileKind::Sdot];

    /// The kind's packed layout `(rows, kg, elem_bytes)`: A rows per tile;
    /// K steps per packed group, [`KQ`] for `SDOT`'s quads, else 1 (both
    /// operands pad K to a multiple of it); and bytes per packed operand
    /// element on the A53, 2 for the ncnn baseline's pre-widened i16
    /// panels, else 1.
    fn layout(self) -> (usize, usize, usize) {
        match self {
            TileKind::Wide => (NA, 1, 1),
            TileKind::Narrow => (NA8, 1, 1),
            TileKind::Ncnn => (NA8, 1, 2),
            TileKind::Sdot => (SDOT_NA, KQ, 1),
        }
    }

    /// Analytic instruction counts of one tile over `k` steps; equal to
    /// the interpreter's counts over the [`TileKind::stream`] program.
    fn counts(self, scheme: &Scheme, k: usize) -> InstCounts {
        match self {
            TileKind::Wide => tile_counts(scheme, k),
            TileKind::Narrow => tile_counts_narrow(scheme, k),
            TileKind::Ncnn => tile_counts_ncnn(k),
            TileKind::Sdot => tile_counts_sdot(k),
        }
    }

    /// One tile's program over `k` steps, A and B packed at `addr_a` and
    /// `addr_b`, the i32 result stored column-major at `addr_c`.
    fn emit(self, scheme: &Scheme, k: usize, addr_a: u32, addr_b: u32, addr_c: u32) -> Vec<Inst> {
        match self {
            TileKind::Wide => emit_tile(scheme, k, addr_a, addr_b, addr_c),
            TileKind::Narrow => emit_tile_narrow(scheme, k, addr_a, addr_b, addr_c),
            TileKind::Ncnn => emit_tile_ncnn(k, addr_a, addr_b, addr_c),
            TileKind::Sdot => emit_tile_sdot(k, addr_a, addr_b, addr_c),
        }
    }

    /// The stream name for `(scheme, k)`, e.g. `smlal16x4 k=5 r=2`: the
    /// drain kinds name their ratio.
    fn label(self, scheme: &Scheme, k: usize) -> String {
        let r = scheme.ratio();
        match self {
            TileKind::Wide if scheme.kind() == SchemeKind::Mla => format!("mla16x4 k={k} r={r}"),
            TileKind::Wide => format!("smlal16x4 k={k} r={r}"),
            TileKind::Narrow => format!("narrow8x4 k={k} r={r}"),
            TileKind::Ncnn => format!("ncnn8x4 k={k}"),
            TileKind::Sdot => format!("sdot16x4 k={k}"),
        }
    }

    /// K after padding to whole groups.
    fn k_pad(self, k: usize) -> usize {
        let (_, kg, _) = self.layout();
        k.div_ceil(kg) * kg
    }

    /// Analytic schedule of an `m x k x n` GEMM on this tile under
    /// `scheme`: both packing stages (paper Fig. 2), each moving the padded
    /// panels at the kind's element width, and the tiled inner loop over
    /// the `⌈m/rows⌉ x ⌈n/4⌉` tile grid.
    pub fn schedule(self, scheme: &Scheme, m: usize, k: usize, n: usize) -> KernelSchedule {
        let (rows, _, elem) = self.layout();
        let m_pad = m.div_ceil(rows) * rows;
        let n_pad = n.div_ceil(NB) * NB;
        let (k_pad, elem) = (self.k_pad(k) as u64, elem as u64);
        let tiles = (m_pad / rows * (n_pad / NB)) as u64;
        let mut sched = KernelSchedule::new();
        sched.push(StageCost::bulk_move("pack A", (m * k) as u64, m_pad as u64 * k_pad * elem));
        sched.push(StageCost::bulk_move("pack B", (k * n) as u64, k_pad * n_pad as u64 * elem));
        let mut counts = InstCounts::default();
        counts.add_scaled(&self.counts(scheme, k), tiles);
        sched.push(StageCost::compute("gemm", counts));
        sched
    }

    /// One tile over `k` steps under `scheme`, emitted at the canonical
    /// layout: packed A at 0, packed B right after it, the i32 result
    /// 16-byte-aligned after B.
    pub fn stream(self, scheme: &Scheme, k: usize) -> KernelStream {
        let (rows, _, elem_bytes) = self.layout();
        let elem = if elem_bytes == 2 { ElemWidth::H } else { ElemWidth::B };
        let region = |start: u32, lanes: usize| {
            let len = (self.k_pad(k) * lanes * elem_bytes) as u32;
            OperandRegion { span: MemSpan::new(start, len), elem }
        };
        let a = region(0, rows);
        let b = region(a.span.end(), NB);
        let addr_c = b.span.end().next_multiple_of(16);
        KernelStream {
            name: self.label(scheme, k),
            prog: self.emit(scheme, k, a.span.start, b.span.start, addr_c),
            a,
            b,
            c: MemSpan::new(addr_c, (rows * NB * 4) as u32),
            k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::narrow::pack_a_narrow;
    use crate::pack::{pack_a, PackedA, PackedANarrow, PackedAQuads, PackedB, PackedBQuads};
    use crate::parallel::{run_tile_on, SharedWeights};
    use lowbit_isa::Isa;
    use lowbit_tensor::BitWidth;
    use neon_sim::{CortexA53, Machine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A packed by the packer of a row's host block kernel: the ncnn
    /// baseline's is the narrow tile's.
    enum HostA {
        Wide(PackedA),
        Narrow(PackedANarrow),
        Quads(PackedAQuads),
    }

    impl HostA {
        fn pack(tile: TileKind, a: &[i8], k: usize) -> HostA {
            let (rows, _, _) = tile.layout();
            match tile {
                TileKind::Wide => HostA::Wide(pack_a(a, rows, k)),
                TileKind::Narrow | TileKind::Ncnn => HostA::Narrow(pack_a_narrow(a, rows, k)),
                TileKind::Sdot => HostA::Quads(PackedAQuads::from_a(a, rows, k)),
            }
        }

        fn weights(&self) -> SharedWeights<'_> {
            match self {
                HostA::Wide(pa) => SharedWeights::Wide(pa),
                HostA::Narrow(pa) => SharedWeights::Narrow(pa),
                HostA::Quads(pa) => SharedWeights::Quads(pa),
            }
        }

        /// The first tile's panel over all `k` steps.
        fn block(&self, k: usize) -> &[i8] {
            match self {
                HostA::Wide(pa) => pa.block(0, 0, k),
                HostA::Narrow(pa) => pa.block(0, 0, k),
                HostA::Quads(pa) => pa.block(0, 0, k),
            }
        }
    }

    /// B's first tile over `k` steps as `tile`'s A53 program reads it: the
    /// `SDOT` tile's quad panel, else the step-major [`PackedB`].
    fn b_block(tile: TileKind, b: &[i8], k: usize) -> Vec<i8> {
        match tile {
            TileKind::Sdot => PackedBQuads::from_b(b, k, NB).block(0, 0, k).to_vec(),
            TileKind::Wide | TileKind::Narrow | TileKind::Ncnn => {
                PackedB::from_b(b, k, NB).block(0, 0, k).to_vec()
            }
        }
    }

    /// A packed panel as bytes at `tile`'s element width: widened to
    /// little-endian i16 for the ncnn baseline's panels.
    fn image(tile: TileKind, panel: &[i8]) -> Vec<u8> {
        let (_, _, width) = tile.layout();
        panel.iter().flat_map(|&v| (v as i16).to_le_bytes()[..width].to_vec()).collect()
    }

    /// The schemes `tile` runs, each with its operands' width: the wide
    /// tile at every width, the narrow tile at the SMLAL widths, and the
    /// drain-free kinds, which ignore the scheme, at 8 bit.
    fn schemes(tile: TileKind) -> Vec<(Scheme, BitWidth)> {
        let widths = BitWidth::ALL.map(|bits| (Scheme::for_bits(bits), bits));
        match tile {
            TileKind::Wide => widths.to_vec(),
            TileKind::Narrow => {
                widths.into_iter().filter(|(s, _)| s.kind() == SchemeKind::Smlal8).collect()
            }
            TileKind::Ncnn => vec![(Scheme::ncnn16(), BitWidth::W8)],
            TileKind::Sdot => vec![(Scheme::for_bits(BitWidth::W8), BitWidth::W8)],
        }
    }

    /// Runs `tile`'s stream over `k` steps in the interpreter on the panels
    /// the real packers produce from random operands of `bits`, and checks
    /// its counts against the row's, its result against the exact product,
    /// and the host driver's one-tile result on the same packed A, on every
    /// ISA, against it.
    fn check(tile: TileKind, scheme: &Scheme, bits: BitWidth, k: usize) {
        let stream = tile.stream(scheme, k);
        let name = &stream.name;
        let (rows, _, _) = tile.layout();
        let mut rng = StdRng::seed_from_u64((k * 31 + rows * 7) as u64 + bits.bits() as u64);
        let mut operand = |len: usize| -> Vec<i8> {
            let (lo, hi) = (bits.qmin() as i32, bits.qmax() as i32);
            (0..len).map(|_| rng.gen_range(lo..=hi) as i8).collect()
        };
        let (a, b) = (operand(rows * k), operand(k * NB)); // row-major
        let pa = HostA::pack(tile, &a, k);
        let (a_img, b_img) = (image(tile, pa.block(k)), image(tile, &b_block(tile, &b, k)));
        assert_eq!(a_img.len(), stream.a.span.len as usize, "{name}: A region");
        assert_eq!(b_img.len(), stream.b.span.len as usize, "{name}: B region");
        let mut machine = Machine::new(stream.mem_len(), CortexA53::cost_model());
        machine.write_mem(stream.a.span.start as usize, &a_img);
        machine.write_mem(stream.b.span.start as usize, &b_img);
        machine.run(&stream.prog);
        assert_eq!(machine.stats().counts, tile.counts(scheme, k), "{name}: counts");

        let interpreted = machine.read_mem_i32(stream.c.start as usize, rows * NB);
        let exact = |i: usize| {
            let (col, row) = (i / rows, i % rows);
            (0..k).map(|kk| a[row * k + kk] as i32 * b[kk * NB + col] as i32).sum()
        };
        let want: Vec<i32> = (0..rows * NB).map(exact).collect();
        assert_eq!(interpreted, want, "{name}: interpreter vs the exact product");
        let pb = PackedB::from_b(&b, k, NB);
        for isa in Isa::supported() {
            let got = run_tile_on(isa, scheme, pa.weights(), &pb, 0, 0);
            assert_eq!(got, interpreted, "{name} on {isa}: host vs interpreter");
        }
    }

    #[test]
    fn every_row_emits_what_it_counts_and_computes_what_the_host_computes() {
        for tile in TileKind::ALL {
            for (scheme, bits) in schemes(tile) {
                // Quad boundaries on both sides of 4 and 8; each drain
                // boundary (the last drain-free K, one past it, two drains
                // and a remainder, and past the MLA scheme's second level);
                // and the K of every per-kind test this one replaces.
                let mut ks = vec![1, 2, 3, 4, 5, 7, 8, 9, 11, 22, 23, 29, 33, 70, 113, 129];
                let (r, r2) = (scheme.ratio(), scheme.ratio2());
                if r != usize::MAX {
                    ks.extend([r, r + 1, 2 * r + 1]);
                }
                if r2 != usize::MAX {
                    ks.push(r * r2 + 5);
                }
                for k in ks {
                    check(tile, &scheme, bits, k);
                }
            }
        }
    }
}
