//! Data padding and packing (paper Fig. 2), for every tile kind.
//!
//! A micro-kernel consumes a fixed number of *lanes* of each operand per
//! K step (`n_a = 16` rows of A, `n_b = 4` columns of B), so both matrices
//! are zero-padded to the lane granule and re-laid-out so that every load
//! in the inner loop is contiguous. [`Panels`] is that image, with the lane
//! count and the K grouping as parameters: tile `i` holds its lanes' K
//! steps in groups of `KG`, each group `LANES x KG` bytes, lane-major.
//!
//! * [`PackedA`] (`M x K` in) → 16-row tiles; within a tile, `K`
//!   contiguous 16-element column slices (`LD1` feeds 16 rows at once).
//! * [`PackedB`] (`K x N` in) → 4-column tiles; within a tile, `K`
//!   contiguous 4-element row slices (`LD4R` broadcasts 4 columns).
//! * [`PackedANarrow`] is the narrow 8x4 tile's A, 8-row tiles; the
//!   ncnn-like baseline runs on it and widens in registers (only its A53
//!   model still prices ncnn's pre-widened i16 panels).
//! * [`PackedAQuads`] and [`PackedBQuads`] are the `SDOT` tile's images
//!   (Sec. 2.3): K grouped in quads, so each lane's four consecutive K
//!   elements sit together and one `SDOT` lane dots them at once.

use crate::narrow::NA8;
use crate::sdot::{KQ, SDOT_NA};

/// Micro-kernel rows per A tile (`n_a` in the paper).
pub const NA: usize = 16;
/// Micro-kernel columns per B tile (`n_b` in the paper).
pub const NB: usize = 4;

/// One packed operand: tiles of `LANES` lanes (A's rows or B's columns),
/// each tile's K steps in groups of `KG`.
///
/// Tile `i` occupies `k_pad * LANES` bytes from `i * k_pad * LANES`; its
/// step group `g` holds `LANES x KG` bytes, lane `l`'s steps
/// `g*KG .. g*KG + KG` at `l * KG`. Lanes past `lanes` and steps past `k`
/// are zero. With `KG = 1` step `kk` of a tile is one contiguous `LANES`
/// slice.
#[derive(Clone, PartialEq, Debug)]
pub struct Panels<const LANES: usize, const KG: usize> {
    /// Logical lanes: A's rows (GEMM M) or B's columns (GEMM N).
    pub lanes: usize,
    /// Lanes after padding to a multiple of `LANES`.
    pub lanes_pad: usize,
    /// Logical K.
    pub k: usize,
    /// K after padding to a multiple of `KG`.
    pub k_pad: usize,
    /// Tile-major storage.
    pub data: Vec<i8>,
}

/// The wide 16x4 tile's A: 16-row tiles, one K step per group.
pub type PackedA = Panels<NA, 1>;
/// The narrow 8x4 tile's A (SMLAL and the ncnn baseline): 8-row tiles.
pub type PackedANarrow = Panels<NA8, 1>;
/// The `SDOT` tile's A: 16-row tiles of k-quads.
pub type PackedAQuads = Panels<SDOT_NA, KQ>;
/// B for the 16x4 and 8x4 tiles: 4-column tiles, one K step per group.
pub type PackedB = Panels<NB, 1>;
/// B for the `SDOT` tile: 4-column tiles of k-quads, the image the emitted
/// `LD4R.4s` stream reads.
pub type PackedBQuads = Panels<NB, KQ>;

impl<const LANES: usize, const KG: usize> Panels<LANES, KG> {
    /// Packs a row-major `M x K` matrix A, lanes over its rows.
    pub fn from_a(a: &[i8], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "A must be M x K row-major");
        Self::pack(m, k, |row, kk| a[row * k + kk])
    }

    /// Packs a row-major `K x N` matrix B, lanes over its columns.
    pub fn from_b(b: &[i8], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "B must be K x N row-major");
        Self::pack(n, k, |col, kk| b[kk * n + col])
    }

    /// The one packing loop: tile, then step group, then lane, then the
    /// group's steps, reading logical element `(lane, step)` through `at`.
    #[inline(always)]
    fn pack(lanes: usize, k: usize, at: impl Fn(usize, usize) -> i8) -> Self {
        let lanes_pad = lanes.div_ceil(LANES) * LANES;
        let k_pad = k.div_ceil(KG) * KG;
        let mut data = vec![0i8; lanes_pad * k_pad];
        let mut dst = 0;
        for tile in 0..lanes_pad / LANES {
            for g in 0..k_pad / KG {
                for l in 0..LANES {
                    let lane = tile * LANES + l;
                    for j in 0..KG {
                        let kk = g * KG + j;
                        if lane < lanes && kk < k {
                            data[dst] = at(lane, kk);
                        }
                        dst += 1;
                    }
                }
            }
        }
        Panels { lanes, lanes_pad, k, k_pad, data }
    }

    /// Number of `LANES`-lane tiles.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.lanes_pad / LANES
    }

    /// Tile `i`'s step groups covering K steps `[k0, k0 + klen)`, the
    /// operand of one micro-kernel K block: with `KG = 1` exactly `klen`
    /// contiguous `LANES` slices; otherwise the block's first step sits at
    /// position `k0 % KG` of the first group.
    #[inline]
    pub fn block(&self, i: usize, k0: usize, klen: usize) -> &[i8] {
        let group = |g: usize| (i * (self.k_pad / KG) + g) * LANES * KG;
        &self.data[group(k0 / KG)..group((k0 + klen).div_ceil(KG))]
    }

    /// Logical element `(lane, step)`: A's `(row, col)` or B's
    /// `(col, row)` (0 in the padded region).
    pub fn get(&self, lane: usize, step: usize) -> i8 {
        self.block(lane / LANES, step, 1)[lane % LANES * KG + step % KG]
    }
}

/// Packs a row-major `M x K` matrix into 16-row tiles (zero padding `M`).
pub fn pack_a(a: &[i8], m: usize, k: usize) -> PackedA {
    PackedA::from_a(a, m, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Vec<i8> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Never zero, so a logical element cannot pass for padding.
        (0..rows * cols)
            .map(|_| match rng.gen_range(-8..8) as i8 {
                0 => 8,
                v => v,
            })
            .collect()
    }

    /// Checks one packed image of the `rows x cols` row-major `src`, whose
    /// lanes are its rows (`lanes_are_rows`) or its columns.
    fn check<const LANES: usize, const KG: usize>(
        p: &Panels<LANES, KG>,
        src: &[i8],
        (rows, cols): (usize, usize),
        lanes_are_rows: bool,
    ) {
        let (lanes, k) = if lanes_are_rows { (rows, cols) } else { (cols, rows) };
        let at = |lane: usize, kk: usize| match lanes_are_rows {
            true => src[lane * cols + kk],
            false => src[kk * cols + lane],
        };
        let case = format!("{LANES}x{KG} lanes {lanes} k {k}");
        assert_eq!((p.lanes, p.k), (lanes, k), "{case}");
        assert_eq!(p.lanes_pad, lanes.div_ceil(LANES) * LANES, "{case}: lane padding");
        assert_eq!(p.k_pad, k.div_ceil(KG) * KG, "{case}: K padding");
        assert_eq!(p.data.len(), p.lanes_pad * p.k_pad, "{case}");
        assert!(p.lanes_pad - lanes < LANES && p.k_pad - k < KG, "{case}: minimal padding");
        // Every logical element round-trips; every padded one is zero.
        let want = |lane: usize, kk: usize| if lane < lanes && kk < k { at(lane, kk) } else { 0 };
        for lane in 0..p.lanes_pad {
            for kk in 0..p.k_pad {
                assert_eq!(p.get(lane, kk), want(lane, kk), "{case} at ({lane},{kk})");
            }
        }
        let nonzero = p.data.iter().filter(|&&v| v != 0).count();
        assert_eq!(nonzero, lanes * k, "{case}: zero bytes only in the padding");
        // The tiles lie back to back, each all of its K steps.
        let tiles: Vec<i8> = (0..p.tiles()).flat_map(|i| p.block(i, 0, k).to_vec()).collect();
        assert_eq!(tiles, p.data, "{case}: tile-major");
        // A block is its steps' groups, each lane-major, whether its ends
        // fall on group boundaries or inside a group.
        for i in 0..p.tiles() {
            for k0 in 0..k {
                for klen in 1..=k - k0 {
                    let blk = p.block(i, k0, klen);
                    let (g0, g1) = (k0 / KG, (k0 + klen).div_ceil(KG));
                    let at = format!("{case} block ({i},{k0},{klen})");
                    assert_eq!(blk.len(), (g1 - g0) * LANES * KG, "{at}");
                    for (g, group) in (g0..g1).zip(blk.chunks_exact(LANES * KG)) {
                        for (l, steps) in group.chunks_exact(KG).enumerate() {
                            for (j, &v) in steps.iter().enumerate() {
                                let (lane, kk) = (i * LANES + l, g * KG + j);
                                assert_eq!(v, want(lane, kk), "{at}: lane {lane} step {kk}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_image_packs_ragged_shapes_exactly() {
        // Lanes past, short of and on each granule (16, 8, 4), and K of
        // every residue mod 4, K below one quad included.
        let shapes =
            [(19, 7), (5, 3), (16, 4), (32, 5), (17, 10), (13, 1), (10, 6), (21, 9), (8, 8)];
        let residues: std::collections::BTreeSet<_> = shapes.iter().map(|&(_, k)| k % KQ).collect();
        assert_eq!(residues.len(), KQ);
        for (seed, (lanes, k)) in shapes.into_iter().enumerate() {
            let a = random_matrix(lanes, k, seed as u64);
            check(&PackedA::from_a(&a, lanes, k), &a, (lanes, k), true);
            check(&PackedANarrow::from_a(&a, lanes, k), &a, (lanes, k), true);
            check(&PackedAQuads::from_a(&a, lanes, k), &a, (lanes, k), true);
            let b = random_matrix(k, lanes, 100 + seed as u64);
            check(&PackedB::from_b(&b, k, lanes), &b, (k, lanes), false);
            check(&PackedBQuads::from_b(&b, k, lanes), &b, (k, lanes), false);
        }
        // Exact multiples need no padding.
        assert_eq!(pack_a(&random_matrix(32, 5, 5), 32, 5).lanes_pad, 32);
        assert_eq!(PackedB::from_b(&random_matrix(5, 8, 6), 5, 8).lanes_pad, 8);
    }
}
