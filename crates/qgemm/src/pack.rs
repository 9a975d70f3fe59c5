//! Data padding and packing (paper Fig. 2).
//!
//! The micro-kernel consumes `n_a = 16` elements from a column of `A` and
//! `n_b = 4` elements from a row of `B` per step, so both matrices are
//! zero-padded to multiples of the granule and re-laid-out so that every
//! load in the inner loop is contiguous:
//!
//! * **A** (`M x K`, row-major in) → row-tiles of height 16; within a tile,
//!   `K` contiguous 16-element column slices (`LD1` feeds 16 rows at once).
//! * **B** (`K x N`, row-major in) → column-tiles of width 4; within a tile,
//!   `K` contiguous 4-element row slices (`LD4R` broadcasts 4 columns).
//!
//! The ncnn-like baseline packs the same shapes but **pre-widened to i16**
//! (its `SMLAL` form consumes 16-bit operands), with an 8-row granule.

/// Micro-kernel rows per A tile (`n_a` in the paper).
pub const NA: usize = 16;
/// Micro-kernel columns per B tile (`n_b` in the paper).
pub const NB: usize = 4;
/// A-tile rows for the ncnn-like 16-bit baseline.
pub const NCNN_NA: usize = 8;

/// Packed representation of the `M x K` weight matrix A.
#[derive(Clone, PartialEq, Debug)]
pub struct PackedA {
    /// Logical rows.
    pub m: usize,
    /// Rows after padding to a multiple of [`NA`].
    pub m_pad: usize,
    /// Shared dimension.
    pub k: usize,
    /// Tile-major storage: tile `i` occupies `k * NA` bytes starting at
    /// `i * k * NA`; within the tile, step `kk` holds rows
    /// `i*NA .. i*NA+NA` of column `kk`.
    pub data: Vec<i8>,
}

impl PackedA {
    /// Number of 16-row tiles.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.m_pad / NA
    }

    /// The 16-element column slice for tile `i`, step `kk`.
    #[inline]
    pub fn slice(&self, i: usize, kk: usize) -> &[i8] {
        let base = (i * self.k + kk) * NA;
        &self.data[base..base + NA]
    }

    /// Steps `k0 .. k0 + klen` of tile `i`: `klen` contiguous 16-row column
    /// slices, the A operand of one micro-kernel K block.
    #[inline]
    pub fn block(&self, i: usize, k0: usize, klen: usize) -> &[i8] {
        let base = (i * self.k + k0) * NA;
        &self.data[base..base + klen * NA]
    }

    /// Logical element `(row, col)` (0 in the padded region).
    pub fn get(&self, row: usize, col: usize) -> i8 {
        let tile = row / NA;
        self.slice(tile, col)[row % NA]
    }
}

/// Packed representation of the `K x N` im2col matrix B.
#[derive(Clone, PartialEq, Debug)]
pub struct PackedB {
    /// Shared dimension.
    pub k: usize,
    /// Logical columns.
    pub n: usize,
    /// Columns after padding to a multiple of [`NB`].
    pub n_pad: usize,
    /// Tile-major storage: tile `j` occupies `k * NB` bytes; within the tile,
    /// step `kk` holds columns `j*NB .. j*NB+NB` of row `kk`.
    pub data: Vec<i8>,
}

impl PackedB {
    /// Number of 4-column tiles.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.n_pad / NB
    }

    /// The 4-element row slice for tile `j`, step `kk`.
    #[inline]
    pub fn slice(&self, j: usize, kk: usize) -> &[i8] {
        let base = (j * self.k + kk) * NB;
        &self.data[base..base + NB]
    }

    /// All `k` steps of tile `j` (`k * NB` contiguous bytes).
    #[inline]
    pub fn tile(&self, j: usize) -> &[i8] {
        &self.data[j * self.k * NB..(j + 1) * self.k * NB]
    }

    /// Logical element `(row, col)` (0 in the padded region).
    pub fn get(&self, row: usize, col: usize) -> i8 {
        let tile = col / NB;
        self.slice(tile, row)[col % NB]
    }
}

/// Packs a row-major `M x K` matrix into 16-row tiles (zero padding `M`).
pub fn pack_a(a: &[i8], m: usize, k: usize) -> PackedA {
    assert_eq!(a.len(), m * k, "A must be M x K row-major");
    let m_pad = m.div_ceil(NA) * NA;
    let mut data = vec![0i8; m_pad * k];
    for tile in 0..m_pad / NA {
        let tile_base = tile * k * NA;
        for kk in 0..k {
            let dst = tile_base + kk * NA;
            for r in 0..NA {
                let row = tile * NA + r;
                if row < m {
                    data[dst + r] = a[row * k + kk];
                }
            }
        }
    }
    PackedA { m, m_pad, k, data }
}

/// Packs a row-major `K x N` matrix into 4-column tiles (zero padding `N`).
pub fn pack_b(b: &[i8], k: usize, n: usize) -> PackedB {
    assert_eq!(b.len(), k * n, "B must be K x N row-major");
    let n_pad = n.div_ceil(NB) * NB;
    let mut data = vec![0i8; k * n_pad];
    for tile in 0..n_pad / NB {
        let tile_base = tile * k * NB;
        for kk in 0..k {
            let dst = tile_base + kk * NB;
            for c in 0..NB {
                let col = tile * NB + c;
                if col < n {
                    data[dst + c] = b[kk * n + col];
                }
            }
        }
    }
    PackedB { k, n, n_pad, data }
}

/// Packed A for the ncnn-like baseline: 8-row tiles, elements widened to i16.
#[derive(Clone, PartialEq, Debug)]
pub struct PackedA16 {
    /// Logical rows.
    pub m: usize,
    /// Rows padded to a multiple of [`NCNN_NA`].
    pub m_pad: usize,
    /// Shared dimension.
    pub k: usize,
    /// Tile-major i16 storage, same scheme as [`PackedA`] with 8-row tiles.
    pub data: Vec<i16>,
}

impl PackedA16 {
    /// Number of 8-row tiles.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.m_pad / NCNN_NA
    }

    /// The 8-element column slice for tile `i`, step `kk`.
    #[inline]
    pub fn slice(&self, i: usize, kk: usize) -> &[i16] {
        let base = (i * self.k + kk) * NCNN_NA;
        &self.data[base..base + NCNN_NA]
    }
}

/// Packed B for the ncnn-like baseline: 4-column tiles widened to i16.
#[derive(Clone, PartialEq, Debug)]
pub struct PackedB16 {
    /// Shared dimension.
    pub k: usize,
    /// Logical columns.
    pub n: usize,
    /// Columns padded to a multiple of [`NB`].
    pub n_pad: usize,
    /// Tile-major i16 storage, same scheme as [`PackedB`].
    pub data: Vec<i16>,
}

impl PackedB16 {
    /// Number of 4-column tiles.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.n_pad / NB
    }

    /// The 4-element row slice for tile `j`, step `kk`.
    #[inline]
    pub fn slice(&self, j: usize, kk: usize) -> &[i16] {
        let base = (j * self.k + kk) * NB;
        &self.data[base..base + NB]
    }
}

/// Packs and widens A for the ncnn-like baseline.
pub fn pack_a16(a: &[i8], m: usize, k: usize) -> PackedA16 {
    assert_eq!(a.len(), m * k);
    let m_pad = m.div_ceil(NCNN_NA) * NCNN_NA;
    let mut data = vec![0i16; m_pad * k];
    for tile in 0..m_pad / NCNN_NA {
        let tile_base = tile * k * NCNN_NA;
        for kk in 0..k {
            let dst = tile_base + kk * NCNN_NA;
            for r in 0..NCNN_NA {
                let row = tile * NCNN_NA + r;
                if row < m {
                    data[dst + r] = a[row * k + kk] as i16;
                }
            }
        }
    }
    PackedA16 { m, m_pad, k, data }
}

/// Packs and widens B for the ncnn-like baseline.
pub fn pack_b16(b: &[i8], k: usize, n: usize) -> PackedB16 {
    assert_eq!(b.len(), k * n);
    let n_pad = n.div_ceil(NB) * NB;
    let mut data = vec![0i16; k * n_pad];
    for tile in 0..n_pad / NB {
        let tile_base = tile * k * NB;
        for kk in 0..k {
            let dst = tile_base + kk * NB;
            for c in 0..NB {
                let col = tile * NB + c;
                if col < n {
                    data[dst + c] = b[kk * n + col] as i16;
                }
            }
        }
    }
    PackedB16 { k, n, n_pad, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Vec<i8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows * cols).map(|_| rng.gen_range(-8..8) as i8).collect()
    }

    #[test]
    fn pack_a_round_trips_logical_elements() {
        let (m, k) = (19, 7); // deliberately not multiples of the granule
        let a = random_matrix(m, k, 1);
        let p = pack_a(&a, m, k);
        assert_eq!(p.m_pad, 32);
        for row in 0..m {
            for col in 0..k {
                assert_eq!(p.get(row, col), a[row * k + col], "({row},{col})");
            }
        }
    }

    #[test]
    fn pack_a_pads_with_zeros() {
        let (m, k) = (5, 3);
        let a = random_matrix(m, k, 2);
        let p = pack_a(&a, m, k);
        for row in m..p.m_pad {
            for col in 0..k {
                assert_eq!(p.get(row, col), 0);
            }
        }
    }

    #[test]
    fn pack_b_round_trips_logical_elements() {
        let (k, n) = (6, 10);
        let b = random_matrix(k, n, 3);
        let p = pack_b(&b, k, n);
        assert_eq!(p.n_pad, 12);
        for row in 0..k {
            for col in 0..n {
                assert_eq!(p.get(row, col), b[row * n + col], "({row},{col})");
            }
        }
        for row in 0..k {
            for col in n..p.n_pad {
                assert_eq!(p.get(row, col), 0);
            }
        }
    }

    #[test]
    fn packed_slices_are_contiguous_tile_steps() {
        let (m, k) = (16, 4);
        let a = random_matrix(m, k, 4);
        let p = pack_a(&a, m, k);
        // Tile 0, step 2 must be column 2 of rows 0..16.
        let col2: Vec<i8> = (0..16).map(|r| a[r * k + 2]).collect();
        assert_eq!(p.slice(0, 2), col2.as_slice());
    }

    #[test]
    fn exact_multiples_need_no_padding() {
        let a = random_matrix(32, 5, 5);
        let p = pack_a(&a, 32, 5);
        assert_eq!(p.m_pad, 32);
        let b = random_matrix(5, 8, 6);
        let pb = pack_b(&b, 5, 8);
        assert_eq!(pb.n_pad, 8);
    }

    #[test]
    fn ncnn_packing_widens_and_pads() {
        let (m, k) = (9, 3);
        let a = random_matrix(m, k, 7);
        let p = pack_a16(&a, m, k);
        assert_eq!(p.m_pad, 16);
        assert_eq!(p.slice(0, 1)[2], a[2 * k + 1] as i16);
        // Padded rows are zero.
        assert_eq!(p.slice(1, 0)[7], 0);

        let b = random_matrix(3, 5, 8);
        let pb = pack_b16(&b, 3, 5);
        assert_eq!(pb.n_pad, 8);
        assert_eq!(pb.slice(0, 2)[1], b[2 * 5 + 1] as i16);
    }
}
