//! The precomputed offset buffer of Sec. 4.2.
//!
//! Implicit-precomp GEMM stores, per GEMM-K index, the *offset* of the tap
//! inside the NHWC input (kernel row/col delta and channel), and per GEMM-M
//! index the base coordinates of the output pixel. Offsets — not pointers —
//! so the buffer is computed once per shape and reused (the paper measures
//! 0.5–50 KB of global memory for it).

use lowbit_tensor::{ConvShape, Layout, QTensor};

/// Per-K tap descriptor: `(kernel_row, kernel_col, channel)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tap {
    /// Kernel row.
    pub kr: u16,
    /// Kernel column.
    pub kc: u16,
    /// Input channel.
    pub ci: u32,
}

/// The precomputed gather structure for one convolution shape.
#[derive(Clone, Debug)]
pub struct Precomp {
    shape: ConvShape,
    taps: Vec<Tap>,
}

impl Precomp {
    /// Builds the buffer for a shape (GEMM K = `kh*kw*c_in`, ordered with
    /// channels innermost to match NHWC).
    pub fn new(shape: &ConvShape) -> Precomp {
        let mut taps = Vec::with_capacity(shape.gemm_k());
        for kr in 0..shape.kh {
            for kc in 0..shape.kw {
                for ci in 0..shape.c_in {
                    taps.push(Tap { kr: kr as u16, kc: kc as u16, ci: ci as u32 });
                }
            }
        }
        Precomp { shape: *shape, taps }
    }

    /// GEMM K extent.
    pub fn k(&self) -> usize {
        self.taps.len()
    }

    /// Size of the buffer in global memory (one 32-bit offset per tap plus
    /// per-row bases folded into it, as the paper stores them).
    pub fn buffer_bytes(&self) -> usize {
        self.taps.len() * 4
    }

    /// Decodes GEMM row `m` into `(batch, out_y, out_x)`.
    #[inline]
    pub fn row_coords(&self, m: usize) -> (usize, usize, usize) {
        let (oh, ow) = (self.shape.out_h(), self.shape.out_w());
        (m / (oh * ow), (m / ow) % oh, m % ow)
    }

    /// Gathers the run `A[m][k0..k0 + dst.len()]` of the implicit activation
    /// matrix into `dst` (0 for padding taps), from an NHWC input. The row's
    /// output pixel is decoded once; taps sharing a kernel position are
    /// consecutive input channels, so each such stretch is one slice copy.
    pub fn gather_run(&self, input: &QTensor, m: usize, k0: usize, dst: &mut [i8]) {
        debug_assert_eq!(input.layout(), Layout::Nhwc);
        let s = &self.shape;
        let (b, oy, ox) = self.row_coords(m);
        let data = input.data();
        let mut k = k0;
        let mut rest = dst;
        while !rest.is_empty() {
            let tap = self.taps[k];
            let ci = tap.ci as usize;
            let len = (s.c_in - ci).min(rest.len());
            let (run, tail) = rest.split_at_mut(len);
            let iy = (oy * s.stride + tap.kr as usize)
                .checked_sub(s.pad)
                .filter(|&y| y < s.h);
            let ix = (ox * s.stride + tap.kc as usize)
                .checked_sub(s.pad)
                .filter(|&x| x < s.w);
            match (iy, ix) {
                (Some(iy), Some(ix)) => {
                    let off = ((b * s.h + iy) * s.w + ix) * s.c_in + ci;
                    run.copy_from_slice(&data[off..off + len]);
                }
                _ => run.fill(0),
            }
            rest = tail;
            k += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_tensor::BitWidth;

    #[test]
    fn buffer_size_matches_paper_range_for_resnet_layers() {
        // Paper Sec. 5.4: 0.5 KB to 50 KB across ResNet-50 layers.
        let smallest = Precomp::new(&ConvShape::new(1, 64, 56, 56, 64, 1, 1, 0));
        let largest = Precomp::new(&ConvShape::new(1, 512, 7, 7, 512, 3, 1, 1));
        assert!(smallest.buffer_bytes() >= 256);
        assert!(smallest.buffer_bytes() <= 1024);
        assert!(largest.buffer_bytes() <= 50 * 1024);
        assert!(largest.buffer_bytes() >= 16 * 1024);
    }

    #[test]
    fn gather_matches_explicit_im2col_semantics() {
        let shape = ConvShape::new(2, 3, 6, 5, 4, 3, 2, 1);
        let input = QTensor::random(
            (shape.batch, shape.c_in, shape.h, shape.w),
            Layout::Nhwc,
            BitWidth::W4,
            17,
        );
        let pc = Precomp::new(&shape);
        // Check every run `A[m][k0..]` against direct index arithmetic.
        let (oh, ow) = (shape.out_h(), shape.out_w());
        let mut row = vec![0i8; pc.k()];
        for m in 0..shape.batch * oh * ow {
            for k0 in 0..pc.k() {
                let run = &mut row[k0..];
                run.fill(i8::MIN);
                pc.gather_run(&input, m, k0, run);
                for (k, &got) in row.iter().enumerate().skip(k0) {
                    let (b, oy, ox) = pc.row_coords(m);
                    let kr = k / (shape.kw * shape.c_in);
                    let kc = (k / shape.c_in) % shape.kw;
                    let ci = k % shape.c_in;
                    let iy = (oy * shape.stride + kr) as isize - shape.pad as isize;
                    let ix = (ox * shape.stride + kc) as isize - shape.pad as isize;
                    let want =
                        if iy < 0 || iy >= shape.h as isize || ix < 0 || ix >= shape.w as isize {
                            0
                        } else {
                            input.get((b, ci, iy as usize, ix as usize))
                        };
                    assert_eq!(got, want, "m={m} k0={k0} k={k}");
                }
            }
        }
    }

    #[test]
    fn taps_are_channel_innermost() {
        let shape = ConvShape::new(1, 4, 8, 8, 2, 3, 1, 1);
        let pc = Precomp::new(&shape);
        // First c_in taps share (kr=0, kc=0).
        assert_eq!(pc.taps[0].ci, 0);
        assert_eq!(pc.taps[3].ci, 3);
        assert_eq!(pc.taps[4].kc, 1);
    }
}
