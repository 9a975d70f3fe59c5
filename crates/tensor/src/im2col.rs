//! Explicit im2col lowering (ARM path) and its space-overhead accounting.
//!
//! The ARM kernels use the *explicit GEMM* method (Sec. 2.2): the input
//! activation is expanded into a `K x N` matrix (`K = c_in*kh*kw`,
//! `N = batch*out_h*out_w`) whose column `j` stacks the receptive field of
//! output pixel `j`, channel-major to match the NCHW weight matrix
//! `A[c_out x K]`. Fig. 13 of the paper reports the extra space this costs per
//! ResNet-50 layer; [`SpaceOverhead`] reproduces that accounting.

use crate::{ConvShape, Layout, QTensor};

/// An im2col-expanded activation matrix (`K x N`, row-major).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Im2colMatrix {
    /// `K = c_in * kh * kw` rows.
    pub k: usize,
    /// `N = batch * out_h * out_w` columns.
    pub n: usize,
    /// Row-major storage, `k * n` elements.
    pub data: Vec<i8>,
}

impl Im2colMatrix {
    /// Element at row `r` (kernel position) and column `c` (output pixel).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> i8 {
        self.data[r * self.n + c]
    }
}

/// Expands an NCHW activation into the im2col matrix for `shape`.
///
/// Out-of-bounds taps (zero padding) contribute literal zeros, which is
/// exactly how the zero-point-0 symmetric quantization of the paper treats
/// padding.
pub fn im2col_nchw(input: &QTensor, shape: &ConvShape) -> Im2colMatrix {
    let mut out = Im2colMatrix { k: 0, n: 0, data: Vec::new() };
    im2col_nchw_into(input, shape, &mut out);
    out
}

/// [`im2col_nchw`] into a caller-owned matrix, reusing its buffer.
///
/// Steady-state expansion of a fixed layer set performs no heap allocation
/// once `out.data`'s capacity has grown to the largest `k * n` seen; it
/// grows with `reserve_exact`, so the capacity is exactly that largest
/// `k * n`, never an amortized doubling past it.
pub fn im2col_nchw_into(input: &QTensor, shape: &ConvShape, out: &mut Im2colMatrix) {
    assert_eq!(input.layout(), Layout::Nchw, "ARM path expects NCHW");
    assert_eq!(
        input.dims(),
        (shape.batch, shape.c_in, shape.h, shape.w),
        "input dims do not match conv shape"
    );
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let k = shape.gemm_k();
    let n = shape.gemm_n();
    out.k = k;
    out.n = n;
    out.data.clear();
    out.data.reserve_exact(k * n);
    out.data.resize(k * n, 0);
    if k * n == 0 {
        return;
    }
    let (h, w, stride, pad) = (shape.h, shape.w, shape.stride, shape.pad);
    let src = input.data();
    for (row, dst) in out.data.chunks_exact_mut(n).enumerate() {
        let c = row / (shape.kh * shape.kw);
        let (kr, kc) = (row / shape.kw % shape.kh, row % shape.kw);
        // The output columns whose tap `ix = ox * stride + kc - pad` lands
        // inside the input row; the rest stay zero (padding).
        let ox_lo = pad.saturating_sub(kc).div_ceil(stride).min(ow);
        let ox_hi = if w + pad > kc { ((w + pad - kc - 1) / stride + 1).min(ow) } else { 0 };
        if ox_lo >= ox_hi {
            continue;
        }
        let ix_lo = ox_lo * stride + kc - pad;
        for (b, dst_image) in dst.chunks_exact_mut(oh * ow).enumerate() {
            let plane = &src[(b * shape.c_in + c) * h * w..][..h * w];
            for (oy, dst_row) in dst_image.chunks_exact_mut(ow).enumerate() {
                let Some(iy) = (oy * stride + kr).checked_sub(pad).filter(|&iy| iy < h) else {
                    continue; // the whole output row taps padding
                };
                let seg = &mut dst_row[ox_lo..ox_hi];
                let src_row = &plane[iy * w + ix_lo..];
                if stride == 1 {
                    seg.copy_from_slice(&src_row[..seg.len()]);
                } else {
                    for (d, &v) in seg.iter_mut().zip(src_row.iter().step_by(stride)) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// Space accounting for the explicit ARM pipeline (reproduces Fig. 13).
///
/// The baseline is the space occupied by the layer's activation and weight;
/// the overhead factors compare post-transformation footprints against it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SpaceOverhead {
    /// Activation + weight bytes (1 byte per quantized element) — the Fig. 13
    /// baseline.
    pub baseline_bytes: usize,
    /// Bytes after im2col: original activation (still live) + expanded
    /// matrix + weight.
    pub im2col_bytes: usize,
    /// Bytes after zero-padding both GEMM operands to multiples of the packing
    /// granules `(n_a, n_b)` on top of im2col.
    pub packed_bytes: usize,
}

impl SpaceOverhead {
    /// Computes the accounting for one layer with packing granules `n_a`
    /// (rows of `A`, i.e. output channels) and `n_b` (columns of `B`).
    pub fn for_shape(shape: &ConvShape, n_a: usize, n_b: usize) -> SpaceOverhead {
        let baseline = shape.input_len() + shape.weight_len();
        let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
        // The original activation stays live while the K x N matrix is
        // built (this is what makes the paper's conv2 factor 8.6034: the
        // expanded matrix comes on top of the activation); the weight matrix
        // is the original tensor reshaped.
        let im2col = shape.input_len() + k * n + m * k;
        let m_pad = m.div_ceil(n_a) * n_a;
        let n_pad = n.div_ceil(n_b) * n_b;
        let packed = shape.input_len() + k * n_pad + m_pad * k;
        SpaceOverhead {
            baseline_bytes: baseline,
            im2col_bytes: im2col,
            packed_bytes: packed,
        }
    }

    /// Fig. 13 "im2col" factor.
    pub fn im2col_factor(&self) -> f64 {
        self.im2col_bytes as f64 / self.baseline_bytes as f64
    }

    /// Fig. 13 "data padding and packing" factor (relative to im2col).
    pub fn packing_factor(&self) -> f64 {
        self.packed_bytes as f64 / self.im2col_bytes as f64
    }

    /// Total factor relative to the baseline.
    pub fn total_factor(&self) -> f64 {
        self.packed_bytes as f64 / self.baseline_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWidth;

    fn reference_im2col(input: &QTensor, shape: &ConvShape) -> Vec<i8> {
        // Naive per-element gather used as an oracle.
        let (oh, ow) = (shape.out_h(), shape.out_w());
        let (k, n) = (shape.gemm_k(), shape.gemm_n());
        let mut out = vec![0i8; k * n];
        for col in 0..n {
            let b = col / (oh * ow);
            let oy = (col / ow) % oh;
            let ox = col % ow;
            for row in 0..k {
                let c = row / (shape.kh * shape.kw);
                let kr = (row / shape.kw) % shape.kh;
                let kc = row % shape.kw;
                let iy = (oy * shape.stride + kr) as isize - shape.pad as isize;
                let ix = (ox * shape.stride + kc) as isize - shape.pad as isize;
                if iy >= 0 && iy < shape.h as isize && ix >= 0 && ix < shape.w as isize {
                    out[row * n + col] = input.get((b, c, iy as usize, ix as usize));
                }
            }
        }
        out
    }

    #[test]
    fn matches_reference_on_padded_strided_conv() {
        // A grid of kernel sizes, strides, paddings (up to and past the
        // kernel, where whole rows and columns are padding and some valid
        // `ox` ranges are empty), batch sizes and odd non-square inputs ...
        let mut shapes = vec![ConvShape::new(2, 3, 7, 6, 4, 3, 2, 1)];
        for kernel in [1, 3, 5, 7] {
            for stride in [1, 2, 3] {
                for pad in 0..=kernel {
                    for (batch, h, w) in [(1, 9, 7), (2, 5, 11)] {
                        if h + 2 * pad >= kernel && w + 2 * pad >= kernel {
                            shapes.push(ConvShape::new(batch, 2, h, w, 3, kernel, stride, pad));
                        }
                    }
                }
            }
        }
        // ... and the 19 ResNet-50 layer geometries, `(c_in, hw, k, stride,
        // pad)`, at an eighth of their spatial size.
        let resnet50 = [
            (3, 224, 7, 2, 3), (64, 56, 3, 1, 1), (64, 56, 1, 1, 0), (64, 56, 1, 1, 0),
            (256, 56, 1, 1, 0), (256, 56, 1, 2, 0), (128, 28, 3, 1, 1), (128, 28, 1, 1, 0),
            (256, 56, 1, 2, 0), (512, 28, 1, 1, 0), (512, 28, 1, 2, 0), (256, 14, 3, 1, 1),
            (256, 14, 1, 1, 0), (512, 28, 1, 2, 0), (1024, 14, 1, 1, 0), (1024, 14, 1, 2, 0),
            (512, 7, 3, 1, 1), (512, 7, 1, 1, 0), (2048, 7, 1, 1, 0),
        ];
        for (c_in, hw, k, stride, pad) in resnet50 {
            let hw = hw / 8 + 3;
            shapes.push(ConvShape::new(1, c_in / 64 + 1, hw, hw, 4, k, stride, pad));
        }
        // One matrix is also reused across every shape: stale rows must not
        // show, and its capacity is the largest `k * n` so far.
        let (mut reused, mut largest) = (Im2colMatrix::default(), 0);
        for (i, shape) in shapes.iter().enumerate() {
            let input = QTensor::random(
                (shape.batch, shape.c_in, shape.h, shape.w),
                Layout::Nchw,
                BitWidth::W6,
                42 + i as u64,
            );
            let m = im2col_nchw(&input, shape);
            assert_eq!(m.k, shape.gemm_k());
            assert_eq!(m.n, shape.gemm_n());
            assert_eq!(m.data, reference_im2col(&input, shape), "{shape}");
            im2col_nchw_into(&input, shape, &mut reused);
            largest = largest.max(m.data.len());
            assert_eq!(reused, m, "{shape}: reused");
            assert_eq!(reused.data.capacity(), largest, "{shape}: capacity");
        }
    }

    #[test]
    fn pointwise_conv_is_a_pure_reshape() {
        // 1x1 s1 p0: im2col row r, col j must equal input channel r, pixel j.
        let shape = ConvShape::new(1, 5, 4, 4, 2, 1, 1, 0);
        let input = QTensor::random(
            (shape.batch, shape.c_in, shape.h, shape.w),
            Layout::Nchw,
            BitWidth::W8,
            3,
        );
        let m = im2col_nchw(&input, &shape);
        assert_eq!(m.data, input.data());
    }

    #[test]
    fn weight_heavy_pointwise_layer_approaches_the_paper_minimum() {
        // Paper Fig. 13 minimum: 1.0218 on the weight-dominated late 1x1
        // layer (the duplicate activation is tiny next to the weights).
        let shape = ConvShape::new(1, 512, 7, 7, 2048, 1, 1, 0);
        let so = SpaceOverhead::for_shape(&shape, 16, 4);
        let f = so.im2col_factor();
        assert!((1.0..1.05).contains(&f), "got {f}");
    }

    #[test]
    fn early_3x3_layer_reproduces_the_paper_maximum() {
        // Paper Fig. 13 maximum: 8.6034 on the 64-channel 3x3 layer.
        let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        let so = SpaceOverhead::for_shape(&shape, 16, 4);
        assert!((so.im2col_factor() - 8.6034).abs() < 5e-4, "got {}", so.im2col_factor());
    }

    #[test]
    fn im2col_factor_is_never_below_one() {
        for shape in [
            ConvShape::new(1, 3, 224, 224, 64, 7, 2, 3),
            ConvShape::new(1, 256, 56, 56, 128, 1, 2, 0), // strided pointwise
            ConvShape::new(1, 512, 28, 28, 1024, 1, 2, 0),
        ] {
            let so = SpaceOverhead::for_shape(&shape, 16, 4);
            assert!(so.im2col_factor() >= 1.0, "{shape}: {}", so.im2col_factor());
        }
    }

    #[test]
    fn packing_overhead_is_small_and_bounded() {
        for shape in [
            ConvShape::new(1, 64, 56, 56, 64, 1, 1, 0),
            ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1),
            ConvShape::new(1, 512, 7, 7, 512, 3, 1, 1),
        ] {
            let so = SpaceOverhead::for_shape(&shape, 16, 4);
            let f = so.packing_factor();
            assert!(f >= 1.0, "padding can only add space");
            assert!(f < 1.05, "padding should be marginal, got {f}");
        }
    }

    #[test]
    fn zero_padding_regions_are_zero() {
        let shape = ConvShape::new(1, 1, 3, 3, 1, 3, 1, 1);
        let input = QTensor::random((1, 1, 3, 3), Layout::Nchw, BitWidth::W4, 9);
        let m = im2col_nchw(&input, &shape);
        // Column 0 = output pixel (0,0); kernel tap (0,0) reads input (-1,-1),
        // which is padding.
        assert_eq!(m.get(0, 0), 0);
        // Center tap of the kernel at output (1,1) reads input (1,1).
        let center_row = 3 + 1; // kr=1, kc=1 within the single channel
        assert_eq!(m.get(center_row, 4), input.get((0, 0, 1, 1)));
    }
}
