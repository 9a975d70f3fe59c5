//! Convolution problem geometry.

use std::fmt;

/// Geometry of a 2-D convolution layer.
///
/// Matches the layers evaluated in the paper: square stride/padding, no
/// dilation, no groups (ResNet-50 / SCR-ResNet-50 / DenseNet-121 only use
/// plain convolutions). Ordered field by field, in declaration order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConvShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub pad: usize,
}

impl ConvShape {
    /// Convenience constructor for a square-kernel layer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        batch: usize,
        c_in: usize,
        h: usize,
        w: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> ConvShape {
        ConvShape {
            batch,
            c_in,
            h,
            w,
            c_out,
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Returns a copy with a different batch size.
    pub fn with_batch(mut self, batch: usize) -> ConvShape {
        self.batch = batch;
        self
    }

    /// Output height.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Number of multiply-accumulates in a direct convolution.
    #[inline]
    pub fn macs(&self) -> u64 {
        self.batch as u64
            * self.c_out as u64
            * self.out_h() as u64
            * self.out_w() as u64
            * self.c_in as u64
            * self.kh as u64
            * self.kw as u64
    }

    /// GEMM `M` dimension after im2col lowering (output channels).
    #[inline]
    pub fn gemm_m(&self) -> usize {
        self.c_out
    }

    /// GEMM `K` dimension after im2col lowering (`c_in * kh * kw`).
    #[inline]
    pub fn gemm_k(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// GEMM `N` dimension after im2col lowering (`batch * out_h * out_w`).
    #[inline]
    pub fn gemm_n(&self) -> usize {
        self.batch * self.out_h() * self.out_w()
    }

    /// Number of input elements (`batch * c_in * h * w`).
    #[inline]
    pub fn input_len(&self) -> usize {
        self.batch * self.c_in * self.h * self.w
    }

    /// Number of weight elements (`c_out * c_in * kh * kw`).
    #[inline]
    pub fn weight_len(&self) -> usize {
        self.c_out * self.c_in * self.kh * self.kw
    }

    /// Number of output elements (`batch * c_out * out_h * out_w`).
    #[inline]
    pub fn output_len(&self) -> usize {
        self.batch * self.c_out * self.out_h() * self.out_w()
    }

    /// `true` when the Winograd `F(2x2, 3x3)` fast path applies: 3x3 kernel,
    /// stride 1 (the per-bit range restriction is checked by the kernel).
    #[inline]
    pub fn winograd_applicable(&self) -> bool {
        self.kh == 3 && self.kw == 3 && self.stride == 1
    }

    /// Number of 2x2 output tiles `F(2x2, 3x3)` covers: `batch *
    /// ceil(out_h / 2) * ceil(out_w / 2)`, the N of its 16 position GEMMs.
    #[inline]
    pub fn winograd_tiles(&self) -> usize {
        self.batch * self.out_h().div_ceil(2) * self.out_w().div_ceil(2)
    }

    /// A cropped copy used by tests to validate big layers cheaply: clamps the
    /// spatial extent while keeping kernel/stride/padding structure intact.
    pub fn cropped(&self, max_hw: usize) -> ConvShape {
        let mut s = *self;
        s.h = s.h.min(max_hw.max(s.kh));
        s.w = s.w.min(max_hw.max(s.kw));
        s
    }
}

impl fmt::Display for ConvShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}x{} -> {} ({}x{} s{} p{})",
            self.batch, self.c_in, self.h, self.w, self.c_out, self.kh, self.kw, self.stride,
            self.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_stem_output_size() {
        // 7x7 s2 p3 over 224x224 -> 112x112.
        let s = ConvShape::new(1, 3, 224, 224, 64, 7, 2, 3);
        assert_eq!((s.out_h(), s.out_w()), (112, 112));
    }

    #[test]
    fn pointwise_preserves_spatial_size() {
        let s = ConvShape::new(1, 64, 56, 56, 256, 1, 1, 0);
        assert_eq!((s.out_h(), s.out_w()), (56, 56));
        assert_eq!(s.gemm_k(), 64);
        assert_eq!(s.gemm_n(), 56 * 56);
    }

    #[test]
    fn mac_count_matches_gemm_volume() {
        let s = ConvShape::new(2, 64, 56, 56, 64, 3, 1, 1);
        assert_eq!(
            s.macs(),
            (s.gemm_m() * s.gemm_n() * s.gemm_k()) as u64
        );
    }

    #[test]
    fn winograd_applicability() {
        assert!(ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1).winograd_applicable());
        assert!(!ConvShape::new(1, 64, 56, 56, 64, 3, 2, 1).winograd_applicable());
        assert!(!ConvShape::new(1, 64, 56, 56, 64, 1, 1, 0).winograd_applicable());
    }

    #[test]
    fn cropping_keeps_kernel_viable() {
        let s = ConvShape::new(1, 256, 56, 56, 64, 3, 1, 1).cropped(8);
        assert_eq!((s.h, s.w), (8, 8));
        let tiny = ConvShape::new(1, 3, 224, 224, 64, 7, 2, 3).cropped(4);
        assert!(tiny.h >= tiny.kh);
    }
}
