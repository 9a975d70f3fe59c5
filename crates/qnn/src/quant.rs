//! Linear symmetric quantization (zero point 0), the scheme the paper adopts
//! from DSQ/LSQ-style training work — performance kernels see only the
//! integer values and the scales.

use lowbit_tensor::{BitWidth, Layout, QTensor, Tensor};

/// A per-tensor symmetric quantizer: `real ≈ scale * q` with
/// `q ∈ [qmin(bits), qmax(bits)]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Quantizer {
    /// Target bit width.
    pub bits: BitWidth,
    /// Scale (real units per quantization step).
    pub scale: f32,
}

impl Quantizer {
    /// Calibrates a quantizer from the maximum absolute value of the data.
    ///
    /// NaN elements are ignored and an infinite element gives an infinite
    /// scale; [`Quantizer::calibrate_finite`] refuses both instead.
    pub fn calibrate(bits: BitWidth, data: &[f32]) -> Quantizer {
        Quantizer::from_max_abs(bits, abs_max(data).0)
    }

    /// [`Quantizer::calibrate`] for data that must be finite: in the same
    /// pass over `data`, detects a NaN or ±inf element and returns the index
    /// of the first one as the error.
    pub fn calibrate_finite(bits: BitWidth, data: &[f32]) -> Result<Quantizer, usize> {
        match abs_max(data) {
            (max_abs, true) => Ok(Quantizer::from_max_abs(bits, max_abs)),
            (_, false) => Err(data.iter().position(|v| !v.is_finite()).unwrap_or(0)),
        }
    }

    fn from_max_abs(bits: BitWidth, max_abs: f32) -> Quantizer {
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / bits.qmax() as f32
        };
        Quantizer { bits, scale }
    }

    /// Quantizes one value.
    #[inline]
    pub fn quantize(&self, v: f32) -> i8 {
        round_clamp(v / self.scale, self.bits.qmin() as i32, self.bits.qmax() as i32)
    }

    /// Dequantizes one value.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }
}

/// `(max |v| over the non-NaN elements, whether every element is finite)`,
/// in one pass that vectorizes (the finiteness flag is an OR reduction next
/// to the max reduction).
fn abs_max(data: &[f32]) -> (f32, bool) {
    let (max_abs, non_finite) = data
        .iter()
        .fold((0f32, false), |(m, bad), v| (m.max(v.abs()), bad | !v.is_finite()));
    (max_abs, !non_finite)
}

/// Rounds `y` half away from zero (`f32::round`), converts it with a
/// saturating `as i32` and clamps to `[lo, hi]` (`|lo|, |hi| <= 128`), in
/// branch-free f32/i32 arithmetic that vectorizes on baseline x86-64, where
/// `f32::round` is a `roundf` call (no SSE4.1 `roundss`) and the saturating
/// conversion is scalarized.
///
/// Exact for every `f32`, ±0, ±inf and NaN included (the tests check it
/// against that formula on all 2^32 inputs). NaN becomes 0, as the
/// saturating conversion makes it. Clamping to `[lo, hi]` first commutes
/// with rounding because the bounds are integers and rounding is monotone,
/// and it keeps `|y| <= 128`. Adding `1.5 * 2^23` then lands in
/// `[2^23, 2^24)`, where the f32 spacing is 1, so the sum is `y` rounded to
/// nearest with ties to even, and its low mantissa bits are that integer.
/// The remainder `d = y - r` is exact; the two ties that ties-to-even sends
/// toward zero (`d = 0.5` above zero, `d = -0.5` below) move one step away
/// from zero.
#[inline(always)]
fn round_clamp(y: f32, lo: i32, hi: i32) -> i8 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let y = if y.is_nan() { 0.0 } else { y }.max(lo as f32).min(hi as f32);
    let m = y + MAGIC;
    let d = y - (m - MAGIC);
    let away = (d == 0.5 && y > 0.0) as i32 - (d == -0.5 && y < 0.0) as i32;
    (m.to_bits() as i32 - MAGIC.to_bits() as i32 + away) as i8
}

/// Quantizes an `f32` tensor into a [`QTensor`].
pub fn quantize_f32(t: &Tensor<f32>, quantizer: &Quantizer) -> QTensor {
    let mut data = vec![0i8; t.data().len()];
    for (o, &v) in data.iter_mut().zip(t.data()) {
        *o = quantizer.quantize(v);
    }
    QTensor::new(
        Tensor::from_vec(t.dims(), t.layout(), data),
        quantizer.bits,
        quantizer.scale,
    )
}

/// Dequantizes an i32 accumulator tensor with the combined scale
/// `scale_in * scale_w` (the conv+dequantization fusion writes this
/// directly).
pub fn dequantize_i32(acc: &Tensor<i32>, combined_scale: f32) -> Tensor<f32> {
    let data: Vec<f32> = acc
        .data()
        .iter()
        .map(|&v| v as f32 * combined_scale)
        .collect();
    Tensor::from_vec(acc.dims(), acc.layout(), data)
}

/// Re-quantization parameters: i32 accumulators back to `bits`-wide integers.
///
/// `clamp_min` is adjustable: the conv+ReLU fusion of Sec. 4.4 sets it to 0,
/// which folds the ReLU into the truncation for free.
///
/// ```
/// use lowbit_qnn::RequantParams;
/// use lowbit_tensor::BitWidth;
///
/// let rq = RequantParams::new(BitWidth::W8, 0.5);
/// assert_eq!(rq.apply(-10), -5);
/// assert_eq!(rq.with_relu().apply(-10), 0); // fused ReLU truncation
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RequantParams {
    /// Output bit width.
    pub bits: BitWidth,
    /// Combined multiplier `scale_in * scale_w / scale_out`.
    pub multiplier: f32,
    /// Lower truncation bound (defaults to `bits.qmin()`).
    pub clamp_min: i8,
}

impl RequantParams {
    /// Standard re-quantization into the adjusted range of `bits`.
    pub fn new(bits: BitWidth, multiplier: f32) -> RequantParams {
        RequantParams {
            bits,
            multiplier,
            clamp_min: bits.qmin(),
        }
    }

    /// The conv+ReLU-fused variant: truncation range starts at 0.
    pub fn with_relu(mut self) -> RequantParams {
        self.clamp_min = 0;
        self
    }

    /// Applies to one accumulator.
    #[inline]
    pub fn apply(&self, acc: i32) -> i8 {
        self.apply_biased(acc, 0)
    }

    /// [`RequantParams::apply`] to `acc + bias`, added with wrapping so that
    /// debug and release builds agree.
    #[inline(always)]
    fn apply_biased(&self, acc: i32, bias: i32) -> i8 {
        let y = acc.wrapping_add(bias) as f32 * self.multiplier;
        round_clamp(y, self.clamp_min as i32, self.bits.qmax() as i32)
    }
}

/// Re-quantizes an accumulator tensor.
pub fn requantize(acc: &Tensor<i32>, params: &RequantParams) -> QTensor {
    requantize_with_bias(acc, None, params)
}

/// The fused conv epilogue on the host: adds `bias[c]` (wrapping) to every
/// accumulator of channel `c` and re-quantizes, in one pass over contiguous
/// runs: one `h*w` plane per channel in NCHW, one `c`-long pixel in NHWC.
/// `None` is [`requantize`].
///
/// # Panics
///
/// If a bias is given whose length is not the channel count.
pub fn requantize_with_bias(
    acc: &Tensor<i32>,
    bias: Option<&[i32]>,
    params: &RequantParams,
) -> QTensor {
    let (_, c, h, w) = acc.dims();
    if let Some(bias) = bias {
        assert_eq!(bias.len(), c, "one bias per channel");
    }
    let src = acc.data();
    let mut data = vec![0i8; src.len()];
    match (bias, acc.layout()) {
        _ if src.is_empty() => {}
        (None, _) => {
            for (o, &v) in data.iter_mut().zip(src) {
                *o = params.apply(v);
            }
        }
        (Some(bias), Layout::Nchw) => {
            let planes = data.chunks_exact_mut(h * w).zip(src.chunks_exact(h * w));
            for ((out, plane), &b) in planes.zip(bias.iter().cycle()) {
                for (o, &v) in out.iter_mut().zip(plane) {
                    *o = params.apply_biased(v, b);
                }
            }
        }
        (Some(bias), Layout::Nhwc) => {
            for (out, pixel) in data.chunks_exact_mut(c).zip(src.chunks_exact(c)) {
                for ((o, &v), &b) in out.iter_mut().zip(pixel).zip(bias) {
                    *o = params.apply_biased(v, b);
                }
            }
        }
    }
    QTensor::new(
        Tensor::from_vec(acc.dims(), acc.layout(), data),
        params.bits,
        1.0, // output scale is carried by the enclosing graph
    )
}

/// Convenience: an all-zeros f32 tensor quantized at `bits` (used by tests).
pub fn zeros_q(dims: (usize, usize, usize, usize), layout: Layout, bits: BitWidth) -> QTensor {
    QTensor::new(Tensor::zeros(dims, layout), bits, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-vectorization formula, kept only as the oracle for
    /// [`round_clamp`].
    fn round_oracle(y: f32, lo: i32, hi: i32) -> i8 {
        (y.round() as i32).clamp(lo, hi) as i8
    }

    const MULTIPLIERS: [f32; 10] =
        [0.5, 0.25, 1.0, 1e-9, 3.0, -0.5, 0.037, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

    #[test]
    fn requant_and_quantize_match_the_round_oracle() {
        let edges = [i32::MIN, i32::MIN + 1, i32::MAX - 1, i32::MAX];
        let accs: Vec<i32> = (-(1 << 17)..=(1 << 17)).chain(edges).collect();
        for bits in BitWidth::ALL {
            for m in MULTIPLIERS {
                let p = RequantParams::new(bits, m);
                for p in [p, p.with_relu()] {
                    let (lo, hi) = (p.clamp_min as i32, bits.qmax() as i32);
                    for &acc in &accs {
                        let want = round_oracle(acc as f32 * m, lo, hi);
                        assert_eq!(p.apply(acc), want, "{bits} m={m} relu_lo={lo} acc={acc}");
                    }
                }
                // Quarter steps hit every rounding tie; dividing by the
                // reciprocal scale walks the same values as the multiplier.
                let q = Quantizer { bits, scale: 1.0 / m };
                let (lo, hi) = (bits.qmin() as i32, bits.qmax() as i32);
                for &acc in &accs {
                    let v = acc as f32 * 0.25;
                    let want = round_oracle(v / q.scale, lo, hi);
                    assert_eq!(q.quantize(v), want, "{bits} scale={} v={v}", q.scale);
                }
            }
        }
    }

    /// Every f32 bit pattern through the helper at the W8 and ReLU-W8
    /// bounds; about a minute in release:
    /// `cargo test --release -p lowbit-qnn -- --ignored`.
    #[test]
    #[ignore]
    fn round_clamp_matches_the_oracle_on_every_f32() {
        let w8 = BitWidth::W8;
        let bounds = [(w8.qmin() as i32, w8.qmax() as i32), (0, w8.qmax() as i32)];
        for bits in 0..=u32::MAX {
            let y = f32::from_bits(bits);
            for (lo, hi) in bounds {
                assert_eq!(round_clamp(y, lo, hi), round_oracle(y, lo, hi), "{bits:#010x}");
            }
        }
    }

    #[test]
    fn abs_max_ignores_nan_flags_non_finite_and_matches_the_float_fold() {
        let fold = |d: &[f32]| d.iter().fold(0f32, |m, v| m.max(v.abs()));
        let finite = [0.5f32, -2.0, -0.0, 1e-40, 3.25, -3.5];
        assert_eq!(abs_max(&finite), (3.5, true));
        assert_eq!(abs_max(&[]), (0.0, true));
        for (i, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY].into_iter().enumerate() {
            let mut d = finite.to_vec();
            d.insert(2, bad);
            let (m, ok) = abs_max(&d);
            assert!(!ok, "{bad}");
            assert_eq!(m.to_bits(), fold(&d).to_bits(), "calibrate keeps its old value");
            assert_eq!(Quantizer::calibrate_finite(BitWidth::W8, &d), Err(2), "case {i}");
        }
        assert_eq!(
            Quantizer::calibrate_finite(BitWidth::W4, &finite),
            Ok(Quantizer::calibrate(BitWidth::W4, &finite))
        );
    }

    #[test]
    fn calibration_maps_max_to_qmax() {
        let data = vec![0.5f32, -2.0, 1.0];
        let q = Quantizer::calibrate(BitWidth::W4, &data);
        assert_eq!(q.quantize(2.0), 7);
        assert_eq!(q.quantize(-2.0), -7); // symmetric clamp at -qmax... -2.0/s = -7
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn quantize_clamps_to_adjusted_range() {
        let q = Quantizer { bits: BitWidth::W8, scale: 1.0 };
        assert_eq!(q.quantize(1000.0), 127);
        assert_eq!(q.quantize(-1000.0), -127); // adjusted range, not -128
    }

    #[test]
    fn round_trip_error_is_at_most_half_step() {
        let q = Quantizer::calibrate(BitWidth::W6, &[1.0]);
        for i in -30..=30 {
            let v = i as f32 / 30.0;
            let err = (q.dequantize(q.quantize(v)) - v).abs();
            assert!(err <= q.scale / 2.0 + 1e-6, "v={v} err={err}");
        }
    }

    #[test]
    fn requant_standard_vs_relu_clamp() {
        let p = RequantParams::new(BitWidth::W8, 0.5);
        assert_eq!(p.apply(-10), -5);
        assert_eq!(p.apply(10), 5);
        let pr = p.with_relu();
        assert_eq!(pr.apply(-10), 0, "fused ReLU truncates negatives");
        assert_eq!(pr.apply(10), 5);
    }

    #[test]
    fn requant_relu_equals_relu_then_requant() {
        // The Sec. 4.4 fusion argument: clamping at 0 during requantization
        // is exactly ReLU on the dequantized value (zero point 0).
        let p = RequantParams::new(BitWidth::W6, 0.037);
        let pr = p.with_relu();
        for acc in [-100_000, -37, -1, 0, 1, 12345, 100_000] {
            let fused = pr.apply(acc);
            let unfused = p.apply(acc).max(0);
            assert_eq!(fused, unfused, "acc={acc}");
        }
    }

    #[test]
    fn dequantize_i32_scales() {
        let t = Tensor::from_vec((1, 1, 1, 3), Layout::Nchw, vec![2i32, -4, 0]);
        let f = dequantize_i32(&t, 0.25);
        assert_eq!(f.data(), &[0.5, -1.0, 0.0]);
    }

    #[test]
    fn tensor_quantization_respects_layout() {
        let t = Tensor::from_vec((1, 2, 1, 2), Layout::Nhwc, vec![0.9f32, -0.9, 0.1, 0.4]);
        let q = quantize_f32(&t, &Quantizer { bits: BitWidth::W4, scale: 0.15 });
        assert_eq!(q.layout(), Layout::Nhwc);
        assert_eq!(q.data()[0], 6);
        assert_eq!(q.data()[1], -6);
    }
}
