//! Linear symmetric quantization (zero point 0), the scheme the paper adopts
//! from DSQ/LSQ-style training work — performance kernels see only the
//! integer values and the scales.

use lowbit_isa::Isa;
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
        Quantizer::from_max_abs(bits, abs_max_on(Isa::host(), data).0)
    }

    /// [`Quantizer::calibrate`] for data that must be finite: in the same
    /// pass over `data`, detects a NaN or ±inf element and returns the index
    /// of the first one as the error.
    pub fn calibrate_finite(bits: BitWidth, data: &[f32]) -> Result<Quantizer, usize> {
        match abs_max_on(Isa::host(), data) {
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
    #[inline(always)]
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
/// in one pass over [`LANES`] independent accumulators so that it
/// vectorizes: next to the float max, an integer max over the magnitude bits
/// reaches the infinity pattern exactly when some element is ±inf or NaN.
/// Max is associative and commutative (NaN operands are skipped), so the
/// lane order does not change the result.
#[inline(always)]
fn abs_max(data: &[f32]) -> (f32, bool) {
    let mut max_abs = [0f32; LANES];
    let mut max_bits = [0u32; LANES];
    let chunks = data.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for ((m, b), v) in max_abs.iter_mut().zip(&mut max_bits).zip(chunk) {
            *m = m.max(v.abs());
            *b = (*b).max(v.to_bits() & 0x7fff_ffff);
        }
    }
    for ((m, b), v) in max_abs.iter_mut().zip(&mut max_bits).zip(tail) {
        *m = m.max(v.abs());
        *b = (*b).max(v.to_bits() & 0x7fff_ffff);
    }
    let bits = max_bits.iter().fold(0, |a, &b| a.max(b));
    (max_abs.iter().fold(0f32, |a, &b| a.max(b)), bits < f32::INFINITY.to_bits())
}

/// Independent accumulator lanes of [`abs_max`]: one 512-bit vector of
/// f32.
const LANES: usize = 16;

/// [`abs_max`] compiled for `isa`.
fn abs_max_on(isa: Isa, data: &[f32]) -> (f32, bool) {
    isa.run(
        #[inline(always)]
        || abs_max(data),
    )
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
    Isa::host().run(
        #[inline(always)]
        || {
            for (o, &v) in data.iter_mut().zip(t.data()) {
                *o = quantizer.quantize(v);
            }
        },
    );
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
    #[inline(always)]
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
    let layout = acc.layout();
    Isa::host().run(
        #[inline(always)]
        || requantize_into(src, bias, layout, (c, h * w), params, &mut data),
    );
    QTensor::new(
        Tensor::from_vec(acc.dims(), acc.layout(), data),
        params.bits,
        1.0, // output scale is carried by the enclosing graph
    )
}

/// The pass of [`requantize_with_bias`] over `src` with `(channels,
/// pixels)` per image, into `out`.
#[inline(always)]
fn requantize_into(
    src: &[i32],
    bias: Option<&[i32]>,
    layout: Layout,
    (c, hw): (usize, usize),
    params: &RequantParams,
    out: &mut [i8],
) {
    match (bias, layout) {
        _ if src.is_empty() => {}
        (None, _) => {
            for (o, &v) in out.iter_mut().zip(src) {
                *o = params.apply(v);
            }
        }
        (Some(bias), Layout::Nchw) => {
            let planes = out.chunks_exact_mut(hw).zip(src.chunks_exact(hw));
            for ((out, plane), &b) in planes.zip(bias.iter().cycle()) {
                for (o, &v) in out.iter_mut().zip(plane) {
                    *o = params.apply_biased(v, b);
                }
            }
        }
        (Some(bias), Layout::Nhwc) => {
            for (out, pixel) in out.chunks_exact_mut(c).zip(src.chunks_exact(c)) {
                for ((o, &v), &b) in out.iter_mut().zip(pixel).zip(bias) {
                    *o = params.apply_biased(v, b);
                }
            }
        }
    }
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
    /// bounds, as a slice pass compiled for each supported ISA (the form
    /// the glue passes run in); about a minute in release:
    /// `cargo test --release -p lowbit-qnn -- --ignored`.
    #[test]
    #[ignore]
    fn round_clamp_matches_the_oracle_on_every_f32() {
        let w8 = BitWidth::W8;
        let bounds = [(w8.qmin() as i32, w8.qmax() as i32), (0, w8.qmax() as i32)];
        let isas = Isa::supported();
        let mut ys = vec![0f32; 1 << 16];
        let mut got = vec![0i8; 1 << 16];
        for high in 0..1u32 << 16 {
            for (low, y) in (0u32..).zip(ys.iter_mut()) {
                *y = f32::from_bits(high << 16 | low);
            }
            for (lo, hi) in bounds {
                let want: Vec<i8> = ys.iter().map(|&y| round_oracle(y, lo, hi)).collect();
                for &isa in &isas {
                    isa.run(
                        #[inline(always)]
                        || {
                            for (g, &y) in got.iter_mut().zip(&ys) {
                                *g = round_clamp(y, lo, hi);
                            }
                        },
                    );
                    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                        let bits = ys[i].to_bits();
                        panic!("{isa} [{lo}, {hi}] {bits:#010x}: {} != {}", got[i], want[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn abs_max_ignores_nan_flags_non_finite_and_matches_the_float_fold() {
        let fold = |d: &[f32]| d.iter().fold(0f32, |m, v| m.max(v.abs()));
        let finite = [0.5f32, -2.0, -0.0, 1e-40, 3.25, -3.5];
        assert_eq!(abs_max(&finite), (3.5, true));
        assert_eq!(abs_max(&[]), (0.0, true));
        // Longer than the accumulator lanes, with the maximum and one
        // non-finite element in every lane position and in the tail.
        let long: Vec<f32> = (0..4 * LANES + 5).map(|i| (i as f32 * 0.37).sin()).collect();
        for isa in Isa::supported() {
            assert_eq!(abs_max_on(isa, &long), (fold(&long), true), "{isa}");
            for at in 0..long.len() {
                let mut d = long.clone();
                d[at] = -9.0;
                assert_eq!(abs_max_on(isa, &d), (9.0, true), "{isa} max at {at}");
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    d[at] = bad;
                    let (m, ok) = abs_max_on(isa, &d);
                    assert!(!ok, "{isa} {bad} at {at}");
                    assert_eq!(m.to_bits(), fold(&d).to_bits(), "{isa} {bad} at {at}");
                }
            }
        }
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
    fn glue_passes_match_the_per_element_helpers() {
        // The passes run on the host ISA; `apply`/`quantize` called one
        // element at a time outside them compile for the baseline.
        let accs: Vec<i32> = (0..2 * 3 * 5 * 7).map(|i| (i * 7919 % 4001) - 2000).collect();
        let bias = [-300, 0, 450];
        let rq = RequantParams::new(BitWidth::W6, 0.0371);
        for layout in [Layout::Nchw, Layout::Nhwc] {
            let acc = Tensor::from_vec((2, 3, 5, 7), layout, accs.clone());
            let channel = |i: usize| match layout {
                Layout::Nchw => i / 35 % 3,
                Layout::Nhwc => i % 3,
            };
            let biased = |(i, &v): (usize, &i32)| rq.apply_biased(v, bias[channel(i)]);
            let want: Vec<i8> = accs.iter().enumerate().map(biased).collect();
            let got = requantize_with_bias(&acc, Some(&bias), &rq);
            assert_eq!(got.data(), &want[..], "{layout:?}");
            let plain: Vec<i8> = accs.iter().map(|&v| rq.apply(v)).collect();
            assert_eq!(requantize(&acc, &rq).data(), &plain[..], "{layout:?}");
        }
        let xs: Vec<f32> = accs.iter().map(|&v| v as f32 * 0.013).collect();
        let q = Quantizer::calibrate(BitWidth::W4, &xs);
        let t = Tensor::from_vec((2, 3, 5, 7), Layout::Nchw, xs.clone());
        let want: Vec<i8> = xs.iter().map(|&v| q.quantize(v)).collect();
        assert_eq!(quantize_f32(&t, &q).data(), &want[..]);
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
