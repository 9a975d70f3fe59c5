//! Everything a workload feeds the program, generated from `--seed`:
//! weights, biases, activations and arrival times each draw from their own
//! stream, so one seed fixes every input and the program sees only the
//! generated tensors.

use lowbit::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent streams derived from the run seed.
pub const WEIGHTS: u64 = 1;
/// Per-channel bias stream.
pub const BIAS: u64 = 2;
/// Activation stream (offset by the input index).
pub const INPUTS: u64 = 1_000;
/// Open-loop arrival stream.
pub const ARRIVALS: u64 = 3;

/// The seed of one stream of the run seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// A float activation with values uniform in `[-1, 1)`.
pub fn float_input(dims: (usize, usize, usize, usize), seed: u64) -> Tensor<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = dims.0 * dims.1 * dims.2 * dims.3;
    Tensor::from_vec(
        dims,
        Layout::Nchw,
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    )
}

/// A serving request input: [`float_input`] with its first element pinned to
/// 1.0, so its calibration maximum is exactly 1.0 and a batch of such inputs
/// (plus zero padding) quantizes every row exactly as it would alone.
pub fn serving_input(dims: (usize, usize, usize, usize), seed: u64) -> Tensor<f32> {
    let mut t = float_input(dims, seed);
    t.data_mut()[0] = 1.0;
    t
}

/// A per-output-channel bias of the magnitude of one accumulator standard
/// deviation (`sqrt(K) * qmax`), so it shifts outputs without saturating
/// them.
pub fn seeded_bias(shape: &ConvShape, bits: BitWidth, seed: u64) -> Vec<i32> {
    let bound = ((shape.gemm_k() as f64).sqrt() * bits.qmax() as f64).max(1.0) as i32;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..shape.c_out)
        .map(|_| rng.gen_range(-bound..=bound))
        .collect()
}

/// FNV-1a over a stream of words (one word per element keeps hashing a
/// large output cheap next to computing it).
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn dims_words((a, b, c, d): (usize, usize, usize, usize)) -> impl Iterator<Item = u64> {
    [a, b, c, d].into_iter().map(|x| x as u64)
}

/// Bit-exact digest of a float output: its dims and every element's bits.
pub fn digest_f32(t: &Tensor<f32>) -> u64 {
    fnv(dims_words(t.dims()).chain(t.data().iter().map(|v| u64::from(v.to_bits()))))
}

/// Bit-exact digest of an accumulator tensor.
pub fn digest_i32(t: &Tensor<i32>) -> u64 {
    fnv(dims_words(t.dims()).chain(t.data().iter().map(|&v| u64::from(v as u32))))
}

/// Digest of a sequence of digests (one sweep's per-layer outputs).
pub fn digest_all(parts: &[u64]) -> u64 {
    fnv(parts.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        let a = float_input((1, 3, 4, 4), 7);
        assert_eq!(digest_f32(&a), digest_f32(&float_input((1, 3, 4, 4), 7)));
        assert_ne!(digest_f32(&a), digest_f32(&float_input((1, 3, 4, 4), 8)));
        assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));
        let s = serving_input((1, 3, 4, 4), 7);
        assert_eq!(s.data()[0], 1.0);
        assert_eq!(&s.data()[1..], &a.data()[1..]);
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(sub_seed(1, WEIGHTS), sub_seed(1, BIAS));
        assert_ne!(sub_seed(1, WEIGHTS), sub_seed(2, WEIGHTS));
    }
}
