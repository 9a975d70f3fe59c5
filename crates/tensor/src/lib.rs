//! Quantized tensor substrate for the extremely low-bit convolution library.
//!
//! This crate hosts everything the kernel crates share:
//!
//! * [`BitWidth`] — the 2..=8-bit signed quantized types of the paper, with the
//!   *adjusted* value ranges of Sec. 3.3 (e.g. 8-bit is clamped to `[-127, 127]`
//!   so that two `SMLAL`s fit in a 16-bit accumulator),
//! * [`Tensor`] / [`QTensor`] — dense tensors in NCHW (ARM) or NHWC (GPU) layout,
//! * [`ConvShape`] — convolution problem geometry plus derived quantities
//!   (output size, MAC count, GEMM dimensions),
//! * [`im2col`] — the explicit GEMM lowering used on the ARM path, including the
//!   space-overhead accounting behind Fig. 13 of the paper,
//! * [`Fnv1a`] — the hash step every published fingerprint is built from.

#![forbid(unsafe_code)]

pub mod bits;
pub mod fnv;
pub mod im2col;
pub mod layout;
pub mod packed_bits;
pub mod shape;
pub mod tensor;

pub use bits::BitWidth;
pub use fnv::Fnv1a;
pub use im2col::{im2col_nchw, im2col_nchw_into, Im2colMatrix, SpaceOverhead};
pub use layout::Layout;
pub use packed_bits::PackedBits;
pub use shape::ConvShape;
pub use tensor::{QTensor, Tensor};
