//! GPU-side extremely low-bit convolution (paper Sec. 4) on the
//! `turing-sim` substrate.
//!
//! The pipeline is the implicit-precomp-GEMM convolution of Alg. 2:
//!
//! * [`precomp`] — the precomputed offset buffer (Sec. 4.2: offsets, not
//!   pointers, computed once per shape; 0.5–50 KB),
//! * [`tiling`] — the data-partition parameters (`MTile`, `NTile`, `KTile`,
//!   `KStep`, `blockRow/ColWarpNum`) mapping the GEMM onto grid, block and
//!   warp (Fig. 4),
//! * [`implicit_gemm`] — the kernel itself: a functional execution path
//!   driven by `mma` fragment semantics, and an analytic
//!   [`turing_sim::KernelDesc`] carrying the memory-optimization choices of
//!   Sec. 4.3 (coalesced `int4` vector loads, Fig. 5 shared-memory
//!   reordering, Fig. 6 register double-buffering, in-place bias +
//!   re-quantization),
//! * [`tuning`] — profile-run auto-search over tiling parameters (Fig. 11),
//! * [`fusion`] — the Sec. 4.4 quantization fusions (Fig. 12),
//! * [`baselines`] — cuDNN-like (dp4a) and TensorRT-like (tuned int8 Tensor
//!   Core) comparison models.

#![forbid(unsafe_code)]

pub mod access;
pub mod baselines;
pub mod fusion;
pub mod implicit_gemm;
pub mod precomp;
pub mod tiling;
pub mod tuning;

pub use access::{GpuAccessStream, TileSpan, TilingLevels};
pub use implicit_gemm::{ConvGpuPlan, MemOpts};
pub use precomp::Precomp;
pub use tiling::{TileConfig, TileRejection};
pub use tuning::{auto_search, default_config, search_space, search_space_stats, SearchStats};
