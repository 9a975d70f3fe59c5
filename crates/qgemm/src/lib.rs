//! The re-designed low-bit GEMM of the paper's Sec. 3.
//!
//! This crate implements, for an ARMv8.1-like target (the [`neon_sim`]
//! substrate):
//!
//! * [`scheme`] — the two instruction schemes of Fig. 3 (`SMLAL`+`SADDW` for
//!   4–8 bit, `MLA`+`SADDW` for 2–3 bit) with the published saturation-safe
//!   accumulation ratios, plus the ncnn-like baseline's drain-free scheme
//!   (i16 operands into i32), which runs on the narrow tile,
//! * [`pack`] — the data padding and packing of Fig. 2 (`n_a = 16` elements
//!   per column of A, `n_b = 4` elements per row of B),
//! * [`micro`] — the 16x4 register-tiled micro-kernel of Alg. 1 in three
//!   consistent forms: a fast functional path, an analytic instruction-count
//!   schedule, and an emitter to [`neon_sim`] instructions; the functional
//!   path runs a register block of consecutive A tiles per dispatch on the
//!   host's widest vector ISA through [`lowbit_isa::Isa`] (same source and
//!   same bits on every ISA and at every block size),
//! * [`mod@gemm`] — the one-shot GEMM and the ncnn baseline's (pack A, then
//!   the [`parallel`] driver at one thread) with their pipeline schedule,
//!   and the i32 reference oracle,
//! * [`traditional`] — the Fig. 1(a) traditional GEMM used for the Eq. 1–4
//!   load/arithmetic ablation,
//! * [`narrow`] — an 8x4 spill-free micro-kernel variant that wins at tight
//!   drain ratios (extension; see its module docs); under the ncnn scheme
//!   it is the baseline's host kernel,
//! * [`sdot`] — the ARMv8.2 `SDOT` path that makes the drain machinery
//!   unnecessary on newer cores (extension; Sec. 2.3's forward pointer),
//! * [`parallel`] — the one tiled driver of the wide, narrow and SDOT
//!   kernels, and the only host loop over GEMM tiles: column spans over N
//!   with per-span cache-blocked B panels, register blocks of A tiles
//!   against each B tile, bit-exact versus the i32 reference for every
//!   thread count; its [`parallel::fan_out`] is the one place the ARM path
//!   starts threads (the caller runs the first job, each other job gets a
//!   scoped thread),
//! * [`workspace`] — the caller-owned scratch arena that repeated GEMM
//!   calls stop growing after the first (a call still allocates its small,
//!   shape-independent span and share lists).

#![forbid(unsafe_code)]

pub mod emit_gemm;
pub mod gemm;
pub mod micro;
pub mod narrow;
pub mod pack;
pub mod parallel;
pub mod sdot;
pub mod scheme;
pub mod stream;
pub mod traditional;
pub mod workspace;

pub use emit_gemm::{emit_gemm, GemmLayout};
pub use gemm::{gemm, GemmOutput};
pub use narrow::{gemm_narrow, schedule_gemm_narrow};
pub use parallel::{partition_columns, threads_from_env, ColumnSpan, ParallelConfig, SharedWeights};
pub use sdot::{gemm_sdot, schedule_gemm_sdot};
pub use pack::{pack_a, pack_b, PackedA, PackedB, NA, NB};
pub use scheme::{Scheme, SchemeError, SchemeKind};
pub use stream::{
    gemm_stream, tile_stream_narrow, tile_stream_ncnn, tile_stream_sdot, tile_stream_wide,
    KernelStream, OperandRegion,
};
pub use workspace::{GemmWorkspace, WorkspaceStats};
