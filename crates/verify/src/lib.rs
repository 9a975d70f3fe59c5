//! # lowbit-verify — static verifiers for kernels, plans and schedules
//!
//! Four verifier families prove, without executing, what the workspace's
//! tests can only sample: the emitted NEON streams (below), the GPU tile
//! configurations ([`gpu`]), whole execution plans ([`plan`]) and parallel
//! node schedules ([`conc`]).
//!
//! The low-bit kernels in this workspace (paper Sec. 3.3, Alg. 1) are only
//! correct because of a numeric contract: every `SMLAL`/`MLA` partial sum
//! must be drained by `SADDW` *before* its i16/i8 intermediate can wrap, and
//! the hand-made register allocation must never clobber a live partial.
//! The interpreter in `neon-sim` can test that contract on sample inputs;
//! this crate **proves** it for all inputs in the declared operand ranges,
//! by abstract interpretation of the emitted instruction streams over a
//! per-lane interval domain.
//!
//! Three analyses compose into [`verify_stream`]:
//!
//! * [`absint::check_stream`] — interval analysis proving every
//!   intermediate fits its width and every store writes defined i32 data
//!   inside the output span;
//! * [`lint::lint_stream`] — register-discipline dataflow pass proving no
//!   live value is clobbered or silently dropped (Alg. 1's allocation
//!   contract);
//! * [`geometry::check_spans`] — structural proof that the parallel GEMM's
//!   per-thread column slices partition the output.
//!
//! The GPU path gets the structural analogue in [`gpu`]:
//! [`gpu::verify_gpu_plan`] lifts a `ConvGpuPlan` into its typed
//! access-descriptor stream and proves the Alg. 2 tiling partitions the
//! GEMM exactly, the Fig. 5 reordered shared-memory traffic is
//! bank-conflict-free (with the un-reordered layout as a conflicting
//! negative witness), the Fig. 6 register double-buffer schedule is
//! hazard-free, and the launch fits the device's hard limits.
//!
//! On top of both per-kernel layers sits the whole-plan pass in [`plan`]:
//! [`plan::verify_plan`] takes the backend-neutral lowering of a compiled
//! `ExecutionPlan` and proves the *composition* — activation ranges
//! propagate through every layer without i32 overflow and land inside the
//! operand ranges the stream proofs assumed, every value kept NHWC sits
//! between NHWC-native kernels only, and the declared workspace figures
//! dominate what the engines will actually request. The plan's tables —
//! its layers ([`LayerPlan`] with [`PlanAlgo`] and [`Epilogue`]), nodes
//! ([`NodePlan`], [`PlanOp`]) and values ([`ValuePlan`]) — are defined in
//! [`plan`] and re-exported by core, so a
//! lowering carries the tables the executor runs, cloned, not a mirror of
//! them: a [`LayerSpec`] is a plan layer plus its channel weight sums.
//!
//! The fourth family, [`conc`], certifies *concurrency*:
//! [`conc::verify_conc`] lifts every DAG node to a typed memory footprint
//! (activation-arena spans, GEMM workspace slices, per-thread column
//! partitions) and proves a proposed wave-parallel schedule sound — every
//! pair of nodes that may run concurrently has disjoint footprints, the
//! arena packing stays sound under wave-coarsened lifetimes, and an FNV-1a
//! digest seals the certificate the executor demands before racing any
//! nodes.
//!
//! The `lowbit-verify` binary (crate `lowbit-verify-cli`) sweeps the
//! [`streams::standard_cases`] catalog (every bit width 2–8, both schemes,
//! Winograd-inflated ranges, baselines and whole GEMM programs) and fails
//! on any unproven stream; `lowbit-verify --gpu` does the same over every
//! tile configuration the GPU tuner can emit, `lowbit-verify --plan`
//! over compiled demo and ResNet-50 bottleneck plans at every supported
//! bit width plus a seeded plan-mutant catalog, and `lowbit-verify --conc`
//! over the parallel schedules of every DAG block at every width plus a
//! schedule-mutant catalog. CI runs all four on every push.

#![forbid(unsafe_code)]

pub mod absint;
pub mod conc;
pub mod geometry;
pub mod gpu;
pub mod interval;
pub mod lint;
pub mod plan;
pub mod report;
pub mod streams;

pub use absint::{check_stream, OperandBounds};
pub use conc::{
    build_schedule, reachability, schedule_digest, verify_conc, ConcNode, ConcProof, ConcSpec,
    ConcViolation, GemmFootprint, MemSpan, ScheduleSpec,
};
pub use geometry::{check_partition, check_spans};
pub use gpu::{
    check_staging, check_tiling, verify_gpu_plan, verify_tile_config, GpuProof, GpuViolation,
};
pub use interval::Interval;
pub use lint::lint_stream;
pub use plan::{
    arena_high_water, arm_workspace_requirement, verify_plan, workspace_requirement,
    ArenaRequirement, BackendKind, ChannelSums, Epilogue, LayerPlan, LayerSpec, NodePlan, PlanAlgo,
    PlanOp, PlanProof, PlanSpec, PlanViolation, ValuePlan,
};
pub use report::{StreamProof, Violation};
pub use streams::{
    baseline_cases, direct_cases, gemm_cases, standard_cases, winograd_cases, VerifyCase,
};

use lowbit_qgemm::KernelStream;

/// Runs the full static check on one stream: the register-discipline lint
/// followed by the interval analysis. Returns the proof certificate of the
/// interval pass.
pub fn verify_stream(
    stream: &KernelStream,
    bounds: &OperandBounds,
) -> Result<StreamProof, Violation> {
    lint_stream(&stream.prog)?;
    check_stream(stream, bounds)
}

/// Verifies one catalog case.
pub fn verify_case(case: &VerifyCase) -> Result<StreamProof, Violation> {
    verify_stream(&case.stream, &case.bounds)
}
