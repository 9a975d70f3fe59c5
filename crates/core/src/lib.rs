//! **lowbit** — extremely low-bit convolution for quantized neural networks
//! on ARM-like CPUs (2–8 bit) and Turing-like GPUs (4/8 bit).
//!
//! This is the umbrella crate of the ICPP'20 reproduction: it exposes one
//! engine per platform with automatic algorithm/tile selection, a
//! plan/execute compiler over both ([`Planner`] compiles a [`Network`] into
//! a typed [`ExecutionPlan`]; [`Executor`] runs any plan through the
//! [`Backend`] trait), and re-exports every substrate crate for advanced
//! use.
//!
//! ```
//! use lowbit::prelude::*;
//!
//! // Compile the demo network into an execution plan (offline phase) and
//! // run it (online phase). The planner resolves every per-layer choice —
//! // kernel, prepack layout, workspace sizing — ahead of execution.
//! let net = Network::demo(BitWidth::W4, 12, 9);
//! let engine = ArmEngine::cortex_a53();
//! let plan = Planner::for_arm(&engine).compile(&net).unwrap();
//! let input = Tensor::zeros((1, 3, 12, 12), Layout::Nchw);
//! let run = Executor::for_arm(&engine).run(&plan, &net, &input).unwrap();
//! assert_eq!(run.output.dims(), (1, 8, 6, 6));
//! assert_eq!(run.reports.len(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod arm;
pub mod error;
pub mod executor;
pub mod gpu;
pub mod graph;
pub mod memplan;
pub mod metrics;
pub mod network;
pub mod plan;
pub mod planner;
pub mod verify;

/// Everything most users need.
pub mod prelude {
    pub use crate::arm::{ArmAlgo, ArmConvResult, ArmEngine, PrepackStats};
    pub use crate::error::CoreError;
    pub use crate::executor::{Backend, Executor, NetworkRun};
    pub use crate::gpu::{GpuConvResult, GpuEngine, Tuning};
    pub use crate::graph::{GraphNode, GraphTopology, NodeOp, ValueId, ValueInfo};
    pub use crate::network::{LayerReport, NetLayer, Network};
    pub use crate::plan::{
        BackendKind, Epilogue, ExecutionPlan, LayerPlan, NodePlan, ParallelSchedule, PlanAlgo,
        PlanOp, ValuePlan,
    };
    pub use crate::planner::Planner;
    pub use lowbit_qgemm::workspace::WorkspaceStats;
    pub use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor, Tensor};
    pub use lowbit_trace::Tracer;
    pub use turing_sim::Precision;
}

pub use arm::{
    arm_schedule, prepack_fingerprint, stage_attribution, ArmAlgo, ArmConvResult, ArmEngine,
    PrepackStats, DEFAULT_PREPACK_CAPACITY_BYTES,
};
pub use error::CoreError;
pub use executor::{Backend, BackendLayerEstimate, BackendLayerRun, Executor, NetworkRun};
pub use gpu::{GpuConvResult, GpuEngine, Tuning};
pub use graph::{GraphNode, GraphTopology, NodeOp, ValueId, ValueInfo};
pub use memplan::{assign_arena, assign_arena_with, max_cut_bytes, sum_bytes, Assignment, ValueSpec};
pub use metrics::{ExecKey, ExecMetrics};
pub use network::{LayerReport, NetLayer, Network};
pub use plan::{
    BackendKind, Epilogue, ExecutionPlan, LayerPlan, NodePlan, ParallelSchedule, PlanAlgo, PlanOp,
    ValuePlan,
};
pub use planner::{arm_candidates, arm_workspace_bytes, select_arm_algo, ArmCandidate, Planner};
pub use verify::{
    algo_kind, fingerprint_audit, fingerprint_audit_with, fingerprint_graph, fingerprint_layers,
    lower_conc, lower_conc_spec, lower_plan, plan_high_water, topology_audit, verify_compiled,
    verify_conc_compiled,
};

// Substrate re-exports for advanced users.
pub use lowbit_conv_arm as conv_arm;
pub use lowbit_conv_gpu as conv_gpu;
pub use lowbit_models as models;
pub use lowbit_qgemm as qgemm;
pub use lowbit_qnn as qnn;
pub use lowbit_tensor as tensor;
pub use lowbit_trace as trace;
pub use neon_sim;
pub use turing_sim;
