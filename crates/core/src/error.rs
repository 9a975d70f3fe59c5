//! The crate-wide typed error. Every fallible surface of `lowbit` — network
//! validation, plan compilation, plan execution, backend estimates — returns
//! [`CoreError`] instead of ad-hoc `String`s, so callers can match on the
//! failure instead of parsing prose.

use crate::plan::BackendKind;
use lowbit_tensor::BitWidth;
use lowbit_verify::{ConcViolation, GpuViolation, PlanViolation};

/// Everything that can go wrong while validating, planning or executing a
/// network.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Consecutive layers disagree on channel count.
    ChannelMismatch {
        /// Layer producing the activations.
        producer: String,
        /// Channels it produces.
        produces: usize,
        /// Layer consuming them.
        consumer: String,
        /// Channels it expects.
        expects: usize,
    },
    /// Consecutive layers disagree on spatial dimensions.
    SpatialMismatch {
        /// Layer producing the activations.
        producer: String,
        /// `(h, w)` it produces.
        produces: (usize, usize),
        /// Layer consuming them.
        consumer: String,
        /// `(h, w)` it expects.
        expects: (usize, usize),
    },
    /// Consecutive layers disagree on batch size.
    BatchMismatch {
        /// Layer producing the activations.
        producer: String,
        /// Layer consuming them.
        consumer: String,
    },
    /// A per-channel bias whose length is not the layer's `c_out`.
    BiasLengthMismatch {
        /// The offending layer.
        layer: String,
        /// The layer's output channel count.
        expects: usize,
        /// The bias vector length supplied.
        got: usize,
    },
    /// A network must have at least one layer.
    EmptyNetwork,
    /// The input tensor's dimensions do not match the first layer.
    InputShapeMismatch {
        /// Dims the first layer expects.
        expected: (usize, usize, usize, usize),
        /// Dims the caller supplied.
        got: (usize, usize, usize, usize),
    },
    /// A backend has no kernel for this bit width (e.g. the GPU's Tensor
    /// Core path exists only at 4 and 8 bit).
    UnsupportedBitWidth {
        /// The requested width.
        bits: BitWidth,
        /// The backend that cannot serve it.
        backend: BackendKind,
    },
    /// A GPU layer failed the static verifier at plan time — invalid tile
    /// configuration, broken tiling geometry, a bank conflict, a staging
    /// hazard or a resource overflow. The plan would not be executable, so
    /// compilation stops with the verifier's counterexample instead of
    /// panicking later.
    GpuPlanRejected {
        /// The offending layer.
        layer: String,
        /// The typed counterexample from `lowbit_verify::gpu`.
        violation: GpuViolation,
    },
    /// A compiled plan failed the whole-plan static verifier — a numeric
    /// range break, a layout/shape dataflow bug, an understated workspace
    /// figure or a fingerprint-blind field. Carries the typed
    /// counterexample from `lowbit_verify::plan`.
    PlanRejected {
        /// The typed counterexample.
        violation: PlanViolation,
    },
    /// A declared parallel wave schedule failed the static concurrency
    /// verifier — an arena or workspace interference, an escaped footprint,
    /// a broken partition, a reachability violation or a forged
    /// certificate. Carries the typed counterexample from
    /// `lowbit_verify::conc`.
    ConcRejected {
        /// The typed counterexample.
        violation: ConcViolation,
    },
    /// The executor's parallel-node mode was asked to run a plan that
    /// carries no certified parallel schedule. Parallel execution engages
    /// only behind a certificate; compile the plan with
    /// `Planner::with_parallel_nodes` or run it serially.
    ParallelCertificateMissing,
    /// The plan routes a layer to a backend the planner/executor was not
    /// given an engine for.
    MissingBackend {
        /// The backend the plan (or planner) needs.
        backend: BackendKind,
    },
    /// A plan does not belong to the network it is being run against (layer
    /// count, name or geometry diverged).
    PlanMismatch {
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// A network's graph topology is structurally unsound — a value read
    /// before it is defined, an add/concat whose operands disagree on shape,
    /// bit width or quantization scale, or a value table inconsistent with
    /// its nodes. Chain-specific edge breaks keep their dedicated variants
    /// ([`CoreError::ChannelMismatch`] etc.); this covers the graph-only
    /// obligations.
    GraphTopologyBroken {
        /// The offending node (or `"graph"` for whole-graph breaks).
        node: String,
        /// Human-readable description of the break.
        detail: String,
    },
    /// The executor observed more simultaneously-live activation bytes than
    /// the plan's declared `activation_high_water_bytes` — the run-time
    /// counterpart of the verifier's static activation-arena proof. A plan
    /// that trips this lied about its memory footprint.
    ActivationArenaExceeded {
        /// Live activation bytes actually observed.
        observed: usize,
        /// The plan's declared high-water mark.
        declared: usize,
    },
    /// An input tensor holds a NaN or ±inf element, which symmetric
    /// quantization cannot represent.
    NonFiniteInput {
        /// Flat index of the first non-finite element.
        index: usize,
    },
    /// The serving admission queue is at capacity — typed backpressure. The
    /// caller decides whether to retry, shed load or fail the request; the
    /// server never blocks the submitter.
    QueueFull {
        /// The queue's configured depth.
        capacity: usize,
    },
    /// The server (or one of its queues) has shut down; no further requests
    /// are accepted and in-flight tickets whose worker died resolve to this.
    ServerShutdown,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::ChannelMismatch { producer, produces, consumer, expects } => write!(
                f,
                "{producer} produces {produces} channels but {consumer} expects {expects}"
            ),
            CoreError::SpatialMismatch { producer, produces, consumer, expects } => write!(
                f,
                "{producer} produces {}x{} but {consumer} expects {}x{}",
                produces.0, produces.1, expects.0, expects.1
            ),
            CoreError::BatchMismatch { producer, consumer } => {
                write!(f, "batch mismatch between {producer} and {consumer}")
            }
            CoreError::BiasLengthMismatch { layer, expects, got } => write!(
                f,
                "{layer} has {expects} output channels but its bias has {got} entries"
            ),
            CoreError::EmptyNetwork => write!(f, "network must have at least one layer"),
            CoreError::InputShapeMismatch { expected, got } => write!(
                f,
                "input dims {got:?} do not match the first layer's {expected:?}"
            ),
            CoreError::UnsupportedBitWidth { bits, backend } => {
                write!(f, "the {backend} backend has no kernel for {bits}")
            }
            CoreError::GpuPlanRejected { layer, violation } => {
                write!(f, "{layer}: GPU plan rejected by the static verifier: {violation}")
            }
            CoreError::PlanRejected { violation } => {
                write!(f, "plan rejected by the whole-plan static verifier: {violation}")
            }
            CoreError::ConcRejected { violation } => {
                write!(f, "parallel schedule rejected by the concurrency verifier: {violation}")
            }
            CoreError::ParallelCertificateMissing => write!(
                f,
                "parallel-node execution requires a certified schedule; compile with \
                 Planner::with_parallel_nodes or run serially"
            ),
            CoreError::MissingBackend { backend } => {
                write!(f, "no {backend} engine was registered")
            }
            CoreError::PlanMismatch { detail } => {
                write!(f, "plan does not match the network: {detail}")
            }
            CoreError::GraphTopologyBroken { node, detail } => {
                write!(f, "graph topology broken at {node}: {detail}")
            }
            CoreError::ActivationArenaExceeded { observed, declared } => write!(
                f,
                "activation arena exceeded: {observed} live bytes observed but the plan declared {declared}"
            ),
            CoreError::NonFiniteInput { index } => {
                write!(f, "input element {index} is NaN or infinite")
            }
            CoreError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            CoreError::ServerShutdown => write!(f, "server has shut down"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_conv_gpu::TileRejection;

    /// One sample of every variant — the exhaustive Display coverage list.
    fn samples() -> Vec<CoreError> {
        vec![
            CoreError::ChannelMismatch {
                producer: "a".into(),
                produces: 8,
                consumer: "b".into(),
                expects: 16,
            },
            CoreError::SpatialMismatch {
                producer: "a".into(),
                produces: (8, 8),
                consumer: "b".into(),
                expects: (4, 4),
            },
            CoreError::BatchMismatch { producer: "a".into(), consumer: "b".into() },
            CoreError::BiasLengthMismatch { layer: "a".into(), expects: 4, got: 3 },
            CoreError::EmptyNetwork,
            CoreError::InputShapeMismatch { expected: (1, 3, 8, 8), got: (1, 3, 9, 9) },
            CoreError::UnsupportedBitWidth {
                bits: BitWidth::W5,
                backend: BackendKind::GpuModel,
            },
            CoreError::GpuPlanRejected {
                layer: "conv1".into(),
                violation: GpuViolation::InvalidTile(TileRejection::WarpShape {
                    dim: 'm',
                    tile: 100,
                    warps: 2,
                }),
            },
            CoreError::PlanRejected {
                violation: PlanViolation::HighWaterUnderstated { declared: 1, required: 2 },
            },
            CoreError::ConcRejected {
                violation: ConcViolation::CertificateForged { declared: 1, computed: 2 },
            },
            CoreError::ParallelCertificateMissing,
            CoreError::MissingBackend { backend: BackendKind::Arm },
            CoreError::PlanMismatch { detail: "layer count".into() },
            CoreError::GraphTopologyBroken {
                node: "residual".into(),
                detail: "add operands disagree".into(),
            },
            CoreError::ActivationArenaExceeded { observed: 200, declared: 100 },
            CoreError::NonFiniteInput { index: 3 },
            CoreError::QueueFull { capacity: 8 },
            CoreError::ServerShutdown,
        ]
    }

    #[test]
    fn every_variant_displays_non_empty_and_implements_error() {
        for e in samples() {
            let rendered = e.to_string();
            assert!(!rendered.is_empty(), "{e:?}");
            let dynerr: &dyn std::error::Error = &e;
            assert!(dynerr.source().is_none(), "{e:?}");
            // Debug and Display must both render, and clones compare equal.
            assert!(!format!("{e:?}").is_empty());
            assert_eq!(e.clone(), e);
        }
    }

    #[test]
    fn displays_carry_their_payloads() {
        let e = CoreError::ChannelMismatch {
            producer: "a".into(),
            produces: 8,
            consumer: "b".into(),
            expects: 16,
        };
        assert_eq!(e.to_string(), "a produces 8 channels but b expects 16");
        let e = CoreError::UnsupportedBitWidth {
            bits: BitWidth::W5,
            backend: BackendKind::GpuModel,
        };
        assert!(e.to_string().contains("gpu-model"));
        assert!(CoreError::EmptyNetwork.to_string().contains("at least one layer"));
        let e = CoreError::QueueFull { capacity: 8 };
        assert_eq!(e.to_string(), "admission queue full (capacity 8)");
        let e = CoreError::GraphTopologyBroken {
            node: "residual".into(),
            detail: "add operands disagree".into(),
        };
        assert_eq!(e.to_string(), "graph topology broken at residual: add operands disagree");
        let e = CoreError::ActivationArenaExceeded { observed: 200, declared: 100 };
        assert!(e.to_string().contains("200") && e.to_string().contains("100"));
        assert_eq!(
            CoreError::NonFiniteInput { index: 3 }.to_string(),
            "input element 3 is NaN or infinite"
        );
        assert!(CoreError::ServerShutdown.to_string().contains("shut down"));
    }

    #[test]
    fn gpu_plan_rejected_carries_its_tile_rejection() {
        let rejection = TileRejection::WarpShape { dim: 'm', tile: 100, warps: 2 };
        let e = CoreError::GpuPlanRejected {
            layer: "conv1".into(),
            violation: GpuViolation::InvalidTile(rejection),
        };
        // The typed payload round-trips through a match, and the rendered
        // message names both the layer and the inner counterexample.
        match &e {
            CoreError::GpuPlanRejected { layer, violation: GpuViolation::InvalidTile(r) } => {
                assert_eq!(layer, "conv1");
                assert_eq!(*r, rejection);
            }
            other => panic!("wrong shape: {other:?}"),
        }
        let msg = e.to_string();
        assert!(msg.contains("conv1") && msg.contains("static verifier"), "{msg}");
        assert!(msg.contains(&GpuViolation::InvalidTile(rejection).to_string()));
    }

    #[test]
    fn plan_rejected_carries_its_violation() {
        let violation = PlanViolation::WorkspaceUnderstated {
            layer: "conv2".into(),
            declared: 10,
            required: 20,
        };
        let e = CoreError::PlanRejected { violation: violation.clone() };
        match &e {
            CoreError::PlanRejected { violation: v } => assert_eq!(*v, violation),
            other => panic!("wrong shape: {other:?}"),
        }
        let msg = e.to_string();
        assert!(msg.contains("whole-plan static verifier"), "{msg}");
        assert!(msg.contains(&violation.to_string()), "{msg}");
    }
}
