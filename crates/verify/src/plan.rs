//! Whole-plan static verification: end-to-end numeric range, layout and
//! workspace proofs over a compiled execution plan.
//!
//! The stream verifier ([`crate::absint`]) proves each emitted NEON kernel
//! saturation-safe *given* operands inside the declared bit-width range, and
//! the GPU verifier ([`crate::gpu`]) proves each tile configuration's
//! geometry and resource discipline. Neither can catch a cross-layer bug:
//! a re-quantization that emits values outside the range the next layer's
//! kernel proof assumed, a dropped NCHW/NHWC conversion between backends, or
//! a workspace high-water figure that understates what the arena will
//! actually grow to. This module closes that gap with a plan-level pass
//! over a backend-neutral [`PlanSpec`]:
//!
//! 1. **Numeric soundness** — interval abstract interpretation of the
//!    activation range through every layer: per-output-channel accumulator
//!    bounds from the actual packed weights (positive/negative column sums x
//!    the incoming activation interval, plus the exact bias), proven to fit
//!    i32 before re-quantization, then pushed through the fused
//!    bias+requant+ReLU epilogue to the next layer's operand interval —
//!    which must sit inside the range the *stream* proofs assumed for that
//!    layer's bit width (Winograd layers additionally re-check the paper's
//!    4x input-transform inflation against the live interval).
//! 2. **Layout/shape dataflow** — each layer's input layout and shape must
//!    match its predecessor's output modulo the plan's *recorded*
//!    conversions, with typed witnesses ([`PlanViolation::LayoutMismatch`],
//!    [`PlanViolation::ShapeBreak`], [`PlanViolation::DanglingConversion`]).
//! 3. **Workspace certification** — the exact arena requirement of each ARM
//!    layer (im2col matrix, column-major result, per-thread packed-B panels
//!    maximized over every legal thread count, SDOT quad buffers) is
//!    recomputed from the blocking constants the engine really uses, and the
//!    plan's declared per-layer and whole-plan high-water figures must be
//!    upper bounds on it.
//!
//! The pass is deliberately independent of the `lowbit` core crate (which
//! itself depends on this one): core lowers its `ExecutionPlan` into a
//! [`PlanSpec`] and calls [`verify_plan`]; the negative catalog in the CLI
//! and integration tests seeds mutants directly at this level.

use crate::interval::Interval;
use lowbit_conv_arm::range_analysis::f23_range_halved;
use lowbit_qgemm::parallel::{partition_columns, DEFAULT_KC, DEFAULT_NC, MAX_THREADS};
use lowbit_qgemm::NB;
use lowbit_tensor::{BitWidth, ConvShape, Layout};
use neon_sim::meta::ElemWidth;

/// The concrete ARM kernel family a plan layer committed to, as the
/// workspace certifier needs to see it (mirrors `lowbit::ArmAlgo` without
/// the `Auto` state or the core dependency).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArmAlgoKind {
    /// Wide 16x4 explicit-GEMM tiles through the shared arena.
    GemmWide,
    /// Narrow 8x4 explicit-GEMM tiles through the shared arena.
    GemmNarrow,
    /// ARMv8.2 SDOT quad path through the shared arena.
    GemmSdot,
    /// Winograd `F(2x2, 3x3)` (own transform buffers, not the arena).
    Winograd,
    /// ncnn-style baseline (no arena).
    NcnnBaseline,
    /// Bit-serial popcount baseline (no arena).
    BitserialBaseline,
}

impl std::fmt::Display for ArmAlgoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ArmAlgoKind::GemmWide => "gemm",
            ArmAlgoKind::GemmNarrow => "gemm-narrow",
            ArmAlgoKind::GemmSdot => "gemm-sdot",
            ArmAlgoKind::Winograd => "winograd",
            ArmAlgoKind::NcnnBaseline => "ncnn",
            ArmAlgoKind::BitserialBaseline => "bitserial",
        };
        write!(f, "{s}")
    }
}

/// Which backend a spec layer runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendSpec {
    /// The ARM engine with its committed kernel family.
    Arm(ArmAlgoKind),
    /// The GPU model (NHWC-native implicit GEMM).
    Gpu,
}

impl BackendSpec {
    /// The memory layout the backend's kernel consumes and produces.
    pub fn native_layout(&self) -> Layout {
        match self {
            BackendSpec::Arm(_) => Layout::Nchw,
            BackendSpec::Gpu => Layout::Nhwc,
        }
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendSpec::Arm(a) => write!(f, "arm/{a}"),
            BackendSpec::Gpu => write!(f, "gpu"),
        }
    }
}

/// One recorded layout conversion the executor performs at a plan boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LayoutConversion {
    /// Layout the activations are in before the conversion.
    pub from: Layout,
    /// Layout they are in afterwards.
    pub to: Layout,
}

impl std::fmt::Display for LayoutConversion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}->{:?}", self.from, self.to)
    }
}

/// Re-quantization parameters as the verifier needs them (mirrors
/// `lowbit_qnn::RequantParams` without the dependency).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RequantSpec {
    /// Output bit width the requant truncates into.
    pub bits: BitWidth,
    /// Combined multiplier.
    pub multiplier: f32,
    /// Lower truncation bound before any ReLU fold.
    pub clamp_min: i8,
}

/// Per-output-channel signed weight sums: the exact extreme contributions a
/// channel's row of the GEMM can make given an activation interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelSums {
    /// Sum of the channel's negative weights (<= 0).
    pub neg: i64,
    /// Sum of the channel's positive weights (>= 0).
    pub pos: i64,
}

/// One layer of the backend-neutral plan spec.
#[derive(Clone, Debug)]
pub struct LayerSpec {
    /// Layer name.
    pub name: String,
    /// Convolution geometry.
    pub shape: ConvShape,
    /// Operand bit width the layer's kernel proofs assumed.
    pub bits: BitWidth,
    /// Backend and committed kernel family.
    pub backend: BackendSpec,
    /// Recorded conversion applied to the activations before the kernel.
    pub pre: Option<LayoutConversion>,
    /// Recorded conversion applied to the kernel output.
    pub post: Option<LayoutConversion>,
    /// The workspace bytes the plan declares for this layer.
    pub declared_workspace_bytes: usize,
    /// Per-output-channel signed weight sums (length `c_out`).
    pub channel_sums: Vec<ChannelSums>,
    /// Per-output-channel bias added to the accumulators.
    pub bias: Option<Vec<i32>>,
    /// Re-quantization into the next layer's operand range.
    pub requant: RequantSpec,
    /// Whether a ReLU is fused into the truncation.
    pub relu: bool,
}

/// A node operation in the lowered DAG (mirrors `lowbit::PlanOp` without
/// the core dependency).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeOpSpec {
    /// A planned convolution, indexing [`PlanSpec::layers`], optionally
    /// carrying a fused residual-add operand (a value id).
    Conv {
        /// Index into the layer table.
        layer: usize,
        /// Fused residual operand, if the planner folded an add here.
        fused_add: Option<usize>,
    },
    /// Elementwise saturating add of two equal-shape values.
    Add,
    /// Channel-axis concatenation in NCHW.
    Concat,
}

/// One node of the lowered DAG, in execution order.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Node name (for witnesses).
    pub name: String,
    /// The operation.
    pub op: NodeOpSpec,
    /// Value ids this node reads.
    pub inputs: Vec<usize>,
    /// Value id this node defines.
    pub output: usize,
}

/// One value of the lowered DAG with its recorded activation-arena
/// placement and live range (both re-proven, not trusted).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ValueSlot {
    /// `(batch, channels, h, w)`.
    pub dims: (usize, usize, usize, usize),
    /// Quantized bit width of the stored elements.
    pub bits: BitWidth,
    /// The layout the value is stored in between nodes.
    pub layout: Layout,
    /// Recorded byte size.
    pub bytes: usize,
    /// Recorded defining step (0 for the graph input).
    pub def: usize,
    /// Recorded last consuming step.
    pub last_use: usize,
    /// Recorded activation-arena byte offset.
    pub offset: usize,
}

/// The backend-neutral lowering of a compiled execution plan.
///
/// `nodes`/`values` describe the DAG; when `nodes` is empty the spec is a
/// pure layer chain and the verifier runs the chain-shaped passes (the
/// negative catalog seeds mutants at that level).
#[derive(Clone, Debug)]
pub struct PlanSpec {
    /// Per-layer specs, in execution order.
    pub layers: Vec<LayerSpec>,
    /// DAG nodes in execution order (empty for a bare layer chain).
    pub nodes: Vec<NodeSpec>,
    /// DAG values with recorded arena placements (empty for a bare chain).
    pub values: Vec<ValueSlot>,
    /// The whole-plan workspace high-water bytes the plan declares.
    pub declared_high_water_bytes: usize,
    /// The activation-arena high-water bytes the plan declares.
    pub declared_activation_high_water_bytes: usize,
}

/// A typed counterexample from the plan verifier. Every variant names the
/// layer it anchors to and carries enough context to reproduce the failure.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanViolation {
    /// Consecutive layers disagree on activation geometry
    /// (`(batch, channels, h, w)` produced vs expected).
    ShapeBreak {
        /// Layer producing the activations.
        producer: String,
        /// `(batch, c, h, w)` it produces.
        produces: (usize, usize, usize, usize),
        /// Layer consuming them.
        consumer: String,
        /// `(batch, c, h, w)` it expects.
        expects: (usize, usize, usize, usize),
    },
    /// The layout entering a kernel (or leaving the plan boundary) is not
    /// the one the site requires.
    LayoutMismatch {
        /// The offending layer.
        layer: String,
        /// Where the mismatch bites (`"kernel input"` / `"layer output"`).
        site: &'static str,
        /// Layout the site requires.
        expected: Layout,
        /// Layout the dataflow actually has there.
        found: Layout,
    },
    /// A recorded conversion whose source layout is not the layout the
    /// dataflow is actually in — the conversion is anchored to nothing.
    DanglingConversion {
        /// The offending layer.
        layer: String,
        /// The conversion's claimed source layout.
        from: Layout,
        /// The layout the activations are actually in.
        current: Layout,
    },
    /// A per-channel i32 accumulator can overflow before re-quantization.
    AccOverflow {
        /// The offending layer.
        layer: String,
        /// Output channel whose bound escapes i32.
        channel: usize,
        /// The proven accumulator interval.
        acc: Interval,
    },
    /// The activation interval entering a layer escapes the operand range
    /// its kernel proofs assumed (or a Winograd transform inflates it past
    /// i8).
    OperandRangeBreak {
        /// The offending layer.
        layer: String,
        /// The live activation interval.
        interval: Interval,
        /// The bound it must stay within (absolute value).
        bound: i64,
        /// What assumed the bound.
        context: String,
    },
    /// A layer re-quantizes into a different bit width than its successor's
    /// kernels were proven for.
    RequantWidthBreak {
        /// Layer producing the activations.
        producer: String,
        /// Width its requant truncates into.
        produced: BitWidth,
        /// Layer consuming them.
        consumer: String,
        /// Width the consumer's proofs assume.
        expects: BitWidth,
    },
    /// A requant truncation range that escapes the declared output width.
    ClampRangeBreak {
        /// The offending layer.
        layer: String,
        /// The effective lower clamp (after any ReLU fold).
        clamp_min: i8,
        /// The declared width's adjusted `[qmin, qmax]`.
        qmin: i8,
        /// Upper end of the declared range.
        qmax: i8,
    },
    /// A per-channel bias whose length is not the layer's `c_out`.
    EpilogueBiasBreak {
        /// The offending layer.
        layer: String,
        /// The layer's output channel count.
        expects: usize,
        /// The bias vector length in the spec.
        got: usize,
    },
    /// Channel weight sums whose length is not the layer's `c_out`.
    ChannelSumsBreak {
        /// The offending layer.
        layer: String,
        /// The layer's output channel count.
        expects: usize,
        /// The sums vector length in the spec.
        got: usize,
    },
    /// A layer declares fewer workspace bytes than its kernels will request.
    WorkspaceUnderstated {
        /// The offending layer.
        layer: String,
        /// Bytes the plan declares.
        declared: usize,
        /// Bytes the engine will actually require.
        required: usize,
    },
    /// The plan's recorded whole-plan high-water understates the arena's
    /// proven requirement.
    HighWaterUnderstated {
        /// Bytes the plan declares.
        declared: usize,
        /// The certified component-wise arena bound.
        required: usize,
    },
    /// The network content fingerprint does not cover a field the verifier's
    /// verdict depends on — two cache-equal plans could verify differently.
    FingerprintBlind {
        /// The invisible field.
        field: String,
    },
    /// The lowered DAG is not well-formed: a dangling value id, a node
    /// defined out of order, a value table inconsistent with the node that
    /// defines it, or a recorded live range shorter than the dataflow
    /// proves.
    GraphStructureBroken {
        /// The node (or value, as `v{id}`) the witness anchors to.
        node: String,
        /// What is broken.
        detail: String,
    },
    /// Two simultaneously-live values were assigned overlapping activation
    /// arena byte ranges — executing the plan in place would corrupt one.
    ActivationOverlap {
        /// First value id.
        a: usize,
        /// Its `[offset, offset + bytes)` span.
        a_span: (usize, usize),
        /// Second value id, live at the same step.
        b: usize,
        /// Its `[offset, offset + bytes)` span.
        b_span: (usize, usize),
    },
    /// The plan's declared activation high-water understates what the
    /// recorded arena placements actually reach.
    ActivationHighWaterUnderstated {
        /// Bytes the plan declares.
        declared: usize,
        /// `max(offset + bytes)` over the value table.
        required: usize,
    },
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanViolation::ShapeBreak { producer, produces, consumer, expects } => write!(
                f,
                "{producer} produces {produces:?} but {consumer} expects {expects:?}"
            ),
            PlanViolation::LayoutMismatch { layer, site, expected, found } => write!(
                f,
                "{layer}: {site} requires {expected:?} but the dataflow is {found:?}"
            ),
            PlanViolation::DanglingConversion { layer, from, current } => write!(
                f,
                "{layer}: recorded conversion from {from:?} but the activations are {current:?}"
            ),
            PlanViolation::AccOverflow { layer, channel, acc } => write!(
                f,
                "{layer}: channel {channel} accumulator {acc} escapes i32"
            ),
            PlanViolation::OperandRangeBreak { layer, interval, bound, context } => write!(
                f,
                "{layer}: activation interval {interval} escapes |v| <= {bound} ({context})"
            ),
            PlanViolation::RequantWidthBreak { producer, produced, consumer, expects } => write!(
                f,
                "{producer} requantizes into {produced} but {consumer} was proven for {expects}"
            ),
            PlanViolation::ClampRangeBreak { layer, clamp_min, qmin, qmax } => write!(
                f,
                "{layer}: clamp_min {clamp_min} outside the declared width's [{qmin}, {qmax}]"
            ),
            PlanViolation::EpilogueBiasBreak { layer, expects, got } => write!(
                f,
                "{layer} has {expects} output channels but its bias has {got} entries"
            ),
            PlanViolation::ChannelSumsBreak { layer, expects, got } => write!(
                f,
                "{layer} has {expects} output channels but {got} channel weight sums"
            ),
            PlanViolation::WorkspaceUnderstated { layer, declared, required } => write!(
                f,
                "{layer} declares {declared} workspace bytes but requires {required}"
            ),
            PlanViolation::HighWaterUnderstated { declared, required } => write!(
                f,
                "plan declares {declared} high-water bytes but the arena requires {required}"
            ),
            PlanViolation::FingerprintBlind { field } => write!(
                f,
                "Network::fingerprint is blind to {field}: mutating it leaves the cache key \
                 unchanged while the verification verdict can differ"
            ),
            PlanViolation::GraphStructureBroken { node, detail } => {
                write!(f, "{node}: graph structure broken: {detail}")
            }
            PlanViolation::ActivationOverlap { a, a_span, b, b_span } => write!(
                f,
                "values v{a} [{}, {}) and v{b} [{}, {}) are live together but their arena \
                 spans overlap",
                a_span.0, a_span.1, b_span.0, b_span.1
            ),
            PlanViolation::ActivationHighWaterUnderstated { declared, required } => write!(
                f,
                "plan declares {declared} activation high-water bytes but its arena \
                 placements reach {required}"
            ),
        }
    }
}

/// The shared arena's per-buffer byte requirement for one layer. The arena
/// is reused across a plan's layers, so the whole-plan high-water is the
/// *component-wise* maximum summed — not the max of per-layer totals.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaRequirement {
    /// im2col matrix bytes (`K x N` i8).
    pub col: usize,
    /// Column-major parallel-GEMM result bytes (`4 * M * N`).
    pub c_cm: usize,
    /// Per-thread packed-B panel bytes, maximized over every legal thread
    /// count the engine accepts.
    pub panels: usize,
    /// SDOT quad-packed B bytes (K and N padded to the quad/tile grid).
    pub bq: usize,
    /// SDOT column-major result bytes (`4 * M * N`).
    pub c_sdot: usize,
    /// Winograd transformed-input bytes (`16 x c_in x tiles` i8).
    pub wg_v: usize,
    /// Winograd output-plane bytes (four `c_out x tiles` i32 planes).
    pub wg_planes: usize,
    /// Winograd position-GEMM result bytes, summed over the tile spans
    /// (`4 * c_out * tiles`).
    pub wg_c_cm: usize,
    /// Winograd position-GEMM packed-B panel bytes, summed over the tile
    /// spans and maximized over every legal thread count.
    pub wg_panels: usize,
}

impl ArenaRequirement {
    /// Total bytes this layer needs from the arena.
    pub fn total(&self) -> usize {
        self.col
            + self.c_cm
            + self.panels
            + self.bq
            + self.c_sdot
            + self.wg_v
            + self.wg_planes
            + self.wg_c_cm
            + self.wg_panels
    }

    /// Component-wise maximum (the arena's growth rule across layers).
    pub fn max(self, o: ArenaRequirement) -> ArenaRequirement {
        ArenaRequirement {
            col: self.col.max(o.col),
            c_cm: self.c_cm.max(o.c_cm),
            panels: self.panels.max(o.panels),
            bq: self.bq.max(o.bq),
            c_sdot: self.c_sdot.max(o.c_sdot),
            wg_v: self.wg_v.max(o.wg_v),
            wg_planes: self.wg_planes.max(o.wg_planes),
            wg_c_cm: self.wg_c_cm.max(o.wg_c_cm),
            wg_panels: self.wg_panels.max(o.wg_panels),
        }
    }
}

/// The largest total packed-B panel allocation the parallel driver can make
/// for a `K x N` GEMM, over every thread count the engine accepts
/// (`1..=MAX_THREADS`) at the default cache blocking. Mirrors the sizing in
/// `lowbit_qgemm::parallel::pack_b_panel`: each worker's panel holds
/// `min(nc/NB, ceil(cols_t/NB))` column tiles of `min(kc, K)` packed rows.
pub fn max_panel_bytes(k: usize, n: usize) -> usize {
    let klen = DEFAULT_KC.min(k);
    let nc_tiles = DEFAULT_NC / NB;
    let mut worst = 0usize;
    for threads in 1..=MAX_THREADS {
        let total: usize = partition_columns(n, threads)
            .iter()
            .map(|span| nc_tiles.min(span.cols.div_ceil(NB)) * NB * klen)
            .sum();
        worst = worst.max(total);
    }
    worst
}

/// The exact arena requirement of one ARM layer: which buffers its kernel
/// family touches and how large each grows. This is the certified bound the
/// plan's declared `workspace_bytes` must dominate.
pub fn arm_workspace_requirement(shape: &ConvShape, algo: ArmAlgoKind) -> ArenaRequirement {
    // Delegates to the pure-geometry form so the concurrency verifier can
    // recompute the same bound from a lowered GEMM footprint without the
    // original `ConvShape`.
    crate::conc::GemmFootprint::of(shape, algo).required_workspace()
}

/// The arena requirement of one spec layer (GPU layers run outside the ARM
/// arena and require nothing from it).
pub fn layer_workspace_requirement(layer: &LayerSpec) -> ArenaRequirement {
    match layer.backend {
        BackendSpec::Arm(kind) => arm_workspace_requirement(&layer.shape, kind),
        BackendSpec::Gpu => ArenaRequirement::default(),
    }
}

/// The certified whole-plan arena high-water: component-wise maximum over
/// the layers, then summed — exactly how the shared `ConvWorkspace` grows.
pub fn arena_high_water(layers: &[LayerSpec]) -> usize {
    layers
        .iter()
        .map(layer_workspace_requirement)
        .fold(ArenaRequirement::default(), ArenaRequirement::max)
        .total()
}

/// One layer's entry in the proof certificate.
#[derive(Clone, Debug)]
pub struct LayerRangeProof {
    /// Layer name.
    pub name: String,
    /// Backend/kernel label.
    pub backend: BackendSpec,
    /// The activation interval entering the layer.
    pub input: Interval,
    /// The proven pre-requant accumulator interval (union over channels,
    /// bias included).
    pub acc: Interval,
    /// The proven post-epilogue output interval.
    pub output: Interval,
    /// Fraction of i32 the accumulator bound leaves unused.
    pub acc_headroom: f64,
    /// The certified arena bytes the layer requires.
    pub required_workspace: usize,
}

/// The certificate [`verify_plan`] returns on success.
#[derive(Clone, Debug)]
pub struct PlanProof {
    /// Per-layer range proofs, in execution order.
    pub layers: Vec<LayerRangeProof>,
    /// The certified arena high-water bound.
    pub certified_high_water: usize,
    /// The high-water bytes the plan declared (>= certified).
    pub declared_high_water: usize,
    /// The certified activation-arena bound (`max(offset + bytes)` over the
    /// proven-overlap-free value placements).
    pub certified_activation_high_water: usize,
    /// The activation high-water bytes the plan declared (>= certified).
    pub declared_activation_high_water: usize,
}

impl PlanProof {
    /// The smallest per-layer accumulator headroom.
    pub fn tightest_headroom(&self) -> f64 {
        self.layers.iter().map(|l| l.acc_headroom).fold(1.0, f64::min)
    }

    /// Renders the proof as a deterministic aligned table (the golden-file
    /// format the CI `--plan --check` diffs).
    pub fn report(&self) -> String {
        let mut out = format!(
            "{:<8} {:<16} {:>16} {:>26} {:>14} {:>9} {:>10}\n",
            "layer", "backend", "input", "acc (i32)", "output", "headroom", "ws bytes"
        );
        for l in &self.layers {
            out.push_str(&format!(
                "{:<8} {:<16} {:>16} {:>26} {:>14} {:>8.1}% {:>10}\n",
                l.name,
                l.backend.to_string(),
                l.input.to_string(),
                l.acc.to_string(),
                l.output.to_string(),
                l.acc_headroom * 100.0,
                l.required_workspace
            ));
        }
        out.push_str(&format!(
            "arena high-water: certified {} <= declared {}\n",
            self.certified_high_water, self.declared_high_water
        ));
        out.push_str(&format!(
            "activation high-water: certified {} <= declared {}\n",
            self.certified_activation_high_water, self.declared_activation_high_water
        ));
        out
    }

    /// Deterministic JSON rendering for machine consumption (`--json`).
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .layers
            .iter()
            .map(|l| {
                format!(
                    "    {{\"name\":\"{}\",\"backend\":\"{}\",\"input\":[{},{}],\
\"acc\":[{},{}],\"output\":[{},{}],\"acc_headroom\":{:.6},\"required_workspace\":{}}}",
                    l.name,
                    l.backend,
                    l.input.lo,
                    l.input.hi,
                    l.acc.lo,
                    l.acc.hi,
                    l.output.lo,
                    l.output.hi,
                    l.acc_headroom,
                    l.required_workspace
                )
            })
            .collect();
        format!(
            "{{\n  \"layers\": [\n{}\n  ],\n  \"certified_high_water\":{},\n  \
\"declared_high_water\":{},\n  \"certified_activation_high_water\":{},\n  \
\"declared_activation_high_water\":{}\n}}\n",
            items.join(",\n"),
            self.certified_high_water,
            self.declared_high_water,
            self.certified_activation_high_water,
            self.declared_activation_high_water
        )
    }
}

/// The adjusted operand interval of a bit width (what the stream proofs and
/// the input quantizer both clamp into).
pub fn operand_interval(bits: BitWidth) -> Interval {
    Interval::new(bits.qmin() as i64, bits.qmax() as i64)
}

/// Conservative bound on `round(acc * multiplier)` over an interval: both
/// corners in f64 with a +-1 slack absorbing any f32-vs-f64 rounding skew.
fn scaled_interval(acc: Interval, multiplier: f32) -> Interval {
    let m = multiplier as f64;
    let a = (acc.lo as f64 * m).round() as i64;
    let b = (acc.hi as f64 * m).round() as i64;
    Interval::new(a.min(b) - 1, a.max(b) + 1)
}

/// Runs the shape pass: consecutive layers must chain on
/// `(batch, channels, h, w)`.
fn check_shapes(layers: &[LayerSpec]) -> Result<(), PlanViolation> {
    for w in layers.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let produces = (a.shape.batch, a.shape.c_out, a.shape.out_h(), a.shape.out_w());
        let expects = (b.shape.batch, b.shape.c_in, b.shape.h, b.shape.w);
        if produces != expects {
            return Err(PlanViolation::ShapeBreak {
                producer: a.name.clone(),
                produces,
                consumer: b.name.clone(),
                expects,
            });
        }
    }
    Ok(())
}

/// Runs the layout pass: walk the recorded conversions, requiring the
/// kernel-input layout to be the backend's native one and the inter-layer
/// layout to be the executor's NCHW canonical form.
fn check_layouts(layers: &[LayerSpec]) -> Result<(), PlanViolation> {
    let canonical = Layout::Nchw;
    let mut current = canonical;
    for l in layers {
        if let Some(c) = l.pre {
            if c.from != current {
                return Err(PlanViolation::DanglingConversion {
                    layer: l.name.clone(),
                    from: c.from,
                    current,
                });
            }
            current = c.to;
        }
        let native = l.backend.native_layout();
        if current != native {
            return Err(PlanViolation::LayoutMismatch {
                layer: l.name.clone(),
                site: "kernel input",
                expected: native,
                found: current,
            });
        }
        // The kernel writes its native layout.
        current = native;
        if let Some(c) = l.post {
            if c.from != current {
                return Err(PlanViolation::DanglingConversion {
                    layer: l.name.clone(),
                    from: c.from,
                    current,
                });
            }
            current = c.to;
        }
        if current != canonical {
            return Err(PlanViolation::LayoutMismatch {
                layer: l.name.clone(),
                site: "layer output",
                expected: canonical,
                found: current,
            });
        }
    }
    Ok(())
}

/// Runs the numeric pass over one layer: operand-range check, accumulator
/// bounds, epilogue. Returns the proof entry and the next layer's operand
/// interval.
fn check_layer_numerics(
    l: &LayerSpec,
    act: Interval,
) -> Result<(LayerRangeProof, Interval), PlanViolation> {
    let c_out = l.shape.c_out;
    if l.channel_sums.len() != c_out {
        return Err(PlanViolation::ChannelSumsBreak {
            layer: l.name.clone(),
            expects: c_out,
            got: l.channel_sums.len(),
        });
    }
    if let Some(bias) = &l.bias {
        if bias.len() != c_out {
            return Err(PlanViolation::EpilogueBiasBreak {
                layer: l.name.clone(),
                expects: c_out,
                got: bias.len(),
            });
        }
    }
    // The layer's kernel proofs assume operands inside the adjusted range
    // of its bit width.
    let assumed = operand_interval(l.bits);
    if act.lo < assumed.lo || act.hi > assumed.hi {
        return Err(PlanViolation::OperandRangeBreak {
            layer: l.name.clone(),
            interval: act,
            bound: assumed.abs_max(),
            context: format!("{} operand range for the {} stream proofs", l.bits, l.bits),
        });
    }
    if !l.requant.multiplier.is_finite() {
        return Err(PlanViolation::OperandRangeBreak {
            layer: l.name.clone(),
            interval: act,
            bound: assumed.abs_max(),
            context: "non-finite requant multiplier".into(),
        });
    }
    // Winograd: the F(2x2,3x3) input transform inflates operands 4x and the
    // transformed weights must also fit i8 — re-check against the *live*
    // interval, not just the static bit-width gate.
    if l.backend == BackendSpec::Arm(ArmAlgoKind::Winograd) {
        let range = f23_range_halved(l.bits);
        if 4 * act.abs_max() > 128 || !range.fits_i8() {
            return Err(PlanViolation::OperandRangeBreak {
                layer: l.name.clone(),
                interval: act,
                bound: 32,
                context: "Winograd F(2x2,3x3) input transform inflates 4x past i8".into(),
            });
        }
    }
    // Zero-padding contributes zero-valued taps.
    let act_padded = if l.shape.pad > 0 {
        Interval::new(act.lo.min(0), act.hi.max(0))
    } else {
        act
    };
    // Per-channel accumulator bounds: pos/neg weight sums x the activation
    // interval is the exact extreme of `sum w_i * a_i`, plus the exact bias.
    let mut acc_union: Option<Interval> = None;
    for (channel, sums) in l.channel_sums.iter().enumerate() {
        let lo = sums.pos * act_padded.lo + sums.neg * act_padded.hi;
        let hi = sums.pos * act_padded.hi + sums.neg * act_padded.lo;
        let bias = l.bias.as_ref().map_or(0, |b| b[channel]) as i64;
        let acc = Interval::new(lo + bias, hi + bias);
        if !acc.fits(ElemWidth::S) {
            return Err(PlanViolation::AccOverflow { layer: l.name.clone(), channel, acc });
        }
        acc_union = Some(match acc_union {
            Some(u) => Interval::new(u.lo.min(acc.lo), u.hi.max(acc.hi)),
            None => acc,
        });
    }
    let acc = acc_union.expect("c_out >= 1 by ConvShape construction");
    // Epilogue: requant + optional ReLU fold. The effective truncation range
    // must sit inside the declared output width.
    let (qmin, qmax) = (l.requant.bits.qmin(), l.requant.bits.qmax());
    let clamp_min = if l.relu { 0 } else { l.requant.clamp_min };
    if clamp_min < qmin || clamp_min > qmax {
        return Err(PlanViolation::ClampRangeBreak {
            layer: l.name.clone(),
            clamp_min,
            qmin,
            qmax,
        });
    }
    let scaled = scaled_interval(acc, l.requant.multiplier);
    let out = Interval::new(
        scaled.lo.clamp(clamp_min as i64, qmax as i64),
        scaled.hi.clamp(clamp_min as i64, qmax as i64),
    );
    let headroom = 1.0 - acc.abs_max() as f64 / i32::MAX as f64;
    let proof = LayerRangeProof {
        name: l.name.clone(),
        backend: l.backend,
        input: act,
        acc,
        output: out,
        acc_headroom: headroom,
        required_workspace: layer_workspace_requirement(l).total(),
    };
    Ok((proof, out))
}

/// Workspace certification shared by the chain and graph passes: each
/// layer's declared bytes must dominate its recomputed requirement, and the
/// declared whole-plan figure the component-wise arena bound. Returns the
/// certified bound.
fn check_workspace(spec: &PlanSpec) -> Result<usize, PlanViolation> {
    for l in &spec.layers {
        let required = layer_workspace_requirement(l).total();
        if l.declared_workspace_bytes < required {
            return Err(PlanViolation::WorkspaceUnderstated {
                layer: l.name.clone(),
                declared: l.declared_workspace_bytes,
                required,
            });
        }
    }
    let certified = arena_high_water(&spec.layers);
    if spec.declared_high_water_bytes < certified {
        return Err(PlanViolation::HighWaterUnderstated {
            declared: spec.declared_high_water_bytes,
            required: certified,
        });
    }
    Ok(certified)
}

/// The chain-shaped passes: consecutive layers feed each other directly.
fn verify_chain_plan(spec: &PlanSpec) -> Result<PlanProof, PlanViolation> {
    check_shapes(&spec.layers)?;
    check_layouts(&spec.layers)?;
    // Numeric pass: the first layer's operands come from the input
    // quantizer, which clamps into the layer's adjusted range.
    let first = spec.layers.first().expect("plans have at least one layer");
    let mut act = operand_interval(first.bits);
    let mut proofs = Vec::with_capacity(spec.layers.len());
    for (i, l) in spec.layers.iter().enumerate() {
        let (proof, out) = check_layer_numerics(l, act)?;
        if let Some(next) = spec.layers.get(i + 1) {
            if l.requant.bits != next.bits {
                return Err(PlanViolation::RequantWidthBreak {
                    producer: l.name.clone(),
                    produced: l.requant.bits,
                    consumer: next.name.clone(),
                    expects: next.bits,
                });
            }
        }
        proofs.push(proof);
        act = out;
    }
    let certified = check_workspace(spec)?;
    Ok(PlanProof {
        layers: proofs,
        certified_high_water: certified,
        declared_high_water: spec.declared_high_water_bytes,
        // A bare chain records no value table; there is nothing to certify
        // beyond the declaration itself.
        certified_activation_high_water: spec.declared_activation_high_water_bytes,
        declared_activation_high_water: spec.declared_activation_high_water_bytes,
    })
}

fn graph_broken(node: impl Into<String>, detail: String) -> PlanViolation {
    PlanViolation::GraphStructureBroken { node: node.into(), detail }
}

/// Structural pass over the DAG: every id in range, values defined before
/// use and exactly once, conv nodes covering the layer table in order, and
/// the value table's dims/bytes/live-ranges consistent with the node table.
fn check_graph_structure(spec: &PlanSpec) -> Result<(), PlanViolation> {
    let (nodes, values) = (&spec.nodes, &spec.values);
    if values.is_empty() {
        return Err(graph_broken("plan", "a DAG plan has no values".into()));
    }
    let mut defined_at = vec![None; values.len()];
    defined_at[0] = Some(0usize);
    let mut conv_layers = Vec::new();
    for (step, n) in nodes.iter().enumerate() {
        if n.output == 0 || n.output >= values.len() {
            return Err(graph_broken(
                n.name.clone(),
                format!("defines value v{} outside the table (len {})", n.output, values.len()),
            ));
        }
        if defined_at[n.output].is_some() {
            return Err(graph_broken(n.name.clone(), format!("redefines value v{}", n.output)));
        }
        for &v in &n.inputs {
            if v >= values.len() {
                return Err(graph_broken(
                    n.name.clone(),
                    format!("reads value v{v} outside the table (len {})", values.len()),
                ));
            }
            if defined_at[v].is_none() {
                return Err(graph_broken(
                    n.name.clone(),
                    format!("reads value v{v} before any node defines it"),
                ));
            }
        }
        match n.op {
            NodeOpSpec::Conv { layer, fused_add } => {
                if layer >= spec.layers.len() {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!("references layer {layer} outside the table"),
                    ));
                }
                conv_layers.push(layer);
                match fused_add {
                    None if n.inputs.len() == 1 => {}
                    Some(r) if n.inputs.len() == 2 && n.inputs[1] == r => {}
                    _ => {
                        return Err(graph_broken(
                            n.name.clone(),
                            format!(
                                "conv operand list {:?} disagrees with fused_add {fused_add:?}",
                                n.inputs
                            ),
                        ));
                    }
                }
            }
            NodeOpSpec::Add => {
                if n.inputs.len() != 2 {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!("add has {} operands, expected 2", n.inputs.len()),
                    ));
                }
            }
            NodeOpSpec::Concat => {
                if n.inputs.len() < 2 {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!("concat has {} operands, expected >= 2", n.inputs.len()),
                    ));
                }
            }
        }
        defined_at[n.output] = Some(step);
    }
    // Every layer compiled must be executed exactly once, in node order —
    // the executor indexes reports and metrics by this correspondence.
    let expected: Vec<usize> = (0..spec.layers.len()).collect();
    if conv_layers != expected {
        return Err(graph_broken(
            "plan",
            format!("conv nodes reference layers {conv_layers:?}, expected {expected:?} in order"),
        ));
    }
    for (v, slot) in values.iter().enumerate() {
        if defined_at[v].is_none() {
            return Err(graph_broken(format!("v{v}"), "no node defines this value".into()));
        }
        let (n, c, h, w) = slot.dims;
        if slot.bytes != n * c * h * w {
            return Err(graph_broken(
                format!("v{v}"),
                format!("records {} bytes for dims {:?}", slot.bytes, slot.dims),
            ));
        }
    }
    // Recorded live ranges must cover what the dataflow proves: `def` is
    // exactly the defining step and `last_use` at least the last read (the
    // output value is held through the final step for the caller).
    let last_step = nodes.len() - 1;
    let output = nodes[last_step].output;
    for (v, slot) in values.iter().enumerate() {
        let def = defined_at[v].expect("checked above");
        let mut last = def;
        for (step, n) in nodes.iter().enumerate() {
            if n.inputs.contains(&v) {
                last = last.max(step);
            }
        }
        if v == output {
            last = last_step;
        }
        if slot.def != def {
            return Err(graph_broken(
                format!("v{v}"),
                format!("records def step {} but node {def} defines it", slot.def),
            ));
        }
        if slot.last_use < last {
            return Err(graph_broken(
                format!("v{v}"),
                format!("records last use {} but step {last} still reads it", slot.last_use),
            ));
        }
    }
    Ok(())
}

/// Dataflow pass over the DAG: operand shapes, bit widths and layouts at
/// every edge, with the recorded conversions anchored to the stored value
/// layouts (this is what proves an elided NCHW round-trip sound: the value
/// stays NHWC only if every consumer's kernel is NHWC-native).
fn check_graph_dataflow(spec: &PlanSpec) -> Result<(), PlanViolation> {
    let (nodes, values) = (&spec.nodes, &spec.values);
    let producer_name = |v: usize| -> String {
        if v == 0 {
            "input".into()
        } else {
            nodes
                .iter()
                .find(|n| n.output == v)
                .map(|n| n.name.clone())
                .expect("structure pass proved every value defined")
        }
    };
    for n in nodes {
        let out = &values[n.output];
        match n.op {
            NodeOpSpec::Conv { layer, fused_add } => {
                let l = &spec.layers[layer];
                let act = &values[n.inputs[0]];
                let expects = (l.shape.batch, l.shape.c_in, l.shape.h, l.shape.w);
                if act.dims != expects {
                    return Err(PlanViolation::ShapeBreak {
                        producer: producer_name(n.inputs[0]),
                        produces: act.dims,
                        consumer: l.name.clone(),
                        expects,
                    });
                }
                if act.bits != l.bits {
                    return Err(PlanViolation::RequantWidthBreak {
                        producer: producer_name(n.inputs[0]),
                        produced: act.bits,
                        consumer: l.name.clone(),
                        expects: l.bits,
                    });
                }
                let produces =
                    (l.shape.batch, l.shape.c_out, l.shape.out_h(), l.shape.out_w());
                if out.dims != produces {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!("produces {produces:?} but value v{} records {:?}", n.output, out.dims),
                    ));
                }
                if out.bits != l.requant.bits {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!(
                            "requantizes into {} but value v{} records {}",
                            l.requant.bits, n.output, out.bits
                        ),
                    ));
                }
                if let Some(r) = fused_add {
                    let res = &values[r];
                    if res.dims != produces || res.bits != l.requant.bits {
                        return Err(graph_broken(
                            n.name.clone(),
                            format!(
                                "fused residual v{r} is {:?}@{} but the conv produces {:?}@{}",
                                res.dims, res.bits, produces, l.requant.bits
                            ),
                        ));
                    }
                }
                // Layout walk: stored layout -> (pre) -> kernel-native ->
                // (post) -> stored output layout.
                let mut current = act.layout;
                if let Some(c) = l.pre {
                    if c.from != current {
                        return Err(PlanViolation::DanglingConversion {
                            layer: l.name.clone(),
                            from: c.from,
                            current,
                        });
                    }
                    current = c.to;
                }
                let native = l.backend.native_layout();
                if current != native {
                    return Err(PlanViolation::LayoutMismatch {
                        layer: l.name.clone(),
                        site: "kernel input",
                        expected: native,
                        found: current,
                    });
                }
                current = native;
                if let Some(c) = l.post {
                    if c.from != current {
                        return Err(PlanViolation::DanglingConversion {
                            layer: l.name.clone(),
                            from: c.from,
                            current,
                        });
                    }
                    current = c.to;
                }
                if current != out.layout {
                    return Err(PlanViolation::LayoutMismatch {
                        layer: l.name.clone(),
                        site: "layer output",
                        expected: out.layout,
                        found: current,
                    });
                }
            }
            NodeOpSpec::Add => {
                let (a, b) = (&values[n.inputs[0]], &values[n.inputs[1]]);
                if a.dims != b.dims {
                    return Err(PlanViolation::ShapeBreak {
                        producer: producer_name(n.inputs[1]),
                        produces: b.dims,
                        consumer: n.name.clone(),
                        expects: a.dims,
                    });
                }
                if a.bits != b.bits || out.bits != a.bits || out.dims != a.dims {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!(
                            "add over v{}@{} and v{}@{} into v{}@{}",
                            n.inputs[0], a.bits, n.inputs[1], b.bits, n.output, out.bits
                        ),
                    ));
                }
            }
            NodeOpSpec::Concat => {
                let first = &values[n.inputs[0]];
                let mut c_total = 0;
                for &v in &n.inputs {
                    let t = &values[v];
                    if (t.dims.0, t.dims.2, t.dims.3) != (first.dims.0, first.dims.2, first.dims.3)
                    {
                        return Err(PlanViolation::ShapeBreak {
                            producer: producer_name(v),
                            produces: t.dims,
                            consumer: n.name.clone(),
                            expects: (first.dims.0, t.dims.1, first.dims.2, first.dims.3),
                        });
                    }
                    if t.bits != first.bits {
                        return Err(graph_broken(
                            n.name.clone(),
                            format!("concat operands v{} and v{} disagree on bit width", n.inputs[0], v),
                        ));
                    }
                    c_total += t.dims.1;
                }
                let expects = (first.dims.0, c_total, first.dims.2, first.dims.3);
                if out.dims != expects || out.bits != first.bits {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!("concat produces {expects:?} but value v{} records {:?}", n.output, out.dims),
                    ));
                }
            }
        }
        // Joins and the plan boundary consume canonical NCHW.
        if !matches!(n.op, NodeOpSpec::Conv { .. }) {
            for &v in &n.inputs {
                if values[v].layout != Layout::Nchw {
                    return Err(PlanViolation::LayoutMismatch {
                        layer: n.name.clone(),
                        site: "join operand",
                        expected: Layout::Nchw,
                        found: values[v].layout,
                    });
                }
            }
            if out.layout != Layout::Nchw {
                return Err(PlanViolation::LayoutMismatch {
                    layer: n.name.clone(),
                    site: "layer output",
                    expected: Layout::Nchw,
                    found: out.layout,
                });
            }
        }
    }
    let output = nodes.last().expect("non-empty").output;
    if values[output].layout != Layout::Nchw {
        return Err(PlanViolation::LayoutMismatch {
            layer: producer_name(output),
            site: "plan output",
            expected: Layout::Nchw,
            found: values[output].layout,
        });
    }
    Ok(())
}

/// Numeric pass over the DAG: per-value intervals pushed through every
/// node. Convolutions reuse the chain pass's per-layer machinery; a fused
/// residual add widens the epilogue interval by the residual's before
/// re-clamping into the output width — exactly the executor's arithmetic.
fn check_graph_numerics(spec: &PlanSpec) -> Result<Vec<LayerRangeProof>, PlanViolation> {
    let values = &spec.values;
    let mut intervals: Vec<Option<Interval>> = vec![None; values.len()];
    intervals[0] = Some(operand_interval(values[0].bits));
    let mut proofs: Vec<Option<LayerRangeProof>> = vec![None; spec.layers.len()];
    for n in &spec.nodes {
        let out = match n.op {
            NodeOpSpec::Conv { layer, fused_add } => {
                let l = &spec.layers[layer];
                let act = intervals[n.inputs[0]].expect("structure pass proved def-before-use");
                let (proof, out) = check_layer_numerics(l, act)?;
                proofs[layer] = Some(proof);
                match fused_add {
                    Some(r) => {
                        let res = intervals[r].expect("structure pass proved def-before-use");
                        let (qmin, qmax) =
                            (l.requant.bits.qmin() as i64, l.requant.bits.qmax() as i64);
                        Interval::new(
                            (out.lo + res.lo).clamp(qmin, qmax),
                            (out.hi + res.hi).clamp(qmin, qmax),
                        )
                    }
                    None => out,
                }
            }
            NodeOpSpec::Add => {
                let a = intervals[n.inputs[0]].expect("def-before-use");
                let b = intervals[n.inputs[1]].expect("def-before-use");
                let bits = values[n.output].bits;
                let (qmin, qmax) = (bits.qmin() as i64, bits.qmax() as i64);
                Interval::new((a.lo + b.lo).clamp(qmin, qmax), (a.hi + b.hi).clamp(qmin, qmax))
            }
            NodeOpSpec::Concat => {
                let mut u = intervals[n.inputs[0]].expect("def-before-use");
                for &v in &n.inputs[1..] {
                    let t = intervals[v].expect("def-before-use");
                    u = Interval::new(u.lo.min(t.lo), u.hi.max(t.hi));
                }
                u
            }
        };
        intervals[n.output] = Some(out);
    }
    Ok(proofs
        .into_iter()
        .map(|p| p.expect("structure pass proved every layer has a conv node"))
        .collect())
}

/// Activation-arena pass: every pair of simultaneously-live values must
/// occupy disjoint byte spans, and the declared high-water must dominate
/// `max(offset + bytes)`. Together with the structure pass's live-range
/// proof this makes the declared figure a true upper bound: at any step the
/// live values are pairwise disjoint within `[0, declared)`, so their byte
/// sum — what the executor meters at run time — cannot exceed it.
fn check_activation_arena(spec: &PlanSpec) -> Result<usize, PlanViolation> {
    let values = &spec.values;
    let mut required = 0;
    for (a, va) in values.iter().enumerate() {
        required = required.max(va.offset + va.bytes);
        for (b, vb) in values.iter().enumerate().skip(a + 1) {
            let live_together = va.def <= vb.last_use && vb.def <= va.last_use;
            if !live_together || va.bytes == 0 || vb.bytes == 0 {
                continue;
            }
            let disjoint =
                va.offset + va.bytes <= vb.offset || vb.offset + vb.bytes <= va.offset;
            if !disjoint {
                return Err(PlanViolation::ActivationOverlap {
                    a,
                    a_span: (va.offset, va.offset + va.bytes),
                    b,
                    b_span: (vb.offset, vb.offset + vb.bytes),
                });
            }
        }
    }
    if spec.declared_activation_high_water_bytes < required {
        return Err(PlanViolation::ActivationHighWaterUnderstated {
            declared: spec.declared_activation_high_water_bytes,
            required,
        });
    }
    Ok(required)
}

/// The DAG-shaped passes.
fn verify_graph_plan(spec: &PlanSpec) -> Result<PlanProof, PlanViolation> {
    check_graph_structure(spec)?;
    check_graph_dataflow(spec)?;
    let proofs = check_graph_numerics(spec)?;
    let certified = check_workspace(spec)?;
    let certified_activation = check_activation_arena(spec)?;
    Ok(PlanProof {
        layers: proofs,
        certified_high_water: certified,
        declared_high_water: spec.declared_high_water_bytes,
        certified_activation_high_water: certified_activation,
        declared_activation_high_water: spec.declared_activation_high_water_bytes,
    })
}

/// Verifies a lowered plan spec: shape and layout dataflow, numeric range
/// propagation through every layer, and workspace certification. A spec
/// with a node table additionally gets the graph passes — structural
/// well-formedness, per-edge dataflow, and the activation-arena
/// disjointness proof behind `declared_activation_high_water_bytes`.
/// Returns the proof certificate, or the first typed counterexample.
pub fn verify_plan(spec: &PlanSpec) -> Result<PlanProof, PlanViolation> {
    if spec.nodes.is_empty() {
        verify_chain_plan(spec)
    } else {
        verify_graph_plan(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_conv_arm::workspace::{gemm_conv_ws, ConvWorkspace, PackedWeights};
    use lowbit_qgemm::narrow::pack_a_narrow;
    use lowbit_qgemm::parallel::ParallelConfig;
    use lowbit_qgemm::sdot::pack_a_quads;
    use lowbit_qgemm::{pack_a, Scheme};
    use lowbit_tensor::{Layout, QTensor};
    use lowbit_trace::Tracer;

    /// A hand-built two-layer spec small enough to reason about exactly.
    fn toy_spec() -> PlanSpec {
        let s1 = ConvShape::new(1, 3, 8, 8, 4, 3, 1, 1);
        let s2 = ConvShape::new(1, 4, 8, 8, 2, 3, 2, 1);
        let mk = |name: &str, shape: ConvShape, relu: bool| LayerSpec {
            name: name.into(),
            shape,
            bits: BitWidth::W4,
            backend: BackendSpec::Arm(ArmAlgoKind::GemmWide),
            pre: None,
            post: None,
            declared_workspace_bytes: arm_workspace_requirement(&shape, ArmAlgoKind::GemmWide)
                .total(),
            channel_sums: vec![ChannelSums { neg: -40, pos: 44 }; shape.c_out],
            bias: None,
            requant: RequantSpec { bits: BitWidth::W4, multiplier: 0.01, clamp_min: -8 },
            relu,
        };
        let layers = vec![mk("l1", s1, true), mk("l2", s2, false)];
        let hw = arena_high_water(&layers);
        PlanSpec {
            layers,
            nodes: vec![],
            values: vec![],
            declared_high_water_bytes: hw,
            declared_activation_high_water_bytes: 0,
        }
    }

    /// The toy chain lifted into an explicit DAG with a residual add fused
    /// into the second conv: input v0 feeds l1 -> v1, l1's output feeds
    /// l2 whose epilogue adds v1 back in -> v2. Arena: v0 and v2 share
    /// offset 0 (their live ranges are disjoint), v1 sits after v0.
    fn toy_graph_spec() -> PlanSpec {
        let shape = ConvShape::new(1, 4, 8, 8, 4, 3, 1, 1);
        let mk = |name: &str, relu: bool| LayerSpec {
            name: name.into(),
            shape,
            bits: BitWidth::W4,
            backend: BackendSpec::Arm(ArmAlgoKind::GemmWide),
            pre: None,
            post: None,
            declared_workspace_bytes: arm_workspace_requirement(&shape, ArmAlgoKind::GemmWide)
                .total(),
            channel_sums: vec![ChannelSums { neg: -40, pos: 44 }; shape.c_out],
            bias: None,
            requant: RequantSpec { bits: BitWidth::W4, multiplier: 0.01, clamp_min: -8 },
            relu,
        };
        let layers = vec![mk("l1", true), mk("l2", false)];
        let hw = arena_high_water(&layers);
        let bytes = 4 * 8 * 8;
        let slot = |layout, def, last_use, offset| ValueSlot {
            dims: (1, 4, 8, 8),
            bits: BitWidth::W4,
            layout,
            bytes,
            def,
            last_use,
            offset,
        };
        PlanSpec {
            layers,
            nodes: vec![
                NodeSpec {
                    name: "l1".into(),
                    op: NodeOpSpec::Conv { layer: 0, fused_add: None },
                    inputs: vec![0],
                    output: 1,
                },
                NodeSpec {
                    name: "l2".into(),
                    op: NodeOpSpec::Conv { layer: 1, fused_add: Some(1) },
                    inputs: vec![1, 1],
                    output: 2,
                },
            ],
            values: vec![
                slot(Layout::Nchw, 0, 0, 0),
                slot(Layout::Nchw, 0, 1, bytes),
                slot(Layout::Nchw, 1, 1, 0),
            ],
            declared_high_water_bytes: hw,
            declared_activation_high_water_bytes: 2 * bytes,
        }
    }

    #[test]
    fn toy_spec_proves_and_reports() {
        let spec = toy_spec();
        let proof = verify_plan(&spec).unwrap();
        assert_eq!(proof.layers.len(), 2);
        // Layer 1 sees the full W4 operand range; its ReLU clamps the output
        // to [0, 7], which is what layer 2 must see.
        assert_eq!(proof.layers[0].input, Interval::new(-8, 7));
        assert!(proof.layers[0].output.lo >= 0);
        assert_eq!(proof.layers[1].input, proof.layers[0].output);
        assert!(proof.tightest_headroom() > 0.99, "toy accumulators are tiny");
        let report = proof.report();
        assert!(report.contains("l1"));
        assert!(report.contains("arena high-water"));
        let json = proof.to_json();
        assert!(json.contains("\"certified_high_water\""));
    }

    #[test]
    fn shape_break_is_caught() {
        let mut spec = toy_spec();
        spec.layers[1].shape.c_in = 5;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::ShapeBreak { .. })
        ));
    }

    #[test]
    fn layout_witnesses_fire() {
        // A GPU layer with no recorded pre-conversion: NCHW hits an
        // NHWC-native kernel.
        let mut spec = toy_spec();
        spec.layers[0].backend = BackendSpec::Gpu;
        spec.layers[0].declared_workspace_bytes = 0;
        spec.layers[0].post = Some(LayoutConversion { from: Layout::Nhwc, to: Layout::Nchw });
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::LayoutMismatch { site: "kernel input", .. })
        ));
        // Recorded properly, it proves.
        spec.layers[0].pre = Some(LayoutConversion { from: Layout::Nchw, to: Layout::Nhwc });
        assert!(verify_plan(&spec).is_ok());
        // Dropping the post-conversion leaves NHWC at the plan boundary.
        spec.layers[0].post = None;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::LayoutMismatch { site: "layer output", .. })
        ));
        // A conversion anchored to the wrong source layout dangles.
        let mut spec = toy_spec();
        spec.layers[1].pre = Some(LayoutConversion { from: Layout::Nhwc, to: Layout::Nchw });
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::DanglingConversion { .. })
        ));
    }

    #[test]
    fn acc_overflow_and_operand_range_witnesses_fire() {
        let mut spec = toy_spec();
        spec.layers[0].channel_sums[1] = ChannelSums { neg: 0, pos: i32::MAX as i64 };
        match verify_plan(&spec) {
            Err(PlanViolation::AccOverflow { layer, channel, .. }) => {
                assert_eq!((layer.as_str(), channel), ("l1", 1));
            }
            other => panic!("expected AccOverflow, got {other:?}"),
        }
        // A plan claiming Winograd at 7 bit: the 4x input-transform
        // inflation escapes i8 (the paper's 4-6 bit restriction, re-proven
        // against the live interval).
        let mut spec = toy_spec();
        spec.layers[0].bits = BitWidth::W7;
        spec.layers[0].requant.bits = BitWidth::W7;
        spec.layers[1].bits = BitWidth::W7;
        spec.layers[1].requant.bits = BitWidth::W7;
        spec.layers[0].backend = BackendSpec::Arm(ArmAlgoKind::Winograd);
        spec.layers[0].declared_workspace_bytes = 0;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::OperandRangeBreak { .. })
        ));
    }

    #[test]
    fn epilogue_witnesses_fire() {
        let mut spec = toy_spec();
        spec.layers[0].requant.bits = BitWidth::W6;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::RequantWidthBreak { .. })
        ));
        let mut spec = toy_spec();
        spec.layers[1].requant.clamp_min = -100;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::ClampRangeBreak { clamp_min: -100, .. })
        ));
        let mut spec = toy_spec();
        spec.layers[0].bias = Some(vec![1; 3]);
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::EpilogueBiasBreak { expects: 4, got: 3, .. })
        ));
    }

    #[test]
    fn workspace_witnesses_fire() {
        let mut spec = toy_spec();
        spec.layers[0].declared_workspace_bytes /= 2;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::WorkspaceUnderstated { layer, .. }) if layer == "l1"
        ));
        let mut spec = toy_spec();
        spec.declared_high_water_bytes -= 1;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::HighWaterUnderstated { .. })
        ));
    }

    #[test]
    fn toy_graph_spec_proves_with_activation_certificate() {
        let spec = toy_graph_spec();
        let proof = verify_plan(&spec).unwrap();
        assert_eq!(proof.layers.len(), 2);
        assert_eq!(proof.certified_activation_high_water, 2 * 4 * 8 * 8);
        assert!(proof.certified_activation_high_water <= proof.declared_activation_high_water);
        // The fused residual widens l2's output interval but stays clamped
        // inside the W4 range.
        let report = proof.report();
        assert!(report.contains("activation high-water"));
        assert!(proof.to_json().contains("\"certified_activation_high_water\""));
    }

    #[test]
    fn graph_structure_witnesses_fire() {
        // A conv reading a value no node has defined yet.
        let mut spec = toy_graph_spec();
        spec.nodes[0].inputs = vec![2];
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::GraphStructureBroken { .. })
        ));
        // A value table understating a live range the dataflow still needs.
        let mut spec = toy_graph_spec();
        spec.values[1].last_use = 0;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::GraphStructureBroken { .. })
        ));
        // A value whose byte size disagrees with its dims.
        let mut spec = toy_graph_spec();
        spec.values[1].bytes -= 1;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::GraphStructureBroken { .. })
        ));
    }

    #[test]
    fn activation_witnesses_fire() {
        // Placing v1 on top of the still-live input overlaps two
        // simultaneously-live values.
        let mut spec = toy_graph_spec();
        spec.values[1].offset = 0;
        spec.values[1].last_use = 1;
        match verify_plan(&spec) {
            Err(PlanViolation::ActivationOverlap { a, b, .. }) => assert_eq!((a, b), (0, 1)),
            other => panic!("expected ActivationOverlap, got {other:?}"),
        }
        // Understating the declared activation high-water is caught even
        // with sound placements.
        let mut spec = toy_graph_spec();
        spec.declared_activation_high_water_bytes -= 1;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::ActivationHighWaterUnderstated { .. })
        ));
    }

    #[test]
    fn graph_dataflow_witnesses_fire() {
        // A value recorded NHWC that no conversion ever produces: the
        // ARM producer writes NCHW, so the recorded store layout dangles
        // (an unsound elision is caught at whichever edge breaks first).
        let mut spec = toy_graph_spec();
        spec.values[1].layout = Layout::Nhwc;
        spec.values[1].offset = 2 * 4 * 8 * 8;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::LayoutMismatch { site: "layer output", .. })
        ));
        // A producer re-quantizing into a width the consuming conv's
        // proofs never assumed (value table kept consistent so the edge
        // check, not the table check, is what fires).
        let mut spec = toy_graph_spec();
        spec.layers[0].requant.bits = BitWidth::W6;
        spec.values[1].bits = BitWidth::W6;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::RequantWidthBreak { .. })
        ));
    }

    #[test]
    fn every_violation_displays_non_empty() {
        let samples = [
            PlanViolation::ShapeBreak {
                producer: "a".into(),
                produces: (1, 2, 3, 4),
                consumer: "b".into(),
                expects: (1, 5, 3, 4),
            },
            PlanViolation::LayoutMismatch {
                layer: "a".into(),
                site: "kernel input",
                expected: Layout::Nhwc,
                found: Layout::Nchw,
            },
            PlanViolation::DanglingConversion {
                layer: "a".into(),
                from: Layout::Nhwc,
                current: Layout::Nchw,
            },
            PlanViolation::AccOverflow {
                layer: "a".into(),
                channel: 0,
                acc: Interval::new(0, i64::MAX / 2),
            },
            PlanViolation::OperandRangeBreak {
                layer: "a".into(),
                interval: Interval::new(-9, 9),
                bound: 8,
                context: "test".into(),
            },
            PlanViolation::RequantWidthBreak {
                producer: "a".into(),
                produced: BitWidth::W4,
                consumer: "b".into(),
                expects: BitWidth::W6,
            },
            PlanViolation::ClampRangeBreak { layer: "a".into(), clamp_min: -100, qmin: -8, qmax: 7 },
            PlanViolation::EpilogueBiasBreak { layer: "a".into(), expects: 4, got: 3 },
            PlanViolation::ChannelSumsBreak { layer: "a".into(), expects: 4, got: 3 },
            PlanViolation::WorkspaceUnderstated { layer: "a".into(), declared: 1, required: 2 },
            PlanViolation::HighWaterUnderstated { declared: 1, required: 2 },
            PlanViolation::FingerprintBlind { field: "requant.clamp_min".into() },
            PlanViolation::GraphStructureBroken {
                node: "add".into(),
                detail: "reads value v9 outside the table (len 4)".into(),
            },
            PlanViolation::ActivationOverlap {
                a: 0,
                a_span: (0, 256),
                b: 2,
                b_span: (128, 384),
            },
            PlanViolation::ActivationHighWaterUnderstated { declared: 1, required: 2 },
        ];
        for v in samples {
            assert!(!v.to_string().is_empty(), "{v:?}");
        }
    }

    /// The certified arena bound must dominate what the real kernels
    /// allocate, at every thread count, for every GEMM-family path — and be
    /// exact for the single-layer case (no slack hiding in the formula).
    #[test]
    fn certified_workspace_dominates_real_arena_growth() {
        let shapes = [
            ConvShape::new(1, 5, 9, 7, 11, 3, 2, 1),
            ConvShape::new(2, 4, 10, 10, 8, 3, 1, 1),
            ConvShape::new(1, 8, 5, 5, 16, 1, 1, 0),
        ];
        let bits = BitWidth::W8;
        let scheme = Scheme::for_bits(bits);
        for shape in &shapes {
            let input = QTensor::random(
                (shape.batch, shape.c_in, shape.h, shape.w),
                Layout::Nchw,
                bits,
                3,
            );
            let weights = QTensor::random(
                (shape.c_out, shape.c_in, shape.kh, shape.kw),
                Layout::Nchw,
                bits,
                4,
            );
            let (w, m, k) = (weights.data(), shape.gemm_m(), shape.gemm_k());
            let packings = [
                (ArmAlgoKind::GemmWide, PackedWeights::Wide(pack_a(w, m, k))),
                (ArmAlgoKind::GemmNarrow, PackedWeights::Narrow(pack_a_narrow(w, m, k))),
                (ArmAlgoKind::GemmSdot, PackedWeights::Quads(pack_a_quads(w, m, k))),
            ];
            for (kind, pa) in &packings {
                let bound = arm_workspace_requirement(shape, *kind).total();
                for threads in [1, 2, 4, 16] {
                    let cfg = ParallelConfig::with_threads(threads);
                    let mut ws = ConvWorkspace::new();
                    gemm_conv_ws(&input, pa, &scheme, shape, &cfg, &mut ws, &Tracer::null());
                    assert!(
                        ws.footprint_bytes() <= bound,
                        "{kind:?} {shape} x{threads}: {} > {bound}",
                        ws.footprint_bytes()
                    );
                }
            }
        }
    }

    #[test]
    fn high_water_is_component_wise_not_total_max() {
        // One im2col-heavy layer + one result-heavy layer: the arena keeps
        // the max of each buffer, so the certified bound exceeds either
        // layer's own total.
        let a = ConvShape::new(1, 32, 16, 16, 4, 3, 1, 1); // big K -> big col
        let b = ConvShape::new(1, 4, 16, 16, 64, 1, 1, 0); // big M -> big c_cm
        let mk = |name: &str, shape: ConvShape| LayerSpec {
            name: name.into(),
            shape,
            bits: BitWidth::W4,
            backend: BackendSpec::Arm(ArmAlgoKind::GemmWide),
            pre: None,
            post: None,
            declared_workspace_bytes: usize::MAX,
            channel_sums: vec![ChannelSums { neg: -1, pos: 1 }; shape.c_out],
            bias: None,
            requant: RequantSpec { bits: BitWidth::W4, multiplier: 0.01, clamp_min: -8 },
            relu: false,
        };
        let layers = vec![mk("a", a), mk("b", b)];
        let hw = arena_high_water(&layers);
        let ta = layer_workspace_requirement(&layers[0]).total();
        let tb = layer_workspace_requirement(&layers[1]).total();
        assert!(hw > ta.max(tb), "{hw} vs {ta}/{tb}");
        assert!(hw <= ta + tb);
    }
}
