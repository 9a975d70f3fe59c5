//! Whole-plan static verification: end-to-end numeric range, layout and
//! workspace proofs over a compiled execution plan.
//!
//! The stream verifier ([`crate::absint`]) proves each emitted NEON kernel
//! saturation-safe *given* operands inside the declared bit-width range, and
//! the GPU verifier ([`crate::gpu`]) proves each tile configuration's
//! geometry and resource discipline. Neither can catch a cross-layer bug:
//! a re-quantization that emits values outside the range the next layer's
//! kernel proof assumed, a value kept NHWC where a consumer reads NCHW, or
//! a workspace high-water figure that understates what the arena will
//! actually grow to. This module closes that gap with a plan-level pass
//! over a backend-neutral [`PlanSpec`]: a DAG of nodes over arena-placed
//! values, of which a layer chain is the one-consumer-per-value case.
//!
//! 1. **Graph structure** — every value id in range and defined once before
//!    use, one conv node per layer in order, and the value table's dims,
//!    bytes and live ranges consistent with the node table
//!    ([`PlanViolation::GraphStructureBroken`]).
//! 2. **Layout/shape dataflow** — per edge: each conv's operand value must
//!    have the layer's input shape and bit width. A value's layout is
//!    recorded once, in [`ValuePlan::layout`], and every backend takes its
//!    activation in any layout, so one rule covers layouts: a value stored
//!    other than NCHW is neither the graph input nor the plan output, is
//!    produced by a conv native in that layout, and is read only as the
//!    activation of convs native in it ([`PlanViolation::LayoutMismatch`],
//!    [`PlanViolation::ShapeBreak`], [`PlanViolation::RequantWidthBreak`]).
//! 3. **Numeric soundness** — interval abstract interpretation of the
//!    activation range through every node: per-output-channel accumulator
//!    bounds from the actual packed weights (positive/negative column sums x
//!    the incoming activation interval, plus the exact bias), proven to fit
//!    i32 before re-quantization, then pushed through the fused
//!    bias+requant+ReLU epilogue ([`Epilogue::effective_requant`], the
//!    executor's own expression) to the next layer's operand interval —
//!    which must sit inside the range the *stream* proofs assumed for that
//!    layer's bit width (Winograd layers additionally re-check the paper's
//!    4x input-transform inflation against the live interval).
//! 4. **Workspace certification** — the arena each ARM layer grows (its B
//!    operand: the im2col matrix or Winograd's transformed input; the
//!    packed-B panels, maximized over every legal thread count; Winograd's
//!    output planes) is recomputed from the blocking constants the engine
//!    really uses, and the plan's declared per-layer and whole-plan
//!    high-water figures must dominate it. For one layer the bound is exact:
//!    the largest real footprint over the thread counts. The two families
//!    share the three buffers, so the component-wise maximum bounds a whole
//!    plan run through one arena.
//! 5. **Activation arena** — simultaneously-live values occupy disjoint
//!    byte spans, and the declared activation high-water dominates them.
//!
//! The pass is deliberately independent of the `lowbit` core crate (which
//! itself depends on this one). The plan's tables are defined here — the
//! layers ([`LayerPlan`], [`PlanAlgo`], [`Epilogue`], [`BackendKind`]), the
//! nodes ([`NodePlan`], [`PlanOp`]) and the values ([`ValuePlan`]), which
//! core's `ExecutionPlan` stores and re-exports — so the spec carries the
//! very tables the executor runs. Core lowers a plan into a [`PlanSpec`] by
//! cloning those tables and adding the one fact the plan does not hold,
//! each layer's per-channel weight sums ([`LayerSpec`]), then calls
//! [`verify_plan`]; the negative catalog in the CLI and the integration
//! tests seed mutants into such a lowered spec.

use crate::interval::Interval;
use lowbit_conv_arm::range_analysis::f23_range_halved;
use lowbit_conv_arm::ArmAlgo;
use lowbit_conv_gpu::TileConfig;
use lowbit_qgemm::parallel::{panel_len, panels_len, ParallelConfig, MAX_THREADS};
use lowbit_qgemm::ColumnSpan;
use lowbit_qnn::RequantParams;
use lowbit_tensor::{BitWidth, ConvShape, Layout};
use neon_sim::meta::ElemWidth;

/// Per-output-channel signed weight sums: the exact extreme contributions a
/// channel's row of the GEMM can make given an activation interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelSums {
    /// Sum of the channel's negative weights (<= 0).
    pub neg: i64,
    /// Sum of the channel's positive weights (>= 0).
    pub pos: i64,
}

/// Which engine a layer runs on. `Hash` so serving-layer caches can key
/// compiled plans by `(network fingerprint, batch, backend)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BackendKind {
    /// The ARM CPU engine (executes kernels, models a Cortex core).
    Arm,
    /// The Turing-like GPU model (executes functionally, models launches).
    GpuModel,
}

impl BackendKind {
    /// The memory layout the backend's kernels consume and produce.
    pub fn native_layout(self) -> Layout {
        match self {
            BackendKind::Arm => Layout::Nchw,
            BackendKind::GpuModel => Layout::Nhwc,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Arm => write!(f, "arm"),
            BackendKind::GpuModel => write!(f, "gpu-model"),
        }
    }
}

/// The concrete algorithm a layer plan commits to. Unlike
/// [`ArmAlgo`], this can never be `Auto`: compilation resolves every
/// choice offline.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PlanAlgo {
    /// An ARM kernel (wide/narrow GEMM, SDOT, Winograd, or a baseline).
    Arm(ArmAlgo),
    /// The GPU implicit-precomp-GEMM kernel with its tiling parameters.
    GpuImplicitGemm(TileConfig),
}

impl PlanAlgo {
    /// The engine that runs this algorithm.
    pub fn backend(&self) -> BackendKind {
        match self {
            PlanAlgo::Arm(_) => BackendKind::Arm,
            PlanAlgo::GpuImplicitGemm(_) => BackendKind::GpuModel,
        }
    }
}

impl std::fmt::Display for PlanAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanAlgo::Arm(a) => write!(f, "{a:?}"),
            PlanAlgo::GpuImplicitGemm(c) => write!(
                f,
                "ImplicitGemm {}x{}x{}/{} w{}x{}",
                c.m_tile, c.n_tile, c.k_tile, c.k_step, c.warps_m, c.warps_n
            ),
        }
    }
}

/// The fused tail of a layer: optional per-channel i32 bias, re-quantization
/// into the next layer's width, and the Sec. 4.4 ReLU-folded-into-truncation
/// trick.
#[derive(Clone, Debug)]
pub struct Epilogue {
    /// Per-`c_out` bias added to the accumulators before re-quantization.
    pub bias: Option<Vec<i32>>,
    /// Re-quantization parameters (before the ReLU fold).
    pub requant: RequantParams,
    /// Whether the ReLU is fused into the truncation.
    pub relu: bool,
}

impl Epilogue {
    /// The requant parameters actually applied (ReLU folded when
    /// requested). The fold raises the truncation floor to 0 but never
    /// lowers it: a layer that already clamps above zero keeps its tighter
    /// bound (`relu(clamp(x, m, ..)) = clamp(x, m, ..)` for `m >= 0`).
    pub fn effective_requant(&self) -> RequantParams {
        if self.relu {
            let mut rq = self.requant;
            rq.clamp_min = rq.clamp_min.max(0);
            rq
        } else {
            self.requant
        }
    }
}

/// One layer's fully-resolved execution recipe.
#[derive(Clone, Debug)]
pub struct LayerPlan {
    /// Layer name (matches the network's).
    pub name: String,
    /// Convolution geometry.
    pub shape: ConvShape,
    /// Operand bit width.
    pub bits: BitWidth,
    /// The concrete kernel choice; [`PlanAlgo::backend`] names the engine
    /// that runs it.
    pub algo: PlanAlgo,
    /// The prepack-cache key the online phase will hit (`None` for
    /// algorithms without a prepacked weight layout).
    pub prepack_fingerprint: Option<u64>,
    /// The arena bytes this layer needs: the certified
    /// [`workspace_requirement`] of its kernel, which [`verify_plan`]
    /// re-derives and requires this figure to dominate.
    pub workspace_bytes: usize,
    /// Modeled steady-state milliseconds (the cost the plan was ranked by,
    /// after prepacking amortizes the weight pack away).
    pub predicted_millis: f64,
    /// The fused epilogue.
    pub epilogue: Epilogue,
}

/// One layer of the plan spec: the plan's own layer, cloned, beside the one
/// fact the plan does not hold.
#[derive(Clone, Debug)]
pub struct LayerSpec {
    /// The plan's layer.
    pub plan: LayerPlan,
    /// Per-output-channel signed weight sums (length `c_out`), taken from
    /// the real weights.
    pub channel_sums: Vec<ChannelSums>,
}

/// What a plan node computes. The planner's graph-level fusion shows up
/// here: a residual add folded into its producing conv records the residual
/// value in `fused_add` and the standalone `Add` node disappears.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOp {
    /// A conv layer. When `fused_add` is set, the executor adds that value
    /// elementwise onto the re-quantized output inside the conv's epilogue
    /// (the node's second input is the residual).
    Conv {
        /// Index into the plan's layer list (and [`PlanSpec::layers`]).
        layer: usize,
        /// Residual value folded into this conv's epilogue, if any.
        fused_add: Option<usize>,
    },
    /// Standalone elementwise saturating add (an unfused residual join).
    Add,
    /// Channel-axis concatenation.
    Concat,
}

/// One step of the compiled DAG: a named op over plan value ids.
#[derive(Clone, Debug)]
pub struct NodePlan {
    /// Display name (conv nodes reuse their layer's name).
    pub name: String,
    /// The op.
    pub op: PlanOp,
    /// Input value ids. For a conv with `fused_add: Some(r)` this is
    /// `[activation, r]`.
    pub inputs: Vec<usize>,
    /// Output value id.
    pub output: usize,
}

/// One activation value of the compiled plan: its geometry, its inter-node
/// layout (NHWC when the planner elided a round-trip between same-backend
/// GPU neighbors), and its slot in the shared activation arena. The layout
/// is the plan's only record of one: the executor stores the value in it
/// and each backend converts its input to its own native layout. The
/// verifiers re-prove the recorded layout, placement and live range, not
/// trust them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ValuePlan {
    /// `(batch, channels, h, w)`.
    pub dims: (usize, usize, usize, usize),
    /// Quantized element width.
    pub bits: BitWidth,
    /// The layout the value is stored in between nodes.
    pub layout: Layout,
    /// Bytes of backing storage (one byte per element).
    pub bytes: usize,
    /// Byte offset in the activation arena.
    pub offset: usize,
    /// Step (node index) at which the value is defined (0 for the input).
    pub def: usize,
    /// Last step that reads the value (the output value is held to the end).
    pub last_use: usize,
}

/// The backend-neutral lowering of a compiled execution plan.
///
/// `nodes`/`values` describe the DAG the layers execute under; a layer chain
/// is the DAG whose every value has one consumer. Both tables are required:
/// a spec without nodes or without values is [`PlanViolation::GraphStructureBroken`].
#[derive(Clone, Debug)]
pub struct PlanSpec {
    /// Per-layer specs, in execution order.
    pub layers: Vec<LayerSpec>,
    /// The plan's DAG nodes in execution order.
    pub nodes: Vec<NodePlan>,
    /// The plan's DAG values with recorded arena placements (value 0 is the
    /// input).
    pub values: Vec<ValuePlan>,
    /// The whole-plan workspace high-water bytes the plan declares.
    pub declared_high_water_bytes: usize,
    /// The activation-arena high-water bytes the plan declares.
    pub declared_activation_high_water_bytes: usize,
}

/// A typed counterexample from the plan verifier. Every variant names the
/// layer it anchors to and carries enough context to reproduce the failure.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanViolation {
    /// A producer and its consumer disagree on activation geometry
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
    /// A value stored other than NCHW where the plan boundary, its producer
    /// or one of its readers is not native in that layout.
    LayoutMismatch {
        /// The node (or `"input"`) at the offending site.
        layer: String,
        /// Where the mismatch bites (`"graph input"`, `"plan output"`,
        /// `"layer output"`, `"kernel input"` or `"join operand"`).
        site: &'static str,
        /// Layout the site is native in.
        expected: Layout,
        /// Layout the value is stored in.
        found: Layout,
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
    /// A value arrives at a conv in a different bit width than the conv's
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

/// The shared arena's per-buffer byte requirement for one layer, one term
/// per buffer of `ConvWorkspace`, which the GEMM family and Winograd grow
/// alike. Each buffer is one flat allocation that grows to its largest
/// request, so the whole-plan high-water is the *component-wise* maximum
/// summed — not the max of per-layer totals.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaRequirement {
    /// The layer's i8 B operand: the `K x N` im2col matrix, or Winograd's
    /// transformed input (`16 x c_in x tiles`).
    pub b: usize,
    /// Packed-B panel bytes, summed over the column (or tile) spans and
    /// maximized over every legal thread count the engine accepts.
    pub panels: usize,
    /// Winograd output-plane bytes (four `c_out x tiles` i32 planes).
    pub planes: usize,
}

impl ArenaRequirement {
    /// Total bytes this layer needs from the arena.
    pub fn total(&self) -> usize {
        self.b + self.panels + self.planes
    }

    /// Component-wise maximum (the arena's growth rule across layers).
    pub fn max(self, o: ArenaRequirement) -> ArenaRequirement {
        ArenaRequirement {
            b: self.b.max(o.b),
            panels: self.panels.max(o.panels),
            planes: self.planes.max(o.planes),
        }
    }
}

/// The total packed-B panel bytes the parallel driver carves for a GEMM of
/// shared dimension `k` whose columns the workers split as `spans`, at the
/// default cache blocking: the driver's own `panel_len` per span.
pub fn panel_bytes(k: usize, spans: impl IntoIterator<Item = ColumnSpan>) -> usize {
    let cfg = ParallelConfig::default();
    spans.into_iter().map(|span| panel_len(k, span.cols, &cfg)).sum()
}

/// The largest [`panel_bytes`] of a `K x N` GEMM over every thread count
/// the engine accepts (`1..=MAX_THREADS`).
pub fn max_panel_bytes(k: usize, n: usize) -> usize {
    (1..=MAX_THREADS)
        .map(|threads| panels_len(k, n, &ParallelConfig::with_threads(threads)))
        .max()
        .unwrap_or(0)
}

/// The exact arena requirement of one ARM layer: which buffers its kernel
/// family touches and how large each grows. This is the certified bound the
/// plan's declared `workspace_bytes` must dominate.
pub fn arm_workspace_requirement(shape: &ConvShape, algo: ArmAlgo) -> ArenaRequirement {
    // Delegates to the pure-geometry form so the concurrency verifier can
    // recompute the same bound from a lowered GEMM footprint without the
    // original `ConvShape`.
    crate::conc::GemmFootprint::of(shape, algo).required_workspace()
}

/// The arena requirement of a layer of geometry `shape` running `algo` (GPU
/// layers run outside the ARM arena and require nothing from it).
pub fn workspace_requirement(algo: PlanAlgo, shape: &ConvShape) -> ArenaRequirement {
    match algo {
        PlanAlgo::Arm(kind) => arm_workspace_requirement(shape, kind),
        PlanAlgo::GpuImplicitGemm(_) => ArenaRequirement::default(),
    }
}

/// The certified whole-plan arena high-water over per-layer requirements:
/// component-wise maximum, then summed — exactly how the shared
/// `ConvWorkspace` grows.
pub fn arena_high_water(layers: impl IntoIterator<Item = ArenaRequirement>) -> usize {
    layers.into_iter().fold(ArenaRequirement::default(), ArenaRequirement::max).total()
}

/// One layer's entry in the proof certificate.
#[derive(Clone, Debug)]
pub struct LayerRangeProof {
    /// Layer name.
    pub name: String,
    /// The layer's committed kernel.
    pub algo: PlanAlgo,
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
                proof_label(&l.algo),
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
                    proof_label(&l.algo),
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

/// A layer's kernel as the proof certificate labels it: `arm/<kernel>` or
/// `gpu`.
fn proof_label(algo: &PlanAlgo) -> String {
    match algo {
        PlanAlgo::Arm(a) => format!("arm/{a}"),
        PlanAlgo::GpuImplicitGemm(_) => "gpu".into(),
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

/// Runs the numeric pass over one layer: operand-range check, accumulator
/// bounds, epilogue. Returns the proof entry and the next layer's operand
/// interval.
fn check_layer_numerics(
    l: &LayerSpec,
    act: Interval,
) -> Result<(LayerRangeProof, Interval), PlanViolation> {
    let lp = &l.plan;
    let c_out = lp.shape.c_out;
    if l.channel_sums.len() != c_out {
        return Err(PlanViolation::ChannelSumsBreak {
            layer: lp.name.clone(),
            expects: c_out,
            got: l.channel_sums.len(),
        });
    }
    let bias = lp.epilogue.bias.as_deref();
    if let Some(bias) = bias {
        if bias.len() != c_out {
            return Err(PlanViolation::EpilogueBiasBreak {
                layer: lp.name.clone(),
                expects: c_out,
                got: bias.len(),
            });
        }
    }
    // The layer's kernel proofs assume operands inside the adjusted range
    // of its bit width.
    let assumed = operand_interval(lp.bits);
    if act.lo < assumed.lo || act.hi > assumed.hi {
        return Err(PlanViolation::OperandRangeBreak {
            layer: lp.name.clone(),
            interval: act,
            bound: assumed.abs_max(),
            context: format!("{} operand range for the {} stream proofs", lp.bits, lp.bits),
        });
    }
    // The executor's own expression for the applied requant (ReLU folded).
    let rq = lp.epilogue.effective_requant();
    if !rq.multiplier.is_finite() {
        return Err(PlanViolation::OperandRangeBreak {
            layer: lp.name.clone(),
            interval: act,
            bound: assumed.abs_max(),
            context: "non-finite requant multiplier".into(),
        });
    }
    // Winograd: the F(2x2,3x3) input transform inflates operands 4x and the
    // transformed weights must also fit i8 — re-check against the *live*
    // interval, not just the static bit-width gate.
    if lp.algo == PlanAlgo::Arm(ArmAlgo::Winograd) {
        let range = f23_range_halved(lp.bits);
        if 4 * act.abs_max() > 128 || !range.fits_i8() {
            return Err(PlanViolation::OperandRangeBreak {
                layer: lp.name.clone(),
                interval: act,
                bound: 32,
                context: "Winograd F(2x2,3x3) input transform inflates 4x past i8".into(),
            });
        }
    }
    // Zero-padding contributes zero-valued taps.
    let act_padded = if lp.shape.pad > 0 {
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
        let bias = bias.map_or(0, |b| b[channel]) as i64;
        let acc = Interval::new(lo + bias, hi + bias);
        if !acc.fits(ElemWidth::S) {
            return Err(PlanViolation::AccOverflow { layer: lp.name.clone(), channel, acc });
        }
        acc_union = Some(match acc_union {
            Some(u) => Interval::new(u.lo.min(acc.lo), u.hi.max(acc.hi)),
            None => acc,
        });
    }
    let acc = acc_union.expect("c_out >= 1 by ConvShape construction");
    // Epilogue: the effective truncation range must sit inside the declared
    // output width.
    let (qmin, qmax) = (rq.bits.qmin(), rq.bits.qmax());
    if rq.clamp_min < qmin || rq.clamp_min > qmax {
        return Err(PlanViolation::ClampRangeBreak {
            layer: lp.name.clone(),
            clamp_min: rq.clamp_min,
            qmin,
            qmax,
        });
    }
    let scaled = scaled_interval(acc, rq.multiplier);
    let out = Interval::new(
        scaled.lo.clamp(rq.clamp_min as i64, qmax as i64),
        scaled.hi.clamp(rq.clamp_min as i64, qmax as i64),
    );
    let headroom = 1.0 - acc.abs_max() as f64 / i32::MAX as f64;
    let proof = LayerRangeProof {
        name: lp.name.clone(),
        algo: lp.algo,
        input: act,
        acc,
        output: out,
        acc_headroom: headroom,
        required_workspace: workspace_requirement(lp.algo, &lp.shape).total(),
    };
    Ok((proof, out))
}

/// Workspace certification: each layer's declared bytes must dominate its
/// recomputed requirement, and the declared whole-plan figure the
/// component-wise arena bound. Returns the certified bound.
fn check_workspace(spec: &PlanSpec) -> Result<usize, PlanViolation> {
    let required = |l: &LayerSpec| workspace_requirement(l.plan.algo, &l.plan.shape);
    for l in &spec.layers {
        let total = required(l).total();
        if l.plan.workspace_bytes < total {
            return Err(PlanViolation::WorkspaceUnderstated {
                layer: l.plan.name.clone(),
                declared: l.plan.workspace_bytes,
                required: total,
            });
        }
    }
    let certified = arena_high_water(spec.layers.iter().map(required));
    if spec.declared_high_water_bytes < certified {
        return Err(PlanViolation::HighWaterUnderstated {
            declared: spec.declared_high_water_bytes,
            required: certified,
        });
    }
    Ok(certified)
}

fn graph_broken(node: impl Into<String>, detail: String) -> PlanViolation {
    PlanViolation::GraphStructureBroken { node: node.into(), detail }
}

/// Structural pass over the DAG: every id in range, values defined before
/// use and exactly once, conv nodes covering the layer table in order, and
/// the value table's dims/bytes/live-ranges consistent with the node table.
fn check_graph_structure(spec: &PlanSpec) -> Result<(), PlanViolation> {
    let (nodes, values) = (&spec.nodes, &spec.values);
    if nodes.is_empty() {
        return Err(graph_broken("plan", "a plan has no nodes".into()));
    }
    if values.is_empty() {
        return Err(graph_broken("plan", "a plan has no values".into()));
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
            PlanOp::Conv { layer, fused_add } => {
                if layer >= spec.layers.len() {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!("references layer {layer} outside the table"),
                    ));
                }
                if spec.layers[layer].plan.algo == PlanAlgo::Arm(ArmAlgo::Auto) {
                    let detail = "runs an unresolved Auto kernel".into();
                    return Err(graph_broken(n.name.clone(), detail));
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
            PlanOp::Add => {
                if n.inputs.len() != 2 {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!("add has {} operands, expected 2", n.inputs.len()),
                    ));
                }
            }
            PlanOp::Concat => {
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

/// Dataflow pass over the DAG: operand shapes and bit widths at every
/// edge, then the one layout rule over the value table (this is what proves
/// an elided NCHW round-trip sound: a value stays NHWC only if its producer
/// and every reader are NHWC-native).
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
            PlanOp::Conv { layer, fused_add } => {
                let l = &spec.layers[layer].plan;
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
                if out.bits != l.epilogue.requant.bits {
                    return Err(graph_broken(
                        n.name.clone(),
                        format!(
                            "requantizes into {} but value v{} records {}",
                            l.epilogue.requant.bits, n.output, out.bits
                        ),
                    ));
                }
                if let Some(r) = fused_add {
                    let res = &values[r];
                    if res.dims != produces || res.bits != l.epilogue.requant.bits {
                        return Err(graph_broken(
                            n.name.clone(),
                            format!(
                                "fused residual v{r} is {:?}@{} but the conv produces {:?}@{}",
                                res.dims, res.bits, produces, l.epilogue.requant.bits
                            ),
                        ));
                    }
                }
            }
            PlanOp::Add => {
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
            PlanOp::Concat => {
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
    }
    // The one layout rule. A value stored other than NCHW must stay inside
    // the plan, come from a conv native in its layout, and be read only as
    // the activation of convs native in it, so no node converts it.
    let native = |n: &NodePlan| match n.op {
        PlanOp::Conv { layer, .. } => spec.layers[layer].plan.algo.backend().native_layout(),
        PlanOp::Add | PlanOp::Concat => Layout::Nchw,
    };
    let output = nodes.last().expect("non-empty").output;
    for (v, value) in values.iter().enumerate().filter(|(_, x)| x.layout != Layout::Nchw) {
        let mismatch = |layer: String, site, expected| PlanViolation::LayoutMismatch {
            layer,
            site,
            expected,
            found: value.layout,
        };
        if v == 0 {
            return Err(mismatch("input".into(), "graph input", Layout::Nchw));
        }
        if v == output {
            return Err(mismatch(producer_name(v), "plan output", Layout::Nchw));
        }
        let producer = nodes.iter().find(|n| n.output == v).expect("structure pass");
        if native(producer) != value.layout {
            return Err(mismatch(producer.name.clone(), "layer output", native(producer)));
        }
        for n in nodes {
            for (slot, _) in n.inputs.iter().enumerate().filter(|&(_, &x)| x == v) {
                let (site, expected) = match n.op {
                    PlanOp::Conv { .. } if slot == 0 => ("kernel input", native(n)),
                    _ => ("join operand", Layout::Nchw),
                };
                if expected != value.layout {
                    return Err(mismatch(n.name.clone(), site, expected));
                }
            }
        }
    }
    Ok(())
}

/// Numeric pass over the DAG: per-value intervals pushed through every
/// node. Convolutions run the per-layer numeric pass; a fused
/// residual add widens the epilogue interval by the residual's before
/// re-clamping into the output width — exactly the executor's arithmetic.
fn check_graph_numerics(spec: &PlanSpec) -> Result<Vec<LayerRangeProof>, PlanViolation> {
    let values = &spec.values;
    let mut intervals: Vec<Option<Interval>> = vec![None; values.len()];
    intervals[0] = Some(operand_interval(values[0].bits));
    let mut proofs: Vec<Option<LayerRangeProof>> = vec![None; spec.layers.len()];
    for n in &spec.nodes {
        let out = match n.op {
            PlanOp::Conv { layer, fused_add } => {
                let l = &spec.layers[layer];
                let act = intervals[n.inputs[0]].expect("structure pass proved def-before-use");
                let (proof, out) = check_layer_numerics(l, act)?;
                proofs[layer] = Some(proof);
                match fused_add {
                    Some(r) => {
                        let res = intervals[r].expect("structure pass proved def-before-use");
                        let bits = l.plan.epilogue.requant.bits;
                        let (qmin, qmax) = (bits.qmin() as i64, bits.qmax() as i64);
                        Interval::new(
                            (out.lo + res.lo).clamp(qmin, qmax),
                            (out.hi + res.hi).clamp(qmin, qmax),
                        )
                    }
                    None => out,
                }
            }
            PlanOp::Add => {
                let a = intervals[n.inputs[0]].expect("def-before-use");
                let b = intervals[n.inputs[1]].expect("def-before-use");
                let bits = values[n.output].bits;
                let (qmin, qmax) = (bits.qmin() as i64, bits.qmax() as i64);
                Interval::new((a.lo + b.lo).clamp(qmin, qmax), (a.hi + b.hi).clamp(qmin, qmax))
            }
            PlanOp::Concat => {
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

/// Verifies a lowered plan spec: graph structure, per-edge shape and layout
/// dataflow, numeric range propagation through every node, workspace
/// certification, and the activation-arena disjointness proof behind
/// `declared_activation_high_water_bytes`. Returns the proof certificate, or
/// the first typed counterexample.
pub fn verify_plan(spec: &PlanSpec) -> Result<PlanProof, PlanViolation> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_conv_arm::workspace::{gemm_conv_ws, ConvWorkspace, PackedWeights};
    use lowbit_qgemm::narrow::pack_a_narrow;
    use lowbit_qgemm::{pack_a, PackedAQuads};
    use lowbit_tensor::{Layout, QTensor};
    use lowbit_trace::Tracer;

    /// The certified arena bound of a layer table.
    fn high_water(layers: &[LayerSpec]) -> usize {
        arena_high_water(
            layers.iter().map(|l| workspace_requirement(l.plan.algo, &l.plan.shape)),
        )
    }

    /// A W4 wide-GEMM layer declaring its certified workspace, with the same
    /// weight sums in every channel.
    fn gemm_layer(name: &str, shape: ConvShape, relu: bool) -> LayerSpec {
        LayerSpec {
            plan: LayerPlan {
                name: name.into(),
                shape,
                bits: BitWidth::W4,
                algo: PlanAlgo::Arm(ArmAlgo::Gemm),
                prepack_fingerprint: None,
                workspace_bytes: arm_workspace_requirement(&shape, ArmAlgo::Gemm).total(),
                predicted_millis: 0.0,
                epilogue: Epilogue {
                    bias: None,
                    requant: RequantParams { bits: BitWidth::W4, multiplier: 0.01, clamp_min: -8 },
                    relu,
                },
            },
            channel_sums: vec![ChannelSums { neg: -40, pos: 44 }; shape.c_out],
        }
    }

    /// A hand-built two-layer chain small enough to reason about exactly:
    /// input v0 feeds l1 -> v1, which feeds l2 -> v2. Arena: v0 and v2
    /// share offset 0 (their live ranges are disjoint), v1 sits after v0.
    fn toy_spec() -> PlanSpec {
        let s1 = ConvShape::new(1, 3, 8, 8, 4, 3, 1, 1);
        let s2 = ConvShape::new(1, 4, 8, 8, 2, 3, 2, 1);
        let layers = vec![gemm_layer("l1", s1, true), gemm_layer("l2", s2, false)];
        let hw = high_water(&layers);
        let node = |name: &str, layer: usize| NodePlan {
            name: name.into(),
            op: PlanOp::Conv { layer, fused_add: None },
            inputs: vec![layer],
            output: layer + 1,
        };
        let slot = |dims: (usize, usize, usize, usize), def, last_use, offset| ValuePlan {
            dims,
            bits: BitWidth::W4,
            layout: Layout::Nchw,
            bytes: dims.0 * dims.1 * dims.2 * dims.3,
            def,
            last_use,
            offset,
        };
        PlanSpec {
            layers,
            nodes: vec![node("l1", 0), node("l2", 1)],
            values: vec![
                slot((1, 3, 8, 8), 0, 0, 0),
                slot((1, 4, 8, 8), 0, 1, 192),
                slot((1, 2, 4, 4), 1, 1, 0),
            ],
            declared_high_water_bytes: hw,
            declared_activation_high_water_bytes: 192 + 256,
        }
    }

    /// A residual variant of the toy chain, with an add fused into the
    /// second conv: input v0 feeds l1 -> v1, l1's output feeds
    /// l2 whose epilogue adds v1 back in -> v2. Arena: v0 and v2 share
    /// offset 0 (their live ranges are disjoint), v1 sits after v0.
    fn toy_graph_spec() -> PlanSpec {
        let shape = ConvShape::new(1, 4, 8, 8, 4, 3, 1, 1);
        let layers = vec![gemm_layer("l1", shape, true), gemm_layer("l2", shape, false)];
        let hw = high_water(&layers);
        let bytes = 4 * 8 * 8;
        let slot = |layout, def, last_use, offset| ValuePlan {
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
                NodePlan {
                    name: "l1".into(),
                    op: PlanOp::Conv { layer: 0, fused_add: None },
                    inputs: vec![0],
                    output: 1,
                },
                NodePlan {
                    name: "l2".into(),
                    op: PlanOp::Conv { layer: 1, fused_add: Some(1) },
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
        spec.layers[1].plan.shape.c_in = 5;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::ShapeBreak { .. })
        ));
    }

    /// The GPU demo's shape in miniature: three NHWC-native GPU convs in a
    /// chain, whose inner values v1 and v2 the planner keeps NHWC. Every
    /// value has its own arena span, so a mutant that lengthens a live
    /// range trips only the layout rule.
    fn gpu_chain_spec() -> PlanSpec {
        let gpu = lowbit_conv_gpu::default_config(turing_sim::Precision::TensorCoreInt4);
        let shapes = [
            ConvShape::new(1, 3, 8, 8, 4, 3, 1, 1),
            ConvShape::new(1, 4, 8, 8, 4, 3, 1, 1),
            ConvShape::new(1, 4, 8, 8, 4, 1, 1, 0),
        ];
        let layers: Vec<LayerSpec> = (0..3)
            .map(|i| {
                let mut l = gemm_layer(&format!("g{i}"), shapes[i], i < 2);
                l.plan.algo = PlanAlgo::GpuImplicitGemm(gpu);
                l.plan.workspace_bytes = 0;
                l
            })
            .collect();
        let nodes = (0..3)
            .map(|i| NodePlan {
                name: format!("g{i}"),
                op: PlanOp::Conv { layer: i, fused_add: None },
                inputs: vec![i],
                output: i + 1,
            })
            .collect();
        let mut offset = 0;
        let values = [(3, Layout::Nchw), (4, Layout::Nhwc), (4, Layout::Nhwc), (4, Layout::Nchw)]
            .into_iter()
            .enumerate()
            .map(|(v, (c, layout))| {
                let bytes = c * 8 * 8;
                offset += bytes;
                ValuePlan {
                    dims: (1, c, 8, 8),
                    bits: BitWidth::W4,
                    layout,
                    bytes,
                    offset: offset - bytes,
                    def: v.saturating_sub(1),
                    last_use: v.min(2),
                }
            })
            .collect();
        PlanSpec {
            layers,
            nodes,
            values,
            declared_high_water_bytes: 0,
            declared_activation_high_water_bytes: offset,
        }
    }

    /// Moves layer `i` of a spec onto the ARM GEMM, re-declaring its
    /// workspace and the plan's high-water so only the layout rule can
    /// object.
    fn move_to_arm(spec: &mut PlanSpec, i: usize) {
        let l = &mut spec.layers[i].plan;
        l.algo = PlanAlgo::Arm(ArmAlgo::Gemm);
        l.workspace_bytes = arm_workspace_requirement(&l.shape, ArmAlgo::Gemm).total();
        spec.declared_high_water_bytes = high_water(&spec.layers);
    }

    /// Appends a join reading `[v3, v1]` into a new NCHW plan output v4.
    fn join_v1(spec: &mut PlanSpec, op: PlanOp) {
        let c = if op == PlanOp::Concat { 8 } else { 4 };
        let last = spec.values[3];
        spec.values[1].last_use = 3;
        spec.values[3].last_use = 3;
        spec.nodes.push(NodePlan { name: "join".into(), op, inputs: vec![3, 1], output: 4 });
        spec.values.push(ValuePlan {
            dims: (1, c, 8, 8),
            bytes: c * 64,
            offset: last.offset + last.bytes,
            def: 3,
            last_use: 3,
            ..last
        });
        spec.declared_activation_high_water_bytes += c * 64;
    }

    #[test]
    fn nhwc_values_between_gpu_convs_prove() {
        let spec = gpu_chain_spec();
        assert_eq!(verify_plan(&spec).unwrap().layers.len(), 3);
        // An NCHW value read by an NHWC-native kernel proves as well: the
        // backend converts its own input.
        let mut spec = toy_spec();
        let gpu = lowbit_conv_gpu::default_config(turing_sim::Precision::TensorCoreInt4);
        spec.layers[1].plan.algo = PlanAlgo::GpuImplicitGemm(gpu);
        assert!(verify_plan(&spec).is_ok());
    }

    #[test]
    fn the_layout_rule_rejects_each_clause() {
        let rejects = |spec: &PlanSpec, want_site: &str, want_layer: &str| match verify_plan(spec) {
            Err(PlanViolation::LayoutMismatch { layer, site, found: Layout::Nhwc, .. }) => {
                assert_eq!((site, layer.as_str()), (want_site, want_layer));
            }
            other => panic!("{want_site}: expected LayoutMismatch, got {other:?}"),
        };
        let mut spec = gpu_chain_spec();
        spec.values[0].layout = Layout::Nhwc;
        rejects(&spec, "graph input", "input");
        let mut spec = gpu_chain_spec();
        spec.values[3].layout = Layout::Nhwc;
        rejects(&spec, "plan output", "g2");
        // v1 produced by an ARM conv, which writes NCHW.
        let mut spec = gpu_chain_spec();
        move_to_arm(&mut spec, 0);
        rejects(&spec, "layer output", "g0");
        // v1 read by a join: an add, a concat, or a residual fused into g2.
        for op in [PlanOp::Add, PlanOp::Concat] {
            let mut spec = gpu_chain_spec();
            join_v1(&mut spec, op);
            rejects(&spec, "join operand", "join");
        }
        let mut spec = gpu_chain_spec();
        spec.nodes[2].op = PlanOp::Conv { layer: 2, fused_add: Some(1) };
        spec.nodes[2].inputs.push(1);
        spec.values[1].last_use = 2;
        rejects(&spec, "join operand", "g2");
        // v1 read by an ARM conv, which reads NCHW.
        let mut spec = gpu_chain_spec();
        move_to_arm(&mut spec, 1);
        rejects(&spec, "kernel input", "g1");
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
        // against the live interval). The value table is widened with the
        // layers, so the numeric pass, not the edge check, is what fires.
        let mut spec = toy_spec();
        for l in &mut spec.layers {
            l.plan.bits = BitWidth::W7;
            l.plan.epilogue.requant.bits = BitWidth::W7;
        }
        for v in &mut spec.values {
            v.bits = BitWidth::W7;
        }
        spec.layers[0].plan.algo = PlanAlgo::Arm(ArmAlgo::Winograd);
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::OperandRangeBreak { .. })
        ));
    }

    #[test]
    fn epilogue_witnesses_fire() {
        // l1 re-quantizes into a width l2 was never proven for (the value
        // record kept consistent, so the edge check fires).
        let mut spec = toy_spec();
        spec.layers[0].plan.epilogue.requant.bits = BitWidth::W6;
        spec.values[1].bits = BitWidth::W6;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::RequantWidthBreak { .. })
        ));
        let mut spec = toy_spec();
        spec.layers[1].plan.epilogue.requant.clamp_min = -100;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::ClampRangeBreak { clamp_min: -100, .. })
        ));
        let mut spec = toy_spec();
        spec.layers[0].plan.epilogue.bias = Some(vec![1; 3]);
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::EpilogueBiasBreak { expects: 4, got: 3, .. })
        ));
    }

    #[test]
    fn relu_clamp_is_proven_through_the_executors_fold() {
        // The executor folds ReLU as `clamp_min.max(0)`: a ReLU layer that
        // clamps at +2 keeps its floor, so the proven output is [2, qmax].
        let mut spec = toy_spec();
        spec.layers[0].plan.epilogue.requant.clamp_min = 2;
        let proof = verify_plan(&spec).unwrap();
        assert_eq!(proof.layers[0].output, Interval::new(2, 7));
        assert_eq!(proof.layers[1].input, Interval::new(2, 7));
        // A ReLU does not rescue a floor above the output width's ceiling.
        let mut spec = toy_spec();
        spec.layers[0].plan.epilogue.requant.clamp_min = 8;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::ClampRangeBreak { clamp_min: 8, qmax: 7, .. })
        ));
    }

    #[test]
    fn workspace_witnesses_fire() {
        let mut spec = toy_spec();
        spec.layers[0].plan.workspace_bytes /= 2;
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
    fn specs_without_nodes_or_values_are_structure_breaks() {
        let broken = |spec: &PlanSpec| {
            matches!(verify_plan(spec), Err(PlanViolation::GraphStructureBroken { .. }))
        };
        let mut spec = toy_spec();
        spec.nodes.clear();
        assert!(broken(&spec));
        let mut spec = toy_spec();
        spec.values.clear();
        assert!(broken(&spec));
        // No layers either: still a typed witness, not an underflow on the
        // last step.
        let mut spec = toy_spec();
        spec.nodes.clear();
        spec.layers.clear();
        spec.values.truncate(1);
        assert!(broken(&spec));
        // A layer that commits to no kernel has nothing to certify.
        let mut spec = toy_spec();
        spec.layers[1].plan.algo = PlanAlgo::Arm(ArmAlgo::Auto);
        assert!(broken(&spec));
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
        // A value recorded NHWC between ARM convs: its producer writes
        // NCHW, so the unsound elision is caught at the producer.
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
        spec.layers[0].plan.epilogue.requant.bits = BitWidth::W6;
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
    /// allocate, at every thread count, for every GEMM-family path and for
    /// Winograd at W2, W4 and W6 (wide and narrow position tiles) — and be
    /// exact for the single-layer case: the largest real footprint over the
    /// thread counts equals it (no slack hiding in the formula). Over a
    /// sequence of layers sharing one arena, the whole-plan bound must
    /// dominate the arena after every layer.
    #[test]
    fn certified_workspace_dominates_real_arena_growth() {
        let shapes = [
            ConvShape::new(1, 5, 9, 7, 11, 3, 2, 1),
            ConvShape::new(2, 4, 10, 10, 8, 3, 1, 1),
            ConvShape::new(1, 8, 5, 5, 16, 1, 1, 0),
            ConvShape::new(1, 7, 13, 9, 19, 3, 1, 1),
        ];
        for shape in &shapes {
            let input = |bits, seed| {
                let dims = (shape.batch, shape.c_in, shape.h, shape.w);
                QTensor::random(dims, Layout::Nchw, bits, seed)
            };
            let weights = |bits, seed| {
                let dims = (shape.c_out, shape.c_in, shape.kh, shape.kw);
                QTensor::random(dims, Layout::Nchw, bits, seed)
            };
            let w8 = weights(BitWidth::W8, 4);
            let (w, m, k) = (w8.data(), shape.gemm_m(), shape.gemm_k());
            // Each packing runs its kernel's own scheme; the ncnn baseline
            // runs the narrow tile's packing under its own.
            let narrow = || PackedWeights::Narrow(pack_a_narrow(w, m, k));
            let mut runs = vec![
                (ArmAlgo::Gemm, PackedWeights::Wide(pack_a(w, m, k))),
                (ArmAlgo::GemmNarrow, narrow()),
                (ArmAlgo::GemmSdot, PackedWeights::Quads(PackedAQuads::from_a(w, m, k))),
                (ArmAlgo::NcnnBaseline, narrow()),
            ]
            .into_iter()
            .map(|(kind, pa)| (kind, BitWidth::W8, pa))
            .collect::<Vec<_>>();
            for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W6] {
                if ArmAlgo::Winograd.applies(bits, shape) {
                    let pa = PackedWeights::pack(&weights(bits, 6), ArmAlgo::Winograd, bits);
                    runs.push((ArmAlgo::Winograd, bits, pa.expect("Winograd packs")));
                }
            }
            for (kind, bits, pa) in &runs {
                let bound = arm_workspace_requirement(shape, *kind).total();
                let (input, scheme) = (input(*bits, 3), kind.scheme(*bits));
                let footprints = (1..=MAX_THREADS).map(|threads| {
                    let cfg = ParallelConfig::with_threads(threads);
                    let mut ws = ConvWorkspace::new();
                    gemm_conv_ws(&input, pa, &scheme, shape, &cfg, &mut ws, &Tracer::null());
                    let real = ws.footprint_bytes();
                    assert!(real <= bound, "{kind:?} {bits} {shape} x{threads}: {real} > {bound}");
                    real
                });
                let largest = footprints.max().unwrap();
                assert_eq!(largest, bound, "{kind:?} {bits} {shape}: the bound is not exact");
            }
        }

        // A plan runs all its layers through one arena, so the certified
        // whole-plan bound must dominate the arena after every layer of a
        // sequence, at every thread count. The sequences: a wider K after a
        // narrower one (the im2col matrix must grow to exactly the larger),
        // a wide-N layer whose panels split evenly over many threads before
        // a long-K layer whose panels fill few (the panels of one layer must
        // not stay beside the other's), and a Gemm -> Winograd -> Gemm chain
        // (the two families share the B operand and the panels).
        let sequences = [
            vec![
                (ConvShape::new(1, 8, 10, 10, 8, 1, 1, 0), ArmAlgo::Gemm),
                (ConvShape::new(1, 12, 10, 10, 8, 1, 1, 0), ArmAlgo::Gemm),
            ],
            vec![
                (ConvShape::new(1, 8, 48, 48, 4, 1, 1, 0), ArmAlgo::Gemm),
                (ConvShape::new(1, 384, 5, 5, 4, 1, 1, 0), ArmAlgo::Gemm),
            ],
            vec![
                (ConvShape::new(1, 16, 12, 12, 8, 1, 1, 0), ArmAlgo::Gemm),
                (ConvShape::new(1, 8, 12, 12, 8, 3, 1, 1), ArmAlgo::Winograd),
                (ConvShape::new(1, 8, 12, 12, 16, 1, 1, 0), ArmAlgo::Gemm),
            ],
        ];
        let bits = BitWidth::W4;
        for layers in &sequences {
            let runs: Vec<_> = (0..layers.len() as u64)
                .zip(layers)
                .map(|(seed, &(shape, algo))| {
                    let dims = (shape.batch, shape.c_in, shape.h, shape.w);
                    let input = QTensor::random(dims, Layout::Nchw, bits, 10 + seed);
                    let dims = (shape.c_out, shape.c_in, shape.kh, shape.kw);
                    let weights = QTensor::random(dims, Layout::Nchw, bits, 20 + seed);
                    let pa = PackedWeights::pack(&weights, algo, bits).expect("packs");
                    (shape, algo, input, pa)
                })
                .collect();
            for threads in 1..=MAX_THREADS {
                let cfg = ParallelConfig::with_threads(threads);
                let mut ws = ConvWorkspace::new();
                for (i, (shape, algo, input, pa)) in runs.iter().enumerate() {
                    let scheme = algo.scheme(bits);
                    gemm_conv_ws(input, pa, &scheme, shape, &cfg, &mut ws, &Tracer::null());
                    let so_far = runs[..=i].iter().map(|r| arm_workspace_requirement(&r.0, r.1));
                    let (real, bound) = (ws.footprint_bytes(), arena_high_water(so_far));
                    let at = format!("layer {i} ({algo:?} {shape}) x{threads}");
                    assert!(real <= bound, "{at}: {real} > {bound}");
                }
            }
        }
    }

    #[test]
    fn high_water_is_component_wise_not_total_max() {
        // One im2col-heavy layer + one panel-heavy layer: the arena keeps
        // the max of each buffer, so the certified bound exceeds either
        // layer's own total. Past kc = 384 a longer K grows the im2col
        // matrix but not the panels; a wider N grows the panels.
        let a = ConvShape::new(1, 64, 16, 16, 4, 3, 1, 1); // K 576 -> big col
        let b = ConvShape::new(1, 384, 16, 20, 4, 1, 1, 0); // N 320 -> big panels
        let req = |shape| arm_workspace_requirement(&shape, ArmAlgo::Gemm);
        let (ra, rb) = (req(a), req(b));
        assert!(ra.b > rb.b && rb.panels > ra.panels, "{ra:?} vs {rb:?}");
        let layers = vec![gemm_layer("a", a, false), gemm_layer("b", b, false)];
        let hw = high_water(&layers);
        let (ta, tb) = (ra.total(), rb.total());
        assert!(hw > ta.max(tb), "{hw} vs {ta}/{tb}");
        assert!(hw <= ta + tb);

        // A Gemm and a Winograd layer share the B operand and the panels:
        // each takes the larger of the two, and only the planes add.
        let g = ConvShape::new(1, 32, 14, 14, 16, 1, 1, 0);
        let w = ConvShape::new(1, 16, 14, 14, 16, 3, 1, 1);
        let (rg, rw) = (req(g), arm_workspace_requirement(&w, ArmAlgo::Winograd));
        assert!(rg.b < rw.b && rg.panels > rw.panels && rg.planes == 0, "{rg:?} vs {rw:?}");
        let mut winograd = gemm_layer("w", w, false);
        winograd.plan.algo = PlanAlgo::Arm(ArmAlgo::Winograd);
        let hw = high_water(&[gemm_layer("g", g, false), winograd]);
        assert_eq!(hw, rw.b + rg.panels + rw.planes);
        assert!(hw < rg.total() + rw.total(), "{hw} vs {rg:?} + {rw:?}");
    }

    #[test]
    fn epilogue_folds_relu_into_requant() {
        let ep = Epilogue {
            bias: None,
            requant: RequantParams::new(BitWidth::W4, 0.5),
            relu: true,
        };
        assert_eq!(ep.effective_requant().clamp_min, 0);
        let ep = Epilogue { relu: false, ..ep };
        assert_eq!(ep.effective_requant().clamp_min, BitWidth::W4.qmin());
    }

    #[test]
    fn relu_fold_never_lowers_a_positive_clamp() {
        // A layer already clamping at +3 stays at +3 under the ReLU fold:
        // relu is a no-op on a range that starts above zero.
        let mut requant = RequantParams::new(BitWidth::W4, 0.5);
        requant.clamp_min = 3;
        let ep = Epilogue { bias: None, requant, relu: true };
        assert_eq!(ep.effective_requant().clamp_min, 3);
        // Without the fold the positive clamp passes through untouched too.
        let ep = Epilogue { relu: false, ..ep };
        assert_eq!(ep.effective_requant().clamp_min, 3);
    }

    #[test]
    fn relu_fold_at_the_extreme_widths() {
        // W2's adjusted range is [-1, 1]; W8's is [-127, 127]. The fold
        // moves the floor to 0 at both extremes, the ceiling never moves,
        // and the multiplier passes through bit-identically.
        for bits in [BitWidth::W2, BitWidth::W8] {
            let ep = Epilogue {
                bias: None,
                requant: RequantParams::new(bits, 0.125),
                relu: true,
            };
            let rq = ep.effective_requant();
            assert_eq!(rq.clamp_min, 0, "{bits}");
            assert_eq!(rq.bits, bits);
            assert_eq!(rq.multiplier.to_bits(), 0.125f32.to_bits());
            assert_eq!(rq.apply(i32::MIN / 2), 0, "{bits}: floor clamps at 0");
            assert_eq!(rq.apply(i32::MAX / 2), bits.qmax(), "{bits}: ceiling is qmax");
        }
    }

    #[test]
    fn biasless_epilogue_requant_is_untouched_by_the_fold_machinery() {
        // A bias-less, relu-less epilogue must hand back its requant
        // exactly (the executor's hot loop relies on this being identity).
        let requant = RequantParams::new(BitWidth::W2, 0.7);
        let ep = Epilogue { bias: None, requant, relu: false };
        assert!(ep.bias.is_none());
        assert_eq!(ep.effective_requant(), requant);
        assert_eq!(ep.effective_requant().clamp_min, BitWidth::W2.qmin());
    }
}
