//! The typed [`ExecutionPlan`] IR — the offline half of the paper's
//! deployment story.
//!
//! The paper splits deployment into an offline phase (Alg. 1 register
//! allocation and instruction-scheme choice on ARM; profile-run tiling
//! auto-search on the GPU, Sec. 5.1) and an online phase that just executes
//! the chosen kernels. A compiled plan is the artifact that crosses that
//! boundary: one [`LayerPlan`] per layer carrying the backend choice, the
//! concrete algorithm (never `Auto`), the prepack-cache fingerprint the
//! online phase will hit, an advisory workspace high-water size, the modeled
//! time, and the fused epilogue (bias + re-quantization + ReLU).
//!
//! Plans are produced by [`crate::planner::Planner`] and consumed by
//! [`crate::executor::Executor`]; they are plain data — inspectable,
//! printable ([`ExecutionPlan::table`]) and serializable
//! ([`ExecutionPlan::to_json`]) so planner regressions show up in review as
//! golden-file diffs.

use crate::arm::ArmAlgo;
use crate::error::CoreError;
use crate::graph::ValueId;
use crate::memplan::{assign_arena, ValueSpec};
use crate::network::Network;
use lowbit_conv_gpu::TileConfig;
use lowbit_qnn::RequantParams;
use lowbit_tensor::{BitWidth, ConvShape, Layout};
use lowbit_verify::LayoutConversion;

/// Which engine a layer runs on. `Hash` so serving-layer caches can key
/// compiled plans by `(network fingerprint, batch, backend)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BackendKind {
    /// The ARM CPU engine (executes kernels, models a Cortex core).
    Arm,
    /// The Turing-like GPU model (executes functionally, models launches).
    GpuModel,
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
    /// Which engine runs it.
    pub backend: BackendKind,
    /// The concrete kernel choice.
    pub algo: PlanAlgo,
    /// The prepack-cache key the online phase will hit (`None` for
    /// algorithms without a prepacked weight layout).
    pub prepack_fingerprint: Option<u64>,
    /// Advisory workspace high-water sizing: an analytic upper estimate of
    /// the arena bytes this layer needs (im2col + packed panels + result).
    pub workspace_bytes: usize,
    /// Modeled steady-state milliseconds (the cost the plan was ranked by,
    /// after prepacking amortizes the weight pack away).
    pub predicted_millis: f64,
    /// The fused epilogue.
    pub epilogue: Epilogue,
    /// Layout conversion the executor applies to the activations before the
    /// kernel (`None` when the canonical NCHW inter-layer form is already
    /// the kernel's native layout). The plan verifier walks these.
    pub pre_conversion: Option<LayoutConversion>,
    /// Layout conversion applied to the kernel output to restore the
    /// canonical inter-layer form.
    pub post_conversion: Option<LayoutConversion>,
}

/// What a plan node computes. The planner's graph-level fusion shows up
/// here: a residual add folded into its producing conv records the residual
/// value in `fused_add` and the standalone `Add` node disappears.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOp {
    /// A conv layer (index into [`ExecutionPlan::layers`]). When
    /// `fused_add` is set, the executor adds that value elementwise onto
    /// the re-quantized output inside the conv's epilogue (the node's
    /// second input is the residual).
    Conv {
        /// Index into the plan's layer list.
        layer: usize,
        /// Residual value folded into this conv's epilogue, if any.
        fused_add: Option<ValueId>,
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
    pub inputs: Vec<ValueId>,
    /// Output value id.
    pub output: ValueId,
}

/// One activation value of the compiled plan: its geometry, its inter-node
/// layout (NHWC when the planner elided a round-trip between same-backend
/// GPU neighbors), and its slot in the shared activation arena.
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

/// A certified wave schedule for parallel DAG node execution: the output of
/// `Planner::with_parallel_nodes`, carried inside the plan and re-verified
/// by `verify::conc` before the executor's parallel mode engages.
///
/// Fields are public so the verifier CLI's mutant catalog can forge corrupt
/// schedules; the executor never trusts them — it re-proves the whole
/// schedule (including the certificate digest) on every parallel run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelSchedule {
    /// Node indices grouped into waves: wave `w + 1` starts only after wave
    /// `w` completes; nodes within a wave may run concurrently.
    pub waves: Vec<Vec<usize>>,
    /// Certified interference edges `(a, b)`, `a < b`: incomparable node
    /// pairs with overlapping footprints that must never share a wave.
    pub interference: Vec<(usize, usize)>,
    /// Per-node `(offset, bytes)` slice of the parallel workspace arena
    /// (parallel to the plan's node list; `(0, 0)` for nodes that touch no
    /// workspace).
    pub workspace_slices: Vec<(usize, usize)>,
    /// High-water of the parallel workspace arena the slices are packed
    /// into (replaces the serial shared-workspace figure when nodes run
    /// concurrently).
    pub workspace_arena_bytes: usize,
    /// FNV-1a digest over footprints + schedule, recomputed and matched by
    /// the verifier — the certificate the parallel executor requires.
    pub certificate: u64,
}

impl ParallelSchedule {
    /// Widest wave — the peak node concurrency the schedule certifies.
    pub fn max_wave_width(&self) -> usize {
        self.waves.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// A compiled network: the offline phase's output, ready to execute any
/// number of times. Since the DAG promotion a plan is a topologically-
/// ordered node list over arena-placed values; `layers` holds the conv
/// payloads those nodes reference.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    layers: Vec<LayerPlan>,
    nodes: Vec<NodePlan>,
    values: Vec<ValuePlan>,
    workspace_high_water_bytes: usize,
    activation_high_water_bytes: usize,
    parallel: Option<ParallelSchedule>,
}

/// Synthesizes the chain-shaped node/value tables for a sequential layer
/// list (value `i` feeds node `i`, which produces value `i + 1`; everything
/// stays in canonical NCHW between nodes).
fn chain_graph(layers: &[LayerPlan]) -> (Vec<NodePlan>, Vec<ValuePlan>) {
    let first = &layers[0];
    let mut values = vec![ValuePlan {
        dims: (first.shape.batch, first.shape.c_in, first.shape.h, first.shape.w),
        bits: first.bits,
        layout: Layout::Nchw,
        bytes: first.shape.batch * first.shape.c_in * first.shape.h * first.shape.w,
        offset: 0,
        def: 0,
        last_use: 0,
    }];
    let nodes = layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let dims = (l.shape.batch, l.shape.c_out, l.shape.out_h(), l.shape.out_w());
            values.push(ValuePlan {
                dims,
                bits: l.epilogue.requant.bits,
                layout: Layout::Nchw,
                bytes: dims.0 * dims.1 * dims.2 * dims.3,
                offset: 0,
                def: 0,
                last_use: 0,
            });
            NodePlan {
                name: l.name.clone(),
                op: PlanOp::Conv { layer: i, fused_add: None },
                inputs: vec![i],
                output: i + 1,
            }
        })
        .collect();
    (nodes, values)
}

impl ExecutionPlan {
    /// Builds a plan from an explicit node/value graph (the planner's DAG
    /// constructor). Re-derives every value's live range from the node
    /// table — `def` is the producing step, `last_use` the last consuming
    /// step, with the plan output held to the end — and packs the values
    /// into the activation arena via the liveness allocator, recording the
    /// resulting offsets and high-water mark.
    pub(crate) fn from_graph(
        layers: Vec<LayerPlan>,
        nodes: Vec<NodePlan>,
        mut values: Vec<ValuePlan>,
        workspace_high_water_bytes: usize,
    ) -> ExecutionPlan {
        for (step, node) in nodes.iter().enumerate() {
            values[node.output].def = step;
            for &v in &node.inputs {
                values[v].last_use = values[v].last_use.max(step);
            }
        }
        values[0].def = 0;
        let output = nodes.last().expect("plans are non-empty").output;
        let last_step = nodes.len() - 1;
        values[output].last_use = last_step;
        for v in &mut values {
            v.last_use = v.last_use.max(v.def);
        }
        let specs: Vec<ValueSpec> = values
            .iter()
            .map(|v| ValueSpec { bytes: v.bytes, def: v.def, last_use: v.last_use })
            .collect();
        let arena = assign_arena(&specs);
        for (v, &offset) in values.iter_mut().zip(&arena.offsets) {
            v.offset = offset;
        }
        ExecutionPlan {
            layers,
            nodes,
            values,
            workspace_high_water_bytes,
            activation_high_water_bytes: arena.high_water_bytes,
            parallel: None,
        }
    }

    /// Re-packs the activation arena under an explicit conflict relation
    /// (indices are value ids), replacing every recorded offset and the
    /// declared activation high-water. The parallel planner passes the
    /// any-schedule co-liveness relation so values of independent DAG nodes
    /// never share bytes.
    pub(crate) fn reassign_arena_with(&mut self, conflict: impl Fn(usize, usize) -> bool) {
        let specs: Vec<ValueSpec> = self
            .values
            .iter()
            .map(|v| ValueSpec { bytes: v.bytes, def: v.def, last_use: v.last_use })
            .collect();
        let arena = crate::memplan::assign_arena_with(&specs, conflict);
        for (v, &offset) in self.values.iter_mut().zip(&arena.offsets) {
            v.offset = offset;
        }
        self.activation_high_water_bytes = arena.high_water_bytes;
    }

    /// Attaches a certified parallel schedule. The planner calls this after
    /// `verify::conc` admits the schedule; tests and the verifier CLI's
    /// mutant catalog use it to splice forged schedules onto plans (which
    /// the executor then rejects).
    pub fn with_parallel_schedule(mut self, schedule: ParallelSchedule) -> ExecutionPlan {
        self.parallel = Some(schedule);
        self
    }

    /// The certified parallel wave schedule, when the plan was compiled
    /// with `Planner::with_parallel_nodes`. `None` means the plan is
    /// serial-only and the executor's parallel mode must refuse it.
    pub fn parallel_schedule(&self) -> Option<&ParallelSchedule> {
        self.parallel.as_ref()
    }

    /// Builds a chain plan with an explicitly declared workspace figure.
    /// Exists so tests and the verifier's negative catalog can seed plans
    /// whose declarations diverge from the certified bound; the planner
    /// always goes through the crate-private `ExecutionPlan::from_graph`.
    pub fn from_layers(layers: Vec<LayerPlan>, workspace_high_water_bytes: usize) -> ExecutionPlan {
        let (nodes, values) = chain_graph(&layers);
        ExecutionPlan::from_graph(layers, nodes, values, workspace_high_water_bytes)
    }

    /// The same plan with a different declared activation high-water — the
    /// understating hook the verifier's negative catalog and the executor's
    /// run-time bound check are tested against. The planner never calls
    /// this.
    pub fn with_activation_high_water(mut self, bytes: usize) -> ExecutionPlan {
        self.activation_high_water_bytes = bytes;
        self
    }

    /// Per-layer plans.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// The compiled DAG's nodes in execution order.
    pub fn nodes(&self) -> &[NodePlan] {
        &self.nodes
    }

    /// The compiled DAG's values with their arena placements.
    pub fn values(&self) -> &[ValuePlan] {
        &self.values
    }

    /// The value the plan's last node produces — the network output.
    pub fn output_value(&self) -> ValueId {
        self.nodes.last().expect("plans are non-empty").output
    }

    /// The node executing conv layer `layer`.
    pub fn node_of_layer(&self, layer: usize) -> usize {
        self.nodes
            .iter()
            .position(|n| matches!(n.op, PlanOp::Conv { layer: l, .. } if l == layer))
            .expect("every layer has a node")
    }

    /// The declared activation arena high-water: an upper bound on the
    /// bytes of simultaneously-live activation values at any step. The
    /// verifier proves it from the recorded offsets; the executor proves at
    /// run time that observed live bytes never exceed it.
    pub fn activation_high_water_bytes(&self) -> usize {
        self.activation_high_water_bytes
    }

    /// The declared whole-plan arena high-water: an upper bound on the
    /// bytes the shared ARM workspace grows to over any execution of the
    /// plan (component-wise maximum of the per-layer buffer requirements,
    /// summed).
    pub fn workspace_high_water_bytes(&self) -> usize {
        self.workspace_high_water_bytes
    }

    /// Modeled total milliseconds over all layers.
    pub fn predicted_millis(&self) -> f64 {
        self.layers.iter().map(|l| l.predicted_millis).sum()
    }

    /// Backends this plan needs.
    pub fn backends(&self) -> Vec<BackendKind> {
        let mut out = Vec::new();
        for l in &self.layers {
            if !out.contains(&l.backend) {
                out.push(l.backend);
            }
        }
        out
    }

    /// Checks that this plan belongs to `net`: same layer count, names and
    /// geometry in order.
    pub fn validate_for(&self, net: &Network) -> Result<(), CoreError> {
        if self.layers.len() != net.layers().len() {
            return Err(CoreError::PlanMismatch {
                detail: format!(
                    "plan has {} layers, network has {}",
                    self.layers.len(),
                    net.layers().len()
                ),
            });
        }
        for (i, (lp, nl)) in self.layers.iter().zip(net.layers()).enumerate() {
            let at = format!("layer {i} ({}) at node n{}", lp.name, self.node_of_layer(i));
            if lp.name != nl.name {
                return Err(CoreError::PlanMismatch {
                    detail: format!("{at}: plan layer {} vs network layer {}", lp.name, nl.name),
                });
            }
            if lp.shape != nl.shape {
                return Err(CoreError::PlanMismatch {
                    detail: format!("{at}: plan shape {} vs network {}", lp.shape, nl.shape),
                });
            }
            if lp.bits != nl.weights.bits() {
                return Err(CoreError::PlanMismatch {
                    detail: format!(
                        "{at}: plan bits {} vs network {}",
                        lp.bits,
                        nl.weights.bits()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Renders the plan as an aligned human-readable table: one row per DAG
    /// node (conv rows carry their layer index and full recipe; add/concat
    /// rows their operand values), then the totals, including the
    /// activation arena's high-water.
    pub fn table(&self) -> String {
        let headers = ["node", "layer", "backend", "algo", "bits", "pred ms", "prepack fp", "ws bytes"];
        let mut rows: Vec<[String; 8]> = Vec::with_capacity(self.nodes.len());
        for (step, node) in self.nodes.iter().enumerate() {
            let row = match node.op {
                PlanOp::Conv { layer, fused_add } => {
                    let l = &self.layers[layer];
                    let algo = match fused_add {
                        Some(r) => format!("{} +v{r}", l.algo),
                        None => l.algo.to_string(),
                    };
                    [
                        format!("n{step}"),
                        format!("{layer}:{}", l.name),
                        l.backend.to_string(),
                        algo,
                        l.bits.to_string(),
                        format!("{:.6}", l.predicted_millis),
                        match l.prepack_fingerprint {
                            Some(fp) => format!("{fp:016x}"),
                            None => "-".into(),
                        },
                        l.workspace_bytes.to_string(),
                    ]
                }
                PlanOp::Add | PlanOp::Concat => {
                    let op = if node.op == PlanOp::Add { "add" } else { "concat" };
                    let operands = node
                        .inputs
                        .iter()
                        .map(|v| format!("v{v}"))
                        .collect::<Vec<_>>()
                        .join("+");
                    [
                        format!("n{step}"),
                        format!("-:{}", node.name),
                        "-".into(),
                        format!("{op} {operands}"),
                        self.values[node.output].bits.to_string(),
                        format!("{:.6}", 0.0),
                        "-".into(),
                        "0".into(),
                    ]
                }
            };
            rows.push(row);
        }
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if i <= 1 {
                        format!("{c:<w$}", w = widths[i])
                    } else {
                        format!("{c:>w$}", w = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        let mut out = fmt_row(&header_cells);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (headers.len() - 1)));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&format!("total predicted: {:.6} ms\n", self.predicted_millis()));
        out.push_str(&format!(
            "workspace high-water: {} bytes\n",
            self.workspace_high_water_bytes
        ));
        out.push_str(&format!(
            "activation high-water: {} bytes\n",
            self.activation_high_water_bytes
        ));
        if let Some(p) = &self.parallel {
            let waves: Vec<String> = p
                .waves
                .iter()
                .map(|w| {
                    let ids: Vec<String> = w.iter().map(|n| format!("n{n}")).collect();
                    format!("{{{}}}", ids.join(" "))
                })
                .collect();
            out.push_str(&format!(
                "parallel: {} waves (max width {}), {} interference edges, \
workspace arena {} bytes, certificate {:016x}\n",
                p.waves.len(),
                p.max_wave_width(),
                p.interference.len(),
                p.workspace_arena_bytes,
                p.certificate
            ));
            out.push_str(&format!("  {}\n", waves.join(" ")));
        }
        out
    }

    /// Serializes the plan as deterministic JSON (fixed field order and
    /// float formatting) — the golden-file format the CI check diffs.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"layers\": [\n");
        let items: Vec<String> = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let fp = match l.prepack_fingerprint {
                    Some(fp) => format!("\"{fp:016x}\""),
                    None => "null".into(),
                };
                let conv = |c: &Option<LayoutConversion>| match c {
                    Some(c) => format!("\"{c}\""),
                    None => "null".into(),
                };
                format!(
                    "    {{\"name\":\"{}\",\"node\":{},\"backend\":\"{}\",\"algo\":\"{}\",\"bits\":{},\
\"predicted_millis\":{:.9},\"prepack_fingerprint\":{},\"workspace_bytes\":{},\"relu\":{},\
\"pre_conversion\":{},\"post_conversion\":{}}}",
                    l.name,
                    self.node_of_layer(i),
                    l.backend,
                    l.algo,
                    l.bits.bits(),
                    l.predicted_millis,
                    fp,
                    l.workspace_bytes,
                    l.epilogue.relu,
                    conv(&l.pre_conversion),
                    conv(&l.post_conversion)
                )
            })
            .collect();
        s.push_str(&items.join(",\n"));
        s.push_str("\n  ],\n  \"nodes\": [\n");
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                let (op, layer, fused) = match n.op {
                    PlanOp::Conv { layer, fused_add } => (
                        "conv",
                        layer.to_string(),
                        fused_add.map_or("null".into(), |r| r.to_string()),
                    ),
                    PlanOp::Add => ("add", "null".into(), "null".into()),
                    PlanOp::Concat => ("concat", "null".into(), "null".into()),
                };
                let inputs =
                    n.inputs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",");
                format!(
                    "    {{\"name\":\"{}\",\"op\":\"{op}\",\"layer\":{layer},\
\"fused_add\":{fused},\"inputs\":[{inputs}],\"output\":{}}}",
                    n.name, n.output
                )
            })
            .collect();
        s.push_str(&nodes.join(",\n"));
        s.push_str("\n  ],\n  \"values\": [\n");
        let values: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "    {{\"dims\":[{},{},{},{}],\"bits\":{},\"layout\":\"{:?}\",\
\"bytes\":{},\"offset\":{},\"def\":{},\"last_use\":{}}}",
                    v.dims.0, v.dims.1, v.dims.2, v.dims.3,
                    v.bits.bits(),
                    v.layout,
                    v.bytes,
                    v.offset,
                    v.def,
                    v.last_use
                )
            })
            .collect();
        s.push_str(&values.join(",\n"));
        s.push_str(&format!(
            "\n  ],\n  \"predicted_total_millis\":{:.9},\n  \
\"workspace_high_water_bytes\":{},\n  \"activation_high_water_bytes\":{}",
            self.predicted_millis(),
            self.workspace_high_water_bytes,
            self.activation_high_water_bytes
        ));
        // Serial plans keep the historical shape byte-for-byte; the section
        // below appears only when a certified schedule is attached.
        if let Some(p) = &self.parallel {
            let waves: Vec<String> = p
                .waves
                .iter()
                .map(|w| {
                    let ids: Vec<String> = w.iter().map(|n| n.to_string()).collect();
                    format!("[{}]", ids.join(","))
                })
                .collect();
            let edges: Vec<String> =
                p.interference.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
            let slices: Vec<String> =
                p.workspace_slices.iter().map(|(o, b)| format!("[{o},{b}]")).collect();
            s.push_str(&format!(
                ",\n  \"parallel\": {{\"waves\":[{}],\"interference\":[{}],\
\"workspace_slices\":[{}],\"workspace_arena_bytes\":{},\"certificate\":\"{:016x}\"}}",
                waves.join(","),
                edges.join(","),
                slices.join(","),
                p.workspace_arena_bytes,
                p.certificate
            ));
        }
        s.push_str("\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use crate::ArmEngine;

    #[test]
    fn plan_renders_table_and_json() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let engine = ArmEngine::cortex_a53();
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let table = plan.table();
        assert!(table.contains("conv1"));
        assert!(table.contains("arm"));
        assert!(table.contains("total predicted"));
        let json = plan.to_json();
        assert!(json.contains("\"layers\""));
        assert!(json.contains("\"predicted_total_millis\""));
        // Deterministic: same network, same JSON.
        let again = Planner::for_arm(&ArmEngine::cortex_a53())
            .compile(&Network::demo(BitWidth::W4, 12, 9))
            .unwrap();
        assert_eq!(json, again.to_json());
    }

    #[test]
    fn validate_for_catches_divergence() {
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W4, 12, 9);
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        assert!(plan.validate_for(&net).is_ok());
        let other = Network::demo(BitWidth::W4, 16, 9);
        assert!(matches!(
            plan.validate_for(&other),
            Err(CoreError::PlanMismatch { .. })
        ));
        let other_bits = Network::demo(BitWidth::W5, 12, 9);
        assert!(plan.validate_for(&other_bits).is_err());
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
