//! The typed [`ExecutionPlan`] IR — the offline half of the paper's
//! deployment story.
//!
//! The paper splits deployment into an offline phase (Alg. 1 register
//! allocation and instruction-scheme choice on ARM; profile-run tiling
//! auto-search on the GPU, Sec. 5.1) and an online phase that just executes
//! the chosen kernels. A compiled plan is the artifact that crosses that
//! boundary: one [`LayerPlan`] per layer carrying the concrete algorithm
//! (never `Auto`; its [`PlanAlgo::backend`] names the engine), the
//! prepack-cache fingerprint the online phase will hit, the certified
//! workspace bytes the verifier re-derives, the modeled time, and the fused
//! epilogue (bias + re-quantization + ReLU).
//!
//! The layer, node and value tables are defined in [`lowbit_verify::plan`]
//! and re-exported here, so the plan verifier checks the tables the
//! executor runs. Plans are produced by [`crate::planner::Planner`] and
//! consumed by [`crate::executor::Executor`]; they are plain data —
//! inspectable, printable ([`ExecutionPlan::table`]) and serializable
//! ([`ExecutionPlan::to_json`]) so planner regressions show up in review as
//! golden-file diffs.

use crate::error::CoreError;
use crate::graph::ValueId;
use crate::memplan::{assign_arena, assign_arena_with, Assignment, ValueSpec};
use crate::network::Network;
// The plan's tables are defined beside the verifiers that check them, so
// the verifiers read the very tables the executor runs.
pub use lowbit_verify::{BackendKind, Epilogue, LayerPlan, NodePlan, PlanAlgo, PlanOp, ValuePlan};

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

/// Lays the value table out in the activation arena with `assign` (one of
/// the memplan allocators, given each value's bytes and live range),
/// records every value's offset and returns the arena's high-water bytes.
fn pack_arena(
    values: &mut [ValuePlan],
    assign: impl FnOnce(&[ValueSpec]) -> Assignment,
) -> usize {
    let specs: Vec<ValueSpec> = values
        .iter()
        .map(|v| ValueSpec { bytes: v.bytes, def: v.def, last_use: v.last_use })
        .collect();
    let arena = assign(&specs);
    for (v, &offset) in values.iter_mut().zip(&arena.offsets) {
        v.offset = offset;
    }
    arena.high_water_bytes
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
        let activation_high_water_bytes = pack_arena(&mut values, assign_arena);
        ExecutionPlan {
            layers,
            nodes,
            values,
            workspace_high_water_bytes,
            activation_high_water_bytes,
            parallel: None,
        }
    }

    /// Re-packs the activation arena under an explicit conflict relation
    /// (indices are value ids), replacing every recorded offset and the
    /// declared activation high-water. The parallel planner passes the
    /// any-schedule co-liveness relation so values of independent DAG nodes
    /// never share bytes.
    pub(crate) fn reassign_arena_with(&mut self, conflict: impl Fn(usize, usize) -> bool) {
        self.activation_high_water_bytes =
            pack_arena(&mut self.values, |specs| assign_arena_with(specs, conflict));
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

    /// The same plan with edited layer payloads and an explicitly declared
    /// workspace figure; the node/value tables, the activation arena and any
    /// parallel schedule are kept. Exists so tests and the drift self-check
    /// can seed plans whose declarations diverge from what was compiled;
    /// the planner never calls this.
    ///
    /// # Panics
    /// If `layers` is not as long as the plan's layer list, which the node
    /// table indexes.
    pub fn with_layers(
        mut self,
        layers: Vec<LayerPlan>,
        workspace_high_water_bytes: usize,
    ) -> ExecutionPlan {
        assert_eq!(layers.len(), self.layers.len(), "the node table indexes the layer list");
        self.layers = layers;
        self.workspace_high_water_bytes = workspace_high_water_bytes;
        self
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
            let backend = l.algo.backend();
            if !out.contains(&backend) {
                out.push(backend);
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
                        l.algo.backend().to_string(),
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
                "parallel: {} waves (max width {}), workspace arena {} bytes, \
certificate {:016x}\n",
                p.waves.len(),
                p.max_wave_width(),
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
                format!(
                    "    {{\"name\":\"{}\",\"node\":{},\"backend\":\"{}\",\"algo\":\"{}\",\"bits\":{},\
\"predicted_millis\":{:.9},\"prepack_fingerprint\":{},\"workspace_bytes\":{},\"relu\":{}}}",
                    l.name,
                    self.node_of_layer(i),
                    l.algo.backend(),
                    l.algo,
                    l.bits.bits(),
                    l.predicted_millis,
                    fp,
                    l.workspace_bytes,
                    l.epilogue.relu
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
            let slices: Vec<String> =
                p.workspace_slices.iter().map(|(o, b)| format!("[{o},{b}]")).collect();
            s.push_str(&format!(
                ",\n  \"parallel\": {{\"waves\":[{}],\"workspace_slices\":[{}],\
\"workspace_arena_bytes\":{},\"certificate\":\"{:016x}\"}}",
                waves.join(","),
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
    use lowbit_tensor::BitWidth;

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
}
