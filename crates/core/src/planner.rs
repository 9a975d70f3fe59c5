//! The cost-driven [`Planner`]: compiles a [`Network`] into an
//! [`ExecutionPlan`] ahead of execution.
//!
//! This is the offline phase of the paper made explicit. For every layer the
//! planner enumerates the applicable kernel candidates on each registered
//! backend, prices them with the same analytic cost models the engines
//! execute against ([`neon_sim::KernelSchedule`] on ARM,
//! [`turing_sim::KernelTime`] on the GPU), and commits the cheapest — so
//! `ArmAlgo::Auto` resolution and the GPU `Tuning` plumbing both collapse
//! into one plan-time decision.
//!
//! ARM candidate ranking deliberately uses the *cold* (one-shot) schedules,
//! exactly as the engine's historical `select_algo` did: the relative order
//! of algorithms is a property of the kernels, and keeping the legacy metric
//! makes `Planner::compile` + `Executor::run` reproduce per-call
//! `ArmAlgo::Auto` convolutions bit for bit. The committed [`LayerPlan::predicted_millis`] is the *warm*
//! (prepacked) cost — what repeated execution actually pays.

use crate::arm::{arm_schedule, prepack_fingerprint, ArmAlgo, ArmEngine};
use crate::error::CoreError;
use crate::gpu::{GpuEngine, Tuning};
use crate::graph::NodeOp;
use crate::network::Network;
use crate::memplan::{assign_arena_with, ValueSpec};
use crate::plan::{
    BackendKind, Epilogue, ExecutionPlan, LayerPlan, NodePlan, ParallelSchedule, PlanAlgo,
    PlanOp, ValuePlan,
};
use lowbit_conv_gpu::{auto_search, default_config, ConvGpuPlan};
use lowbit_tensor::{BitWidth, ConvShape};
use neon_sim::CostModel;

/// One enumerated ARM kernel candidate for a layer.
#[derive(Clone, Copy, Debug)]
pub struct ArmCandidate {
    /// The kernel.
    pub algo: ArmAlgo,
    /// Modeled one-shot cycles (the selection metric; includes `pack A`).
    pub cold_cycles: f64,
    /// Modeled steady-state milliseconds (the committed prediction; the
    /// prepack cache amortizes the weight pack to zero).
    pub warm_millis: f64,
}

/// The algorithms the planner ranks, in tie-break order: the paper's wide
/// 16x4 GEMM, the narrow 8x4 tile and Winograd `F(2x2, 3x3)`. The SDOT
/// GEMM and the baselines run only when forced.
const PLANNED_ARM_ALGOS: [ArmAlgo; 3] = [ArmAlgo::Gemm, ArmAlgo::GemmNarrow, ArmAlgo::Winograd];

/// Enumerates the ARM kernel candidates for a bit width and shape: the
/// planned algorithms that apply there ([`ArmAlgo::applies`]). The wide GEMM
/// always applies, so the list is never empty.
pub fn arm_candidates(model: &CostModel, bits: BitWidth, shape: &ConvShape) -> Vec<ArmCandidate> {
    PLANNED_ARM_ALGOS
        .into_iter()
        .filter(|algo| algo.applies(bits, shape))
        .map(|algo| ArmCandidate {
            algo,
            cold_cycles: arm_schedule(algo, bits, shape, false).cycles(model),
            warm_millis: arm_schedule(algo, bits, shape, true).millis(model),
        })
        .collect()
}

/// Resolves `Auto` the way the paper's offline phase does: the first
/// enumerated candidate wins ties, later ones must be strictly cheaper on
/// the cold metric (this exactly reproduces the engine's historical
/// `select_algo`).
pub fn select_arm_algo(model: &CostModel, bits: BitWidth, shape: &ConvShape) -> ArmAlgo {
    let candidates = arm_candidates(model, bits, shape);
    let mut best = candidates[0];
    for c in &candidates[1..] {
        if c.cold_cycles < best.cold_cycles {
            best = *c;
        }
    }
    best.algo
}

/// Compiles networks into execution plans over the registered backends.
///
/// With one backend the planner resolves the per-layer algorithm choice on
/// it; with both it additionally cost-ranks the backends against each other
/// per layer, falling back to ARM for bit widths the GPU's Tensor Core path
/// cannot serve.
#[derive(Clone, Debug, Default)]
pub struct Planner {
    arm: Option<ArmEngine>,
    gpu: Option<(GpuEngine, Tuning)>,
    graph_fusion_off: bool,
    parallel_nodes: bool,
}

impl Planner {
    /// An empty planner; register backends with [`Planner::with_arm`] /
    /// [`Planner::with_gpu`].
    pub fn new() -> Planner {
        Planner::default()
    }

    /// Registers the ARM backend (clones share the engine's caches).
    pub fn with_arm(mut self, engine: &ArmEngine) -> Planner {
        self.arm = Some(engine.clone());
        self
    }

    /// Registers the GPU backend with its tiling policy.
    pub fn with_gpu(mut self, engine: &GpuEngine, tuning: Tuning) -> Planner {
        self.gpu = Some((engine.clone(), tuning));
        self
    }

    /// An ARM-only planner.
    pub fn for_arm(engine: &ArmEngine) -> Planner {
        Planner::new().with_arm(engine)
    }

    /// A GPU-only planner.
    pub fn for_gpu(engine: &GpuEngine, tuning: Tuning) -> Planner {
        Planner::new().with_gpu(engine, tuning)
    }

    /// Enables or disables graph-level fusion (residual-add folding and
    /// layout round-trip elision). On by default; turning it off yields the
    /// naive plan that materializes every topology value — the bit-exact
    /// reference the fused plan is tested against.
    pub fn with_graph_fusion(mut self, enabled: bool) -> Planner {
        self.graph_fusion_off = !enabled;
        self
    }

    /// Enables parallel DAG node scheduling. The compiled plan then carries
    /// a certified [`ParallelSchedule`]: the activation arena is re-packed
    /// under the any-schedule co-liveness relation (values of independent
    /// nodes never share bytes — this can raise the high-water, the price
    /// of concurrency), nodes that may run concurrently get disjoint slices
    /// of a parallel workspace arena, and `verify::conc` certifies the
    /// dependency-level waves under its one rule: nodes that may run
    /// concurrently never overlap. Off by default: serial plans stay
    /// byte-identical to previous releases.
    pub fn with_parallel_nodes(mut self, enabled: bool) -> Planner {
        self.parallel_nodes = enabled;
        self
    }

    /// Plans one layer on the ARM backend: enumerates the applicable kernels
    /// and commits the cheapest ([`select_arm_algo`]).
    fn plan_arm_layer(
        engine: &ArmEngine,
        name: &str,
        shape: &ConvShape,
        bits: BitWidth,
        weights: &lowbit_tensor::QTensor,
        epilogue: Epilogue,
    ) -> LayerPlan {
        let algo = select_arm_algo(engine.model(), bits, shape);
        let mut lp = LayerPlan {
            name: name.to_string(),
            shape: *shape,
            bits,
            algo: PlanAlgo::Arm(algo),
            // The engine keys Winograd by the effective width of the call:
            // activations at the layer's width, weights at their own.
            prepack_fingerprint: prepack_fingerprint(weights, algo, bits.max(weights.bits())),
            workspace_bytes: 0,
            predicted_millis: engine.estimate_millis(bits, shape, algo),
            epilogue,
        };
        // The declared sizing is the verifier's certified bound, so the two
        // cannot diverge; kernels outside the shared arena declare 0.
        lp.workspace_bytes = lowbit_verify::workspace_requirement(lp.algo, shape).total();
        lp
    }

    /// Plans one layer on the GPU backend, or reports the width unsupported.
    fn plan_gpu_layer(
        engine: &GpuEngine,
        tuning: Tuning,
        name: &str,
        shape: &ConvShape,
        bits: BitWidth,
        epilogue: Epilogue,
    ) -> Result<LayerPlan, CoreError> {
        let precision = GpuEngine::precision_for(bits).ok_or(CoreError::UnsupportedBitWidth {
            bits,
            backend: BackendKind::GpuModel,
        })?;
        let cfg = match tuning {
            Tuning::Default => default_config(precision),
            Tuning::AutoSearch => auto_search(shape, precision, engine.device()).0,
            Tuning::Fixed(cfg) => cfg,
        };
        // Every committed GPU plan carries a static proof: tiling geometry,
        // shared-memory discipline, staging hazards, launch resources. A
        // hand-built `Tuning::Fixed` config that cannot be proven is a typed
        // error here instead of a panic inside the engine.
        let rejected = |violation| CoreError::GpuPlanRejected {
            layer: name.to_string(),
            violation,
        };
        let plan = ConvGpuPlan::try_new(*shape, cfg, precision)
            .map_err(|r| rejected(lowbit_verify::GpuViolation::InvalidTile(r)))?;
        lowbit_verify::verify_gpu_plan(&plan, engine.device()).map_err(rejected)?;
        let time = plan.time(engine.device());
        Ok(LayerPlan {
            name: name.to_string(),
            shape: *shape,
            bits,
            algo: PlanAlgo::GpuImplicitGemm(cfg),
            prepack_fingerprint: None,
            workspace_bytes: 0,
            predicted_millis: time.total_s * 1e3,
            epilogue,
        })
    }

    /// Compiles `net` into an execution plan.
    ///
    /// The planner walks the network's DAG topology. Conv nodes get the
    /// per-layer treatment: enumerate candidates on every registered
    /// backend, rank by modeled time, commit the winner (a GPU-only planner
    /// fails with [`CoreError::UnsupportedBitWidth`] on widths outside the
    /// Tensor Core paths; a planner that also has ARM falls back to it
    /// instead). Then the graph-level passes run: residual adds fold into
    /// their producing conv's epilogue, NCHW round-trips between
    /// same-backend GPU neighbors are elided, and the liveness planner
    /// packs every surviving value into the activation arena.
    pub fn compile(&self, net: &Network) -> Result<ExecutionPlan, CoreError> {
        if self.arm.is_none() && self.gpu.is_none() {
            return Err(CoreError::MissingBackend {
                backend: BackendKind::Arm,
            });
        }
        let topo = net.topology();
        let mut layers: Vec<LayerPlan> = Vec::with_capacity(net.layers().len());
        let mut nodes: Vec<NodePlan> = Vec::with_capacity(topo.nodes.len());
        for gnode in &topo.nodes {
            let op = match gnode.op {
                NodeOp::Conv { layer: li } => {
                    let layer = &net.layers()[li];
                    let bits = layer.weights.bits();
                    let epilogue = layer.epilogue();
                    let arm_plan = self.arm.as_ref().map(|engine| {
                        Self::plan_arm_layer(engine, &layer.name, &layer.shape, bits, &layer.weights, epilogue.clone())
                    });
                    let gpu_plan = match &self.gpu {
                        Some((engine, tuning)) => {
                            match Self::plan_gpu_layer(engine, *tuning, &layer.name, &layer.shape, bits, epilogue) {
                                Ok(plan) => Some(plan),
                                // Precision fallback: with an ARM backend registered,
                                // widths outside the Tensor Core paths route there. A
                                // verifier rejection is NOT recoverable — the caller
                                // asked for a specific GPU configuration and must see
                                // the counterexample.
                                Err(CoreError::UnsupportedBitWidth { .. }) if arm_plan.is_some() => None,
                                Err(e) => return Err(e),
                            }
                        }
                        None => None,
                    };
                    let chosen = match (arm_plan, gpu_plan) {
                        (Some(a), Some(g)) => {
                            if g.predicted_millis < a.predicted_millis {
                                g
                            } else {
                                a
                            }
                        }
                        (Some(a), None) => a,
                        (None, Some(g)) => g,
                        (None, None) => unreachable!("at least one backend is registered"),
                    };
                    layers.push(chosen);
                    PlanOp::Conv { layer: layers.len() - 1, fused_add: None }
                }
                NodeOp::Add => PlanOp::Add,
                NodeOp::Concat => PlanOp::Concat,
            };
            nodes.push(NodePlan {
                name: gnode.name.clone(),
                op,
                inputs: gnode.inputs.clone(),
                output: gnode.output,
            });
        }
        let mut values: Vec<ValuePlan> = topo
            .values
            .iter()
            .map(|v| ValuePlan {
                dims: v.dims,
                bits: v.bits,
                layout: lowbit_tensor::Layout::Nchw,
                bytes: v.bytes(),
                offset: 0,
                def: 0,
                last_use: 0,
            })
            .collect();
        if !self.graph_fusion_off {
            fuse_residual_adds(&mut nodes, self.parallel_nodes);
            elide_layout_roundtrips(&nodes, &mut values, &layers);
        }
        let (nodes, values) = compact_graph(nodes, values);
        let workspace = crate::verify::plan_high_water(&layers);
        let mut plan = ExecutionPlan::from_graph(layers, nodes, values, workspace);
        if self.parallel_nodes {
            plan = parallelize(plan);
        }
        // Debug-assertion gate: every plan this planner emits must survive
        // the whole-plan static verifier (numeric range propagation, layout
        // dataflow, workspace and activation-arena certification), and a
        // parallel plan additionally the concurrency verifier. An
        // unverifiable plan here is a planner bug, not a user error — fail
        // loudly in debug builds.
        #[cfg(debug_assertions)]
        {
            if let Err(e) = crate::verify::verify_compiled(&plan, net) {
                panic!("planner emitted an unverifiable plan: {e}");
            }
            if self.parallel_nodes {
                if let Err(e) = crate::verify::verify_conc_compiled(&plan) {
                    panic!("planner emitted an uncertifiable parallel schedule: {e}");
                }
            }
        }
        Ok(plan)
    }
}

/// The parallel-node compilation pass: re-packs the activation arena so
/// that values which could coexist under *any* dependency-respecting
/// schedule never share bytes, carves every node a disjoint slice of a
/// parallel workspace arena, and attaches the certified wave schedule
/// (built and digested by `verify::conc::build_schedule`).
fn parallelize(mut plan: ExecutionPlan) -> ExecutionPlan {
    let reach = lowbit_verify::reachability(plan.nodes());
    let mut producer: Vec<Option<usize>> = vec![None; plan.values().len()];
    for (i, node) in plan.nodes().iter().enumerate() {
        producer[node.output] = Some(i);
    }
    // touchers[v]: every node that writes or reads value v.
    let touchers: Vec<Vec<usize>> = (0..plan.values().len())
        .map(|v| {
            let mut t: Vec<usize> = producer[v].into_iter().collect();
            for (i, node) in plan.nodes().iter().enumerate() {
                if node.inputs.contains(&v) && !t.contains(&i) {
                    t.push(i);
                }
            }
            t
        })
        .collect();
    // Value u is provably dead before value v is written — under every
    // dependency-respecting schedule — when each of u's touchers strictly
    // reaches v's defining node. Two values conflict (must not share arena
    // bytes) unless one is dead before the other in this schedule-free
    // sense; this is the widening that makes the placement sound for the
    // wave executor, not just for the serial step order.
    let dead_before = |u: usize, v: usize| -> bool {
        let Some(dv) = producer[v] else { return false };
        !touchers[u].is_empty() && touchers[u].iter().all(|&t| t != dv && reach[t][dv])
    };
    plan.reassign_arena_with(|u, v| !(dead_before(u, v) || dead_before(v, u)));

    // Per-node workspace slices: demand is the layer's certified workspace
    // figure (0 for Add/Concat and GPU layers); nodes that may run
    // concurrently (incomparable under reachability) must not share bytes,
    // while ordered nodes may — the same first-fit allocator as the
    // activation arena, under the concurrency conflict relation.
    let demands: Vec<ValueSpec> = plan
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| ValueSpec {
            bytes: match node.op {
                PlanOp::Conv { layer, .. } => plan.layers()[layer].workspace_bytes,
                PlanOp::Add | PlanOp::Concat => 0,
            },
            def: i,
            last_use: i,
        })
        .collect();
    let ws = assign_arena_with(&demands, |i, j| !reach[i][j] && !reach[j][i]);
    let slices: Vec<(usize, usize)> = ws
        .offsets
        .iter()
        .zip(&demands)
        .map(|(&offset, d)| (offset, d.bytes))
        .collect();

    let spec = crate::verify::lower_conc_spec(&plan, &slices, ws.high_water_bytes);
    let sched = lowbit_verify::build_schedule(&spec);
    plan.with_parallel_schedule(ParallelSchedule {
        waves: sched.waves,
        workspace_slices: slices,
        workspace_arena_bytes: ws.high_water_bytes,
        certificate: sched.certificate,
    })
}

/// How many node reads a value has (a node reading the same value twice
/// counts twice — liveness and fusion both want read multiplicity).
fn read_count(nodes: &[NodePlan], v: usize) -> usize {
    nodes.iter().flat_map(|n| &n.inputs).filter(|&&x| x == v).count()
}

/// The index of the node producing `v`, if any survives.
fn producer_of(nodes: &[NodePlan], v: usize) -> Option<usize> {
    nodes.iter().position(|n| n.output == v)
}

/// Graph-level fusion pass 1: fold each residual [`PlanOp::Add`] into the
/// conv producing one of its operands. Eligible when that conv's output is
/// consumed *only* by the add, the conv carries no fused add yet, and the
/// other operand is already available when the conv runs (defined at an
/// earlier step, so execution order is preserved). The network validated
/// scale alignment at every join, so the fused epilogue add — clamp the
/// re-quantized output plus the residual into the output width's range — is
/// elementwise identical to the standalone node it replaces.
///
/// With `preserve_width` set (parallel-node compilation) a fusion that
/// would *serialize* currently-incomparable nodes is skipped: folding the
/// add into the conv producing `x` adds a new dependency on `r`'s producer,
/// so the fold only happens when that producer is already an ancestor of
/// the conv (or `r` is the graph input). A projection-style block — two
/// independent paths meeting at an add — keeps its standalone join and its
/// 2-wide wave.
fn fuse_residual_adds(nodes: &mut Vec<NodePlan>, preserve_width: bool) {
    let mut step = 0;
    while step < nodes.len() {
        if nodes[step].op != PlanOp::Add {
            step += 1;
            continue;
        }
        let (a, b) = (nodes[step].inputs[0], nodes[step].inputs[1]);
        let mut fused = false;
        for (x, r) in [(a, b), (b, a)] {
            if x == r || read_count(nodes, x) != 1 {
                continue;
            }
            let Some(p) = producer_of(nodes, x) else { continue };
            let PlanOp::Conv { layer, fused_add: None } = nodes[p].op else { continue };
            // The residual must exist before the conv runs.
            let r_def = producer_of(nodes, r).map(|i| i + 1).unwrap_or(0);
            if r_def > p {
                continue;
            }
            if preserve_width {
                if let Some(pr) = producer_of(nodes, r) {
                    if !lowbit_verify::reachability(nodes)[pr][p] {
                        continue;
                    }
                }
            }
            let add_output = nodes[step].output;
            nodes[p].op = PlanOp::Conv { layer, fused_add: Some(r) };
            nodes[p].inputs.push(r);
            nodes[p].output = add_output;
            nodes.remove(step);
            fused = true;
            break;
        }
        if !fused {
            step += 1;
        }
    }
}

/// Graph-level fusion pass 2: elide NCHW round-trips between same-backend
/// neighbors. A value produced by a conv and read *only* as the activation
/// input of convs native in the producer's layout is stored in that layout,
/// so no backend converts it. The plan output is excluded — callers receive
/// canonical NCHW. Only the value table changes: each backend converts
/// whatever layout arrives, so the layers record nothing.
fn elide_layout_roundtrips(nodes: &[NodePlan], values: &mut [ValuePlan], layers: &[LayerPlan]) {
    let plan_output = nodes.last().expect("plans are non-empty").output;
    let native = |layer: usize| layers[layer].algo.backend().native_layout();
    for (v, value) in values.iter_mut().enumerate().skip(1) {
        if v == plan_output || read_count(nodes, v) == 0 {
            continue;
        }
        let Some(p) = producer_of(nodes, v) else { continue };
        let PlanOp::Conv { layer: pl, .. } = nodes[p].op else { continue };
        // Every read of v must be a same-layout conv's activation input
        // (not a fused residual, not a join operand).
        let native_reads = nodes.iter().all(|node| {
            node.inputs.iter().enumerate().all(|(slot, &x)| {
                x != v
                    || matches!(node.op, PlanOp::Conv { layer: cl, .. }
                        if slot == 0 && native(cl) == native(pl))
            })
        });
        if native_reads {
            value.layout = native(pl);
        }
    }
}

/// Renumbers values after fusion so orphans (values no surviving node
/// produces or reads — the pre-add conv outputs the fusion absorbed)
/// disappear from the plan. The graph input keeps id 0.
fn compact_graph(
    mut nodes: Vec<NodePlan>,
    values: Vec<ValuePlan>,
) -> (Vec<NodePlan>, Vec<ValuePlan>) {
    let mut live = vec![false; values.len()];
    live[0] = true;
    for n in &nodes {
        live[n.output] = true;
        for &v in &n.inputs {
            live[v] = true;
        }
    }
    let mut remap = vec![usize::MAX; values.len()];
    let mut kept = Vec::with_capacity(values.len());
    for (old, v) in values.into_iter().enumerate() {
        if live[old] {
            remap[old] = kept.len();
            kept.push(v);
        }
    }
    for n in &mut nodes {
        n.output = remap[n.output];
        for v in &mut n.inputs {
            *v = remap[*v];
        }
        if let PlanOp::Conv { layer, fused_add: Some(r) } = n.op {
            n.op = PlanOp::Conv { layer, fused_add: Some(remap[r]) };
        }
    }
    (nodes, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_tensor::BitWidth;

    #[test]
    fn empty_planner_reports_missing_backend() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        assert!(matches!(
            Planner::new().compile(&net),
            Err(CoreError::MissingBackend { .. })
        ));
    }

    #[test]
    fn arm_plan_matches_legacy_selection_and_estimate() {
        let engine = ArmEngine::cortex_a53();
        for bits in BitWidth::ALL {
            let net = Network::demo(bits, 12, 9);
            let plan = Planner::for_arm(&engine).compile(&net).unwrap();
            assert_eq!(plan.layers().len(), 3);
            for (lp, layer) in plan.layers().iter().zip(net.layers()) {
                let legacy = engine.select_algo(bits, &layer.shape);
                assert_eq!(lp.algo, PlanAlgo::Arm(legacy), "{bits} {}", lp.name);
                let est = engine.estimate_millis(bits, &layer.shape, legacy);
                assert!((lp.predicted_millis - est).abs() < 1e-12);
                assert_eq!(lp.algo.backend(), BackendKind::Arm);
            }
            let est_total: f64 = net
                .layers()
                .iter()
                .map(|l| engine.estimate_millis(bits, &l.shape, ArmAlgo::Auto))
                .sum();
            assert!((plan.predicted_millis() - est_total).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_family_layers_carry_fingerprint_and_workspace() {
        let engine = ArmEngine::cortex_a53();
        let bottleneck = lowbit_models::resnet50_bottleneck();
        let nets = [
            Network::demo(BitWidth::W4, 12, 9),
            Network::from_layer_defs(&bottleneck, BitWidth::W4, 9).unwrap(),
        ];
        let mut winograd_layers = 0;
        for net in &nets {
            let plan = Planner::for_arm(&engine).compile(net).unwrap();
            for lp in plan.layers() {
                match lp.algo {
                    PlanAlgo::Arm(
                        ArmAlgo::Gemm | ArmAlgo::GemmNarrow | ArmAlgo::GemmSdot | ArmAlgo::Winograd,
                    ) => {
                        assert!(lp.prepack_fingerprint.is_some(), "{}", lp.name);
                        assert!(lp.workspace_bytes > 0, "{}", lp.name);
                        winograd_layers += usize::from(lp.algo == PlanAlgo::Arm(ArmAlgo::Winograd));
                    }
                    _ => assert!(lp.prepack_fingerprint.is_none(), "{}", lp.name),
                }
            }
        }
        assert!(winograd_layers > 0, "the W4 bottleneck plans its 3x3 layer on Winograd");
    }

    #[test]
    fn fixed_invalid_tile_config_is_a_typed_error_not_a_panic() {
        use lowbit_conv_gpu::{TileConfig, TileRejection};
        use lowbit_verify::GpuViolation;
        let gpu = GpuEngine::rtx2080ti();
        let arm = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W8, 12, 9);
        // m_tile 100 does not split into 8-aligned warp fragments.
        let bad = TileConfig {
            m_tile: 100, n_tile: 64, k_tile: 64, k_step: 32, warps_m: 2, warps_n: 2,
        };
        let err = Planner::for_gpu(&gpu, Tuning::Fixed(bad)).compile(&net).unwrap_err();
        assert!(matches!(
            err,
            CoreError::GpuPlanRejected {
                ref layer,
                violation: GpuViolation::InvalidTile(TileRejection::WarpShape { dim: 'm', .. }),
            } if layer == "conv1"
        ));
        assert!(err.to_string().contains("static verifier"));
        // Even with an ARM fallback registered, a rejected explicit GPU
        // config must surface, not silently reroute.
        let err = Planner::new()
            .with_arm(&arm)
            .with_gpu(&gpu, Tuning::Fixed(bad))
            .compile(&net)
            .unwrap_err();
        assert!(matches!(err, CoreError::GpuPlanRejected { .. }));
    }

    #[test]
    fn compiled_gpu_plans_are_verified_plans() {
        // Default and auto-search tunings must always survive the verifier.
        let gpu = GpuEngine::rtx2080ti();
        for tuning in [Tuning::Default, Tuning::AutoSearch] {
            for bits in [BitWidth::W4, BitWidth::W8] {
                let net = Network::demo(bits, 12, 9);
                let plan = Planner::for_gpu(&gpu, tuning).compile(&net).unwrap();
                assert_eq!(plan.layers().len(), 3);
            }
        }
    }

    #[test]
    fn parallel_plans_certify_and_widen_the_projection_block() {
        let engine = ArmEngine::cortex_a53();
        let net = Network::from_graph_defs(
            &lowbit_models::resnet50_projection_block(12),
            BitWidth::W4,
            7,
        )
        .unwrap();
        let plan = Planner::for_arm(&engine)
            .with_parallel_nodes(true)
            .compile(&net)
            .unwrap();
        let sched = plan.parallel_schedule().expect("certified schedule attached");
        assert!(
            sched.max_wave_width() >= 2,
            "projection block has incomparable convs: {:?}",
            sched.waves
        );
        // The debug gate already re-verified; check the explicit path too.
        crate::verify::verify_conc_compiled(&plan).unwrap();
        // Serial compilation of the same network attaches nothing.
        let serial = Planner::for_arm(&engine).compile(&net).unwrap();
        assert!(serial.parallel_schedule().is_none());
    }

    #[test]
    fn parallel_chain_plans_certify_with_serial_waves() {
        // Chains gain no width but must still carry a valid certificate.
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W4, 12, 9);
        let plan = Planner::for_arm(&engine)
            .with_parallel_nodes(true)
            .compile(&net)
            .unwrap();
        let sched = plan.parallel_schedule().unwrap();
        assert_eq!(sched.max_wave_width(), 1);
        assert_eq!(sched.waves.len(), plan.nodes().len());
    }

    #[test]
    fn gpu_only_planner_rejects_odd_widths() {
        let gpu = GpuEngine::rtx2080ti();
        let net = Network::demo(BitWidth::W5, 12, 9);
        let err = Planner::for_gpu(&gpu, Tuning::Default).compile(&net).unwrap_err();
        assert!(matches!(
            err,
            CoreError::UnsupportedBitWidth { bits: BitWidth::W5, backend: BackendKind::GpuModel }
        ));
    }
}
