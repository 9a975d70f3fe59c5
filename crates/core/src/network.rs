//! End-to-end quantized network inference (the paper's deployment story and
//! stated future work: "integrate our low-bit convolution optimizations …
//! to enable end-to-end optimization").
//!
//! A [`Network`] is a validated DAG of quantized conv(+bias+ReLU) layers
//! joined by residual adds and dense concats. It only describes the model:
//! a [`crate::planner::Planner`] compiles it into an
//! [`crate::plan::ExecutionPlan`] offline, and a
//! [`crate::executor::Executor`] runs or estimates that plan.

use crate::arm::ArmAlgo;
use crate::error::CoreError;
use crate::graph::{GraphNode, GraphTopology, NodeOp, ValueInfo};
use crate::plan::{Epilogue, LayerPlan, PlanAlgo};
use lowbit_qnn::RequantParams;
use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor};
use turing_sim::KernelTime;

/// One conv(+bias+ReLU) layer of a sequential network.
#[derive(Clone, Debug)]
pub struct NetLayer {
    /// Display name.
    pub name: String,
    /// Convolution geometry (batch must match the network input).
    pub shape: ConvShape,
    /// Quantized weights (NCHW `c_out x c_in x kh x kw`).
    pub weights: QTensor,
    /// Optional per-output-channel i32 bias added to the accumulators
    /// (length must be `c_out`; fused into the epilogue).
    pub bias: Option<Vec<i32>>,
    /// Whether a ReLU follows (fused into re-quantization).
    pub relu: bool,
    /// Re-quantization multiplier into the next layer's activation scale.
    pub requant: RequantParams,
}

impl NetLayer {
    /// The layer's fused tail (bias, re-quantization, ReLU), as its plan
    /// carries it.
    pub(crate) fn epilogue(&self) -> Epilogue {
        Epilogue { bias: self.bias.clone(), requant: self.requant, relu: self.relu }
    }
}

/// A validated network: conv layers plus the DAG topology that connects
/// them. Chains ([`Network::sequential`]) are the degenerate one-consumer-
/// per-value case; [`Network::from_graph`] admits residual adds and dense
/// concats.
#[derive(Clone, Debug)]
pub struct Network {
    layers: Vec<NetLayer>,
    topology: GraphTopology,
}

/// Per-layer execution/estimate record, unified across backends: ARM layers
/// carry prepack/workspace counters, GPU layers a modeled stage breakdown.
#[derive(Clone, Debug)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// The concrete algorithm that ran (always resolved, never `Auto`); its
    /// [`PlanAlgo::backend`] is the engine that served the layer.
    pub algo: PlanAlgo,
    /// Modeled milliseconds.
    pub millis: f64,
    /// Prepack-cache hits this layer contributed (0 or 1 per run; always 0
    /// for algorithms without a prepacked layout and for estimates).
    pub prepack_hits: u64,
    /// Prepack-cache misses this layer contributed (0 or 1 per run).
    pub prepack_misses: u64,
    /// Bytes the shared workspace arena grew by while serving this layer
    /// (0 in the steady state and for estimates).
    pub workspace_growth_bytes: usize,
    /// Full modeled stage breakdown for GPU layers (`None` on ARM).
    pub gpu_time: Option<KernelTime>,
}

impl LayerReport {
    /// The report of `plan` at `millis` modeled milliseconds, with no
    /// prepack or workspace activity.
    pub(crate) fn modeled(plan: &LayerPlan, millis: f64, gpu_time: Option<KernelTime>) -> LayerReport {
        LayerReport {
            name: plan.name.clone(),
            algo: plan.algo,
            millis,
            prepack_hits: 0,
            prepack_misses: 0,
            workspace_growth_bytes: 0,
            gpu_time,
        }
    }

    /// The ARM kernel that ran, if this layer ran on the ARM backend.
    pub fn arm_algo(&self) -> Option<ArmAlgo> {
        match self.algo {
            PlanAlgo::Arm(a) => Some(a),
            PlanAlgo::GpuImplicitGemm(_) => None,
        }
    }

    /// Modeled microseconds for the layer.
    pub fn micros(&self) -> f64 {
        self.millis * 1e3
    }
}

impl Network {
    /// Builds a chain network: layer `i + 1` reads layer `i`'s output. The
    /// chain is validated as the graph it is ([`Network::from_graph`]):
    /// channel counts, spatial dimensions and batch agree along every edge,
    /// each layer requantizes into its successor's weight width, any bias
    /// matches its layer's `c_out`, and every effective truncation floor
    /// lies inside its output width.
    pub fn sequential(layers: Vec<NetLayer>) -> Result<Network, CoreError> {
        if layers.is_empty() {
            return Err(CoreError::EmptyNetwork);
        }
        let topology = GraphTopology::chain(&layers);
        Network::from_graph(layers, topology)
    }

    /// Builds a graph-shaped network: conv layers wired by an explicit DAG
    /// topology (residual adds, dense concats). The topology is validated
    /// against the layers — per-edge geometry, joining-operand agreement,
    /// static scale alignment — before the network exists. Each layer's
    /// bias must match its `c_out` ([`CoreError::BiasLengthMismatch`]), and
    /// its effective `clamp_min` ([`Epilogue::effective_requant`], after the
    /// ReLU fold) must lie in `[qmin, qmax]` of `requant.bits`
    /// ([`CoreError::ClampOutOfRange`]).
    pub fn from_graph(layers: Vec<NetLayer>, topology: GraphTopology) -> Result<Network, CoreError> {
        if layers.is_empty() {
            return Err(CoreError::EmptyNetwork);
        }
        for l in &layers {
            if let Some(bias) = &l.bias {
                if bias.len() != l.shape.c_out {
                    return Err(CoreError::BiasLengthMismatch {
                        layer: l.name.clone(),
                        expects: l.shape.c_out,
                        got: bias.len(),
                    });
                }
            }
            let rq = l.epilogue().effective_requant();
            if !(rq.bits.qmin()..=rq.bits.qmax()).contains(&rq.clamp_min) {
                return Err(CoreError::ClampOutOfRange {
                    layer: l.name.clone(),
                    clamp_min: rq.clamp_min,
                    bits: rq.bits,
                });
            }
        }
        topology.validate(&layers)?;
        Ok(Network { layers, topology })
    }

    /// Builds a deterministic graph network from a [`lowbit_models::GraphDef`]
    /// at `bits`: seeded random weights, ReLU as the def specifies, and —
    /// crucially for the joining nodes — each conv's weight scale set equal
    /// to its re-quantization multiplier, so every value carries the graph
    /// input's activation scale and adds/concats are exactly aligned.
    pub fn from_graph_defs(
        def: &lowbit_models::GraphDef,
        bits: BitWidth,
        seed: u64,
    ) -> Result<Network, CoreError> {
        let (c, h0, w0) = def.input;
        let mut values = vec![ValueInfo { dims: (1, c, h0, w0), bits }];
        let mut layers: Vec<NetLayer> = Vec::new();
        let mut nodes: Vec<GraphNode> = Vec::new();
        for (i, node) in def.nodes.iter().enumerate() {
            // An add or concat infers its output value from its operands, so
            // a missing or dangling operand is refused before that lookup.
            if node.inputs.is_empty() || node.inputs.iter().any(|&v| v > i) {
                return Err(CoreError::GraphTopologyBroken {
                    node: node.name.into(),
                    detail: format!("inputs {:?} do not all name values defined before node {i}", node.inputs),
                });
            }
            let out = match &node.op {
                lowbit_models::GraphOpDef::Conv { def: ld, relu } => {
                    let shape = ld.shape;
                    let mult = 4.0 / ((shape.gemm_k() as f32).sqrt() * bits.qmax() as f32);
                    let tensor = QTensor::random(
                        (shape.c_out, shape.c_in, shape.kh, shape.kw),
                        Layout::Nchw,
                        bits,
                        seed + layers.len() as u64,
                    );
                    // Rewrap with scale := multiplier, so the conv's output
                    // scale equals its input scale (relative scale 1
                    // everywhere — the alignment validate() requires).
                    let weights = QTensor::new(tensor.tensor().clone(), bits, mult);
                    nodes.push(GraphNode {
                        name: node.name.into(),
                        op: NodeOp::Conv { layer: layers.len() },
                        inputs: node.inputs.clone(),
                        output: i + 1,
                    });
                    layers.push(NetLayer {
                        name: node.name.into(),
                        shape,
                        weights,
                        bias: None,
                        relu: *relu,
                        requant: RequantParams::new(bits, mult),
                    });
                    ValueInfo {
                        dims: (1, shape.c_out, shape.out_h(), shape.out_w()),
                        bits,
                    }
                }
                lowbit_models::GraphOpDef::Add => {
                    nodes.push(GraphNode {
                        name: node.name.into(),
                        op: NodeOp::Add,
                        inputs: node.inputs.clone(),
                        output: i + 1,
                    });
                    values[node.inputs[0]]
                }
                lowbit_models::GraphOpDef::Concat => {
                    nodes.push(GraphNode {
                        name: node.name.into(),
                        op: NodeOp::Concat,
                        inputs: node.inputs.clone(),
                        output: i + 1,
                    });
                    let first = values[node.inputs[0]];
                    let channels = node.inputs.iter().map(|&v| values[v].dims.1).sum();
                    ValueInfo {
                        dims: (first.dims.0, channels, first.dims.2, first.dims.3),
                        bits: first.bits,
                    }
                }
            };
            values.push(out);
        }
        let output = def.nodes.len();
        Network::from_graph(layers, GraphTopology { nodes, values, input: 0, output })
    }

    /// A small deterministic demo network (3 chained layers) at `bits`. The
    /// geometry comes from [`lowbit_models::demo`] — the single source of
    /// the demo shapes.
    pub fn demo(bits: BitWidth, hw: usize, seed: u64) -> Network {
        Network::from_layer_defs(&lowbit_models::demo(hw), bits, seed)
            .expect("demo network chains by construction")
    }

    /// Builds a deterministic network from a chainable slice of
    /// [`lowbit_models::LayerDef`]s: seeded random weights at `bits`, no
    /// bias, ReLU on every layer but the last, and re-quantization scaled so
    /// typical accumulators (~sqrt(K) products) land mid-range at every bit
    /// width. The defs must chain (same validation as
    /// [`Network::sequential`]).
    pub fn from_layer_defs(
        defs: &[lowbit_models::LayerDef],
        bits: BitWidth,
        seed: u64,
    ) -> Result<Network, CoreError> {
        let layers = defs
            .iter()
            .enumerate()
            .map(|(i, def)| {
                let mult = 4.0 / ((def.shape.gemm_k() as f32).sqrt() * bits.qmax() as f32);
                NetLayer {
                    name: def.name.into(),
                    shape: def.shape,
                    weights: QTensor::random(
                        (def.shape.c_out, def.shape.c_in, def.shape.kh, def.shape.kw),
                        Layout::Nchw,
                        bits,
                        seed + i as u64,
                    ),
                    bias: None,
                    relu: i + 1 < defs.len(),
                    requant: RequantParams::new(bits, mult),
                }
            })
            .collect();
        Network::sequential(layers)
    }

    /// The same network at a different batch size: every layer's geometry is
    /// re-batched, weights/bias/requant are shared unchanged. This is the
    /// serving layer's batching primitive — one request-class template
    /// network spawns the batched variant each bucket needs.
    pub fn with_batch(&self, batch: usize) -> Result<Network, CoreError> {
        let layers = self
            .layers
            .iter()
            .map(|l| NetLayer { shape: l.shape.with_batch(batch), ..l.clone() })
            .collect();
        Network::from_graph(layers, self.topology.with_batch(batch))
    }

    /// A content fingerprint of the network: FNV-1a over every layer's name,
    /// batch-independent geometry, quantized weights, epilogue flags and the
    /// full re-quantization parameters (width, multiplier and clamp — every
    /// field the plan verifier's verdict depends on; the
    /// [`crate::verify::fingerprint_audit`] lint proves this coverage). The
    /// batch size is deliberately excluded — [`Network::with_batch`]
    /// variants share one fingerprint, so serving caches key plans by
    /// `(fingerprint, batch, backend)` and a re-batched network is
    /// recognized as the same model. Since the DAG promotion the hash also
    /// covers the topology — node ops, names and edges — so two networks
    /// with identical layers but different wiring (a residual add present
    /// vs elided, concat operands reordered) never collide; the
    /// [`crate::verify::topology_audit`] lint proves that coverage.
    pub fn fingerprint(&self) -> u64 {
        crate::verify::fingerprint_graph(&self.layers, &self.topology)
    }

    /// Layers view.
    pub fn layers(&self) -> &[NetLayer] {
        &self.layers
    }

    /// The DAG topology the layers execute under (a chain for sequential
    /// networks).
    pub fn topology(&self) -> &GraphTopology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::ArmEngine;
    use crate::executor::{Executor, NetworkRun};
    use crate::gpu::{GpuEngine, Tuning};
    use crate::plan::BackendKind;
    use crate::planner::Planner;
    use lowbit_qnn::{quantize_f32, relu_q, Quantizer};
    use lowbit_tensor::Tensor;
    use lowbit_trace::Tracer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn float_input(dims: (usize, usize, usize, usize), seed: u64) -> Tensor<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = dims.0 * dims.1 * dims.2 * dims.3;
        Tensor::from_vec(
            dims,
            Layout::Nchw,
            (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    /// Compiles `net` for the ARM engine and runs it once.
    fn compile_and_run(net: &Network, engine: &ArmEngine, input: &Tensor<f32>) -> NetworkRun {
        let plan = Planner::for_arm(engine).compile(net).unwrap();
        Executor::for_arm(engine).run(&plan, net, input).unwrap()
    }

    #[test]
    fn demo_network_runs_end_to_end() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let engine = ArmEngine::cortex_a53();
        let input = float_input((1, 3, 12, 12), 5);
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let NetworkRun { output: out, reports, total_millis: total } =
            Executor::for_arm(&engine).run(&plan, &net, &input).unwrap();
        assert_eq!(out.dims(), (1, 8, 6, 6));
        assert_eq!(reports.len(), 3);
        assert!((reports.iter().map(|r| r.millis).sum::<f64>() - total).abs() < 1e-9);
        assert!((plan.predicted_millis() - total).abs() < 1e-9);
        // At this tiny size the 3-channel transforms outweigh the Winograd
        // MAC saving, and c_out = 8 fits the narrow tile exactly (the wide
        // 16-row tile would waste half its lanes) — the selection is by
        // modeled time, not by a static rule.
        assert_eq!(reports[0].arm_algo(), Some(ArmAlgo::GemmNarrow));
        assert_eq!(reports[0].algo.backend(), BackendKind::Arm);
        let big = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        assert_eq!(engine.select_algo(BitWidth::W4, &big), ArmAlgo::Winograd);
    }

    #[test]
    fn graph_defs_with_dangling_or_missing_operands_are_typed_errors() {
        use lowbit_models::{GraphDef, GraphNodeDef, GraphOpDef};
        let rejects = |edit: fn(&mut GraphDef)| {
            let mut def = lowbit_models::resnet50_residual_block(8);
            edit(&mut def);
            let err = Network::from_graph_defs(&def, BitWidth::W4, 11).unwrap_err();
            assert!(matches!(err, CoreError::GraphTopologyBroken { .. }), "{err:?}");
        };
        // A conv reading an undefined value (always a typed error).
        rejects(|d| d.nodes[0].inputs = vec![7]);
        // An add whose first operand names an undefined value.
        rejects(|d| {
            d.nodes[0] =
                GraphNodeDef { name: "residual", op: GraphOpDef::Add, inputs: vec![7, 0] }
        });
        // A concat with no operands, and one whose later operand dangles.
        rejects(|d| d.nodes[3] = GraphNodeDef { name: "cat", op: GraphOpDef::Concat, inputs: vec![] });
        rejects(|d| {
            d.nodes[3] = GraphNodeDef { name: "cat", op: GraphOpDef::Concat, inputs: vec![3, 9] }
        });
    }

    #[test]
    fn demo_geometry_comes_from_the_models_table() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let defs = lowbit_models::demo(12);
        assert_eq!(net.layers().len(), defs.len());
        for (l, d) in net.layers().iter().zip(&defs) {
            assert_eq!(l.name, d.name);
            assert_eq!(l.shape, d.shape);
        }
    }

    #[test]
    fn repeated_runs_hit_the_prepack_cache_and_stop_allocating() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let engine = ArmEngine::cortex_a53();
        let input = float_input((1, 3, 12, 12), 5);
        // Warm-up: packs each GEMM-family layer's weights once and grows the
        // workspace arena to its high-water mark.
        let first = compile_and_run(&net, &engine, &input).output;
        let warm_ws = engine.workspace_stats();
        let warm_pack = engine.prepack_stats();
        assert!(warm_pack.misses > 0, "demo net has GEMM-family layers");
        assert!(warm_ws.calls > 0);
        // Steady state: identical results, zero new allocations, zero new
        // weight packs — every conv hits the prepack cache.
        for _ in 0..3 {
            let out = compile_and_run(&net, &engine, &input).output;
            assert_eq!(out.data(), first.data());
        }
        let ws = engine.workspace_stats();
        let pack = engine.prepack_stats();
        assert!(ws.calls > warm_ws.calls);
        assert_eq!(ws.alloc_events, warm_ws.alloc_events, "steady state must not allocate");
        assert_eq!(ws.high_water_bytes, warm_ws.high_water_bytes);
        assert_eq!(pack.misses, warm_pack.misses, "no re-packing after warm-up");
        assert_eq!(pack.entries, warm_pack.entries);
        assert!(pack.hits >= warm_pack.hits + 3, "each run hits the cache");
    }

    #[test]
    fn relu_layers_produce_no_negative_activations() {
        let net = Network::demo(BitWidth::W5, 10, 11);
        let engine = ArmEngine::cortex_a53();
        let input = float_input((1, 3, 10, 10), 6);
        // Run the first (relu) layer manually and check the invariant that
        // fused truncation enforces.
        let q_in = Quantizer::calibrate(BitWidth::W5, input.data());
        let act = quantize_f32(&input, &q_in);
        let l = &net.layers()[0];
        let out = engine.conv(&act, &l.weights, &l.shape, ArmAlgo::Auto);
        let q = lowbit_qnn::requantize(&out.acc, &l.requant.with_relu());
        assert!(q.data().iter().all(|&v| v >= 0));
        // And fused == unfused.
        let unfused = relu_q(&lowbit_qnn::requantize(&out.acc, &l.requant));
        assert_eq!(q.data(), unfused.data());
    }

    #[test]
    fn lower_bits_run_the_whole_network_faster() {
        let engine = ArmEngine::cortex_a53();
        let predict = |bits| {
            let net = Network::demo(bits, 16, 1);
            Planner::for_arm(&engine).compile(&net).unwrap().predicted_millis()
        };
        let (t2, t8) = (predict(BitWidth::W2), predict(BitWidth::W8));
        assert!(t2 < t8, "2-bit net ({t2:.3}ms) must beat 8-bit ({t8:.3}ms)");
    }

    #[test]
    fn gpu_estimate_exists_only_for_tensor_core_widths() {
        let gpu = GpuEngine::rtx2080ti();
        let planner = Planner::for_gpu(&gpu, Tuning::Default);
        let net4 = Network::demo(BitWidth::W4, 12, 3);
        let plan4 = planner.compile(&net4).unwrap();
        let reports = Executor::for_gpu(&gpu).estimate(&plan4, &Tracer::null()).unwrap();
        assert!(reports.iter().all(|r| r.millis > 0.0 && r.gpu_time.is_some()));
        let net5 = Network::demo(BitWidth::W5, 12, 3);
        assert!(matches!(
            planner.compile(&net5),
            Err(CoreError::UnsupportedBitWidth { bits: BitWidth::W5, backend: BackendKind::GpuModel })
        ));
    }

    #[test]
    fn fingerprint_is_batch_invariant_but_content_sensitive() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let fp = net.fingerprint();
        // Deterministic and stable across re-batching (the serving cache
        // keys plans by (fingerprint, batch, backend)).
        assert_eq!(Network::demo(BitWidth::W4, 12, 9).fingerprint(), fp);
        for batch in [2, 4, 8] {
            let batched = net.with_batch(batch).unwrap();
            assert_eq!(batched.layers()[0].shape.batch, batch);
            assert_eq!(batched.fingerprint(), fp, "batch {batch}");
        }
        // Different weights, bits or geometry change it.
        assert_ne!(Network::demo(BitWidth::W4, 12, 10).fingerprint(), fp);
        assert_ne!(Network::demo(BitWidth::W5, 12, 9).fingerprint(), fp);
        assert_ne!(Network::demo(BitWidth::W4, 16, 9).fingerprint(), fp);
    }

    #[test]
    fn fingerprint_covers_every_plan_relevant_field() {
        // The audit mutates every verdict-relevant NetLayer field in turn
        // (name, each shape dim, weights, relu, requant width/multiplier/
        // clamp, bias) and requires the fingerprint to move — and batch to
        // stay excluded.
        let net = Network::demo(BitWidth::W4, 12, 9);
        crate::verify::fingerprint_audit(&net).unwrap();
        // Direct regressions for the fields the pre-audit hash missed:
        // requant width and clamp_min now move the fingerprint.
        let fp = net.fingerprint();
        let mut widened = net.clone();
        widened.layers[0].requant.bits = BitWidth::W5;
        assert_ne!(widened.fingerprint(), fp, "requant.bits must be covered");
        let mut clamped = net.clone();
        clamped.layers[0].requant.clamp_min = 0;
        assert_ne!(clamped.fingerprint(), fp, "requant.clamp_min must be covered");
    }

    #[test]
    fn with_batch_shares_weights_and_revalidates() {
        let net = Network::demo(BitWidth::W6, 12, 3);
        let batched = net.with_batch(4).unwrap();
        for (a, b) in net.layers().iter().zip(batched.layers()) {
            assert_eq!(a.weights.data(), b.weights.data());
            assert_eq!(a.shape.with_batch(4), b.shape);
            assert_eq!(a.relu, b.relu);
        }
        // Batched execution of duplicated inputs matches batch-1 per sample.
        let engine = ArmEngine::cortex_a53();
        let single = float_input((1, 3, 12, 12), 5);
        let ref_out = compile_and_run(&net, &engine, &single).output;
        let mut dup = Tensor::zeros((2, 3, 12, 12), Layout::Nchw);
        let n = single.data().len();
        dup.data_mut()[..n].copy_from_slice(single.data());
        dup.data_mut()[n..].copy_from_slice(single.data());
        let out2 = compile_and_run(&batched.with_batch(2).unwrap(), &engine, &dup).output;
        let m = ref_out.data().len();
        assert_eq!(&out2.data()[..m], ref_out.data());
        assert_eq!(&out2.data()[m..], ref_out.data());
    }

    #[test]
    fn from_layer_defs_builds_the_bottleneck_class() {
        let net =
            Network::from_layer_defs(&lowbit_models::resnet50_bottleneck(), BitWidth::W4, 7)
                .unwrap();
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.layers()[0].name, "conv6");
        assert!(!net.layers()[2].relu);
    }

    #[test]
    fn sequential_rejects_broken_chains() {
        let bits = BitWidth::W4;
        let mk = |shape: ConvShape| NetLayer {
            name: "l".into(),
            shape,
            weights: QTensor::random(
                (shape.c_out, shape.c_in, shape.kh, shape.kw),
                Layout::Nchw,
                bits,
                1,
            ),
            bias: None,
            relu: false,
            requant: RequantParams::new(bits, 0.01),
        };
        // Channel mismatch.
        let bad = Network::sequential(vec![
            mk(ConvShape::new(1, 3, 8, 8, 4, 3, 1, 1)),
            mk(ConvShape::new(1, 8, 8, 8, 4, 3, 1, 1)),
        ]);
        assert!(matches!(bad, Err(CoreError::ChannelMismatch { .. })));
        // Spatial mismatch.
        let bad = Network::sequential(vec![
            mk(ConvShape::new(1, 3, 8, 8, 4, 3, 2, 1)),
            mk(ConvShape::new(1, 4, 8, 8, 4, 3, 1, 1)),
        ]);
        assert!(matches!(bad, Err(CoreError::SpatialMismatch { .. })));
        // A requant width the successor's weights were not quantized at.
        let mut widened = mk(ConvShape::new(1, 3, 8, 8, 4, 3, 1, 1));
        widened.requant = RequantParams::new(BitWidth::W6, 0.01);
        let bad = Network::sequential(vec![widened, mk(ConvShape::new(1, 4, 8, 8, 4, 3, 1, 1))]);
        assert!(matches!(bad, Err(CoreError::GraphTopologyBroken { .. })), "{bad:?}");
        // Bias length.
        let mut biased = mk(ConvShape::new(1, 3, 8, 8, 4, 3, 1, 1));
        biased.bias = Some(vec![1, 2, 3]);
        assert!(matches!(
            Network::sequential(vec![biased]),
            Err(CoreError::BiasLengthMismatch { expects: 4, got: 3, .. })
        ));
        // Empty.
        assert!(matches!(Network::sequential(vec![]), Err(CoreError::EmptyNetwork)));
    }

    #[test]
    fn constructors_reject_clamp_floors_outside_the_width() {
        // Every constructor reaches `from_graph`: a chain through
        // `sequential`, a graph-def network through its own topology.
        let chain = Network::demo(BitWidth::W4, 12, 9);
        let dense = Network::from_graph_defs(
            &lowbit_models::densenet121_dense_block(8),
            BitWidth::W4,
            7,
        )
        .unwrap();
        for (net, is_chain) in [(&chain, true), (&dense, false)] {
            let rebuild = |relu: bool, clamp_min: i8| {
                let mut layers = net.layers().to_vec();
                assert_eq!(layers[0].requant.bits, BitWidth::W4);
                layers[0].relu = relu;
                layers[0].requant.clamp_min = clamp_min;
                match is_chain {
                    true => Network::sequential(layers),
                    false => Network::from_graph(layers, net.topology().clone()),
                }
            };
            let first = net.layers()[0].name.clone();
            // Below qmin without a ReLU: the outputs would fall under -8.
            assert_eq!(
                rebuild(false, -100).unwrap_err(),
                CoreError::ClampOutOfRange { layer: first.clone(), clamp_min: -100, bits: BitWidth::W4 }
            );
            // Above qmax under a ReLU, whose fold keeps the higher floor:
            // every output would be pinned past 7.
            assert_eq!(
                rebuild(true, 8).unwrap_err(),
                CoreError::ClampOutOfRange { layer: first, clamp_min: 8, bits: BitWidth::W4 }
            );
            // The ReLU fold raises a floor below qmin to 0, inside the width.
            assert!(rebuild(true, -100).is_ok());
            assert!(rebuild(false, BitWidth::W4.qmin()).is_ok());
        }
    }
}
