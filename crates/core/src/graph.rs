//! Network-level DAG topology: the value/node graph a [`crate::Network`]
//! executes.
//!
//! The paper's evaluation networks are not chains: ResNet-50 carries a
//! residual add around every bottleneck and DenseNet-121 concatenates each
//! layer's output onto a growing feature map. This module gives the core
//! crate the IR to say so: a [`GraphTopology`] is a list of nodes (conv /
//! elementwise add / channel concat) in topological order over *value* ids,
//! where value 0 is the graph input and node `i` produces value `i + 1`.
//! Chains are the degenerate case ([`GraphTopology::chain`]): a sequential
//! network is a graph network with one consumer per value.
//!
//! Validation ([`GraphTopology::validate`]) is the one network validator,
//! chains included: channel/spatial/batch and bit-width agreement along
//! every conv edge, add operands agreeing elementwise, concat operands
//! agreeing on batch/spatial dims, and every value's quantization scale
//! consistent across the operands of joining nodes (the static alignment the
//! planner's residual fusion and the executor's raw-i8 adds rely on).

use crate::error::CoreError;
use crate::network::NetLayer;
use lowbit_tensor::BitWidth;

/// Index of an activation tensor in a [`GraphTopology`]. Value 0 is the
/// graph input; node `i` produces value `i + 1`.
pub type ValueId = usize;

/// What a topology node computes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeOp {
    /// A conv(+bias+ReLU) layer: index into the network's layer list.
    Conv {
        /// Index into [`crate::Network::layers`].
        layer: usize,
    },
    /// Elementwise saturating add of two equally-shaped quantized values.
    Add,
    /// Channel-axis concatenation of two or more values.
    Concat,
}

/// One node of the topology: a named op over input value ids. The node's
/// output id is implicit (`node i` produces value `i + 1`) but recorded for
/// readability and cross-checked by validation.
#[derive(Clone, Debug)]
pub struct GraphNode {
    /// Display name (conv nodes reuse their layer's name).
    pub name: String,
    /// The op.
    pub op: NodeOp,
    /// Input value ids (each strictly less than the node's output id).
    pub inputs: Vec<ValueId>,
    /// Output value id (`index + 1`).
    pub output: ValueId,
}

/// Static facts about one value: its NCHW dims and quantized bit width.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ValueInfo {
    /// `(batch, channels, h, w)`.
    pub dims: (usize, usize, usize, usize),
    /// Quantized element width.
    pub bits: BitWidth,
}

impl ValueInfo {
    /// Elements (= bytes at one i8 per element) the value occupies.
    pub fn bytes(&self) -> usize {
        let (n, c, h, w) = self.dims;
        n * c * h * w
    }
}

/// The DAG a network executes: nodes in topological order over values.
#[derive(Clone, Debug)]
pub struct GraphTopology {
    /// Nodes in topological (execution) order.
    pub nodes: Vec<GraphNode>,
    /// One entry per value (`nodes.len() + 1`): entry 0 is the graph input,
    /// entry `i + 1` is node `i`'s output.
    pub values: Vec<ValueInfo>,
    /// The graph input value (always 0).
    pub input: ValueId,
    /// The graph output value (always the last node's output).
    pub output: ValueId,
}

impl GraphTopology {
    /// The chain topology of a sequential layer list: node `i` is
    /// `Conv { layer: i }` reading value `i`, which records layer `i - 1`'s
    /// output. [`GraphTopology::validate`] proves the layers actually chain.
    /// Panics on an empty layer list.
    pub fn chain(layers: &[NetLayer]) -> GraphTopology {
        let first = &layers[0];
        let mut values = vec![ValueInfo {
            dims: (first.shape.batch, first.shape.c_in, first.shape.h, first.shape.w),
            bits: first.weights.bits(),
        }];
        let nodes = layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                values.push(ValueInfo {
                    dims: (l.shape.batch, l.shape.c_out, l.shape.out_h(), l.shape.out_w()),
                    bits: l.requant.bits,
                });
                GraphNode {
                    name: l.name.clone(),
                    op: NodeOp::Conv { layer: i },
                    inputs: vec![i],
                    output: i + 1,
                }
            })
            .collect();
        GraphTopology { nodes, values, input: 0, output: layers.len() }
    }

    /// The name of the node producing `v` (`"input"` for the graph input).
    pub fn producer_name(&self, v: ValueId) -> &str {
        match v.checked_sub(1) {
            Some(i) => &self.nodes[i].name,
            None => "input",
        }
    }

    /// Node indices that read `v` (a value read twice by one node appears
    /// once).
    pub fn consumers(&self, v: ValueId) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&v))
            .map(|(i, _)| i)
            .collect()
    }

    /// True when the topology is a pure chain (every node a conv with one
    /// input, each value consumed exactly once).
    pub fn is_chain(&self) -> bool {
        self.nodes.iter().enumerate().all(|(i, n)| {
            matches!(n.op, NodeOp::Conv { .. }) && n.inputs == [i]
        })
    }

    /// The same topology at a different batch size (value dims re-batched;
    /// the node structure is batch-invariant).
    pub fn with_batch(&self, batch: usize) -> GraphTopology {
        let mut out = self.clone();
        for v in &mut out.values {
            v.dims.0 = batch;
        }
        out
    }

    /// The per-value quantization scale relative to the graph input's, as
    /// statically derivable from the layers: a conv multiplies by
    /// `weights.scale / requant.multiplier`; add and concat pass their first
    /// operand's through. Joining nodes require their operands to agree
    /// (checked by [`GraphTopology::validate`]).
    pub fn relative_scales(&self, layers: &[NetLayer]) -> Vec<f32> {
        let mut scales = vec![1.0f32; self.values.len()];
        for node in &self.nodes {
            scales[node.output] = match node.op {
                NodeOp::Conv { layer } => {
                    let l = &layers[layer];
                    scales[node.inputs[0]] * l.weights.scale() / l.requant.multiplier
                }
                NodeOp::Add | NodeOp::Concat => scales[node.inputs[0]],
            };
        }
        scales
    }

    /// Validates the topology against its layer list: structural soundness
    /// (value ids in range and defined before use, one conv node per layer
    /// in order, recorded outputs consistent), per-edge conv geometry
    /// (typed channel/spatial/batch witnesses naming producer and consumer),
    /// add/concat operand agreement, and static scale alignment at every
    /// joining node.
    pub fn validate(&self, layers: &[NetLayer]) -> Result<(), CoreError> {
        let broken = |node: &str, detail: String| CoreError::GraphTopologyBroken {
            node: node.to_string(),
            detail,
        };
        if self.values.len() != self.nodes.len() + 1 {
            return Err(broken(
                "graph",
                format!("{} values for {} nodes (need nodes + 1)", self.values.len(), self.nodes.len()),
            ));
        }
        if self.input != 0 || self.output != self.nodes.len() {
            return Err(broken(
                "graph",
                format!("input/output ids {}/{} are not 0/{}", self.input, self.output, self.nodes.len()),
            ));
        }
        let mut next_layer = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.output != i + 1 {
                return Err(broken(&node.name, format!("node {i} records output {}", node.output)));
            }
            for &v in &node.inputs {
                if v > i {
                    return Err(broken(
                        &node.name,
                        format!("reads value {v} before it is defined (node {i})"),
                    ));
                }
            }
            match node.op {
                NodeOp::Conv { layer } => {
                    if layer != next_layer {
                        return Err(broken(
                            &node.name,
                            format!("conv nodes must cover layers in order (got {layer}, want {next_layer})"),
                        ));
                    }
                    next_layer += 1;
                    if node.inputs.len() != 1 {
                        return Err(broken(&node.name, format!("conv takes 1 input, got {}", node.inputs.len())));
                    }
                    let Some(l) = layers.get(layer) else {
                        return Err(broken(
                            &node.name,
                            format!("conv of layer {layer}, but there are {} layers", layers.len()),
                        ));
                    };
                    let vi = self.values[node.inputs[0]];
                    let (b, c, h, w) = vi.dims;
                    if c != l.shape.c_in {
                        return Err(CoreError::ChannelMismatch {
                            producer: self.producer_name(node.inputs[0]).to_string(),
                            produces: c,
                            consumer: l.name.clone(),
                            expects: l.shape.c_in,
                        });
                    }
                    if (h, w) != (l.shape.h, l.shape.w) {
                        return Err(CoreError::SpatialMismatch {
                            producer: self.producer_name(node.inputs[0]).to_string(),
                            produces: (h, w),
                            consumer: l.name.clone(),
                            expects: (l.shape.h, l.shape.w),
                        });
                    }
                    if b != l.shape.batch {
                        return Err(CoreError::BatchMismatch {
                            producer: self.producer_name(node.inputs[0]).to_string(),
                            consumer: l.name.clone(),
                        });
                    }
                    if vi.bits != l.weights.bits() {
                        return Err(broken(
                            &node.name,
                            format!("operand is {} but the layer's kernels are {}", vi.bits, l.weights.bits()),
                        ));
                    }
                    let out = self.values[node.output];
                    let want =
                        (l.shape.batch, l.shape.c_out, l.shape.out_h(), l.shape.out_w());
                    if out.dims != want {
                        return Err(broken(
                            &node.name,
                            format!("output value dims {:?} but the conv produces {want:?}", out.dims),
                        ));
                    }
                    if out.bits != l.requant.bits {
                        return Err(broken(
                            &node.name,
                            format!("output value is {} but the requant emits {}", out.bits, l.requant.bits),
                        ));
                    }
                }
                NodeOp::Add => {
                    if node.inputs.len() != 2 {
                        return Err(broken(&node.name, format!("add takes 2 inputs, got {}", node.inputs.len())));
                    }
                    let (a, b) = (self.values[node.inputs[0]], self.values[node.inputs[1]]);
                    if a.dims != b.dims || a.bits != b.bits {
                        return Err(broken(
                            &node.name,
                            format!(
                                "add operands disagree: {:?}@{} vs {:?}@{}",
                                a.dims, a.bits, b.dims, b.bits
                            ),
                        ));
                    }
                    if self.values[node.output] != a {
                        return Err(broken(&node.name, "add output value must match its operands".into()));
                    }
                }
                NodeOp::Concat => {
                    if node.inputs.len() < 2 {
                        return Err(broken(&node.name, format!("concat takes >= 2 inputs, got {}", node.inputs.len())));
                    }
                    let first = self.values[node.inputs[0]];
                    let mut channels = 0usize;
                    for &v in &node.inputs {
                        let vi = self.values[v];
                        if (vi.dims.0, vi.dims.2, vi.dims.3) != (first.dims.0, first.dims.2, first.dims.3)
                            || vi.bits != first.bits
                        {
                            return Err(broken(
                                &node.name,
                                format!(
                                    "concat operands disagree off the channel axis: {:?}@{} vs {:?}@{}",
                                    first.dims, first.bits, vi.dims, vi.bits
                                ),
                            ));
                        }
                        channels += vi.dims.1;
                    }
                    let out = self.values[node.output];
                    let want = (first.dims.0, channels, first.dims.2, first.dims.3);
                    if out.dims != want || out.bits != first.bits {
                        return Err(broken(
                            &node.name,
                            format!("concat output value {:?} but operands sum to {want:?}", out.dims),
                        ));
                    }
                }
            }
        }
        if next_layer != layers.len() {
            return Err(broken(
                "graph",
                format!("{} conv nodes for {} layers", next_layer, layers.len()),
            ));
        }
        // Scale alignment at joining nodes: adds run on raw i8 and concat
        // interleaves raw i8 channels, so operands must share one scale.
        let scales = self.relative_scales(layers);
        for node in &self.nodes {
            if matches!(node.op, NodeOp::Add | NodeOp::Concat) {
                let s0 = scales[node.inputs[0]];
                for &v in &node.inputs[1..] {
                    let sv = scales[v];
                    if (sv - s0).abs() > 1e-3 * s0.abs().max(f32::EPSILON) {
                        return Err(broken(
                            &node.name,
                            format!("operand scales diverge: {s0:e} vs {sv:e} (value {v})"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use lowbit_tensor::BitWidth;

    #[test]
    fn chain_topology_is_a_chain_and_validates() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let topo = GraphTopology::chain(net.layers());
        assert!(topo.is_chain());
        assert_eq!(topo.nodes.len(), 3);
        assert_eq!(topo.values.len(), 4);
        assert_eq!(topo.output, 3);
        topo.validate(net.layers()).unwrap();
        assert_eq!(topo.producer_name(0), "input");
        assert_eq!(topo.producer_name(1), "conv1");
        assert_eq!(topo.consumers(1), vec![1]);
        // Chain relative scales: each conv multiplies by scale/mult.
        let scales = topo.relative_scales(net.layers());
        assert_eq!(scales.len(), 4);
        assert!((scales[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn residual_and_dense_blocks_validate() {
        for (def, kernels) in [
            (lowbit_models::resnet50_residual_block(14), 3),
            (lowbit_models::densenet121_dense_block(14), 4),
        ] {
            let net = Network::from_graph_defs(&def, BitWidth::W4, 7).unwrap();
            assert_eq!(net.layers().len(), kernels);
            assert!(!net.topology().is_chain());
            net.topology().validate(net.layers()).unwrap();
        }
    }

    #[test]
    fn broken_graphs_are_rejected_with_typed_witnesses() {
        let def = lowbit_models::resnet50_residual_block(14);
        let net = Network::from_graph_defs(&def, BitWidth::W4, 7).unwrap();
        let layers = net.layers().to_vec();
        // Retarget the add onto a spatially incompatible value: operands
        // disagree.
        let mut topo = net.topology().clone();
        let add = topo.nodes.iter().position(|n| matches!(n.op, NodeOp::Add)).unwrap();
        topo.nodes[add].inputs[1] = 1; // the 64-channel reduce output
        assert!(matches!(
            topo.validate(&layers),
            Err(CoreError::GraphTopologyBroken { ref node, .. }) if node == "residual"
        ));
        // A use-before-def edge.
        let mut topo = net.topology().clone();
        topo.nodes[0].inputs[0] = 4;
        assert!(matches!(
            topo.validate(&layers),
            Err(CoreError::GraphTopologyBroken { .. })
        ));
        // A conv edge with the wrong channel count reuses the chain witness.
        let mut topo = net.topology().clone();
        topo.values[1].dims.1 += 1;
        let err = topo.validate(&layers).unwrap_err();
        assert!(
            matches!(err, CoreError::ChannelMismatch { .. } | CoreError::GraphTopologyBroken { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn more_conv_nodes_than_layers_is_a_typed_error() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let topo = GraphTopology::chain(net.layers());
        let err = Network::from_graph(net.layers()[..1].to_vec(), topo).unwrap_err();
        assert!(
            matches!(err, CoreError::GraphTopologyBroken { ref node, .. } if node == "conv2"),
            "{err:?}"
        );
    }

    #[test]
    fn misaligned_add_scales_are_rejected() {
        let def = lowbit_models::resnet50_residual_block(14);
        let net = Network::from_graph_defs(&def, BitWidth::W4, 7).unwrap();
        let mut layers = net.layers().to_vec();
        // Doubling one multiplier desynchronizes the add's operand scales.
        layers[2].requant.multiplier *= 2.0;
        let err = net.topology().validate(&layers).unwrap_err();
        assert!(
            matches!(err, CoreError::GraphTopologyBroken { ref detail, .. } if detail.contains("scales")),
            "{err:?}"
        );
    }
}
