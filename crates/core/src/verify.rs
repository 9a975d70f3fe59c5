//! Core-side bridge to the whole-plan static verifier
//! ([`lowbit_verify::plan`]): lowering a compiled [`ExecutionPlan`] into the
//! backend-neutral [`PlanSpec`], the certified arena high-water used by plan
//! construction, and the cache-key soundness audit over
//! [`Network::fingerprint`].
//!
//! The dependency points from `lowbit` to `lowbit-verify`, so the analysis
//! itself lives over there, and so do the plan's tables
//! ([`LayerPlan`], [`crate::plan::NodePlan`], [`crate::plan::ValuePlan`]):
//! a lowering clones the plan's layer, node and value tables as they are.
//! This module owns everything that needs to see core types: extracting
//! per-channel weight sums from the real weights, and mutating
//! [`NetLayer`]s to prove the fingerprint covers every verdict-relevant
//! field.

use crate::arm::ArmAlgo;
use crate::error::CoreError;
use crate::network::{NetLayer, Network};
use crate::plan::{ExecutionPlan, LayerPlan, PlanAlgo, PlanOp};
use lowbit_tensor::{BitWidth, Fnv1a, QTensor, Tensor};
use lowbit_verify::{
    arena_high_water, verify_conc, verify_plan, workspace_requirement, ChannelSums, ConcNode,
    ConcProof, ConcSpec, GemmFootprint, LayerSpec, MemSpan, PlanProof, PlanSpec, PlanViolation,
    ScheduleSpec,
};

/// Refuses a plan whose layer still carries `ArmAlgo::Auto`: the planner
/// commits every layer to a kernel, and only a committed kernel has a
/// footprint the verifiers can certify.
fn check_committed(plan: &ExecutionPlan) -> Result<(), CoreError> {
    match plan.layers().iter().find(|lp| lp.algo == PlanAlgo::Arm(ArmAlgo::Auto)) {
        Some(lp) => Err(CoreError::PlanMismatch {
            detail: format!("{}: plans never carry ArmAlgo::Auto", lp.name),
        }),
        None => Ok(()),
    }
}

/// The certified whole-plan arena high-water for a set of layer plans. The
/// planner records this figure when it builds a plan and the verifier
/// independently re-derives it from the lowered spec.
pub fn plan_high_water(layers: &[LayerPlan]) -> usize {
    arena_high_water(layers.iter().map(|lp| workspace_requirement(lp.algo, &lp.shape)))
}

/// Per-output-channel signed weight sums from the real NCHW weights: row `c`
/// of the GEMM is the channel's `c_in * kh * kw` taps.
fn channel_sums(weights: &QTensor) -> Vec<ChannelSums> {
    let (c_out, c_in, kh, kw) = weights.dims();
    let row = c_in * kh * kw;
    let data = weights.data();
    (0..c_out)
        .map(|c| {
            let mut sums = ChannelSums { neg: 0, pos: 0 };
            for &w in &data[c * row..(c + 1) * row] {
                if w < 0 {
                    sums.neg += w as i64;
                } else {
                    sums.pos += w as i64;
                }
            }
            sums
        })
        .collect()
}

/// Lowers a compiled plan (plus the network it was compiled from, which
/// holds the weights) into the verifier's backend-neutral [`PlanSpec`]: the
/// plan's own layer, node and value tables, cloned, each layer beside the
/// one fact the plan does not hold — its channel weight sums.
///
/// Fails with [`CoreError::PlanMismatch`] if the plan does not belong to the
/// network or a layer carries `ArmAlgo::Auto`.
pub fn lower_plan(plan: &ExecutionPlan, net: &Network) -> Result<PlanSpec, CoreError> {
    plan.validate_for(net)?;
    check_committed(plan)?;
    let layers = plan
        .layers()
        .iter()
        .cloned()
        .zip(net.layers())
        .map(|(plan, nl)| LayerSpec { plan, channel_sums: channel_sums(&nl.weights) })
        .collect();
    Ok(PlanSpec {
        layers,
        nodes: plan.nodes().to_vec(),
        values: plan.values().to_vec(),
        declared_high_water_bytes: plan.workspace_high_water_bytes(),
        declared_activation_high_water_bytes: plan.activation_high_water_bytes(),
    })
}

/// Runs the whole-plan verifier on a compiled plan: lowers it against the
/// network's weights and proves numeric soundness, layout/shape dataflow and
/// workspace certification. A typed counterexample surfaces as
/// [`CoreError::PlanRejected`].
pub fn verify_compiled(plan: &ExecutionPlan, net: &Network) -> Result<PlanProof, CoreError> {
    let spec = lower_plan(plan, net)?;
    verify_plan(&spec).map_err(|violation| CoreError::PlanRejected { violation })
}

/// Lowers a plan into the concurrency verifier's [`ConcSpec`]: each of the
/// plan's nodes, cloned, beside its explicit workspace slice, and the
/// plan's value table, cloned, under the parallel workspace-arena size.
/// Conv nodes on the ARM GEMM family (every algorithm with a tile row, the
/// ncnn baseline among them) and Winograd carry their GEMM footprint and the per-thread column (or tile)
/// partition at the maximum thread count; Add/Concat, GPU and
/// per-call-buffer bitserial layers get footprint-free nodes.
pub fn lower_conc_spec(
    plan: &ExecutionPlan,
    workspace_slices: &[(usize, usize)],
    workspace_arena_bytes: usize,
) -> ConcSpec {
    use lowbit_qgemm::parallel::MAX_THREADS;
    use lowbit_qgemm::partition_columns;
    let nodes = plan
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let gemm = match node.op {
                PlanOp::Conv { layer, .. } => {
                    let lp = &plan.layers()[layer];
                    match lp.algo {
                        PlanAlgo::Arm(algo)
                            if algo.tile().is_some() || algo == ArmAlgo::Winograd =>
                        {
                            Some(GemmFootprint::of(&lp.shape, algo))
                        }
                        _ => None,
                    }
                }
                PlanOp::Add | PlanOp::Concat => None,
            };
            let partition = gemm
                .as_ref()
                .map(|g| partition_columns(g.n, MAX_THREADS).collect())
                .unwrap_or_default();
            let (offset, bytes) = workspace_slices.get(i).copied().unwrap_or((0, 0));
            ConcNode { node: node.clone(), workspace: MemSpan { offset, bytes }, gemm, partition }
        })
        .collect();
    ConcSpec {
        nodes,
        values: plan.values().to_vec(),
        output_value: plan.output_value(),
        arena_bytes: plan.activation_high_water_bytes(),
        workspace_bytes: workspace_arena_bytes,
    }
}

/// Lowers a plan carrying a parallel schedule into the concurrency
/// verifier's `(ConcSpec, ScheduleSpec)` claim pair. Returns `None` for
/// serial-only plans.
pub fn lower_conc(plan: &ExecutionPlan) -> Option<(ConcSpec, ScheduleSpec)> {
    let p = plan.parallel_schedule()?;
    let spec = lower_conc_spec(plan, &p.workspace_slices, p.workspace_arena_bytes);
    let sched = ScheduleSpec {
        waves: p.waves.clone(),
        certificate: p.certificate,
    };
    Some((spec, sched))
}

/// Runs the static concurrency verifier on a compiled plan's declared
/// parallel schedule. [`CoreError::ParallelCertificateMissing`] for
/// serial-only plans and [`CoreError::PlanMismatch`] for a layer carrying
/// `ArmAlgo::Auto`; a typed counterexample surfaces as
/// [`CoreError::ConcRejected`]. The parallel executor calls this on every
/// run — a forged or stale certificate never executes.
pub fn verify_conc_compiled(plan: &ExecutionPlan) -> Result<ConcProof, CoreError> {
    check_committed(plan)?;
    let (spec, sched) = lower_conc(plan).ok_or(CoreError::ParallelCertificateMissing)?;
    verify_conc(&spec, &sched).map_err(|violation| CoreError::ConcRejected { violation })
}

/// The network content hash as a free function over raw layers, so the
/// fingerprint audit can hash mutated layer vectors that would not pass
/// [`Network::sequential`] validation. [`Network::fingerprint`] delegates
/// here.
pub fn fingerprint_layers(layers: &[NetLayer]) -> u64 {
    let mut h = Fnv1a::default();
    for l in layers {
        h.eat(l.name.as_bytes());
        let s = &l.shape;
        for dim in [s.c_in, s.h, s.w, s.c_out, s.kh, s.kw, s.stride, s.pad] {
            h.eat_word(dim);
        }
        // Reuse the prepack fingerprint as the weight digest (bits, dims
        // and raw bytes); every weight tensor has a wide-GEMM layout.
        let wfp = crate::arm::prepack_fingerprint(&l.weights, ArmAlgo::Gemm, l.weights.bits())
            .expect("Gemm always has a prepacked layout");
        h.eat(&wfp.to_le_bytes());
        h.eat(&[l.relu as u8, l.requant.bits.bits()]);
        h.eat(&l.requant.multiplier.to_bits().to_le_bytes());
        h.eat(&[l.requant.clamp_min as u8]);
        match &l.bias {
            None => h.eat(&[0]),
            Some(bias) => {
                h.eat(&[1]);
                for &v in bias {
                    h.eat(&(v as i64).to_le_bytes());
                }
            }
        }
    }
    h.0
}

/// The full network content hash: the layer hash continued over the DAG
/// topology — every node's op tag, name and edge list. Value dims are
/// deliberately not hashed (they are derivable from the layers plus the
/// edges, and hashing them would break the batch-invariance the serving
/// cache keys rely on). [`Network::fingerprint`] delegates here; the layer
/// half stays available as [`fingerprint_layers`] for audits over mutated
/// layer vectors.
pub fn fingerprint_graph(layers: &[NetLayer], topology: &crate::graph::GraphTopology) -> u64 {
    let mut h = Fnv1a(fingerprint_layers(layers));
    for node in &topology.nodes {
        let tag: u8 = match node.op {
            crate::graph::NodeOp::Conv { .. } => 0,
            crate::graph::NodeOp::Add => 1,
            crate::graph::NodeOp::Concat => 2,
        };
        h.eat(&[tag]);
        h.eat(node.name.as_bytes());
        h.eat_word(node.inputs.len());
        for &v in &node.inputs {
            h.eat_word(v);
        }
        h.eat_word(node.output);
    }
    h.0
}

/// One fingerprint-audit mutation: a verdict-relevant field and an edit that
/// changes it.
type AuditMutation = (&'static str, fn(&mut [NetLayer]));

fn audit_mutations() -> Vec<AuditMutation> {
    fn tweak_weights(layers: &mut [NetLayer]) {
        let w = &layers[0].weights;
        let (bits, scale, dims, layout) = (w.bits(), w.scale(), w.dims(), w.layout());
        let mut data = w.data().to_vec();
        data[0] = if data[0] < bits.qmax() { data[0] + 1 } else { data[0] - 1 };
        layers[0].weights = QTensor::new(Tensor::from_vec(dims, layout, data), bits, scale);
    }
    fn cycle_bits(layers: &mut [NetLayer]) {
        let cur = layers[0].requant.bits;
        layers[0].requant.bits = if cur == BitWidth::W4 { BitWidth::W5 } else { BitWidth::W4 };
    }
    vec![
        ("name", |ls| ls[0].name.push('x')),
        ("shape.c_in", |ls| ls[0].shape.c_in += 1),
        ("shape.h", |ls| ls[0].shape.h += 1),
        ("shape.w", |ls| ls[0].shape.w += 1),
        ("shape.c_out", |ls| ls[0].shape.c_out += 1),
        ("shape.kh", |ls| ls[0].shape.kh += 1),
        ("shape.kw", |ls| ls[0].shape.kw += 1),
        ("shape.stride", |ls| ls[0].shape.stride += 1),
        ("shape.pad", |ls| ls[0].shape.pad += 1),
        ("weights", tweak_weights),
        ("relu", |ls| ls[0].relu = !ls[0].relu),
        ("requant.multiplier", |ls| ls[0].requant.multiplier *= 2.0),
        ("requant.bits", cycle_bits),
        ("requant.clamp_min", |ls| {
            let c = ls[0].requant.clamp_min;
            ls[0].requant.clamp_min = if c < i8::MAX { c + 1 } else { c - 1 };
        }),
        ("bias", |ls| match &mut ls[0].bias {
            Some(b) => b[0] += 1,
            None => ls[0].bias = Some(vec![1; ls[0].shape.c_out]),
        }),
    ]
}

/// Cache-key soundness audit with an injectable hash: mutates every
/// verdict-relevant [`NetLayer`] field in turn and requires `fp` to change.
/// A hash blind to any field returns
/// [`PlanViolation::FingerprintBlind`] naming it — two plans the serving
/// cache would treat as equal could then verify differently.
pub fn fingerprint_audit_with(
    net: &Network,
    fp: impl Fn(&[NetLayer]) -> u64,
) -> Result<(), PlanViolation> {
    let baseline = fp(net.layers());
    for (field, mutate) in audit_mutations() {
        let mut layers = net.layers().to_vec();
        mutate(&mut layers);
        if fp(&layers) == baseline {
            return Err(PlanViolation::FingerprintBlind { field: field.into() });
        }
    }
    // The converse invariant: the batch size is deliberately excluded, so
    // serving caches can key plans by (fingerprint, batch, backend).
    let mut layers = net.layers().to_vec();
    for l in &mut layers {
        l.shape.batch += 1;
    }
    if fp(&layers) != baseline {
        return Err(PlanViolation::FingerprintBlind {
            field: "shape.batch must stay excluded (batch-keyed caches)".into(),
        });
    }
    Ok(())
}

/// Cache-key soundness audit over the real [`Network::fingerprint`] hash
/// (the layer mutations run against the network's own topology, exactly as
/// [`Network::fingerprint`] would hash them).
pub fn fingerprint_audit(net: &Network) -> Result<(), PlanViolation> {
    fingerprint_audit_with(net, |layers| fingerprint_graph(layers, net.topology()))
}

/// Topology half of the cache-key audit: mutates every hash-relevant field
/// of the DAG — node names, op tags (add vs concat), edge targets and edge
/// order — and requires [`Network::fingerprint`] to move. Two networks with
/// identical layers but different wiring must never share a plan-cache
/// entry. Edge-order and op-tag mutants need a joining node, so run this on
/// a graph network (chains exercise only the name/edge mutants).
pub fn topology_audit(net: &Network) -> Result<(), PlanViolation> {
    use crate::graph::NodeOp;
    let baseline = fingerprint_graph(net.layers(), net.topology());
    let check = |field: &str,
                 mutate: &dyn Fn(&mut crate::graph::GraphTopology)|
     -> Result<(), PlanViolation> {
        let mut topo = net.topology().clone();
        mutate(&mut topo);
        if fingerprint_graph(net.layers(), &topo) == baseline {
            return Err(PlanViolation::FingerprintBlind { field: format!("topology.{field}") });
        }
        Ok(())
    };
    let last = net.topology().nodes.len() - 1;
    check("node.name", &|t| t.nodes[last].name.push('x'))?;
    check("node.inputs", &|t| t.nodes[last].inputs.push(0))?;
    check("node.output", &|t| t.nodes[last].output += 1)?;
    if let Some(join) =
        net.topology().nodes.iter().position(|n| matches!(n.op, NodeOp::Add | NodeOp::Concat))
    {
        check("node.op", &|t| {
            t.nodes[join].op = match t.nodes[join].op {
                NodeOp::Add => NodeOp::Concat,
                _ => NodeOp::Add,
            };
        })?;
        check("edge order", &|t| t.nodes[join].inputs.reverse())?;
        check("edge target", &|t| {
            let v = &mut t.nodes[join].inputs[0];
            *v = if *v == 0 { 1 } else { *v - 1 };
        })?;
    }
    // The converse: re-batching the topology alone must not move the hash.
    let rebatched = net.topology().with_batch(net.topology().values[0].dims.0 + 1);
    if fingerprint_graph(net.layers(), &rebatched) != baseline {
        return Err(PlanViolation::FingerprintBlind {
            field: "topology value dims must stay excluded (batch-keyed caches)".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::ArmEngine;
    use crate::gpu::{GpuEngine, Tuning};
    use crate::plan::BackendKind;
    use crate::planner::Planner;
    use lowbit_tensor::Layout;

    #[test]
    fn demo_and_bottleneck_plans_prove_at_every_width() {
        let engine = ArmEngine::cortex_a53();
        for bits in BitWidth::ALL {
            for defs in [lowbit_models::demo(12), lowbit_models::resnet50_bottleneck()] {
                let net = Network::from_layer_defs(&defs, bits, 9).unwrap();
                let plan = Planner::for_arm(&engine).compile(&net).unwrap();
                let proof = verify_compiled(&plan, &net).unwrap();
                assert_eq!(proof.layers.len(), net.layers().len(), "{bits}");
                assert!(proof.tightest_headroom() > 0.9, "{bits}: low-bit accs are tiny");
                assert_eq!(proof.declared_high_water, plan.workspace_high_water_bytes());
            }
        }
    }

    #[test]
    fn heterogeneous_plans_prove_with_nhwc_values_between_gpu_layers() {
        let arm = ArmEngine::cortex_a53();
        let gpu = GpuEngine::rtx2080ti();
        for bits in [BitWidth::W4, BitWidth::W8] {
            let net = Network::demo(bits, 12, 9);
            let plan = Planner::new()
                .with_arm(&arm)
                .with_gpu(&gpu, Tuning::Default)
                .compile(&net)
                .unwrap();
            let on_gpu = |l: &LayerPlan| l.algo.backend() == BackendKind::GpuModel;
            if plan.layers().iter().all(on_gpu) {
                let nhwc = plan.values().iter().filter(|v| v.layout == Layout::Nhwc);
                assert_eq!(nhwc.count(), 2, "{bits}: v1 and v2 stay NHWC");
            }
            verify_compiled(&plan, &net).unwrap();
        }
    }

    #[test]
    fn lowered_mutants_are_rejected_with_typed_witnesses() {
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W4, 12, 9);
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        // Understated high-water.
        let starved = plan.clone().with_layers(plan.layers().to_vec(), 0);
        assert!(matches!(
            verify_compiled(&starved, &net),
            Err(CoreError::PlanRejected {
                violation: PlanViolation::HighWaterUnderstated { declared: 0, .. }
            })
        ));
        // Understated per-layer workspace.
        let mut layers = plan.layers().to_vec();
        layers[0].workspace_bytes = 1;
        let lying = plan.clone().with_layers(layers, plan.workspace_high_water_bytes());
        assert!(matches!(
            verify_compiled(&lying, &net),
            Err(CoreError::PlanRejected {
                violation: PlanViolation::WorkspaceUnderstated { .. }
            })
        ));
        // A value kept NHWC between ARM convs, which read and write NCHW
        // (plan values are private, so the lowered spec is mutated).
        let mut spec = lower_plan(&plan, &net).unwrap();
        spec.values[1].layout = Layout::Nhwc;
        assert!(matches!(
            verify_plan(&spec),
            Err(PlanViolation::LayoutMismatch {
                site: "layer output",
                ..
            })
        ));
    }

    #[test]
    fn fingerprint_audit_passes_and_catches_a_blind_hash() {
        let net = Network::demo(BitWidth::W4, 12, 9);
        fingerprint_audit(&net).unwrap();
        // A hash that normalizes clamp_min away is blind to it.
        let blind = |layers: &[NetLayer]| {
            let mut ls = layers.to_vec();
            for l in &mut ls {
                l.requant.clamp_min = 0;
            }
            fingerprint_layers(&ls)
        };
        assert_eq!(
            fingerprint_audit_with(&net, blind),
            Err(PlanViolation::FingerprintBlind { field: "requant.clamp_min".into() })
        );
    }

    #[test]
    fn topology_audit_passes_on_graph_networks_and_catches_rewired_graphs() {
        for def in [
            lowbit_models::resnet50_residual_block(14),
            lowbit_models::densenet121_dense_block(14),
        ] {
            let net = Network::from_graph_defs(&def, BitWidth::W4, 7).unwrap();
            topology_audit(&net).unwrap();
        }
        // Chains exercise the structural mutants too.
        topology_audit(&Network::demo(BitWidth::W4, 12, 9)).unwrap();
        // Same layers, different wiring -> different fingerprint.
        let dense = Network::from_graph_defs(
            &lowbit_models::densenet121_dense_block(14),
            BitWidth::W4,
            7,
        )
        .unwrap();
        let mut rewired = dense.topology().clone();
        let join = rewired
            .nodes
            .iter()
            .position(|n| matches!(n.op, crate::graph::NodeOp::Concat))
            .unwrap();
        rewired.nodes[join].inputs.reverse();
        assert_ne!(
            fingerprint_graph(dense.layers(), &rewired),
            dense.fingerprint(),
            "concat operand order is semantically significant"
        );
        // And batch invariance survives the topology extension.
        let batched = dense.with_batch(3).unwrap();
        assert_eq!(batched.fingerprint(), dense.fingerprint());
    }

    #[test]
    fn plan_high_water_matches_the_verifiers_bound() {
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W8, 12, 9);
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let spec = lower_plan(&plan, &net).unwrap();
        let certified = arena_high_water(
            spec.layers.iter().map(|l| workspace_requirement(l.plan.algo, &l.plan.shape)),
        );
        assert_eq!(plan.workspace_high_water_bytes(), certified);
        assert!(plan.workspace_high_water_bytes() > 0);
    }
}
