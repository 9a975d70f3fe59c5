//! Whole-plan verifier integration: every plan the planner emits for the
//! demo and ResNet-50 bottleneck networks must prove end to end at every
//! supported bit width, the golden proof report must not drift, seeded plan
//! mutants must be rejected with their expected typed witnesses, and the
//! certified arena high-water must dominate what executing the plan really
//! allocates. Random branchy DAGs compiled for parallel nodes must pass the
//! concurrency verifier with a wave wider than one.

use lowbit::prelude::*;
use lowbit::verify::{fingerprint_audit, lower_plan, verify_compiled};
use lowbit_models::{GraphDef, GraphNodeDef, GraphOpDef, LayerDef};
use lowbit_verify::{verify_plan, PlanViolation};
use proptest::prelude::*;

#[test]
fn demo_and_bottleneck_prove_at_every_width() {
    let engine = ArmEngine::cortex_a53();
    for bits in BitWidth::ALL {
        for defs in [lowbit_models::demo(12), lowbit_models::resnet50_bottleneck()] {
            let net = Network::from_layer_defs(&defs, bits, 9).unwrap();
            let plan = Planner::for_arm(&engine).compile(&net).unwrap();
            let proof = verify_compiled(&plan, &net).unwrap();
            assert_eq!(proof.layers.len(), net.layers().len());
            assert!(proof.certified_high_water <= plan.workspace_high_water_bytes());
            // Every layer's proven output interval sits inside its requant
            // width — the invariant the next layer's stream proofs need.
            for (lp, l) in proof.layers.iter().zip(net.layers()) {
                let (qmin, qmax) = (l.requant.bits.qmin() as i64, l.requant.bits.qmax() as i64);
                assert!(lp.output.lo >= qmin && lp.output.hi <= qmax, "{bits} {}", lp.name);
            }
        }
    }
}

#[test]
fn heterogeneous_plans_prove_at_tensor_core_widths() {
    let arm = ArmEngine::cortex_a53();
    let gpu = GpuEngine::rtx2080ti();
    for bits in [BitWidth::W4, BitWidth::W8] {
        let net = Network::demo(bits, 12, 9);
        let plan = Planner::new()
            .with_arm(&arm)
            .with_gpu(&gpu, Tuning::Default)
            .compile(&net)
            .unwrap();
        verify_compiled(&plan, &net).unwrap();
    }
}

#[test]
fn proof_report_matches_the_golden_file() {
    let net = Network::demo(BitWidth::W4, 12, 9);
    let plan = Planner::for_arm(&ArmEngine::cortex_a53()).compile(&net).unwrap();
    let report = verify_compiled(&plan, &net).unwrap().report();
    let golden = include_str!("golden/verify_plan_demo.txt");
    assert_eq!(
        report, golden,
        "plan proof report diverged from tests/golden/verify_plan_demo.txt — \
         if the change is intentional, regenerate with: cargo run --release \
         -p lowbit-verify-cli -- --plan --report > tests/golden/verify_plan_demo.txt"
    );
}

#[test]
fn seeded_mutants_are_rejected_with_their_witnesses() {
    let engine = ArmEngine::cortex_a53();
    let net = Network::demo(BitWidth::W4, 12, 9);
    let plan = Planner::for_arm(&engine).compile(&net).unwrap();
    let base = lower_plan(&plan, &net).unwrap();
    // Corrupted requant on the last (ReLU-free) layer.
    let mut spec = base.clone();
    spec.layers[2].plan.epilogue.requant.clamp_min = -100;
    assert!(matches!(
        verify_plan(&spec),
        Err(PlanViolation::ClampRangeBreak { clamp_min: -100, .. })
    ));
    // Understated high-water.
    let mut spec = base.clone();
    spec.declared_high_water_bytes -= 1;
    assert!(matches!(
        verify_plan(&spec),
        Err(PlanViolation::HighWaterUnderstated { .. })
    ));
    // A broken layer chain.
    let mut spec = base.clone();
    spec.layers[1].plan.shape.c_in += 1;
    assert!(matches!(verify_plan(&spec), Err(PlanViolation::ShapeBreak { .. })));
    // Plan-level mutants through the core lowering: an understated per-layer
    // declaration must also be typed at the CoreError surface.
    let mut layers = plan.layers().to_vec();
    layers[0].workspace_bytes = 0;
    let lying = plan.clone().with_layers(layers, plan.workspace_high_water_bytes());
    assert!(matches!(
        verify_compiled(&lying, &net),
        Err(CoreError::PlanRejected {
            violation: PlanViolation::WorkspaceUnderstated { .. }
        })
    ));
}

#[test]
fn fingerprint_audit_holds_for_both_model_classes() {
    for defs in [lowbit_models::demo(12), lowbit_models::resnet50_bottleneck()] {
        let net = Network::from_layer_defs(&defs, BitWidth::W4, 9).unwrap();
        fingerprint_audit(&net).unwrap();
    }
}

/// The published hashes stay put: the demo network's fingerprint keys the
/// serving plan cache, and the dense block's parallel-plan certificate is
/// the one `BENCH_graph.json` records. Both are FNV-1a digests; a change to
/// the hash step, or to what it covers or in which order, moves them.
#[test]
fn published_fingerprint_and_certificate_are_pinned() {
    let demo = Network::demo(BitWidth::W4, 12, 9);
    assert_eq!(demo.fingerprint(), 0xde59_3b80_d292_d335);
    let def = lowbit_models::densenet121_dense_block_n(12, 6);
    let net = Network::from_graph_defs(&def, BitWidth::W4, 9).unwrap();
    let engine = ArmEngine::cortex_a53();
    let plan = Planner::for_arm(&engine).with_parallel_nodes(true).compile(&net).unwrap();
    let schedule = plan.parallel_schedule().expect("parallel plans carry a certificate");
    assert_eq!(schedule.certificate, 0xe1e2_d237_a012_f5fd);
    assert_eq!(lowbit::verify_conc_compiled(&plan).unwrap().certificate, schedule.certificate);
}

#[test]
fn certified_high_water_dominates_real_execution() {
    // Execute each plan repeatedly on a fresh engine, at one and at four
    // threads: the engine's observed arena high-water must stay under the
    // plan's certified figure (the declared bound is what capacity planning
    // reads). The W4 bottleneck runs its 3x3 layer on Winograd, and the W4
    // dense block alternates Gemm bottlenecks with Winograd growth layers
    // through one arena.
    let bottleneck = lowbit_models::resnet50_bottleneck();
    let dense = lowbit_models::densenet121_dense_block_n(12, 6);
    let cases = [
        (BitWidth::W4, Network::demo(BitWidth::W4, 12, 9)),
        (BitWidth::W8, Network::demo(BitWidth::W8, 12, 9)),
        (BitWidth::W4, Network::from_layer_defs(&bottleneck, BitWidth::W4, 9).unwrap()),
        (BitWidth::W4, Network::from_graph_defs(&dense, BitWidth::W4, 9).unwrap()),
    ];
    for (bits, net) in cases {
        for threads in [1, 4] {
            let engine = ArmEngine::cortex_a53().with_threads(threads);
            let plan = Planner::for_arm(&engine).compile(&net).unwrap();
            let s = net.layers()[0].shape;
            let input = Tensor::zeros((s.batch, s.c_in, s.h, s.w), Layout::Nchw);
            let executor = Executor::for_arm(&engine);
            for _ in 0..3 {
                executor.run(&plan, &net, &input).unwrap();
            }
            let observed = engine.workspace_stats().high_water_bytes;
            assert!(
                observed <= plan.workspace_high_water_bytes(),
                "{bits} x{threads}: observed {observed} > declared {}",
                plan.workspace_high_water_bytes()
            );
        }
    }
}

/// A compiled plan's layers are public: one edited back to `ArmAlgo::Auto`
/// commits to no kernel, so the plan verifier, the concurrency verifier and
/// the parallel executor each refuse it with a typed mismatch.
#[test]
fn a_plan_carrying_auto_is_a_typed_mismatch() {
    fn refuses_auto<T>(result: Result<T, CoreError>) -> bool {
        matches!(result, Err(CoreError::PlanMismatch { ref detail }) if detail.contains("Auto"))
    }
    let def = lowbit_models::resnet50_projection_block(8);
    let net = Network::from_graph_defs(&def, BitWidth::W4, 11).unwrap();
    let engine = ArmEngine::cortex_a53();
    let plan = Planner::for_arm(&engine).with_parallel_nodes(true).compile(&net).unwrap();
    let mut layers = plan.layers().to_vec();
    layers[1].algo = PlanAlgo::Arm(ArmAlgo::Auto);
    let high_water = plan.workspace_high_water_bytes();
    let auto = plan.with_layers(layers, high_water);
    assert!(refuses_auto(verify_compiled(&auto, &net)));
    assert!(refuses_auto(lowbit::verify_conc_compiled(&auto)));
    let input = Tensor::zeros((1, 256, 8, 8), Layout::Nchw);
    assert!(refuses_auto(Executor::for_arm(&engine).run_parallel(&auto, &net, &input)));
}

/// Names for the random DAGs below: the largest (four branches, the first
/// nested with four more, every join an `Add` chain) has 14 nodes.
const DAG_NAMES: [&str; 14] = [
    "n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10", "n11", "n12", "n13",
];

/// Appends `op` over `inputs` and returns its `(value, channels)`; node `i`
/// produces value `i + 1`.
fn push_node(
    nodes: &mut Vec<GraphNodeDef>,
    op: GraphOpDef,
    inputs: Vec<usize>,
    channels: usize,
) -> (usize, usize) {
    let name = DAG_NAMES[nodes.len()];
    let op = match op {
        GraphOpDef::Conv { def, relu } => GraphOpDef::Conv {
            def: LayerDef { name, ..def },
            relu,
        },
        op => op,
    };
    nodes.push(GraphNodeDef { name, op, inputs });
    (nodes.len(), channels)
}

/// One parallel conv per `(3x3, c_out)` branch off `src`, joined by a chain
/// of `Add`s (every branch then takes the first branch's width) or by one
/// `Concat`. With `nested`, the first branch's conv feeds a fork-join of
/// its own. Returns the join's `(value, channels)`.
fn fork_join(
    nodes: &mut Vec<GraphNodeDef>,
    (src, c_in): (usize, usize),
    hw: usize,
    (branches, add): (&[(bool, usize)], bool),
    nested: Option<(&[(bool, usize)], bool)>,
) -> (usize, usize) {
    let mut outs: Vec<(usize, usize)> = Vec::new();
    for &(k3, c_out) in branches {
        let c_out = match outs.first() {
            Some(first) if add => first.1,
            _ => c_out,
        };
        let (k, pad) = if k3 { (3, 1) } else { (1, 0) };
        let shape = ConvShape::new(1, c_in, hw, hw, c_out, k, 1, pad);
        let def = LayerDef { name: "", shape };
        let conv = GraphOpDef::Conv { def, relu: true };
        let mut out = push_node(nodes, conv, vec![src], c_out);
        if let (true, Some(inner)) = (outs.is_empty(), nested) {
            out = fork_join(nodes, out, hw, inner, None);
        }
        outs.push(out);
    }
    if add {
        let mut sum = outs[0];
        for &o in &outs[1..] {
            sum = push_node(nodes, GraphOpDef::Add, vec![sum.0, o.0], sum.1);
        }
        sum
    } else {
        let values = outs.iter().map(|o| o.0).collect();
        let channels = outs.iter().map(|o| o.1).sum();
        push_node(nodes, GraphOpDef::Concat, values, channels)
    }
}

fn branches() -> impl Strategy<Value = Vec<(bool, usize)>> {
    proptest::collection::vec((any::<bool>(), 2usize..=8), 2..=4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Whatever branchy DAG the planner's parallel mode compiles, its
    /// placement already satisfies the concurrency verifier's one rule
    /// (nodes that may run concurrently never overlap), and the branches
    /// share a wave.
    #[test]
    fn random_branchy_dags_certify_with_wide_waves(
        (hw, c_in, bits) in (4usize..=8, 2usize..=8, 0usize..BitWidth::ALL.len()),
        outer in branches(),
        inner in branches(),
        (add, inner_add, nest) in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let mut nodes = Vec::new();
        let nested = nest.then_some((&inner[..], inner_add));
        fork_join(&mut nodes, (0, c_in), hw, (&outer, add), nested);
        let def = GraphDef { input: (c_in, hw, hw), nodes };
        let net = Network::from_graph_defs(&def, BitWidth::ALL[bits], 5).unwrap();
        let engine = ArmEngine::cortex_a53();
        let plan = Planner::for_arm(&engine).with_parallel_nodes(true).compile(&net).unwrap();
        let proof = lowbit::verify_conc_compiled(&plan).unwrap();
        prop_assert!(proof.max_wave_width > 1, "waves {:?}", proof.waves);
    }
}
