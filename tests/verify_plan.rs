//! Whole-plan verifier integration: every plan the planner emits for the
//! demo and ResNet-50 bottleneck networks must prove end to end at every
//! supported bit width, the golden proof report must not drift, seeded plan
//! mutants must be rejected with their expected typed witnesses, and the
//! certified arena high-water must dominate what executing the plan really
//! allocates.

use lowbit::prelude::*;
use lowbit::verify::{fingerprint_audit, lower_plan, verify_compiled};
use lowbit_verify::{verify_plan, PlanViolation};

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
    spec.layers[2].requant.clamp_min = -100;
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
    spec.layers[1].shape.c_in += 1;
    assert!(matches!(verify_plan(&spec), Err(PlanViolation::ShapeBreak { .. })));
    // Plan-level mutants through the core lowering: an understated per-layer
    // declaration must also be typed at the CoreError surface.
    let mut layers = plan.layers().to_vec();
    layers[0].workspace_bytes = 0;
    let lying = ExecutionPlan::from_layers(layers, plan.workspace_high_water_bytes());
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

#[test]
fn certified_high_water_dominates_real_execution() {
    // Execute each plan repeatedly on a fresh engine: the engine's observed
    // arena high-water must stay under the plan's certified figure (the
    // declared bound is what capacity planning reads). The W4 bottleneck
    // runs its 3x3 layer on Winograd.
    let bottleneck = lowbit_models::resnet50_bottleneck();
    let cases = [
        (BitWidth::W4, Network::demo(BitWidth::W4, 12, 9)),
        (BitWidth::W8, Network::demo(BitWidth::W8, 12, 9)),
        (BitWidth::W4, Network::from_layer_defs(&bottleneck, BitWidth::W4, 9).unwrap()),
    ];
    for (bits, net) in cases {
        let engine = ArmEngine::cortex_a53();
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
            "{bits}: observed {observed} > declared {}",
            plan.workspace_high_water_bytes()
        );
    }
}
