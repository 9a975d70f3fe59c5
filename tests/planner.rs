//! Plan/execute pipeline tests: the compiler's selection boundaries
//! (narrow-vs-wide GEMM crossover, the Winograd eligibility window, GPU
//! precision fallback) and the acceptance cross-check that
//! `Planner::compile` + `Executor::run` reproduces the legacy per-call
//! path bit for bit at every bit width.

use lowbit::prelude::*;
use lowbit::qnn::{quantize_f32, requantize, Quantizer};
use lowbit::{arm_candidates, select_arm_algo, ArmAlgo};
use proptest::prelude::*;
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

/// The pre-planner network loop, written out against the per-call engine API:
/// quantize once, `ArmAlgo::Auto` conv per layer, fused requant, dequantize.
/// The plan/execute pipeline must reproduce this exactly.
fn legacy_run(
    net: &Network,
    engine: &ArmEngine,
    input: &Tensor<f32>,
) -> (Tensor<f32>, Vec<ArmAlgo>, f64) {
    let first = &net.layers()[0];
    let bits = first.weights.bits();
    let q_in = Quantizer::calibrate(bits, input.data());
    let mut act = quantize_f32(input, &q_in);
    let mut act_scale = q_in.scale;
    let mut algos = Vec::new();
    let mut total = 0.0;
    for layer in net.layers() {
        let out = engine.conv(&act, &layer.weights, &layer.shape, ArmAlgo::Auto);
        algos.push(out.algo);
        total += out.millis;
        let rq = if layer.relu { layer.requant.with_relu() } else { layer.requant };
        act = requantize(&out.acc, &rq);
        act_scale = act_scale * layer.weights.scale() / rq.multiplier;
    }
    let mut out_f = Tensor::zeros(act.dims(), act.layout());
    for (o, &q) in out_f.data_mut().iter_mut().zip(act.data()) {
        *o = q as f32 * act_scale;
    }
    (out_f, algos, total)
}

/// Acceptance cross-check: for `Network::demo` at every `BitWidth`, the
/// compiled plan's execution matches the legacy path bit-exactly — output
/// tensors, chosen algorithms, and the modeled totals, which must also equal
/// the plan's prediction.
#[test]
fn plan_execute_reproduces_legacy_path_at_every_bit_width() {
    for bits in [
        BitWidth::W2,
        BitWidth::W3,
        BitWidth::W4,
        BitWidth::W5,
        BitWidth::W6,
        BitWidth::W7,
        BitWidth::W8,
    ] {
        let net = Network::demo(bits, 12, 9);
        let input = float_input((1, 3, 12, 12), 5);

        // Independent engines so prepack caches cannot cross-talk.
        let legacy_engine = ArmEngine::cortex_a53();
        let (legacy_out, legacy_algos, legacy_total) = legacy_run(&net, &legacy_engine, &input);

        let engine = ArmEngine::cortex_a53();
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let run = Executor::for_arm(&engine).run(&plan, &net, &input).unwrap();

        assert_eq!(run.output.dims(), legacy_out.dims(), "{bits}");
        assert_eq!(run.output.data(), legacy_out.data(), "{bits}: outputs must be bit-exact");
        let plan_algos: Vec<ArmAlgo> =
            run.reports.iter().map(|r| r.arm_algo().unwrap()).collect();
        assert_eq!(plan_algos, legacy_algos, "{bits}: algorithm choices must match");
        assert!(
            (run.total_millis - legacy_total).abs() < 1e-12,
            "{bits}: totals {} vs {legacy_total}",
            run.total_millis
        );
        let est = plan.predicted_millis();
        assert!((est - legacy_total).abs() < 1e-12, "{bits}: predicted {est} vs {legacy_total}");
    }
}

/// The narrow 8x4 tile and the wide 16x4 tile cross over on `c_out`: with
/// few output channels the wide tile wastes lanes and the narrow tile wins;
/// with many it's the reverse. Both candidates are always enumerated at
/// SMLAL widths and the selection follows the cold-cycle ranking.
#[test]
fn narrow_vs_wide_gemm_crossover() {
    let engine = ArmEngine::cortex_a53();
    let model = engine.model();
    let bits = BitWidth::W4;

    let narrow_friendly = ConvShape::new(1, 3, 12, 12, 8, 3, 1, 1);
    let wide_friendly = ConvShape::new(1, 64, 56, 56, 256, 1, 1, 0);

    for (shape, expect) in [
        (&narrow_friendly, ArmAlgo::GemmNarrow),
        (&wide_friendly, ArmAlgo::Gemm),
    ] {
        let cands = arm_candidates(model, bits, shape);
        let gemm = cands.iter().find(|c| c.algo == ArmAlgo::Gemm).unwrap();
        let narrow = cands.iter().find(|c| c.algo == ArmAlgo::GemmNarrow).unwrap();
        match expect {
            ArmAlgo::GemmNarrow => assert!(narrow.cold_cycles < gemm.cold_cycles),
            _ => assert!(gemm.cold_cycles <= narrow.cold_cycles),
        }
        assert_eq!(select_arm_algo(model, bits, shape), expect);
        // And the full planner commits the same choice.
        assert_eq!(engine.select_algo(bits, shape), expect);
    }

    // At MLA widths (2-3 bit) the narrow tile is not enumerated at all.
    let cands = arm_candidates(model, BitWidth::W2, &narrow_friendly);
    assert!(cands.iter().all(|c| c.algo != ArmAlgo::GemmNarrow));
}

/// The Winograd eligibility window: on the canonical big 3x3/stride-1 layer
/// the planner picks Winograd exactly at 4/5/6 bit. At 7 bit the transform
/// is categorically unsupported (not even a candidate); at 3 bit it is a
/// candidate but the MLA-scheme GEMM out-prices it.
#[test]
fn winograd_eligibility_window_is_4_to_6_bit() {
    let engine = ArmEngine::cortex_a53();
    let model = engine.model();
    let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);

    for bits in [BitWidth::W4, BitWidth::W5, BitWidth::W6] {
        assert_eq!(select_arm_algo(model, bits, &shape), ArmAlgo::Winograd, "{bits}");
        let cands = arm_candidates(model, bits, &shape);
        assert!(cands.iter().any(|c| c.algo == ArmAlgo::Winograd), "{bits}");
    }
    // 7-bit: no Winograd candidate exists at all.
    let cands7 = arm_candidates(model, BitWidth::W7, &shape);
    assert!(cands7.iter().all(|c| c.algo != ArmAlgo::Winograd));
    assert_ne!(select_arm_algo(model, BitWidth::W7, &shape), ArmAlgo::Winograd);
    // 3-bit: eligible (candidate present) but rejected on modeled cost.
    let cands3 = arm_candidates(model, BitWidth::W3, &shape);
    assert!(cands3.iter().any(|c| c.algo == ArmAlgo::Winograd));
    assert_ne!(select_arm_algo(model, BitWidth::W3, &shape), ArmAlgo::Winograd);
}

/// One applicability rule, [`ArmAlgo::applies`], decides both what the
/// planner enumerates and what a forced engine call accepts: at every width
/// and on a 3x3/s1, a 3x3/s2 and a 1x1 layer, `arm_candidates` lists exactly
/// the planned algorithms the rule admits, and a forced conv panics exactly
/// when the rule refuses it — before the engine lock, since a clone keeps
/// running bit-exact afterwards.
#[test]
fn one_applicability_rule_gates_candidates_and_forced_convs() {
    use lowbit::conv_arm::winograd::winograd_exact;
    use lowbit::conv_arm::{direct_conv, winograd_conv};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let engine = ArmEngine::cortex_a53().with_threads(2);
    let clone = engine.clone();
    let model = engine.model();
    let tensors = |shape: &ConvShape, bits: BitWidth, seed: u64| {
        let input = (shape.batch, shape.c_in, shape.h, shape.w);
        let weights = (shape.c_out, shape.c_in, shape.kh, shape.kw);
        (
            QTensor::random(input, Layout::Nchw, bits, seed),
            QTensor::random(weights, Layout::Nchw, bits, seed + 1),
        )
    };
    let shapes = [
        ConvShape::new(1, 3, 6, 6, 5, 3, 1, 1),
        ConvShape::new(1, 3, 7, 7, 5, 3, 2, 1),
        ConvShape::new(1, 3, 6, 6, 5, 1, 1, 0),
    ];
    let (probe_in, probe_w) = tensors(&shapes[0], BitWidth::W4, 90);
    let probe_oracle = direct_conv(&probe_in, &probe_w, &shapes[0]);
    for bits in BitWidth::ALL {
        for (seed, shape) in (100..).step_by(2).zip(&shapes) {
            let case = format!("{bits} {shape}");
            let planned: Vec<ArmAlgo> =
                arm_candidates(model, bits, shape).iter().map(|c| c.algo).collect();
            let admitted: Vec<ArmAlgo> = [ArmAlgo::Gemm, ArmAlgo::GemmNarrow, ArmAlgo::Winograd]
                .into_iter()
                .filter(|algo| algo.applies(bits, shape))
                .collect();
            assert_eq!(planned, admitted, "{case}");
            let (input, weights) = tensors(shape, bits, seed);
            for algo in ArmAlgo::CONCRETE {
                let forced = catch_unwind(AssertUnwindSafe(|| {
                    engine.conv(&input, &weights, shape, algo)
                }));
                match forced {
                    Ok(out) => {
                        assert!(algo.applies(bits, shape), "{case}: {algo:?} ran");
                        // Winograd rounds in the transform domain past 4 bit.
                        let expect = if algo == ArmAlgo::Winograd && !winograd_exact(bits) {
                            winograd_conv(&input, &weights, shape).acc
                        } else {
                            direct_conv(&input, &weights, shape)
                        };
                        assert_eq!(out.acc.data(), expect.data(), "{case}: {algo:?}");
                    }
                    Err(_) => {
                        assert!(!algo.applies(bits, shape), "{case}: {algo:?} panicked");
                        let out = clone.conv(&probe_in, &probe_w, &shapes[0], ArmAlgo::Gemm);
                        assert_eq!(out.acc.data(), probe_oracle.data(), "{case}: {algo:?}");
                    }
                }
            }
        }
    }
}

/// GPU precision fallback: a heterogeneous planner routes Tensor Core
/// widths (4/8 bit) to the faster GPU model and odd widths to ARM instead of
/// failing; a GPU-only planner surfaces the typed error.
#[test]
fn gpu_precision_fallback_for_odd_widths() {
    let arm = ArmEngine::cortex_a53();
    let gpu = GpuEngine::rtx2080ti();
    let planner = Planner::for_arm(&arm).with_gpu(&gpu, Tuning::Default);

    for bits in [BitWidth::W3, BitWidth::W5, BitWidth::W7] {
        let net = Network::demo(bits, 12, 9);
        let plan = planner.compile(&net).unwrap();
        assert!(
            plan.layers().iter().all(|l| l.algo.backend() == BackendKind::Arm),
            "{bits}: odd widths must fall back to ARM"
        );
    }
    for bits in [BitWidth::W4, BitWidth::W8] {
        let net = Network::demo(bits, 12, 9);
        let plan = planner.compile(&net).unwrap();
        // The modeled 2080 Ti beats the modeled Cortex-A53 on every demo
        // layer, so the cost ranking sends them all to the GPU.
        assert!(
            plan.layers().iter().all(|l| l.algo.backend() == BackendKind::GpuModel),
            "{bits}: Tensor Core widths should win on the GPU model"
        );
        assert_eq!(plan.backends(), vec![BackendKind::GpuModel]);
    }

    let err = Planner::for_gpu(&gpu, Tuning::Default)
        .compile(&Network::demo(BitWidth::W5, 12, 9))
        .unwrap_err();
    assert!(matches!(err, CoreError::UnsupportedBitWidth { bits: BitWidth::W5, .. }));
}

/// A GPU-routed plan executes functionally (the GPU model computes exact
/// accumulators too), so the network output matches the ARM path bit for
/// bit even when every layer runs NHWC on the other backend.
#[test]
fn heterogeneous_execution_matches_arm_output() {
    let arm = ArmEngine::cortex_a53();
    let gpu = GpuEngine::rtx2080ti();
    let net = Network::demo(BitWidth::W4, 12, 9);
    let input = float_input((1, 3, 12, 12), 5);

    let arm_plan = Planner::for_arm(&arm).compile(&net).unwrap();
    let arm_run = Executor::for_arm(&arm).run(&arm_plan, &net, &input).unwrap();

    let both = Planner::for_arm(&arm).with_gpu(&gpu, Tuning::Default);
    let gpu_plan = both.compile(&net).unwrap();
    assert!(gpu_plan.layers().iter().all(|l| l.algo.backend() == BackendKind::GpuModel));
    let gpu_run = Executor::for_arm(&arm)
        .with_gpu(&gpu)
        .run(&gpu_plan, &net, &input)
        .unwrap();

    assert_eq!(gpu_run.output.dims(), arm_run.output.dims());
    assert_eq!(gpu_run.output.data(), arm_run.output.data());
    for r in &gpu_run.reports {
        assert_eq!(r.algo.backend(), BackendKind::GpuModel);
        assert!(r.gpu_time.is_some(), "{}: GPU layers carry a stage breakdown", r.name);
        assert!(r.arm_algo().is_none());
    }
}

/// The all-GPU W4 demo plan with layer 1 moved to the ARM GEMM keeps v1
/// NHWC into an NCHW-native kernel. The verifier rejects it with a typed
/// layout witness; release builds do not verify, and the forged plan still
/// runs bit-identically to the ARM plan, because the ARM backend converts
/// its own input.
#[test]
fn nhwc_value_into_an_arm_layer_is_rejected_yet_runs_bit_exact() {
    let arm = ArmEngine::cortex_a53();
    let gpu = GpuEngine::rtx2080ti();
    let net = Network::demo(BitWidth::W4, 12, 9);
    let input = float_input((1, 3, 12, 12), 5);
    let arm_plan = Planner::for_arm(&arm).compile(&net).unwrap();
    let arm_run = Executor::for_arm(&arm)
        .run(&arm_plan, &net, &input)
        .unwrap();

    let gpu_plan = Planner::for_arm(&arm)
        .with_gpu(&gpu, Tuning::Default)
        .compile(&net)
        .unwrap();
    assert_eq!(gpu_plan.values()[1].layout, Layout::Nhwc);
    let mut layers = gpu_plan.layers().to_vec();
    layers[1].algo = PlanAlgo::Arm(ArmAlgo::Gemm);
    layers[1].workspace_bytes =
        lowbit_verify::workspace_requirement(layers[1].algo, &layers[1].shape).total();
    let high_water = lowbit::plan_high_water(&layers);
    let forged = gpu_plan.with_layers(layers, high_water);
    match lowbit::verify::verify_compiled(&forged, &net) {
        Err(CoreError::PlanRejected {
            violation: lowbit_verify::PlanViolation::LayoutMismatch { .. },
        }) => {}
        other => panic!("expected a LayoutMismatch rejection, got {other:?}"),
    }
    let run = Executor::new()
        .with_arm(&arm)
        .with_gpu(&gpu)
        .run(&forged, &net, &input)
        .unwrap();
    assert_eq!(run.output.data(), arm_run.output.data());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Property: whatever the network, the executor's reports agree with
    /// the plan — same algorithm, same backend, and executed modeled time
    /// equal to the plan's steady-state prediction per layer.
    #[test]
    fn executor_reports_always_match_the_plan(
        hw in 8usize..=14,
        bits in 2u8..=8,
        seed in 0u64..50,
    ) {
        let bits = BitWidth::new(bits).unwrap();
        let net = Network::demo(bits, hw, seed);
        let engine = ArmEngine::cortex_a53();
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let input = float_input((1, 3, hw, hw), seed + 1);
        let run = Executor::for_arm(&engine).run(&plan, &net, &input).unwrap();
        prop_assert_eq!(run.reports.len(), plan.layers().len());
        for (r, lp) in run.reports.iter().zip(plan.layers()) {
            prop_assert_eq!(&r.name, &lp.name);
            prop_assert_eq!(r.algo, lp.algo);
            prop_assert_eq!(r.algo.backend(), lp.algo.backend());
            prop_assert!((r.millis - lp.predicted_millis).abs() < 1e-12);
        }
    }
}
