//! Golden-file check for the demo network's compiled plan: the planner's
//! choices (backend, algorithm, predicted millis, prepack fingerprint,
//! workspace sizing) for `Network::demo(W4, 12, 9)` must match
//! `tests/golden/plan_demo.json` byte for byte, so any planner or cost-model
//! change shows up in review as a golden diff. The same network planned on
//! the GPU backend is pinned in `tests/golden/plan_demo_gpu.json`, the one
//! golden whose values stay NHWC between layers.
//!
//! Regenerate after an intended change with:
//! `cargo run --release -p lowbit-bench --bin lowbit-plan -- --json > tests/golden/plan_demo.json`

use lowbit::prelude::*;

#[test]
fn demo_plan_matches_golden_file() {
    let net = Network::demo(BitWidth::W4, 12, 9);
    let plan = Planner::for_arm(&ArmEngine::cortex_a53())
        .compile(&net)
        .expect("ARM serves every bit width");
    let golden = include_str!("golden/plan_demo.json");
    let current = plan.to_json();
    assert_eq!(
        current, golden,
        "compiled demo plan diverged from tests/golden/plan_demo.json — \
         if intended, regenerate with: cargo run --release -p lowbit-bench \
         --bin lowbit-plan -- --json > tests/golden/plan_demo.json"
    );
}

#[test]
fn dense_block_plan_matches_golden_file() {
    let net = Network::from_graph_defs(
        &lowbit::models::densenet121_dense_block(12),
        BitWidth::W4,
        9,
    )
    .expect("dense-block graph def is valid");
    let plan = Planner::for_arm(&ArmEngine::cortex_a53())
        .compile(&net)
        .expect("ARM serves every bit width");
    let golden = include_str!("golden/plan_dense_block.json");
    let current = plan.to_json();
    assert_eq!(
        current, golden,
        "compiled dense-block plan diverged from tests/golden/plan_dense_block.json — \
         if intended, regenerate with: cargo run --release -p lowbit-bench \
         --bin lowbit-plan -- --model dense-block --json > tests/golden/plan_dense_block.json"
    );
}

#[test]
fn gpu_demo_plan_matches_golden_file() {
    let net = Network::demo(BitWidth::W4, 12, 9);
    let plan = Planner::for_gpu(&GpuEngine::rtx2080ti(), Tuning::Default)
        .compile(&net)
        .expect("the Tensor Core path serves W4");
    let golden = include_str!("golden/plan_demo_gpu.json");
    assert_eq!(
        plan.to_json(),
        golden,
        "compiled GPU demo plan diverged from tests/golden/plan_demo_gpu.json — \
         if intended, regenerate with: cargo run --release -p lowbit-bench \
         --bin lowbit-plan -- --backend gpu --json > tests/golden/plan_demo_gpu.json"
    );
    // The golden pins the elided round-trips: the two values between the
    // GPU layers stay NHWC, the graph input and the plan output are NCHW.
    let layouts: Vec<_> = plan.values().iter().map(|v| v.layout).collect();
    assert_eq!(
        layouts,
        [Layout::Nchw, Layout::Nhwc, Layout::Nhwc, Layout::Nchw]
    );
}

#[test]
fn dense_block_golden_records_the_dag_and_arena() {
    let golden = include_str!("golden/plan_dense_block.json");
    // The DAG survives into the golden: two concat joins with fan-in from
    // earlier values, and an activation arena strictly smaller than the sum
    // of all value bytes (the liveness planner reuses freed slots).
    assert_eq!(golden.matches("\"op\":\"concat\"").count(), 2);
    assert!(golden.contains("\"inputs\":[0,2]"));
    assert!(golden.contains("\"activation_high_water_bytes\""));
}

#[test]
fn golden_json_is_well_formed() {
    let golden = include_str!("golden/plan_demo.json");
    assert!(golden.contains("\"layers\""));
    assert!(golden.contains("\"nodes\""));
    assert!(golden.contains("\"values\""));
    assert!(golden.contains("\"predicted_total_millis\""));
    assert!(golden.contains("\"activation_high_water_bytes\""));
    assert_eq!(
        golden.matches("\"prepack_fingerprint\"").count(),
        3,
        "three demo layers"
    );
    assert_eq!(golden.matches("\"name\"").count(), 6, "three layers + three nodes");
}
