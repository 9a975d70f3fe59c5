//! Certified node-level parallelism on a wide DAG.
//!
//! Compiles the ResNet-50 projection block twice — serially and with
//! `with_parallel_nodes(true)` — prints the certified wave schedule the
//! concurrency verifier proved sound, runs both plans, and checks the
//! parallel run reproduces the serial output bit for bit.

use lowbit::models::resnet50_projection_block;
use lowbit::prelude::*;

fn main() {
    let block = resnet50_projection_block(12); // bottleneck + 1x1 shortcut conv
    let net = Network::from_graph_defs(&block, BitWidth::W4, 9).unwrap();
    let arm = ArmEngine::cortex_a53();
    let input = Tensor::zeros((1, 256, 12, 12), Layout::Nchw);

    let serial_plan = Planner::for_arm(&arm).compile(&net).unwrap();
    let parallel_plan =
        Planner::for_arm(&arm).with_parallel_nodes(true).compile(&net).unwrap();

    let schedule = parallel_plan.parallel_schedule().expect("planner certified a schedule");
    println!("certified schedule (certificate {:#018x}):", schedule.certificate);
    for (w, wave) in schedule.waves.iter().enumerate() {
        let names: Vec<&str> = wave
            .iter()
            .map(|&n| match parallel_plan.nodes()[n].op {
                PlanOp::Conv { layer, .. } => parallel_plan.layers()[layer].name.as_str(),
                PlanOp::Add => "add",
                PlanOp::Concat => "concat",
            })
            .collect();
        println!("  wave {w}: {}", names.join(" || "));
    }
    println!(
        "max wave width {} over {} nodes",
        schedule.max_wave_width(),
        parallel_plan.nodes().len()
    );

    let executor = Executor::for_arm(&arm);
    let serial = executor.run(&serial_plan, &net, &input).unwrap();
    // Refuses to race without a certificate; re-verifies the one it has.
    let parallel = executor.run_parallel(&parallel_plan, &net, &input).unwrap();

    assert_eq!(serial.output.data(), parallel.output.data(), "parallel must be bit-exact");
    println!(
        "serial and parallel outputs are bit-identical: {:?} in {:.3} modeled ms",
        parallel.output.dims(),
        parallel.total_millis
    );

    // The serial plan carries no certificate, so the parallel mode refuses it.
    match executor.run_parallel(&serial_plan, &net, &input) {
        Err(CoreError::ParallelCertificateMissing) => {
            println!("uncertified plan correctly refused by run_parallel");
        }
        other => panic!("expected ParallelCertificateMissing, got {other:?}"),
    }
}
