//! End-to-end quantized inference through a small sequential network via
//! the plan/execute pipeline: the planner compiles the network once
//! (offline phase — algorithm choice, prepack fingerprints, workspace
//! sizing), the executor runs the plan (online phase) — float in, quantized
//! all the way through (with fused ReLU truncation), float out, plus the
//! per-layer backend/algorithm/time breakdown and prepack/workspace
//! accounting.
//!
//! ```sh
//! cargo run --release --example network_e2e
//! # capture a trace and open it in Perfetto / chrome://tracing:
//! LOWBIT_TRACE=trace.json cargo run --release --example network_e2e
//! ```
use lowbit::prelude::*;
use lowbit::trace::{chrome::chrome_trace_json, flame::flame_table};
use lowbit::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let trace_path = std::env::var("LOWBIT_TRACE").ok();
    let engine = ArmEngine::cortex_a53();
    let (tracer, sink) = match trace_path {
        Some(_) => {
            let (t, s) = Tracer::recording();
            (t, Some(s))
        }
        None => (Tracer::null(), None),
    };
    for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
        let net = Network::demo(bits, 24, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let input = Tensor::from_vec(
            (1, 3, 24, 24),
            Layout::Nchw,
            (0..3 * 24 * 24).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        // Offline phase: compile the network once; the plan carries every
        // per-layer decision. Online phase: execute it (any number of times).
        let plan = Planner::for_arm(&engine).compile(&net).expect("ARM serves all widths");
        let run = Executor::for_arm(&engine)
            .run_traced(&plan, &net, &input, &tracer)
            .expect("plan compiled from this network");
        let (out, reports, total) = (run.output, run.reports, run.total_millis);
        println!("{bits} network ({} layers, predicted {:.3} ms):", reports.len(), plan.predicted_millis());
        for r in &reports {
            let cache = if r.prepack_hits > 0 {
                "prepack hit"
            } else if r.prepack_misses > 0 {
                "prepack miss"
            } else {
                "no prepack"
            };
            println!(
                "  {:<8} {:>9} {:>12} {:>8.3} ms  {:<12} ws +{} B",
                r.name,
                r.algo.backend().to_string(),
                r.algo.to_string(),
                r.millis,
                cache,
                r.workspace_growth_bytes
            );
        }
        let energy: f32 = out.data().iter().map(|v| v * v).sum();
        println!("  total {total:.3} modeled ms, output {:?}, energy {energy:.1}\n", out.dims());
    }
    let pack = engine.prepack_stats();
    let ws = engine.workspace_stats();
    println!(
        "prepack cache: {} hits / {} misses, {} entries ({} B); workspace high water {} B",
        pack.hits, pack.misses, pack.entries, pack.bytes, ws.high_water_bytes
    );
    if let (Some(path), Some(sink)) = (std::env::var("LOWBIT_TRACE").ok(), sink) {
        let cap = sink.capture();
        std::fs::write(&path, chrome_trace_json(&cap)).expect("write trace file");
        println!("\nflamegraph-style profile (aggregated over all runs):");
        print!("{}", flame_table(&cap));
        println!("\nwrote Chrome trace to {path} — open it at https://ui.perfetto.dev");
    }
    println!("\nLower bit widths run the same network faster with the same plumbing —");
    println!("the paper's end-to-end deployment story.");
}
