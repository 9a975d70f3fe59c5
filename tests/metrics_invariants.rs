//! Metrics subsystem invariants (PR 8), end to end across crates:
//!
//! 1. The Prometheus exposition rendered from an instrumented serving-sim
//!    run passes the hand-rolled text-format validator.
//! 2. Histogram percentiles agree with the sim's exact nearest-rank
//!    percentiles within one log-linear bucket width.
//! 3. Rejected requests carry a typed reason and show up in
//!    `serve_rejected_total`.
//! 4. The drift auditor stays clean on an unperturbed executor run and
//!    flags an injected 2x cost-model perturbation on exactly the
//!    perturbed (shape, bits, backend) key.
//! 5. The real threaded server records its completions through the
//!    per-worker shards (the single counter mutex is gone).

use lowbit::prelude::*;
use lowbit::{ExecKey, ExecMetrics};
use lowbit_metrics::drift::DriftBand;
use lowbit_metrics::{prom, HistSpec, Registry};
use lowbit_serve::{
    simulate_instrumented, Arrival, BatchPolicy, RejectReason, RequestClass, ServeMetrics,
    Server, ServerConfig, SimConfig,
};
use std::sync::Arc;

fn instrumented_sim(
    rate_per_s: f64,
    queue_depth: usize,
) -> (Arc<ServeMetrics>, lowbit_serve::SimResult) {
    let class = RequestClass::demo(BitWidth::W4, 12, 9);
    let registry = Arc::new(Registry::new());
    let metrics = ServeMetrics::new(registry, &[class.name()], 25.0);
    let cfg = SimConfig {
        policy: BatchPolicy::Dynamic { max_batch: 16, deadline_ms: 2.0 },
        arrival: Arrival::OpenLoop { rate_per_s },
        requests: 1500,
        queue_depth,
        seed: 7,
        force_backend: None,
    };
    let result = simulate_instrumented(&class, &cfg, &metrics, 0);
    (metrics, result)
}

#[test]
fn sim_exposition_parses_with_handrolled_validator() {
    let (metrics, result) = instrumented_sim(3000.0, 64);
    assert!(result.completed > 0);
    let text = prom::render(&metrics.registry().snapshot());
    let samples = prom::validate(&text).expect("exposition must parse");
    assert!(samples > 100, "a sim run produces a substantial exposition, got {samples}");
    // Spot-check: completions flow into the counter family.
    assert_eq!(metrics.completed(0), result.completed as u64);
}

#[test]
fn histogram_percentiles_match_sim_nearest_rank_within_one_bucket() {
    let (metrics, result) = instrumented_sim(3000.0, 64);
    let spec = HistSpec::latency_ms();
    for (q, exact) in [(0.50, result.p50_ms), (0.95, result.p95_ms), (0.99, result.p99_ms)] {
        let from_hist = metrics.total_percentile(0, q);
        let width = spec.width_at(exact);
        assert!(
            (from_hist - exact).abs() <= width,
            "p{:.0}: histogram {from_hist} vs exact {exact} differ by more \
             than one bucket width ({width})",
            q * 100.0
        );
    }
}

#[test]
fn rejected_requests_are_counted_with_reason() {
    // Overload: open-loop arrivals far past capacity against a short queue.
    let (metrics, result) = instrumented_sim(20_000.0, 8);
    assert!(result.rejected > 0, "overload run must reject");
    assert_eq!(metrics.rejected(0, RejectReason::QueueFull), result.rejected as u64);
    assert_eq!(metrics.rejected(0, RejectReason::BadInput), 0);
    let text = prom::render(&metrics.registry().snapshot());
    prom::validate(&text).expect("exposition must parse");
    assert!(
        text.contains(r#"serve_rejected_total{class="demo-w4-12",reason="queue_full"}"#),
        "rejection counter must be exposed with its reason label"
    );
}

fn demo_input(hw: usize) -> Tensor<f32> {
    let data: Vec<f32> = (0..3 * hw * hw).map(|i| (i % 17) as f32 / 8.5 - 1.0).collect();
    Tensor::from_vec((1, 3, hw, hw), Layout::Nchw, data)
}

#[test]
fn drift_auditor_flags_injected_perturbation_on_exact_key() {
    let engine = ArmEngine::cortex_a53().with_threads(2);
    let net = Network::demo(BitWidth::W4, 16, 5);
    let plan = Planner::for_arm(&engine).compile(&net).unwrap();
    let input = demo_input(16);
    // Warm the prepack cache so the audited runs see the steady state the
    // plan's predictions model.
    Executor::for_arm(&engine).run(&plan, &net, &input).unwrap();

    let clean = ExecMetrics::new(Arc::new(Registry::new()));
    let exec = Executor::for_arm(&engine).with_metrics(&clean);
    for _ in 0..4 {
        exec.run(&plan, &net, &input).unwrap();
    }
    let report = clean.audit(DriftBand::default());
    assert!(report.clean(), "unperturbed run must have zero findings:\n{}", report.render());
    assert_eq!(report.keys.len(), net.layers().len(), "every layer key is audited");

    // Halve one layer's prediction: its observed/predicted ratio becomes
    // exactly 2x, well outside the default [0.75, 1.25] band.
    let mut layers = plan.layers().to_vec();
    layers[0].predicted_millis *= 0.5;
    let perturbed_key = ExecKey::of(&layers[0]);
    let perturbed_plan = plan.clone().with_layers(layers, plan.workspace_high_water_bytes());
    let metrics = ExecMetrics::new(Arc::new(Registry::new()));
    let exec = Executor::for_arm(&engine).with_metrics(&metrics);
    for _ in 0..4 {
        exec.run(&perturbed_plan, &net, &input).unwrap();
    }
    let report = metrics.audit(DriftBand::default());
    let findings = report.findings();
    assert_eq!(findings.len(), 1, "exactly the perturbed key drifts:\n{}", report.render());
    assert_eq!(findings[0].key, perturbed_key);
    assert!((findings[0].mean_ratio - 2.0).abs() < 1e-9);
    // The exposition carries the per-key observed/predicted histograms.
    let text = prom::render(&metrics.registry().snapshot());
    prom::validate(&text).expect("executor exposition must parse");
    assert!(text.contains("exec_layer_observed_ms_bucket"));
    assert!(text.contains("exec_layer_predicted_ms_bucket"));
}

#[test]
fn real_server_records_through_worker_shards() {
    let class = RequestClass::demo(BitWidth::W4, 12, 9);
    let config = ServerConfig {
        queue_depth: 32,
        policy: BatchPolicy::Fixed(4),
        workers: 2,
        arm_threads: 2,
        force_backend: None,
        parallel_nodes: false,
        slo_p99_ms: 10_000.0, // effectively unbounded: this test is about flow
    };
    let server = Server::start(vec![class.clone()], config, &Tracer::default());
    let metrics = server.metrics();
    let n = 16;
    let tickets: Vec<_> =
        (0..n).map(|i| server.submit(0, class.sample_input(i as u64)).unwrap()).collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, n as u64);
    // Both workers merged into the same registry families.
    assert_eq!(metrics.completed(0), n as u64);
    assert_eq!(metrics.slo_violations(0), 0);
    let text = prom::render(&metrics.registry().snapshot());
    let samples = prom::validate(&text).expect("server exposition must parse");
    assert!(samples > 0);
    assert!(metrics.total_percentile(0, 0.99) > 0.0, "stage histograms saw real samples");
}
