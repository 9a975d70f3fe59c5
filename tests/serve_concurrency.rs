//! Concurrent-execution guarantees behind the serving layer: shared-engine
//! `Executor::run` stays bit-exact under threads, the plan cache compiles
//! each key exactly once under races, and the threaded server round-trips
//! requests correctly with typed backpressure and a valid trace.

use lowbit::prelude::*;
use lowbit_serve::{
    BatchPolicy, PlanCache, PlanKey, RejectReason, RequestClass, Server, ServerConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn demo_input(net: &Network, seed: u64) -> Tensor<f32> {
    let s = &net.layers()[0].shape;
    let dims = (s.batch, s.c_in, s.h, s.w);
    let len = dims.0 * dims.1 * dims.2 * dims.3;
    Tensor::from_vec(
        dims,
        Layout::Nchw,
        (0..len).map(|i| ((i as u64 * 31 + seed * 17) % 23) as f32 / 11.5 - 1.0).collect(),
    )
}

#[test]
fn concurrent_executor_runs_stay_bit_exact() {
    let net = Arc::new(Network::demo(BitWidth::W4, 12, 9));
    let engine = ArmEngine::cortex_a53().with_threads(2);
    let plan = Arc::new(Planner::for_arm(&engine).compile(&net).unwrap());
    let executor = Executor::for_arm(&engine);
    let input = demo_input(&net, 3);

    let serial = executor.run(&plan, &net, &input).unwrap().output;

    // 4 threads x 5 runs against the SAME engine (shared prepack cache and
    // workspace arena) must all reproduce the serial result bit for bit.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (executor, plan, net, input, serial) =
                (&executor, &plan, &net, &input, &serial);
            scope.spawn(move || {
                for _ in 0..5 {
                    let run = executor.run(plan, net, input).unwrap();
                    assert_eq!(run.output.data(), serial.data(), "racy divergence");
                }
            });
        }
    });
}

#[test]
fn plan_cache_compiles_exactly_once_under_racing_lookups() {
    let cache = Arc::new(PlanCache::new());
    let net = Arc::new(Network::demo(BitWidth::W4, 12, 9));
    let engine = ArmEngine::cortex_a53();
    let compiles = Arc::new(AtomicUsize::new(0));
    let key = PlanKey {
        fingerprint: net.fingerprint(),
        batch: 4,
        backend: BackendKind::Arm,
        parallel: false,
    };

    let plans: Vec<Arc<ExecutionPlan>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (cache, net, engine, compiles) = (&cache, &net, &engine, &compiles);
                scope.spawn(move || {
                    let (plan, _hit) = cache
                        .get_or_compile(key, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: every thread reaches the
                            // lookup before the winner finishes compiling.
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            Planner::for_arm(engine).compile(net)
                        })
                        .unwrap();
                    plan
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(compiles.load(Ordering::SeqCst), 1, "one compile per key");
    for p in &plans[1..] {
        assert!(Arc::ptr_eq(&plans[0], p), "all lookups share one plan");
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (7, 1, 1));
}

#[test]
fn server_round_trip_matches_direct_batch1_execution() {
    let class = RequestClass::demo(BitWidth::W4, 12, 9);
    let config = ServerConfig {
        queue_depth: 16,
        policy: BatchPolicy::Fixed(4),
        workers: 1,
        arm_threads: 2,
        force_backend: Some(BackendKind::Arm),
        parallel_nodes: false,
        slo_p99_ms: 50.0,
    };
    let server = Server::start(vec![class.clone()], config, &Tracer::default());

    let input = class.sample_input(5);
    let tickets: Vec<_> = (0..4)
        .map(|_| server.submit(0, input.clone()).expect("queue has room"))
        .collect();
    let responses: Vec<_> =
        tickets.into_iter().map(|t| t.wait().expect("request served")).collect();
    let stats = server.shutdown();

    // One Fixed(4) batch, attributed as such on every response.
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.batch_histogram, vec![(4, 1)]);
    for r in &responses {
        assert_eq!(r.timing.batch_formed, 4);
        assert_eq!(r.timing.batch_bucket, 4);
        assert_eq!(r.timing.backend, BackendKind::Arm);
        assert_eq!(r.output.data(), responses[0].output.data(), "same input, same output");
        assert!(r.timing.total_ms() >= 0.0);
    }

    // Identical inputs batched together must equal the batch-1 run.
    let engine = ArmEngine::cortex_a53().with_threads(2);
    let plan = Planner::for_arm(&engine).compile(class.template()).unwrap();
    let direct = Executor::for_arm(&engine)
        .run(&plan, class.template(), &input)
        .unwrap();
    assert_eq!(responses[0].output.data(), direct.output.data(), "batching changed results");
}

#[test]
fn parallel_node_serving_matches_serial_serving_bit_for_bit() {
    // A genuinely wide DAG (the ResNet-50 projection block) served twice:
    // once serially, once with the certified parallel node scheduler. The
    // parallel server must produce bit-identical outputs.
    let def = lowbit::models::resnet50_projection_block(8);
    let net = Network::from_graph_defs(&def, BitWidth::W4, 11).unwrap();
    let class = RequestClass::from_network("projection-w4", net);
    let serve = |parallel_nodes: bool| {
        let config = ServerConfig {
            queue_depth: 16,
            policy: BatchPolicy::Fixed(2),
            workers: 1,
            arm_threads: 2,
            force_backend: Some(BackendKind::Arm),
            parallel_nodes,
            slo_p99_ms: 50.0,
        };
        let server = Server::start(vec![class.clone()], config, &Tracer::default());
        let tickets: Vec<_> = (0..2)
            .map(|i| server.submit(0, class.sample_input(i)).expect("queue has room"))
            .collect();
        let outputs: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("request served").output)
            .collect();
        server.shutdown();
        outputs
    };
    let serial = serve(false);
    let parallel = serve(true);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.data(), p.data(), "parallel serving diverged from serial");
    }
}

#[test]
fn full_queue_rejects_submissions_with_typed_backpressure() {
    let class = RequestClass::demo(BitWidth::W4, 12, 9);
    let config = ServerConfig {
        queue_depth: 2,
        // A Fixed(64) batch can never fill: requests sit in the queue until
        // shutdown flushes them, so submissions 3.. see a full queue.
        policy: BatchPolicy::Fixed(64),
        workers: 1,
        arm_threads: 1,
        force_backend: Some(BackendKind::Arm),
        parallel_nodes: false,
        slo_p99_ms: 50.0,
    };
    let server = Server::start(vec![class.clone()], config, &Tracer::default());

    let mut tickets = Vec::new();
    let mut rejected = 0;
    for i in 0..10 {
        match server.submit(0, class.sample_input(i)) {
            Ok(t) => tickets.push(t),
            Err(CoreError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected >= 8 - tickets.len(), "most submissions must bounce");
    assert!(!tickets.is_empty(), "the first submissions were admitted");

    // Wrong input shape is rejected before touching the queue.
    let bad = Tensor::zeros((1, 3, 5, 5), Layout::Nchw);
    assert!(matches!(
        server.submit(0, bad),
        Err(CoreError::InputShapeMismatch { .. })
    ));

    // Shutdown flushes the partial Fixed(64) batch: admitted requests still
    // complete. (Shut down first — the batch only closes on queue close, so
    // waiting on tickets before shutdown would block forever.)
    let admitted = tickets.len();
    let stats = server.shutdown();
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    for r in &results {
        assert!(r.is_ok(), "admitted request failed: {r:?}");
    }
    assert_eq!(stats.completed, admitted as u64);
    assert_eq!(stats.queues[0].rejected, rejected as u64);
}

#[test]
fn non_finite_submissions_are_rejected_as_bad_input() {
    let class = RequestClass::demo(BitWidth::W4, 12, 9);
    let config = ServerConfig {
        queue_depth: 16,
        policy: BatchPolicy::Dynamic { max_batch: 4, deadline_ms: 5.0 },
        workers: 1,
        arm_threads: 1,
        force_backend: Some(BackendKind::Arm),
        parallel_nodes: false,
        slo_p99_ms: 50.0,
    };
    let server = Server::start(vec![class.clone()], config, &Tracer::default());
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut input = class.sample_input(1);
        input.data_mut()[40] = bad;
        match server.submit(0, input) {
            Err(CoreError::NonFiniteInput { index: 40 }) => {}
            other => panic!("{bad}: expected a non-finite rejection, got {:?}", other.err()),
        }
    }
    assert_eq!(server.metrics().rejected(0, RejectReason::BadInput), 3);
    // The rejected requests never reached a batch: a clean one still runs.
    let ticket = server.submit(0, class.sample_input(2)).expect("clean input is admitted");
    assert!(ticket.wait().is_ok());
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.queues[0].rejected), (1, 0));
}

#[test]
fn dynamic_deadline_serves_partial_batches_without_shutdown() {
    let class = RequestClass::demo(BitWidth::W4, 12, 9);
    let config = ServerConfig {
        queue_depth: 16,
        policy: BatchPolicy::Dynamic { max_batch: 16, deadline_ms: 20.0 },
        workers: 2,
        arm_threads: 1,
        force_backend: Some(BackendKind::Arm),
        parallel_nodes: false,
        slo_p99_ms: 50.0,
    };
    let server = Server::start(vec![class.clone()], config, &Tracer::default());
    let tickets: Vec<_> =
        (0..3).map(|i| server.submit(0, class.sample_input(i)).unwrap()).collect();
    // The deadline — not shutdown — closes this 3-request batch.
    for t in tickets {
        let r = t.wait().expect("deadline flushes the partial batch");
        assert_eq!(r.timing.batch_formed, 3);
        assert_eq!(r.timing.batch_bucket, 4, "3 requests pad up to the 4-bucket");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
}

#[test]
fn traced_server_run_produces_a_valid_chrome_trace() {
    let class = RequestClass::demo(BitWidth::W4, 12, 9);
    let (tracer, sink) = Tracer::recording();
    let config = ServerConfig {
        queue_depth: 32,
        policy: BatchPolicy::Dynamic { max_batch: 4, deadline_ms: 2.0 },
        workers: 1, // single worker: executor wall spans cannot interleave
        arm_threads: 2,
        force_backend: None,
        parallel_nodes: false,
        slo_p99_ms: 50.0,
    };
    let server = Server::start(vec![class.clone()], config, &tracer);
    let tickets: Vec<_> =
        (0..12).map(|i| server.submit(0, class.sample_input(i)).unwrap()).collect();
    for t in tickets {
        t.wait().expect("request served");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 12);
    assert!(stats.plan_cache.hits + stats.plan_cache.misses >= stats.batches);

    let chrome = lowbit_trace::chrome::chrome_trace_json(&sink.capture());
    let v = lowbit_trace::chrome::validate_chrome_trace(&chrome)
        .expect("server trace must pass nesting and monotonicity validation");
    assert!(v.spans > 0, "trace captured spans");
    assert!(v.counters > 0, "trace captured server counters");
    // Per-request attribution tracks made it into the trace.
    assert!(
        chrome.contains("req/demo-w4-12/0"),
        "per-request track missing from chrome trace"
    );
    for counter in ["serve_admitted_total", "serve_completed_total", "plan_cache_hits_total"] {
        assert!(chrome.contains(counter), "missing counter {counter}");
    }
}
