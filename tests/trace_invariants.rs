//! Observability invariants: modeled-cost conservation between the trace
//! spans and the engine's own estimates, Chrome-trace export round-trips,
//! and the disabled (`NullSink`) path staying allocation-free at steady
//! state.

use lowbit::prelude::*;
use lowbit::trace::chrome::{chrome_trace_json, validate_chrome_trace};
use lowbit::trace::SpanKind;
use lowbit::{stage_attribution, ArmAlgo};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

/// Counting wrapper around the system allocator: lets the steady-state test
/// prove a code path performs literally zero heap allocations.
///
/// The count is per thread and only runs while armed by
/// [`count_allocations`], so sibling tests allocating concurrently on their
/// own threads never leak into a measurement window.
struct CountingAlloc;

thread_local! {
    /// `Some(n)` while the current thread is measuring; `None` otherwise.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|c| c + 1)));
}

/// Runs `f` with allocation counting armed on this thread and returns how
/// many allocations (including reallocations) it made.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.replace(None)).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn demo_input(hw: usize) -> Tensor<f32> {
    let data: Vec<f32> = (0..3 * hw * hw).map(|i| (i % 17) as f32 / 8.5 - 1.0).collect();
    Tensor::from_vec((1, 3, hw, hw), Layout::Nchw, data)
}

/// Compiles `net` for the ARM engine and runs it once under `tracer`.
fn run_on_arm(net: &Network, engine: &ArmEngine, input: &Tensor<f32>, tracer: &Tracer) -> NetworkRun {
    let plan = Planner::for_arm(engine).compile(net).expect("ARM serves every bit width");
    Executor::for_arm(engine)
        .run_traced(&plan, net, input, tracer)
        .expect("plan compiled from this network")
}

/// Per-layer modeled GPU reports for `net`, stage spans recorded on `tracer`.
fn estimate_gpu(net: &Network, tracer: &Tracer) -> Vec<LayerReport> {
    let gpu = GpuEngine::rtx2080ti();
    let plan = Planner::for_gpu(&gpu, Tuning::Default)
        .compile(net)
        .expect("demo network is GPU-estimable");
    Executor::for_gpu(&gpu).estimate(&plan, tracer).expect("GPU backend registered")
}

/// The conservation invariant from DESIGN.md: summing the per-stage
/// `modeled_cycles` attribution of the spans on a layer's modeled track and
/// converting through the engine's cost model must reproduce the layer's
/// reported modeled milliseconds (which is also what `estimate_millis`
/// returns for the same shape/algo once the weights are prepacked).
#[test]
fn modeled_span_attribution_conserves_layer_millis() {
    for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(bits, 16, 5);
        let input = demo_input(16);
        let (tracer, sink) = Tracer::recording();
        // Warm run fills the prepack cache so the traced run's estimate
        // matches `estimate_millis` (which models the steady state).
        run_on_arm(&net, &engine, &input, &Tracer::null());
        let NetworkRun { reports, total_millis: total, .. } =
            run_on_arm(&net, &engine, &input, &tracer);
        let cap = sink.capture();

        let mut sum_of_layers = 0.0f64;
        for (report, layer) in reports.iter().zip(net.layers()) {
            let track = cap
                .track_id(&format!("modeled/{}", report.name))
                .unwrap_or_else(|| panic!("{bits}: no modeled track for {}", report.name));
            let cycles: f64 = cap
                .spans_on(track)
                .filter_map(|s| s.attr.as_ref())
                .map(|a| a.modeled_cycles)
                .sum();
            let rebuilt = engine.model().millis(cycles);
            assert!(
                (rebuilt - report.millis).abs() < 1e-9,
                "{bits} {}: span attribution {rebuilt} ms != report {} ms",
                report.name,
                report.millis
            );
            let estimate = engine.estimate_millis(
                bits,
                &layer.shape,
                report.arm_algo().expect("demo layers run on the ARM backend"),
            );
            assert!(
                (rebuilt - estimate).abs() < 1e-9,
                "{bits} {}: span attribution {rebuilt} ms != estimate {estimate} ms",
                report.name
            );
            sum_of_layers += report.millis;
        }
        assert!(
            (sum_of_layers - total).abs() < 1e-9,
            "{bits}: layer sum {sum_of_layers} != network total {total}"
        );
    }
}

/// Per-stage attribution recomputed from the schedule must match what the
/// modeled spans carry, stage for stage, and total instruction counts must
/// agree with the schedule's own accounting.
#[test]
fn modeled_spans_mirror_schedule_stages() {
    let engine = ArmEngine::cortex_a53();
    let shape = ConvShape::new(1, 6, 12, 12, 8, 3, 1, 1);
    let (input, weights) = lowbit_suite::arm_tensors(&shape, BitWidth::W4, 42);
    let (tracer, sink) = Tracer::recording();
    let result = engine.conv_traced(&input, &weights, &shape, ArmAlgo::Gemm, &tracer, "probe");
    let cap = sink.capture();

    let track = cap.track_id("modeled/probe").expect("modeled track registered");
    let spans: Vec<_> = cap.spans_on(track).filter(|s| s.attr.is_some()).collect();
    assert_eq!(spans.len(), result.schedule.stages.len(), "one span per stage");
    for (span, stage) in spans.iter().zip(&result.schedule.stages) {
        assert_eq!(span.name, stage.name);
        assert_eq!(span.kind, SpanKind::Modeled);
        let expect = stage_attribution(stage, engine.model());
        let got = span.attr.as_ref().unwrap();
        assert_eq!(got.modeled_cycles, expect.modeled_cycles, "{}", stage.name);
        assert_eq!(got.loads, expect.loads);
        assert_eq!(got.stores, expect.stores);
        assert_eq!(got.neon_mac, expect.neon_mac);
    }
    let span_cycles: f64 = spans.iter().map(|s| s.attr.as_ref().unwrap().modeled_cycles).sum();
    let sched_cycles = result.schedule.cycles(engine.model());
    assert!((span_cycles - sched_cycles).abs() < 1e-9);
    assert!((engine.model().millis(sched_cycles) - result.millis).abs() < 1e-9);
}

/// GPU modeled tracks lay the five pipeline stages back-to-back under one
/// parent span whose extent is exactly the sum of its children.
#[test]
fn gpu_modeled_stages_tile_the_parent_span() {
    let net = Network::demo(BitWidth::W4, 16, 5);
    let (tracer, sink) = Tracer::recording();
    let layers = estimate_gpu(&net, &tracer);
    let cap = sink.capture();
    assert_eq!(layers.len(), 3);
    for layer in &layers {
        let track = cap
            .track_id(&format!("gpu modeled/{}", layer.name))
            .unwrap_or_else(|| panic!("no gpu modeled track for {}", layer.name));
        let spans: Vec<_> = cap.spans_on(track).collect();
        let parent = spans.iter().find(|s| s.name == "gpu conv modeled").expect("parent span");
        let children: Vec<_> = spans.iter().filter(|s| s.name != "gpu conv modeled").collect();
        assert_eq!(children.len(), 5, "{}: launch/load/reorder/mma/epilogue", layer.name);
        let mut cursor = parent.start_ns;
        for child in &children {
            assert_eq!(child.start_ns, cursor, "{}: {} stage is contiguous", layer.name, child.name);
            cursor += child.dur_ns;
        }
        assert_eq!(cursor, parent.end_ns(), "{}: children tile the parent", layer.name);
    }
}

/// The Chrome-trace exporter's output must round-trip through the validator:
/// parseable JSON, properly nested spans on every track, monotone counters.
#[test]
fn chrome_trace_export_round_trips() {
    let engine = ArmEngine::cortex_a53().with_threads(2);
    let net = Network::demo(BitWidth::W4, 16, 5);
    let input = demo_input(16);
    let (tracer, sink) = Tracer::recording();
    run_on_arm(&net, &engine, &input, &tracer);
    run_on_arm(&net, &engine, &input, &tracer);
    estimate_gpu(&net, &tracer);
    let json = chrome_trace_json(&sink.capture());
    let v = validate_chrome_trace(&json).expect("export must satisfy its own validator");
    assert!(v.spans > 0 && v.counters > 0 && v.tracks > 1, "non-trivial capture: {v:?}");
}

/// Satellite 6: with the default (null) tracer, repeated inference on a
/// warmed engine performs zero new workspace allocations and no prepacking —
/// observability off must mean observability free.
#[test]
fn null_tracer_steady_state_allocates_nothing() {
    let engine = ArmEngine::cortex_a53().with_threads(2);
    let net = Network::demo(BitWidth::W4, 16, 5);
    let input = demo_input(16);
    // Warm up: fill the prepack cache and grow the workspace arena.
    let plan = Planner::for_arm(&engine).compile(&net).unwrap();
    let exec = Executor::for_arm(&engine);
    exec.run(&plan, &net, &input).unwrap();
    exec.run(&plan, &net, &input).unwrap();
    let ws = engine.workspace_stats();
    let pack = engine.prepack_stats();
    for _ in 0..5 {
        exec.run(&plan, &net, &input).unwrap();
    }
    let after_ws = engine.workspace_stats();
    let after_pack = engine.prepack_stats();
    assert_eq!(after_ws.alloc_events, ws.alloc_events, "steady state grew a buffer");
    assert_eq!(after_ws.high_water_bytes, ws.high_water_bytes);
    assert_eq!(after_pack.misses, pack.misses, "steady state re-packed weights");
    assert_eq!(after_pack.bytes, pack.bytes);
    assert!(after_pack.hits > pack.hits, "cache should be serving hits");
}

/// PR 8 extension of the steady-state claim: per-worker metric shard
/// recording — the serving hot path — performs zero heap allocations once
/// the instruments are registered. Proven with a counting global allocator
/// rather than arena stats, because shards live on the heap, not in the
/// workspace.
#[test]
fn metric_shard_recording_allocates_nothing_at_steady_state() {
    use lowbit_metrics::Registry;
    let registry = Registry::new();
    let completed =
        registry.counter("steady_completed_total", "test counter", &[("class", "demo")]);
    let burn = registry.gauge("steady_burn", "test gauge", &[("class", "demo")]);
    let hist = registry.histogram(
        "steady_total_ms",
        "test histogram",
        &[("class", "demo")],
        lowbit_metrics::HistSpec::latency_ms(),
    );
    let shard = hist.shard();
    // Warm every path once: lazy init (e.g. a mutex poisoning flag or a
    // first-touch branch) must not count against the steady state.
    completed.inc();
    burn.set(0.5);
    shard.record(1.25);

    let allocations = count_allocations(|| {
        for i in 0..10_000u64 {
            completed.inc();
            burn.set(i as f64 / 100.0);
            shard.record(0.5 + (i % 64) as f64);
        }
    });
    assert_eq!(allocations, 0, "shard recording must be allocation-free on the hot path");
}

/// What a warm `ArmEngine::conv` allocates is a fixed set of small buffers
/// (the output tensor, the schedule, and the GEMM driver's share lists;
/// DESIGN.md §4c names them), not scratch that grows with the layer:
/// on every engine kernel a small and a large layer make the same number of
/// allocations once the weights are packed and the arena is grown. The ncnn
/// baseline, the narrow tile under its own scheme on the narrow tile's
/// packed weights, makes exactly as many as the narrow tile, and a warm
/// one-thread Winograd conv makes at most 4.
#[test]
fn warm_conv_allocations_do_not_grow_with_the_layer() {
    let engine = ArmEngine::cortex_a53().with_threads(1);
    let bits = BitWidth::W4;
    // The large layer spans two K blocks (K = 432) and four N blocks
    // (N = 400) of the default blocking; the small one a single block of each.
    let shapes = [ConvShape::new(1, 4, 6, 6, 8, 3, 1, 1), ConvShape::new(1, 48, 20, 20, 40, 3, 1, 1)];
    let layers = shapes.map(|shape| {
        let (input, weights) = lowbit_suite::arm_tensors(&shape, bits, 7);
        (shape, input, weights)
    });
    let algos = [
        ArmAlgo::Gemm,
        ArmAlgo::GemmNarrow,
        ArmAlgo::GemmSdot,
        ArmAlgo::Winograd,
        ArmAlgo::NcnnBaseline,
    ];
    let counts = algos.map(|algo| {
        let conv = |(shape, input, weights): &(ConvShape, QTensor, QTensor)| {
            engine.conv(input, weights, shape, algo);
        };
        layers.iter().for_each(conv);
        let [small, large] = layers.each_ref().map(|layer| count_allocations(|| conv(layer)));
        assert_eq!(small, large, "{algo:?}: {small} allocations on the small layer vs {large}");
        small
    });
    let (narrow, ncnn) = (counts[1], counts[4]);
    assert_eq!(ncnn, narrow, "the ncnn baseline makes {ncnn} allocations, the narrow tile {narrow}");
    // Winograd's 16 position GEMMs add straight into the output planes and
    // allocate nothing, so a warm call makes only the engine conv's own 4:
    // the output buffer and the warm schedule's 3. One allocation per GEMM
    // call would add 16, which the small-vs-large comparison cannot see.
    let winograd = counts[3];
    assert!(winograd <= 4, "a warm Winograd conv makes {winograd} allocations, not <= 4");
}
