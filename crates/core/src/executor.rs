//! The backend-agnostic [`Executor`] — the online phase: runs any compiled
//! [`ExecutionPlan`] through the [`Backend`] trait without making a single
//! algorithm or tiling decision itself.
//!
//! The executor owns the inter-layer glue: quantize the float input once,
//! keep activations quantized through every node, apply each layer's fused
//! epilogue (bias + re-quantization + ReLU truncation), store each value in
//! the layout the plan records for it (each backend converts its own input
//! to its native layout), and dequantize at the end. Serial and
//! parallel runs share one wave loop: serial execution is the schedule of
//! one-node waves in node order, the parallel mode runs the plan's
//! certified waves.

use crate::arm::ArmEngine;
use crate::error::CoreError;
use crate::gpu::{GpuEngine, Tuning};
use crate::metrics::{ExecKey, ExecMetrics};
use crate::network::{LayerReport, Network};
use crate::plan::{BackendKind, ExecutionPlan, LayerPlan, PlanAlgo, PlanOp};
use std::borrow::Cow;
use std::sync::Arc;
use lowbit_conv_gpu::ConvGpuPlan;
use lowbit_qgemm::parallel::fan_out;
use lowbit_qnn::{quantize_f32, requantize_with_bias, Quantizer};
use lowbit_tensor::{Layout, QTensor, Tensor};
use lowbit_trace::{Tracer, MAIN_TRACK};
use turing_sim::KernelTime;

/// An engine that can execute and estimate planned layers. Implemented by
/// [`ArmEngine`] and [`GpuEngine`]; the executor only ever talks through
/// this trait.
pub trait Backend {
    /// Executes one planned layer on quantized activations in any layout
    /// (the backend converts them to its native layout, borrowing when they
    /// already are), recording the same spans the engine's direct API
    /// records: the exact i32 accumulators, in the backend's native layout,
    /// and the layer's report.
    fn execute_layer(
        &self,
        plan: &LayerPlan,
        act: &QTensor,
        weights: &QTensor,
        tracer: &Tracer,
    ) -> Result<(Tensor<i32>, LayerReport), CoreError>;

    /// Models one planned layer without executing (recording modeled-stage
    /// spans when the tracer is live); the report's prepack and workspace
    /// fields are zero, as estimation touches no state.
    fn estimate_layer(&self, plan: &LayerPlan, tracer: &Tracer) -> Result<LayerReport, CoreError>;
}

/// The error of a [`Backend`] handed a layer whose algorithm another engine
/// runs (the executor routes by [`PlanAlgo::backend`]; direct trait calls
/// can still mismatch).
fn wrong_algo(plan: &LayerPlan, backend: BackendKind) -> CoreError {
    CoreError::PlanMismatch {
        detail: format!("{}: {} layer routed to the {backend} backend", plan.name, plan.algo),
    }
}

impl Backend for ArmEngine {
    fn execute_layer(
        &self,
        plan: &LayerPlan,
        act: &QTensor,
        weights: &QTensor,
        tracer: &Tracer,
    ) -> Result<(Tensor<i32>, LayerReport), CoreError> {
        let PlanAlgo::Arm(algo) = plan.algo else {
            return Err(wrong_algo(plan, BackendKind::Arm));
        };
        let act = in_layout(act, BackendKind::Arm.native_layout());
        let out = self.conv_traced(&act, weights, &plan.shape, algo, tracer, &plan.name);
        let report = LayerReport {
            prepack_hits: u64::from(out.prepack_hit == Some(true)),
            prepack_misses: u64::from(out.prepack_hit == Some(false)),
            workspace_growth_bytes: out.workspace_growth_bytes,
            ..LayerReport::modeled(plan, out.millis, None)
        };
        Ok((out.acc, report))
    }

    fn estimate_layer(&self, plan: &LayerPlan, _tracer: &Tracer) -> Result<LayerReport, CoreError> {
        let PlanAlgo::Arm(algo) = plan.algo else {
            return Err(wrong_algo(plan, BackendKind::Arm));
        };
        let millis = self.estimate_millis(plan.bits, &plan.shape, algo);
        Ok(LayerReport::modeled(plan, millis, None))
    }
}

impl Backend for GpuEngine {
    fn execute_layer(
        &self,
        plan: &LayerPlan,
        act: &QTensor,
        weights: &QTensor,
        tracer: &Tracer,
    ) -> Result<(Tensor<i32>, LayerReport), CoreError> {
        let PlanAlgo::GpuImplicitGemm(cfg) = plan.algo else {
            return Err(wrong_algo(plan, BackendKind::GpuModel));
        };
        // The kernel's precision comes from the plan, so wider operands
        // would not fit its Tensor Core path.
        let wide = act.bits().max(weights.bits());
        if wide > plan.bits {
            return Err(CoreError::PlanMismatch {
                detail: format!("{}: {wide} operands on a {} plan", plan.name, plan.bits),
            });
        }
        let gpu_plan = self.plan(&plan.shape, plan.bits, Tuning::Fixed(cfg));
        let time = modeled_gpu_time(self, &gpu_plan, plan, tracer);
        let native = BackendKind::GpuModel.native_layout();
        let (acc, _) = gpu_plan.execute(&in_layout(act, native), &in_layout(weights, native));
        Ok((acc, LayerReport::modeled(plan, time.total_s * 1e3, Some(time))))
    }

    fn estimate_layer(&self, plan: &LayerPlan, tracer: &Tracer) -> Result<LayerReport, CoreError> {
        let PlanAlgo::GpuImplicitGemm(cfg) = plan.algo else {
            return Err(wrong_algo(plan, BackendKind::GpuModel));
        };
        let gpu_plan = self.plan(&plan.shape, plan.bits, Tuning::Fixed(cfg));
        let time = modeled_gpu_time(self, &gpu_plan, plan, tracer);
        Ok(LayerReport::modeled(plan, time.total_s * 1e3, Some(time)))
    }
}

/// Models a layer's built GPU plan on `engine`'s device and lays its modeled
/// stages (launch overhead, global load, shared-memory reorder, MMA,
/// epilogue) back to back on a `gpu modeled/<layer>` track. The serialized
/// layout makes per-stage magnitudes comparable in a viewer; the engine's
/// `total_s` is *less* than the span sum whenever the double buffer
/// overlaps DRAM under compute (the Fig. 6 mechanism), and the parent
/// span's label records that total.
fn modeled_gpu_time(
    engine: &GpuEngine,
    gpu_plan: &ConvGpuPlan,
    plan: &LayerPlan,
    tracer: &Tracer,
) -> KernelTime {
    let time = gpu_plan.time(engine.device());
    if tracer.enabled() {
        tracer.modeled_stages(
            tracer.track(&format!("gpu modeled/{}", plan.name)),
            "gpu conv modeled",
            format!("{}: {} total {:.3}us", plan.name, plan.bits, time.total_us()),
            [
                ("launch", time.launch_s, None),
                ("global load", time.dram_s, None),
                ("smem reorder", time.smem_s, None),
                ("mma", time.mma_s, None),
                ("epilogue", time.epilogue_s, None),
            ],
        );
    }
    time
}

/// What computing one DAG node yields: the produced tensor, its scale, and
/// — for conv nodes — the unified layer report.
type NodeOutcome = Result<(QTensor, f32, Option<LayerReport>), CoreError>;

/// Result of executing a plan over a network.
#[derive(Clone, Debug)]
pub struct NetworkRun {
    /// Dequantized float output.
    pub output: Tensor<f32>,
    /// One unified report per layer.
    pub reports: Vec<LayerReport>,
    /// Total modeled milliseconds.
    pub total_millis: f64,
}

/// Runs compiled plans through registered backends.
#[derive(Clone, Debug, Default)]
pub struct Executor {
    arm: Option<ArmEngine>,
    gpu: Option<GpuEngine>,
    metrics: Option<Arc<ExecMetrics>>,
}

impl Executor {
    /// An empty executor; register backends with [`Executor::with_arm`] /
    /// [`Executor::with_gpu`].
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Registers the ARM backend (shares the engine's caches).
    pub fn with_arm(mut self, engine: &ArmEngine) -> Executor {
        self.arm = Some(engine.clone());
        self
    }

    /// Registers the GPU backend.
    pub fn with_gpu(mut self, engine: &GpuEngine) -> Executor {
        self.gpu = Some(engine.clone());
        self
    }

    /// Attaches production metrics: every executed layer records its
    /// predicted-vs-observed millis under its `(shape, bits, backend)` key,
    /// feeding the drift auditor. Clones share the handle.
    pub fn with_metrics(mut self, metrics: &Arc<ExecMetrics>) -> Executor {
        self.metrics = Some(metrics.clone());
        self
    }

    /// An ARM-only executor.
    pub fn for_arm(engine: &ArmEngine) -> Executor {
        Executor::new().with_arm(engine)
    }

    /// A GPU-only executor.
    pub fn for_gpu(engine: &GpuEngine) -> Executor {
        Executor::new().with_gpu(engine)
    }

    fn backend_for(&self, kind: BackendKind) -> Result<&dyn Backend, CoreError> {
        match kind {
            BackendKind::Arm => self
                .arm
                .as_ref()
                .map(|e| e as &dyn Backend)
                .ok_or(CoreError::MissingBackend { backend: kind }),
            BackendKind::GpuModel => self
                .gpu
                .as_ref()
                .map(|e| e as &dyn Backend)
                .ok_or(CoreError::MissingBackend { backend: kind }),
        }
    }

    /// Runs `plan` over `net` on a float input: quantize once, stay
    /// quantized through every layer (fused epilogue applied between
    /// layers), dequantize at the end.
    pub fn run(
        &self,
        plan: &ExecutionPlan,
        net: &Network,
        input: &Tensor<f32>,
    ) -> Result<NetworkRun, CoreError> {
        self.run_traced(plan, net, input, &Tracer::null())
    }

    /// [`Executor::run`] with span recording: each layer gets a parent wall
    /// span (labelled with its algorithm and prepack hit/miss) over the
    /// backend's spans plus a `requantize` span, and — when the ARM engine
    /// is registered — four monotone engine counters. Serial execution is
    /// the one-node-wave schedule in node order.
    pub fn run_traced(
        &self,
        plan: &ExecutionPlan,
        net: &Network,
        input: &Tensor<f32>,
        tracer: &Tracer,
    ) -> Result<NetworkRun, CoreError> {
        let order: Vec<usize> = (0..plan.nodes().len()).collect();
        self.run_waves(plan, net, input, order.chunks(1), tracer)
    }

    /// Runs `plan` with independent DAG nodes executing concurrently —
    /// **only** when the plan carries a certified parallel schedule (see
    /// [`crate::planner::Planner::with_parallel_nodes`]). The certificate
    /// is re-verified against the plan before the first node runs, so a
    /// schedule that was forged or has drifted from the plan it was issued
    /// for is rejected ([`CoreError::ConcRejected`]) rather than raced.
    pub fn run_parallel(
        &self,
        plan: &ExecutionPlan,
        net: &Network,
        input: &Tensor<f32>,
    ) -> Result<NetworkRun, CoreError> {
        self.run_parallel_traced(plan, net, input, &Tracer::null())
    }

    /// [`Executor::run_parallel`] with span recording. Wave-mates' spans
    /// interleave on the shared tracks (their wall spans genuinely overlap);
    /// everything else about the observable output is bit-exact against
    /// [`Executor::run_traced`], which runs the same wave loop one node per
    /// wave.
    pub fn run_parallel_traced(
        &self,
        plan: &ExecutionPlan,
        net: &Network,
        input: &Tensor<f32>,
        tracer: &Tracer,
    ) -> Result<NetworkRun, CoreError> {
        let Some(schedule) = plan.parallel_schedule() else {
            return Err(CoreError::ParallelCertificateMissing);
        };
        // Re-prove the schedule against the plan as compiled: disjoint
        // footprints for every node pair that may run concurrently,
        // reachability-respecting waves, and an intact digest. Runs in
        // micro-seconds next to the convolutions it gates.
        crate::verify::verify_conc_compiled(plan)?;
        self.run_waves(plan, net, input, schedule.waves.iter().map(Vec::as_slice), tracer)
    }

    /// The one execution loop. Each wave's nodes compute against an
    /// immutable view of the value slots through
    /// [`lowbit_qgemm::parallel::fan_out`] — the first node on the caller,
    /// each wave-mate on its own scoped thread — then their stores apply in
    /// ascending node order. Reports and modeled millis accumulate in
    /// *global* node order after the last wave, so a node scheduled ahead
    /// of lower-numbered peers never perturbs the float summation order.
    fn run_waves<'w>(
        &self,
        plan: &ExecutionPlan,
        net: &Network,
        input: &Tensor<f32>,
        waves: impl Iterator<Item = &'w [usize]>,
        tracer: &Tracer,
    ) -> Result<NetworkRun, CoreError> {
        plan.validate_for(net)?;
        let values = plan.values();
        let expected = values[0].dims;
        if input.dims() != expected {
            return Err(CoreError::InputShapeMismatch { expected, got: input.dims() });
        }
        let q_in = calibrate_input(values[0].bits, input)?;

        // Value slots: the runtime image of the plan's activation arena.
        // A slot holds its value from the producing node until its last
        // consumer has read it; the live-byte sum is checked against the
        // plan's certified high-water mark after every wave.
        let mut slots: Vec<Option<QTensor>> = vec![None; values.len()];
        let mut scales: Vec<f32> = vec![0.0; values.len()];
        let mut uses_left: Vec<usize> = vec![0; values.len()];
        for node in plan.nodes() {
            for &v in &node.inputs {
                uses_left[v] += 1;
            }
        }
        let output_value = plan.output_value();
        uses_left[output_value] += 1; // held for the final dequantization
        let declared = plan.activation_high_water_bytes();
        let mut live_bytes = values[0].bytes;
        if live_bytes > declared {
            return Err(CoreError::ActivationArenaExceeded { observed: live_bytes, declared });
        }
        slots[0] = Some(quantize_f32(input, &q_in));
        scales[0] = q_in.scale;

        let mut node_reports: Vec<Option<LayerReport>> = vec![None; plan.nodes().len()];
        for wave in waves {
            // Wave-mates may run concurrently, and the certificate proves
            // that every such pair touches disjoint arena spans and
            // workspace slices, so the only shared state is behind the
            // engines' own locks.
            let mut produced: Vec<(usize, Option<NodeOutcome>)> =
                wave.iter().map(|&step| (step, None)).collect();
            fan_out(&mut produced, |(step, outcome)| {
                *outcome = Some(self.execute_node(plan, net, *step, &slots, &scales, tracer));
            });
            // Apply stores — and surface the first error — in ascending
            // node order. `fan_out` runs every job, so every outcome is set.
            produced.sort_by_key(|&(step, _)| step);
            for (step, result) in produced.into_iter().filter_map(|(step, o)| Some((step, o?))) {
                let (q, out_scale, report) = result?;
                node_reports[step] = report;
                let output = plan.nodes()[step].output;
                if slots[output].is_none() {
                    live_bytes += values[output].bytes;
                }
                slots[output] = Some(q);
                scales[output] = out_scale;
            }
            // Wave-granular liveness: every wave output is resident before
            // any wave input retires — the arena model counts both sides of
            // a def, and wave-mates' ranges are the wave-coarsened ones the
            // certificate proved disjoint — so the certified high-water mark
            // bounds this sum for any accepted schedule.
            if live_bytes > declared {
                return Err(CoreError::ActivationArenaExceeded { observed: live_bytes, declared });
            }
            for &step in wave {
                for &v in &plan.nodes()[step].inputs {
                    uses_left[v] -= 1;
                    if uses_left[v] == 0 && slots[v].take().is_some() {
                        live_bytes -= values[v].bytes;
                    }
                }
            }
        }
        let reports: Vec<LayerReport> = node_reports.into_iter().flatten().collect();
        let total = reports.iter().fold(0.0, |t, r| t + r.millis);
        let act = slots[output_value].take().expect("output value is held live");
        let act = if act.layout() == Layout::Nchw { act } else { act.to_layout(Layout::Nchw) };
        let act_scale = scales[output_value];
        let mut output = Tensor::zeros(act.dims(), act.layout());
        for (o, &q) in output.data_mut().iter_mut().zip(act.data()) {
            *o = q as f32 * act_scale;
        }
        Ok(NetworkRun { output, reports, total_millis: total })
    }

    /// Computes one DAG node over an immutable view of the value slots,
    /// returning the produced tensor (already normalized to the layout the
    /// plan recorded for its output value), its scale, and — for conv
    /// nodes — the unified layer report. Every arithmetic expression a node
    /// evaluates lives here, so a node computes the same bits whichever
    /// wave it runs in and whether or not it has wave-mates.
    fn execute_node(
        &self,
        plan: &ExecutionPlan,
        net: &Network,
        step: usize,
        slots: &[Option<QTensor>],
        scales: &[f32],
        tracer: &Tracer,
    ) -> NodeOutcome {
        let node = &plan.nodes()[step];
        let (q, out_scale, report) = match node.op {
            PlanOp::Conv { layer: li, fused_add } => {
                let lp = &plan.layers()[li];
                let layer = &net.layers()[li];
                let backend = self.backend_for(lp.algo.backend())?;
                let mut layer_span = tracer.span("layer", MAIN_TRACK);
                let act = slots[node.inputs[0]].as_ref().expect("verified dataflow");
                let (acc, report) = backend.execute_layer(lp, act, &layer.weights, tracer)?;
                if let Some(metrics) = &self.metrics {
                    metrics.record_layer(ExecKey::of(lp), lp.predicted_millis, report.millis);
                }
                layer_span.set_label(|| {
                    let cache = match (report.prepack_hits, report.prepack_misses) {
                        (1, _) => "prepack hit",
                        (_, 1) => "prepack miss",
                        _ => "no prepack",
                    };
                    format!("n{step} {}: {} ({cache})", lp.name, lp.algo)
                });
                // Fused epilogue: per-channel bias, then re-quantization
                // with the ReLU folded into the truncation bound where
                // requested, then the folded residual add if the graph
                // fusion pass attached one.
                let rq = lp.epilogue.effective_requant();
                let mut q = {
                    let _span = tracer.span("requantize", MAIN_TRACK);
                    requantize_with_bias(&acc, lp.epilogue.bias.as_deref(), &rq)
                };
                if let Some(r) = fused_add {
                    let residual = slots[r].as_ref().expect("verified dataflow");
                    q = add_clamped(&q, residual);
                }
                drop(layer_span);
                if tracer.enabled() {
                    if let Some(engine) = &self.arm {
                        let prepack = engine.prepack_stats();
                        tracer.counter("modeled_millis_total", engine.modeled_millis_total());
                        tracer.counter("prepack_hits_total", prepack.hits as f64);
                        tracer.counter("prepack_evictions_total", prepack.evictions as f64);
                        tracer.counter(
                            "workspace_high_water_bytes",
                            engine.workspace_stats().high_water_bytes as f64,
                        );
                    }
                }
                let scale = scales[node.inputs[0]] * layer.weights.scale() / rq.multiplier;
                (q, scale, Some(report))
            }
            PlanOp::Add => {
                let mut span = tracer.span("layer", MAIN_TRACK);
                let a = slots[node.inputs[0]].as_ref().expect("verified dataflow");
                let b = slots[node.inputs[1]].as_ref().expect("verified dataflow");
                let q = add_clamped(a, b);
                span.set_label(|| format!("n{step} {}: add", node.name));
                (q, scales[node.inputs[0]], None)
            }
            PlanOp::Concat => {
                let mut span = tracer.span("layer", MAIN_TRACK);
                let q = concat_channels(
                    node.inputs.iter().map(|&v| slots[v].as_ref().expect("verified dataflow")),
                );
                span.set_label(|| format!("n{step} {}: concat", node.name));
                (q, scales[node.inputs[0]], None)
            }
        };
        // Store in the layout the plan recorded for this value (NHWC when
        // the fusion pass elided a round-trip between GPU convs, canonical
        // NCHW otherwise).
        let vp = &plan.values()[node.output];
        let q = if q.layout() == vp.layout { q } else { q.to_layout(vp.layout) };
        Ok((q, out_scale, report))
    }

    /// Models every layer of `plan` without executing, returning the same
    /// unified reports (prepack/workspace fields zero — estimation touches
    /// no state). GPU layers record their modeled stages on a
    /// `gpu modeled/<layer>` track; ARM estimates record nothing.
    pub fn estimate(
        &self,
        plan: &ExecutionPlan,
        tracer: &Tracer,
    ) -> Result<Vec<LayerReport>, CoreError> {
        let reports = plan.layers().iter().map(|lp| {
            self.backend_for(lp.algo.backend())?.estimate_layer(lp, tracer)
        });
        reports.collect()
    }
}

/// The input quantizer, calibrated over the whole (possibly batched) input.
/// A NaN or ±inf element would silently become 0 or zero the whole tensor
/// through an infinite scale, so it is refused with
/// [`CoreError::NonFiniteInput`], detected in the calibration pass itself.
fn calibrate_input(
    bits: lowbit_tensor::BitWidth,
    input: &Tensor<f32>,
) -> Result<Quantizer, CoreError> {
    Quantizer::calibrate_finite(bits, input.data())
        .map_err(|index| CoreError::NonFiniteInput { index })
}

/// Elementwise saturating add of two equal-shape quantized tensors, clamped
/// into the left operand's bit-width range. This is both the standalone
/// [`PlanOp::Add`] kernel and the tail of a fused residual epilogue — the
/// two must stay the same expression for fused plans to be bit-exact
/// against unfused references.
fn add_clamped(a: &QTensor, b: &QTensor) -> QTensor {
    let (a_n, b_n) = (in_layout(a, Layout::Nchw), in_layout(b, Layout::Nchw));
    let bits = a_n.bits();
    let (lo, hi) = (bits.qmin() as i32, bits.qmax() as i32);
    let data: Vec<i8> = a_n
        .data()
        .iter()
        .zip(b_n.data())
        .map(|(&x, &y)| (x as i32 + y as i32).clamp(lo, hi) as i8)
        .collect();
    QTensor::new(Tensor::from_vec(a_n.dims(), Layout::Nchw, data), bits, 1.0)
}

/// Concatenates quantized tensors along the channel axis in NCHW: per batch
/// item, each operand contributes one contiguous `c*h*w` run.
fn concat_channels<'a>(operands: impl Iterator<Item = &'a QTensor>) -> QTensor {
    let normalized: Vec<Cow<'_, QTensor>> = operands.map(|t| in_layout(t, Layout::Nchw)).collect();
    let (n, _, h, w) = normalized[0].dims();
    let bits = normalized[0].bits();
    let c_total: usize = normalized.iter().map(|t| t.dims().1).sum();
    let mut data = Vec::with_capacity(n * c_total * h * w);
    for bn in 0..n {
        for t in &normalized {
            let run = t.dims().1 * h * w;
            data.extend_from_slice(&t.data()[bn * run..(bn + 1) * run]);
        }
    }
    QTensor::new(Tensor::from_vec((n, c_total, h, w), Layout::Nchw, data), bits, 1.0)
}

/// `t` in `layout`, borrowed when it already is.
fn in_layout(t: &QTensor, layout: Layout) -> Cow<'_, QTensor> {
    if t.layout() == layout {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.to_layout(layout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use lowbit_tensor::BitWidth;
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

    #[test]
    fn executor_without_required_backend_errors() {
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W4, 12, 9);
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let err = Executor::new()
            .run(&plan, &net, &float_input((1, 3, 12, 12), 5))
            .unwrap_err();
        assert!(matches!(err, CoreError::MissingBackend { backend: BackendKind::Arm }));
    }

    #[test]
    fn executor_rejects_mismatched_input_and_plan() {
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W4, 12, 9);
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let exec = Executor::for_arm(&engine);
        let err = exec.run(&plan, &net, &float_input((1, 3, 10, 10), 5)).unwrap_err();
        assert!(matches!(err, CoreError::InputShapeMismatch { .. }));
        let other = Network::demo(BitWidth::W4, 16, 9);
        let err = exec.run(&plan, &other, &float_input((1, 3, 16, 16), 5)).unwrap_err();
        assert!(matches!(err, CoreError::PlanMismatch { .. }));
        // A GPU layer's precision comes from its plan: operands wider than
        // it are a typed mismatch, not a panic inside the int4 path.
        let gpu = GpuEngine::rtx2080ti();
        let plan = Planner::for_gpu(&gpu, Tuning::Default).compile(&net).unwrap();
        let wide = QTensor::random((1, 3, 12, 12), Layout::Nchw, BitWidth::W8, 3);
        let err = gpu
            .execute_layer(&plan.layers()[0], &wide, &net.layers()[0].weights, &Tracer::null())
            .unwrap_err();
        assert!(matches!(err, CoreError::PlanMismatch { .. }));
    }

    #[test]
    fn estimate_reports_match_plan_predictions() {
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W6, 12, 9);
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let reports = Executor::for_arm(&engine).estimate(&plan, &Tracer::null()).unwrap();
        for (r, lp) in reports.iter().zip(plan.layers()) {
            assert!((r.millis - lp.predicted_millis).abs() < 1e-12, "{}", r.name);
            assert_eq!(r.algo, lp.algo);
            assert_eq!(r.prepack_hits + r.prepack_misses, 0);
        }
    }

    #[test]
    fn understated_activation_bound_trips_the_runtime_arena_check() {
        let def = lowbit_models::resnet50_residual_block(8);
        let net = Network::from_graph_defs(&def, BitWidth::W4, 11).unwrap();
        let engine = ArmEngine::cortex_a53();
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let input = float_input((1, 256, 8, 8), 3);
        let exec = Executor::for_arm(&engine);
        // The certified bound admits the run...
        exec.run(&plan, &net, &input).unwrap();
        // ...but a plan that understates it is caught at the first definition
        // that exceeds the declared arena, with both sides in the error.
        let lying = plan.clone().with_activation_high_water(1);
        let err = exec.run(&lying, &net, &input).unwrap_err();
        match err {
            CoreError::ActivationArenaExceeded { observed, declared } => {
                assert_eq!(declared, 1);
                assert!(observed > 1);
            }
            other => panic!("expected ActivationArenaExceeded, got {other}"),
        }
    }

    #[test]
    fn parallel_execution_is_bit_exact_against_serial_at_every_width() {
        let def = lowbit_models::resnet50_projection_block(8);
        let input = float_input((1, 256, 8, 8), 17);
        for bits in BitWidth::ALL {
            let net = Network::from_graph_defs(&def, bits, 11).unwrap();
            let compile_engine = ArmEngine::cortex_a53();
            let plan = Planner::for_arm(&compile_engine)
                .with_parallel_nodes(true)
                .compile(&net)
                .unwrap();
            let schedule = plan.parallel_schedule().expect("parallel compile certifies");
            assert!(schedule.max_wave_width() >= 2, "{bits}: projection block should widen");
            // Fresh engines per run so prepack caches and modeled-millis
            // accumulators start identical; the same plan runs both ways.
            let serial_engine = ArmEngine::cortex_a53();
            let serial = Executor::for_arm(&serial_engine).run(&plan, &net, &input).unwrap();
            let parallel_engine = ArmEngine::cortex_a53();
            let parallel = Executor::for_arm(&parallel_engine)
                .run_parallel(&plan, &net, &input)
                .unwrap();
            assert_eq!(serial.output.data(), parallel.output.data(), "{bits}: outputs diverge");
            assert_eq!(serial.total_millis.to_bits(), parallel.total_millis.to_bits(), "{bits}");
            assert_eq!(serial.reports.len(), parallel.reports.len(), "{bits}");
            for (s, p) in serial.reports.iter().zip(&parallel.reports) {
                assert_eq!(s.name, p.name, "{bits}: report order diverges");
                assert_eq!(s.millis.to_bits(), p.millis.to_bits(), "{bits}: {}", s.name);
                assert_eq!(s.prepack_hits, p.prepack_hits, "{bits}: {}", s.name);
                assert_eq!(s.prepack_misses, p.prepack_misses, "{bits}: {}", s.name);
            }
        }
    }

    #[test]
    fn serial_and_parallel_entry_points_record_the_same_trace() {
        let traced = |def: &lowbit_models::GraphDef, parallel: bool| {
            let net = Network::from_graph_defs(def, BitWidth::W4, 11).unwrap();
            // A fresh engine per run, so prepack hit/miss labels and the
            // cumulative counters start from the same state; one GEMM
            // thread, so kernel worker spans cannot reorder between runs.
            let engine = ArmEngine::cortex_a53().with_threads(1);
            let plan =
                Planner::for_arm(&engine).with_parallel_nodes(true).compile(&net).unwrap();
            let (tracer, sink) = Tracer::recording();
            let exec = Executor::for_arm(&engine);
            let input = float_input((1, 256, 8, 8), 17);
            if parallel {
                exec.run_parallel_traced(&plan, &net, &input, &tracer).unwrap();
            } else {
                exec.run_traced(&plan, &net, &input, &tracer).unwrap();
            }
            (plan, sink.capture())
        };
        // Every wave of the residual block holds one node, so both entry
        // points walk the same schedule and record the same event sequence.
        let residual = lowbit_models::resnet50_residual_block(8);
        let (plan, serial) = traced(&residual, false);
        let schedule = plan.parallel_schedule().expect("parallel compile certifies");
        assert_eq!(schedule.max_wave_width(), 1);
        let (_, parallel) = traced(&residual, true);
        let spans = |c: &lowbit_trace::TraceCapture| -> Vec<(String, Option<String>)> {
            c.spans.iter().map(|s| (s.name.clone(), s.label.clone())).collect()
        };
        let counters = |c: &lowbit_trace::TraceCapture| -> Vec<String> {
            c.counters.iter().map(|k| k.name.clone()).collect()
        };
        assert!(!serial.spans.is_empty() && !serial.counters.is_empty());
        assert_eq!(spans(&serial), spans(&parallel));
        assert_eq!(counters(&serial), counters(&parallel));
        // The projection block runs two convs in one wave: their events
        // interleave, but the same layers run under the same labels.
        let projection = lowbit_models::resnet50_projection_block(8);
        let layer_labels = |c: &lowbit_trace::TraceCapture| -> Vec<String> {
            let mut labels: Vec<String> = c
                .spans
                .iter()
                .filter(|s| s.name == "layer")
                .map(|s| s.label.clone().expect("layer spans are labelled"))
                .collect();
            labels.sort();
            labels
        };
        let (plan, serial) = traced(&projection, false);
        assert!(plan.parallel_schedule().unwrap().max_wave_width() >= 2);
        let (_, parallel) = traced(&projection, true);
        assert_eq!(layer_labels(&serial).len(), plan.nodes().len());
        assert_eq!(layer_labels(&serial), layer_labels(&parallel));
    }

    #[test]
    fn parallel_mode_refuses_plans_without_a_certificate() {
        let def = lowbit_models::resnet50_projection_block(8);
        let net = Network::from_graph_defs(&def, BitWidth::W4, 11).unwrap();
        let engine = ArmEngine::cortex_a53();
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let err = Executor::for_arm(&engine)
            .run_parallel(&plan, &net, &float_input((1, 256, 8, 8), 17))
            .unwrap_err();
        assert!(matches!(err, CoreError::ParallelCertificateMissing));
    }

    #[test]
    fn forged_certificate_is_rejected_before_any_node_runs() {
        use lowbit_verify::ConcViolation;
        let def = lowbit_models::resnet50_projection_block(8);
        let net = Network::from_graph_defs(&def, BitWidth::W4, 11).unwrap();
        let engine = ArmEngine::cortex_a53();
        let plan =
            Planner::for_arm(&engine).with_parallel_nodes(true).compile(&net).unwrap();
        let mut schedule = plan.parallel_schedule().unwrap().clone();
        schedule.certificate ^= 1;
        let forged = plan.with_parallel_schedule(schedule);
        let err = Executor::for_arm(&engine)
            .run_parallel(&forged, &net, &float_input((1, 256, 8, 8), 17))
            .unwrap_err();
        match err {
            CoreError::ConcRejected { violation: ConcViolation::CertificateForged { .. } } => {}
            other => panic!("expected forged-certificate rejection, got {other}"),
        }
    }

    #[test]
    fn non_finite_inputs_are_typed_errors_in_both_run_modes() {
        let def = lowbit_models::resnet50_projection_block(8);
        let net = Network::from_graph_defs(&def, BitWidth::W4, 11).unwrap();
        let engine = ArmEngine::cortex_a53();
        let plan =
            Planner::for_arm(&engine).with_parallel_nodes(true).compile(&net).unwrap();
        let exec = Executor::for_arm(&engine);
        let clean = float_input((1, 256, 8, 8), 17);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut input = clean.clone();
            input.data_mut()[123] = bad;
            let want = CoreError::NonFiniteInput { index: 123 };
            assert_eq!(exec.run(&plan, &net, &input).unwrap_err(), want, "{bad}");
            assert_eq!(exec.run_parallel(&plan, &net, &input).unwrap_err(), want, "{bad}");
        }
    }

    #[test]
    fn per_channel_bias_shifts_accumulators_before_requant() {
        use crate::network::NetLayer;
        use lowbit_qnn::RequantParams;
        use lowbit_tensor::ConvShape;

        let bits = BitWidth::W4;
        let shape = ConvShape::new(1, 3, 6, 6, 4, 3, 1, 1);
        let weights = QTensor::random((4, 3, 3, 3), Layout::Nchw, bits, 3);
        let mk = |bias: Option<Vec<i32>>| {
            Network::sequential(vec![NetLayer {
                name: "l0".into(),
                shape,
                weights: weights.clone(),
                bias,
                relu: false,
                requant: RequantParams::new(bits, 1.0),
            }])
            .unwrap()
        };
        let engine = ArmEngine::cortex_a53();
        let input = float_input((1, 3, 6, 6), 8);
        let plain = mk(None);
        let plan = Planner::for_arm(&engine).compile(&plain).unwrap();
        let base = Executor::for_arm(&engine).run(&plan, &plain, &input).unwrap();
        // A large positive bias on channel 0 saturates it to qmax while
        // leaving the other channels untouched.
        let biased = mk(Some(vec![1000, 0, 0, 0]));
        let plan_b = Planner::for_arm(&engine).compile(&biased).unwrap();
        let run = Executor::for_arm(&engine).run(&plan_b, &biased, &input).unwrap();
        let (_, c, h, w) = run.output.dims();
        assert!(c == 4);
        for hh in 0..h {
            for ww in 0..w {
                assert!(run.output.get((0, 0, hh, ww)) >= base.output.get((0, 0, hh, ww)));
                for cc in 1..c {
                    assert_eq!(run.output.get((0, cc, hh, ww)), base.output.get((0, cc, hh, ww)));
                }
            }
        }
    }

    #[test]
    fn channel_bias_matches_per_element_reference_in_both_layouts() {
        use lowbit_qnn::{requantize, RequantParams};
        let dims = (2, 3, 4, 5);
        let (n, c, h, w) = dims;
        let bits = BitWidth::W6;
        let (lo, hi) = (bits.qmin() as i32, bits.qmax() as i32);
        // Channel 2's bias overflows i32 for every accumulator above 100:
        // the epilogue wraps (as release arithmetic always did) rather than
        // panicking in debug builds.
        let bias = [7, -11, i32::MAX - 100];
        let residual = QTensor::random(dims, Layout::Nchw, bits, 5);
        let idxs: Vec<_> = (0..n)
            .flat_map(|b| (0..c).flat_map(move |cc| (0..h * w).map(move |p| (b, cc, p / w, p % w))))
            .collect();
        for layout in [Layout::Nchw, Layout::Nhwc] {
            let data: Vec<i32> = (0..(n * c * h * w) as i32).map(|i| i * 37 - 1000).collect();
            let acc = Tensor::from_vec(dims, layout, data);
            let mut biased = acc.clone();
            for &idx in &idxs {
                biased.set(idx, acc.get(idx).wrapping_add(bias[idx.1]));
            }
            assert!(idxs.iter().any(|&idx| acc.get(idx).checked_add(bias[idx.1]).is_none()));
            let plain = RequantParams::new(bits, 0.01);
            for rq in [plain, plain.with_relu()] {
                let folded = requantize_with_bias(&acc, Some(&bias), &rq);
                assert_eq!(folded.layout(), layout);
                let reference = requantize(&biased, &rq);
                let (got_sum, want_sum) =
                    (add_clamped(&folded, &residual), add_clamped(&reference, &residual));
                for &idx in &idxs {
                    let want = rq.apply(acc.get(idx).wrapping_add(bias[idx.1]));
                    assert_eq!(folded.get(idx), want, "{layout:?} {rq:?} {idx:?}");
                    assert_eq!(reference.get(idx), want, "{layout:?} {rq:?} {idx:?}");
                    let fused = (want as i32 + residual.get(idx) as i32).clamp(lo, hi);
                    assert_eq!(got_sum.get(idx) as i32, fused, "{layout:?} residual {idx:?}");
                    assert_eq!(want_sum.get(idx), got_sum.get(idx));
                }
            }
        }
    }

    #[test]
    fn add_and_concat_match_per_element_reference_in_both_layouts() {
        let bits = BitWidth::W4;
        let (lo, hi) = (bits.qmin() as i32, bits.qmax() as i32);
        let (n, h, w) = (2, 4, 5);
        for layout in [Layout::Nchw, Layout::Nhwc] {
            // Mixed layouts: the right operand of the add and the last
            // concat operand are always NCHW.
            let a = QTensor::random((n, 3, h, w), layout, bits, 1);
            let b = QTensor::random((n, 2, h, w), layout, bits, 2);
            let c = QTensor::random((n, 3, h, w), Layout::Nchw, bits, 3);
            let sum = add_clamped(&a, &c);
            let cat = concat_channels([&a, &b, &c].into_iter());
            assert_eq!((sum.layout(), cat.layout()), (Layout::Nchw, Layout::Nchw));
            assert_eq!(cat.dims(), (n, 8, h, w), "{layout:?}");
            for bn in 0..n {
                for hh in 0..h {
                    for ww in 0..w {
                        for cc in 0..3 {
                            let idx = (bn, cc, hh, ww);
                            let want = (a.get(idx) as i32 + c.get(idx) as i32).clamp(lo, hi);
                            assert_eq!(sum.get(idx) as i32, want, "{layout:?} add {idx:?}");
                        }
                        for (off, t) in [(0, &a), (3, &b), (5, &c)] {
                            for cc in 0..t.dims().1 {
                                let got = cat.get((bn, off + cc, hh, ww));
                                assert_eq!(got, t.get((bn, cc, hh, ww)), "{layout:?} concat");
                            }
                        }
                    }
                }
            }
        }
    }
}
