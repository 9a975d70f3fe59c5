//! The backend-agnostic [`Executor`] — the online phase: runs any compiled
//! [`ExecutionPlan`] through the [`Backend`] trait without making a single
//! algorithm or tiling decision itself.
//!
//! The executor owns the inter-layer glue the legacy `Network::run_arm` had
//! inline: quantize the float input once, keep activations quantized through
//! every layer, apply each layer's fused epilogue (bias + re-quantization +
//! ReLU truncation), normalize layouts between heterogeneous backends, and
//! dequantize at the end. It emits exactly the trace spans and counters the
//! legacy path did, so the observability invariants hold unchanged.

use crate::arm::ArmEngine;
use crate::error::CoreError;
use crate::gpu::{GpuEngine, Tuning};
use crate::metrics::{ExecKey, ExecMetrics};
use crate::network::{LayerReport, Network};
use crate::plan::{BackendKind, ExecutionPlan, LayerPlan, NodePlan, PlanAlgo, PlanOp};
use std::borrow::Cow;
use std::sync::Arc;
use lowbit_qnn::{quantize_f32, requantize_with_bias, Quantizer};
use lowbit_tensor::{Layout, QTensor, Tensor};
use lowbit_trace::{Tracer, MAIN_TRACK};
use turing_sim::KernelTime;

/// What a backend hands back after executing one planned layer.
#[derive(Clone, Debug)]
pub struct BackendLayerRun {
    /// Exact i32 accumulators, in the backend's native layout.
    pub acc: Tensor<i32>,
    /// Modeled milliseconds.
    pub millis: f64,
    /// Whether the prepack cache served the weights (`None` for algorithms
    /// without a prepacked layout).
    pub prepack_hit: Option<bool>,
    /// Bytes the backend's workspace arena grew by (0 in the steady state).
    pub workspace_growth_bytes: usize,
    /// Full modeled stage breakdown for GPU layers.
    pub gpu_time: Option<KernelTime>,
}

/// A backend's estimate for one planned layer.
#[derive(Clone, Debug)]
pub struct BackendLayerEstimate {
    /// Modeled milliseconds.
    pub millis: f64,
    /// Full modeled stage breakdown for GPU layers.
    pub gpu_time: Option<KernelTime>,
}

/// An engine that can execute and estimate planned layers. Implemented by
/// [`ArmEngine`] and [`GpuEngine`]; the executor only ever talks through
/// this trait.
pub trait Backend {
    /// Which [`BackendKind`] this engine serves.
    fn kind(&self) -> BackendKind;

    /// Executes one planned layer on quantized activations, recording the
    /// same spans the engine's direct API records.
    fn execute_layer(
        &self,
        plan: &LayerPlan,
        act: &QTensor,
        weights: &QTensor,
        tracer: &Tracer,
    ) -> Result<BackendLayerRun, CoreError>;

    /// Models one planned layer without executing (recording modeled-stage
    /// spans when the tracer is live).
    fn estimate_layer(
        &self,
        plan: &LayerPlan,
        tracer: &Tracer,
    ) -> Result<BackendLayerEstimate, CoreError>;
}

fn wrong_algo(plan: &LayerPlan, backend: BackendKind) -> CoreError {
    CoreError::PlanMismatch {
        detail: format!("{}: {} layer routed to the {backend} backend", plan.name, plan.algo),
    }
}

impl Backend for ArmEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Arm
    }

    fn execute_layer(
        &self,
        plan: &LayerPlan,
        act: &QTensor,
        weights: &QTensor,
        tracer: &Tracer,
    ) -> Result<BackendLayerRun, CoreError> {
        let PlanAlgo::Arm(algo) = plan.algo else {
            return Err(wrong_algo(plan, BackendKind::Arm));
        };
        let out = self.conv_traced(act, weights, &plan.shape, algo, tracer, &plan.name);
        Ok(BackendLayerRun {
            acc: out.acc,
            millis: out.millis,
            prepack_hit: out.prepack_hit,
            workspace_growth_bytes: out.workspace_growth_bytes,
            gpu_time: None,
        })
    }

    fn estimate_layer(
        &self,
        plan: &LayerPlan,
        _tracer: &Tracer,
    ) -> Result<BackendLayerEstimate, CoreError> {
        let PlanAlgo::Arm(algo) = plan.algo else {
            return Err(wrong_algo(plan, BackendKind::Arm));
        };
        Ok(BackendLayerEstimate {
            millis: self.estimate_millis(plan.bits, &plan.shape, algo),
            gpu_time: None,
        })
    }
}

impl Backend for GpuEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::GpuModel
    }

    fn execute_layer(
        &self,
        plan: &LayerPlan,
        act: &QTensor,
        weights: &QTensor,
        tracer: &Tracer,
    ) -> Result<BackendLayerRun, CoreError> {
        let PlanAlgo::GpuImplicitGemm(cfg) = plan.algo else {
            return Err(wrong_algo(plan, BackendKind::GpuModel));
        };
        // The GPU kernel is NHWC-native; normalize whatever arrived.
        let act = if act.layout() == Layout::Nhwc { act.clone() } else { act.to_layout(Layout::Nhwc) };
        let weights = if weights.layout() == Layout::Nhwc {
            weights.clone()
        } else {
            weights.to_layout(Layout::Nhwc)
        };
        let time = self.estimate_traced(&plan.shape, plan.bits, Tuning::Fixed(cfg), tracer, &plan.name);
        let out = self.conv(&act, &weights, &plan.shape, Tuning::Fixed(cfg));
        Ok(BackendLayerRun {
            acc: out.acc,
            millis: time.total_s * 1e3,
            prepack_hit: None,
            workspace_growth_bytes: 0,
            gpu_time: Some(time),
        })
    }

    fn estimate_layer(
        &self,
        plan: &LayerPlan,
        tracer: &Tracer,
    ) -> Result<BackendLayerEstimate, CoreError> {
        let PlanAlgo::GpuImplicitGemm(cfg) = plan.algo else {
            return Err(wrong_algo(plan, BackendKind::GpuModel));
        };
        let time = self.estimate_traced(&plan.shape, plan.bits, Tuning::Fixed(cfg), tracer, &plan.name);
        Ok(BackendLayerEstimate {
            millis: time.total_s * 1e3,
            gpu_time: Some(time),
        })
    }
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
    /// is registered — the three monotone engine counters of the legacy
    /// path.
    pub fn run_traced(
        &self,
        plan: &ExecutionPlan,
        net: &Network,
        input: &Tensor<f32>,
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
        // plan's certified high-water mark after every definition.
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

        let mut reports = Vec::with_capacity(plan.layers().len());
        let mut total = 0.0;
        for (step, node) in plan.nodes().iter().enumerate() {
            let (q, out_scale, report) =
                self.execute_node(plan, net, step, node, &slots, &scales, tracer)?;
            if let Some(r) = report {
                total += r.millis;
                reports.push(r);
            }
            if slots[node.output].is_none() {
                live_bytes += values[node.output].bytes;
            }
            slots[node.output] = Some(q);
            scales[node.output] = out_scale;
            // Inputs stay live through the step that consumes them — the
            // arena model counts both sides of a def — so check the bound
            // before releasing anything.
            if live_bytes > declared {
                return Err(CoreError::ActivationArenaExceeded { observed: live_bytes, declared });
            }
            for &v in &node.inputs {
                uses_left[v] -= 1;
                if uses_left[v] == 0 && slots[v].take().is_some() {
                    live_bytes -= values[v].bytes;
                }
            }
        }
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
    /// nodes — the unified layer report. Shared verbatim by the serial loop
    /// and the certified parallel mode so the two stay bit-exact: every
    /// arithmetic expression a node evaluates lives here, and the callers
    /// only differ in *when* they invoke it and how they order the stores.
    #[allow(clippy::too_many_arguments)]
    fn execute_node(
        &self,
        plan: &ExecutionPlan,
        net: &Network,
        step: usize,
        node: &NodePlan,
        slots: &[Option<QTensor>],
        scales: &[f32],
        tracer: &Tracer,
    ) -> NodeOutcome {
        let (q, out_scale, report) = match node.op {
            PlanOp::Conv { layer: li, fused_add } => {
                let lp = &plan.layers()[li];
                let layer = &net.layers()[li];
                let backend = self.backend_for(lp.backend)?;
                let mut layer_span = tracer.span("layer", MAIN_TRACK);
                let act = slots[node.inputs[0]].as_ref().expect("verified dataflow");
                let out = backend.execute_layer(lp, act, &layer.weights, tracer)?;
                if let Some(metrics) = &self.metrics {
                    metrics.record_layer(ExecKey::of(lp), lp.predicted_millis, out.millis);
                }
                layer_span.set_label(|| {
                    let cache = match out.prepack_hit {
                        Some(true) => "prepack hit",
                        Some(false) => "prepack miss",
                        None => "no prepack",
                    };
                    format!("n{step} {}: {} ({cache})", lp.name, lp.algo)
                });
                let report = LayerReport {
                    name: lp.name.clone(),
                    backend: lp.backend,
                    algo: lp.algo,
                    millis: out.millis,
                    prepack_hits: u64::from(out.prepack_hit == Some(true)),
                    prepack_misses: u64::from(out.prepack_hit == Some(false)),
                    workspace_growth_bytes: out.workspace_growth_bytes,
                    gpu_time: out.gpu_time,
                };
                // Fused epilogue: per-channel bias, then re-quantization
                // with the ReLU folded into the truncation bound where
                // requested, then the folded residual add if the graph
                // fusion pass attached one.
                let rq = lp.epilogue.effective_requant();
                let mut q = {
                    let _span = tracer.span("requantize", MAIN_TRACK);
                    requantize_with_bias(&out.acc, lp.epilogue.bias.as_deref(), &rq)
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
    /// [`Executor::run_traced`]: stores are applied in ascending node order
    /// within each wave, and reports plus modeled-millis accumulate in
    /// *global* node order after the last wave — a node scheduled into an
    /// early wave ahead of lower-numbered peers must not perturb the float
    /// summation order the serial path uses.
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
        // footprints per wave, reachability-respecting waves, and an intact
        // digest. Runs in micro-seconds next to the convolutions it gates.
        crate::verify::verify_conc_compiled(plan)?;
        plan.validate_for(net)?;
        let values = plan.values();
        let expected = values[0].dims;
        if input.dims() != expected {
            return Err(CoreError::InputShapeMismatch { expected, got: input.dims() });
        }
        let q_in = calibrate_input(values[0].bits, input)?;
        let mut slots: Vec<Option<QTensor>> = vec![None; values.len()];
        let mut scales: Vec<f32> = vec![0.0; values.len()];
        let mut uses_left: Vec<usize> = vec![0; values.len()];
        for node in plan.nodes() {
            for &v in &node.inputs {
                uses_left[v] += 1;
            }
        }
        let output_value = plan.output_value();
        uses_left[output_value] += 1;
        let declared = plan.activation_high_water_bytes();
        let mut live_bytes = values[0].bytes;
        if live_bytes > declared {
            return Err(CoreError::ActivationArenaExceeded { observed: live_bytes, declared });
        }
        slots[0] = Some(quantize_f32(input, &q_in));
        scales[0] = q_in.scale;

        let mut node_reports: Vec<Option<LayerReport>> = vec![None; plan.nodes().len()];
        for wave in &schedule.waves {
            // Compute the whole wave against an immutable view of the
            // slots; the certificate proves wave-mates touch disjoint
            // arena spans and workspace slices, so the only shared state
            // is behind the engines' own locks.
            let mut produced: Vec<(usize, NodeOutcome)> =
                if wave.len() == 1 {
                    let step = wave[0];
                    let node = &plan.nodes()[step];
                    vec![(step, self.execute_node(plan, net, step, node, &slots, &scales, tracer))]
                } else {
                    let slots_view = &slots;
                    let scales_view = &scales;
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = wave
                            .iter()
                            .map(|&step| {
                                scope.spawn(move || {
                                    let node = &plan.nodes()[step];
                                    (
                                        step,
                                        self.execute_node(
                                            plan,
                                            net,
                                            step,
                                            node,
                                            slots_view,
                                            scales_view,
                                            tracer,
                                        ),
                                    )
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("wave worker panicked"))
                            .collect()
                    })
                };
            // Apply stores — and surface the first error — in ascending
            // node order, matching serial float-summation and report order.
            produced.sort_by_key(|&(step, _)| step);
            for (step, result) in produced {
                let (q, out_scale, report) = result?;
                node_reports[step] = report;
                let node = &plan.nodes()[step];
                if slots[node.output].is_none() {
                    live_bytes += values[node.output].bytes;
                }
                slots[node.output] = Some(q);
                scales[node.output] = out_scale;
            }
            // Wave-granular liveness: every wave output is resident before
            // any wave input retires — exactly the wave-coarsened ranges
            // the certificate proved disjoint — so the certified high-water
            // mark bounds this sum for any accepted schedule.
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
        let mut reports = Vec::with_capacity(plan.layers().len());
        let mut total = 0.0;
        for report in node_reports.into_iter().flatten() {
            total += report.millis;
            reports.push(report);
        }
        let act = slots[output_value].take().expect("output value is held live");
        let act = if act.layout() == Layout::Nchw { act } else { act.to_layout(Layout::Nchw) };
        let act_scale = scales[output_value];
        let mut output = Tensor::zeros(act.dims(), act.layout());
        for (o, &q) in output.data_mut().iter_mut().zip(act.data()) {
            *o = q as f32 * act_scale;
        }
        Ok(NetworkRun { output, reports, total_millis: total })
    }

    /// Models every layer of `plan` without executing, returning the same
    /// unified reports (prepack/workspace fields zero — estimation touches
    /// no state).
    pub fn estimate(&self, plan: &ExecutionPlan) -> Result<Vec<LayerReport>, CoreError> {
        self.estimate_traced(plan, &Tracer::null())
    }

    /// [`Executor::estimate`] with span recording: each modeled layer's
    /// stages land on a backend-specific modeled track.
    pub fn estimate_traced(
        &self,
        plan: &ExecutionPlan,
        tracer: &Tracer,
    ) -> Result<Vec<LayerReport>, CoreError> {
        let mut reports = Vec::with_capacity(plan.layers().len());
        for lp in plan.layers() {
            let backend = self.backend_for(lp.backend)?;
            let est = backend.estimate_layer(lp, tracer)?;
            reports.push(LayerReport {
                name: lp.name.clone(),
                backend: lp.backend,
                algo: lp.algo,
                millis: est.millis,
                prepack_hits: 0,
                prepack_misses: 0,
                workspace_growth_bytes: 0,
                gpu_time: est.gpu_time,
            });
        }
        Ok(reports)
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
    let (a_n, b_n) = (nchw(a), nchw(b));
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
    let normalized: Vec<Cow<'_, QTensor>> = operands.map(nchw).collect();
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

/// `t` in NCHW, borrowed when it already is.
fn nchw(t: &QTensor) -> Cow<'_, QTensor> {
    if t.layout() == Layout::Nchw {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.to_layout(Layout::Nchw))
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
    }

    #[test]
    fn estimate_reports_match_plan_predictions() {
        let engine = ArmEngine::cortex_a53();
        let net = Network::demo(BitWidth::W6, 12, 9);
        let plan = Planner::for_arm(&engine).compile(&net).unwrap();
        let reports = Executor::for_arm(&engine).estimate(&plan).unwrap();
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
