//! `resnet50-layers-w2`: the paper's own workload. One operation is one
//! sweep of `ArmEngine::conv(…, ArmAlgo::Auto)` over ResNet-50's 19
//! distinct convolution shapes at batch 1 and 2 bits.

use crate::harness::{
    arm_window, check, fact, overhead_share, repeat_setup, timed, Measured, Options, Outcome,
    Outputs,
};
use crate::inputs::{digest_all, digest_i32, sub_seed, INPUTS, WEIGHTS};
use crate::metric::{Clock, Metric};
use crate::reference::par_map;
use crate::replay::{activation, arm_conv, gemm_stages, StageScratch};
use crate::spans::Recorder;
use crate::sys::nproc;
use lowbit::conv_arm::direct_conv;
use lowbit::models::{self, LayerDef};
use lowbit::prelude::*;
use lowbit::qnn::RequantParams;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "resnet50-layers-w2";
const BITS: BitWidth = BitWidth::W2;
/// Distinct activation sets the sweep alternates between. Each costs
/// about 1.2 GMAC of direct-convolution reference.
pub const DISTINCT_INPUTS: usize = 2;

struct Sweep {
    engine: ArmEngine,
    layers: Vec<(LayerDef, QTensor)>,
}

impl Sweep {
    /// One measured sweep: the 19 conv calls are timed, each layer's output
    /// is digested (untimed) and dropped before the next layer runs.
    fn measure(&self, acts: &[QTensor], tracer: &Tracer) -> Measured<CoreError> {
        let mut calls_ms = Vec::with_capacity(self.layers.len());
        let mut digests = Vec::with_capacity(self.layers.len());
        for ((def, w), act) in self.layers.iter().zip(acts) {
            let (out, ms) = timed(|| {
                self.engine
                    .conv_traced(act, w, &def.shape, ArmAlgo::Auto, tracer, def.name)
            });
            calls_ms.push(ms);
            digests.push(digest_i32(&out.acc));
        }
        Ok((calls_ms, digest_all(&digests)))
    }
}

fn weights_of(def: &LayerDef, seed: u64, layer: usize) -> QTensor {
    let s = def.shape;
    QTensor::random(
        (s.c_out, s.c_in, s.kh, s.kw),
        Layout::Nchw,
        BITS,
        sub_seed(seed, WEIGHTS) + layer as u64,
    )
}

/// Set-up: generate the 19 weight tensors, construct the engine, and run
/// the first (cold) sweep, which packs every GEMM layer's weights.
fn setup(seed: u64, first: &[QTensor]) -> Result<Sweep, CoreError> {
    let layers = models::resnet50()
        .into_iter()
        .enumerate()
        .map(|(i, d)| (d, weights_of(&d, seed, i)))
        .collect();
    let sweep = Sweep {
        engine: ArmEngine::cortex_a53().with_threads(1),
        layers,
    };
    sweep.measure(first, &Tracer::null())?;
    Ok(sweep)
}

/// Runs the sweep workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let defs = models::resnet50();
    let sets: Vec<Vec<QTensor>> = (0..opts.distinct(DISTINCT_INPUTS))
        .map(|k| {
            defs.iter()
                .enumerate()
                .map(|(l, d)| {
                    activation(
                        &d.shape,
                        BITS,
                        sub_seed(opts.seed, INPUTS + (100 * k + l) as u64),
                    )
                })
                .collect()
        })
        .collect();
    let (sweep, setups) = repeat_setup(opts.setup_repeats(), || setup(opts.seed, &sets[0]))
        .map_err(|e| format!("{NAME}: {e}"))?;
    let (mut metrics, mut outputs) = if opts.window {
        arm_window(&sweep.engine, &setups, opts, sets.len(), 1, |i| {
            sweep.measure(&sets[i], &Tracer::null())
        })?
    } else {
        (Vec::new(), Outputs::default())
    };
    let recorder = opts.traced.then(|| {
        let (m, rec) = traced(&sweep, &sets, opts, &mut outputs);
        metrics.extend(m);
        rec
    });
    // The reference of a set: each layer by direct convolution, the layers
    // spread over the cores (a set is ~1.2 GMAC).
    Ok(check(metrics, outputs, recorder, |k| {
        let layers: Vec<usize> = (0..defs.len()).collect();
        digest_all(&par_map(&layers, nproc(), |&l| {
            let (def, w) = &sweep.layers[l];
            digest_i32(&direct_conv(&sets[k][l], w, &def.shape))
        }))
    }))
}

/// The traced pass: each operation is the sweep itself, replayed layer by
/// layer with a span per conv call (the measured Fig. 7 table) plus the
/// GEMM layers' stage replays, and the planner compiling every layer as a
/// one-layer network.
fn traced(
    sweep: &Sweep,
    sets: &[Vec<QTensor>],
    opts: &Options,
    outputs: &mut Outputs,
) -> (Vec<Metric>, Recorder) {
    let nets: Vec<Network> = sweep
        .layers
        .iter()
        .map(|(def, w)| {
            let mult = 4.0 / ((def.shape.gemm_k() as f32).sqrt() * BITS.qmax() as f32);
            Network::sequential(vec![NetLayer {
                name: def.name.into(),
                shape: def.shape,
                weights: w.clone(),
                bias: None,
                relu: false,
                requant: RequantParams::new(BITS, mult),
            }])
            .expect("one layer always chains")
        })
        .collect();
    let metric_names: Vec<String> = sweep
        .layers
        .iter()
        .map(|(d, _)| format!("resnet50.{}_ms", d.name))
        .collect();
    let mut rec = Recorder::new();
    let mut scratch = StageScratch::default();
    let replay_until = opts.deadline(0.75);
    let mut predicted = 0.0;
    while rec.ops() == 0 || Instant::now() < replay_until {
        let k = rec.ops() as usize % sets.len();
        predicted = 0.0;
        rec.op(|rec| {
            let mut digests = Vec::with_capacity(sweep.layers.len());
            for (l, (def, w)) in sweep.layers.iter().enumerate() {
                let plan = rec.call(
                    "Planner::compile",
                    def.name,
                    &["planner.compile_ms"],
                    || Planner::for_arm(&sweep.engine).compile(&nets[l]),
                );
                predicted += plan.map_or(f64::NAN, |p| p.predicted_millis());
                let act = &sets[k][l];
                let out = arm_conv(
                    rec,
                    &sweep.engine,
                    act,
                    w,
                    &def.shape,
                    ArmAlgo::Auto,
                    def.name,
                    Some(&metric_names[l]),
                );
                digests.push(digest_i32(&out.acc));
                gemm_stages(rec, &mut scratch, act, w, &def.shape, out.algo, 1, def.name);
            }
            outputs.record(k, Ok::<u64, CoreError>(digest_all(&digests)));
        });
    }
    let overhead = overhead_share(
        opts.deadline(0.25),
        outputs,
        0,
        || sweep.measure(&sets[0], &Tracer::null()),
        || sweep.measure(&sets[0], &Tracer::recording().0),
    );
    let mut metrics = rec.metrics();
    metrics.push(overhead);
    metrics.extend([
        fact("planner.predicted_ms", predicted, "ms", Clock::Modeled),
        fact(
            "arm.prepack_bytes",
            sweep.engine.prepack_stats().bytes as f64,
            "bytes",
            Clock::Host,
        ),
        fact(
            "arm.workspace_high_water_bytes",
            sweep.engine.workspace_stats().high_water_bytes as f64,
            "bytes",
            Clock::Host,
        ),
    ]);
    (metrics, rec)
}
