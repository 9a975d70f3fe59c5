//! The three network-block workloads: one closed-loop client driving
//! `Planner` → `Executor` on a seeded block.

use crate::harness::{
    arm_window, check, fact, overhead_share, repeat_setup, timed, Measured, Options, Outcome,
    Outputs,
};
use crate::inputs::{digest_f32, float_input, seeded_bias, sub_seed, BIAS, INPUTS, WEIGHTS};
use crate::metric::{Clock, Metric};
use crate::reference::reference_output;
use crate::replay::{activation, arm_algo, arm_conv, gemm_stages, quantize, requant, StageScratch};
use crate::spans::Recorder;
use lowbit::models;
use lowbit::prelude::*;
use std::time::Instant;

/// One block workload.
pub struct Block {
    /// Workload name.
    pub name: &'static str,
    /// ARM engine threads.
    pub threads: usize,
    /// Whether the plan is compiled and run on the certified parallel path.
    pub parallel: bool,
    /// Input dims `(batch, c, h, w)`.
    pub input: (usize, usize, usize, usize),
    /// Builds the block's network from the run seed.
    pub build: fn(u64) -> Network,
}

/// Distinct inputs the blocks cycle through: enough that no two
/// consecutive operations see the same input, few enough that the
/// direct-convolution reference of each stays within a few seconds.
pub const DISTINCT_INPUTS: usize = 2;

/// The ResNet-50 stage-2 bottleneck chain at W4 with a seeded bias on every
/// layer.
pub const BOTTLENECK: Block = Block {
    name: "bottleneck-w4",
    threads: 1,
    parallel: false,
    input: (1, 256, 56, 56),
    build: |seed| {
        let bits = BitWidth::W4;
        let net = Network::from_layer_defs(
            &models::resnet50_bottleneck(),
            bits,
            sub_seed(seed, WEIGHTS),
        )
        .expect("the bottleneck chains");
        let layers = net
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| NetLayer {
                bias: Some(seeded_bias(&l.shape, bits, sub_seed(seed, BIAS) + i as u64)),
                ..l.clone()
            })
            .collect();
        Network::sequential(layers).expect("bias lengths match c_out")
    },
};

/// DenseNet-121's six-step dense block at 28x28, W8.
pub const DENSE: Block = Block {
    name: "dense-w8",
    threads: 1,
    parallel: false,
    input: (1, 64, 28, 28),
    build: |seed| {
        Network::from_graph_defs(
            &models::densenet121_dense_block_n(28, 6),
            BitWidth::W8,
            sub_seed(seed, WEIGHTS),
        )
        .expect("the dense block validates")
    },
};

/// The ResNet-50 projection block at 14x14, batch 4, W4, on the certified
/// parallel node path with a 2-thread engine.
pub const PROJECTION: Block = Block {
    name: "projection-w4-b4-par",
    threads: 2,
    parallel: true,
    input: (4, 256, 14, 14),
    build: |seed| {
        Network::from_graph_defs(
            &models::resnet50_projection_block(14),
            BitWidth::W4,
            sub_seed(seed, WEIGHTS),
        )
        .and_then(|n| n.with_batch(4))
        .expect("the projection block validates")
    },
};

/// A block ready to run: its network, engine, compiled plan and executor.
struct Live<'b> {
    block: &'b Block,
    net: Network,
    engine: ArmEngine,
    plan: ExecutionPlan,
    exec: Executor,
}

impl Live<'_> {
    fn run_traced(&self, input: &Tensor<f32>, tracer: &Tracer) -> Result<NetworkRun, CoreError> {
        if self.block.parallel {
            self.exec
                .run_parallel_traced(&self.plan, &self.net, input, tracer)
        } else {
            self.exec.run_traced(&self.plan, &self.net, input, tracer)
        }
    }

    fn run(&self, input: &Tensor<f32>) -> Result<NetworkRun, CoreError> {
        self.run_traced(input, &Tracer::null())
    }

    /// One measured operation: the executor call, timed, and its digest.
    fn measure(&self, input: &Tensor<f32>, tracer: &Tracer) -> Measured<CoreError> {
        let (run, ms) = timed(|| self.run_traced(input, tracer));
        run.map(|r| (vec![ms], output_digest(&r)))
    }

    fn compile(&self) -> Result<ExecutionPlan, CoreError> {
        compile(self.block, &self.engine, &self.net)
    }
}

fn output_digest(run: &NetworkRun) -> u64 {
    digest_f32(&run.output)
}

fn compile(block: &Block, engine: &ArmEngine, net: &Network) -> Result<ExecutionPlan, CoreError> {
    Planner::for_arm(engine)
        .with_parallel_nodes(block.parallel)
        .compile(net)
}

/// Set-up: build the network, construct the engine, compile, and run the
/// first (cold) operation, which fills the prepack cache and workspace.
fn setup<'b>(block: &'b Block, seed: u64, first: &Tensor<f32>) -> Result<Live<'b>, CoreError> {
    let net = (block.build)(seed);
    let engine = ArmEngine::cortex_a53().with_threads(block.threads);
    let plan = compile(block, &engine, &net)?;
    let exec = Executor::for_arm(&engine);
    let live = Live {
        block,
        net,
        engine,
        plan,
        exec,
    };
    live.run(first)?;
    Ok(live)
}

/// Runs one block workload.
pub fn run(block: &Block, opts: &Options) -> Result<Outcome, String> {
    let inputs: Vec<Tensor<f32>> = (0..opts.distinct(DISTINCT_INPUTS))
        .map(|k| float_input(block.input, sub_seed(opts.seed, INPUTS + k as u64)))
        .collect();
    let (live, setups) = repeat_setup(opts.setup_repeats(), || setup(block, opts.seed, &inputs[0]))
        .map_err(|e| format!("{}: set-up failed: {e}", block.name))?;
    let (mut metrics, mut outputs) = if opts.window {
        arm_window(
            &live.engine,
            &setups,
            opts,
            inputs.len(),
            block.input.0,
            |i| live.measure(&inputs[i], &Tracer::null()),
        )?
    } else {
        (Vec::new(), Outputs::default())
    };
    let recorder = opts.traced.then(|| {
        let (m, rec) = traced(&live, &inputs, opts, &mut outputs);
        metrics.extend(m);
        rec
    });
    Ok(check(metrics, outputs, recorder, |i| {
        digest_f32(&reference_output(&live.net, &inputs[i]))
    }))
}

/// The traced pass: per operation, the planner, the executor call the
/// window measures, and a replay of every conv node's kernel and stages on
/// a seeded activation of its shape.
fn traced(
    live: &Live,
    inputs: &[Tensor<f32>],
    opts: &Options,
    outputs: &mut Outputs,
) -> (Vec<Metric>, Recorder) {
    let block = live.block;
    let layers = live.plan.layers();
    let acts: Vec<QTensor> = layers
        .iter()
        .enumerate()
        .map(|(i, lp)| {
            activation(
                &lp.shape,
                lp.bits,
                sub_seed(opts.seed, INPUTS + 100 + i as u64),
            )
        })
        .collect();
    let mut rec = Recorder::new();
    let mut scratch = StageScratch::default();
    let replay_until = opts.deadline(0.75);
    while rec.ops() == 0 || Instant::now() < replay_until {
        let input = rec.ops() as usize % inputs.len();
        rec.op(|rec| {
            if rec
                .call(
                    "Planner::compile",
                    block.name,
                    &["planner.compile_ms"],
                    || live.compile(),
                )
                .is_err()
            {
                outputs.record(input, Err::<u64, ()>(()));
            }
            let name = if block.parallel {
                "Executor::run_parallel"
            } else {
                "Executor::run"
            };
            let out = rec.call(name, block.name, &["executor.run_ms"], || {
                live.run(&inputs[input])
            });
            outputs.record(input, out.as_ref().map(output_digest));
            if block.parallel {
                let serial = rec.call(
                    "Executor::run",
                    block.name,
                    &["executor.serial_run_ms"],
                    || live.exec.run(&live.plan, &live.net, &inputs[input]),
                );
                outputs.record(input, serial.as_ref().map(output_digest));
                rec.call(
                    "verify_conc_compiled",
                    block.name,
                    &["verify.conc_ms"],
                    || lowbit::verify_conc_compiled(&live.plan).is_ok(),
                );
            }
            quantize(rec, &inputs[input], live.plan.values()[0].bits);
            for (i, lp) in layers.iter().enumerate() {
                let algo = arm_algo(lp).expect("an ARM-only plan");
                let weights = &live.net.layers()[i].weights;
                let out = arm_conv(
                    rec,
                    &live.engine,
                    &acts[i],
                    weights,
                    &lp.shape,
                    algo,
                    &lp.name,
                    None,
                );
                requant(rec, &out.acc, &lp.epilogue, &lp.name);
                gemm_stages(
                    rec,
                    &mut scratch,
                    &acts[i],
                    weights,
                    &lp.shape,
                    algo,
                    block.threads,
                    &lp.name,
                );
            }
            // The executor's own work is the part of a serial run that no
            // conv kernel accounts for.
            let serial = if block.parallel {
                "executor.serial_run_ms"
            } else {
                "executor.run_ms"
            };
            let glue = rec.sum(serial) - rec.sum("conv.ms");
            rec.add("executor.glue_ms", "ms", glue);
            if block.parallel {
                let speedup = rec.sum("executor.serial_run_ms") / rec.sum("executor.run_ms");
                rec.add("executor.parallel_speedup", "x", speedup);
            }
        });
    }
    let overhead = overhead_share(
        opts.deadline(0.25),
        outputs,
        0,
        || live.measure(&inputs[0], &Tracer::null()),
        || live.measure(&inputs[0], &Tracer::recording().0),
    );
    let mut metrics = rec.metrics();
    metrics.push(overhead);
    let pack = live.engine.prepack_stats();
    metrics.extend([
        fact(
            "planner.predicted_ms",
            live.plan.predicted_millis(),
            "ms",
            Clock::Modeled,
        ),
        fact("arm.prepack_bytes", pack.bytes as f64, "bytes", Clock::Host),
        fact(
            "arm.workspace_high_water_bytes",
            live.engine.workspace_stats().high_water_bytes as f64,
            "bytes",
            Clock::Host,
        ),
        fact(
            "memplan.activation_high_water_bytes",
            live.plan.activation_high_water_bytes() as f64,
            "bytes",
            Clock::Computed,
        ),
    ]);
    if let Some(schedule) = live.plan.parallel_schedule() {
        metrics.push(fact(
            "executor.max_wave_width",
            schedule.max_wave_width() as f64,
            "count",
            Clock::Computed,
        ));
    }
    (metrics, rec)
}
