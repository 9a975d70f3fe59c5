//! `serve-mix`: open-loop Poisson traffic through `lowbit-serve`.

use crate::harness::{
    check, end_to_end, overhead_share, repeat_setup, timed, Options, Outcome, Outputs,
};
use crate::inputs::{digest_f32, serving_input, sub_seed, ARRIVALS, INPUTS, WEIGHTS};
use crate::metric::Metric;
use crate::reference::{par_map, reference_output};
use crate::replay::{
    activation, arm_conv, book_rates, gemm_stages, quantize, requant, StageScratch,
};
use crate::schedule::poisson_schedule;
use crate::spans::Recorder;
use crate::stats::{median, tail};
use crate::sys::{nproc, peak_rss_mb};
use lowbit::prelude::*;
use lowbit_serve::{
    choose_point, BatchPolicy, RequestClass, Response, Server, ServerConfig, Ticket,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve-mix";
/// Offered load in requests per second: about 40% of the saturation rate
/// measured on a 2-vCPU host, so latency, not overload, is measured.
pub const RATE_PER_S: f64 = 300.0;
/// The latency limit `slo_met_share` counts against, in milliseconds.
pub const SLO_MS: f64 = 10.0;
/// Classes in send order: three `demo-w4-12` requests to one `demo-w6-32`.
const MIX: [usize; 4] = [0, 0, 0, 1];
/// Distinct inputs per class.
const DISTINCT_INPUTS: usize = 16;
/// Warm-up bursts per class; they form batches in buckets 1, 2, 4 and 8 and
/// so compile every plan the window will use.
const WARMUP_BURSTS: [usize; 4] = [1, 2, 3, 5];
/// Buckets the traced pass replays.
const BUCKETS: [usize; 4] = [1, 2, 4, 8];
/// Requests kept outstanding by the saturation probe.
const SATURATION_OUTSTANDING: usize = 16;

fn classes(seed: u64) -> Vec<RequestClass> {
    let w = sub_seed(seed, WEIGHTS);
    vec![
        RequestClass::demo(BitWidth::W4, 12, w),
        RequestClass::demo(BitWidth::W6, 32, w + 1),
    ]
}

fn config() -> ServerConfig {
    ServerConfig {
        queue_depth: 256,
        policy: BatchPolicy::Dynamic {
            max_batch: 8,
            deadline_ms: 2.0,
        },
        workers: 1,
        arm_threads: 2,
        force_backend: None,
        parallel_nodes: false,
        slo_p99_ms: SLO_MS,
    }
}

/// A running server that is shut down (drained and joined) when dropped.
struct Live {
    server: Option<Server>,
}

impl Live {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("live until dropped")
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Index of class `c`'s input `k` in the flat input list.
fn input_id(class: usize, k: usize, per_class: usize) -> usize {
    class * per_class + k
}

/// Set-up: start the server and send the warm-up bursts.
fn setup(classes: &[RequestClass], inputs: &[Vec<Tensor<f32>>]) -> Result<Live, CoreError> {
    let live = Live {
        server: Some(Server::start(classes.to_vec(), config(), &Tracer::null())),
    };
    for n in WARMUP_BURSTS {
        for (c, class_inputs) in inputs.iter().enumerate() {
            let tickets = (0..n)
                .map(|k| {
                    live.server()
                        .submit(c, class_inputs[k % class_inputs.len()].clone())
                })
                .collect::<Result<Vec<Ticket>, _>>()?;
            for t in tickets {
                t.wait()?;
            }
        }
    }
    Ok(live)
}

/// One request as the submitter hands it to the collector.
struct Sent {
    class: usize,
    input: usize,
    lag_ms: f64,
    submit_us: f64,
    ticket: Result<Ticket, CoreError>,
}

/// Runs the serving workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let classes = classes(opts.seed);
    let per_class = opts.distinct(DISTINCT_INPUTS);
    let inputs: Vec<Vec<Tensor<f32>>> = classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            (0..per_class)
                .map(|k| {
                    serving_input(
                        class.input_dims(),
                        sub_seed(opts.seed, INPUTS + input_id(c, k, per_class) as u64),
                    )
                })
                .collect()
        })
        .collect();
    // The serving references are batch-1 runs of two small networks, cheap
    // enough to compute up front for every input, so the window can count a
    // wrong output as a missed limit.
    let ids: Vec<usize> = (0..classes.len() * per_class).collect();
    let refs = par_map(&ids, nproc(), |&id| {
        let (c, k) = (id / per_class, id % per_class);
        digest_f32(&reference_output(classes[c].template(), &inputs[c][k]))
    });
    let (live, setups) = repeat_setup(opts.setup_repeats(), || setup(&classes, &inputs))
        .map_err(|e| format!("{NAME}: set-up failed: {e}"))?;
    let (mut metrics, mut outputs) = if opts.window {
        window(&live, &inputs, &refs, &setups, opts)?
    } else {
        (Vec::new(), Outputs::default())
    };
    let recorder = opts.traced.then(|| {
        let (m, rec) = traced(&live, &classes, &inputs, opts, &mut outputs);
        metrics.extend(m);
        rec
    });
    drop(live);
    Ok(check(metrics, outputs, recorder, |i| refs[i]))
}

/// Per-request record of the window.
struct Done {
    class: usize,
    latency_ms: f64,
    correct: bool,
    response: Response,
}

/// The open-loop window: one thread submits on the Poisson schedule, one
/// collects in submission order. A request's latency is the generator's
/// lateness (scheduled send to the `submit` call) plus the server's own
/// attribution of the request, so a request is never charged for waiting
/// behind another class's ticket in the collector.
fn window(
    live: &Live,
    inputs: &[Vec<Tensor<f32>>],
    refs: &[u64],
    setups: &[f64],
    opts: &Options,
) -> Result<(Vec<Metric>, Outputs), String> {
    let schedule = poisson_schedule(sub_seed(opts.seed, ARRIVALS), RATE_PER_S, opts.seconds);
    let sent_total = schedule.len();
    let per_class = inputs[0].len();
    let server = live.server();
    let (tx, rx) = mpsc::channel::<Sent>();
    let base = Instant::now() + Duration::from_millis(10);
    let mut outputs = Outputs::default();
    let mut done: Vec<Done> = Vec::with_capacity(sent_total);
    let (mut lags, mut submits) = (
        Vec::with_capacity(sent_total),
        Vec::with_capacity(sent_total),
    );
    let mut last_done = base;
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut next = [0usize; 2];
            for (i, &at) in schedule.iter().enumerate() {
                let class = MIX[i % MIX.len()];
                let input = next[class] % per_class;
                next[class] += 1;
                let request = inputs[class][input].clone();
                let due = base + Duration::from_secs_f64(at);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t = Instant::now();
                let ticket = server.submit(class, request);
                let submit_us = t.elapsed().as_secs_f64() * 1e6;
                let lag_ms = t.saturating_duration_since(due).as_secs_f64() * 1e3;
                if tx
                    .send(Sent {
                        class,
                        input,
                        lag_ms,
                        submit_us,
                        ticket,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        for sent in rx {
            lags.push(sent.lag_ms);
            submits.push(sent.submit_us);
            let id = input_id(sent.class, sent.input, per_class);
            match sent.ticket.and_then(Ticket::wait) {
                Ok(response) => {
                    let digest = digest_f32(&response.output);
                    outputs.record(id, Ok::<u64, CoreError>(digest));
                    let latency_ms = sent.lag_ms + response.timing.total_ms();
                    done.push(Done {
                        class: sent.class,
                        latency_ms,
                        correct: digest == refs[id],
                        response,
                    });
                }
                Err(e) => outputs.record(id, Err::<u64, CoreError>(e)),
            }
            last_done = Instant::now();
        }
    });
    let rss = peak_rss_mb()?;
    let latency: Vec<Vec<f64>> = done.iter().map(|d| vec![d.latency_ms]).collect();
    let secs = last_done.duration_since(base).as_secs_f64();
    let mut m = end_to_end(setups, &latency, done.len() as f64, secs, rss);
    // Rejected, failed and wrong requests all miss the limit.
    let met = done
        .iter()
        .filter(|d| d.correct && d.latency_ms <= SLO_MS)
        .count();
    m.push(Metric::host(
        "slo_met_share",
        met as f64 / sent_total.max(1) as f64,
        "share",
        sent_total,
    ));
    m.extend(serve_metrics(&done, &lags, &submits));
    Ok((m, outputs))
}

/// The serving layer's own numbers, from the server's per-request
/// attribution and the generator's timings.
fn serve_metrics(done: &[Done], lags: &[f64], submits: &[f64]) -> Vec<Metric> {
    let n = done.len();
    let timing =
        |f: fn(&Response) -> f64| done.iter().map(|d| f(&d.response)).collect::<Vec<f64>>();
    let mut m = Vec::new();
    let mut pct = |name: &str, samples: &[f64], p: f64, unit: &'static str| {
        let v = if p == 50.0 {
            median(samples)
        } else {
            tail(samples, p)
        };
        if let Some(v) = v {
            m.push(Metric::host(name, v, unit, samples.len()));
        }
    };
    let queue = timing(|r| r.timing.queue_wait_ms);
    let execute = timing(|r| r.timing.execute_ms);
    pct("serve.queue_wait_ms_p50", &queue, 50.0, "ms");
    pct("serve.queue_wait_ms_p99", &queue, 99.0, "ms");
    pct(
        "serve.batch_form_ms_p50",
        &timing(|r| r.timing.batch_form_ms),
        50.0,
        "ms",
    );
    pct("serve.execute_ms_p50", &execute, 50.0, "ms");
    pct("serve.execute_ms_p99", &execute, 99.0, "ms");
    pct(
        "serve.compile_ms_p99",
        &timing(|r| r.timing.compile_ms),
        99.0,
        "ms",
    );
    pct("serve.submit_us_p99", submits, 99.0, "us");
    pct("gen.lag_p99_ms", lags, 99.0, "ms");
    for (c, name) in ["demo-w4-12", "demo-w6-32"].into_iter().enumerate() {
        let lat: Vec<f64> = done
            .iter()
            .filter(|d| d.class == c)
            .map(|d| d.latency_ms)
            .collect();
        pct(
            &format!("serve.class.{name}.latency_p50_ms"),
            &lat,
            50.0,
            "ms",
        );
        // The highest percentile this class's sample supports.
        if let Some(p) = [99.0, 95.0, 90.0]
            .into_iter()
            .find(|&p| tail(&lat, p).is_some())
        {
            pct(
                &format!("serve.class.{name}.latency_p{p}_ms"),
                &lat,
                p,
                "ms",
            );
        }
    }
    // Every request of a batch carries the batch's timing, so weighting each
    // response by 1/formed counts each batch once.
    let batches: f64 = done
        .iter()
        .map(|d| 1.0 / d.response.timing.batch_formed as f64)
        .sum();
    let per_batch = |f: fn(&Response) -> f64| {
        done.iter()
            .map(|d| f(&d.response) / d.response.timing.batch_formed as f64)
            .sum::<f64>()
    };
    let bucket_rows = per_batch(|r| r.timing.batch_bucket as f64);
    let padded_rows = per_batch(|r| (r.timing.batch_bucket - r.timing.batch_formed) as f64);
    let gpu_batches = per_batch(|r| f64::from(u8::from(r.timing.backend == BackendKind::GpuModel)));
    let misses = done
        .iter()
        .filter(|d| !d.response.timing.plan_cache_hit)
        .count();
    m.push(Metric::host(
        "serve.batch_size_mean",
        n as f64 / batches,
        "count",
        n,
    ));
    m.push(Metric::host(
        "serve.pad_share",
        padded_rows / bucket_rows,
        "share",
        n,
    ));
    m.push(Metric::host(
        "serve.gpu_batch_share",
        gpu_batches / batches,
        "share",
        n,
    ));
    m.push(Metric::host(
        "serve.plan_cache_misses_steady",
        misses as f64,
        "count",
        n,
    ));
    m
}

fn backend_name(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Arm => "arm",
        BackendKind::GpuModel => "gpu",
    }
}

/// One replayed `(class, bucket)` pair: the backend the cost model routes it
/// to and its batched network.
struct Route {
    class: usize,
    bucket: usize,
    backend: BackendKind,
    net: Network,
    metric: String,
}

fn compile(route: &Route, arm: &ArmEngine, gpu: &GpuEngine) -> Result<ExecutionPlan, CoreError> {
    match route.backend {
        BackendKind::Arm => Planner::for_arm(arm).compile(&route.net),
        BackendKind::GpuModel => Planner::for_gpu(gpu, Tuning::Default).compile(&route.net),
    }
}

/// The traced pass: `Executor::run` of every class's batched network at
/// buckets 1–8 on the backend the server's cost model picks (engines built
/// as the server builds them), the batch-1 conv nodes on that backend, the
/// ARM class's GEMM stages, then the saturation probe against the live
/// server.
fn traced(
    live: &Live,
    classes: &[RequestClass],
    inputs: &[Vec<Tensor<f32>>],
    opts: &Options,
    outputs: &mut Outputs,
) -> (Vec<Metric>, Recorder) {
    let per_class = inputs[0].len();
    let arm = ArmEngine::cortex_a53().with_threads(config().arm_threads);
    let gpu = GpuEngine::rtx2080ti();
    let exec = Executor::new().with_arm(&arm).with_gpu(&gpu);
    let routes: Vec<Route> = (0..classes.len())
        .flat_map(|class| BUCKETS.map(|bucket| (class, bucket)))
        .map(|(class, bucket)| {
            let backend = choose_point(&classes[class], bucket, &arm, &gpu).backend;
            let metric = format!("replay.{}_b{bucket}_ms", backend_name(backend));
            Route {
                class,
                bucket,
                backend,
                net: classes[class].batched(bucket),
                metric,
            }
        })
        .collect();
    let unique = routes
        .iter()
        .all(|r| routes.iter().filter(|o| o.metric == r.metric).count() == 1);
    assert!(
        unique,
        "each (backend, bucket) replay serves one class in this mix"
    );
    let acts: Vec<Vec<QTensor>> = classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            class
                .template()
                .layers()
                .iter()
                .enumerate()
                .map(|(l, layer)| {
                    let s = layer.shape;
                    let seed = sub_seed(opts.seed, INPUTS + 10_000 + (100 * c + l) as u64);
                    activation(&s, layer.weights.bits(), seed)
                })
                .collect()
        })
        .collect();
    let mut rec = Recorder::new();
    let mut scratch = StageScratch::default();
    let replay_until = opts.deadline(0.75);
    while rec.ops() == 0 || Instant::now() < replay_until {
        let op = rec.ops() as usize;
        rec.op(|rec| {
            for route in &routes {
                let label = format!(
                    "{} b{} {}",
                    classes[route.class].name(),
                    route.bucket,
                    route.backend
                );
                let plan = rec.call("Planner::compile", &label, &["planner.compile_ms"], || {
                    compile(route, &arm, &gpu)
                });
                let Ok(plan) = plan else {
                    outputs.record(0, Err::<u64, _>(()));
                    continue;
                };
                let ks: Vec<usize> = (0..route.bucket).map(|j| (op + j) % per_class).collect();
                let (_, c, h, w) = classes[route.class].input_dims();
                let mut batch = Tensor::zeros((route.bucket, c, h, w), Layout::Nchw);
                let row = c * h * w;
                for (j, &k) in ks.iter().enumerate() {
                    batch.data_mut()[j * row..(j + 1) * row]
                        .copy_from_slice(inputs[route.class][k].data());
                }
                let mut metrics = vec![route.metric.as_str()];
                if route.bucket == 1 {
                    metrics.push("executor.run_ms");
                    quantize(
                        rec,
                        &batch,
                        classes[route.class].template().layers()[0].weights.bits(),
                    );
                }
                let run = rec.call("Executor::run", &label, &metrics, || {
                    exec.run(&plan, &route.net, &batch)
                });
                match run {
                    Ok(run) => {
                        let (_, oc, oh, ow) = run.output.dims();
                        let out_row = oc * oh * ow;
                        for (j, &k) in ks.iter().enumerate() {
                            let slice = run.output.data()[j * out_row..(j + 1) * out_row].to_vec();
                            let one = Tensor::from_vec((1, oc, oh, ow), Layout::Nchw, slice);
                            outputs.record(
                                input_id(route.class, k, per_class),
                                Ok::<u64, ()>(digest_f32(&one)),
                            );
                        }
                    }
                    Err(_) => {
                        outputs.record(input_id(route.class, ks[0], per_class), Err::<u64, _>(()))
                    }
                }
                if route.bucket == 1 {
                    replay_convs(
                        rec,
                        &mut scratch,
                        &plan,
                        &route.net,
                        &acts[route.class],
                        &arm,
                        &gpu,
                    );
                }
            }
            let glue = rec.sum("executor.run_ms") - rec.sum("conv.ms");
            rec.add("executor.glue_ms", "ms", glue);
        });
    }
    let arm_route = routes
        .iter()
        .find(|r| r.backend == BackendKind::Arm && r.bucket == 1);
    let mut metrics = rec.metrics();
    if let Some(route) = arm_route {
        let plan = compile(route, &arm, &gpu).expect("compiled in the replay loop");
        let input = &inputs[route.class][0];
        let id = input_id(route.class, 0, per_class);
        let measure = |tracer: &Tracer| {
            let (run, ms) = timed(|| exec.run_traced(&plan, &route.net, input, tracer));
            run.map(|r| (vec![ms], digest_f32(&r.output)))
        };
        metrics.push(overhead_share(
            opts.deadline(0.25),
            outputs,
            id,
            || measure(&Tracer::null()),
            || measure(&Tracer::recording().0),
        ));
    }
    metrics.push(saturation(live, inputs, outputs, opts));
    (metrics, rec)
}

/// Replays the batch-1 conv nodes of one class on its backend, with the
/// re-quantization and (on ARM) the GEMM stages of each.
fn replay_convs(
    rec: &mut Recorder,
    scratch: &mut StageScratch,
    plan: &ExecutionPlan,
    net: &Network,
    acts: &[QTensor],
    arm: &ArmEngine,
    gpu: &GpuEngine,
) {
    for (l, lp) in plan.layers().iter().enumerate() {
        let weights = &net.layers()[l].weights;
        let acc = match lp.algo {
            PlanAlgo::Arm(algo) => {
                let out = arm_conv(rec, arm, &acts[l], weights, &lp.shape, algo, &lp.name, None);
                gemm_stages(
                    rec,
                    scratch,
                    &acts[l],
                    weights,
                    &lp.shape,
                    algo,
                    arm.threads(),
                    &lp.name,
                );
                out.acc
            }
            PlanAlgo::GpuImplicitGemm(cfg) => {
                let act = acts[l].to_layout(Layout::Nhwc);
                let w = weights.to_layout(Layout::Nhwc);
                let out = rec.call(
                    "GpuEngine::conv",
                    &lp.name,
                    &["conv.ms", "conv.gpu_ms"],
                    || gpu.conv(&act, &w, &lp.shape, Tuning::Fixed(cfg)),
                );
                book_rates(rec, "gpu", lp.shape.macs());
                out.acc
            }
        };
        requant(rec, &acc, &lp.epilogue, &lp.name);
    }
}

/// The saturation probe: a closed loop keeping a fixed number of requests
/// outstanding against the live server for up to five seconds; reported,
/// not gated.
fn saturation(
    live: &Live,
    inputs: &[Vec<Tensor<f32>>],
    outputs: &mut Outputs,
    opts: &Options,
) -> Metric {
    let per_class = inputs[0].len();
    let server = live.server();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64((opts.seconds / 2.0).min(5.0));
    let mut pending = std::collections::VecDeque::new();
    let mut sent = 0usize;
    let mut completed = 0usize;
    let submit = |pending: &mut std::collections::VecDeque<_>, sent: &mut usize| {
        let class = MIX[*sent % MIX.len()];
        let k = *sent % per_class;
        *sent += 1;
        pending.push_back((
            input_id(class, k, per_class),
            server.submit(class, inputs[class][k].clone()),
        ));
    };
    for _ in 0..SATURATION_OUTSTANDING {
        submit(&mut pending, &mut sent);
    }
    while let Some((id, ticket)) = pending.pop_front() {
        match ticket.and_then(Ticket::wait) {
            Ok(r) => {
                completed += 1;
                outputs.record(id, Ok::<u64, CoreError>(digest_f32(&r.output)));
            }
            Err(e) => outputs.record(id, Err::<u64, CoreError>(e)),
        }
        if Instant::now() < until {
            submit(&mut pending, &mut sent);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Metric::host(
        "serve.saturation_per_s",
        completed as f64 / secs,
        "1/s",
        completed,
    )
}
