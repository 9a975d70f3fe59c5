//! The threaded inference server: per-class admission queues and batcher
//! threads feeding a shared worker pool.
//!
//! ```text
//!  submit ──► AdmissionQueue (bounded, typed backpressure)
//!                │  batcher thread per class: the Batcher close rule
//!                ▼
//!             BatchJob ──► mpsc ──► worker pool (N threads)
//!                                     │ bucket · backend (cost model)
//!                                     │ PlanCache (fingerprint, bucket, backend)
//!                                     │ Executor::run on the batched network
//!                                     ▼
//!                                  Ticket::wait ◄── per-request Response
//! ```
//!
//! Every request gets full latency attribution (queue-wait / batch-form /
//! compile-or-hit / execute) in its [`Response`]; with a recording tracer
//! the same intervals land as modeled spans on a per-request trace track
//! and the server emits cumulative counters (`serve_admitted_total`,
//! `serve_rejected_total`, `serve_completed_total`, `serve_batches_total`,
//! `plan_cache_hits_total`, `plan_cache_misses_total`).
//!
//! Production aggregation lives in [`ServeMetrics`] (always on): workers
//! record stage histograms through private per-worker shards, rejections
//! are counted by reason with their accumulated queue wait, and the
//! executor feeds the cost-model drift auditor. The concurrency-safe
//! source of truth is the metrics registry's atomics — the old mutex that
//! serialized trace-counter read+emit pairs is gone, so trace counter
//! series are guaranteed monotone only for single-worker,
//! single-submitter traced runs (the same restriction traced runs already
//! have so wall spans on the executor's main track cannot interleave).

use crate::cache::{PlanCache, PlanCacheStats, PlanKey};
use crate::class::RequestClass;
use crate::cost;
use crate::metrics::{RejectReason, ServeMetrics, WorkerShards};
use crate::policy::BatchPolicy;
use crate::queue::{AdmissionQueue, QueueStats};
use lowbit::prelude::*;
use lowbit::ExecMetrics;
use lowbit_metrics::Registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Admission-queue depth per class.
    pub queue_depth: usize,
    /// Batch close rule (shared by every class's batcher).
    pub policy: BatchPolicy,
    /// Worker threads draining batches. Use 1 for traced runs.
    pub workers: usize,
    /// ARM engine worker threads (the multi-thread side of the crossover).
    pub arm_threads: usize,
    /// Pin every batch to one backend instead of asking the cost model.
    pub force_backend: Option<BackendKind>,
    /// Compile plans with the certified parallel node scheduler and run
    /// independent DAG nodes concurrently. Only plans carrying an intact
    /// concurrency certificate run parallel — the executor re-proves the
    /// schedule before the first node and falls back to rejection (never a
    /// race) on any mismatch. Serial and parallel plans are cached under
    /// distinct keys.
    pub parallel_nodes: bool,
    /// Per-class p99 latency objective in milliseconds: completions slower
    /// than this count as SLO violations in [`ServeMetrics`].
    pub slo_p99_ms: f64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_depth: 64,
            policy: BatchPolicy::Dynamic { max_batch: 8, deadline_ms: 2.0 },
            workers: 1,
            arm_threads: 4,
            force_backend: None,
            parallel_nodes: false,
            slo_p99_ms: 50.0,
        }
    }
}

/// Per-request latency attribution, in wall milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct RequestTiming {
    /// Admission to batch close.
    pub queue_wait_ms: f64,
    /// Batch close to worker pickup.
    pub batch_form_ms: f64,
    /// Plan lookup (compile on miss) duration.
    pub compile_ms: f64,
    /// Batched execution duration.
    pub execute_ms: f64,
    /// Whether the plan came from the cache.
    pub plan_cache_hit: bool,
    /// Requests in the batch as formed.
    pub batch_formed: usize,
    /// The bucket the batch was padded to.
    pub batch_bucket: usize,
    /// Backend that served the batch.
    pub backend: BackendKind,
}

impl RequestTiming {
    /// Total request latency (sum of the four phases).
    pub fn total_ms(&self) -> f64 {
        self.queue_wait_ms + self.batch_form_ms + self.compile_ms + self.execute_ms
    }
}

/// One completed request: its output slice plus attribution.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's own output (batch dim 1).
    pub output: Tensor<f32>,
    /// Latency attribution.
    pub timing: RequestTiming,
}

/// Handle returned by [`Server::submit`]; resolves when the worker finishes
/// the request's batch.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, CoreError>>,
}

impl Ticket {
    /// Blocks until the response (or the typed failure) arrives. A worker
    /// that died without answering resolves to
    /// [`CoreError::ServerShutdown`].
    pub fn wait(self) -> Result<Response, CoreError> {
        self.rx.recv().map_err(|_| CoreError::ServerShutdown)?
    }
}

/// Aggregate server statistics returned by [`Server::shutdown`].
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Admission stats per class, in class order.
    pub queues: Vec<QueueStats>,
    /// Plan-cache lookup counters.
    pub plan_cache: PlanCacheStats,
    /// Requests answered successfully.
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// `(batch_formed, count)` sorted ascending.
    pub batch_histogram: Vec<(usize, u64)>,
}

struct QueuedRequest {
    input: Tensor<f32>,
    enq_ns: u64,
    id: u64,
    resp: mpsc::Sender<Result<Response, CoreError>>,
}

struct BatchJob {
    class: usize,
    close_ns: u64,
    requests: Vec<QueuedRequest>,
}

struct ClassRuntime {
    class: RequestClass,
    queue: Arc<AdmissionQueue<QueuedRequest>>,
    /// Batched template networks per bucket (compiled lazily, shared).
    batched: Mutex<HashMap<usize, Arc<Network>>>,
}

struct Shared {
    classes: Vec<ClassRuntime>,
    plan_cache: PlanCache,
    arm: ArmEngine,
    gpu: GpuEngine,
    executor: Executor,
    config: ServerConfig,
    origin: Instant,
    tracer: Tracer,
    metrics: Arc<ServeMetrics>,
    exec_metrics: Arc<ExecMetrics>,
    completed: AtomicU64,
    batches: AtomicU64,
    batch_hist: Mutex<HashMap<usize, u64>>,
    next_id: AtomicU64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn batched_net(&self, class: usize, bucket: usize) -> Arc<Network> {
        let rt = &self.classes[class];
        let mut g = rt.batched.lock().expect("batched nets poisoned");
        g.entry(bucket).or_insert_with(|| Arc::new(rt.class.batched(bucket))).clone()
    }

    fn emit_admission_counters(&self) {
        if !self.tracer.enabled() {
            return;
        }
        let (mut admitted, mut rejected) = (0u64, 0u64);
        for c in &self.classes {
            let s = c.queue.stats();
            admitted += s.admitted;
            rejected += s.rejected;
        }
        self.tracer.counter("serve_admitted_total", admitted as f64);
        self.tracer.counter("serve_rejected_total", rejected as f64);
    }

    fn emit_completion_counters(&self) {
        if !self.tracer.enabled() {
            return;
        }
        let cache = self.plan_cache.stats();
        self.tracer
            .counter("serve_completed_total", self.completed.load(Ordering::Relaxed) as f64);
        self.tracer.counter("serve_batches_total", self.batches.load(Ordering::Relaxed) as f64);
        self.tracer.counter("plan_cache_hits_total", cache.hits as f64);
        self.tracer.counter("plan_cache_misses_total", cache.misses as f64);
    }
}

/// The running server. Dropping without [`Server::shutdown`] aborts the
/// threads ungracefully; call `shutdown` to drain and join.
pub struct Server {
    shared: Arc<Shared>,
    batchers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    job_tx: Option<mpsc::Sender<BatchJob>>,
}

impl Server {
    /// Starts batcher and worker threads over `classes`. The tracer is
    /// cloned into the workers: pass a recording tracer (with
    /// `workers == 1`) to capture per-request spans and server counters.
    pub fn start(classes: Vec<RequestClass>, config: ServerConfig, tracer: &Tracer) -> Server {
        assert!(!classes.is_empty(), "server needs at least one class");
        let arm = ArmEngine::cortex_a53().with_threads(config.arm_threads);
        let gpu = GpuEngine::rtx2080ti();
        let registry = Arc::new(Registry::new());
        let class_names: Vec<String> = classes.iter().map(|c| c.name().to_string()).collect();
        let name_refs: Vec<&str> = class_names.iter().map(String::as_str).collect();
        let metrics = ServeMetrics::new(registry.clone(), &name_refs, config.slo_p99_ms);
        let exec_metrics = ExecMetrics::new(registry);
        let executor =
            Executor::new().with_arm(&arm).with_gpu(&gpu).with_metrics(&exec_metrics);
        let shared = Arc::new(Shared {
            classes: classes
                .into_iter()
                .map(|class| ClassRuntime {
                    class,
                    queue: Arc::new(AdmissionQueue::new(config.queue_depth)),
                    batched: Mutex::new(HashMap::new()),
                })
                .collect(),
            plan_cache: PlanCache::new(),
            arm,
            gpu,
            executor,
            config,
            origin: Instant::now(),
            tracer: tracer.clone(),
            metrics,
            exec_metrics,
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_hist: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
        });

        let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
        let job_rx = Arc::new(Mutex::new(job_rx));

        let batchers = (0..shared.classes.len())
            .map(|ci| {
                let shared = shared.clone();
                let tx = job_tx.clone();
                std::thread::spawn(move || {
                    let queue = shared.classes[ci].queue.clone();
                    while let Some(requests) = queue.next_batch(&shared.config.policy) {
                        let job =
                            BatchJob { class: ci, close_ns: shared.now_ns(), requests };
                        if tx.send(job).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                let rx = job_rx.clone();
                std::thread::spawn(move || {
                    // Private histogram shards: this worker records stage
                    // times without contending with any other thread.
                    let shards = shared.metrics.worker_shards();
                    loop {
                        let job = {
                            let guard = rx.lock().expect("job receiver poisoned");
                            guard.recv()
                        };
                        match job {
                            Ok(job) => run_batch(&shared, &shards, job),
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();

        Server { shared, batchers, workers, job_tx: Some(job_tx) }
    }

    /// Submits one batch-1 input to `class`. Non-blocking: typed
    /// backpressure ([`CoreError::QueueFull`]) when the class queue is at
    /// depth, [`CoreError::UnknownClass`] on a class index the server does
    /// not offer, [`CoreError::InputShapeMismatch`] on wrong dims and
    /// [`CoreError::NonFiniteInput`] on a NaN or ±inf element — refused here
    /// rather than failing every request batched with it.
    pub fn submit(&self, class: usize, input: Tensor<f32>) -> Result<Ticket, CoreError> {
        let classes = self.shared.classes.len();
        let rt = self.shared.classes.get(class).ok_or(CoreError::UnknownClass { class, classes })?;
        let expected = rt.class.input_dims();
        // Admission has no calibration pass to piggyback on (the batch is
        // calibrated after forming), so finiteness is one scan of the request.
        let bad = if input.dims() != expected {
            Some(CoreError::InputShapeMismatch { expected, got: input.dims() })
        } else {
            let index = input.data().iter().position(|v| !v.is_finite());
            index.map(|index| CoreError::NonFiniteInput { index })
        };
        if let Some(e) = bad {
            self.shared.metrics.record_rejection(None, class, RejectReason::BadInput, 0.0);
            return Err(e);
        }
        let (tx, rx) = mpsc::channel();
        let enq_ns = self.shared.now_ns();
        let req = QueuedRequest {
            input,
            enq_ns,
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            resp: tx,
        };
        let pushed = rt.queue.push(req);
        if matches!(pushed, Err(CoreError::QueueFull { .. })) {
            // Backpressured requests get attribution too: the wait they
            // accumulated is admission-to-rejection (effectively zero for
            // an at-depth queue, but recorded rather than dropped).
            let wait_ms = ns_ms(self.shared.now_ns().saturating_sub(enq_ns));
            self.shared
                .metrics
                .record_rejection(None, class, RejectReason::QueueFull, wait_ms);
        }
        self.shared.emit_admission_counters();
        pushed.map(|()| Ticket { rx })
    }

    /// The production metrics surface: per-class stage histograms, SLO
    /// accounting, rejection counters, cache hit ratio. Live while the
    /// server runs — snapshot any time.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        self.shared.metrics.clone()
    }

    /// The executor-side metrics handle feeding the cost-model drift
    /// auditor.
    pub fn exec_metrics(&self) -> Arc<ExecMetrics> {
        self.shared.exec_metrics.clone()
    }

    /// The classes being served (index order matches `submit`).
    pub fn classes(&self) -> Vec<String> {
        self.shared.classes.iter().map(|c| c.class.name().to_string()).collect()
    }

    /// Closes every queue, drains remaining batches (flushing partial
    /// fixed-size batches), joins all threads and returns the final
    /// statistics.
    pub fn shutdown(mut self) -> ServerStats {
        for c in &self.shared.classes {
            c.queue.close();
        }
        for h in self.batchers.drain(..) {
            h.join().expect("batcher panicked");
        }
        drop(self.job_tx.take());
        for h in self.workers.drain(..) {
            h.join().expect("worker panicked");
        }
        let shared = &self.shared;
        let mut batch_histogram: Vec<(usize, u64)> = shared
            .batch_hist
            .lock()
            .expect("histogram poisoned")
            .iter()
            .map(|(&b, &n)| (b, n))
            .collect();
        batch_histogram.sort_unstable();
        ServerStats {
            queues: shared.classes.iter().map(|c| c.queue.stats()).collect(),
            plan_cache: shared.plan_cache.stats(),
            completed: shared.completed.load(Ordering::Relaxed),
            batches: shared.batches.load(Ordering::Relaxed),
            batch_histogram,
        }
    }
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run_batch(shared: &Shared, shards: &WorkerShards, job: BatchJob) {
    let worker_start_ns = shared.now_ns();
    let rt = &shared.classes[job.class];
    let b = job.requests.len();
    let bucket = cost::bucket_for(b);
    let backend = match shared.config.force_backend {
        Some(k) => k,
        None => cost::choose_point(&rt.class, bucket, &shared.arm, &shared.gpu).backend,
    };
    // Partial attribution for requests that fail after pickup: the stage
    // times measured so far still get recorded (satellite: rejected
    // requests carry their queue-wait instead of vanishing).
    let fail_batch = |reason: RejectReason, now_ns: u64, compile_ms: f64, e: CoreError| {
        for r in job.requests.iter() {
            let timing = RequestTiming {
                queue_wait_ms: ns_ms(job.close_ns.saturating_sub(r.enq_ns)),
                batch_form_ms: ns_ms(worker_start_ns.saturating_sub(job.close_ns)),
                compile_ms,
                execute_ms: ns_ms(
                    now_ns.saturating_sub(worker_start_ns)
                ) - compile_ms,
                plan_cache_hit: false,
                batch_formed: b,
                batch_bucket: bucket,
                backend,
            };
            shared.metrics.record_rejection(
                Some((shards, &timing)),
                job.class,
                reason,
                timing.queue_wait_ms,
            );
            r.resp.send(Err(e.clone())).ok();
        }
    };
    let net = shared.batched_net(job.class, bucket);
    let parallel = shared.config.parallel_nodes;
    let key = PlanKey { fingerprint: rt.class.fingerprint(), batch: bucket, backend, parallel };
    let compiled = shared.plan_cache.get_or_compile(key, || match backend {
        BackendKind::Arm => {
            Planner::for_arm(&shared.arm).with_parallel_nodes(parallel).compile(&net)
        }
        BackendKind::GpuModel => Planner::for_gpu(&shared.gpu, Tuning::Default)
            .with_parallel_nodes(parallel)
            .compile(&net),
    });
    let (plan, cache_hit) = match compiled {
        Ok(x) => x,
        Err(e) => {
            let now = shared.now_ns();
            fail_batch(RejectReason::CompileError, now, ns_ms(now.saturating_sub(worker_start_ns)), e);
            return;
        }
    };
    let compile_done_ns = shared.now_ns();

    // Zero-pad the batch up to its bucket. Zeros cannot extend the batch
    // calibration |max|, so padding never changes the admitted requests'
    // quantization, and padded rows' outputs are simply discarded.
    let (_, c, h, w) = rt.class.input_dims();
    let sample = c * h * w;
    let mut input = Tensor::zeros((bucket, c, h, w), Layout::Nchw);
    for (i, r) in job.requests.iter().enumerate() {
        input.data_mut()[i * sample..(i + 1) * sample].copy_from_slice(r.input.data());
    }

    // Certified plans run node-parallel; everything else takes the serial
    // path. The dispatch keys off the certificate itself, not the config
    // knob, so a plan that failed to certify can never be raced.
    let run = if plan.parallel_schedule().is_some() {
        shared.executor.run_parallel_traced(&plan, &net, &input, &shared.tracer)
    } else {
        shared.executor.run_traced(&plan, &net, &input, &shared.tracer)
    };
    let exec_done_ns = shared.now_ns();

    let run = match run {
        Ok(run) => run,
        Err(e) => {
            let compile_ms = ns_ms(compile_done_ns.saturating_sub(worker_start_ns));
            fail_batch(RejectReason::ExecError, exec_done_ns, compile_ms, e);
            return;
        }
    };

    let od = run.output.dims();
    let out_len = od.1 * od.2 * od.3;
    let completed_now = job.requests.len() as u64;
    for (i, r) in job.requests.into_iter().enumerate() {
        let slice = &run.output.data()[i * out_len..(i + 1) * out_len];
        let timing = RequestTiming {
            queue_wait_ms: ns_ms(job.close_ns.saturating_sub(r.enq_ns)),
            batch_form_ms: ns_ms(worker_start_ns.saturating_sub(job.close_ns)),
            compile_ms: ns_ms(compile_done_ns.saturating_sub(worker_start_ns)),
            execute_ms: ns_ms(exec_done_ns.saturating_sub(compile_done_ns)),
            plan_cache_hit: cache_hit,
            batch_formed: b,
            batch_bucket: bucket,
            backend,
        };
        if shared.tracer.enabled() {
            emit_request_spans(shared, rt.class.name(), r.id, r.enq_ns, job.close_ns,
                worker_start_ns, compile_done_ns, exec_done_ns, &timing);
        }
        shared.metrics.record_completion(shards, job.class, &timing);
        let output = Tensor::from_vec((1, od.1, od.2, od.3), Layout::Nchw, slice.to_vec());
        r.resp.send(Ok(Response { output, timing })).ok();
    }

    shared.completed.fetch_add(completed_now, Ordering::Relaxed);
    shared.batches.fetch_add(1, Ordering::Relaxed);
    *shared.batch_hist.lock().expect("histogram poisoned").entry(b).or_insert(0) += 1;
    shared.metrics.record_batch(&shared.plan_cache.stats());
    shared.emit_completion_counters();
}

#[allow(clippy::too_many_arguments)]
fn emit_request_spans(
    shared: &Shared,
    class_name: &str,
    id: u64,
    enq_ns: u64,
    close_ns: u64,
    worker_start_ns: u64,
    compile_done_ns: u64,
    exec_done_ns: u64,
    timing: &RequestTiming,
) {
    let tracer = &shared.tracer;
    let track = tracer.track(&format!("req/{class_name}/{id}"));
    // Sequential, touching intervals on a per-request track: the chrome
    // validator's nesting check sees them as disjoint neighbors.
    let phases = [
        ("queue wait", enq_ns, close_ns),
        ("batch form", close_ns, worker_start_ns),
        ("compile", worker_start_ns, compile_done_ns),
        ("execute", compile_done_ns, exec_done_ns),
    ];
    for (name, start, end) in phases {
        let label = match name {
            "compile" => Some(format!(
                "{} b{} {}",
                if timing.plan_cache_hit { "hit" } else { "miss" },
                timing.batch_bucket,
                timing.backend
            )),
            "execute" => Some(format!("batch {} on {}", timing.batch_formed, timing.backend)),
            _ => None,
        };
        tracer.modeled_span(track, name, start, end.saturating_sub(start), label, None);
    }
}
