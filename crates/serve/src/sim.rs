//! Deterministic virtual-time serving simulation.
//!
//! The real [`crate::server::Server`] runs wall-clock threads, so its
//! latencies are host-dependent. The benchmark numbers in
//! `BENCH_serving.json` instead come from this discrete-event model of the
//! same architecture — the server's own [`Batcher`] (bounded admission and
//! the close rule, driven on virtual time), bucketed plan cache, single
//! modeled worker — driven by the cost model's modeled service times
//! ([`crate::cost`]). Seeded arrivals and virtual time make every number
//! reproducible bit-for-bit on any host. As on the server, a `Dynamic`
//! deadline starts at the admission of the oldest queued request.
//!
//! Two traffic shapes:
//!
//! - **Open loop**: Poisson arrivals at a fixed rate that does not react to
//!   the server (the saturation-honest shape). Driving the rate above a
//!   policy's capacity exposes the policy's true throughput ceiling and its
//!   queueing-delay p99.
//! - **Closed loop**: a fixed client population; each client resubmits when
//!   its previous request completes (plus think time).
//!
//! When no request can arrive — the open loop's stream has ended, or every
//! closed-loop client is queued — a batch with no deadline flushes.

use crate::cache::PlanCacheStats;
use crate::class::RequestClass;
use crate::cost::{self, CostPoint};
use crate::metrics::{RejectReason, ServeMetrics, WorkerShards};
use crate::policy::BatchPolicy;
use crate::queue::{Batcher, Decision};
use crate::server::RequestTiming;
use lowbit::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// Traffic shape.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Poisson arrivals at `rate_per_s`, non-reactive.
    OpenLoop {
        /// Mean arrival rate, requests per second.
        rate_per_s: f64,
    },
    /// `clients` concurrent submitters, each re-submitting `think_ms` after
    /// its previous completion.
    ClosedLoop {
        /// Concurrent clients.
        clients: usize,
        /// Per-client pause between completion and resubmission.
        think_ms: f64,
    },
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Batch close rule.
    pub policy: BatchPolicy,
    /// Traffic shape.
    pub arrival: Arrival,
    /// Total requests to generate (open loop) or complete (closed loop).
    pub requests: usize,
    /// Admission-queue depth.
    pub queue_depth: usize,
    /// Arrival RNG seed.
    pub seed: u64,
    /// Pin the backend instead of asking the cost model.
    pub force_backend: Option<BackendKind>,
}

/// Aggregated results of one simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Requests served.
    pub completed: usize,
    /// Requests rejected by admission (typed backpressure in the real
    /// server).
    pub rejected: usize,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Served throughput over the busy interval, requests/second.
    pub throughput_rps: f64,
    /// `(batch size as formed, batches)` ascending.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Plan-cache hits (steady-state lookups).
    pub cache_hits: u64,
    /// Plan-cache misses (first sight of a bucket).
    pub cache_misses: u64,
    /// `(backend, batches served)` for the backends actually used.
    pub backends: Vec<(BackendKind, u64)>,
    /// Virtual makespan in milliseconds.
    pub makespan_ms: f64,
}

impl SimResult {
    /// Hits over all plan-cache lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// `q`-th percentile of unsorted latencies (nearest-rank).
pub fn percentile(latencies: &[f64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-bucket service model shared by both loops.
struct ServiceModel {
    points: HashMap<usize, CostPoint>,
    layers: usize,
}

impl ServiceModel {
    fn build(class: &RequestClass, cfg: &SimConfig) -> ServiceModel {
        let arm = ArmEngine::cortex_a53().with_threads(4);
        let gpu = GpuEngine::rtx2080ti();
        let points = cost::BATCH_BUCKETS
            .iter()
            .map(|&b| {
                let mut pt = cost::choose_point(class, b, &arm, &gpu);
                if let Some(k) = cfg.force_backend {
                    pt.backend = k;
                    pt.batch_millis = match k {
                        BackendKind::Arm => pt.arm_millis,
                        BackendKind::GpuModel => {
                            pt.gpu_millis.expect("forced GPU on an unsupported width")
                        }
                    };
                }
                (b, pt)
            })
            .collect();
        ServiceModel { points, layers: class.template().layers().len() }
    }

    fn point(&self, bucket: usize) -> &CostPoint {
        self.points.get(&bucket).expect("bucket in table")
    }

    fn compile_ms(&self, bucket: usize) -> f64 {
        cost::modeled_compile_millis(self.point(bucket).backend, self.layers)
    }
}

/// The instrumented sim's recording hook: a metrics surface, the class
/// index inside it, and one shard set (the sim is its own single worker).
struct SimRecorder<'a> {
    metrics: &'a ServeMetrics,
    class: usize,
    shards: WorkerShards,
}

struct Tally<'a> {
    latencies: Vec<f64>,
    hist: HashMap<usize, u64>,
    backends: HashMap<&'static str, (BackendKind, u64)>,
    seen: HashSet<usize>,
    hits: u64,
    misses: u64,
    last_done: f64,
    recorder: Option<SimRecorder<'a>>,
}

impl<'a> Tally<'a> {
    fn new(metrics: Option<(&'a ServeMetrics, usize)>) -> Tally<'a> {
        Tally {
            latencies: Vec::new(),
            hist: HashMap::new(),
            backends: HashMap::new(),
            seen: HashSet::new(),
            hits: 0,
            misses: 0,
            last_done: 0.0,
            recorder: metrics.map(|(metrics, class)| SimRecorder {
                metrics,
                class,
                shards: metrics.worker_shards(),
            }),
        }
    }

    /// Serves one batch at virtual time `t_close`; returns the completion
    /// time.
    fn serve(&mut self, model: &ServiceModel, batch: &[f64], t_close: f64) -> f64 {
        let bucket = cost::bucket_for(batch.len());
        let pt = model.point(bucket);
        let mut svc = pt.batch_millis;
        let cache_hit;
        let mut compile_ms = 0.0;
        if self.seen.insert(bucket) {
            self.misses += 1;
            cache_hit = false;
            compile_ms = model.compile_ms(bucket);
            svc += compile_ms;
        } else {
            self.hits += 1;
            cache_hit = true;
        }
        let done = t_close + svc;
        for &a in batch {
            self.latencies.push(done - a);
        }
        if let Some(r) = &self.recorder {
            for &a in batch {
                let timing = RequestTiming {
                    queue_wait_ms: t_close - a,
                    batch_form_ms: 0.0,
                    compile_ms,
                    execute_ms: pt.batch_millis,
                    plan_cache_hit: cache_hit,
                    batch_formed: batch.len(),
                    batch_bucket: bucket,
                    backend: pt.backend,
                };
                r.metrics.record_completion(&r.shards, r.class, &timing);
            }
            r.metrics.record_batch(&PlanCacheStats {
                hits: self.hits,
                misses: self.misses,
                entries: self.seen.len(),
            });
        }
        *self.hist.entry(batch.len()).or_insert(0) += 1;
        let tag = match pt.backend {
            BackendKind::Arm => "arm",
            BackendKind::GpuModel => "gpu",
        };
        self.backends.entry(tag).or_insert((pt.backend, 0)).1 += 1;
        self.last_done = done;
        done
    }

    fn into_result(self, rejected: usize, first_arrival: f64) -> SimResult {
        if let Some(r) = &self.recorder {
            // A rejection is instantaneous: the queue is at depth when the
            // request arrives, so its accumulated wait is zero.
            for _ in 0..rejected {
                r.metrics.record_rejection(None, r.class, RejectReason::QueueFull, 0.0);
            }
        }
        let busy_ms = (self.last_done - first_arrival).max(1e-9);
        let mut batch_histogram: Vec<(usize, u64)> =
            self.hist.iter().map(|(&b, &n)| (b, n)).collect();
        batch_histogram.sort_unstable();
        let mut backends: Vec<(BackendKind, u64)> =
            self.backends.values().copied().collect();
        backends.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        let mean =
            self.latencies.iter().sum::<f64>() / self.latencies.len().max(1) as f64;
        SimResult {
            completed: self.latencies.len(),
            rejected,
            p50_ms: percentile(&self.latencies, 0.50),
            p95_ms: percentile(&self.latencies, 0.95),
            p99_ms: percentile(&self.latencies, 0.99),
            mean_ms: mean,
            throughput_rps: self.latencies.len() as f64 / busy_ms * 1e3,
            batch_histogram,
            cache_hits: self.hits,
            cache_misses: self.misses,
            backends,
            makespan_ms: self.last_done,
        }
    }
}

/// Runs the simulation for `class` under `cfg`.
pub fn simulate(class: &RequestClass, cfg: &SimConfig) -> SimResult {
    simulate_inner(class, cfg, None)
}

/// [`simulate`] with production-metrics recording: every virtual request's
/// stage attribution lands in `metrics` under class index `class_idx`,
/// rejections are counted by reason, and the cache hit-ratio gauge tracks
/// the sim's bucket cache. Results are bit-identical to the uninstrumented
/// run — recording never perturbs virtual time.
pub fn simulate_instrumented(
    class: &RequestClass,
    cfg: &SimConfig,
    metrics: &ServeMetrics,
    class_idx: usize,
) -> SimResult {
    simulate_inner(class, cfg, Some((metrics, class_idx)))
}

fn simulate_inner(
    class: &RequestClass,
    cfg: &SimConfig,
    metrics: Option<(&ServeMetrics, usize)>,
) -> SimResult {
    let model = ServiceModel::build(class, cfg);
    let (arrivals, think_ms) = match cfg.arrival {
        Arrival::OpenLoop { rate_per_s } => {
            // Seeded Poisson arrivals, in milliseconds.
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let rate_per_ms = (rate_per_s / 1e3).max(1e-12);
            let mut t = 0.0;
            let arrivals = (0..cfg.requests)
                .map(|_| {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    t += -(1.0 - u).ln() / rate_per_ms;
                    t
                })
                .collect();
            (arrivals, None)
        }
        // Staggered initial arrivals (1 µs apart) keep ordering deterministic.
        Arrival::ClosedLoop { clients, think_ms } => {
            ((0..clients.max(1)).map(|i| i as f64 * 1e-3).collect(), Some(think_ms))
        }
    };
    run(&model, cfg, arrivals, think_ms, Tally::new(metrics))
}

/// Drives the server's [`Batcher`] on virtual time. `arrivals` holds the
/// pending arrival times in ascending order; with `think_ms` (closed loop)
/// every served request's client arrives again `think_ms` after its batch
/// completes. A request is admitted at its arrival time and a batch is
/// served by the single modeled worker from its close time, so the worker
/// being busy only delays when the batcher looks again.
fn run(
    model: &ServiceModel,
    cfg: &SimConfig,
    mut arrivals: VecDeque<f64>,
    think_ms: Option<f64>,
    mut tally: Tally,
) -> SimResult {
    let first_arrival = arrivals.front().copied().unwrap_or(0.0);
    let mut batcher = Batcher::new(cfg.queue_depth);
    let mut now = 0.0f64;
    while tally.latencies.len() < cfg.requests {
        while let Some(a) = arrivals.front().copied().filter(|&a| a <= now) {
            arrivals.pop_front();
            // The batcher counts a rejection; the tally records it below.
            let _ = batcher.push(a, a);
        }
        let next = arrivals.front().copied();
        match batcher.decide(&cfg.policy, now, next.is_some()) {
            Decision::Close(n) => {
                now = tally.serve(model, &batcher.take(n), now);
                if let Some(think_ms) = think_ms {
                    let again = now + think_ms;
                    let at = arrivals.partition_point(|&a| a <= again);
                    for _ in 0..n {
                        arrivals.insert(at, again);
                    }
                }
            }
            Decision::WaitUntil(t) => now = next.map_or(t, |a| a.min(t)),
            Decision::WaitForArrival => now = next.expect("waits only while one can arrive"),
            Decision::Drained => break,
        }
    }
    tally.into_result(batcher.stats().rejected as usize, first_arrival)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_class() -> RequestClass {
        RequestClass::demo(BitWidth::W6, 12, 9)
    }

    fn open_cfg(policy: BatchPolicy, rate: f64) -> SimConfig {
        SimConfig {
            policy,
            arrival: Arrival::OpenLoop { rate_per_s: rate },
            requests: 6000,
            queue_depth: 512,
            seed: 42,
            force_backend: None,
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let class = demo_class();
        let cfg = open_cfg(BatchPolicy::Dynamic { max_batch: 16, deadline_ms: 2.0 }, 2000.0);
        let a = simulate(&class, &cfg);
        let b = simulate(&class, &cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99_ms.to_bits(), b.p99_ms.to_bits());
        assert_eq!(a.throughput_rps.to_bits(), b.throughput_rps.to_bits());
        assert_eq!(a.batch_histogram, b.batch_histogram);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&lat, 0.50), 50.0);
        assert_eq!(percentile(&lat, 0.95), 95.0);
        assert_eq!(percentile(&lat, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn overload_shows_dynamic_beating_fixed1_at_lower_p99() {
        // Drive both policies at 1.2x the dynamic point's capacity: the
        // saturated server serves at its policy's capacity, so the batching
        // gain shows up directly as throughput, and the bounded queue keeps
        // p99 proportional to 1/throughput.
        let class = demo_class();
        let model_rate = {
            let arm = ArmEngine::cortex_a53().with_threads(4);
            let gpu = GpuEngine::rtx2080ti();
            let pt = cost::choose_point(&class, 16, &arm, &gpu);
            16.0 / pt.batch_millis * 1e3
        };
        let rate = 1.2 * model_rate;
        let dynamic = simulate(
            &class,
            &open_cfg(BatchPolicy::Dynamic { max_batch: 16, deadline_ms: 2.0 }, rate),
        );
        let fixed1 = simulate(&class, &open_cfg(BatchPolicy::Fixed(1), rate));
        assert!(
            dynamic.throughput_rps > fixed1.throughput_rps,
            "dynamic {:.0} rps must beat fixed-1 {:.0} rps",
            dynamic.throughput_rps,
            fixed1.throughput_rps
        );
        assert!(
            dynamic.p99_ms <= fixed1.p99_ms,
            "dynamic p99 {:.3} must not exceed fixed-1 p99 {:.3}",
            dynamic.p99_ms,
            fixed1.p99_ms
        );
        assert!(fixed1.rejected > 0, "overload must exercise backpressure");
        // Bounded bucket set => steady-state hit rate is structural.
        assert!(dynamic.cache_hit_rate() >= 0.9, "hit rate {}", dynamic.cache_hit_rate());
    }

    #[test]
    fn closed_loop_completes_the_request_budget() {
        let class = demo_class();
        let cfg = SimConfig {
            policy: BatchPolicy::Dynamic { max_batch: 16, deadline_ms: 2.0 },
            arrival: Arrival::ClosedLoop { clients: 32, think_ms: 0.0 },
            requests: 500,
            queue_depth: 64,
            seed: 7,
            force_backend: None,
        };
        let r = simulate(&class, &cfg);
        assert!(r.completed >= 500);
        assert_eq!(r.rejected, 0);
        assert!(r.throughput_rps > 0.0);
        assert!(r.cache_hit_rate() > 0.9);
    }

    #[test]
    fn closed_loop_flushes_a_fixed_target_larger_than_the_clients() {
        // Eight clients can never fill a Fixed(12) batch: once all of them
        // are queued nothing else can arrive, so the batch must flush.
        let class = demo_class();
        let cfg = SimConfig {
            policy: BatchPolicy::Fixed(12),
            arrival: Arrival::ClosedLoop { clients: 8, think_ms: 0.5 },
            requests: 200,
            queue_depth: 64,
            seed: 7,
            force_backend: None,
        };
        let r = simulate(&class, &cfg);
        assert_eq!(r.completed, 200);
        assert_eq!(r.batch_histogram, vec![(8, 25)]);
    }

    #[test]
    fn closed_loop_batches_fill_to_the_target() {
        // 32 clients at 1 µs stagger: the first deadline has not expired
        // when the 16th arrives, so every batch carries 16.
        let class = demo_class();
        let cfg = SimConfig {
            policy: BatchPolicy::Dynamic { max_batch: 16, deadline_ms: 2.0 },
            arrival: Arrival::ClosedLoop { clients: 32, think_ms: 0.0 },
            requests: 480,
            queue_depth: 64,
            seed: 7,
            force_backend: None,
        };
        let r = simulate(&class, &cfg);
        assert_eq!(r.completed, 480);
        assert_eq!(r.batch_histogram, vec![(16, 30)]);
        assert_eq!(r.cache_misses, 1);
    }
}
