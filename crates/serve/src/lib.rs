//! Batched asynchronous inference serving for the low-bit stack.
//!
//! The paper's Fig. 10 shows a batch-size crossover between the GPU (launch
//! overhead amortizes with batch) and multi-thread ARM (thread imbalance
//! amortizes with batch) backends. This crate makes that crossover
//! *executable*: a server that admits single requests through a bounded
//! queue, forms batches under a close policy, picks the batch's backend
//! from the planner's cost model, memoizes batched [`ExecutionPlan`]s in a
//! keyed cache, and drives [`Executor::run`] from a worker pool — with
//! per-request latency attribution throughout.
//!
//! [`ExecutionPlan`]: lowbit::ExecutionPlan
//! [`Executor::run`]: lowbit::Executor::run
//!
//! Layers, bottom-up:
//!
//! - [`class`]: the models a server offers, keyed by content fingerprint.
//! - [`policy`]: batch close policies (`Fixed(n)`, `Dynamic{max,deadline}`).
//! - [`queue`]: the one batching rule ([`Batcher`]: admission with typed
//!   backpressure, close decision, drain) and its threaded wrapper.
//! - [`cost`]: the batch-size/backend decision rule (the Fig. 10 curves).
//! - [`cache`]: the `(fingerprint, bucket, backend)`-keyed plan cache.
//! - [`metrics`]: production metrics — stage histograms, SLO accounting,
//!   rejection counters — recorded through per-worker shards.
//! - [`server`]: the threaded server tying it all together.
//! - [`sim`]: deterministic virtual-time simulation on the same [`Batcher`].
//! - [`report`]: the `BENCH_serving.json` builder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod class;
pub mod cost;
pub mod metrics;
pub mod policy;
pub mod queue;
pub mod report;
pub mod server;
pub mod sim;

pub use cache::{PlanCache, PlanCacheStats, PlanKey};
pub use class::RequestClass;
pub use cost::{bucket_for, choose_point, crossover_table, CostPoint, BATCH_BUCKETS};
pub use metrics::{RejectReason, ServeMetrics, WorkerShards};
pub use policy::BatchPolicy;
pub use queue::{AdmissionQueue, Batcher, Decision, QueueStats};
pub use report::{save_serving_json, serving_report};
pub use server::{Response, Server, ServerConfig, ServerStats, Ticket};
pub use sim::{simulate, simulate_instrumented, Arrival, SimConfig, SimResult};
