//! The ARM convolution engine: algorithm selection over the Sec. 3 kernels,
//! a prepacked-weight cache, and a reusable workspace arena.
//!
//! Every algorithm but the bitserial baseline — the GEMM family (`Gemm`,
//! `GemmNarrow`, `GemmSdot` and the ncnn baseline, the narrow tile under its
//! own scheme) and Winograd — runs through the prepacked parallel path
//! `lowbit_conv_arm::gemm_conv_ws`: weights are packed once per layout —
//! Winograd's transformed once, too — keyed by a hash of the weight tensor
//! (and, for Winograd, of the effective bit width) and reused across
//! calls; the im2col/transform/pack-B buffers live in one arena, and the
//! GEMM kernels, tile kinds of one driver, store straight into the
//! returned NCHW tensor; and the work spans `LOWBIT_THREADS` threads, the
//! caller's among them. The bitserial baseline packs per call and runs at
//! one thread. The executed and the estimated schedules both come from the
//! one table, [`arm_schedule`]; the GEMM family's drops the `pack A` stage.
//! The cost model stays single-core — wall-clock thread scaling is the
//! benchmark suite's story, not the model's.

use lowbit_conv_arm::{
    bitserial_conv, explicit_gemm_schedule, gemm_conv_ws, schedule_bitserial_conv,
    schedule_winograd_conv, ConvWorkspace, PackedWeights,
};
use lowbit_qgemm::parallel::{threads_from_env, ParallelConfig, MAX_THREADS};
use lowbit_qgemm::workspace::WorkspaceStats;
use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor, Tensor};
use lowbit_trace::{PipeAttribution, Tracer, MAIN_TRACK};
use neon_sim::{CortexA53, CostModel, KernelSchedule, StageCost};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub use lowbit_conv_arm::{prepack_fingerprint, ArmAlgo};

/// Result of an ARM convolution.
#[derive(Clone, Debug)]
pub struct ArmConvResult {
    /// Exact i32 accumulators (NCHW).
    pub acc: Tensor<i32>,
    /// The algorithm that actually ran.
    pub algo: ArmAlgo,
    /// Full pipeline schedule.
    pub schedule: KernelSchedule,
    /// Modeled wall time in milliseconds on the engine's core.
    pub millis: f64,
    /// Whether the prepack cache served the weights (`None` for algorithms
    /// without a prepacked layout).
    pub prepack_hit: Option<bool>,
    /// Bytes the shared workspace arena grew by during this call (0 in the
    /// steady state).
    pub workspace_growth_bytes: usize,
}

/// The analytic schedule of a concrete algorithm on `shape` at `bits` — the
/// single algorithm → kernel-schedule table every pricing path reads.
///
/// With `warm == false` this is the one-shot pipeline, including the
/// per-call weight pack (what the paper's per-layer figures measure). With
/// `warm == true` it is the modeled price of repeated calls: the GEMM
/// family, priced by its [`ArmAlgo::tile`] row, runs from the prepack
/// cache, so its `pack A` stage is amortized away; every other algorithm
/// keeps its one-shot schedule. For Winograd
/// that still charges the weight transform and the 16 `pack A` stages,
/// which the engine caches too, so its warm price is conservative; dropping
/// them would change the prediction of every plan with a Winograd layer.
///
/// # Panics
/// On `ArmAlgo::Auto` — resolve it first (e.g. with
/// [`crate::planner::select_arm_algo`]).
pub fn arm_schedule(
    algo: ArmAlgo,
    bits: BitWidth,
    shape: &ConvShape,
    warm: bool,
) -> KernelSchedule {
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    match (algo.tile(), algo) {
        // The baseline's row prices ncnn's pre-widened i16 panels, not the
        // host's narrow tile.
        (Some(tile), _) => {
            let mut sched = tile.schedule(&algo.scheme(bits), m, k, n);
            if warm {
                sched.stages.retain(|s| s.name != "pack A");
            }
            explicit_gemm_schedule(sched, shape)
        }
        (None, ArmAlgo::Winograd) => schedule_winograd_conv(bits, shape),
        (None, ArmAlgo::BitserialBaseline) => schedule_bitserial_conv(shape),
        (None, _) => panic!("ArmAlgo::Auto has no schedule; resolve it first"),
    }
}

/// Converts one analytic schedule stage into the trace's pipe attribution
/// under `model`: NEON-pipe and LS-pipe issue-slot occupancy, the byte count
/// charged with stall (or bulk-move) cycles, the instruction-class
/// histogram, and the stage's exact combined modeled cycles.
///
/// `modeled_cycles` is precisely `stage.cycles(model)`, so summing the
/// attributions of a schedule's stages and converting with `model.millis`
/// reproduces `KernelSchedule::millis` — the conservation invariant the
/// integration tests enforce.
pub fn stage_attribution(stage: &StageCost, model: &CostModel) -> PipeAttribution {
    let c = &stage.counts;
    PipeAttribution {
        neon_slot_cycles: c.neon_total() as f64 * model.neon_slots,
        ls_slot_cycles: c.mem_total() as f64 * model.ls_slots,
        stall_bytes: c.bytes_total(),
        loads: c.loads,
        stores: c.stores,
        neon_mac: c.neon_mac,
        neon_alu: c.neon_alu,
        neon_mov: c.neon_mov,
        modeled_cycles: stage.cycles(model),
    }
}

/// Cache and reuse statistics of the engine's prepacked-weight store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepackStats {
    /// Calls served from the cache.
    pub hits: u64,
    /// Calls that had to pack: the first sighting of a weight tensor in a
    /// layout (kernels that read one layout share its entry; Winograd's
    /// layout is per effective bit width).
    pub misses: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Cached weight tensors.
    pub entries: usize,
    /// Total packed bytes held.
    pub bytes: usize,
    /// The configured capacity bound in packed bytes.
    pub capacity_bytes: usize,
}

/// Default prepack-cache capacity (64 MiB of packed weights) — far above any
/// single model in this suite, so eviction only engages when a many-model
/// server shares one engine. [`ArmEngine::with_prepack_capacity`] overrides.
pub const DEFAULT_PREPACK_CAPACITY_BYTES: usize = 64 << 20;

/// One resident prepack-cache entry: the packed panels plus the LRU
/// recency stamp eviction orders by.
struct CacheEntry {
    packed: Arc<PackedWeights>,
    last_used: u64,
}

/// Mutable engine state shared behind a mutex: clones of the engine serve
/// the same cache and arena.
struct EngineState {
    cache: HashMap<u64, CacheEntry>,
    cache_bytes: usize,
    capacity_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    ws: ConvWorkspace,
    modeled_millis: f64,
}

impl Default for EngineState {
    fn default() -> EngineState {
        EngineState {
            cache: HashMap::new(),
            cache_bytes: 0,
            capacity_bytes: DEFAULT_PREPACK_CAPACITY_BYTES,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            ws: ConvWorkspace::default(),
            modeled_millis: 0.0,
        }
    }
}

impl EngineState {
    /// The cache entry under `key`, packed by `pack` on a miss.
    fn prepacked(&mut self, key: u64, pack: impl FnOnce() -> PackedWeights) -> Arc<PackedWeights> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.cache.get_mut(&key) {
            entry.last_used = tick;
            self.hits += 1;
            return entry.packed.clone();
        }
        self.misses += 1;
        let packed = Arc::new(pack());
        self.cache_bytes += packed.bytes();
        self.cache.insert(key, CacheEntry { packed: packed.clone(), last_used: tick });
        // LRU eviction down to the capacity bound. The entry just inserted
        // carries the newest stamp, so it is only kept alone when a single
        // weight tensor exceeds the whole budget (`len() > 1` guard).
        while self.cache_bytes > self.capacity_bytes && self.cache.len() > 1 {
            let lru_key = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("cache is non-empty");
            let evicted = self.cache.remove(&lru_key).expect("key just found");
            self.cache_bytes -= evicted.packed.bytes();
            self.evictions += 1;
        }
        packed
    }
}

/// A CPU target: kernels plus a calibrated cost model, a prepacked-weight
/// cache and a reusable conv workspace.
///
/// Cloning is cheap and shares the cache/workspace state.
#[derive(Clone)]
pub struct ArmEngine {
    model: CostModel,
    threads: usize,
    state: Arc<Mutex<EngineState>>,
}

impl std::fmt::Debug for ArmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArmEngine")
            .field("model", &self.model)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ArmEngine {
    /// The Raspberry Pi 3B target of the paper (1.2 GHz Cortex-A53).
    pub fn cortex_a53() -> ArmEngine {
        ArmEngine::with_model(CortexA53::cost_model())
    }

    /// An engine with a custom cost model (threads from `LOWBIT_THREADS`).
    pub fn with_model(model: CostModel) -> ArmEngine {
        ArmEngine {
            model,
            threads: threads_from_env(),
            state: Arc::new(Mutex::new(EngineState::default())),
        }
    }

    /// Overrides the worker-thread count (clamped to `1..=16`).
    pub fn with_threads(mut self, threads: usize) -> ArmEngine {
        self.threads = threads.clamp(1, MAX_THREADS);
        self
    }

    /// Bounds the prepacked-weight cache to `bytes` of packed panels,
    /// evicting least-recently-used entries on insert once the budget is
    /// exceeded (a single oversized entry is always kept). The bound lives
    /// in the shared state, so it applies to every clone of this engine.
    pub fn with_prepack_capacity(self, bytes: usize) -> ArmEngine {
        self.state.lock().expect("engine state poisoned").capacity_bytes = bytes;
        self
    }

    /// The engine's cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Worker threads used by the GEMM-family algorithms (the ncnn baseline
    /// among them) and Winograd.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Prepacked-weight cache statistics.
    pub fn prepack_stats(&self) -> PrepackStats {
        let st = self.state.lock().expect("engine state poisoned");
        PrepackStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            entries: st.cache.len(),
            bytes: st.cache_bytes,
            capacity_bytes: st.capacity_bytes,
        }
    }

    /// Workspace arena statistics (allocation high-water mark and growth
    /// events across all convolutions served).
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.state.lock().expect("engine state poisoned").ws.stats()
    }

    /// Cumulative modeled milliseconds across every convolution this engine
    /// (and its clones) has served — monotone over the engine's lifetime,
    /// which is what makes it usable as a trace counter.
    pub fn modeled_millis_total(&self) -> f64 {
        self.state.lock().expect("engine state poisoned").modeled_millis
    }

    /// Resolves `Auto` for a given layer/bit width by modeled time over the
    /// applicable algorithms: the paper's 16x4 GEMM, the Winograd fast path
    /// (4–6-bit 3x3/s1), and the narrow 8x4 tile extension (which wins at
    /// the tight 7/8-bit drain ratios).
    ///
    /// The selection logic itself lives in the planner
    /// ([`crate::planner::select_arm_algo`]); this is the per-call entry the
    /// plan-free engine API keeps using.
    pub fn select_algo(&self, bits: BitWidth, shape: &ConvShape) -> ArmAlgo {
        crate::planner::select_arm_algo(&self.model, bits, shape)
    }

    /// `algo` with `Auto` resolved by [`ArmEngine::select_algo`].
    fn resolve(&self, algo: ArmAlgo, bits: BitWidth, shape: &ConvShape) -> ArmAlgo {
        match algo {
            ArmAlgo::Auto => self.select_algo(bits, shape),
            other => other,
        }
    }

    /// Runs a convolution, returning exact accumulators and modeled time.
    pub fn conv(
        &self,
        input: &QTensor,
        weights: &QTensor,
        shape: &ConvShape,
        algo: ArmAlgo,
    ) -> ArmConvResult {
        self.conv_traced(input, weights, shape, algo, &Tracer::null(), "conv")
    }

    /// [`ArmEngine::conv`] with span recording. Wall spans cover the real
    /// pipeline (im2col, per-worker pack-B/GEMM tracks, Winograd's
    /// transforms and scatter); a dedicated `modeled/<ctx>` track carries
    /// one span per analytic stage (pack B, gemm, Winograd transforms,
    /// requant, ...) with its [`PipeAttribution`], laid back-to-back so
    /// their total reproduces `millis` exactly. `ctx` names the call site
    /// (usually the layer).
    pub fn conv_traced(
        &self,
        input: &QTensor,
        weights: &QTensor,
        shape: &ConvShape,
        algo: ArmAlgo,
        tracer: &Tracer,
        ctx: &str,
    ) -> ArmConvResult {
        check_operands(input, weights, shape, algo);
        let bits = input.bits().max(weights.bits());
        let algo = self.resolve(algo, bits, shape);
        let mut conv_span = tracer.span("conv", MAIN_TRACK);
        conv_span.set_label(|| format!("{ctx}: {algo:?} {bits}"));
        let mut prepack_hit = None;
        let mut workspace_growth_bytes = 0;
        let acc = match cache_key(weights, algo, bits) {
            Some(key) => {
                let scheme = algo.scheme(bits);
                let cfg = ParallelConfig::with_threads(self.threads);
                let mut guard = self.state.lock().expect("engine state poisoned");
                let st = &mut *guard;
                let hits_before = st.hits;
                let packed = st.prepacked(key, || {
                    PackedWeights::pack(weights, algo, bits).expect("a fingerprinted layout packs")
                });
                prepack_hit = Some(st.hits > hits_before);
                let ws_before = st.ws.footprint_bytes();
                let acc = gemm_conv_ws(input, &packed, &scheme, shape, &cfg, &mut st.ws, tracer);
                workspace_growth_bytes = st.ws.footprint_bytes().saturating_sub(ws_before);
                acc
            }
            // The bitserial baseline has no prepacked layout: it packs per
            // call.
            None => bitserial_conv(input, weights, shape).acc,
        };
        drop(conv_span);
        // Built outside the engine lock, which wave-mates contend on. The
        // bitserial baseline's warm schedule is the one its conv returns.
        let schedule = arm_schedule(algo, bits, shape, true);
        if tracer.enabled() {
            let model = &self.model;
            tracer.modeled_stages(
                tracer.track(&format!("modeled/{ctx}")),
                "conv modeled",
                format!("{algo:?} {bits}"),
                schedule.stages.iter().map(|stage| {
                    let secs = model.seconds(stage.cycles(model));
                    (stage.name, secs, Some(stage_attribution(stage, model)))
                }),
            );
        }
        let millis = schedule.millis(&self.model);
        self.state.lock().expect("engine state poisoned").modeled_millis += millis;
        ArmConvResult { acc, algo, schedule, millis, prepack_hit, workspace_growth_bytes }
    }

    /// Modeled steady-state time in milliseconds without executing: the
    /// warm [`arm_schedule`], exactly the price [`ArmEngine::conv`] reports.
    pub fn estimate_millis(&self, bits: BitWidth, shape: &ConvShape, algo: ArmAlgo) -> f64 {
        arm_schedule(self.resolve(algo, bits, shape), bits, shape, true).millis(&self.model)
    }

    /// Modeled one-shot ("cold") time: prices the full pipeline including
    /// the per-call weight pack that the engine's prepack cache amortizes
    /// away. This is what a single standalone convolution costs — and what
    /// the paper's per-layer kernel measurements correspond to, so the
    /// figure harness uses it.
    pub fn estimate_millis_cold(&self, bits: BitWidth, shape: &ConvShape, algo: ArmAlgo) -> f64 {
        arm_schedule(self.resolve(algo, bits, shape), bits, shape, false).millis(&self.model)
    }
}

/// The prepack cache's in-process key for `weights` under `algo` at the
/// effective width `bits`: the fields [`prepack_fingerprint`] covers (the
/// layout tag, the weights' bit width, dims and bytes, and Winograd's
/// width), hashed eight bytes at a time over four independent lanes
/// instead of one byte at a time. Every step maps its lane one-to-one and
/// the final fold is one-to-one in each lane, so weights that differ in
/// a single byte get different keys. The key is never published: plans
/// and certificates carry the FNV fingerprint.
fn cache_key(weights: &QTensor, algo: ArmAlgo, bits: BitWidth) -> Option<u64> {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    fn step(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(MUL).rotate_left(29)
    }
    fn word(bytes: &[i8]) -> u64 {
        let mut le = [0u8; 8];
        le.iter_mut().zip(bytes).for_each(|(d, &b)| *d = b as u8);
        u64::from_le_bytes(le)
    }
    let (tag, transform_bits) = PackedWeights::layout_tag(algo, bits)?;
    let mut lanes = [1u64, 2, 3, 4];
    let mut blocks = weights.data().chunks_exact(32);
    for block in &mut blocks {
        for (lane, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(bytes));
        }
    }
    for (lane, bytes) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = step(*lane, word(bytes));
    }
    let (d0, d1, d2, d3) = weights.dims();
    let header = [tag, weights.bits().bits(), transform_bits.map_or(0, |b| b.bits())];
    let dims = [d0, d1, d2, d3].map(|d| d as u64);
    Some(header.map(u64::from).into_iter().chain(dims).chain(lanes).fold(0, step))
}

/// Panics unless `shape` has a positive stride, kernel and channel counts
/// and a kernel that fits the padded input, `input` is NCHW with `shape`'s
/// input dims, `weights` is NCHW with its filter dims, and `algo` applies
/// at the effective width ([`ArmAlgo::applies`]). Batch 0 passes:
/// every algorithm returns an empty result for it. [`ArmEngine::conv_traced`]
/// runs this before taking the state lock: a kernel or weight transform
/// panicking under the lock would poison the state every clone shares, and
/// each later call on any clone would panic too.
fn check_operands(input: &QTensor, weights: &QTensor, shape: &ConvShape, algo: ArmAlgo) {
    assert!(shape.stride > 0, "stride must be positive: {shape:?}");
    assert!(shape.kh > 0 && shape.kw > 0, "kernel must be at least 1x1: {shape:?}");
    assert!(shape.c_in > 0 && shape.c_out > 0, "channel counts must be positive: {shape:?}");
    assert!(
        shape.kh <= shape.h + 2 * shape.pad && shape.kw <= shape.w + 2 * shape.pad,
        "kernel larger than the padded input: {shape:?}"
    );
    assert_eq!(input.layout(), Layout::Nchw, "ARM path expects NCHW");
    let input_dims = (shape.batch, shape.c_in, shape.h, shape.w);
    assert_eq!(input.dims(), input_dims, "input dims do not match conv shape");
    assert_eq!(weights.layout(), Layout::Nchw, "ARM path expects NCHW weights");
    let weight_dims = (shape.c_out, shape.c_in, shape.kh, shape.kw);
    assert_eq!(weights.dims(), weight_dims, "weight dims do not match conv shape");
    let bits = input.bits().max(weights.bits());
    assert!(algo.applies(bits, shape), "{algo:?} does not apply at {bits} to {shape:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_conv_arm::direct_conv;
    use lowbit_tensor::Layout;

    fn tensors(shape: &ConvShape, bits: BitWidth, seed: u64) -> (QTensor, QTensor) {
        (
            QTensor::random(
                (shape.batch, shape.c_in, shape.h, shape.w),
                Layout::Nchw,
                bits,
                seed,
            ),
            QTensor::random(
                (shape.c_out, shape.c_in, shape.kh, shape.kw),
                Layout::Nchw,
                bits,
                seed + 1,
            ),
        )
    }

    #[test]
    fn auto_picks_winograd_only_where_the_paper_does() {
        let engine = ArmEngine::cortex_a53();
        let wg_shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        assert_eq!(engine.select_algo(BitWidth::W4, &wg_shape), ArmAlgo::Winograd);
        assert_eq!(engine.select_algo(BitWidth::W5, &wg_shape), ArmAlgo::Winograd);
        assert_eq!(engine.select_algo(BitWidth::W2, &wg_shape), ArmAlgo::Gemm);
        // At 8-bit the tight drain ratio hands the win to the spill-free
        // narrow tile (extension; the paper's own Alg. 1 kernel is forced
        // explicitly in the Fig. 7 harness).
        assert_eq!(engine.select_algo(BitWidth::W8, &wg_shape), ArmAlgo::GemmNarrow);
        let pointwise = ConvShape::new(1, 64, 56, 56, 256, 1, 1, 0);
        assert_eq!(engine.select_algo(BitWidth::W4, &pointwise), ArmAlgo::Gemm);
    }

    #[test]
    fn all_algorithms_agree_with_the_oracle() {
        let engine = ArmEngine::cortex_a53();
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        for (bits, algo) in [
            (BitWidth::W4, ArmAlgo::Auto),
            (BitWidth::W2, ArmAlgo::Auto),
            (BitWidth::W8, ArmAlgo::NcnnBaseline),
            (BitWidth::W2, ArmAlgo::BitserialBaseline),
            (BitWidth::W3, ArmAlgo::Winograd),
            (BitWidth::W7, ArmAlgo::GemmNarrow),
            (BitWidth::W6, ArmAlgo::GemmSdot),
        ] {
            let (input, weights) = tensors(&shape, bits, 100 + bits.bits() as u64);
            let out = engine.conv(&input, &weights, &shape, algo);
            let oracle = direct_conv(&input, &weights, &shape);
            assert_eq!(out.acc.data(), oracle.data(), "{bits} {algo:?}");
            assert!(out.millis > 0.0);
        }
    }

    #[test]
    fn estimate_matches_executed_schedule() {
        let engine = ArmEngine::cortex_a53();
        let shape = ConvShape::new(1, 6, 10, 10, 8, 3, 1, 1);
        for (bits, algo) in [
            (BitWidth::W5, ArmAlgo::Auto),
            (BitWidth::W5, ArmAlgo::Gemm),
            (BitWidth::W5, ArmAlgo::GemmNarrow),
            (BitWidth::W5, ArmAlgo::GemmSdot),
            (BitWidth::W4, ArmAlgo::Winograd),
            (BitWidth::W8, ArmAlgo::NcnnBaseline),
            (BitWidth::W2, ArmAlgo::BitserialBaseline),
        ] {
            let (input, weights) = tensors(&shape, bits, 9);
            let out = engine.conv(&input, &weights, &shape, algo);
            let est = engine.estimate_millis(bits, &shape, algo);
            assert!((out.millis - est).abs() < 1e-12, "{bits} {algo:?}");
        }
    }

    #[test]
    fn prepacked_schedules_drop_pack_a_and_nothing_else() {
        let shape = ConvShape::new(1, 16, 14, 14, 32, 3, 1, 1);
        let model = CortexA53::cost_model();
        for algo in [ArmAlgo::Gemm, ArmAlgo::GemmNarrow, ArmAlgo::GemmSdot, ArmAlgo::NcnnBaseline] {
            let full = arm_schedule(algo, BitWidth::W4, &shape, false);
            let pre = arm_schedule(algo, BitWidth::W4, &shape, true);
            assert_eq!(pre.stages.len() + 1, full.stages.len(), "{algo:?}");
            assert!(full.stage_cycles("pack A", &model) > 0.0, "{algo:?}");
            assert_eq!(pre.stage_cycles("pack A", &model), 0.0, "{algo:?}");
            for stage in ["im2col", "pack B", "gemm", "requant"] {
                assert_eq!(
                    pre.stage_cycles(stage, &model),
                    full.stage_cycles(stage, &model),
                    "{algo:?} {stage}"
                );
            }
        }
        // Every other algorithm's warm price is its one-shot one: the
        // bitserial baseline packs per call, and the Winograd model still
        // charges the weight transform and `pack A` that the engine caches.
        for (bits, algo) in [
            (BitWidth::W4, ArmAlgo::Winograd),
            (BitWidth::W2, ArmAlgo::BitserialBaseline),
        ] {
            let warm = arm_schedule(algo, bits, &shape, true);
            let cold = arm_schedule(algo, bits, &shape, false);
            assert_eq!(warm.stages.len(), cold.stages.len(), "{algo:?}");
            assert_eq!(warm.cycles(&model).to_bits(), cold.cycles(&model).to_bits(), "{algo:?}");
        }
        let winograd = arm_schedule(ArmAlgo::Winograd, BitWidth::W4, &shape, true);
        assert!(winograd.stage_cycles("pack A", &model) > 0.0);
    }

    #[test]
    fn executed_gemm_schedule_has_no_pack_a_stage() {
        let engine = ArmEngine::cortex_a53();
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 77);
        let out = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        assert_eq!(out.schedule.stage_cycles("pack A", engine.model()), 0.0);
        assert!(out.schedule.stage_cycles("gemm", engine.model()) > 0.0);
    }

    #[test]
    fn prepack_cache_hits_on_repeated_convs() {
        let engine = ArmEngine::cortex_a53().with_threads(2);
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 33);
        let first = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        let second = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        assert_eq!(first.acc.data(), second.acc.data());
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Another layout needs its own cache entry.
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::GemmNarrow);
        let stats = engine.prepack_stats();
        assert_eq!((stats.misses, stats.entries), (2, 2));
        assert!(stats.bytes > 0);
        // Clones share cache and workspace.
        let clone = engine.clone();
        let _ = clone.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        assert_eq!(engine.prepack_stats().hits, 2);
        assert_eq!(engine.workspace_stats().calls, 4);
    }

    #[test]
    fn prepack_cache_evicts_least_recently_used_under_capacity_bound() {
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 33);
        // Size the bound to fit exactly one packed layout: learn the entry
        // size from an unbounded engine first.
        let probe = ArmEngine::cortex_a53();
        let _ = probe.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let one_entry = probe.prepack_stats().bytes;
        assert!(one_entry > 0);

        let engine = ArmEngine::cortex_a53().with_prepack_capacity(one_entry);
        assert_eq!(engine.prepack_stats().capacity_bytes, one_entry);
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        assert_eq!(engine.prepack_stats().evictions, 0);
        // A second layout overflows the budget; the older Gemm entry goes.
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::GemmNarrow);
        let stats = engine.prepack_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        // The evicted entry re-packs as a fresh miss, evicting in turn.
        let out = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 3, 2));
        // Eviction never affects results.
        assert_eq!(out.acc.data(), direct_conv(&input, &weights, &shape).data());
    }

    #[test]
    fn prepack_cache_keeps_a_single_oversized_entry() {
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 33);
        // A 1-byte budget cannot fit anything, but the just-packed entry is
        // kept so repeated convs of one layer still hit.
        let engine = ArmEngine::cortex_a53().with_prepack_capacity(1);
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries, stats.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn a_rejected_call_leaves_every_clone_working() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 33);
        let oracle = direct_conv(&input, &weights, &shape);
        let engine = ArmEngine::cortex_a53().with_threads(2);
        let clone = engine.clone();
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let wrong_dims = ConvShape::new(1, 4, 9, 8, 6, 3, 1, 1);
        let strided = ConvShape::new(1, 4, 8, 8, 6, 3, 2, 1);
        let (input7, weights7) = tensors(&shape, BitWidth::W7, 34);
        let (input2, weights2) = tensors(&shape, BitWidth::W2, 35);
        // Degenerate geometry with matching tensors: past the check, each
        // would panic (or return an empty result) inside a kernel, under
        // the state lock.
        let conv_on = |shape: ConvShape, algo: ArmAlgo| {
            let (input, weights) = tensors(&shape, BitWidth::W4, 36);
            let _ = engine.conv(&input, &weights, &shape, algo);
        };
        let stride0 = ConvShape::new(1, 4, 8, 8, 6, 3, 0, 1);
        let no_kernel = ConvShape::new(1, 4, 8, 8, 6, 0, 1, 1);
        let no_c_in = ConvShape::new(1, 0, 8, 8, 6, 3, 1, 1);
        let no_c_out = ConvShape::new(1, 4, 8, 8, 0, 3, 1, 1);
        let oversized = ConvShape::new(1, 4, 2, 2, 6, 3, 1, 0);
        let oversized_s2 = ConvShape::new(1, 4, 2, 2, 6, 3, 2, 0);
        let bad_calls: [(&str, &dyn Fn()); 15] = [
            ("NHWC input", &|| {
                let nhwc = input.to_layout(Layout::Nhwc);
                let _ = engine.conv(&nhwc, &weights, &shape, ArmAlgo::Gemm);
            }),
            ("input dims", &|| {
                let _ = engine.conv(&input, &weights, &wrong_dims, ArmAlgo::GemmNarrow);
            }),
            ("weight dims", &|| {
                let _ = engine.conv(&input, &input, &shape, ArmAlgo::Gemm);
            }),
            ("NHWC weights", &|| {
                let nhwc = weights.to_layout(Layout::Nhwc);
                let _ = engine.conv(&input, &nhwc, &shape, ArmAlgo::Winograd);
            }),
            ("Winograd on stride 2", &|| {
                let _ = engine.conv(&input, &weights, &strided, ArmAlgo::Winograd);
            }),
            ("Winograd at 7 bit", &|| {
                let _ = engine.conv(&input7, &weights7, &shape, ArmAlgo::Winograd);
            }),
            ("narrow at 2 bit", &|| {
                let _ = engine.conv(&input2, &weights2, &shape, ArmAlgo::GemmNarrow);
            }),
            ("Gemm at stride 0", &|| conv_on(stride0, ArmAlgo::Gemm)),
            ("narrow at stride 0", &|| conv_on(stride0, ArmAlgo::GemmNarrow)),
            ("0x0 kernel", &|| conv_on(no_kernel, ArmAlgo::Gemm)),
            ("Gemm without input channels", &|| conv_on(no_c_in, ArmAlgo::Gemm)),
            ("Winograd without input channels", &|| conv_on(no_c_in, ArmAlgo::Winograd)),
            ("Winograd without output channels", &|| conv_on(no_c_out, ArmAlgo::Winograd)),
            ("3x3 over an unpadded 2x2 input", &|| conv_on(oversized, ArmAlgo::Gemm)),
            ("3x3/s2 over an unpadded 2x2 input", &|| conv_on(oversized_s2, ArmAlgo::Gemm)),
        ];
        for (name, call) in bad_calls {
            assert!(catch_unwind(AssertUnwindSafe(call)).is_err(), "{name} must be rejected");
            let out = clone.conv(&input, &weights, &shape, ArmAlgo::Gemm);
            assert_eq!(out.acc.data(), oracle.data(), "clone after {name}");
        }
        assert_eq!(engine.prepack_stats().hits, bad_calls.len() as u64);
    }

    #[test]
    fn batch_zero_returns_an_empty_result_on_every_algorithm() {
        let shape = ConvShape::new(0, 4, 8, 8, 6, 3, 1, 1);
        let engine = ArmEngine::cortex_a53().with_threads(2);
        for algo in [
            ArmAlgo::Auto,
            ArmAlgo::Gemm,
            ArmAlgo::Winograd,
            ArmAlgo::GemmNarrow,
            ArmAlgo::GemmSdot,
            ArmAlgo::NcnnBaseline,
            ArmAlgo::BitserialBaseline,
        ] {
            let bits = if algo == ArmAlgo::BitserialBaseline { BitWidth::W2 } else { BitWidth::W4 };
            let (input, weights) = tensors(&shape, bits, 37);
            let out = engine.conv(&input, &weights, &shape, algo);
            assert!(out.acc.data().is_empty(), "{algo:?}");
        }
    }

    #[test]
    fn winograd_weights_are_cached_per_effective_bit_width() {
        let shape = ConvShape::new(1, 5, 9, 7, 6, 3, 1, 1);
        let (input4, weights) = tensors(&shape, BitWidth::W4, 61);
        let (input6, _) = tensors(&shape, BitWidth::W6, 62);
        let engine = ArmEngine::cortex_a53().with_threads(2);
        let w4 = engine.conv(&input4, &weights, &shape, ArmAlgo::Winograd);
        let w6 = engine.conv(&input6, &weights, &shape, ArmAlgo::Winograd);
        // W4 weights under a W6 input transform at 6 bit: a second entry.
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
        assert_eq!(w4.acc.data(), direct_conv(&input4, &weights, &shape).data());
        let one_shot = lowbit_conv_arm::winograd_conv(&input6, &weights, &shape);
        assert_eq!(w6.acc.data(), one_shot.acc.data());
        // Warm calls hit their own entries and stop growing the arena.
        let again4 = engine.conv(&input4, &weights, &shape, ArmAlgo::Winograd);
        let again6 = engine.conv(&input6, &weights, &shape, ArmAlgo::Winograd);
        assert_eq!((again4.prepack_hit, again6.prepack_hit), (Some(true), Some(true)));
        assert_eq!(again4.acc.data(), w4.acc.data());
        assert_eq!(again6.acc.data(), w6.acc.data());
        assert_eq!(again4.workspace_growth_bytes + again6.workspace_growth_bytes, 0);
        for key in [prepack_fingerprint, cache_key] {
            let bits = |b| key(&weights, ArmAlgo::Winograd, b);
            assert_ne!(bits(BitWidth::W4), bits(BitWidth::W6));
            let gemm = |b| key(&weights, ArmAlgo::Gemm, b);
            assert_eq!(gemm(BitWidth::W4), gemm(BitWidth::W6), "GEMM packing ignores the width");
        }
    }

    #[test]
    fn prepack_fingerprint_is_the_published_fnv_value() {
        // Plans, `Network::fingerprint` and the certificates publish this
        // value: a change here moves every golden that carries it.
        let data = vec![-2, -1, 0, 1, 1, 0, -1, -2];
        let tensor = Tensor::from_vec((2, 1, 2, 2), Layout::Nchw, data);
        let weights = QTensor::new(tensor, BitWidth::W2, 1.0);
        let gemm = prepack_fingerprint(&weights, ArmAlgo::Gemm, BitWidth::W2);
        assert_eq!(gemm, Some(12800222865419251388));
        let winograd = prepack_fingerprint(&weights, ArmAlgo::Winograd, BitWidth::W4);
        assert_eq!(winograd, Some(15698813941962827989));
    }

    #[test]
    fn cache_key_finds_equal_weights_and_separates_everything_else() {
        let shape = ConvShape::new(1, 5, 9, 7, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 81);
        let key = |w: &QTensor, algo, bits| cache_key(w, algo, bits).expect("a packed layout");
        let with_data = |data| {
            let tensor = Tensor::from_vec(weights.dims(), Layout::Nchw, data);
            QTensor::new(tensor, weights.bits(), weights.scale())
        };
        // An equal tensor built separately hits the same entry.
        let engine = ArmEngine::cortex_a53();
        let first = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let twin = with_data(weights.data().to_vec());
        let second = engine.conv(&input, &twin, &shape, ArmAlgo::Gemm);
        assert_eq!((first.prepack_hit, second.prepack_hit), (Some(false), Some(true)));
        assert_eq!(engine.prepack_stats().entries, 1);
        // A one-byte change anywhere misses: each byte of the 270-byte
        // tensor (whole 32-byte blocks, then the tail) is changed in turn.
        let gemm = key(&weights, ArmAlgo::Gemm, BitWidth::W4);
        let flipped = |at: usize| {
            let mut data = weights.data().to_vec();
            data[at] = if data[at] == 0 { 1 } else { 0 };
            with_data(data)
        };
        for at in 0..weights.data().len() {
            assert_ne!(key(&flipped(at), ArmAlgo::Gemm, BitWidth::W4), gemm, "byte {at}");
        }
        let miss = engine.conv(&input, &flipped(0), &shape, ArmAlgo::Gemm);
        assert_eq!(miss.prepack_hit, Some(false));
        // The layout and Winograd's width are part of the key; the GEMM
        // layouts ignore the width, and the ncnn baseline reads the narrow
        // tile's layout.
        let narrow = key(&weights, ArmAlgo::GemmNarrow, BitWidth::W4);
        assert_ne!(narrow, gemm);
        assert_ne!(key(&weights, ArmAlgo::GemmSdot, BitWidth::W4), gemm);
        assert_eq!(key(&weights, ArmAlgo::NcnnBaseline, BitWidth::W4), narrow);
        assert_eq!(key(&weights, ArmAlgo::Gemm, BitWidth::W6), gemm);
        let winograd = |bits| key(&weights, ArmAlgo::Winograd, bits);
        assert_ne!(winograd(BitWidth::W4), winograd(BitWidth::W6));
        assert_eq!(cache_key(&weights, ArmAlgo::BitserialBaseline, BitWidth::W2), None);
    }

    #[test]
    fn forced_gemm_is_exact_for_any_thread_count() {
        let shape = ConvShape::new(2, 3, 9, 7, 5, 3, 2, 1);
        let (input, weights) = tensors(&shape, BitWidth::W6, 55);
        let oracle = direct_conv(&input, &weights, &shape);
        for threads in [1, 2, 4] {
            let engine = ArmEngine::cortex_a53().with_threads(threads);
            for algo in [ArmAlgo::Gemm, ArmAlgo::NcnnBaseline] {
                let out = engine.conv(&input, &weights, &shape, algo);
                assert_eq!(out.acc.data(), oracle.data(), "{algo:?} x{threads}");
            }
        }
    }

    #[test]
    fn the_ncnn_baseline_shares_the_narrow_tiles_cache_entry() {
        let shape = ConvShape::new(2, 5, 9, 7, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W8, 91);
        let oracle = direct_conv(&input, &weights, &shape);
        let engine = ArmEngine::cortex_a53().with_threads(2);
        let narrow = engine.conv(&input, &weights, &shape, ArmAlgo::GemmNarrow);
        let ncnn = engine.conv(&input, &weights, &shape, ArmAlgo::NcnnBaseline);
        assert_eq!((narrow.prepack_hit, ncnn.prepack_hit), (Some(false), Some(true)));
        assert_eq!(engine.prepack_stats().entries, 1);
        assert_eq!(narrow.acc.data(), oracle.data());
        assert_eq!(ncnn.acc.data(), oracle.data());
    }
}
