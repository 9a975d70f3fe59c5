//! The ARM convolution engine: algorithm selection over the Sec. 3 kernels,
//! a prepacked-weight cache, and a reusable workspace arena.
//!
//! The GEMM-family algorithms (`Gemm`, `GemmNarrow`, `GemmSdot`) and
//! Winograd run through the prepacked parallel path
//! `lowbit_conv_arm::gemm_conv_ws`: weights are packed once per layer —
//! Winograd's transformed once, too — keyed by a fingerprint of the weight
//! tensor (and, for Winograd, of the effective bit width) and reused across
//! calls; the im2col/transform/pack-B/result buffers live in one arena; and
//! the work spans `LOWBIT_THREADS` scoped threads. The executed and the
//! estimated schedules both come from the one table, [`arm_schedule`]; the
//! GEMM family's drops the `pack A` stage. The cost model stays single-core
//! — wall-clock thread scaling is the benchmark suite's story, not the
//! model's.

use lowbit_conv_arm::{
    bitserial_conv, gemm_conv_ws, ncnn_conv, schedule_bitserial_conv, schedule_gemm_conv,
    schedule_gemm_conv_narrow, schedule_gemm_conv_sdot, schedule_ncnn_conv, schedule_winograd_conv,
    winograd_supported, ConvOutput, ConvWorkspace, PackedWeights, WinogradWeights,
};
use lowbit_qgemm::narrow::pack_a_narrow;
use lowbit_qgemm::parallel::{threads_from_env, ParallelConfig, MAX_THREADS};
use lowbit_qgemm::sdot::pack_a_quads;
use lowbit_qgemm::workspace::WorkspaceStats;
use lowbit_qgemm::{pack_a, Scheme};
use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor, Tensor};
use lowbit_trace::{PipeAttribution, Tracer, MAIN_TRACK};
use neon_sim::{CortexA53, CostModel, KernelSchedule, StageCost};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Algorithm choice for one layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArmAlgo {
    /// Pick the modeled-fastest applicable algorithm (the paper's policy:
    /// Winograd for 4–6-bit 3x3/s1, the scheme-matched GEMM otherwise).
    Auto,
    /// Force the explicit-GEMM path.
    Gemm,
    /// Force the Winograd `F(2x2, 3x3)` path (panics if not applicable).
    Winograd,
    /// The spill-free narrow 8x4 GEMM tile (extension; SMLAL widths only).
    GemmNarrow,
    /// The ARMv8.2 `SDOT` GEMM (extension; models a newer core's ISA).
    GemmSdot,
    /// The ncnn-like 8-bit baseline.
    NcnnBaseline,
    /// The TVM-like popcount baseline (2-bit only).
    BitserialBaseline,
}

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
/// `warm == true` it is the modeled price of repeated calls: the three GEMM
/// kernels run from the prepack cache, so their `pack A` stage is amortized
/// away; every other algorithm keeps its one-shot schedule. For Winograd
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
    let scheme = Scheme::for_bits(bits);
    let (mut sched, prepacked) = match algo {
        ArmAlgo::Gemm => (schedule_gemm_conv(&scheme, shape), true),
        ArmAlgo::GemmNarrow => (schedule_gemm_conv_narrow(&scheme, shape), true),
        ArmAlgo::GemmSdot => (schedule_gemm_conv_sdot(shape), true),
        ArmAlgo::Winograd => (schedule_winograd_conv(bits, shape), false),
        ArmAlgo::NcnnBaseline => (schedule_ncnn_conv(shape), false),
        ArmAlgo::BitserialBaseline => (schedule_bitserial_conv(shape), false),
        ArmAlgo::Auto => panic!("ArmAlgo::Auto has no schedule; resolve it first"),
    };
    if warm && prepacked {
        sched.stages.retain(|s| s.name != "pack A");
    }
    sched
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

/// Lays a schedule's stages back-to-back on a synthetic "modeled" timeline
/// track, one span per stage (duration = the stage's modeled wall time),
/// under a parent span covering the whole kernel. Only the stage spans carry
/// a [`PipeAttribution`], so summing attributions over the track counts each
/// cycle exactly once.
fn emit_modeled_schedule(
    tracer: &Tracer,
    track: u32,
    label: &str,
    sched: &KernelSchedule,
    model: &CostModel,
) {
    if !tracer.enabled() {
        return;
    }
    let mut at_ns = 0u64;
    let mut stages = Vec::with_capacity(sched.stages.len());
    for stage in &sched.stages {
        let dur_ns = (model.seconds(stage.cycles(model)) * 1e9).round().max(1.0) as u64;
        stages.push((stage, at_ns, dur_ns));
        at_ns += dur_ns;
    }
    tracer.modeled_span(track, "conv modeled", 0, at_ns, Some(label.to_string()), None);
    for (stage, start_ns, dur_ns) in stages {
        tracer.modeled_span(
            track,
            stage.name,
            start_ns,
            dur_ns,
            None,
            Some(stage_attribution(stage, model)),
        );
    }
}

/// Cache and reuse statistics of the engine's prepacked-weight store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepackStats {
    /// Calls served from the cache.
    pub hits: u64,
    /// Calls that had to pack (first sighting of a weight/algorithm pair —
    /// for Winograd, of a weight/bit-width pair).
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

/// The prepack-cache key a weight tensor will be stored under when executed
/// with `algo` at the effective bit width `bits` (`max(input, weight)`;
/// `None` for algorithms without a prepacked layout). Only Winograd's key
/// depends on `bits`, because only its weight transform does. This is what
/// [`crate::plan::LayerPlan::prepack_fingerprint`] records, so a plan can be
/// checked against the engine's cache contents.
pub fn prepack_fingerprint(weights: &QTensor, algo: ArmAlgo, bits: BitWidth) -> Option<u64> {
    let (tag, transform_bits) = match algo {
        ArmAlgo::Gemm => (0u8, None),
        ArmAlgo::GemmNarrow => (1, None),
        ArmAlgo::GemmSdot => (2, None),
        ArmAlgo::Winograd => (3, Some(bits)),
        _ => return None,
    };
    Some(fingerprint(weights, tag, transform_bits))
}

/// FNV-1a over the weight tensor's identity (algorithm layout tag, bit
/// width, dims, raw bytes, then the transform width if any) — the prepack
/// cache key.
fn fingerprint(weights: &QTensor, tag: u8, transform_bits: Option<BitWidth>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(tag);
    eat(weights.bits().bits());
    let (d0, d1, d2, d3) = weights.dims();
    for d in [d0, d1, d2, d3] {
        for b in (d as u64).to_le_bytes() {
            eat(b);
        }
    }
    for &v in weights.data() {
        eat(v as u8);
    }
    if let Some(bits) = transform_bits {
        eat(bits.bits());
    }
    h
}

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
    fn prepacked(
        &mut self,
        weights: &QTensor,
        shape: &ConvShape,
        algo: ArmAlgo,
        bits: BitWidth,
    ) -> Arc<PackedWeights> {
        let key = prepack_fingerprint(weights, algo, bits)
            .unwrap_or_else(|| unreachable!("{algo:?} has no prepacked layout"));
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.cache.get_mut(&key) {
            entry.last_used = tick;
            self.hits += 1;
            return entry.packed.clone();
        }
        self.misses += 1;
        let (m, k) = (shape.gemm_m(), shape.gemm_k());
        let packed = Arc::new(match algo {
            ArmAlgo::Gemm => PackedWeights::Wide(pack_a(weights.data(), m, k)),
            ArmAlgo::GemmNarrow => PackedWeights::Narrow(pack_a_narrow(weights.data(), m, k)),
            ArmAlgo::GemmSdot => PackedWeights::Quads(pack_a_quads(weights.data(), m, k)),
            ArmAlgo::Winograd => PackedWeights::Winograd(WinogradWeights::pack(weights, bits)),
            _ => unreachable!(),
        });
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

    /// Worker threads used by the GEMM-family algorithms and Winograd.
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
    /// pipeline (im2col, per-worker pack-B/GEMM tracks, reshape); a
    /// dedicated `modeled/<ctx>` track carries one span per analytic stage
    /// (pack B, gemm, Winograd transforms, requant, ...) with its
    /// [`PipeAttribution`], laid back-to-back so their total reproduces
    /// `millis` exactly. `ctx` names the call site (usually the layer).
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
        let out = match algo {
            ArmAlgo::Gemm | ArmAlgo::GemmNarrow | ArmAlgo::GemmSdot | ArmAlgo::Winograd => {
                let scheme = Scheme::for_bits(bits);
                let cfg = ParallelConfig::with_threads(self.threads);
                let mut guard = self.state.lock().expect("engine state poisoned");
                let st = &mut *guard;
                let hits_before = st.hits;
                let packed = st.prepacked(weights, shape, algo, bits);
                prepack_hit = Some(st.hits > hits_before);
                let ws_before = st.ws.footprint_bytes();
                let acc = gemm_conv_ws(input, &packed, &scheme, shape, &cfg, &mut st.ws, tracer);
                workspace_growth_bytes = st.ws.footprint_bytes().saturating_sub(ws_before);
                ConvOutput { acc, schedule: arm_schedule(algo, bits, shape, true) }
            }
            ArmAlgo::NcnnBaseline => ncnn_conv(input, weights, shape),
            ArmAlgo::BitserialBaseline => bitserial_conv(input, weights, shape),
            ArmAlgo::Auto => unreachable!("Auto resolved above"),
        };
        drop(conv_span);
        if tracer.enabled() {
            let track = tracer.track(&format!("modeled/{ctx}"));
            emit_modeled_schedule(
                tracer,
                track,
                &format!("{algo:?} {bits}"),
                &out.schedule,
                &self.model,
            );
        }
        let millis = out.schedule.millis(&self.model);
        self.state.lock().expect("engine state poisoned").modeled_millis += millis;
        ArmConvResult {
            acc: out.acc,
            algo,
            schedule: out.schedule,
            millis,
            prepack_hit,
            workspace_growth_bytes,
        }
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

/// Panics unless `input` is NCHW with `shape`'s input dims, `weights` is
/// NCHW with its filter dims, and a forced Winograd has a 3x3/stride-1
/// shape and at most 6 effective bits. [`ArmEngine::conv_traced`] runs this
/// before taking the state lock: a kernel or weight transform panicking
/// under the lock would poison the state every clone shares, and each later
/// call on any clone would panic too.
fn check_operands(input: &QTensor, weights: &QTensor, shape: &ConvShape, algo: ArmAlgo) {
    assert_eq!(input.layout(), Layout::Nchw, "ARM path expects NCHW");
    let input_dims = (shape.batch, shape.c_in, shape.h, shape.w);
    assert_eq!(input.dims(), input_dims, "input dims do not match conv shape");
    assert_eq!(weights.layout(), Layout::Nchw, "ARM path expects NCHW weights");
    let weight_dims = (shape.c_out, shape.c_in, shape.kh, shape.kw);
    assert_eq!(weights.dims(), weight_dims, "weight dims do not match conv shape");
    if algo == ArmAlgo::Winograd {
        assert!(shape.winograd_applicable(), "Winograd requires 3x3 stride-1");
        let bits = input.bits().max(weights.bits());
        assert!(winograd_supported(bits), "Winograd supports <= 6 bit, not {bits}");
    }
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
        for algo in [ArmAlgo::Gemm, ArmAlgo::GemmNarrow, ArmAlgo::GemmSdot] {
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
        // baselines pack per call, and the Winograd model still charges the
        // weight transform and `pack A` that the engine now caches.
        for (bits, algo) in [
            (BitWidth::W4, ArmAlgo::Winograd),
            (BitWidth::W8, ArmAlgo::NcnnBaseline),
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
        // Another algorithm needs its own layout: a second cache entry.
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
        let bad_calls: [(&str, &dyn Fn()); 6] = [
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
        ];
        for (name, call) in bad_calls {
            assert!(catch_unwind(AssertUnwindSafe(call)).is_err(), "{name} must be rejected");
            let out = clone.conv(&input, &weights, &shape, ArmAlgo::Gemm);
            assert_eq!(out.acc.data(), oracle.data(), "clone after {name}");
        }
        assert_eq!(engine.prepack_stats().hits, 6);
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
        let bits = |b| prepack_fingerprint(&weights, ArmAlgo::Winograd, b);
        assert_ne!(bits(BitWidth::W4), bits(BitWidth::W6));
        let gemm = |b| prepack_fingerprint(&weights, ArmAlgo::Gemm, b);
        assert_eq!(gemm(BitWidth::W4), gemm(BitWidth::W6), "GEMM packing ignores the width");
    }

    #[test]
    fn forced_gemm_is_exact_for_any_thread_count() {
        let shape = ConvShape::new(2, 3, 9, 7, 5, 3, 2, 1);
        let (input, weights) = tensors(&shape, BitWidth::W6, 55);
        let oracle = direct_conv(&input, &weights, &shape);
        for threads in [1, 2, 4] {
            let engine = ArmEngine::cortex_a53().with_threads(threads);
            let out = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
            assert_eq!(out.acc.data(), oracle.data(), "x{threads}");
        }
    }
}
