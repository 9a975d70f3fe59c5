//! Scoped-thread parallel GEMM driver.
//!
//! Parallelism follows the im2col structure of the convolution: the N
//! dimension (output pixels) is partitioned into per-thread column-tile
//! blocks. Packed A (the weights) is shared read-only across threads; each
//! thread packs its own cache-blocked B panels and writes a **disjoint**
//! contiguous slice of the column-major result, so the driver needs no
//! atomics, no locks and no `unsafe` — and the output is bit-exact versus
//! the plain i32 product for every thread count and blocking parameter.
//!
//! This is the one driver of the wide and narrow tiles: the engine, the
//! Winograd path and the one-shot [`crate::gemm()`] and
//! [`crate::gemm_narrow`] (one thread, then a transpose) all run it.
//!
//! Why bit-exactness holds under K-blocking: within the published drain
//! ratios every i8/i16 partial is exact, so each K-block contributes the
//! exact i32 sub-sum and i32 addition of exact sub-sums is associative.
//! The property tests in `tests/proptest_invariants.rs` enforce this over
//! random shapes, bit widths, thread counts and block sizes.

use crate::gemm::col_to_row_major;
use crate::micro::{accumulate_tiles_on, MLA_BLOCK, SMLAL_BLOCK, TILE_LEN};
use crate::narrow::{accumulate_tiles_narrow_on, PackedANarrow, NARROW_BLOCK, NARROW_TILE_LEN};
use crate::pack::{PackedA, NB};
use crate::scheme::{Scheme, SchemeKind};
use crate::workspace::GemmWorkspace;
use lowbit_isa::Isa;
use lowbit_trace::{Tracer, MAIN_TRACK};
use std::ops::Range;

/// Default K cache-block: `kc * (NA + nc)` operand bytes stay L1-resident.
pub const DEFAULT_KC: usize = 384;
/// Default N cache-block (columns; multiple of [`NB`]).
pub const DEFAULT_NC: usize = 128;
/// Upper bound on accepted thread counts.
pub const MAX_THREADS: usize = 16;

/// Thread count parsed from a raw `LOWBIT_THREADS` value: unset, empty,
/// non-numeric or zero requests fall back to 1; anything above
/// [`MAX_THREADS`] is clamped down. Pure so the parsing policy is testable
/// without mutating the process environment.
pub fn threads_from_str(raw: Option<&str>) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).map_or(1, |t| t.clamp(1, MAX_THREADS))
}

/// Thread count requested via the `LOWBIT_THREADS` environment variable
/// (default 1, clamped to `1..=MAX_THREADS`; see [`threads_from_str`]).
pub fn threads_from_env() -> usize {
    threads_from_str(std::env::var("LOWBIT_THREADS").ok().as_deref())
}

/// Thread count and cache-blocking parameters for the parallel driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (1 = run on the caller thread).
    pub threads: usize,
    /// K block length: bounds the packed-B panel height.
    pub kc: usize,
    /// N block width in columns: bounds the packed-B panel width (rounded
    /// up to a multiple of [`NB`]).
    pub nc: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig::with_threads(1)
    }
}

impl ParallelConfig {
    /// Default blocking with an explicit thread count.
    pub fn with_threads(threads: usize) -> ParallelConfig {
        ParallelConfig { threads: threads.clamp(1, MAX_THREADS), kc: DEFAULT_KC, nc: DEFAULT_NC }
    }

    /// Default blocking with the `LOWBIT_THREADS` thread count.
    pub fn from_env() -> ParallelConfig {
        ParallelConfig::with_threads(threads_from_env())
    }

    fn normalized(mut self) -> ParallelConfig {
        self.threads = self.threads.clamp(1, MAX_THREADS);
        self.kc = self.kc.max(1);
        self.nc = self.nc.max(1).div_ceil(NB) * NB;
        self
    }
}

/// One thread's contiguous column range `[col0, col0 + cols)` of the
/// column-major output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColumnSpan {
    /// First column owned by the thread.
    pub col0: usize,
    /// Number of columns owned. Zero when the thread holds no column tiles
    /// (more threads than tiles, or `n == 0`); empty spans sit at the
    /// partition cursor (`col0 == n` for trailing empties) so the span list
    /// stays contiguous and covering.
    pub cols: usize,
}

impl ColumnSpan {
    /// One past the last owned column.
    #[inline]
    pub fn end(&self) -> usize {
        self.col0 + self.cols
    }
}

/// Splits `n` output columns into per-thread spans: column tiles of [`NB`]
/// are distributed round-robin-evenly (the first `col_tiles % threads` spans
/// get one extra tile), so spans are contiguous, pairwise disjoint, cover
/// `[0, n)`, and all interior boundaries are [`NB`]-aligned.
///
/// This is the **only** place the parallel driver's work split is computed —
/// [`gemm_parallel_cm`] carves its `split_at_mut` slices from these spans,
/// and `lowbit-verify` checks the same spans for disjointness and coverage.
/// The returned length is exactly the requested thread count clamped to
/// `1..=MAX_THREADS`, so callers may index spans by thread id; threads
/// beyond the tile count receive well-formed **empty** spans (`cols == 0`,
/// `col0` at the partition cursor) which the driver never spawns workers
/// for and which the partition proof accepts as covered.
pub fn partition_columns(n: usize, threads: usize) -> Vec<ColumnSpan> {
    let col_tiles = n.div_ceil(NB);
    let threads = threads.clamp(1, MAX_THREADS);
    let workers = threads.min(col_tiles).max(1);
    let base = col_tiles / workers;
    let extra = col_tiles % workers;
    let mut spans = Vec::with_capacity(threads);
    let mut tile0 = 0usize;
    for t in 0..threads {
        let tiles_t = if t < workers { base + usize::from(t < extra) } else { 0 };
        let col0 = (tile0 * NB).min(n);
        let cols = ((tile0 + tiles_t) * NB).min(n) - col0;
        tile0 += tiles_t;
        spans.push(ColumnSpan { col0, cols });
    }
    spans
}

/// The shared, read-only packed weights a parallel GEMM runs against.
#[derive(Clone, Copy)]
pub enum SharedWeights<'a> {
    /// 16-row tiles (SMLAL and MLA schemes).
    Wide(&'a PackedA),
    /// 8-row tiles (narrow SMLAL kernel).
    Narrow(&'a PackedANarrow),
}

impl SharedWeights<'_> {
    /// Logical rows (GEMM M).
    pub fn m(&self) -> usize {
        match self {
            SharedWeights::Wide(pa) => pa.m,
            SharedWeights::Narrow(pa) => pa.m,
        }
    }

    /// Shared dimension (GEMM K).
    pub fn k(&self) -> usize {
        match self {
            SharedWeights::Wide(pa) => pa.k,
            SharedWeights::Narrow(pa) => pa.k,
        }
    }

    fn tiles(&self) -> usize {
        match self {
            SharedWeights::Wide(pa) => pa.tiles(),
            SharedWeights::Narrow(pa) => pa.tiles(),
        }
    }
}

/// Runs `C = A x B` across `cfg.threads` scoped threads into the caller's
/// workspace, returning the **column-major** `m x n` result
/// (`c[col * m + row]`) borrowed from `ws`.
///
/// Steady state (same or smaller shape, same thread count) performs zero
/// heap allocations; see [`GemmWorkspace::stats`].
pub fn gemm_parallel_cm<'w>(
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    k: usize,
    n: usize,
    cfg: &ParallelConfig,
    ws: &'w mut GemmWorkspace,
) -> &'w [i32] {
    gemm_parallel_cm_on(Isa::host(), scheme, weights, b, k, n, cfg, ws, &Tracer::null())
}

/// [`gemm_parallel_cm`] with every micro-tile compiled for `isa` (kernel
/// tests run each [`Isa::supported`] instance through it) and with span
/// recording: each scoped worker thread gets its own timeline track (named
/// after its [`ColumnSpan`]) carrying a `gemm worker` parent span (labelled
/// with its columns and the vector ISA the tiles run on) with
/// `pack B panel` and `gemm tile` children. With a null tracer every
/// recording call reduces to one branch and the path stays
/// allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel_cm_on<'w>(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    k: usize,
    n: usize,
    cfg: &ParallelConfig,
    ws: &'w mut GemmWorkspace,
    tracer: &Tracer,
) -> &'w [i32] {
    assert_eq!(weights.k(), k, "weights disagree on K");
    assert_eq!(b.len(), k * n, "B operand has wrong length");
    if matches!(weights, SharedWeights::Narrow(_)) {
        assert_eq!(scheme.kind(), SchemeKind::Smlal8, "narrow tile is SMLAL-only");
    } else {
        assert_ne!(scheme.kind(), SchemeKind::Ncnn16, "the ncnn baseline runs on gemm_ncnn");
    }
    let cfg = cfg.normalized();
    let m = weights.m();
    let spans = partition_columns(n, cfg.threads);
    // Empty spans (more threads than column tiles) own no work and get no
    // worker; the split_at_mut carving below still walks them so C slices
    // stay aligned with span order.
    let active = spans.iter().filter(|s| s.cols > 0).count();

    let before = ws.footprint_bytes();
    ws.prepare(spans.len(), m * n);
    if k == 0 {
        ws.c_cm.fill(0); // no K block stores the result
    }
    if active <= 1 {
        if let Some(span) = spans.iter().find(|s| s.cols > 0) {
            let track = worker_track(tracer, span);
            worker(
                isa,
                scheme,
                weights,
                b,
                n,
                span,
                &cfg,
                &mut ws.scratch[0].b_panel,
                &mut ws.c_cm,
                tracer,
                track,
            );
        }
    } else {
        // Each thread's C slice is the contiguous column range of its span,
        // carved off with split_at_mut — disjointness and coverage of the
        // spans (checked statically by lowbit-verify) make this partition
        // lock- and unsafe-free.
        std::thread::scope(|scope| {
            let mut c_rest: &mut [i32] = &mut ws.c_cm;
            let mut scratch_rest: &mut [crate::workspace::ThreadScratch] = &mut ws.scratch;
            for span in &spans {
                let (c_t, rest) = c_rest.split_at_mut(span.cols * m);
                c_rest = rest;
                let (s_t, rest) = scratch_rest.split_at_mut(1);
                scratch_rest = rest;
                if span.cols == 0 {
                    continue;
                }
                let panel = &mut s_t[0].b_panel;
                let track = worker_track(tracer, span);
                scope.spawn(move || {
                    worker(isa, scheme, weights, b, n, span, &cfg, panel, c_t, tracer, track);
                });
            }
        });
    }
    ws.note_call(before);
    &ws.c_cm
}

/// Registers the per-thread timeline track, named after the worker's owned
/// column range. Registration happens on the caller thread so track ids are
/// assigned in span order regardless of worker scheduling.
fn worker_track(tracer: &Tracer, span: &ColumnSpan) -> u32 {
    if tracer.enabled() {
        tracer.track(&format!("gemm worker [{}..{})", span.col0, span.end()))
    } else {
        MAIN_TRACK
    }
}

/// One thread's share: columns `[span.col0, span.end())`, written
/// column-major into the thread-local slice `c` (`c[(j - col0) * m + i]`).
#[allow(clippy::too_many_arguments)]
fn worker(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    n: usize,
    span: &ColumnSpan,
    cfg: &ParallelConfig,
    panel: &mut Vec<i8>,
    c: &mut [i32],
    tracer: &Tracer,
    track: u32,
) {
    let (col0, cols) = (span.col0, span.cols);
    let mut worker_span = tracer.span("gemm worker", track);
    worker_span.set_label(|| format!("cols [{col0}..{}) {isa}", col0 + cols));
    let m = weights.m();
    let k = weights.k();
    debug_assert_eq!(c.len(), cols * m);
    let local_tiles = cols.div_ceil(NB);
    let nc_tiles = cfg.nc / NB;
    let mut jt0 = 0usize;
    while jt0 < local_tiles {
        let jt1 = (jt0 + nc_tiles).min(local_tiles);
        let mut k0 = 0usize;
        while k0 < k {
            let klen = cfg.kc.min(k - k0);
            {
                let mut pack_span = tracer.span("pack B panel", track);
                pack_span.set_label(|| format!("k [{k0}..{}) x {} tiles", k0 + klen, jt1 - jt0));
                pack_b_panel(b, n, col0 + jt0 * NB, jt1 - jt0, k0, klen, panel);
            }
            let mut tile_span = tracer.span("gemm tile", track);
            tile_span.set_label(|| format!("jt [{jt0}..{jt1}) k0 {k0}"));
            for (jt, b_blk) in (jt0..jt1).zip(panel.chunks_exact(klen * NB)) {
                let mut store = |ti: usize, tile: &[i32]| {
                    scatter_tile(c, tile, m, cols, jt, ti, tile.len() / NB, k0 == 0);
                };
                let steps = k0..k0 + klen;
                let run = match weights {
                    SharedWeights::Wide(_) if scheme.kind() == SchemeKind::Mla => {
                        register_blocks::<MLA_BLOCK>
                    }
                    SharedWeights::Wide(_) => register_blocks::<SMLAL_BLOCK>,
                    SharedWeights::Narrow(_) => register_blocks::<NARROW_BLOCK>,
                };
                run(isa, scheme, weights, steps, b_blk, &mut store);
            }
            k0 += klen;
        }
        jt0 = jt1;
    }
}

/// Every A tile against the B block `b` of K `steps`, in register blocks
/// of `T` consecutive tiles, one kernel dispatch each, then the remainder
/// one tile per dispatch. Hands each finished tile to `store` with its
/// tile index.
fn register_blocks<const T: usize>(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    steps: Range<usize>,
    b: &[i8],
    store: &mut impl FnMut(usize, &[i32]),
) {
    let tiles = weights.tiles();
    let full = tiles - tiles % T;
    for ti0 in (0..full).step_by(T) {
        register_block::<T>(isa, scheme, weights, ti0, &steps, b, store);
    }
    for ti in full..tiles {
        register_block::<1>(isa, scheme, weights, ti, &steps, b, store);
    }
}

/// One register block: A tiles `[ti0, ti0 + T)` against `b`.
fn register_block<const T: usize>(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    ti0: usize,
    steps: &Range<usize>,
    b: &[i8],
    store: &mut impl FnMut(usize, &[i32]),
) {
    let (k0, klen) = (steps.start, steps.len());
    match weights {
        SharedWeights::Wide(pa) => {
            let mut acc = [[0i32; TILE_LEN]; T];
            let a = std::array::from_fn(|t| pa.block(ti0 + t, k0, klen));
            accumulate_tiles_on(isa, scheme, a, b, &mut acc);
            acc.iter().enumerate().for_each(|(t, tile)| store(ti0 + t, tile));
        }
        SharedWeights::Narrow(pa) => {
            let mut acc = [[0i32; NARROW_TILE_LEN]; T];
            let a = std::array::from_fn(|t| pa.block(ti0 + t, k0, klen));
            accumulate_tiles_narrow_on(isa, scheme, a, b, &mut acc);
            acc.iter().enumerate().for_each(|(t, tile)| store(ti0 + t, tile));
        }
    }
}

/// Packs the `klen x (tiles * NB)` sub-block of row-major B starting at row
/// `k0`, column `col_base` into panel layout
/// `panel[(tile * klen + step) * NB + c]` (columns past `n` zero-padded).
fn pack_b_panel(
    b: &[i8],
    n: usize,
    col_base: usize,
    tiles: usize,
    k0: usize,
    klen: usize,
    panel: &mut Vec<i8>,
) {
    panel.clear();
    panel.reserve_exact(tiles * klen * NB);
    panel.resize(tiles * klen * NB, 0);
    for tile in 0..tiles {
        let first = col_base + tile * NB;
        let width = NB.min(n.saturating_sub(first));
        for step in 0..klen {
            let dst = (tile * klen + step) * NB;
            let src = (k0 + step) * n + first;
            panel[dst..dst + width].copy_from_slice(&b[src..src + width]);
        }
    }
}

/// Writes a column-major micro-tile into the thread's column-major C slice:
/// stores it for the first K block (every element of C belongs to exactly
/// one tile of it, so C needs no zeroing) and adds it for the later ones.
#[allow(clippy::too_many_arguments)]
fn scatter_tile(
    c: &mut [i32],
    tile: &[i32],
    m: usize,
    cols: usize,
    jt: usize,
    ti: usize,
    rows: usize,
    first_k_block: bool,
) {
    for cc in 0..NB {
        let j = jt * NB + cc;
        if j >= cols {
            break;
        }
        let col = &mut c[j * m..];
        for (r, &v) in tile[cc * rows..(cc + 1) * rows].iter().enumerate() {
            let i = ti * rows + r;
            if i >= m {
                break;
            }
            col[i] = if first_k_block { v } else { col[i].wrapping_add(v) };
        }
    }
}

/// One single-threaded driver call on `isa` into a fresh workspace,
/// transposed to the row-major layout of [`crate::GemmOutput`]: the
/// functional half of the one-shot [`crate::gemm()`] and
/// [`crate::gemm_narrow`].
pub(crate) fn gemm_row_major_on(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    n: usize,
) -> Vec<i32> {
    let (m, k) = (weights.m(), weights.k());
    let mut ws = GemmWorkspace::new();
    let cfg = ParallelConfig::default();
    let c_cm = gemm_parallel_cm_on(isa, scheme, weights, b, k, n, &cfg, &mut ws, &Tracer::null());
    col_to_row_major(c_cm, m, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference_gemm;
    use crate::narrow::{pack_a_narrow, NA8};
    use crate::pack::pack_a;
    use lowbit_tensor::BitWidth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(len: usize, bits: BitWidth, seed: u64) -> Vec<i8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(bits.qmin() as i32..=bits.qmax() as i32) as i8)
            .collect()
    }

    #[test]
    fn parallel_matches_reference_for_all_bit_widths_and_thread_counts() {
        for bits in BitWidth::ALL {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (21, 67, 19);
            let a = random_mat(m * k, bits, 100 + bits.bits() as u64);
            let b = random_mat(k * n, bits, 200 + bits.bits() as u64);
            let want = reference_gemm(&a, &b, m, k, n);
            let pa = pack_a(&a, m, k);
            for threads in [1, 2, 3, 4] {
                let cfg = ParallelConfig { threads, kc: 16, nc: 8 };
                let mut ws = GemmWorkspace::new();
                let c_cm =
                    gemm_parallel_cm(&scheme, SharedWeights::Wide(&pa), &b, k, n, &cfg, &mut ws);
                assert_eq!(col_to_row_major(c_cm, m, n), want, "{bits} x{threads}");
            }
        }
    }

    #[test]
    fn narrow_parallel_matches_reference() {
        // M runs through 1 to 2T + 1 narrow tiles (the last one ragged):
        // full register blocks and the one-tile remainder both run.
        let bits = BitWidth::W8;
        let scheme = Scheme::for_bits(bits);
        let (k, n) = (40, 9);
        for m in (1..=2 * NARROW_BLOCK + 1).map(|tiles| tiles * NA8 - 3) {
            let a = random_mat(m * k, bits, 7 + m as u64);
            let b = random_mat(k * n, bits, 8);
            let want = reference_gemm(&a, &b, m, k, n);
            let pa = pack_a_narrow(&a, m, k);
            for threads in [1, 2, 3] {
                let cfg = ParallelConfig { threads, kc: 7, nc: 4 };
                for isa in Isa::supported() {
                    let mut ws = GemmWorkspace::new();
                    let weights = SharedWeights::Narrow(&pa);
                    let tracer = Tracer::null();
                    let c_cm =
                        gemm_parallel_cm_on(isa, &scheme, weights, &b, k, n, &cfg, &mut ws, &tracer);
                    assert_eq!(col_to_row_major(c_cm, m, n), want, "m {m} x{threads} {isa}");
                }
            }
        }
    }

    #[test]
    fn more_threads_than_column_tiles_still_works() {
        let bits = BitWidth::W4;
        let scheme = Scheme::for_bits(bits);
        let (m, k, n) = (5, 12, 3); // one column tile
        let a = random_mat(m * k, bits, 31);
        let b = random_mat(k * n, bits, 32);
        let pa = pack_a(&a, m, k);
        let cfg = ParallelConfig::with_threads(8);
        let mut ws = GemmWorkspace::new();
        let c_cm = gemm_parallel_cm(&scheme, SharedWeights::Wide(&pa), &b, k, n, &cfg, &mut ws);
        assert_eq!(col_to_row_major(c_cm, m, n), reference_gemm(&a, &b, m, k, n));
    }

    #[test]
    fn workspace_is_reused_across_calls() {
        let bits = BitWidth::W4;
        let scheme = Scheme::for_bits(bits);
        let (m, k, n) = (16, 64, 24);
        let a = random_mat(m * k, bits, 41);
        let b = random_mat(k * n, bits, 42);
        let pa = pack_a(&a, m, k);
        let cfg = ParallelConfig { threads: 2, kc: 32, nc: 8 };
        let mut ws = GemmWorkspace::new();
        let want = reference_gemm(&a, &b, m, k, n);
        for call in 0..4 {
            let c_cm = gemm_parallel_cm(&scheme, SharedWeights::Wide(&pa), &b, k, n, &cfg, &mut ws);
            assert_eq!(col_to_row_major(c_cm, m, n), want, "call {call}");
        }
        let stats = ws.stats();
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.alloc_events, 1, "only the first call may allocate");
        assert!(stats.high_water_bytes >= m * n * 4);
    }

    #[test]
    fn every_call_overwrites_the_reused_result_buffer() {
        // The result buffer is not cleared between calls, so each call must
        // store every element: alternate operands, shapes, thread counts
        // and K-blocking (K = 0 included) through one arena.
        let bits = BitWidth::W6;
        let scheme = Scheme::for_bits(bits);
        let cases =
            [(21, 67, 19, 3), (5, 12, 3, 8), (21, 67, 19, 1), (16, 0, 8, 2), (13, 40, 9, 2)];
        let mut ws = GemmWorkspace::new();
        for (call, (m, k, n, threads)) in cases.into_iter().enumerate() {
            let a = random_mat(m * k, bits, 300 + call as u64);
            let b = random_mat(k * n, bits, 400 + call as u64);
            let pa = pack_a(&a, m, k);
            let cfg = ParallelConfig { threads, kc: 16, nc: 8 };
            let c_cm = gemm_parallel_cm(&scheme, SharedWeights::Wide(&pa), &b, k, n, &cfg, &mut ws);
            let want = reference_gemm(&a, &b, m, k, n);
            assert_eq!(col_to_row_major(c_cm, m, n), want, "call {call}");
        }
    }

    #[test]
    fn partition_is_disjoint_covering_and_aligned() {
        for n in [0usize, 1, 3, 4, 5, 16, 17, 64, 127, 1000] {
            for threads in [1usize, 2, 3, 5, 8, 16, 99] {
                let spans = partition_columns(n, threads);
                assert_eq!(
                    spans.len(),
                    threads.clamp(1, MAX_THREADS),
                    "n={n} t={threads}: one span per requested thread"
                );
                let mut next = 0usize;
                for s in &spans {
                    assert_eq!(s.col0, next, "n={n} t={threads}: contiguous");
                    if s.cols > 0 {
                        assert!(s.col0 % NB == 0, "interior boundaries NB-aligned");
                    }
                    next = s.end();
                }
                assert_eq!(next, n, "n={n} t={threads}: covers the output");
            }
        }
    }

    #[test]
    fn degenerate_thread_counts_emit_wellformed_empty_spans() {
        // n = 3 is a single column tile; threads 8 must still yield 8 spans,
        // with the 7 surplus spans empty and parked at the partition cursor.
        let spans = partition_columns(3, 8);
        assert_eq!(spans.len(), 8);
        let nonempty: Vec<_> = spans.iter().filter(|s| s.cols > 0).collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!((nonempty[0].col0, nonempty[0].cols), (0, 3));
        for s in spans.iter().skip(1) {
            assert_eq!((s.col0, s.cols), (3, 0), "empty spans sit at col0 == n");
        }
        // Empty spans never precede work: the non-empty prefix is contiguous.
        for w in spans.windows(2) {
            assert!(w[0].cols > 0 || w[1].cols == 0, "no work after an empty span");
        }
        // n = 0: every span is the well-formed empty span at the origin.
        for s in partition_columns(0, 5) {
            assert_eq!((s.col0, s.cols, s.end()), (0, 0, 0));
        }
    }

    #[test]
    fn partition_balances_tiles_within_one() {
        let spans = partition_columns(100, 3); // 25 tiles over 3 threads
        let tiles: Vec<usize> = spans.iter().map(|s| s.cols.div_ceil(NB)).collect();
        assert_eq!(tiles.iter().sum::<usize>(), 25);
        assert!(tiles.iter().max().unwrap() - tiles.iter().min().unwrap() <= 1);
    }

    #[test]
    fn env_thread_count_is_clamped() {
        // Don't mutate the environment (other tests run concurrently);
        // exercise the clamp via the config instead.
        assert_eq!(ParallelConfig::with_threads(0).threads, 1);
        assert_eq!(ParallelConfig::with_threads(999).threads, MAX_THREADS);
        let normalized = ParallelConfig { threads: 2, kc: 0, nc: 5 }.normalized();
        assert_eq!(normalized.kc, 1);
        assert_eq!(normalized.nc, 8);
    }

    #[test]
    fn threads_from_str_handles_edge_cases() {
        // Unset and garbage values fall back to a single thread.
        assert_eq!(threads_from_str(None), 1);
        assert_eq!(threads_from_str(Some("")), 1);
        assert_eq!(threads_from_str(Some("abc")), 1);
        assert_eq!(threads_from_str(Some("-3")), 1);
        assert_eq!(threads_from_str(Some("2.5")), 1);
        // Zero is a request, but an unservable one: clamp up to 1.
        assert_eq!(threads_from_str(Some("0")), 1);
        // Whitespace-tolerant ordinary values pass through.
        assert_eq!(threads_from_str(Some("3")), 3);
        assert_eq!(threads_from_str(Some(" 8 \n")), 8);
        // Absurdly large values clamp to the supported maximum.
        assert_eq!(threads_from_str(Some("99999")), MAX_THREADS);
        assert_eq!(threads_from_str(Some("170141183460469231731687303715884105727")), 1);
    }

    #[test]
    fn traced_gemm_records_worker_tracks_and_matches_untraced() {
        let bits = BitWidth::W4;
        let scheme = Scheme::for_bits(bits);
        let (m, k, n) = (16, 64, 24);
        let a = random_mat(m * k, bits, 51);
        let b = random_mat(k * n, bits, 52);
        let pa = pack_a(&a, m, k);
        let cfg = ParallelConfig { threads: 3, kc: 32, nc: 8 };

        let mut ws = GemmWorkspace::new();
        let plain =
            gemm_parallel_cm(&scheme, SharedWeights::Wide(&pa), &b, k, n, &cfg, &mut ws).to_vec();

        let (tracer, sink) = lowbit_trace::Tracer::recording();
        let mut ws2 = GemmWorkspace::new();
        let traced = gemm_parallel_cm_on(
            Isa::host(),
            &scheme,
            SharedWeights::Wide(&pa),
            &b,
            k,
            n,
            &cfg,
            &mut ws2,
            &tracer,
        )
        .to_vec();
        assert_eq!(traced, plain, "tracing must not change the result");

        let cap = sink.capture();
        let spans: Vec<ColumnSpan> =
            partition_columns(n, cfg.threads).into_iter().filter(|s| s.cols > 0).collect();
        assert_eq!(cap.tracks.len(), 1 + spans.len(), "one track per active worker plus main");
        for span in &spans {
            let name = format!("gemm worker [{}..{})", span.col0, span.end());
            let track = cap.track_id(&name).unwrap_or_else(|| panic!("missing track {name}"));
            let on_track: Vec<_> = cap.spans_on(track).collect();
            let outer = on_track
                .iter()
                .find(|s| s.name == "gemm worker")
                .expect("worker span on its track");
            assert!(on_track.iter().any(|s| s.name == "pack B panel"));
            assert!(on_track.iter().any(|s| s.name == "gemm tile"));
            // Children nest inside the worker span on its own timeline.
            for child in on_track.iter().filter(|s| s.name != "gemm worker") {
                assert!(child.start_ns >= outer.start_ns && child.end_ns() <= outer.end_ns());
            }
        }
    }
}
