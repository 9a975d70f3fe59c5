//! Scoped-thread parallel GEMM driver, and [`fan_out`], the one function
//! through which the ARM path starts threads.
//!
//! Parallelism follows the im2col structure of the convolution: the N
//! dimension (output pixels) is partitioned into per-thread column-tile
//! blocks. Packed A (the weights) is shared read-only across threads; each
//! span's worker packs its cache-blocked B panels into its own
//! [`panel_len`] slice of the caller's panel buffer and writes a
//! **disjoint** share of the result, so the driver needs no atomics, no
//! locks and no `unsafe` — and the output is bit-exact versus the plain i32
//! product for every thread count and blocking parameter. The caller runs
//! the first span and each other span gets one scoped thread ([`fan_out`]);
//! Winograd's tile spans and the executor's waves start the same way.
//!
//! Each micro-tile goes to one of two sinks. [`gemm_parallel_cm_weighted`]
//! adds it, times a weight per plane, into column-major planes, each
//! thread's share one contiguous column range of every plane ([`gemm_parallel_cm`]
//! is its one-plane, unit-weight call). [`gemm_parallel_nchw_on`] stores it
//! straight into a caller's NCHW tensor (rows are output channels, columns
//! run image by image), each thread's share the plane-row runs its columns
//! cover: the convolution needs no reshape pass, and at one image the same
//! target is the row-major matrix.
//!
//! This is the one driver of the wide, narrow and SDOT tiles: the engine,
//! the Winograd path and the one-shot [`crate::gemm()`],
//! [`crate::gemm_narrow`], [`crate::gemm::gemm_ncnn`] and
//! [`crate::gemm_sdot`] (one thread, row-major target) all run it, and it
//! holds the only host loop over GEMM tiles. A tile kind is one
//! [`SharedWeights`] variant and one block kernel per scheme it runs.
//!
//! Why bit-exactness holds under K-blocking: within the published drain
//! ratios every i8/i16 partial is exact, so each K-block contributes the
//! exact i32 sub-sum and i32 addition of exact sub-sums is associative.
//! The SDOT tile and the ncnn scheme add every product straight into i32,
//! so it holds there for any block boundary (for SDOT, quad-aligned or not).
//! The property tests in `tests/proptest_invariants.rs` enforce this over
//! random shapes, bit widths, thread counts and block sizes.

use crate::micro::{accumulate_tiles_on, MLA_BLOCK, SMLAL_BLOCK, TILE_LEN};
use crate::narrow::{accumulate_tiles_narrow_on, NARROW_BLOCK, NARROW_TILE_LEN};
use crate::pack::{PackedA, PackedANarrow, PackedAQuads, PackedB, NB};
use crate::scheme::{Scheme, SchemeKind};
use crate::sdot::{accumulate_sdot_on, KQ, SDOT_BLOCK};
use crate::workspace::{grow_exact, GemmWorkspace};
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

    fn normalized(mut self) -> ParallelConfig {
        self.threads = self.threads.clamp(1, MAX_THREADS);
        self.kc = self.kc.max(1);
        self.nc = self.nc.max(1).div_ceil(NB) * NB;
        self
    }
}

/// One thread's contiguous column range `[col0, col0 + cols)` of the
/// output.
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
/// are distributed evenly over `workers`, the thread count capped at the
/// tile count (the first `col_tiles % workers` spans get one extra tile),
/// so spans are contiguous, pairwise disjoint, cover `[0, n)`, and all
/// interior boundaries are [`NB`]-aligned.
///
/// This is the **only** place the parallel driver's work split is computed —
/// both result layouts carve their `split_at_mut` shares from these spans,
/// and `lowbit-verify` checks the same spans for disjointness and coverage.
/// The spans are computed in closed form as they are taken, so a call
/// allocates nothing. It yields one span per requested thread (the count
/// clamped to `1..=MAX_THREADS`), so span `t` belongs to thread `t`;
/// threads beyond the tile count receive well-formed **empty** spans
/// (`cols == 0`, `col0` at the partition cursor) which the driver never
/// spawns workers for and which the partition proof accepts as covered.
pub fn partition_columns(
    n: usize,
    threads: usize,
) -> impl ExactSizeIterator<Item = ColumnSpan> + Clone {
    let col_tiles = n.div_ceil(NB);
    let threads = threads.clamp(1, MAX_THREADS);
    let workers = threads.min(col_tiles).max(1);
    let (base, extra) = (col_tiles / workers, col_tiles % workers);
    // The first `extra` spans hold `base + 1` tiles, the other workers
    // `base`, and the spans past the workers none.
    let start = move |t: usize| ((t.min(workers) * base + t.min(extra)) * NB).min(n);
    (0..threads).map(move |t| ColumnSpan { col0: start(t), cols: start(t + 1) - start(t) })
}

/// The packed-B panel bytes of a worker owning `cols` columns of a GEMM
/// with shared dimension `k`: at most `nc / NB` column tiles of at most
/// `kc` packed rows. The one panel sizing, for the driver and the verifier.
pub fn panel_len(k: usize, cols: usize, cfg: &ParallelConfig) -> usize {
    let cfg = cfg.normalized();
    (cfg.nc / NB).min(cols.div_ceil(NB)) * NB * cfg.kc.min(k)
}

/// The panel buffer a `K x N` GEMM needs across `cfg.threads`: one
/// [`panel_len`] per span of [`partition_columns`].
pub fn panels_len(k: usize, n: usize, cfg: &ParallelConfig) -> usize {
    partition_columns(n, cfg.threads).map(|span| panel_len(k, span.cols, cfg)).sum()
}

/// The shared, read-only packed weights a parallel GEMM runs against: one
/// variant per tile kind, each holding that kind's [`crate::pack::Panels`]
/// image, so weights packed for one kind cannot reach another's kernel.
#[derive(Clone, Copy)]
pub enum SharedWeights<'a> {
    /// The wide 16x4 tile's [`PackedA`], `Panels<16, 1>` (SMLAL and MLA
    /// schemes).
    Wide(&'a PackedA),
    /// The narrow 8x4 tile's [`PackedANarrow`], `Panels<8, 1>` (SMLAL, or
    /// the ncnn baseline's drain-free scheme).
    Narrow(&'a PackedANarrow),
    /// The ARMv8.2 `SDOT` tile's [`PackedAQuads`], `Panels<16, 4>`: 16-row
    /// tiles of k-quads (any scheme; it has no drains).
    Quads(&'a PackedAQuads),
}

impl SharedWeights<'_> {
    /// Logical rows (GEMM M), shared dimension (GEMM K) and A tiles.
    fn dims(&self) -> (usize, usize, usize) {
        match self {
            SharedWeights::Wide(pa) => (pa.lanes, pa.k, pa.tiles()),
            SharedWeights::Narrow(pa) => (pa.lanes, pa.k, pa.tiles()),
            SharedWeights::Quads(pa) => (pa.lanes, pa.k, pa.tiles()),
        }
    }

    /// Logical rows (GEMM M).
    pub fn m(&self) -> usize {
        self.dims().0
    }

    /// Shared dimension (GEMM K).
    pub fn k(&self) -> usize {
        self.dims().1
    }

    fn tiles(&self) -> usize {
        self.dims().2
    }
}

/// Runs `C = A x B` across `cfg.threads` scoped threads into the caller's
/// workspace, returning the **column-major** `m x n` result
/// (`c[col * m + row]`) borrowed from `ws`: the one-plane, unit-weight
/// [`gemm_parallel_cm_weighted`].
///
/// Steady state (same or smaller shape, same thread count) grows no
/// workspace buffer (see [`GemmWorkspace::footprint_bytes`]) and makes no
/// heap allocation.
pub fn gemm_parallel_cm<'w>(
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    k: usize,
    n: usize,
    cfg: &ParallelConfig,
    ws: &'w mut GemmWorkspace,
) -> &'w [i32] {
    let len = weights.m() * n;
    // Not cleared: the first K block stores every element.
    let c = grow_exact(&mut ws.c_cm, len);
    let panels = grow_exact(&mut ws.panels, panels_len(k, n, cfg));
    let (isa, started, null) = (Isa::host(), &mut [false], &Tracer::null());
    gemm_parallel_cm_weighted(isa, scheme, weights, b, k, n, cfg, panels, c, [1], started, null);
    &ws.c_cm[..len]
}

/// Adds `coef[q] x A x B` into plane `q` of `planes`, `P` column-major
/// `m x n` matrices (`planes[(q * n + col) * m + row]`), as each micro-tile
/// (compiled for `isa`) is stored: a weight is 0 or `±2^s`, so a term is a
/// shift and an add or subtract. A plane's first nonzero term is stored
/// (`started[q]` records that plane `q` has one), so no plane needs
/// zeroing. Each span's worker records a `gemm worker` span with
/// `pack B panel` and `gemm tile` children on its own track.
///
/// # Panics
/// If `planes` is not `P` planes of `m x n`, `panels` is shorter than
/// [`panels_len`], or a weight is not 0 or `±2^s`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel_cm_weighted<const P: usize>(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    k: usize,
    n: usize,
    cfg: &ParallelConfig,
    panels: &mut [i8],
    planes: &mut [i32],
    coef: [i32; P],
    started: &mut [bool; P],
    tracer: &Tracer,
) {
    check_operands(scheme, weights, b, k, n);
    let m = weights.m();
    assert_eq!(planes.len(), P * m * n, "column-major planes have wrong length");
    let valid = |c: i32| c == 0 || c.unsigned_abs().is_power_of_two();
    assert!(coef.into_iter().all(valid), "weights {coef:?} are not 0 or ±2^s");
    let terms: [(i32, bool); P] = std::array::from_fn(|q| (coef[q], !started[q]));
    let cfg = cfg.normalized();
    let spans = partition_columns(n, cfg.threads);
    let mut tail = planes;
    let mut rest: [&mut [i32]; P] = std::array::from_fn(|q| {
        let (plane, t) = std::mem::take(&mut tail).split_at_mut(m * n);
        if k == 0 && coef[q] != 0 && !started[q] {
            plane.fill(0); // no K block stores the result: a plane the call starts is zero
        }
        tail = t;
        plane
    });
    // Each span's share is its contiguous column range of every plane.
    let shares = spans.clone().map(|span| {
        let planes = std::array::from_fn(|q| {
            let (c, tail) = std::mem::take(&mut rest[q]).split_at_mut(span.cols * m);
            rest[q] = tail;
            c
        });
        ColMajorShare { planes, terms, m, cols: span.cols }
    });
    drive(isa, scheme, weights, b, n, &cfg, spans, panels, shares, tracer);
    started.iter_mut().zip(coef).for_each(|(started, c)| *started |= c != 0);
}

/// The GEMM of [`gemm_parallel_cm_weighted`] into an **NCHW** result: `out` holds
/// `n / hw` images of `m x hw` (`out[(image * m + row) * hw + pixel]`),
/// and column `image * hw + pixel` of C lands on its pixel. At `hw == n`
/// that is the row-major `m x n` product.
///
/// Each worker stores its micro-tiles straight into the plane-row runs its
/// [`ColumnSpan`] owns, so there is no column-major result buffer and no
/// reshape pass; `panels` holds only the B panels ([`panels_len`] bytes at
/// least). The first K block stores every element, so `out` need not be
/// zeroed.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel_nchw_on(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    k: usize,
    n: usize,
    hw: usize,
    cfg: &ParallelConfig,
    panels: &mut [i8],
    out: &mut [i32],
    tracer: &Tracer,
) {
    check_operands(scheme, weights, b, k, n);
    let m = weights.m();
    assert_eq!(out.len(), m * n, "NCHW result has wrong length");
    assert!(n.is_multiple_of(hw), "{n} columns are not whole images of {hw}");
    let cfg = cfg.normalized();
    let spans = partition_columns(n, cfg.threads);
    if k == 0 {
        out.fill(0); // no K block stores the result
    }
    let shares = nchw_shares(out, m, hw, spans.clone());
    drive(isa, scheme, weights, b, n, &cfg, spans, panels, shares, tracer);
}

/// Panics unless the operands agree with each other and the tile kind
/// runs `scheme`. The SDOT tile accumulates straight into i32 with no drain
/// cadence, so it runs under any scheme and ignores it.
fn check_operands(scheme: &Scheme, weights: SharedWeights<'_>, b: &[i8], k: usize, n: usize) {
    assert_eq!(weights.k(), k, "weights disagree on K");
    assert_eq!(b.len(), k * n, "B operand has wrong length");
    match (weights, scheme.kind()) {
        (SharedWeights::Wide(_), SchemeKind::Ncnn16) => {
            panic!("the ncnn baseline runs on the narrow tile")
        }
        (SharedWeights::Narrow(_), SchemeKind::Mla) => {
            panic!("narrow tile runs the SMLAL or the ncnn scheme, not MLA")
        }
        _ => {}
    }
}

/// Runs one worker per non-empty span against that span's share of C and
/// its [`panel_len`] slice of `panels` through [`fan_out`]. The shares are
/// disjoint because the spans are (checked statically by lowbit-verify), so
/// the workers need no lock and no `unsafe`. Empty spans (more threads than
/// column tiles) get no worker.
#[allow(clippy::too_many_arguments)]
fn drive<S: TileSink + Send>(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    n: usize,
    cfg: &ParallelConfig,
    spans: impl Iterator<Item = ColumnSpan>,
    mut panels: &mut [i8],
    shares: impl IntoIterator<Item = S>,
    tracer: &Tracer,
) {
    let k = weights.k();
    let jobs = spans.zip(shares).filter(|(span, _)| span.cols > 0);
    let jobs = jobs.map(|(span, share)| {
        let (panel, rest) = std::mem::take(&mut panels).split_at_mut(panel_len(k, span.cols, cfg));
        panels = rest;
        (span, worker_track(tracer, "gemm worker", &span), panel, share)
    });
    fan_out(jobs, |(span, track, panel, mut share)| {
        worker(isa, scheme, weights, b, n, &span, cfg, panel, &mut share, tracer, track)
    });
}

/// Runs `run` once on every job: the first on the calling thread, each
/// other on its own scoped thread, and a lone job inline with no thread
/// scope. Jobs are taken from `jobs` on the calling thread, in order, so
/// whatever the iterator does (carving shares, registering trace tracks)
/// happens there in job order. A panicking job panics the caller once
/// every other job of the call has finished.
///
/// This is the one place the ARM path starts threads: the GEMM column
/// spans, Winograd's tile spans and the executor's waves all fan out here.
pub fn fan_out<J: Send>(jobs: impl IntoIterator<Item = J>, run: impl Fn(J) + Sync) {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else { return };
    let Some(second) = jobs.next() else { return run(first) };
    let run = &run;
    std::thread::scope(|scope| {
        for job in std::iter::once(second).chain(jobs) {
            scope.spawn(move || run(job));
        }
        run(first);
    });
}

/// Registers a per-span timeline track, named `worker` and the span's owned
/// column range. Called from a [`fan_out`] job iterator, on the caller
/// thread, so track ids are assigned in span order regardless of worker
/// scheduling.
pub fn worker_track(tracer: &Tracer, worker: &str, span: &ColumnSpan) -> u32 {
    if tracer.enabled() {
        tracer.track(&format!("{worker} [{}..{})", span.col0, span.end()))
    } else {
        MAIN_TRACK
    }
}

/// One worker's share of C: where it stores each finished micro-tile.
trait TileSink {
    /// Stores (first K block) or adds (later ones) the column-major
    /// `rows x NB` micro-tile of A tile `ti` and the worker's local column
    /// tile `jt`, dropping the zero-padded fringe. Every element of C
    /// belongs to exactly one tile of a K block, so C needs no zeroing.
    fn put(&mut self, tile: &[i32], ti: usize, jt: usize, first_k_block: bool);
}

/// A span's column range of each of `P` column-major planes, and each
/// plane's weight and whether the call starts it.
struct ColMajorShare<'c, const P: usize> {
    planes: [&'c mut [i32]; P],
    terms: [(i32, bool); P],
    m: usize,
    cols: usize,
}

impl<const P: usize> TileSink for ColMajorShare<'_, P> {
    fn put(&mut self, tile: &[i32], ti: usize, jt: usize, first_k_block: bool) {
        let rows = tile.len() / NB;
        let (row0, m) = (ti * rows, self.m);
        let run = (jt * NB * m + row0, m, rows.min(m - row0), NB.min(self.cols - jt * NB));
        for (plane, &(coef, fresh)) in self.planes.iter_mut().zip(&self.terms) {
            if coef == 0 {
                continue;
            }
            let s = coef.unsigned_abs().trailing_zeros();
            match (coef > 0, first_k_block && fresh) {
                (true, true) => each(plane, tile, run, |_, v| v << s),
                (false, true) => each(plane, tile, run, |_, v| (v << s).wrapping_neg()),
                (true, false) => each(plane, tile, run, |d, v| d.wrapping_add(v << s)),
                (false, false) => each(plane, tile, run, |d, v| d.wrapping_sub(v << s)),
            }
        }
    }
}

/// `d = f(d, v)` over the first `width` columns of the column-major tile,
/// the top `live` rows of each; column `c` lands at `plane[at + c * m..]`.
#[inline(always)]
fn each(
    plane: &mut [i32],
    tile: &[i32],
    (at, m, live, width): (usize, usize, usize, usize),
    f: impl Fn(i32, i32) -> i32,
) {
    let rows = tile.len() / NB;
    for c in 0..width {
        let (d, s) = (&mut plane[at + c * m..][..live], &tile[c * rows..][..live]);
        d.iter_mut().zip(s).for_each(|(d, &v)| *d = f(*d, v));
    }
}

/// A span's share of an NCHW result: the run of every `(image, row)`
/// plane row its columns cover, in `(image, row)` order. Runs of the
/// span's first image start at `span.col0`, later ones at pixel 0.
struct NchwShare<'o> {
    runs: Vec<&'o mut [i32]>,
    m: usize,
    hw: usize,
    span: ColumnSpan,
}

impl TileSink for NchwShare<'_> {
    /// One run of up to [`NB`] contiguous pixels per live row, two where
    /// the tile's columns straddle an image boundary.
    fn put(&mut self, tile: &[i32], ti: usize, jt: usize, first_k_block: bool) {
        let (rows, hw, col0) = (tile.len() / NB, self.hw, self.span.col0);
        let row0 = ti * rows;
        let live = rows.min(self.m - row0);
        let (j0, end) = (jt * NB, (jt * NB + NB).min(self.span.cols));
        let first_image = col0 / hw;
        let mut j = j0;
        while j < end {
            let image = (col0 + j) / hw;
            let image_start = image * hw;
            let piece_end = end.min(image_start + hw - col0);
            let at = col0 + j - image_start.max(col0);
            let runs = &mut self.runs[(image - first_image) * self.m + row0..][..live];
            if piece_end - j == NB {
                // The common case, all four columns in one image: each row
                // is one fixed-width run, read across the tile's columns.
                let [c0, c1, c2, c3]: [&[i32]; NB] =
                    std::array::from_fn(|c| &tile[c * rows..][..rows]);
                for ((((run, &v0), &v1), &v2), &v3) in
                    runs.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3)
                {
                    let dst: &mut [i32; NB] = run[at..].first_chunk_mut().expect("a whole tile");
                    store_run(dst, [v0, v1, v2, v3].into_iter(), first_k_block);
                }
            } else {
                for (r, run) in runs.iter_mut().enumerate() {
                    let src = tile[(j - j0) * rows + r..].iter().step_by(rows).copied();
                    store_run(&mut run[at..at + piece_end - j], src, first_k_block);
                }
            }
            j = piece_end;
        }
    }
}

/// Stores `src` into `dst` for the first K block, adds it for later ones.
#[inline(always)]
fn store_run(dst: &mut [i32], src: impl Iterator<Item = i32>, first_k_block: bool) {
    if first_k_block {
        dst.iter_mut().zip(src).for_each(|(d, v)| *d = v);
    } else {
        dst.iter_mut().zip(src).for_each(|(d, v)| *d = d.wrapping_add(v));
    }
}

/// Cuts the NCHW result `out` into one share per span: each `(image, row)`
/// plane row is split at the span boundaries inside it with
/// `split_at_mut`. The spans are contiguous and cover `[0, n)`, so each
/// plane row is used up in span order.
fn nchw_shares<'o>(
    out: &'o mut [i32],
    m: usize,
    hw: usize,
    spans: impl Iterator<Item = ColumnSpan>,
) -> Vec<NchwShare<'o>> {
    let mut shares: Vec<NchwShare<'o>> = spans
        .map(|span| {
            let images = match span.cols {
                0 => 0,
                _ => (span.end() - 1) / hw - span.col0 / hw + 1,
            };
            NchwShare { runs: Vec::with_capacity(images * m), m, hw, span }
        })
        .collect();
    // `hw` is 0 only when `n` and so `out` are empty.
    for (plane_row, mut row) in out.chunks_exact_mut(hw.max(1)).enumerate() {
        let image_start = plane_row / m * hw;
        for share in &mut shares {
            let lo = share.span.col0.max(image_start);
            let hi = share.span.end().min(image_start + hw);
            if lo < hi {
                let (run, tail) = std::mem::take(&mut row).split_at_mut(hi - lo);
                share.runs.push(run);
                row = tail;
            }
        }
    }
    shares
}

/// One thread's share: columns `[span.col0, span.end())`, each finished
/// micro-tile handed to `sink`.
#[allow(clippy::too_many_arguments)]
fn worker(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    n: usize,
    span: &ColumnSpan,
    cfg: &ParallelConfig,
    panel: &mut [i8],
    sink: &mut impl TileSink,
    tracer: &Tracer,
    track: u32,
) {
    let (col0, cols) = (span.col0, span.cols);
    let mut worker_span = tracer.span("gemm worker", track);
    worker_span.set_label(|| format!("cols [{col0}..{}) {isa}", col0 + cols));
    let k = weights.k();
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
                let mut store = |ti: usize, tile: &[i32]| sink.put(tile, ti, jt, k0 == 0);
                let steps = k0..k0 + klen;
                let run = match weights {
                    SharedWeights::Wide(_) if scheme.kind() == SchemeKind::Mla => {
                        register_blocks::<MLA_BLOCK>
                    }
                    SharedWeights::Wide(_) => register_blocks::<SMLAL_BLOCK>,
                    SharedWeights::Narrow(_) => register_blocks::<NARROW_BLOCK>,
                    SharedWeights::Quads(_) => register_blocks::<SDOT_BLOCK>,
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
        SharedWeights::Quads(pa) => {
            let mut acc = [[0i32; TILE_LEN]; T];
            let a = std::array::from_fn(|t| pa.block(ti0 + t, k0, klen));
            accumulate_sdot_on(isa, a, k0 % KQ, b, &mut acc);
            acc.iter().enumerate().for_each(|(t, tile)| store(ti0 + t, tile));
        }
    }
}

/// Runs one micro-tile functionally: A tile `ti` of `weights` against
/// tile `tj` of `pb` over all of K, through the driver's own one-tile
/// register block on [`Isa::host`]. The result is column-major in the
/// emitters' store order, `out[col * rows + row]` for the kind's `rows`
/// (16 wide and SDOT, 8 narrow). Panics where the kernels do: on a scheme
/// the tile kind does not run, or on operands that disagree on K.
pub fn run_tile(
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    pb: &PackedB,
    ti: usize,
    tj: usize,
) -> Vec<i32> {
    run_tile_on(Isa::host(), scheme, weights, pb, ti, tj)
}

/// [`run_tile`] compiled for `isa`.
pub(crate) fn run_tile_on(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    pb: &PackedB,
    ti: usize,
    tj: usize,
) -> Vec<i32> {
    let k = weights.k();
    assert_eq!(k, pb.k, "packed operands disagree on K");
    let mut out = Vec::new();
    let store = &mut |_, tile: &[i32]| out.extend_from_slice(tile);
    register_block::<1>(isa, scheme, weights, ti, &(0..k), pb.block(tj, 0, k), store);
    out
}

/// Packs the `klen x (tiles * NB)` sub-block of row-major B starting at row
/// `k0`, column `col_base` into the front of `panel`, in the layout
/// `panel[(tile * klen + step) * NB + c]`, writing the columns past `n` as
/// zeros, so a reused panel needs no clearing.
fn pack_b_panel(
    b: &[i8],
    n: usize,
    col_base: usize,
    tiles: usize,
    k0: usize,
    klen: usize,
    panel: &mut [i8],
) {
    for (tile, block) in panel[..tiles * klen * NB].chunks_exact_mut(klen * NB).enumerate() {
        let first = col_base + tile * NB;
        let width = NB.min(n.saturating_sub(first));
        if width < NB {
            block.fill(0); // the one fringe tile
        }
        for (step, dst) in block.chunks_exact_mut(NB).enumerate() {
            let src = (k0 + step) * n + first;
            dst[..width].copy_from_slice(&b[src..src + width]);
        }
    }
}

/// One single-threaded driver call on `isa` into fresh panels and a
/// row-major `m x n` result (the NCHW target as one image of `n` pixels):
/// the functional half of the one-shot [`crate::gemm()`],
/// [`crate::gemm_narrow`], [`crate::gemm::gemm_ncnn`] and
/// [`crate::gemm_sdot`].
pub(crate) fn gemm_row_major_on(
    isa: Isa,
    scheme: &Scheme,
    weights: SharedWeights<'_>,
    b: &[i8],
    n: usize,
) -> Vec<i32> {
    let (m, k) = (weights.m(), weights.k());
    let (mut c, cfg) = (vec![0; m * n], ParallelConfig::default());
    let (mut panels, null) = (vec![0; panels_len(k, n, &cfg)], Tracer::null());
    gemm_parallel_nchw_on(isa, scheme, weights, b, k, n, n, &cfg, &mut panels, &mut c, &null);
    c
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
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread;
    use std::time::Duration;

    /// The column-major `m x n` matrix `c_cm` (`c_cm[j * m + i]`) in
    /// row-major order (`c[i * n + j]`).
    fn col_to_row_major(c_cm: &[i32], m: usize, n: usize) -> Vec<i32> {
        assert_eq!(c_cm.len(), m * n);
        (0..m * n).map(|idx| c_cm[(idx % n) * m + idx / n]).collect()
    }

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
                    let mut panels = vec![0; panels_len(k, n, &cfg)];
                    let mut c = vec![i32::MIN; m * n];
                    let (weights, null) = (SharedWeights::Narrow(&pa), Tracer::null());
                    gemm_parallel_cm_weighted(
                        isa, &scheme, weights, &b, k, n, &cfg, &mut panels, &mut c, [1],
                        &mut [false], &null,
                    );
                    assert_eq!(col_to_row_major(&c, m, n), want, "m {m} x{threads} {isa}");
                }
            }
        }
    }

    #[test]
    fn nchw_target_matches_reference_across_images_and_threads() {
        // hw of 5, 7 and 9 makes 4-column tiles straddle images; K runs
        // below, at, just past and past twice kc (K of 9, 17 and 40 ends a
        // block inside an SDOT quad); threads up to 6 exceed the column
        // tiles of the small cases; M, K and N each reach 0. Every result
        // and the one panel buffer start as garbage, so each element must
        // be stored and each packed panel byte written.
        let mut panels = vec![0x55; 1024];
        let cases = [
            (21, 40, 5, 3),
            (9, 16, 7, 1),
            (16, 17, 1, 6),
            (3, 9, 9, 2),
            (5, 0, 3, 2),
            (0, 7, 5, 2),
            (4, 6, 0, 0),
        ];
        let tiles = [
            (BitWidth::W2, "wide"),
            (BitWidth::W5, "wide"),
            (BitWidth::W8, "narrow"),
            (BitWidth::W8, "sdot"),
        ];
        for (bits, tile) in tiles {
            let scheme = Scheme::for_bits(bits);
            for (m, k, hw, images) in cases {
                let n = hw * images;
                let a = random_mat(m * k, bits, 500 + m as u64);
                let b = random_mat(k * n, bits, 600 + n as u64);
                let want = reference_gemm(&a, &b, m, k, n);
                let (pa, pn) = (pack_a(&a, m, k), pack_a_narrow(&a, m, k));
                let pq = PackedAQuads::from_a(&a, m, k);
                let weights = match tile {
                    "narrow" => SharedWeights::Narrow(&pn),
                    "sdot" => SharedWeights::Quads(&pq),
                    _ => SharedWeights::Wide(&pa),
                };
                for threads in 1..=6 {
                    let cfg = ParallelConfig { threads, kc: 16, nc: 8 };
                    let mut out = vec![i32::MIN; m * n];
                    let (isa, null) = (Isa::host(), Tracer::null());
                    assert!(panels_len(k, n, &cfg) <= panels.len());
                    gemm_parallel_nchw_on(
                        isa, &scheme, weights, &b, k, n, hw, &cfg, &mut panels, &mut out, &null,
                    );
                    for (idx, &got) in out.iter().enumerate() {
                        let (image, row, pixel) = (idx / (m * hw), idx / hw % m, idx % hw);
                        let case = format!("{tile} {bits} m {m} k {k} hw {hw} x{threads} at {idx}");
                        assert_eq!(got, want[row * n + image * hw + pixel], "{case}");
                    }
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
    fn weighted_planes_sum_every_call_and_start_without_zeroing() {
        // Three GEMMs into four planes with Winograd-like weights: a plane
        // is started by its first nonzero weight (plane 3 only by the last
        // call), so planes that start as garbage must come out as the exact
        // weighted sums. K = 0 starts its planes at zero. Each tile kind,
        // on every ISA, with K blocks inside and across calls, and up to
        // more threads than column tiles.
        let coefs = [[2, 0, -1, 0], [1, -4, 1, 0], [0, 2, -2, -1]];
        let tiles = [(BitWidth::W4, "wide"), (BitWidth::W6, "narrow"), (BitWidth::W8, "sdot")];
        for (bits, tile) in tiles {
            let scheme = Scheme::for_bits(bits);
            for (m, k, n) in [(21, 40, 19), (9, 17, 6), (16, 0, 5)] {
                let calls: Vec<(Vec<i8>, Vec<i8>)> = (0..coefs.len() as u64)
                    .map(|c| (random_mat(m * k, bits, 700 + c), random_mat(k * n, bits, 800 + c)))
                    .collect();
                let mut want = vec![0i32; 4 * m * n];
                for ((a, b), coef) in calls.iter().zip(coefs) {
                    let c = reference_gemm(a, b, m, k, n);
                    for (q, plane) in want.chunks_exact_mut(m * n).enumerate() {
                        for (idx, w) in plane.iter_mut().enumerate() {
                            *w = w.wrapping_add(coef[q] * c[idx % m * n + idx / m]);
                        }
                    }
                }
                for (threads, isa) in [1, 2, 6].into_iter().zip(Isa::supported().iter().cycle()) {
                    let cfg = ParallelConfig { threads, kc: 16, nc: 8 };
                    let mut panels = vec![0; panels_len(k, n, &cfg)];
                    let mut planes = vec![i32::MIN; 4 * m * n];
                    let mut started = [false; 4];
                    for ((a, b), coef) in calls.iter().zip(coefs) {
                        let (pa, pn) = (pack_a(a, m, k), pack_a_narrow(a, m, k));
                        let pq = PackedAQuads::from_a(a, m, k);
                        let weights = match tile {
                            "narrow" => SharedWeights::Narrow(&pn),
                            "sdot" => SharedWeights::Quads(&pq),
                            _ => SharedWeights::Wide(&pa),
                        };
                        let (planes, null) = (&mut planes, &Tracer::null());
                        gemm_parallel_cm_weighted(
                            *isa, &scheme, weights, b, k, n, &cfg, &mut panels, planes, coef,
                            &mut started, null,
                        );
                    }
                    assert_eq!(started, [true; 4]);
                    assert_eq!(planes, want, "{tile} m {m} k {k} n {n} x{threads} {isa}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "weights [3] are not 0 or ±2^s")]
    fn weights_are_zero_or_signed_powers_of_two() {
        let (a, b) = (random_mat(16, BitWidth::W4, 1), random_mat(16, BitWidth::W4, 2));
        let pa = pack_a(&a, 4, 4);
        let (mut panels, mut c) = (vec![0; 64], vec![0; 16]);
        let (isa, scheme) = (Isa::host(), Scheme::for_bits(BitWidth::W4));
        let (weights, cfg) = (SharedWeights::Wide(&pa), ParallelConfig::default());
        let (c, started, null) = (&mut c, &mut [false], &Tracer::null());
        gemm_parallel_cm_weighted(
            isa, &scheme, weights, &b, 4, 4, &cfg, &mut panels, c, [3], started, null,
        );
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
        let mut footprints = (0..4).map(|call| {
            let c_cm = gemm_parallel_cm(&scheme, SharedWeights::Wide(&pa), &b, k, n, &cfg, &mut ws);
            assert_eq!(col_to_row_major(c_cm, m, n), want, "call {call}");
            ws.footprint_bytes()
        });
        let first = footprints.next().unwrap();
        assert!(first >= m * n * 4);
        assert!(footprints.all(|f| f == first), "only the first call may allocate");
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
                let spans: Vec<_> = partition_columns(n, threads).collect();
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
        let spans: Vec<_> = partition_columns(3, 8).collect();
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
        let spans: Vec<_> = partition_columns(100, 3).collect(); // 25 tiles over 3 threads
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
    fn fan_out_of_no_jobs_runs_nothing() {
        fan_out(std::iter::empty::<usize>(), |job| panic!("ran job {job}"));
    }

    #[test]
    fn fan_out_runs_a_lone_job_on_the_caller() {
        let ran_on = Mutex::new(None);
        fan_out([7], |job| *ran_on.lock().unwrap() = Some((job, thread::current().id())));
        assert_eq!(ran_on.into_inner().unwrap(), Some((7, thread::current().id())));
    }

    #[test]
    fn fan_out_runs_every_job_once_and_the_first_on_the_caller() {
        for jobs in [2, 3, 5] {
            let runs = Mutex::new(Vec::new());
            fan_out(0..jobs, |job| runs.lock().unwrap().push((job, thread::current().id())));
            let mut runs = runs.into_inner().unwrap();
            runs.sort_by_key(|&(job, _)| job);
            let order: Vec<usize> = runs.iter().map(|&(job, _)| job).collect();
            assert_eq!(order, (0..jobs).collect::<Vec<_>>(), "{jobs} jobs");
            assert_eq!(runs[0].1, thread::current().id(), "{jobs} jobs: first on the caller");
            for (job, id) in &runs[1..] {
                assert_ne!(*id, thread::current().id(), "{jobs} jobs: job {job} spawned");
            }
        }
    }

    #[test]
    fn fan_out_panics_only_after_every_other_job_finished() {
        // Job 0 runs on the caller, the others on scoped threads; whichever
        // panics, the other jobs must all have finished when the panic
        // reaches the caller. A correct fan-out passes at any timing; the
        // sleep only widens the window in which one that let the panic out
        // early would be caught.
        for panicking in [0, 2] {
            let finished = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                fan_out(0..4, |job| {
                    if job == panicking {
                        panic!("job {job} fails");
                    }
                    thread::sleep(Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }));
            assert!(result.is_err(), "job {panicking}'s panic reaches the caller");
            assert_eq!(finished.load(Ordering::SeqCst), 3, "job {panicking} panicked early");
        }
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
        let (mut panels, mut traced) = (vec![0; panels_len(k, n, &cfg)], vec![0; m * n]);
        let weights = SharedWeights::Wide(&pa);
        let (c, started) = (&mut traced, &mut [false]);
        let isa = Isa::host();
        gemm_parallel_cm_weighted(
            isa, &scheme, weights, &b, k, n, &cfg, &mut panels, c, [1], started, &tracer,
        );
        assert_eq!(traced, plain, "tracing must not change the result");

        let cap = sink.capture();
        let spans: Vec<ColumnSpan> =
            partition_columns(n, cfg.threads).filter(|s| s.cols > 0).collect();
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
