//! Reusable GEMM workspace: the scratch memory the parallel driver needs
//! per call (one packed-B panel per thread, carved off one buffer, plus
//! the result buffer of the unit-weight column-major entry point, which
//! only that entry point grows), owned by the caller so steady-state
//! inference re-runs the same layer shapes without growing it. What a
//! warm call still allocates is small and independent of the shape: on
//! the NCHW target, the list of per-thread shares and each share's list
//! of plane-row slices ([`crate::partition_columns`] computes the spans
//! without a list).
//!
//! Every arena buffer grows through [`grow_exact`]: capacities only ever
//! grow, and only to the largest length requested (no amortized doubling
//! past it), so a certified bound on the requested lengths bounds the
//! footprint. [`WorkspaceStats`] records an arena's capacity high-water
//! mark and counts calls that grew any buffer (`alloc_events`), so tests
//! can assert that repeated runs over a fixed layer set stop allocating
//! after the first pass.

/// Allocation bookkeeping for a workspace arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Peak total capacity (bytes) ever held by the arena's buffers.
    pub high_water_bytes: usize,
    /// Number of calls that had to grow at least one buffer.
    pub alloc_events: u64,
    /// Total calls served.
    pub calls: u64,
}

impl WorkspaceStats {
    /// Records one served call that took the arena's footprint from
    /// `before` to `after` bytes: the one growth rule of every arena.
    pub fn note_call(&mut self, before: usize, after: usize) {
        self.calls += 1;
        if after > before {
            self.alloc_events += 1;
        }
        self.high_water_bytes = self.high_water_bytes.max(after);
    }
}

/// Grows `buf` to at least `len` elements and returns its first `len`.
/// The capacity grows with `reserve_exact`, so it is the largest length
/// ever requested, and the length never shrinks, so a smaller request
/// re-zeroes nothing. Nothing is cleared: every caller writes each
/// element it later reads.
pub fn grow_exact<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Caller-owned arena for [`crate::parallel::gemm_parallel_cm`]: the
/// column-major result it returns and one flat buffer of B panels, one
/// per thread (the other entry points take the caller's target and panel
/// slice). An owning arena records its [`WorkspaceStats`] from
/// [`GemmWorkspace::footprint_bytes`].
#[derive(Default)]
pub struct GemmWorkspace {
    /// Column-major `m x n` result of the unit-weight entry point.
    pub(crate) c_cm: Vec<i32>,
    /// The cache-blocked packed-B panels, one per thread.
    pub(crate) panels: Vec<i8>,
}

impl GemmWorkspace {
    /// An empty arena; the first call sizes it.
    pub fn new() -> GemmWorkspace {
        GemmWorkspace::default()
    }

    /// Current total buffer capacity in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.c_cm.capacity() * 4 + self.panels.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_growth_and_steady_state() {
        let mut ws = GemmWorkspace::new();
        let mut stats = WorkspaceStats::default();
        let before = ws.footprint_bytes();
        grow_exact(&mut ws.c_cm, 100);
        grow_exact(&mut ws.panels, 64);
        stats.note_call(before, ws.footprint_bytes());
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.alloc_events, 1);
        let hw = stats.high_water_bytes;
        assert_eq!(hw, 100 * 4 + 64);

        // Same-size and smaller calls: no growth, high-water unchanged.
        let before = ws.footprint_bytes();
        grow_exact(&mut ws.c_cm, 80);
        grow_exact(&mut ws.panels, 64);
        stats.note_call(before, ws.footprint_bytes());
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.alloc_events, 1, "steady state must not allocate");
        assert_eq!(stats.high_water_bytes, hw);
        // Growth keeps the contents and zero-fills only the new tail.
        ws.panels.fill(7);
        assert_eq!(grow_exact(&mut ws.panels, 66)[62..], [7, 7, 0, 0]);
    }
}
