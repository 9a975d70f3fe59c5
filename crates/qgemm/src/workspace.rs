//! Reusable GEMM workspace: the scratch memory the parallel driver needs
//! per call (the column-major result buffer plus one packed-B panel per
//! thread), owned by the caller so steady-state inference re-runs the same
//! layer shapes with **zero heap allocations**.
//!
//! Buffer reuse is `clear()` + `reserve_exact()` + `resize()`: lengths
//! track the current call, capacities only ever grow, and only to the
//! largest length requested (no amortized doubling past it), so a
//! certified bound on the requested lengths bounds the footprint.
//! [`WorkspaceStats`] records the capacity high-water mark and counts calls
//! that grew any buffer (`alloc_events`), so tests can assert that repeated
//! runs over a fixed layer set stop allocating after the first pass.

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

/// Per-thread scratch: the cache-blocked packed-B panel.
#[derive(Default)]
pub(crate) struct ThreadScratch {
    pub(crate) b_panel: Vec<i8>,
}

/// Caller-owned arena for [`crate::parallel::gemm_parallel_cm`].
#[derive(Default)]
pub struct GemmWorkspace {
    /// Column-major `m x n` result (`c_cm[col * m + row]`), so each worker
    /// thread's column range is one contiguous `&mut [i32]`.
    pub(crate) c_cm: Vec<i32>,
    pub(crate) scratch: Vec<ThreadScratch>,
    stats: WorkspaceStats,
}

impl GemmWorkspace {
    /// An empty arena; the first call sizes it.
    pub fn new() -> GemmWorkspace {
        GemmWorkspace::default()
    }

    /// Allocation statistics accumulated over all calls.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Current total buffer capacity in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.c_cm.capacity() * std::mem::size_of::<i32>()
            + self
                .scratch
                .iter()
                .map(|s| s.b_panel.capacity())
                .sum::<usize>()
    }

    /// Sizes the arena for one call: a `c_len` result buffer and at least
    /// `threads` scratch slots. The result is not cleared (it holds the
    /// previous call's values): the driver's first K block stores every
    /// element.
    pub(crate) fn prepare(&mut self, threads: usize, c_len: usize) {
        if self.scratch.len() < threads {
            self.scratch.resize_with(threads, ThreadScratch::default);
        }
        self.c_cm.reserve_exact(c_len.saturating_sub(self.c_cm.len()));
        self.c_cm.resize(c_len, 0);
    }

    /// Records one served call given the footprint measured before it.
    pub(crate) fn note_call(&mut self, footprint_before: usize) {
        self.stats.calls += 1;
        let after = self.footprint_bytes();
        if after > footprint_before {
            self.stats.alloc_events += 1;
        }
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_growth_and_steady_state() {
        let mut ws = GemmWorkspace::new();
        let before = ws.footprint_bytes();
        ws.prepare(2, 100);
        ws.scratch[0].b_panel.resize(64, 0);
        ws.note_call(before);
        assert_eq!(ws.stats().calls, 1);
        assert_eq!(ws.stats().alloc_events, 1);
        let hw = ws.stats().high_water_bytes;
        assert!(hw >= 100 * 4 + 64);

        // Same-size call: no growth, high-water unchanged.
        let before = ws.footprint_bytes();
        ws.prepare(2, 80);
        ws.scratch[0].b_panel.clear();
        ws.scratch[0].b_panel.resize(64, 0);
        ws.note_call(before);
        assert_eq!(ws.stats().calls, 2);
        assert_eq!(ws.stats().alloc_events, 1, "steady state must not allocate");
        assert_eq!(ws.stats().high_water_bytes, hw);
    }
}
