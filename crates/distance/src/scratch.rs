//! Thread-local DP-row arenas (DESIGN.md §13).
//!
//! Every `distance_upto` call used to allocate its two lattice rows; under
//! a query that refines hundreds of candidates that is the hot allocation
//! of the whole search path. The vectorized kernels instead borrow a
//! per-thread [`DpScratch`] whose rows grow monotonically and are reused
//! across calls — after warm-up, steady-state distance evaluations perform
//! zero heap allocations (proven by `tests/query_alloc.rs`).
//!
//! The arena is keyed by thread, so the long-lived workers of the serve
//! pool and the persistent helpers of `strg_parallel`'s fork/join pool
//! (which outlive the forks they serve) each converge on their own
//! high-water-mark rows. Reentrancy (a ground distance that itself calls a
//! sequence distance) falls back to a fresh local arena instead of
//! panicking on the `RefCell`.

use std::cell::RefCell;

/// Grow-only row buffers for one in-flight DP evaluation.
pub(crate) struct DpScratch {
    prev: Vec<f64>,
    cur: Vec<f64>,
    sub: Vec<f64>,
    del: Vec<f64>,
    add: Vec<f64>,
}

impl DpScratch {
    const fn empty() -> Self {
        Self {
            prev: Vec::new(),
            cur: Vec::new(),
            sub: Vec::new(),
            del: Vec::new(),
            add: Vec::new(),
        }
    }

    /// Borrows the five row buffers sized for an inner dimension of `n`:
    /// `prev`/`cur` hold the `n + 1` lattice cells, `sub`/`del`/`add` one
    /// per-column cost each. Contents are unspecified on entry — every DP
    /// writes each cell before reading it.
    #[allow(clippy::type_complexity)]
    pub(crate) fn rows(
        &mut self,
        n: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        fn take(v: &mut Vec<f64>, len: usize) -> &mut [f64] {
            if v.len() < len {
                v.resize(len, 0.0);
            }
            &mut v[..len]
        }
        (
            take(&mut self.prev, n + 1),
            take(&mut self.cur, n + 1),
            take(&mut self.sub, n),
            take(&mut self.del, n),
            take(&mut self.add, n),
        )
    }
}

thread_local! {
    static DP_SCRATCH: RefCell<DpScratch> = const { RefCell::new(DpScratch::empty()) };
}

/// Runs `f` with this thread's DP arena; reentrant calls get a fresh local
/// arena (correct, just unpooled) rather than a borrow panic.
pub(crate) fn with_dp_scratch<R>(f: impl FnOnce(&mut DpScratch) -> R) -> R {
    DP_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut DpScratch::empty()),
    })
}
