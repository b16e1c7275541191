//! Thread-local DP-row arenas (DESIGN.md §13).
//!
//! Every `distance_upto` call used to allocate its two lattice rows; under
//! a query that refines hundreds of candidates that is the hot allocation
//! of the whole search path. The DP kernels instead borrow a
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

/// One grow-only row: `sized(len)` borrows its first `len` cells, growing
/// (never shrinking) the backing storage. Contents are unspecified on
/// entry — every DP writes each cell before reading it.
pub(crate) struct Row(Vec<f64>);

impl Row {
    pub(crate) fn sized(&mut self, len: usize) -> &mut [f64] {
        if self.0.len() < len {
            self.0.resize(len, 0.0);
        }
        &mut self.0[..len]
    }
}

/// Grow-only row buffers for one in-flight DP evaluation: two lattice rows
/// (EGED's wavefront updates one in place and needs only `prev`; DTW swaps
/// both) and one row of staged per-column costs.
pub(crate) struct DpScratch {
    pub(crate) prev: Row,
    pub(crate) cur: Row,
    pub(crate) cost: Row,
}

impl DpScratch {
    const fn new() -> Self {
        Self {
            prev: Row(Vec::new()),
            cur: Row(Vec::new()),
            cost: Row(Vec::new()),
        }
    }
}

thread_local! {
    static DP_SCRATCH: RefCell<DpScratch> = const { RefCell::new(DpScratch::new()) };
}

/// Runs `f` with this thread's DP arena; reentrant calls get a fresh local
/// arena (correct, just unpooled) rather than a borrow panic.
pub(crate) fn with_dp_scratch<R>(f: impl FnOnce(&mut DpScratch) -> R) -> R {
    DP_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut DpScratch::new()),
    })
}
