//! Deterministic fork/join helpers over a process-wide pool of parked
//! helper threads.
//!
//! The STRG pipeline has three embarrassingly parallel hot paths — frame →
//! RAG extraction, the pairwise EGED distance matrix inside clustering, and
//! candidate-distance evaluation during index search. All three are
//! `map`-shaped: independent per-item work whose results are consumed in
//! input order. This crate provides exactly that shape and nothing more:
//!
//! * [`par_map`] / [`par_map_indexed`] / [`par_map_range`] split the input
//!   into one contiguous chunk per worker and concatenate the chunk outputs
//!   **in chunk order**. The result vector is therefore identical to a
//!   sequential `iter().map().collect()` — same values, same order — no
//!   matter how many threads ran. Any reduction a caller performs over that
//!   vector happens on the caller's thread in index order, so float
//!   accumulation order (and hence the bits of the result) cannot drift
//!   with the thread count.
//! * [`Threads`] is the knob every configurable layer exposes: `Auto`
//!   consults the `STRG_THREADS` environment variable and falls back to
//!   [`std::thread::available_parallelism`]; `Fixed(n)` pins the count, and
//!   `Fixed(1)` runs the plain sequential loop on the calling thread —
//!   the retained sequential path behind the same API, which never touches
//!   the pool.
//!
//! # The pool
//!
//! A fork is cheap: the caller runs chunk 0 itself, posts chunks 1.. as
//! boxed jobs on one shared queue, and **helps drain that queue while it
//! waits** for its own chunks. Helper threads are started lazily, up to
//! the largest `chunks - 1` any fork has posted so far, never exit, and
//! block on a condvar while the queue is empty (no spinning: an idle pool
//! costs nothing). Because every thread that posts also drains, a fork
//! nested inside a chunk and forks from concurrent callers (two serve
//! workers ingesting at once) cannot starve or deadlock: a waiter only
//! sleeps when the queue is empty, i.e. when each of its chunks is running
//! on some thread. The process's compute threads are bounded by `callers +
//! helpers` rather than growing by `workers` thread births per fork, and
//! the helpers' thread-local arenas (`DpScratch`, `QueryScratch`) stay warm
//! from one fork to the next.
//!
//! No work stealing, no channels, no dependencies. One `unsafe` block, in
//! `fork_join`: a persistent helper cannot run a closure that borrows the
//! caller's stack in safe Rust, so the boxed job's lifetime is erased to
//! `'static`; the invariant that makes this sound — the fork never returns
//! or unwinds before every posted job has finished — is stated there.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// Environment variable consulted by [`Threads::Auto`].
pub const THREADS_ENV: &str = "STRG_THREADS";

/// Worker-count policy for the parallel helpers.
///
/// `Auto` resolves at call time: the `STRG_THREADS` environment variable if
/// set to a positive integer, otherwise [`std::thread::available_parallelism`].
/// `Fixed(n)` ignores the environment; `Fixed(1)` (and `Fixed(0)`) select the
/// sequential code path on the calling thread.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Threads {
    /// `STRG_THREADS` env var, else the machine's available parallelism.
    #[default]
    Auto,
    /// Exactly this many workers (`<= 1` means sequential).
    Fixed(usize),
}

impl Threads {
    /// The number of workers this policy selects right now (always `>= 1`).
    ///
    /// `Auto` reads the environment on every call; callers on a hot path
    /// resolve once and pass `Threads::Fixed(n)` down.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => match std::env::var(THREADS_ENV) {
                Ok(v) => match v.trim().parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => available(),
                },
                Err(_) => available(),
            },
        }
    }
}

/// The machine's available parallelism, asked once per process (on Linux
/// the answer costs a `sched_getaffinity` plus cgroup file reads).
fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A chunk of some fork, ready to run on any thread. The `'static` is a
/// lie told once, in [`fork_join`], which also keeps it harmless.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared job queue and its parked helper threads.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when jobs are queued while a helper is parked.
    work: Condvar,
}

struct PoolState {
    jobs: VecDeque<Job>,
    /// Helper threads started so far (they never exit).
    helpers: usize,
    /// Helpers currently parked on `work`.
    idle: usize,
}

/// The pool every public entry point forks on.
static POOL: Pool = Pool::new();

impl Pool {
    const fn new() -> Self {
        Self {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                helpers: 0,
                idle: 0,
            }),
            work: Condvar::new(),
        }
    }

    /// The lock is only ever held for a queue push/pop or a counter bump,
    /// each of which leaves the state valid, so poison carries no news.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `jobs`, wakes parked helpers for them and starts new helpers
    /// until there is one per job of the widest fork seen so far.
    fn post(&'static self, jobs: Vec<Job>) {
        let n = jobs.len();
        let (wake, start) = {
            let mut st = self.lock();
            st.jobs.extend(jobs);
            let start = n.saturating_sub(st.helpers);
            st.helpers += start;
            (st.idle.min(n), start)
        };
        for _ in 0..wake {
            self.work.notify_one();
        }
        for _ in 0..start {
            let spawned = thread::Builder::new()
                .name("strg-parallel".into())
                .spawn(move || self.help());
            if spawned.is_err() {
                // Out of threads: the posting caller drains the queue
                // itself, so the fork still completes.
                self.lock().helpers -= 1;
            }
        }
    }

    fn try_pop(&self) -> Option<Job> {
        self.lock().jobs.pop_front()
    }

    /// A helper's whole life: run queued jobs, park while there are none.
    fn help(&self) {
        loop {
            let job = {
                let mut st = self.lock();
                loop {
                    if let Some(job) = st.jobs.pop_front() {
                        break job;
                    }
                    st.idle += 1;
                    st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.idle -= 1;
                }
            };
            job();
        }
    }

    /// Runs queued jobs — this fork's or anyone's — until `latch` opens,
    /// parking only while the queue is empty (every chunk the latch still
    /// waits for is then running on some other thread).
    fn help_until(&self, latch: &Latch) {
        while !latch.is_open() {
            match self.try_pop() {
                Some(job) => job(),
                None => thread::park(),
            }
        }
    }
}

/// Counts a fork's posted jobs down and wakes the forking thread at zero.
/// Shared through an `Arc` so a job's last touch of it — after its last
/// touch of anything the fork borrowed — never races the fork's return.
struct Latch {
    remaining: AtomicUsize,
    waiter: Thread,
}

impl Latch {
    /// `Release` here pairs with the `Acquire` in [`Latch::is_open`]: a
    /// waiter that reads zero sees every finished job's result slot.
    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            self.waiter.unpark();
        }
    }

    fn is_open(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// Counts its latch down when dropped, so a job reports in even if storing
/// its result unwinds.
struct CountDownOnDrop(Arc<Latch>);

impl Drop for CountDownOnDrop {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// Blocks (helping) until the latch opens when dropped: the structural
/// form of "a fork does not return or unwind while its jobs are alive".
struct JoinOnDrop<'a> {
    pool: &'a Pool,
    latch: &'a Latch,
}

impl Drop for JoinOnDrop<'_> {
    fn drop(&mut self) {
        self.pool.help_until(self.latch);
    }
}

type ChunkResult<R, S> = thread::Result<(Vec<R>, S)>;

/// The one fork/join: maps `f` over `0..n` in one contiguous chunk per
/// worker, returning the outputs in index order and the per-chunk states in
/// chunk order. Everything public funnels into this.
fn fork_join<R, S, I, F>(
    pool: &'static Pool,
    n: usize,
    threads: Threads,
    init: I,
    f: F,
) -> (Vec<R>, Vec<S>)
where
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = threads.resolve().min(n.max(1));
    if workers <= 1 {
        let mut state = init();
        let out = (0..n).map(|i| f(&mut state, i)).collect();
        return (out, vec![state]);
    }
    let chunk = n.div_ceil(workers);
    let chunks = n.div_ceil(chunk);
    let run = |ci: usize| -> ChunkResult<R, S> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            let out = (ci * chunk..((ci + 1) * chunk).min(n))
                .map(|i| f(&mut state, i))
                .collect::<Vec<R>>();
            (out, state)
        }))
    };
    let slots: Vec<Mutex<Option<ChunkResult<R, S>>>> =
        (0..chunks).map(|_| Mutex::new(None)).collect();
    let store = |ci: usize, result: ChunkResult<R, S>| {
        *slots[ci].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    };
    let latch = Arc::new(Latch {
        remaining: AtomicUsize::new(chunks - 1),
        waiter: thread::current(),
    });
    let jobs: Vec<Job> = (1..chunks)
        .map(|ci| {
            let done = CountDownOnDrop(Arc::clone(&latch));
            let (run, store) = (&run, &store);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                store(ci, run(ci));
                drop(done);
            });
            // SAFETY: the transmute only erases the lifetime of the borrows
            // the job holds (`run`, `store`, and through them `init`, `f`
            // and `slots`), so that a persistent helper thread may run it.
            // Those borrows stay valid for as long as any job can use them
            // because this function neither returns nor unwinds before the
            // latch has counted every posted job down: the `JoinOnDrop`
            // below is created before the jobs are posted and its `Drop` —
            // which runs on the normal path and on any unwind alike —
            // blocks until `latch.remaining` is zero; the caller's own
            // chunk runs under `catch_unwind` inside `run`. A job's
            // count-down is its last action (`done` is dropped after
            // `store` returns, and is also dropped if `store` unwinds), it
            // goes through an `Arc` the job owns, and the job is consumed
            // by the call, so nothing borrowed is touched after the latch
            // opens.
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
        })
        .collect();
    {
        let _join = JoinOnDrop {
            pool,
            latch: &latch,
        };
        pool.post(jobs);
        store(0, run(0));
    }
    let mut out = Vec::with_capacity(n);
    let mut states = Vec::with_capacity(chunks);
    let mut panic: Option<Box<dyn Any + Send>> = None;
    for slot in slots {
        let result = slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("the latch opened, so every chunk stored its result");
        match result {
            Ok((mut part, state)) => {
                out.append(&mut part);
                states.push(state);
            }
            Err(p) => panic = Some(p),
        }
    }
    if let Some(p) = panic {
        resume_unwind(p);
    }
    (out, states)
}

/// Maps `f` over `items`, returning outputs in input order.
///
/// With `threads <= 1` (or fewer than two items) this is a plain sequential
/// loop on the calling thread. Otherwise the slice is split into one
/// contiguous chunk per worker and the per-chunk outputs are concatenated in
/// chunk order, so the result is element-for-element identical to the
/// sequential run. A panic on any worker is re-raised on the caller.
pub fn par_map<T, R, F>(items: &[T], threads: Threads, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, threads, |_, item| f(item))
}

/// [`par_map`] variant whose closure also receives the item's index.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: Threads, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), i, item| f(i, item)).0
}

/// [`par_map_indexed`] with per-worker scratch state.
///
/// Each worker calls `init` exactly once before touching its chunk and
/// threads the resulting state (by `&mut`) through every item it maps, so
/// expensive buffers are allocated once per *worker* instead of once per
/// *item*. The sequential path (`threads <= 1` or fewer than two items)
/// creates a single state on the calling thread. Returns the outputs in
/// input order — element-for-element identical to a sequential run, exactly
/// like [`par_map`] — plus the final worker states in chunk order, so
/// callers can harvest scratch statistics (e.g. arena sizes) after the
/// fan-out. The state must not influence the outputs beyond what `f` writes
/// through it deterministically per item; a panic on any worker is
/// re-raised on the caller, after every other chunk has finished.
pub fn par_map_with<T, R, S, I, F>(items: &[T], threads: Threads, init: I, f: F) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    fork_join(&POOL, items.len(), threads, init, |state, i| {
        f(state, i, &items[i])
    })
}

/// Runs `f` over the index range `0..n`, returning outputs in index order.
///
/// Useful when the per-item work reads shared state by index rather than
/// through a slice (e.g. a distance matrix addressed by row).
pub fn par_map_range<R, F>(n: usize, threads: Threads, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fork_join(&POOL, n, threads, || (), |(), i| f(i)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::Barrier;

    /// A pool of the test's own, so helper counts are not shared with the
    /// tests libtest runs beside it. Its parked helpers leak with it.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn helper_count(pool: &Pool) -> usize {
        pool.lock().helpers
    }

    #[test]
    fn preserves_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64, 200] {
            let got = par_map(&items, Threads::Fixed(threads), |x| x * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn indexed_variant_sees_global_indices() {
        let items = vec!["a"; 37];
        let got = par_map_indexed(&items, Threads::Fixed(4), |i, _| i);
        assert_eq!(got, (0..37).collect::<Vec<_>>());
        let got = par_map_range(37, Threads::Fixed(4), |i| i * 2);
        assert_eq!(got, (0..37).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        let items: Vec<f64> = (0..512).map(|i| (i as f64).sin() * 1e3).collect();
        let seq = par_map(&items, Threads::Fixed(1), |x| x.sqrt().abs().ln_1p());
        for threads in [2, 5, 8] {
            let par = par_map(&items, Threads::Fixed(threads), |x| x.sqrt().abs().ln_1p());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<i32> = vec![];
        assert!(par_map(&empty, Threads::Fixed(8), |x| *x).is_empty());
        assert_eq!(par_map(&[7], Threads::Fixed(8), |x| x + 1), vec![8]);
    }

    #[test]
    fn really_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        // A tiny sleep keeps early workers alive until late spawns happen.
        par_map(&items, Threads::Fixed(4), |_| {
            seen.lock().unwrap().insert(thread::current().id());
            thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(
            seen.lock().unwrap().len() > 1,
            "expected multiple worker threads"
        );
    }

    #[test]
    fn with_state_initializes_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 4] {
            inits.store(0, Ordering::SeqCst);
            let (out, states) = par_map_with(
                &items,
                Threads::Fixed(threads),
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize // per-worker item counter
                },
                |count, i, x| {
                    *count += 1;
                    (i as u32) + x
                },
            );
            assert_eq!(out, (0..40).map(|i| 2 * i).collect::<Vec<_>>());
            assert_eq!(inits.load(Ordering::SeqCst), threads, "one init per worker");
            assert_eq!(states.len(), threads);
            let mapped: usize = states.iter().sum();
            assert_eq!(mapped, items.len(), "every item went through a state");
        }
    }

    #[test]
    fn with_state_empty_input_still_returns_one_state() {
        let empty: Vec<i32> = vec![];
        let (out, states) = par_map_with(&empty, Threads::Fixed(8), || 7, |s, _, x| *x + *s);
        assert!(out.is_empty());
        assert_eq!(states, vec![7]);
    }

    #[test]
    fn with_state_matches_sequential_at_any_thread_count() {
        let items: Vec<f64> = (0..257).map(|i| (i as f64).cos() * 10.0).collect();
        let run = |threads| {
            par_map_with(
                &items,
                Threads::Fixed(threads),
                Vec::<f64>::new,
                |scratch, _, x| {
                    // Scratch reuse must not leak state between items.
                    scratch.clear();
                    scratch.push(x * x);
                    scratch[0].sqrt()
                },
            )
            .0
        };
        let seq = run(1);
        for threads in [2, 3, 8] {
            let par = run(threads);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn sequential_path_stays_on_calling_thread() {
        let caller = thread::current().id();
        par_map(&[1, 2, 3], Threads::Fixed(1), |_| {
            assert_eq!(thread::current().id(), caller);
        });
    }

    #[test]
    fn panics_reraise_after_every_other_chunk_finished() {
        let items: Vec<u32> = (0..16).collect();
        // Item 0 is in the caller's own chunk, item 5 the second item of a
        // posted one: 12 items in the three other chunks, plus item 4.
        for (bad, expect_completed) in [(0, 12), (5, 13)] {
            let completed = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(&items, Threads::Fixed(4), |&x| {
                    if x == bad {
                        panic!("boom");
                    }
                    // Keeps the other chunks busy past the panic, so a fork
                    // that re-raised early would be caught short below.
                    thread::sleep(std::time::Duration::from_millis(1));
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            }));
            let payload = result.expect_err("panic must surface to the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            assert_eq!(
                completed.load(Ordering::SeqCst),
                expect_completed,
                "bad = {bad}"
            );
            // The pool is as usable as before.
            let got = par_map(&items, Threads::Fixed(4), |x| x + 1);
            assert_eq!(got, (1..17).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn nested_forks_complete_and_match_sequential() {
        let expect: Vec<Vec<usize>> = (0..24)
            .map(|i| (0..40).map(|j| i * 100 + j).collect())
            .collect();
        for _ in 0..50 {
            let got = par_map_range(24, Threads::Fixed(8), |i| {
                par_map_range(40, Threads::Fixed(8), |j| i * 100 + j)
            });
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn concurrent_callers_get_their_own_ordered_results() {
        let start = Barrier::new(4);
        thread::scope(|scope| {
            for t in 0..4usize {
                let start = &start;
                scope.spawn(move || {
                    let items: Vec<usize> = (0..37).collect();
                    start.wait();
                    for round in 0..2000 {
                        let got = par_map(&items, Threads::Fixed(3), |x| x * 7 + t + round);
                        let expect: Vec<usize> = items.iter().map(|x| x * 7 + t + round).collect();
                        assert_eq!(got, expect, "caller {t} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn helpers_are_started_once_not_per_fork() {
        let pool = private_pool();
        let start = Barrier::new(2);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for round in 0..5_000usize {
                        let (got, _) =
                            fork_join(pool, 10, Threads::Fixed(2), || (), |(), i| i + round);
                        assert_eq!(got[9], 9 + round);
                    }
                });
            }
        });
        assert_eq!(helper_count(pool), 1, "10,000 forks at Fixed(2)");
        fork_join(pool, 64, Threads::Fixed(8), || (), |(), i| i);
        assert_eq!(helper_count(pool), 7, "one Fixed(8) fork");
        fork_join(pool, 64, Threads::Fixed(3), || (), |(), i| i);
        assert_eq!(helper_count(pool), 7, "narrower forks start nobody");
    }

    #[test]
    fn helper_thread_locals_persist_across_forks() {
        thread_local! {
            static ARENA: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        }
        let grows = AtomicUsize::new(0);
        let touch = || {
            ARENA.with(|a| {
                let mut a = a.borrow_mut();
                if a.capacity() < 512 {
                    grows.fetch_add(1, Ordering::SeqCst);
                    a.reserve(512);
                }
            })
        };
        let pool = private_pool();
        // Warm-up: the barrier holds all four chunks until each sits on a
        // thread of its own, so the caller and all three helpers grow.
        let all_here = Barrier::new(4);
        fork_join(
            pool,
            4,
            Threads::Fixed(4),
            || (),
            |(), _| {
                touch();
                all_here.wait();
            },
        );
        assert_eq!(grows.load(Ordering::SeqCst), 4);
        for _ in 0..1_000 {
            fork_join(pool, 64, Threads::Fixed(4), || (), |(), _| touch());
        }
        assert_eq!(
            grows.load(Ordering::SeqCst),
            4,
            "no new thread, so no arena grew after warm-up"
        );
    }

    #[test]
    fn fixed_counts_resolve_without_env() {
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert_eq!(Threads::Fixed(1).resolve(), 1);
        assert_eq!(Threads::Fixed(9).resolve(), 9);
    }

    // Env-var tests mutate process state; keep them in one test so they
    // cannot race each other under the parallel test runner.
    #[test]
    fn auto_reads_env_knob() {
        std::env::set_var(THREADS_ENV, "7");
        assert_eq!(Threads::Auto.resolve(), 7);
        std::env::set_var(THREADS_ENV, "not a number");
        assert!(Threads::Auto.resolve() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(Threads::Auto.resolve() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(Threads::Auto.resolve() >= 1);
    }
}
