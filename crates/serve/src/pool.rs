//! A bounded worker pool with reject-on-full admission control.
//!
//! The pool is the server's execution band: connection threads decode
//! requests and [`Pool::try_submit`] them; `worker` threads (sized by
//! [`strg_parallel::Threads`], i.e. the `STRG_THREADS` knob) execute them
//! against the shared database. The queue is **bounded**: when `cap` jobs
//! are already waiting, submission fails immediately and the caller turns
//! that into a structured `overloaded` protocol error — under burst load
//! the server sheds work instead of buffering without bound (and instead
//! of stalling every client behind an ever-growing queue).
//!
//! A panicking job is caught (`catch_unwind`) so one poisoned request
//! cannot wedge a worker; [`Pool::shutdown`] closes the queue, drains the
//! jobs already admitted, and joins every worker.
//!
//! Workers are long-lived named threads, which makes them natural owners
//! of the query arenas: `strg_core::with_query_scratch` /
//! `with_shard_scratch` are thread-local, so each worker's first query
//! warms a private [`QueryScratch`](strg_core::QueryScratch) /
//! [`ShardScratch`](strg_core::ShardScratch) that every subsequent query
//! on that worker reuses — a steady-state tree search or sequential
//! fan-out performs no heap allocations; a fan-out that searches two or
//! more shards in parallel allocates one hit buffer per shard (see
//! DESIGN.md §13).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`Pool::try_submit`] refused a job.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    Full,
    /// The pool is shutting down.
    Closed,
}

struct State {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
    cap: usize,
}

/// The bounded worker pool. See the module docs.
pub struct Pool {
    shared: std::sync::Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Pool {
    /// Spawns `workers` threads servicing a queue of at most `cap`
    /// waiting jobs. Both are clamped to at least 1: a pool needs a
    /// worker to make progress and one queue slot to hand work over.
    pub fn new(workers: usize, cap: usize) -> Self {
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("strg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Admits a job, or rejects it when the queue is full or the pool is
    /// closed. On success returns the queue depth *after* enqueueing (for
    /// the `serve.queue_depth` histogram).
    pub fn try_submit(&self, job: Job) -> Result<usize, SubmitError> {
        let mut st = self.shared.state.lock().expect("pool lock");
        if !st.open {
            return Err(SubmitError::Closed);
        }
        if st.jobs.len() >= self.shared.cap {
            return Err(SubmitError::Full);
        }
        st.jobs.push_back(job);
        let depth = st.jobs.len();
        drop(st);
        self.shared.available.notify_one();
        Ok(depth)
    }

    /// Number of jobs currently waiting (diagnostic).
    pub fn depth(&self) -> usize {
        self.shared.state.lock().expect("pool lock").jobs.len()
    }

    /// Closes the queue, drains already-admitted jobs, and joins every
    /// worker. Subsequent submissions fail with [`SubmitError::Closed`].
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.open = false;
        }
        self.shared.available.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if !st.open {
                    return;
                }
                st = shared.available.wait(st).expect("pool lock");
            }
        };
        // A panicking handler must not take the worker down with it; the
        // connection side observes the dropped response channel and
        // reports a structured `internal` error.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = Pool::new(4, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32, "drained before join");
    }

    #[test]
    fn rejects_when_full_and_recovers() {
        let pool = Pool::new(1, 1);
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.try_submit(Box::new(move || {
            let _ = hold_rx.recv_timeout(Duration::from_secs(10));
        }))
        .unwrap();
        // ...wait until it actually picked the job up (depth back to 0)...
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        // ...fill the one queue slot, then overflow.
        pool.try_submit(Box::new(|| {})).unwrap();
        assert_eq!(pool.try_submit(Box::new(|| {})), Err(SubmitError::Full));
        // Releasing the worker makes room again.
        hold_tx.send(()).unwrap();
        let (tx, rx) = mpsc::channel();
        loop {
            let tx = tx.clone();
            match pool.try_submit(Box::new(move || {
                let _ = tx.send(());
            })) {
                Ok(_) => break,
                Err(SubmitError::Full) => std::thread::yield_now(),
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        rx.recv_timeout(Duration::from_secs(10)).expect("job ran");
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_wedge_workers() {
        let pool = Pool::new(1, 8);
        pool.try_submit(Box::new(|| panic!("poisoned request")))
            .unwrap();
        let (tx, rx) = mpsc::channel();
        pool.try_submit(Box::new(move || {
            let _ = tx.send(());
        }))
        .unwrap();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("worker survived the panic");
        pool.shutdown();
    }

    #[test]
    fn closed_pool_rejects() {
        let pool = Pool::new(2, 8);
        pool.shutdown();
        assert_eq!(pool.try_submit(Box::new(|| {})), Err(SubmitError::Closed));
    }
}
