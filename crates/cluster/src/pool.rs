//! A persistent worker pool for latency-serving paths.
//!
//! [`Cluster::run_partitions`](crate::Cluster::run_partitions) exists to
//! *measure*: it spawns scoped threads per job, times each partition
//! closure and schedules the times onto a modeled cluster. A serving layer
//! answering live queries wants the opposite trade: no per-call thread
//! spawns, just a fixed set of long-lived threads draining
//! a work queue — so a query's per-partition tasks run in wall-clock
//! parallel and a second query's tasks interleave with the first's instead
//! of queueing behind the whole job.
//!
//! [`WorkerPool`] provides exactly that:
//!
//! * **long-lived threads** created once, fed through an unbounded
//!   [`crossbeam::channel`] MPMC work queue (submission order = dispatch
//!   order, so callers control priority by submitting in priority order);
//! * **scoped submission** ([`WorkerPool::scope`]): tasks may borrow from
//!   the caller's stack; the scope blocks until every task it submitted
//!   has finished, even if the scope body or a task panics;
//! * **panic containment**: a panicking task never takes a worker thread
//!   down — the panic is caught, the scope observes it, and
//!   [`WorkerPool::scope`] re-raises it *after* every sibling task has
//!   completed (so borrowed data is never freed under a running task).
//!
//! ```
//! use repose_cluster::WorkerPool;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = WorkerPool::new(4);
//! let counter = AtomicUsize::new(0);
//! pool.scope(|s| {
//!     for _ in 0..16 {
//!         s.submit(|| {
//!             counter.fetch_add(1, Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(counter.load(Ordering::Relaxed), 16);
//! ```

use crossbeam::channel::{self, Receiver, Sender};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The host's available parallelism — the one place pool sizes come from
/// ([`crate::Cluster`] and [`WorkerPool`] both default to it, as does the
/// serving layer's configuration).
pub fn default_pool_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A type-erased unit of work. Tasks are `'static` on the queue; the
/// scoped-submission path transmutes the lifetime and is kept sound by the
/// scope's completion barrier (see [`PoolScope::submit`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of long-lived worker threads draining one shared
/// work queue (see module docs).
pub struct WorkerPool {
    /// `Some` until drop; dropping the sender disconnects the queue and
    /// lets idle workers exit.
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let (sender, receiver) = channel::unbounded::<Job>();
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx: Receiver<Job> = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("repose-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // The job itself contains the catch_unwind (see
                            // PoolScope::submit); a raw `'static` job that
                            // panics would abort via unwind-into-runtime,
                            // so contain it here too.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { sender: Some(sender), workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f` with a submission scope: tasks submitted through it may
    /// borrow from the enclosing stack frame, and this call returns only
    /// after every submitted task has finished. If any task panicked, the
    /// panic is re-raised here (after the completion barrier), with the
    /// pool itself unharmed.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState::new());
        let scope = PoolScope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        // The barrier must hold even when `f` itself unwinds after
        // submitting tasks: the guard's Drop waits before the unwind can
        // free anything the tasks borrow.
        let guard = CompletionGuard(&state);
        let result = f(&scope);
        drop(guard); // normal path: wait here
        if state.panicked.load(Ordering::Acquire) {
            panic!("a task submitted to the worker pool panicked");
        }
        result
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the queue; workers drain outstanding jobs and exit.
        drop(self.sender.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

/// Pending-task accounting shared between a scope and its tasks.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn incr(&self) {
        *self.pending.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }

    fn decr(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        while *pending > 0 {
            pending = self
                .done
                .wait(pending)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Blocks on scope completion even during unwinding.
struct CompletionGuard<'a>(&'a ScopeState);

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Submission handle passed to the closure of [`WorkerPool::scope`].
///
/// The `'env` lifetime ties submitted tasks to the enclosing stack frame:
/// anything borrowed lives until the scope's completion barrier releases.
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant in `'env`, like `std::thread::Scope`, so the borrow
    /// checker cannot shrink the environment lifetime.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Enqueues `task` on the pool. Tasks dispatch to workers in
    /// submission order (FIFO), so submitting in priority order *is* the
    /// priority schedule. Panics in `task` are contained (see
    /// [`WorkerPool::scope`]).
    pub fn submit<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.incr();
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            state.decr();
        });
        // SAFETY: the scope's completion barrier (`ScopeState::wait`, run
        // by `WorkerPool::scope` or the unwind guard before control leaves
        // the scope) guarantees this job finishes before anything it
        // borrows from `'env` can be dropped, so erasing the lifetime to
        // `'static` for the queue is sound. The decrement is inside the
        // job and runs even when the task panics (the catch_unwind above).
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job)
        };
        self.pool
            .sender
            .as_ref()
            .expect("pool queue alive while pool exists")
            .send(job)
            .expect("pool workers alive while pool exists");
    }
}

impl std::fmt::Debug for PoolScope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScope")
            .field("threads", &self.pool.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn tasks_borrow_stack_data() {
        let pool = WorkerPool::new(3);
        let data = [1u64, 2, 3, 4, 5];
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                s.submit(|| {
                    sum.fetch_add(
                        chunk.iter().sum::<u64>() as usize,
                        Ordering::Relaxed,
                    );
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn scope_blocks_until_all_tasks_finish() {
        let pool = WorkerPool::new(4);
        let finished = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.submit(|| {
                    std::thread::sleep(Duration::from_millis(5));
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(finished.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn tasks_run_concurrently_across_workers() {
        // Two tasks that each wait for the other: completes only if they
        // really run on two threads at once.
        let pool = WorkerPool::new(2);
        let rendezvous = AtomicUsize::new(0);
        let meet = || {
            rendezvous.fetch_add(1, Ordering::SeqCst);
            let t0 = std::time::Instant::now();
            while rendezvous.load(Ordering::SeqCst) < 2 {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "tasks never ran concurrently"
                );
                std::thread::yield_now();
            }
        };
        pool.scope(|s| {
            s.submit(meet);
            s.submit(meet);
        });
        assert_eq!(rendezvous.load(Ordering::SeqCst), 2);
    }

    /// The satellite-required containment test: a panicking task must not
    /// kill its worker thread; the scope re-raises the panic only after
    /// every sibling completed; and the pool keeps working afterwards.
    #[test]
    fn panicking_task_is_contained_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let siblings = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.submit(|| panic!("task boom"));
                for _ in 0..4 {
                    s.submit(|| {
                        std::thread::sleep(Duration::from_millis(2));
                        siblings.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(caught.is_err(), "scope must re-raise the task panic");
        assert_eq!(
            siblings.load(Ordering::Relaxed),
            4,
            "siblings must complete before the panic propagates"
        );

        // The pool is fully usable after a contained panic.
        let after = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.submit(|| {
                    after.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(after.load(Ordering::Relaxed), 4);
        assert_eq!(pool.threads(), 2, "no worker thread was lost");
    }

    /// Shutdown: dropping the pool drains outstanding work and joins every
    /// worker (no detached threads, no lost tasks).
    #[test]
    fn drop_drains_and_joins() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            let done = Arc::clone(&done);
            pool.scope(|s| {
                for _ in 0..6 {
                    let done = Arc::clone(&done);
                    s.submit(move || {
                        std::thread::sleep(Duration::from_millis(1));
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        } // drop joins the workers
        assert_eq!(done.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn nested_scopes_share_the_pool() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            s.submit(|| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        pool.scope(|s| {
            s.submit(|| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = AtomicUsize::new(0);
        pool.scope(|s| {
            s.submit(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn default_pool_threads_is_positive() {
        assert!(default_pool_threads() >= 1);
    }
}
