//! A persistent scoped worker pool.
//!
//! Threads are spawned once per pool and park on a condvar between
//! batches. [`WorkerPool::run`] hands every participant (workers *and*
//! the caller) the same closure, which typically pulls work items off a
//! shared atomic cursor — dynamic distribution, so one slow item delays
//! only the thread that drew it.
//!
//! Extracted from the scoring engine so that lower layers (the srcdb
//! border BFS, bulk snapshot loading) can share one pool implementation
//! without depending on `obx-core`.

// The pool sits under every parallel hot loop; stray unwinds here would
// defeat the callers' quarantine contracts.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Locks in the pool recover from poisoning instead of propagating it:
/// a job that panicked is contained per job (see [`WorkerPool::run`]),
/// and the shared state a lock guards here (job queue, latch counters)
/// is never left mid-update across a panic boundary, so the data is
/// intact.
macro_rules! lock_recover {
    ($e:expr) => {
        $e.unwrap_or_else(PoisonError::into_inner)
    };
}

/// `OBX_THREADS` when it is set to a positive integer, else `None`.
pub fn env_threads() -> Option<usize> {
    let n = std::env::var("OBX_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()?;
    (n >= 1).then_some(n)
}

/// Thread count: `OBX_THREADS` (positive integer) wins; otherwise the
/// machine's available parallelism. There is deliberately no upper clamp.
pub fn configured_threads() -> usize {
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A persistent scoped worker pool. See the [module docs](self).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Worker handles, behind a mutex so [`WorkerPool::run`] (which
    /// callers typically reach with only `&self` through a `OnceLock`)
    /// can replace threads that died — a poisoned worker must not
    /// shrink the pool for the rest of the process.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
    name: &'static str,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

struct PoolState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

#[derive(Clone)]
struct Job {
    // Lifetime-erased borrow of a batch closure. Soundness contract: the
    // pusher (`WorkerPool::run`) waits on `latch` before returning, so
    // every clone of this borrow is dead before the real closure's
    // lifetime ends.
    f: &'static (dyn Fn() + Sync),
    latch: Arc<Latch>,
}

/// Countdown latch signalling that every worker finished a batch.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self {
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut remaining = lock_recover!(self.remaining.lock());
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = lock_recover!(self.remaining.lock());
        while *remaining > 0 {
            remaining = lock_recover!(self.done.wait(remaining));
        }
    }
}

impl WorkerPool {
    /// Spawns `workers` parked threads named `obx-pool-{i}`.
    ///
    /// `workers` is the number of *extra* threads: [`WorkerPool::run`]
    /// also executes the closure on the caller, so total parallelism is
    /// `workers + 1`.
    pub fn new(workers: usize) -> Self {
        Self::named(workers, "obx-pool")
    }

    /// Spawns `workers` parked threads named `{name}-{i}`. The name must
    /// be `'static` because dead workers are respawned lazily for the
    /// pool's whole lifetime.
    pub fn named(workers: usize, name: &'static str) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| spawn_worker(&shared, name, i))
            .collect();
        Self {
            shared,
            handles: Mutex::new(handles),
            workers,
            name,
        }
    }

    /// Number of pool worker threads (excluding the participating caller).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Replaces workers whose threads have exited (a worker only dies if
    /// something escapes the per-job `catch_unwind`, e.g. a panic while
    /// panicking) so the pool keeps its capacity across incidents.
    fn respawn_dead_workers(&self) {
        let mut handles = lock_recover!(self.handles.lock());
        for i in 0..handles.len() {
            if handles[i].is_finished() {
                let fresh = spawn_worker(&self.shared, self.name, i);
                let dead = std::mem::replace(&mut handles[i], fresh);
                let _ = dead.join();
            }
        }
    }

    /// Runs `f` on every pool worker and on the caller, returning once
    /// every invocation has finished (which is what makes handing the
    /// non-`'static` closure to the workers sound). A panic escaping a
    /// *worker's* invocation is contained (recorded on the latch, the
    /// batch still completes); a panic in the *caller's* invocation
    /// resumes on the caller after the latch settles, so the erased
    /// borrow never dangles either way.
    pub fn run<'env>(&self, f: &(dyn Fn() + Sync + 'env)) {
        self.respawn_dead_workers();
        let n_workers = self.workers;
        // SAFETY: the erased borrow is only used by worker invocations
        // counted by `latch`, and `latch.wait()` below does not return
        // until all of them are done — `f` outlives every use.
        let f_static: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), _>(f) };
        let latch = Arc::new(Latch::new(n_workers));
        {
            let mut state = lock_recover!(self.shared.state.lock());
            for _ in 0..n_workers {
                state.jobs.push_back(Job {
                    f: f_static,
                    latch: Arc::clone(&latch),
                });
            }
        }
        self.shared.work_ready.notify_all();
        // The caller participates instead of idling on the latch.
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        latch.wait();
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("name", &self.name)
            .finish()
    }
}

fn spawn_worker(
    shared: &Arc<PoolShared>,
    name: &'static str,
    i: usize,
) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    match std::thread::Builder::new()
        .name(format!("{name}-{i}"))
        .spawn(move || worker_loop(&shared))
    {
        Ok(handle) => handle,
        // OS-level spawn failure is unrecoverable resource exhaustion;
        // panicking keeps the message without the linted shorthand.
        Err(e) => panic!("spawn pool thread: {e}"),
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = lock_recover!(shared.state.lock());
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = lock_recover!(shared.work_ready.wait(state));
            }
        };
        // A panicking batch must still count down, or `run` deadlocks
        // and the erased borrow could dangle.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (job.f)())).is_err() {
            job.latch.panicked.store(true, Ordering::Relaxed);
        }
        job.latch.count_down();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_recover!(self.shared.state.lock()).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in lock_recover!(self.handles.lock()).drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn worker_pool_drains_a_counter_and_survives_reuse() {
        let pool = WorkerPool::new(3);
        for round in 1..=3u64 {
            let cursor = AtomicUsize::new(0);
            let hits = AtomicU64::new(0);
            pool.run(&|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= 1000 {
                    break;
                }
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 1000, "round {round}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_on_the_caller() {
        let pool = WorkerPool::new(0);
        let hits = AtomicU64::new(0);
        pool.run(&|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn named_pool_reports_worker_count() {
        let pool = WorkerPool::named(2, "obx-test");
        assert_eq!(pool.workers(), 2);
        let hits = AtomicU64::new(0);
        pool.run(&|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        // Caller + both workers each ran the closure exactly once.
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn worker_panic_is_contained_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let cursor = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|| {
                // Exactly one participant draws index 0 and panics.
                if cursor.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("injected");
                }
            });
        }));
        // Whether the caller or a worker drew the panic, the pool must
        // still complete subsequent batches at full capacity.
        let _ = result;
        let hits = AtomicU64::new(0);
        pool.run(&|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }
}
