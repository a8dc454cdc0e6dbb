#![warn(missing_docs)]
//! # alfi-pool
//!
//! A small, std-only, persistent thread pool shared by the whole ALFI
//! workspace. It exists because the paper's value proposition is
//! *validation efficiency*: large fault-injection sweeps must use every
//! core without perturbing results. The pool therefore guarantees a
//! **determinism contract** (see DESIGN.md):
//!
//! 1. **Fixed work decomposition.** Callers split work into index ranges
//!    or fixed-size chunks whose boundaries depend only on the problem
//!    size, never on the thread count.
//! 2. **Ordered merge.** Results are written into caller-provided,
//!    index-addressed slots (`run_indexed`, `parallel_chunks_mut`), so
//!    the merged output is independent of task scheduling.
//! 3. **No atomics in reductions.** The pool offers no reducing
//!    combinators; every floating-point accumulation happens inside a
//!    single task exactly as the sequential code would perform it.
//!
//! Under this contract a parallel run is *bit-identical* to the
//! sequential run for any thread count, which the workspace locks down
//! with differential and golden-file tests.
//!
//! # Sizing
//!
//! The global pool ([`global`]) is created on first use inside a
//! `OnceLock`. `ALFI_POOL_THREADS=<n>` fixes its parallelism as a hard
//! cap (`1` forces fully sequential execution everywhere — CI runs the
//! test suite once that way and once unsized). When the variable is
//! unset the pool defaults to [`std::thread::available_parallelism`]
//! but may *grow* worker threads on demand when a caller explicitly
//! requests more (e.g. `run_parallel(7)` on a dual-core machine), up to
//! [`MAX_THREADS`].
//!
//! # Nesting
//!
//! A task running on the pool that calls back into the pool executes
//! inline and sequentially ([`in_parallel_task`] is true there, and
//! [`current_parallelism`] reports 1). Campaign-level tasks therefore
//! run their tensor kernels sequentially instead of oversubscribing the
//! machine, and no worker ever blocks on a nested job — which rules out
//! pool deadlock by construction.

use std::any::Any;
use std::cell::Cell;

/// Hot-path instrumentation into the global `alfi-metrics` registry,
/// active only while `alfi_metrics::global_enabled()`. Cost model: one
/// relaxed load per fan-out when disabled; one shard add per job plus
/// two clock reads per job-join when enabled — never per task.
mod meter {
    use alfi_metrics::{names, Class, Counter, FloatCounter};
    use std::cell::OnceCell;
    use std::sync::OnceLock;
    use std::time::Instant;

    struct Handles {
        jobs: Counter,
        tasks: Counter,
    }

    fn handles() -> &'static Handles {
        static H: OnceLock<Handles> = OnceLock::new();
        H.get_or_init(|| {
            let reg = alfi_metrics::global();
            Handles {
                jobs: reg.counter(
                    names::POOL_JOBS,
                    "Fan-out jobs executed by the shared pool (inline runs included)",
                    Class::Runtime,
                ),
                tasks: reg.counter(
                    names::POOL_TASKS,
                    "Individual tasks submitted to the shared pool",
                    Class::Runtime,
                ),
            }
        })
    }

    /// Counts one fan-out of `n` tasks.
    pub(crate) fn job_submitted(n: u64) {
        if alfi_metrics::global_enabled() {
            let h = handles();
            h.jobs.inc();
            h.tasks.add(n);
        }
    }

    /// Records the global pool's parallelism on first use.
    pub(crate) fn set_pool_threads(n: usize) {
        alfi_metrics::global()
            .gauge(names::POOL_THREADS, "Parallelism (workers + caller) of the shared pool")
            .set(n as f64);
    }

    /// Starts a busy-time measurement for one job-join (`None` while
    /// instrumentation is disabled).
    pub(crate) fn busy_start() -> Option<Instant> {
        if alfi_metrics::global_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    thread_local! {
        /// This participant's `worker="i"` busy-seconds handle, cached
        /// so the registry lock is taken once per thread, not per job.
        static BUSY: OnceCell<FloatCounter> = const { OnceCell::new() };
    }

    /// Ends a busy-time measurement, attributing the elapsed seconds
    /// to the current participant (`worker="0"` is the submitting
    /// caller, `worker="i+1"` pool worker `i`).
    pub(crate) fn busy_end(start: Option<Instant>) {
        let Some(t0) = start else { return };
        let secs = t0.elapsed().as_secs_f64();
        BUSY.with(|cell| {
            cell.get_or_init(|| {
                alfi_metrics::global().float_counter_with(
                    names::POOL_BUSY_SECONDS,
                    "Seconds pool participants spent running tasks, by worker index",
                    Class::Runtime,
                    "worker",
                    &crate::worker_index().to_string(),
                )
            })
            .add(secs);
        });
    }
}
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard upper bound on pool parallelism (worker threads + caller).
pub const MAX_THREADS: usize = 64;

/// Environment variable fixing the global pool's parallelism.
pub const POOL_THREADS_ENV: &str = "ALFI_POOL_THREADS";

thread_local! {
    /// True while the current thread is executing a pool task.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
    /// Thread-local override of the default parallelism (see
    /// [`with_parallelism`]).
    static LOCAL_CAP: Cell<Option<usize>> = const { Cell::new(None) };
    /// Deterministic identity of the current thread for observability:
    /// `0` on every non-pool thread, `i + 1` on worker `alfi-pool-{i}`.
    /// Set once at spawn and never changed (see [`worker_index`]).
    static WORKER_INDEX: Cell<usize> = const { Cell::new(0) };
}

/// A captured panic from a pool worker, with best-effort message
/// extraction for error reporting.
pub struct PoolPanic(Box<dyn Any + Send + 'static>);

impl PoolPanic {
    /// The panic message when the payload was a string, or a
    /// placeholder otherwise.
    pub fn message(&self) -> String {
        if let Some(s) = self.0.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.0.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// Re-raises the captured panic on the current thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.0)
    }
}

impl std::fmt::Debug for PoolPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolPanic({})", self.message())
    }
}

/// Lifetime-erased pointer to a `Fn(usize) + Sync` task closure. The
/// submitting call blocks until every claimed index has finished, so
/// the closure outlives every dereference.
struct RawTask(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the closure behind the pointer is `Sync` (shared calls from
// many threads are allowed) and the submission protocol guarantees it
// is alive for as long as any worker can observe the job.
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

/// One fan-out submission: `n` index tasks drained via an atomic
/// cursor, with a completion latch and first-panic capture.
struct Job {
    task: RawTask,
    n: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Maximum number of *workers* (excluding the submitting thread)
    /// allowed to join this job.
    max_helpers: usize,
    /// Workers that have joined so far.
    helpers: AtomicUsize,
    /// Set after a task panicked: remaining tasks are skipped.
    aborted: AtomicBool,
    /// First captured panic payload.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Completion latch: counts settled (run or skipped) tasks.
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl Job {
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    /// Tries to reserve a helper slot for a worker thread.
    fn try_enter(&self) -> bool {
        let mut cur = self.helpers.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_helpers {
                return false;
            }
            match self.helpers.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Claims and runs tasks until the cursor is exhausted. Panics are
    /// captured (first wins) and abort the remaining tasks; every
    /// claimed index still counts toward the completion latch.
    fn run_tasks(&self) {
        // SAFETY: see `RawTask` — the closure outlives the job.
        let task = unsafe { &*self.task.0 };
        let _guard = TaskGuard::enter();
        let busy = meter::busy_start();
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.n {
                break;
            }
            if !self.aborted.load(Ordering::Relaxed) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(idx))) {
                    self.aborted.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            *done += 1;
            if *done == self.n {
                self.done_cv.notify_all();
            }
        }
        meter::busy_end(busy);
    }

    fn wait_done(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while *done < self.n {
            done = self.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// RAII guard marking the current thread as inside a pool task.
struct TaskGuard {
    was: bool,
}

impl TaskGuard {
    fn enter() -> Self {
        let was = IN_TASK.with(|c| c.replace(true));
        TaskGuard { was }
    }
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_TASK.with(|c| c.set(was));
    }
}

/// Shared worker/submitter state.
struct Inner {
    /// Jobs currently accepting helpers, in submission order.
    jobs: Mutex<VecDeque<Arc<Job>>>,
    jobs_cv: Condvar,
    shutdown: AtomicBool,
}

impl Inner {
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) =
                        jobs.iter().find(|j| j.has_work() && j.try_enter()).cloned()
                    {
                        break Some(job);
                    }
                    if self.shutdown.load(Ordering::Relaxed) {
                        break None;
                    }
                    jobs = self.jobs_cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
                }
            };
            match job {
                Some(job) => job.run_tasks(),
                None => return,
            }
        }
    }
}

/// A persistent, deterministic-by-construction thread pool.
///
/// The submitting thread always participates in its own jobs, so a
/// pool of parallelism `t` uses at most `t - 1` worker threads plus
/// the caller. A pool of parallelism 1 has no workers and runs
/// everything inline.
pub struct ThreadPool {
    inner: Arc<Inner>,
    /// Hard cap on parallelism (workers + caller).
    max_threads: usize,
    /// Whether explicit requests may spawn workers beyond the default.
    growable: bool,
    /// Default parallelism used when a call does not name a cap.
    default_threads: usize,
    /// Worker join handles (empty for the leaked global pool's
    /// accounting is still kept so `Drop` can join private pools).
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("max_threads", &self.max_threads)
            .field("default_threads", &self.default_threads)
            .field("growable", &self.growable)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a fixed-size pool of parallelism `threads` (clamped to
    /// `1..=`[`MAX_THREADS`]): `threads - 1` workers are spawned
    /// eagerly and explicit requests never grow it.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let pool = ThreadPool {
            inner: Arc::new(Inner {
                jobs: Mutex::new(VecDeque::new()),
                jobs_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            max_threads: threads,
            growable: false,
            default_threads: threads,
            workers: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(threads.saturating_sub(1));
        pool
    }

    /// Creates the global pool: sized by `ALFI_POOL_THREADS` when set
    /// (fixed), else defaulting to available parallelism but growable
    /// on explicit request.
    fn new_global() -> Self {
        match env_threads() {
            Some(n) => ThreadPool::new(n),
            None => {
                let default = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .clamp(1, MAX_THREADS);
                let pool = ThreadPool {
                    inner: Arc::new(Inner {
                        jobs: Mutex::new(VecDeque::new()),
                        jobs_cv: Condvar::new(),
                        shutdown: AtomicBool::new(false),
                    }),
                    max_threads: MAX_THREADS,
                    growable: true,
                    default_threads: default,
                    workers: Mutex::new(Vec::new()),
                };
                pool.ensure_workers(default.saturating_sub(1));
                pool
            }
        }
    }

    /// The pool's default parallelism (workers + caller) when a call
    /// does not request a specific thread count.
    pub fn threads(&self) -> usize {
        self.default_threads
    }

    /// The hard cap every request is clamped to.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Spawns workers until at least `want` exist (bounded by the hard
    /// cap).
    fn ensure_workers(&self, want: usize) {
        let want = want.min(self.max_threads.saturating_sub(1));
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        while workers.len() < want {
            let inner = Arc::clone(&self.inner);
            let index = workers.len() + 1;
            let name = format!("alfi-pool-{}", workers.len());
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    WORKER_INDEX.with(|c| c.set(index));
                    inner.worker_loop()
                })
                .expect("spawning a pool worker thread failed");
            workers.push(handle);
        }
    }

    /// Clamps a requested thread count against the pool's policy and
    /// the calling context (nested calls run sequentially): the most
    /// tasks a job submitted from this thread with `requested` threads
    /// runs at once.
    pub fn effective_threads(&self, requested: usize) -> usize {
        if in_parallel_task() {
            return 1;
        }
        let requested = requested.clamp(1, self.max_threads);
        if self.growable {
            requested
        } else {
            requested.min(self.default_threads)
        }
    }

    /// Runs `f(i)` for every `i in 0..n` with parallelism at most
    /// `threads`, blocking until all calls finished. Task-to-thread
    /// assignment is dynamic (atomic cursor), which is safe because
    /// each index writes only its own output.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by any task.
    pub fn for_each(&self, threads: usize, n: usize, f: impl Fn(usize) + Sync) {
        if let Err(p) = self.try_for_each(threads, n, f) {
            p.resume();
        }
    }

    /// [`ThreadPool::for_each`], but a task panic is captured and
    /// returned instead of propagated.
    ///
    /// # Errors
    ///
    /// Returns the first captured [`PoolPanic`].
    pub fn try_for_each(
        &self,
        threads: usize,
        n: usize,
        f: impl Fn(usize) + Sync,
    ) -> Result<(), PoolPanic> {
        if n == 0 {
            return Ok(());
        }
        let threads = self.effective_threads(threads).min(n);
        meter::job_submitted(n as u64);
        if threads <= 1 {
            let guard = TaskGuard::enter();
            let busy = meter::busy_start();
            for i in 0..n {
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(()) => {}
                    Err(payload) => {
                        drop(guard);
                        return Err(PoolPanic(payload));
                    }
                }
            }
            meter::busy_end(busy);
            return Ok(());
        }
        self.ensure_workers(threads - 1);

        let task: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: transmuting only the lifetime of the trait object;
        // this call blocks until every claimed task settled, so the
        // closure strictly outlives all uses.
        let task: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let job = Arc::new(Job {
            task: RawTask(task),
            n,
            next: AtomicUsize::new(0),
            max_helpers: threads - 1,
            helpers: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
        });
        {
            let mut jobs = self.inner.jobs.lock().unwrap_or_else(|e| e.into_inner());
            jobs.push_back(Arc::clone(&job));
            self.inner.jobs_cv.notify_all();
        }
        job.run_tasks();
        job.wait_done();
        {
            let mut jobs = self.inner.jobs.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(pos) = jobs.iter().position(|j| Arc::ptr_eq(j, &job)) {
                jobs.remove(pos);
            }
        }
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        match payload {
            Some(p) => Err(PoolPanic(p)),
            None => Ok(()),
        }
    }

    /// Runs `f(i)` for every `i in 0..n` and collects the results in
    /// index order — the scheduling-independent "ordered merge" of the
    /// determinism contract.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by any task (already-produced
    /// results are leaked in that case).
    pub fn run_indexed<T: Send>(
        &self,
        threads: usize,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        match self.try_run_indexed(threads, n, f) {
            Ok(v) => v,
            Err(p) => p.resume(),
        }
    }

    /// [`ThreadPool::run_indexed`], but a task panic is captured and
    /// returned instead of propagated.
    ///
    /// # Errors
    ///
    /// Returns the first captured [`PoolPanic`]; already-produced
    /// results are leaked in that case.
    pub fn try_run_indexed<T: Send>(
        &self,
        threads: usize,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<Vec<T>, PoolPanic> {
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
        out.resize_with(n, MaybeUninit::uninit);
        let base = SendPtr(out.as_mut_ptr());
        self.try_for_each(threads, n, |i| {
            let slot = base;
            // SAFETY: each index is claimed exactly once, so this is
            // the only write to `out[i]`, and `out` outlives the call.
            unsafe { (*slot.0.add(i)).write(f(i)) };
        })?;
        // SAFETY: every slot was initialized (no panic occurred) and
        // `MaybeUninit<T>` is layout-compatible with `T`.
        let vec = unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr() as *mut T, out.len(), out.capacity())
        };
        Ok(vec)
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements
    /// (the last may be shorter) and runs `f(chunk_index, chunk)` for
    /// each, in parallel. Chunk boundaries depend only on `data.len()`
    /// and `chunk_len` — never on the thread count — which is what
    /// makes row-chunked kernels bit-identical to their sequential
    /// counterparts.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`, and re-raises task panics.
    pub fn parallel_chunks_mut<T: Send>(
        &self,
        threads: usize,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(chunk_len > 0, "chunk_len must be nonzero");
        let len = data.len();
        if len == 0 {
            return;
        }
        let n_chunks = len.div_ceil(chunk_len);
        let base = SendPtr(data.as_mut_ptr());
        self.for_each(threads, n_chunks, |ci| {
            let start = ci * chunk_len;
            let end = (start + chunk_len).min(len);
            let ptr = base;
            // SAFETY: chunks are disjoint (`ci` is claimed exactly
            // once) and in-bounds; `data` outlives the call.
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(start), end - start) };
            f(ci, chunk);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.jobs_cv.notify_all();
        let workers = {
            let mut w = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *w)
        };
        for handle in workers {
            let _ = handle.join();
        }
    }
}

/// Copyable raw-pointer wrapper that may cross threads. Safety rests on
/// the call-site invariants documented at each use.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Parses `ALFI_POOL_THREADS` (ignored when unset or unparsable).
fn env_threads() -> Option<usize> {
    std::env::var(POOL_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, MAX_THREADS))
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide shared pool (created on first use; see the crate
/// docs for sizing).
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let pool = ThreadPool::new_global();
        meter::set_pool_threads(pool.threads());
        pool
    })
}

/// True while the calling thread is executing a pool task. Kernels use
/// this to run sequentially instead of nesting parallelism.
pub fn in_parallel_task() -> bool {
    IN_TASK.with(|c| c.get())
}

/// Deterministic index of the current thread for per-worker span
/// attribution (used by `alfi-trace`): `0` for any thread that is not a
/// pool worker (including the submitting caller, which also executes
/// tasks), `i + 1` for the worker named `alfi-pool-{i}`. Indices are
/// assigned at spawn in creation order and are stable for the life of
/// the process, so traces from repeated runs attribute work to the same
/// identities.
pub fn worker_index() -> usize {
    WORKER_INDEX.with(|c| c.get())
}

/// The parallelism a data-parallel kernel should use right now: 1
/// inside a pool task, otherwise the thread-local override set by
/// [`with_parallelism`] or the global pool's default.
pub fn current_parallelism() -> usize {
    if in_parallel_task() {
        return 1;
    }
    let cap = LOCAL_CAP.with(|c| c.get());
    match cap {
        Some(n) => global().effective_threads(n),
        None => global().threads(),
    }
}

/// Runs `f` with [`current_parallelism`] pinned to (at most) `threads`
/// on this thread — the hook benches and differential tests use to
/// sweep kernel thread counts deterministically. `ALFI_POOL_THREADS`
/// remains a hard cap.
pub fn with_parallelism<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = LOCAL_CAP.with(|c| c.replace(Some(threads.max(1))));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let v = self.0;
            LOCAL_CAP.with(|c| c.set(v));
        }
    }
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        let pool = ThreadPool::new(4);
        let out = pool.run_indexed(4, 100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let seen = Mutex::new(Vec::new());
        pool.for_each(4, 257, |i| {
            seen.lock().unwrap().push(i);
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 257);
        let unique: HashSet<usize> = seen.iter().copied().collect();
        assert_eq!(unique.len(), 257);
    }

    #[test]
    fn worker_indices_are_deterministic_and_bounded() {
        assert_eq!(worker_index(), 0, "a non-pool thread has index 0");
        let pool = ThreadPool::new(4);
        let seen = Mutex::new(HashSet::new());
        pool.for_each(4, 512, |_| {
            seen.lock().unwrap().insert(worker_index());
            std::thread::yield_now();
        });
        let seen = seen.into_inner().unwrap();
        // caller (0) plus at most three spawned workers (1..=3)
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|&w| w <= 3), "indices bounded by pool size: {seen:?}");
        assert_eq!(worker_index(), 0, "caller index unchanged after the run");
    }

    #[test]
    fn parallelism_one_runs_inline_and_in_submission_order() {
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.for_each(1, 10, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_are_disjoint_and_cover_the_slice() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u32; 1000];
        pool.parallel_chunks_mut(3, &mut data, 7, |_ci, chunk| {
            for v in chunk.iter_mut() {
                *v += 1; // every element touched once
            }
        });
        assert!(data.iter().all(|&v| v == 1), "each element written exactly once");
        // chunk boundaries are a pure function of len/chunk_len
        let mut labels = vec![0usize; 20];
        pool.parallel_chunks_mut(3, &mut labels, 6, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci;
            }
        });
        assert_eq!(labels[0..6], [0; 6]);
        assert_eq!(labels[6..12], [1; 6]);
        assert_eq!(labels[12..18], [2; 6]);
        assert_eq!(labels[18..20], [3; 2]);
    }

    #[test]
    fn task_panic_is_captured_with_message() {
        let pool = ThreadPool::new(2);
        let err = pool
            .try_for_each(2, 16, |i| {
                if i == 7 {
                    panic!("boom at {i}");
                }
            })
            .unwrap_err();
        assert!(err.message().contains("boom"), "got: {}", err.message());
        // the pool stays usable after a panic
        let out = pool.run_indexed(2, 8, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn for_each_propagates_panics() {
        let pool = ThreadPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(2, 4, |i| {
                if i == 2 {
                    panic!("kaboom");
                }
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn nested_calls_run_sequentially() {
        let pool = ThreadPool::new(4);
        let nested_parallelism = Mutex::new(Vec::new());
        pool.for_each(4, 6, |_| {
            assert!(in_parallel_task());
            nested_parallelism.lock().unwrap().push(current_parallelism());
            // A nested submission must run inline without deadlocking.
            let inner = global().run_indexed(4, 5, |j| j * 2);
            assert_eq!(inner, vec![0, 2, 4, 6, 8]);
        });
        assert!(nested_parallelism.into_inner().unwrap().iter().all(|&p| p == 1));
        assert!(!in_parallel_task());
    }

    #[test]
    fn with_parallelism_overrides_and_restores() {
        let before = current_parallelism();
        let inside = with_parallelism(3, current_parallelism);
        assert!((1..=3).contains(&inside));
        assert_eq!(current_parallelism(), before);
    }

    #[test]
    fn fixed_pool_clamps_requests_to_its_size() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.effective_threads(16), 2);
        assert_eq!(pool.effective_threads(0), 1);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The determinism contract at the pool level: an index-addressed
        // computation gives the same answer for every thread count.
        let reference: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.run_indexed(threads, 500, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(out, reference, "thread count {threads} changed results");
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = ThreadPool::new(4);
        pool.for_each(4, 0, |_| panic!("must not run"));
        let out: Vec<u8> = pool.run_indexed(4, 0, |_| 1u8);
        assert!(out.is_empty());
        let mut empty: [u8; 0] = [];
        pool.parallel_chunks_mut(4, &mut empty, 3, |_, _| panic!("must not run"));
    }

    #[test]
    fn heavy_contention_settles() {
        let pool = ThreadPool::new(8);
        let sum = AtomicU64::new(0);
        pool.for_each(8, 10_000, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_000 * 9_999 / 2);
    }

    #[test]
    fn env_parsing_clamps() {
        // env_threads reads the ambient environment; just exercise the
        // clamp helper indirectly through ThreadPool::new.
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert_eq!(ThreadPool::new(1_000_000).threads(), MAX_THREADS);
    }
}
