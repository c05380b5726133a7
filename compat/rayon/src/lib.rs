//! Offline compatibility shim for `rayon`.
//!
//! Implements the data-parallel iterator surface the workspace uses
//! (`par_iter().map(..).collect()`, `.filter(..).count()`,
//! `par_iter_mut().for_each(..)`) on a pool of persistent worker threads:
//! items are split into one contiguous chunk per thread, the calling
//! thread runs chunk 0 itself, and the chunk results land in input order —
//! so **results are always in input order and independent of the thread
//! count**, which is the property the deterministic sweep engine builds
//! on.
//!
//! Thread count: an installed [`ThreadPool`] override, else the
//! `RAYON_NUM_THREADS` environment variable, else available parallelism
//! (both read once per process).
//!
//! Workers: one process-wide set, started lazily by the first parallel
//! call that needs them and parked on a [`Condvar`] between calls (they
//! never spin). A call posts one task per helper it wants, then claims
//! chunks itself; workers that wake claim the rest. A parallel call made
//! on a worker — a nested `par_iter` — runs inline, so nesting can never
//! wait on a busy pool. A panic in any chunk reaches the caller once every
//! chunk has finished. Unlike upstream there is no work stealing and each
//! adapter stage evaluates eagerly; for the workspace's coarse-grained
//! workloads (whole simulator runs per item) that is the same wall-clock
//! shape.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    static POOL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on pool workers: parallel calls made there run inline.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `RAYON_NUM_THREADS`, else available parallelism — resolved on first
/// use, so later parallel calls neither allocate nor take the environment
/// lock.
fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The number of worker threads parallel operations will use.
pub fn current_num_threads() -> usize {
    POOL_OVERRIDE.with(|c| c.get()).map_or_else(default_num_threads, |n| n.max(1))
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Fixes the worker count (0 = default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool. Infallible here; `Result` for API compatibility.
    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// A thread-count override. The workers themselves are shared by every
/// pool and start on the first parallel call that needs them.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

/// Puts the previous override back when [`ThreadPool::install`] returns
/// or unwinds.
struct RestoreOverride(Option<usize>);

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        POOL_OVERRIDE.with(|c| c.set(self.0));
    }
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing all parallel
    /// iterators invoked (non-nested) inside it.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.num_threads.unwrap_or_else(current_num_threads);
        let _restore = RestoreOverride(POOL_OVERRIDE.with(|c| c.replace(Some(n))));
        f()
    }
}

/// One parallel call's shared state. It lives on the calling thread's
/// stack; workers reach it through the queue.
struct Job<'a> {
    /// Claims and runs chunks until none are left.
    work: &'a (dyn Fn() + Sync),
    /// Posted tasks not yet finished or withdrawn. Read and written only
    /// under the pool lock, whose acquire/release orders every access, so
    /// `Relaxed` suffices.
    pending: AtomicUsize,
    /// The first panic a worker caught while running `work`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct PoolState {
    /// Posted tasks: each entry asks one worker to run its job's `work`.
    queue: VecDeque<&'static Job<'static>>,
    /// Workers started so far.
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled once per posted task.
    posted: Condvar,
    /// Signalled whenever a task finishes.
    finished: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), workers: 0 }),
        posted: Condvar::new(),
        finished: Condvar::new(),
    })
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Nothing panics while holding the lock; recover regardless.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's whole life. Workers are detached and never joined: they
    /// park here for the life of the process, and a job's panic is caught
    /// and handed to the job's caller, so none is lost.
    fn worker_loop(&self) {
        ON_WORKER.with(|w| w.set(true));
        let mut st = self.lock();
        loop {
            let Some(job) = st.queue.pop_front() else {
                st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(st);
            if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.work)) {
                job.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(p);
            }
            st = self.lock();
            // The caller may free `job` as soon as the lock is released.
            job.pending.fetch_sub(1, Ordering::Relaxed);
            self.finished.notify_all();
        }
    }
}

/// Blocks until no worker can still reach `job`: tasks nobody picked up
/// are withdrawn, and running ones are waited for. Runs on drop, so the
/// caller waits on the unwinding path too.
struct Join {
    job: &'static Job<'static>,
}

impl Drop for Join {
    fn drop(&mut self) {
        let pool = pool();
        let mut st = pool.lock();
        let queued = st.queue.len();
        st.queue.retain(|j| !std::ptr::eq(*j, self.job));
        self.job.pending.fetch_sub(queued - st.queue.len(), Ordering::Relaxed);
        while self.job.pending.load(Ordering::Relaxed) > 0 {
            st = pool.finished.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `own` on the calling thread while up to `helpers` pool workers run
/// `work`, and returns once all of them have finished. Both must draw
/// chunks from one shared claim so that each chunk runs exactly once;
/// `own` ends by draining that claim, so withdrawn tasks lose nothing.
/// The first worker panic is resumed here.
fn fork_join(helpers: usize, work: &(dyn Fn() + Sync), own: impl FnOnce()) {
    let job = Job { work, pending: AtomicUsize::new(helpers), panic: Mutex::new(None) };
    // SAFETY: the queue needs `'static` entries, but `job` and `work` live
    // only for this call. Every reference a worker can hold to `job` comes
    // from the queue entries posted below, and `Join` (dropped before this
    // function returns, or while it unwinds) withdraws the entries still
    // queued and blocks until every task a worker took has finished. So no
    // worker touches `job` or `work` after this frame is gone.
    let shared = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(&job) };
    let pool = pool();
    {
        let mut st = pool.lock();
        while st.workers < helpers {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{}", st.workers))
                .spawn(move || pool.worker_loop())
                .expect("spawn pool worker");
            st.workers += 1;
        }
        st.queue.extend(std::iter::repeat_n(shared, helpers));
    }
    for _ in 0..helpers {
        pool.posted.notify_one();
    }
    let join = Join { job: shared };
    own();
    drop(join);
    let worker_panic = job.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
    if let Some(p) = worker_panic {
        std::panic::resume_unwind(p);
    }
}

/// Takes the next chunk; the guard drops before the chunk runs.
fn claim<I: Iterator>(chunks: &Mutex<I>) -> Option<I::Item> {
    chunks.lock().unwrap_or_else(PoisonError::into_inner).next()
}

/// The thread count a parallel call over `len` items should split into,
/// or `None` when it should run inline: one thread, at most one item, or
/// already on a pool worker.
fn split_threads(len: usize) -> Option<usize> {
    let threads = current_num_threads();
    (threads > 1 && len > 1 && !ON_WORKER.with(|w| w.get())).then_some(threads)
}

/// `.par_iter_mut()`'s result: parallel in-place mutation of a slice.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<T: Send> ParIterMut<'_, T> {
    /// Parallel for-each over the slice in contiguous chunks, one per
    /// thread. Allocation-free once the pool's workers have started.
    pub fn for_each(self, f: impl Fn(&mut T) + Sync) {
        let Some(threads) = split_threads(self.slice.len()) else {
            self.slice.iter_mut().for_each(f);
            return;
        };
        let mut chunks = self.slice.chunks_mut(self.slice.len().div_ceil(threads));
        let helpers = chunks.len() - 1;
        let first = chunks.next();
        let rest = Mutex::new(chunks);
        let work = || {
            while let Some(chunk) = claim(&rest) {
                chunk.iter_mut().for_each(&f);
            }
        };
        fork_join(helpers, &work, || {
            first.into_iter().flatten().for_each(&f);
            work();
        });
    }
}

/// Chunked fork-join evaluation preserving input order.
fn par_eval<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if split_threads(items.len()).is_none() {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<(Option<T>, Option<R>)> =
        items.into_iter().map(|item| (Some(item), None)).collect();
    ParIterMut { slice: &mut slots }.for_each(|(item, out)| {
        *out = item.take().map(&f);
    });
    slots.into_iter().map(|(_, out)| out.expect("every chunk ran")).collect()
}

/// An eagerly evaluated parallel pipeline stage (items in input order).
pub struct ParallelPipeline<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelPipeline<T> {
    /// Parallel map.
    pub fn map<R: Send>(self, f: impl Fn(T) -> R + Sync) -> ParallelPipeline<R> {
        ParallelPipeline { items: par_eval(self.items, f) }
    }

    /// Parallel filter (predicate sees `&Item`, as in rayon).
    pub fn filter(self, pred: impl Fn(&T) -> bool + Sync) -> ParallelPipeline<T> {
        let kept = par_eval(self.items, |item| if pred(&item) { Some(item) } else { None });
        ParallelPipeline { items: kept.into_iter().flatten().collect() }
    }

    /// Number of items remaining in the pipeline.
    pub fn count(self) -> usize {
        self.items.len()
    }

    /// Collects the pipeline (items are already in input order).
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Parallel for-each (side effects only; runs in chunked order).
    pub fn for_each(self, f: impl Fn(T) + Sync) {
        let _ = par_eval(self.items, f);
    }
}

/// `.par_iter()` on slice-like containers (yields `&T` items).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Sync + 'a;

    /// Parallel iterator over references.
    fn par_iter(&'a self) -> ParallelPipeline<&'a Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParallelPipeline<&'a T> {
        ParallelPipeline { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParallelPipeline<&'a T> {
        ParallelPipeline { items: self.iter().collect() }
    }
}

/// `.par_iter_mut()` on slice-like containers (yields `&mut T` items).
pub trait IntoParallelRefMutIterator<'a> {
    /// Mutably borrowed item type.
    type Item: Send + 'a;

    /// Parallel iterator over mutable references.
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

/// `.into_par_iter()` on owning containers.
pub trait IntoParallelIterator {
    /// Owned item type.
    type Item: Send;

    /// Parallel iterator over owned items.
    fn into_par_iter(self) -> ParallelPipeline<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParallelPipeline<T> {
        ParallelPipeline { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParallelPipeline<usize> {
        ParallelPipeline { items: self.collect() }
    }
}

/// The rayon prelude: traits needed for `.par_iter()` etc.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIterMut,
        ParallelPipeline,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    fn pool_of(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_count_matches_serial() {
        let v: Vec<u64> = (0..10_000).collect();
        let even = v.par_iter().filter(|&&x| x % 2 == 0).count();
        assert_eq!(even, 5_000);
    }

    #[test]
    fn results_independent_of_thread_count() {
        let v: Vec<u64> = (0..777).collect();
        let serial: Vec<u64> = pool_of(1).install(|| v.par_iter().map(|&x| x * x).collect());
        let parallel: Vec<u64> = pool_of(7).install(|| v.par_iter().map(|&x| x * x).collect());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn install_overrides_and_restores() {
        let before = current_num_threads();
        let inside = pool_of(before + 3).install(current_num_threads);
        assert_eq!(inside, before + 3);
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn install_restores_the_override_when_f_panics() {
        let before = current_num_threads();
        let r = catch_unwind(|| pool_of(before + 5).install(|| panic!("inside install")));
        assert!(r.is_err());
        assert_eq!(current_num_threads(), before, "a panicking install leaked its override");
    }

    #[test]
    fn environment_is_read_once() {
        let first = default_num_threads();
        // Changing the variable after the first read must not change the
        // default: parallel calls no longer consult the environment.
        std::env::set_var("RAYON_NUM_THREADS", (first + 11).to_string());
        let later = default_num_threads();
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(later, first);
    }

    #[test]
    fn par_iter_mut_mutates_in_place_in_order() {
        let mut v: Vec<u64> = (0..777).collect();
        pool_of(4).install(|| v.par_iter_mut().for_each(|x| *x *= 3));
        assert_eq!(v, (0..777).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items() {
        let v: Vec<u64> = vec![5, 6, 7];
        let out: Vec<u64> = pool_of(16).install(|| v.par_iter().map(|&x| x + 1).collect());
        assert_eq!(out, vec![6, 7, 8]);
        let mut w = v.clone();
        pool_of(16).install(|| w.par_iter_mut().for_each(|x| *x *= 2));
        assert_eq!(w, vec![10, 12, 14]);
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_survives() {
        let caller = std::thread::current().id();
        // Two items, two threads: the caller blocks in item 0's barrier
        // until a worker claims item 1, so a worker must run it.
        let barrier = Barrier::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool_of(2).install(|| {
                [0u64, 1]
                    .par_iter()
                    .map(|&x| {
                        barrier.wait();
                        assert!(std::thread::current().id() == caller, "worker boom");
                        x
                    })
                    .collect::<Vec<u64>>()
            })
        }));
        let payload = r.expect_err("the worker's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("worker boom"), "unexpected panic payload {msg:?}");
        let v: Vec<u64> = (0..4).collect();
        let again: Vec<u64> = pool_of(2).install(|| v.par_iter().map(|&x| x * 10).collect());
        assert_eq!(again, vec![0, 10, 20, 30]);
    }

    #[test]
    fn nested_par_iter_inside_a_worker_runs_inline() {
        let inner: Vec<u64> = (1..=50).collect();
        // As above, the barrier makes a worker run outer item 1, whose
        // nested call must complete inline.
        let barrier = Barrier::new(2);
        let nested: Vec<u64> = pool_of(2).install(|| {
            vec![0u64, 1]
                .into_par_iter()
                .map(|i| {
                    barrier.wait();
                    inner.par_iter().map(|&x| x * (i + 2)).collect::<Vec<u64>>().iter().sum()
                })
                .collect()
        });
        let serial: Vec<u64> =
            (0..2u64).map(|i| inner.iter().map(|&x| x * (i + 2)).sum()).collect();
        assert_eq!(nested, serial);
    }

    #[test]
    fn into_par_iter_on_ranges_and_vecs() {
        let squares: Vec<usize> = (0..10usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[9], 81);
        let owned: Vec<String> =
            vec!["a".to_string(), "b".to_string()].into_par_iter().map(|s| s + "!").collect();
        assert_eq!(owned, vec!["a!", "b!"]);
    }
}
