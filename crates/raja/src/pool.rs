//! A work-sharing thread pool: the OpenMP-like host backend.
//!
//! Persistent worker threads pull fixed-size chunks of the iteration
//! space off an atomic cursor (dynamic scheduling). This is the
//! functional twin of the cost model's parallel path and is built the
//! way the project's concurrency guide prescribes: acquire/release
//! pairing on the job slot, an atomic cursor for the iteration space,
//! and a condition variable for idle parking.
//!
//! Every parallel region — including regions whose bodies borrow from
//! the caller's stack — runs on the *persistent* workers. Borrowed
//! closures are handed across via a lifetime-erased job slot: the
//! coordinator publishes a raw pointer to the body, and the
//! acquire/release handoff on the job's `remaining` counter guarantees every
//! worker has exited the body before `for_chunks` returns, so the
//! borrow is live for exactly as long as any thread can touch it.
//! No region ever spawns a thread.
//!
//! Panics inside a body poison the region: the remaining iteration
//! space is drained, the first payload is captured, and the
//! coordinator re-raises it on the calling thread once every worker
//! has left the region. Nested regions (a body submitting another
//! region to any pool) deadlock by construction on a single job slot
//! and are rejected with a panic instead.

// The lifetime-erased job slot and the reduction slots.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use hsim_time::sync::{lock, wait};

thread_local! {
    /// Set while this thread is executing a parallel-region body (as a
    /// worker or as the coordinating caller). Used to reject nested
    /// regions, which would deadlock on the single job slot.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Lifetime-erased borrowed closure: `call(data, b, e)` invokes the
/// original `Fn(usize, usize)` for `[b, e)`.
///
/// SAFETY: the pointee must outlive every call. [`WorkPool::for_chunks`]
/// upholds this by blocking until all workers have left the job before
/// the borrowed body goes out of scope.
struct RawBody {
    data: *const (),
    /// SAFETY: callers must pass a `data` pointer to the live closure
    /// this thunk was instantiated for.
    call: unsafe fn(*const (), usize, usize),
}

// SAFETY: `RawBody` is only a pointer-and-thunk pair; the pointee is a
// `Fn(usize, usize) + Send + Sync` closure (enforced by the only
// constructor site in `try_for_chunks`), so sharing and sending the
// pointer across worker threads is sound.
unsafe impl Send for RawBody {}
// SAFETY: see the `Send` impl above — the pointee is `Sync`.
unsafe impl Sync for RawBody {}

/// The unit of work handed to workers for one parallel region.
struct Job {
    body: RawBody,
    cursor: AtomicUsize,
    end: usize,
    chunk: usize,
    /// Workers still inside this job (for completion detection).
    remaining: AtomicUsize,
    /// A body panicked somewhere in the region.
    poisoned: AtomicBool,
    /// First panic payload, re-raised by the coordinator.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    work_done: Condvar,
}

enum State {
    Idle,
    Running(Arc<Job>),
    Shutdown,
}

/// A persistent pool of worker threads executing chunked parallel
/// loops.
pub struct WorkPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    /// Serializes whole regions: the pool has one job slot, so
    /// concurrent submitters (e.g. rank workers sharing one run-wide
    /// pool) take turns rather than corrupting the slot.
    region_lock: Mutex<()>,
}

impl WorkPool {
    /// Spawn a pool with `threads` workers (the caller's thread also
    /// participates in loops, so total parallelism is `threads + 1`).
    #[allow(clippy::disallowed_methods)] // the pool owns its persistent workers
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::Idle),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkPool {
            shared,
            workers,
            threads,
            region_lock: Mutex::new(()),
        }
    }

    /// Total participating threads (workers + the calling thread).
    pub fn parallelism(&self) -> usize {
        self.threads + 1
    }

    /// Process-wide shared pool with `threads` workers: the first call
    /// for a given width spawns it, every later call gets the same
    /// `Arc`. This is what lets a long-lived server (or a sweep of
    /// repeated runs) pay worker spawn/teardown once instead of per
    /// run — the `region_lock` already serializes concurrent
    /// submitters, and a poisoned region leaves the pool reusable, so
    /// sharing is safe even under fault injection.
    ///
    /// Shared pools live for the process lifetime (their workers park
    /// on a condvar when idle and cost nothing); they are deliberately
    /// never dropped.
    pub fn shared(threads: usize) -> Arc<WorkPool> {
        type PoolCache = Mutex<Vec<(usize, Arc<WorkPool>)>>;
        static POOLS: std::sync::OnceLock<PoolCache> = std::sync::OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(Vec::new()));
        let mut pools = lock(pools);
        if let Some((_, pool)) = pools.iter().find(|(w, _)| *w == threads) {
            return Arc::clone(pool);
        }
        let pool = Arc::new(WorkPool::new(threads));
        pools.push((threads, Arc::clone(&pool)));
        pool
    }

    /// Execute `body(i)` for every `i` in `[begin, end)` in parallel,
    /// dynamically scheduled in `chunk`-sized pieces. Blocks until the
    /// whole range is processed.
    pub fn for_each<F>(&self, begin: usize, end: usize, chunk: usize, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        self.for_chunks(begin, end, chunk, |b, e| {
            for i in b..e {
                body(i);
            }
        });
    }

    /// Chunked variant: `body(b, e)` processes `[b, e)`. Runs on the
    /// persistent workers with the calling thread participating; the
    /// borrowed body is published through the lifetime-erased job slot
    /// and reclaimed before return (see module docs).
    pub fn for_chunks<F>(&self, begin: usize, end: usize, chunk: usize, body: F)
    where
        F: Fn(usize, usize) + Send + Sync,
    {
        if let Some(payload) = self.try_for_chunks(begin, end, chunk, body) {
            panic::resume_unwind(payload);
        }
    }

    /// [`WorkPool::for_chunks`] that hands a poisoned region's panic
    /// payload back instead of re-raising it, so chaos callers can
    /// absorb a planned worker panic.
    fn try_for_chunks<F>(
        &self,
        begin: usize,
        end: usize,
        chunk: usize,
        body: F,
    ) -> Option<Box<dyn Any + Send>>
    where
        F: Fn(usize, usize) + Send + Sync,
    {
        if begin >= end {
            return None;
        }
        if IN_REGION.with(|c| c.get()) {
            // tidy-allow: panic-reach -- nested-region misuse is a programming error in the caller; the documented API contract is to abort the region loudly rather than deadlock on the single job slot
            panic!("nested WorkPool parallel regions are not supported (the pool has one job slot; restructure the outer region to do the inner work inline)");
        }
        let chunk = chunk.max(1);

        /// SAFETY: `data` must point to a live `F`.
        unsafe fn call_thunk<F: Fn(usize, usize)>(data: *const (), b: usize, e: usize) {
            // SAFETY: the caller contract guarantees `data` points to a
            // live `F`; the region handoff keeps the borrow alive until
            // every worker has exited the body.
            unsafe { (*data.cast::<F>())(b, e) }
        }
        let job = Arc::new(Job {
            body: RawBody {
                data: (&body as *const F).cast(),
                call: call_thunk::<F>,
            },
            cursor: AtomicUsize::new(begin),
            end,
            chunk,
            remaining: AtomicUsize::new(self.threads),
            poisoned: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        });

        // One region at a time: concurrent submitters queue here.
        let region = lock(&self.region_lock);
        {
            let mut st = lock(&self.shared.state);
            *st = State::Running(Arc::clone(&job));
            self.shared.work_ready.notify_all();
        }
        // The calling thread works too.
        run_job(&job);
        // Wait for the workers to drain the job. The Acquire pairs
        // with each worker's Release decrement, making every body
        // effect (and reduction-slot write) visible to the caller.
        let mut st = lock(&self.shared.state);
        while job.remaining.load(Ordering::Acquire) != 0 {
            st = wait(&self.shared.work_done, st);
        }
        *st = State::Idle;
        // Wake workers parked on the job-swap wait so they return to
        // the ready queue.
        self.shared.work_done.notify_all();
        drop(st);
        drop(region);

        if job.poisoned.load(Ordering::Acquire) {
            let payload = lock(&job.panic_payload).take();
            return Some(payload.unwrap_or_else(|| {
                Box::new("WorkPool parallel region body panicked".to_string())
            }));
        }
        None
    }

    /// Chaos hook for the `pool.panic` fault site: run a real parallel
    /// region whose body panics with the
    /// [`hsim_faults::InjectedWorkerPanic`] marker, exercising the
    /// poison/drain/re-raise machinery end to end, then absorb the
    /// marker so the caller can retry its region. Any non-marker panic
    /// propagates unchanged. Returns `true` when the marker made the
    /// round trip through the poison path.
    pub fn inject_worker_panic(&self) -> bool {
        let payload = self.try_for_chunks(0, self.parallelism(), 1, |_b, _e| {
            panic::panic_any(hsim_faults::InjectedWorkerPanic)
        });
        match payload {
            Some(p) if p.is::<hsim_faults::InjectedWorkerPanic>() => true,
            Some(p) => panic::resume_unwind(p),
            None => false,
        }
    }

    /// Parallel sum reduction: `Σ body(i)` over `[begin, end)` with a
    /// deterministic per-chunk partial order (chunk partials summed in
    /// chunk order), so the result is independent of worker count and
    /// scheduling.
    pub fn sum<F>(&self, begin: usize, end: usize, chunk: usize, body: F) -> f64
    where
        F: Fn(usize) -> f64 + Send + Sync,
    {
        if begin >= end {
            return 0.0;
        }
        let chunk = chunk.max(1);
        let slots = RegionSlots::new((end - begin).div_ceil(chunk));
        let slots_ref = &slots;
        self.for_chunks(begin, end, chunk, move |b, e| {
            let mut acc = 0.0;
            for i in b..e {
                acc += body(i);
            }
            // SAFETY: each chunk owns exactly one slot index (the
            // atomic cursor hands out disjoint chunks), and the slots
            // are only read after the region completes.
            unsafe { slots_ref.set((b - begin) / chunk, acc) };
        });
        slots
            .into_values()
            .into_iter()
            .map(|v| v.unwrap_or(0.0))
            .sum()
    }

    /// Parallel min reduction over `body(i)`, chunk-ordered like
    /// [`WorkPool::sum`].
    pub fn min<F>(&self, begin: usize, end: usize, chunk: usize, body: F) -> f64
    where
        F: Fn(usize) -> f64 + Send + Sync,
    {
        if begin >= end {
            return f64::INFINITY;
        }
        let chunk = chunk.max(1);
        let slots = RegionSlots::new((end - begin).div_ceil(chunk));
        let slots_ref = &slots;
        self.for_chunks(begin, end, chunk, move |b, e| {
            let mut acc = f64::INFINITY;
            for i in b..e {
                acc = acc.min(body(i));
            }
            // SAFETY: as in `sum` — one writer per slot, read only
            // after the region's completion handoff.
            unsafe { slots_ref.set((b - begin) / chunk, acc) };
        });
        slots
            .into_values()
            .into_iter()
            .map(|v| v.unwrap_or(f64::INFINITY))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Write-once result slots for one parallel region: slot `i` holds
/// the result of chunk `i` of the `sum`/`min` reductions. Each slot is
/// written by exactly one chunk (the atomic cursor hands out disjoint
/// units, and the slot index is a pure function of the unit), so plain
/// stores suffice; visibility to the reading coordinator comes from
/// the region's completion handoff.
pub struct RegionSlots<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
}

// SAFETY: each `UnsafeCell` slot is written by at most one thread (the
// chunk/tile that owns it) and read only after the region's
// acquire/release completion handoff, so shared references never race.
// `T: Send` because values produced on workers are read on the
// coordinating thread.
unsafe impl<T: Send> Sync for RegionSlots<T> {}

impl<T> RegionSlots<T> {
    /// `n` empty slots, one per unit of work.
    pub fn new(n: usize) -> Self {
        RegionSlots {
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Store the result of unit `i`.
    ///
    /// # Safety
    /// Each index must be written from at most one unit of work
    /// (write-once), and reads must happen only after the region
    /// completes.
    pub unsafe fn set(&self, i: usize, v: T) {
        // SAFETY: exclusive access per the function contract — no other
        // thread writes slot `i`, and no reads overlap the region.
        unsafe { *self.slots[i].get() = Some(v) };
    }

    /// Consume the slots in index order. Units that never wrote (only
    /// possible if the region was cut short) yield `None`.
    pub fn into_values(self) -> Vec<Option<T>> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|c| c.into_inner())
            .collect()
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            *st = State::Shutdown;
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Pull chunks until the cursor passes the end, with the thread-local
/// region flag set around body execution. A panicking body poisons the
/// job: the cursor is slammed to the end so every thread stops picking
/// up new chunks, and the first payload is kept for the coordinator.
fn run_job(job: &Job) {
    IN_REGION.with(|c| c.set(true));
    loop {
        let b = job.cursor.fetch_add(job.chunk, Ordering::Relaxed);
        if b >= job.end {
            break;
        }
        let e = (b + job.chunk).min(job.end);
        // SAFETY: `job.body.data` points to the coordinator's borrowed
        // closure, which stays alive until `remaining` drains to zero —
        // and this thread has not decremented yet.
        let r = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.body.call)(job.body.data, b, e)
        }));
        if let Err(payload) = r {
            job.cursor.store(job.end, Ordering::Relaxed);
            let mut slot = lock(&job.panic_payload);
            if slot.is_none() {
                *slot = Some(payload);
            }
            drop(slot);
            job.poisoned.store(true, Ordering::Release);
            break;
        }
    }
    IN_REGION.with(|c| c.set(false));
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                match &*st {
                    State::Shutdown => return,
                    State::Running(job) => break Arc::clone(job),
                    State::Idle => st = wait(&shared.work_ready, st),
                }
            }
        };
        run_job(&job);
        // Release pairs with the Acquire in `for_chunks`'s wait.
        if job.remaining.fetch_sub(1, Ordering::Release) == 1 {
            let _guard = lock(&shared.state);
            shared.work_done.notify_all();
        }
        // Wait until the coordinator swaps the job out, so we don't
        // double-count ourselves on the same job.
        let mut st = lock(&shared.state);
        while matches!(&*st, State::Running(j) if Arc::ptr_eq(j, &job)) {
            st = wait(&shared.work_done, st);
        }
        drop(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_each_visits_every_index_once() {
        let pool = WorkPool::new(3);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.for_each(0, 1000, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_reversed_ranges_are_noops() {
        let pool = WorkPool::new(2);
        let count = AtomicU64::new(0);
        pool.for_each(5, 5, 1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        pool.for_each(9, 3, 1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shared_pool_is_one_instance_per_width() {
        let a = WorkPool::shared(2);
        let b = WorkPool::shared(2);
        assert!(Arc::ptr_eq(&a, &b), "same width must reuse one pool");
        let c = WorkPool::shared(3);
        assert!(!Arc::ptr_eq(&a, &c), "different widths get distinct pools");
        assert_eq!(a.parallelism(), 3);
        assert_eq!(c.parallelism(), 4);
        // The shared instance still runs regions correctly, including
        // from several submitters at once.
        let hits: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let pool = WorkPool::shared(2);
                    pool.for_each(0, 256, 16, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
    }

    #[test]
    fn sum_matches_serial() {
        let pool = WorkPool::new(4);
        let total = pool.sum(0, 10_000, 64, |i| i as f64);
        let expect = (10_000f64 - 1.0) * 10_000.0 / 2.0;
        assert_eq!(total, expect);
    }

    #[test]
    fn sum_is_worker_count_invariant() {
        // Chunk-ordered partials: the same chunk size must give the
        // bit-identical result on any pool geometry.
        let body = |i: usize| ((i as f64) * 0.1).sin();
        let expect = WorkPool::new(0).sum(0, 5000, 37, body);
        for workers in [1, 2, 5] {
            let pool = WorkPool::new(workers);
            for _ in 0..3 {
                assert_eq!(pool.sum(0, 5000, 37, body).to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn min_matches_serial() {
        let pool = WorkPool::new(4);
        let m = pool.min(0, 1000, 32, |i| ((i as f64) - 500.0).abs());
        assert_eq!(m, 0.0);
        let empty = pool.min(3, 3, 8, |_| 0.0);
        assert_eq!(empty, f64::INFINITY);
    }

    #[test]
    fn borrowed_bodies_run_on_persistent_workers() {
        // The tentpole property: a region whose body borrows stack
        // data runs without spawning threads. Observable as: worker
        // thread ids stay within the fixed pool set across regions.
        let pool = WorkPool::new(3);
        let mut data = vec![0u64; 512];
        let cells: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
        pool.for_each(0, 512, 16, |i| {
            cells[i].store(i as u64 + 1, Ordering::Relaxed);
        });
        for (i, c) in cells.iter().enumerate() {
            data[i] = c.load(Ordering::Relaxed);
            assert_eq!(data[i], i as u64 + 1);
        }
    }

    #[test]
    fn many_tiny_regions_stress() {
        // The hot-kernel-path shape: thousands of small regions in a
        // row through the same persistent workers.
        let pool = WorkPool::new(3);
        let total = AtomicU64::new(0);
        for r in 0..2000 {
            let base = r as u64;
            pool.for_each(0, 10, 3, |i| {
                total.fetch_add(base + i as u64, Ordering::Relaxed);
            });
        }
        // Σ_r (10·r + 45) for r in 0..2000.
        let expect: u64 = (0..2000u64).map(|r| 10 * r + 45).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn zero_worker_pool_still_completes_on_caller() {
        let pool = WorkPool::new(0);
        let total = pool.sum(0, 100, 10, |i| i as f64);
        assert_eq!(total, 4950.0);
        let hits = AtomicU64::new(0);
        pool.for_each(0, 10, 3, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn chunk_of_zero_is_clamped() {
        let pool = WorkPool::new(2);
        let count = AtomicU64::new(0);
        pool.for_each(0, 10, 0, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn parallelism_reports_workers_plus_caller() {
        assert_eq!(WorkPool::new(3).parallelism(), 4);
        assert_eq!(WorkPool::new(0).parallelism(), 1);
    }

    #[test]
    fn pool_drops_cleanly_while_idle() {
        let pool = WorkPool::new(4);
        drop(pool);
    }

    #[test]
    fn body_panic_propagates_to_the_caller() {
        let pool = WorkPool::new(3);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(0, 100, 1, |i| {
                if i == 41 {
                    panic!("deliberate test panic at 41");
                }
            });
        }));
        let payload = r.expect_err("region must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("deliberate test panic"), "{msg}");
        // The pool survives a poisoned region and runs the next one.
        let count = AtomicU64::new(0);
        pool.for_each(0, 50, 4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn injected_worker_panic_is_absorbed_and_pool_survives() {
        let pool = WorkPool::new(3);
        assert!(pool.inject_worker_panic(), "marker must round-trip");
        // The pool is immediately usable for real regions afterwards.
        let count = AtomicU64::new(0);
        pool.for_each(0, 64, 4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
        // And the chaos path works repeatedly.
        assert!(pool.inject_worker_panic());
        assert_eq!(pool.sum(0, 10, 2, |i| i as f64), 45.0);
    }

    #[test]
    fn nested_regions_are_rejected() {
        let pool = WorkPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(0, 8, 1, |_| {
                pool.for_each(0, 4, 1, |_| {});
            });
        }));
        let payload = r.expect_err("nested region must be rejected");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("nested WorkPool parallel regions"), "{msg}");
        // Still usable afterwards.
        assert_eq!(pool.sum(0, 10, 2, |i| i as f64), 45.0);
    }

    #[test]
    fn region_slots_collect_per_unit_results_in_index_order() {
        // The generic write-once slot pattern: one non-Copy result per
        // unit, collected deterministically regardless of pool
        // geometry.
        for workers in [0, 1, 3] {
            let pool = WorkPool::new(workers);
            let slots = RegionSlots::new(64);
            let slots_ref = &slots;
            pool.for_each(0, 64, 1, |i| {
                // SAFETY: `for_each` visits each index exactly once,
                // and the slots are read only after the region returns.
                unsafe { slots_ref.set(i, format!("unit-{i}")) };
            });
            let vals = slots.into_values();
            assert_eq!(vals.len(), 64);
            for (i, v) in vals.into_iter().enumerate() {
                assert_eq!(v.as_deref(), Some(format!("unit-{i}").as_str()));
            }
        }
    }

    #[test]
    fn region_slots_report_len_and_unwritten_slots() {
        let slots: RegionSlots<u32> = RegionSlots::new(3);
        assert_eq!(slots.len(), 3);
        assert!(!slots.is_empty());
        // SAFETY: single-threaded write-once, read after.
        unsafe { slots.set(1, 7) };
        assert_eq!(slots.into_values(), vec![None, Some(7), None]);
        assert!(RegionSlots::<u32>::new(0).is_empty());
    }

    #[test]
    fn concurrent_submitters_serialize_on_the_region_lock() {
        // Several threads share one pool (the runner's per-run pool):
        // regions must queue, not corrupt each other.
        let pool = Arc::new(WorkPool::new(2));
        let total = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..50 {
                        let local = pool.sum(0, 100, 7, |i| i as f64);
                        assert_eq!(local, 4950.0);
                        total.fetch_add(local as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 4950);
    }
}
