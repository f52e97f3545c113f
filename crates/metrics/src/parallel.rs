//! Order-stable parallel execution on a persistent, barrier-synchronised
//! worker pool.
//!
//! # Pool lifecycle
//!
//! Every thread that runs parallel work owns a small stack of
//! [`WorkerPool`]s (thread-local, created lazily on first use). A pool
//! spawns its OS threads **once** and parks them between phases; the hot
//! path of both helpers below is a *phase*: the coordinator publishes a
//! lifetime-erased closure under the pool's epoch counter, wakes the
//! parked workers, runs lane 0 itself, and blocks until the
//! `remaining`-lanes counter hits zero. No thread is created, no heap
//! allocation is made, and no channel is touched per phase — one mutex
//! hand-off per lane is the whole cost.
//!
//! Nested parallelism works because pools stack: a phase closure that
//! itself calls a parallel helper pops (or creates) the *next* pool on
//! its thread, so the grid level (cells) and the cell level (shard
//! commits) never share a barrier. A panicking phase
//! closure is caught on whichever lane it fired, the barrier is still
//! completed, and the panic is re-raised on the coordinator — the pool
//! itself stays parked, healthy and reusable (no poisoned state,
//! asserted by `tests/pool_reuse.rs`).
//!
//! # Who runs on it
//!
//! Two layers of the evaluation parallelise over this module, both over
//! coarse, mutually independent work items:
//!
//! * **across cells** — every cell of the paper's grid is independent
//!   (same trace, different strategy × parameter pair), so
//!   `mosaic-sim` maps cells over [`ordered_map`];
//! * **within a cell** — the per-shard chain commits
//!   (`Ledger::process_epoch`, shards over [`for_each_indexed_mut`]).
//!
//! The graph allocators (`mosaic-partition`, `mosaic-txallo`) do **not**
//! run here. Their greedy sweeps are sequential by nature — every
//! committed move changes the state the next decision reads — and
//! prescoring chunks of a sweep on lanes for a sequential commit walk
//! measured ×1.3–1.9 *slower* than the plain sweep: the first round
//! moves most nodes, so nearly every prescored histogram is stale and
//! gets scored twice.
//!
//! Transaction classification does not run here either. One
//! `EpochLoad::compute` pass over ϕ's dense table costs ≈ 11 ns per
//! transaction, and two lanes measured no faster at 8192-tx windows.
//!
//! # What must not vary
//!
//! What must *not* vary with scheduling is the output: [`ordered_map`]
//! returns results in input order regardless of which lane finishes
//! first, and [`for_each_indexed_mut`] hands each lane a disjoint
//! contiguous chunk — so a parallel run is byte-identical to a
//! sequential one (asserted in `mosaic-sim`'s tests and by
//! `full_run --check-determinism`).

use std::any::Any;
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use mosaic_telemetry::{Counter, Recorder};

/// Worker-pool sizing for the helpers in this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One item at a time, on the calling thread.
    Sequential,
    /// One lane per available CPU (capped at the number of items).
    #[default]
    Auto,
    /// An explicit lane count (clamped to ≥ 1).
    Threads(usize),
}

impl Parallelism {
    /// Resolves to a concrete lane count for `items` work items.
    pub fn workers(&self, items: usize) -> usize {
        let limit = match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Threads(n) => (*n).max(1),
        };
        limit.min(items).max(1)
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// A lifetime-erased pointer to the phase closure. Only dereferenced
/// between phase publication and barrier completion, which
/// [`WorkerPool::run_phase`] bounds within the closure's real lifetime.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and
// `run_phase` guarantees it outlives every dereference.
unsafe impl Send for TaskRef {}

/// Erases the closure's borrow lifetime so it can sit in [`PoolState`].
///
/// # Safety contract (upheld by `run_phase`)
///
/// The returned pointer must not be dereferenced after the phase
/// barrier completes — `run_phase` blocks until every lane is done
/// before its `f` borrow ends.
fn erase<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> TaskRef {
    let ptr: *const (dyn Fn(usize) + Sync + 'a) = f;
    // SAFETY: only the pointee's lifetime bound changes; layout is
    // identical. Dereference windows are bounded by the phase barrier.
    TaskRef(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'a), *const (dyn Fn(usize) + Sync)>(
            ptr,
        )
    })
}

/// Everything the coordinator and the workers share.
struct PoolState {
    /// Bumped once per published phase; workers detect new work by
    /// comparing against the last epoch they observed.
    epoch: u64,
    /// The current phase's closure (valid while `remaining > 0`).
    task: Option<TaskRef>,
    /// Workers participating in the current phase (worker `i` runs lane
    /// `i + 1`; lane 0 is the coordinator).
    active: usize,
    /// Participating workers that have not yet finished the phase.
    remaining: usize,
    /// First worker panic of the phase, re-raised by the coordinator.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between phases.
    work: Condvar,
    /// The coordinator parks here until `remaining == 0`.
    done: Condvar,
}

fn lock(m: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    // Panics never happen while the lock is held (worker payloads run
    // outside it, wrapped in catch_unwind), but don't compound a bug
    // with poisoning: the state is always barrier-consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-lane telemetry handles: nanoseconds spent running phase work
/// (`pool.lane<i>.busy_ns`) vs parked / waiting on the barrier
/// (`pool.lane<i>.park_ns`). Inert (one branch per phase, zero clock
/// reads) when the pool's recorder is disabled — telemetry never
/// perturbs results.
struct LaneTelemetry {
    busy: Counter,
    park: Counter,
}

impl LaneTelemetry {
    fn for_lane(recorder: &Recorder, lane: usize) -> Self {
        LaneTelemetry {
            busy: recorder.counter(&format!("pool.lane{lane}.busy_ns")),
            park: recorder.counter(&format!("pool.lane{lane}.park_ns")),
        }
    }

    /// Starts a clock only when counters land somewhere.
    fn clock(&self) -> Option<Instant> {
        self.busy.is_enabled().then(Instant::now)
    }

    fn add_busy(&self, since: Option<Instant>) {
        if let Some(start) = since {
            self.busy
                .add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    fn add_park(&self, since: Option<Instant>) {
        if let Some(start) = since {
            self.park
                .add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// A persistent, barrier-synchronised worker pool.
///
/// Threads are spawned lazily (grown to the widest phase ever run) and
/// parked between phases; see the module docs for the lifecycle. Helpers
/// in this module pull pools from a thread-local stack automatically —
/// constructing one by hand is only needed for tests.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    recorder: Recorder,
    lane0: LaneTelemetry,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; threads are spawned on first use. The
    /// pool captures the process-wide telemetry recorder at this point
    /// — install it (and [`thread_pool_reset`] existing pools) *before*
    /// the first parallel call if you want per-lane busy/park time.
    pub fn new() -> Self {
        WorkerPool::with_recorder(mosaic_telemetry::global())
    }

    /// Creates an empty pool reporting per-lane busy/park time to
    /// `recorder` (inert when the recorder is disabled).
    pub fn with_recorder(recorder: Recorder) -> Self {
        let lane0 = LaneTelemetry::for_lane(&recorder, 0);
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    task: None,
                    active: 0,
                    remaining: 0,
                    panic: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            handles: Vec::new(),
            recorder,
            lane0,
        }
    }

    /// Worker threads currently spawned (grows, never shrinks).
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    fn ensure_workers(&mut self, needed: usize) {
        while self.handles.len() < needed {
            let shared = Arc::clone(&self.shared);
            let index = self.handles.len();
            let telemetry = LaneTelemetry::for_lane(&self.recorder, index + 1);
            let handle = std::thread::Builder::new()
                .name(format!("mosaic-pool-{index}"))
                .spawn(move || worker_loop(&shared, index, &telemetry))
                .expect("failed to spawn pool worker");
            self.handles.push(handle);
        }
    }

    /// Runs one phase: `f(lane)` for every `lane in 0..lanes`, lane 0 on
    /// the calling thread, the rest on parked workers. Returns after
    /// every lane has finished (the barrier). Worker panics are re-raised
    /// here after the barrier settles; the pool remains usable.
    pub fn run_phase(&mut self, lanes: usize, f: &(dyn Fn(usize) + Sync)) {
        if lanes <= 1 {
            f(0);
            return;
        }
        self.ensure_workers(lanes - 1);

        // `f` stays alive until the barrier below completes, and no
        // worker dereferences the pointer after decrementing `remaining`.
        let task = erase(f);
        {
            let mut st = lock(&self.shared.state);
            debug_assert_eq!(st.remaining, 0, "phase published over a live phase");
            st.task = Some(task);
            st.active = lanes - 1;
            st.remaining = lanes - 1;
            st.epoch += 1;
            self.shared.work.notify_all();
        }

        // Lane 0 runs here; a panic must not skip the barrier.
        let busy_start = self.lane0.clock();
        let mine = catch_unwind(AssertUnwindSafe(|| f(0)));
        self.lane0.add_busy(busy_start);

        let park_start = self.lane0.clock();
        let mut st = lock(&self.shared.state);
        while st.remaining > 0 {
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.lane0.add_park(park_start);
        st.task = None;
        let worker_panic = st.panic.take();
        drop(st);

        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize, telemetry: &LaneTelemetry) {
    let mut seen = 0u64;
    loop {
        let park_start = telemetry.clock();
        let task = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if index < st.active {
                        break st.task.expect("active phase carries a task");
                    }
                    // Not part of this phase: acknowledge and re-park.
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        telemetry.add_park(park_start);
        // SAFETY: the coordinator keeps the closure alive until this
        // worker decrements `remaining` below.
        let busy_start = telemetry.clock();
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(index + 1) }));
        telemetry.add_busy(busy_start);
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

// Pools stack per thread so nested parallelism (grid cells on the outer
// pool, shard commits and Ω chunks on the inner) never shares a barrier.
thread_local! {
    static POOLS: RefCell<Vec<WorkerPool>> = const { RefCell::new(Vec::new()) };
}

/// Worker threads currently spawned by the calling thread's pool stack.
/// Introspection for tests ("reuse must not respawn").
pub fn thread_pool_workers() -> usize {
    POOLS
        .try_with(|pools| pools.borrow().iter().map(WorkerPool::size).sum())
        .unwrap_or(0)
}

/// Drops the calling thread's persistent pools (joining their workers).
/// The next parallel call re-creates them — tests use this to compare
/// fresh-pool against reused-pool runs on one thread.
pub fn thread_pool_reset() {
    let _ = POOLS.try_with(|pools| pools.borrow_mut().clear());
}

/// Runs `f(lane)` for `lane in 0..lanes` on the calling thread's
/// persistent pool (lane 0 inline). The barrier completes before this
/// returns. Falls back to an inline lane loop if the thread-local pool
/// stack is unavailable (thread teardown).
fn run_lanes(lanes: usize, f: &(dyn Fn(usize) + Sync)) {
    if lanes <= 1 {
        f(0);
        return;
    }
    let mut pool = match POOLS.try_with(|pools| pools.borrow_mut().pop()) {
        Ok(popped) => popped.unwrap_or_default(),
        Err(_) => {
            // TLS already destroyed: run the lanes inline. Results are
            // lane-placement independent, so this is just the slow path.
            for lane in 0..lanes {
                f(lane);
            }
            return;
        }
    };
    let result = catch_unwind(AssertUnwindSafe(|| pool.run_phase(lanes, f)));
    // Return the pool even when the phase panicked — it is barrier-
    // consistent and reusable (asserted by tests/pool_reuse.rs).
    if POOLS
        .try_with(|pools| pools.borrow_mut().push(pool))
        .is_err()
    {
        // TLS gone mid-call: the pool drops (and joins) here instead.
    }
    if let Err(payload) = result {
        resume_unwind(payload);
    }
}

/// A raw view of a mutable slice that lanes index disjointly.
struct LaneSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: lanes only touch disjoint index ranges (by construction at
// every use site), and the phase barrier orders all writes before the
// coordinator reads.
unsafe impl<T: Send> Send for LaneSlice<T> {}
unsafe impl<T: Send> Sync for LaneSlice<T> {}

impl<T> LaneSlice<T> {
    fn new(slice: &mut [T]) -> Self {
        LaneSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// `[start, end)` must be in bounds and disjoint from every range
    /// (or index) handed to any other concurrent lane.
    // The aliasing clippy fears is exactly what the disjointness
    // contract above rules out; `&self` is deliberate so lanes share
    // the view.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range_mut(&self, start: usize, end: usize) -> &mut [T] {
        debug_assert!(start <= end && end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }

    /// # Safety
    /// `i` must be in bounds and claimed by exactly one lane.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

// ---------------------------------------------------------------------------
// Public helpers
// ---------------------------------------------------------------------------

/// Applies `f` to every item on the persistent pool and returns the
/// results **in input order**.
///
/// Items are claimed through an atomic cursor, so long items don't stall
/// unrelated lanes; each result lands in its input slot. With
/// [`Parallelism::Sequential`] (or a single item) the pool is never
/// touched.
///
/// # Panics
///
/// Propagates the first panic of any lane.
pub fn ordered_map<T, R, F>(items: &[T], parallelism: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let lanes = parallelism.workers(items.len());
    if lanes <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let slots = LaneSlice::new(&mut out);
    run_lanes(lanes, &|_lane| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let result = f(item);
        // SAFETY: `i` came from fetch_add, so exactly one lane owns it.
        unsafe { *slots.get_mut(i) = Some(result) };
    });
    out.into_iter()
        .map(|slot| slot.expect("every slot filled by the pool"))
        .collect()
}

/// Runs `f(index, &mut item)` over every item, splitting the slice into
/// one contiguous chunk per lane. Chunks are disjoint, so mutation is
/// race-free and the outcome is identical to a sequential loop whenever
/// `f`'s effect on an item depends only on that item and its index.
///
/// [`Parallelism::Sequential`] (or a single item) runs inline.
///
/// # Panics
///
/// Propagates the first panic of any lane.
pub fn for_each_indexed_mut<T, F>(items: &mut [T], parallelism: Parallelism, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let lanes = parallelism.workers(items.len());
    if lanes <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }

    let len = items.len();
    let chunk_len = len.div_ceil(lanes);
    let slots = LaneSlice::new(items);
    run_lanes(lanes, &|lane| {
        let start = lane * chunk_len;
        if start >= len {
            return;
        }
        let end = (start + chunk_len).min(len);
        // SAFETY: lane ranges are disjoint by construction.
        let chunk = unsafe { slots.range_mut(start, end) };
        for (off, item) in chunk.iter_mut().enumerate() {
            f(start + off, item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let doubled = ordered_map(&items, Parallelism::Threads(8), |&x| x * 2);
        assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let work = |&x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        let seq = ordered_map(&items, Parallelism::Sequential, work);
        let par = ordered_map(&items, Parallelism::Auto, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(ordered_map(&empty, Parallelism::Auto, |&x| x).is_empty());
        assert_eq!(ordered_map(&[7u8], Parallelism::Auto, |&x| x + 1), vec![8]);
    }

    #[test]
    fn workers_are_bounded_by_items() {
        assert_eq!(Parallelism::Auto.workers(1), 1);
        assert_eq!(Parallelism::Threads(16).workers(4), 4);
        assert_eq!(Parallelism::Threads(0).workers(9), 1);
        assert_eq!(Parallelism::Sequential.workers(100), 1);
        assert_eq!(Parallelism::Auto.workers(0), 1);
    }

    #[test]
    fn for_each_indexed_mut_touches_every_item_once() {
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::Threads(3),
        ] {
            let mut items = vec![0usize; 37];
            for_each_indexed_mut(&mut items, parallelism, |i, item| *item += i + 1);
            let expected: Vec<usize> = (0..37).map(|i| i + 1).collect();
            assert_eq!(items, expected, "{parallelism:?}");
        }
    }

    #[test]
    fn for_each_indexed_mut_handles_empty() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_indexed_mut(&mut empty, Parallelism::Auto, |_, _| unreachable!());
    }

    #[test]
    fn pool_reports_lane_busy_and_park_time() {
        let recorder = Recorder::enabled();
        let mut pool = WorkerPool::with_recorder(recorder.clone());
        pool.run_phase(3, &|_lane| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let counters = recorder.snapshot().counters;
        let value = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        for lane in 0..3 {
            let busy = value(&format!("pool.lane{lane}.busy_ns"));
            assert!(busy >= 1_000_000, "lane {lane} busy {busy}ns");
        }
        // Workers waited for the phase before running it.
        assert!(value("pool.lane1.park_ns") > 0);

        // A disabled pool registers nothing.
        let off = Recorder::enabled();
        let mut silent = WorkerPool::with_recorder(Recorder::disabled());
        silent.run_phase(2, &|_lane| {});
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn pool_persists_across_calls() {
        thread_pool_reset();
        assert_eq!(thread_pool_workers(), 0);
        let items: Vec<usize> = (0..64).collect();
        let _ = ordered_map(&items, Parallelism::Threads(3), |&i| i);
        let spawned = thread_pool_workers();
        assert_eq!(spawned, 2, "3 lanes = coordinator + 2 pool workers");
        for _ in 0..50 {
            let _ = ordered_map(&items, Parallelism::Threads(3), |&i| i);
        }
        assert_eq!(
            thread_pool_workers(),
            spawned,
            "reuse must not respawn workers"
        );
        // A wider phase grows the same pool in place.
        let _ = ordered_map(&items, Parallelism::Threads(5), |&i| i);
        assert_eq!(thread_pool_workers(), 4);
        thread_pool_reset();
        assert_eq!(thread_pool_workers(), 0);
    }
}
