//! Deterministic parallel map for experiment grids.
//!
//! The crate provides [`par_map`], a chunked work-stealing map built on
//! [`std::thread::scope`] — no external dependencies. Its contract is
//! strict determinism: for any worker count (including 1), the output is
//! the item-wise result in input order, so serial and parallel runs of a
//! figure grid produce byte-identical CSVs. Worker scheduling only decides
//! *who* computes an item, never *what* is computed or *where* the result
//! lands.
//!
//! Worker count resolution, in priority order:
//! 1. a thread-local override installed by [`with_jobs`] (used by tests so
//!    concurrent test threads don't race on the process environment),
//! 2. the `DRIVE_JOBS` environment variable (a positive integer),
//! 3. [`std::thread::available_parallelism`].
//!
//! Panics inside the mapped closure are captured per item; after all
//! workers drain, the payload from the **lowest-index** panicking item is
//! re-raised. That keeps panic behaviour scheduling-independent too, and
//! composes with callers that wrap items in their own `catch_unwind`
//! (e.g. `repro_bench::resilience::run_cell`, which retries a panicking
//! episode inside a cell before the panic would ever reach this layer).
//! The re-raise is a `resume_unwind`, so it does not run the panic hook
//! again: a payload raised quietly (the harness's shutdown sentinel)
//! stays quiet.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Test-scoped worker-count override (see [`with_jobs`]).
    static JOBS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Environment variable consulted for the worker count.
pub const JOBS_ENV: &str = "DRIVE_JOBS";

/// Runs `f` with the worker count pinned to `jobs` on this thread.
///
/// The override is thread-local and restored on exit (including on
/// panic), so parallel test threads can each pin a different count
/// without racing on `DRIVE_JOBS`.
pub fn with_jobs<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = JOBS_OVERRIDE.with(|c| c.replace(Some(jobs.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Resolves the effective worker count for the calling thread.
///
/// Order: [`with_jobs`] override, then `DRIVE_JOBS` (positive integer),
/// then [`std::thread::available_parallelism`]; always at least 1.
pub fn jobs() -> usize {
    if let Some(j) = JOBS_OVERRIDE.with(Cell::get) {
        return j.max(1);
    }
    if let Ok(raw) = std::env::var(JOBS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A pinned-worker-count executor handle.
///
/// [`Executor::current`] snapshots the worker count resolved at a known
/// point (e.g. when an experiment run context is built); running work
/// through the handle then pins that count for the duration via
/// [`with_jobs`], so later environment changes — or being called from a
/// thread without the override — cannot shift the parallelism mid-run.
/// Run manifests record [`Executor::jobs`] as the authoritative count the
/// run actually used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor pinned to the worker count resolved right now (see
    /// [`jobs`]).
    #[must_use]
    pub fn current() -> Self {
        Executor { jobs: jobs() }
    }

    /// An executor pinned to an explicit worker count (min 1).
    #[must_use]
    pub fn with_worker_count(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// The pinned worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` with the worker count pinned to this executor's.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        with_jobs(self.jobs, f)
    }

    /// [`par_map`] pinned to this executor's worker count.
    #[cfg(test)]
    pub fn par_map<I, R, F>(&self, items: &[I], f: F) -> Vec<R>
    where
        I: Sync,
        R: Send,
        F: Fn(usize, &I) -> R + Sync,
    {
        self.run(|| par_map(items, f))
    }
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// `f` receives `(index, &item)`. With an effective worker count of 1 —
/// or a grid of at most two items, where thread spawn and join cost more
/// than the second item — the map runs serially on the calling thread
/// with no thread or synchronization overhead; otherwise items are
/// claimed in contiguous chunks off a shared atomic cursor. Either way
/// the output `Vec` is index-ordered and identical for every worker
/// count.
///
/// If `f` panics for one or more items, the panic payload of the
/// lowest-index failing item is re-raised after all workers finish.
pub fn par_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 || items.len() <= 2 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }

    // Chunked claiming: big enough to amortize the atomic, small enough
    // that a slow cell doesn't strand a whole stripe on one worker.
    let chunk = (items.len() / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    // Worker results land here as (index, Ok(result) | Err(panic)).
    type Slot<R> = (usize, Result<R, Box<dyn std::any::Any + Send>>);
    let collected: Mutex<Vec<Slot<R>>> = Mutex::new(Vec::with_capacity(items.len()));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<Slot<R>> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    for (idx, item) in items[start..end].iter().enumerate() {
                        let idx = start + idx;
                        let out = catch_unwind(AssertUnwindSafe(|| f(idx, item)));
                        local.push((idx, out));
                    }
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });

    let mut slots = collected.into_inner().unwrap();
    slots.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(slots.len(), items.len());

    // Deterministic panic propagation: re-raise the lowest-index failure.
    if let Some(pos) = slots.iter().position(|(_, r)| r.is_err()) {
        let (_, err) = slots.swap_remove(pos);
        match err {
            Err(payload) => resume_unwind(payload),
            Ok(_) => unreachable!("position() found an Err slot"),
        }
    }
    slots
        .into_iter()
        .map(|(_, r)| match r {
            Ok(v) => v,
            Err(_) => unreachable!("panics re-raised above"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn maps_in_order_serially() {
        let items: Vec<u32> = (0..17).collect();
        let out = with_jobs(1, || par_map(&items, |i, &x| (i as u32) * 100 + x));
        assert_eq!(out.len(), 17);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u32) * 101);
        }
    }

    #[test]
    fn executor_pins_worker_count() {
        let ex = Executor::with_worker_count(3);
        assert_eq!(ex.jobs(), 3);
        assert_eq!(ex.run(jobs), 3);
        // Pinning is scoped: outside the handle the ambient count rules.
        let ambient = with_jobs(5, || {
            let pinned = Executor::with_worker_count(2).run(jobs);
            (pinned, jobs())
        });
        assert_eq!(ambient, (2, 5));
        // Zero clamps to one, and the executor's map matches plain par_map.
        assert_eq!(Executor::with_worker_count(0).jobs(), 1);
        let items: Vec<u32> = (0..9).collect();
        let out = ex.par_map(&items, |i, &x| x + i as u32);
        assert_eq!(out, with_jobs(1, || par_map(&items, |i, &x| x + i as u32)));
    }

    #[test]
    fn parallel_matches_serial_for_various_worker_counts() {
        let items: Vec<u64> = (0..53).map(|i| i * 7 + 3).collect();
        let serial = with_jobs(1, || par_map(&items, |i, &x| x * x + i as u64));
        for workers in [2, 3, 8, 64] {
            let par = with_jobs(workers, || par_map(&items, |i, &x| x * x + i as u64));
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        let out: Vec<u8> = with_jobs(8, || par_map(&items, |_, &x| x));
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [1u8, 2];
        let out = with_jobs(16, || par_map(&items, |_, &x| x + 1));
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn tiny_grids_skip_thread_spawn_and_stay_index_ordered() {
        // Grids of <= 2 items run on the calling thread even with many
        // workers configured: the mapped closure must observe the caller's
        // thread id, and output must stay index-ordered.
        let caller = std::thread::current().id();
        for len in 0..=2usize {
            let items: Vec<usize> = (0..len).collect();
            let out = with_jobs(8, || {
                par_map(&items, |i, &x| {
                    assert_eq!(
                        std::thread::current().id(),
                        caller,
                        "tiny grid must not spawn threads"
                    );
                    (i, x * 10)
                })
            });
            let expect: Vec<(usize, usize)> = (0..len).map(|i| (i, i * 10)).collect();
            assert_eq!(out, expect, "len={len}");
        }
        // Three items is past the cutoff: still index-ordered.
        let items = [5usize, 6, 7];
        let out = with_jobs(8, || par_map(&items, |i, &x| (i, x)));
        assert_eq!(out, vec![(0, 5), (1, 6), (2, 7)]);
    }

    #[test]
    fn lowest_index_panic_wins() {
        let items: Vec<usize> = (0..24).collect();
        let caught = std::panic::catch_unwind(|| {
            with_jobs(4, || {
                par_map(&items, |i, _| {
                    if i == 5 || i == 19 {
                        panic!("boom {i}");
                    }
                    i
                })
            })
        });
        let payload = caught.expect_err("must propagate panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom 5");
    }

    #[test]
    fn with_jobs_restores_previous_override() {
        with_jobs(3, || {
            assert_eq!(jobs(), 3);
            with_jobs(5, || assert_eq!(jobs(), 5));
            assert_eq!(jobs(), 3);
        });
    }

    #[test]
    fn jobs_floor_is_one() {
        with_jobs(0, || assert_eq!(jobs(), 1));
    }

    proptest! {
        /// Core determinism property: every worker count produces the
        /// same index-ordered output as the serial path.
        #[test]
        fn par_map_is_schedule_independent(
            items in proptest::collection::vec(any::<u32>(), 0..64),
            workers in any::<u8>(),
        ) {
            let workers = 1 + (workers % 12) as usize;
            let serial = with_jobs(1, || {
                par_map(&items, |i, &x| x.wrapping_mul(31).wrapping_add(i as u32))
            });
            let par = with_jobs(workers, || {
                par_map(&items, |i, &x| x.wrapping_mul(31).wrapping_add(i as u32))
            });
            prop_assert_eq!(par, serial);
        }
    }
}
