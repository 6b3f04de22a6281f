//! # hique-par
//!
//! A minimal scoped thread pool for partition-parallel query execution.
//!
//! The paper's staging phase hands the engine its parallel decomposition for
//! free: staged partitions (and page ranges of a table scan) are independent
//! units of work.  This crate provides the scheduling primitive the engine
//! kernels build on, with two properties the conformance harness depends on:
//!
//! * **Deterministic work division.**  Tasks are defined by the caller
//!   (one per chunk/partition), never by the scheduler; [`chunk_ranges`]
//!   depends only on `(items, chunks)`.  Which OS thread runs a task varies
//!   between runs, but *what* each task computes does not.
//! * **Deterministic merge order.**  [`ScopedPool::map`] returns results in
//!   task-index order regardless of completion order, so callers can
//!   concatenate worker outputs in the same order a serial loop would have
//!   produced them.
//!
//! The implementation is std-only (the build environment has no crates.io
//! access, the same constraint as `crates/shims/`): scoped threads pull task
//! indexes from a shared atomic counter, so skewed workloads (one huge
//! partition) do not idle the remaining workers behind a static assignment.
//!
//! Workers are spawned per [`ScopedPool::map`] call rather than parked in a
//! long-lived pool: `std::thread::scope` lets tasks borrow the caller's
//! stack (relations, heaps, compiled kernels) without `'static` bounds or
//! channels, and the spawn cost is tens of microseconds per call — noise
//! against the hundreds-of-milliseconds phases the engine divides.  If
//! per-call spawn ever shows up in profiles, the replacement is a parked
//! worker set behind the same `map` contract.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A scoped worker pool of a fixed width.
///
/// `threads == 1` is the serial pool: every operation runs inline on the
/// caller's thread, with no thread spawn, no locking and no behavioural
/// difference from a plain loop.  Engine kernels therefore use one code path
/// for both the serial baseline and the parallel mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopedPool {
    threads: usize,
}

impl ScopedPool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ScopedPool {
            threads: threads.max(1),
        }
    }

    /// The serial pool: all work runs inline on the calling thread.
    pub fn serial() -> Self {
        ScopedPool { threads: 1 }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the pool runs everything inline on the caller's thread.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Apply `f` to every index in `0..tasks` and return the results in
    /// index order.
    ///
    /// Tasks are claimed dynamically (shared atomic cursor), so a skewed
    /// task-cost distribution still keeps all workers busy; the result
    /// vector is assembled in index order afterwards, so output order is
    /// independent of scheduling.  With a serial pool (or fewer than two
    /// tasks) this degenerates to a plain loop on the caller's thread.
    pub fn map<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }
        let workers = self.threads.min(tasks);
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(tasks));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    #[expect(clippy::unwrap_used, reason = "a poisoned mutex means a worker already panicked; re-panicking propagates, not invents, the failure")]
                    collected.lock().unwrap().extend(local);
                });
            }
        });
        #[expect(
            clippy::unwrap_used,
            reason = "a poisoned mutex means a worker already panicked; re-panicking propagates, not invents, the failure"
        )]
        let mut indexed = collected.into_inner().unwrap();
        indexed.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(indexed.len(), tasks);
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    /// Apply `f` to every element of `items`, returning results in item
    /// order (see [`ScopedPool::map`]).
    pub fn map_items<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &'a T) -> R + Sync,
    {
        self.map(items.len(), |i| f(i, &items[i]))
    }

    /// Like [`ScopedPool::map_items`], but each task receives its item *by
    /// value* — the fan-out for work that consumes its input (chunk sorts,
    /// scatters) without cloning it per task.  Each slot is taken exactly
    /// once (tasks claim disjoint indexes), so the per-item mutex never
    /// contends; results come back in item order as always.
    pub fn map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map(slots.len(), |i| {
            #[expect(clippy::expect_used, reason = "a poisoned mutex means a worker already panicked, and map claims each task index exactly once")]
            let item = slots[i]
                .lock()
                .expect("slot mutex poisoned")
                .take()
                .expect("each task index is claimed exactly once");
            f(i, item)
        })
    }
}

/// The machine's available parallelism (1 when it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `0..items` into at most `chunks` contiguous, near-equal ranges.
///
/// The division depends only on the two arguments — never on scheduling —
/// which is what makes chunk-parallel kernels reproducible: the same
/// `(items, chunks)` always yields the same chunk boundaries, and
/// concatenating per-chunk outputs in range order reproduces the serial
/// processing order.  Empty ranges are never returned; fewer than `chunks`
/// ranges are returned when `items < chunks`.
pub fn chunk_ranges(items: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(items.max(1));
    if items == 0 {
        return Vec::new();
    }
    let base = items / chunks;
    let extra = items % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, items);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ScopedPool::serial();
        assert!(pool.is_serial());
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let ids = pool.map(4, |i| (i, std::thread::current().id()));
        assert_eq!(
            ids.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert!(ids.iter().all(|(_, t)| *t == caller));
    }

    #[test]
    fn map_returns_results_in_task_order() {
        let pool = ScopedPool::new(4);
        // Uneven task costs: completion order differs from index order, the
        // result order must not.
        let out = pool.map(64, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_for_any_width() {
        let expect: Vec<usize> = (0..37).map(|i| i + 100).collect();
        for threads in [1, 2, 3, 4, 9, 64] {
            let pool = ScopedPool::new(threads);
            assert_eq!(pool.map(37, |i| i + 100), expect, "threads={threads}");
        }
    }

    #[test]
    fn map_items_passes_index_and_item() {
        let pool = ScopedPool::new(3);
        let items = ["a", "b", "c", "d"];
        let out = pool.map_items(&items, |i, s| format!("{i}{s}"));
        assert_eq!(out, ["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn map_owned_moves_items_and_keeps_order() {
        // Non-Clone items prove the by-value contract; order must match
        // item order for any width.
        struct NoClone(usize);
        for threads in [1, 2, 4, 9] {
            let pool = ScopedPool::new(threads);
            let items: Vec<NoClone> = (0..23).map(NoClone).collect();
            let out = pool.map_owned(items, |i, item| {
                assert_eq!(i, item.0);
                item.0 * 2
            });
            assert_eq!(out, (0..23).map(|i| i * 2).collect::<Vec<_>>());
        }
        assert!(ScopedPool::new(4)
            .map_owned(Vec::<u8>::new(), |_, b| b)
            .is_empty());
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = ScopedPool::new(8);
        assert!(pool.map(0, |i| i).is_empty());
        assert_eq!(pool.map(1, |i| i + 1), [1]);
    }

    #[test]
    fn zero_width_pool_clamps_to_one() {
        assert_eq!(ScopedPool::new(0).threads(), 1);
        assert!(ScopedPool::new(0).is_serial());
        assert!(available_threads() >= 1);
    }

    #[test]
    fn chunk_ranges_cover_everything_exactly_once() {
        for items in [0usize, 1, 2, 7, 64, 1000, 1001] {
            for chunks in [1usize, 2, 3, 4, 7, 64] {
                let ranges = chunk_ranges(items, chunks);
                // No empty ranges; contiguous; covers 0..items.
                let mut next = 0usize;
                for r in &ranges {
                    assert!(!r.is_empty(), "items={items} chunks={chunks}");
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, items);
                assert!(ranges.len() <= chunks);
                if items > 0 {
                    assert_eq!(ranges.len(), chunks.min(items));
                    // Near-equal: sizes differ by at most one.
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_are_deterministic() {
        assert_eq!(chunk_ranges(10, 4), chunk_ranges(10, 4));
        assert_eq!(chunk_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
    }
}
