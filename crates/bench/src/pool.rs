//! Deterministic parallel fan-out for experiment harnesses and test
//! matrices.
//!
//! Every figure harness and seed-matrix test in this repository is a map
//! over an independent work list: (batch, service, target) cells, chaos
//! seeds, fuzz programs. [`map`] runs such a list across a scoped thread
//! pool and returns results **in input order**, so the output of a
//! parallel run is bit-identical to a serial run of the same closure —
//! parallelism changes wall-clock time and nothing else. There is no
//! shared mutable state between work items; each item's closure runs
//! exactly once, on exactly one thread.
//!
//! The worker count comes from `PROTEAN_JOBS` when set, else from the
//! host's available parallelism. The calling thread is always one of the
//! workers: `N` workers are the caller plus `N − 1` scoped threads, so a
//! map's first item starts at once. With one worker (or one item) the
//! pool is a plain serial loop on the calling thread and spawns nothing.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `PROTEAN_JOBS` if set (clamped to at least 1), else the
/// host's available parallelism, else 1.
pub fn jobs() -> usize {
    match std::env::var("PROTEAN_JOBS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Maps `f` over `items` on [`jobs`] workers, returning results in input
/// order. See [`map_with`].
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with(jobs(), items, f)
}

/// Maps `f` over `items` on up to `workers` threads: the calling thread
/// and `workers − 1` scoped threads, all running one claim loop.
///
/// Work items are claimed dynamically (an atomic cursor, so long items
/// don't leave workers idle) but results land in a slot per input index,
/// so the returned vector is always in input order: a run with `workers
/// == 1` and a run with `workers == 64` return identical vectors for a
/// deterministic `f`.
///
/// # Panics
///
/// Panics if any invocation of `f` panics, so a failing work item fails
/// the whole map loudly rather than producing a partial result. Each
/// item's panic is caught where it runs and the workers keep claiming;
/// once every thread has joined, the panic of the lowest-index failing
/// item is resumed. That is the panic a serial run raises, whichever
/// thread ran the item.
pub fn map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else {
            break;
        };
        let r = panic::catch_unwind(AssertUnwindSafe(|| f(i, item)));
        *slots[i].lock().expect("result slot") = Some(r);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            match m
                .into_inner()
                .expect("result slot")
                .expect("every item completed")
            {
                Ok(r) => r,
                Err(payload) => panic::resume_unwind(payload),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = map_with(8, &items, |i, &x| {
            // Vary per-item runtime so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros(((x * 7) % 13) as u64));
            i * 2 + x
        });
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let items: Vec<u64> = (0..64).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(2654435761).rotate_left((x % 63) as u32);
        let serial = map_with(1, &items, f);
        let parallel = map_with(7, &items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_item_lists() {
        let none: Vec<u8> = vec![];
        assert!(map_with(4, &none, |_, &x| x).is_empty());
        assert_eq!(map_with(4, &[9u8], |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn jobs_respects_env_override() {
        // Serialized via a temp var name unlikely to be set elsewhere; we
        // only check the parse rules, not the host's parallelism.
        std::env::set_var("PROTEAN_JOBS", "3");
        assert_eq!(jobs(), 3);
        std::env::set_var("PROTEAN_JOBS", "0");
        assert_eq!(jobs(), 1, "zero clamps to one worker");
        std::env::set_var("PROTEAN_JOBS", "nonsense");
        assert_eq!(jobs(), 1, "garbage degrades to serial");
        std::env::remove_var("PROTEAN_JOBS");
        assert!(jobs() >= 1);
    }

    #[test]
    fn calling_thread_is_a_worker() {
        // Both items wait for each other, so they run on two threads at
        // once; one of them is the caller.
        let barrier = std::sync::Barrier::new(2);
        let ids = map_with(2, &[0u8, 1], |_, _| {
            barrier.wait();
            std::thread::current().id()
        });
        assert!(ids.contains(&std::thread::current().id()), "{ids:?}");
    }

    #[test]
    #[should_panic(expected = "work item failed")]
    fn worker_panics_propagate() {
        let items = [1, 2, 3];
        let _ = map_with(2, &items, |_, &x| {
            if x == 2 {
                panic!("work item failed");
            }
            x
        });
    }

    #[test]
    fn lowest_failing_index_panics_at_any_worker_count() {
        let items: Vec<usize> = (0..8).collect();
        for workers in [1, 4] {
            let payload = panic::catch_unwind(|| {
                map_with(workers, &items, |i, _| -> usize {
                    panic!("item {i} failed")
                })
            })
            .expect_err("every item panics");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert_eq!(msg, "item 0 failed", "workers = {workers}");
        }
    }
}
