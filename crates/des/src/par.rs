//! Dependency-free scoped-thread worker pool for seed sweeps.
//!
//! Seeds are pure, independent functions of their number, so a sweep shards
//! perfectly: `--jobs N` workers claim task indices from one atomic counter
//! and each task builds its own `Rc`-based simulation stack *inside* the
//! worker thread running it (only the result crosses threads, so nothing in
//! the single-threaded simulation layers needs to become `Send`). Results
//! land in per-index slots and the caller aggregates them **in task order**,
//! which is what makes `--jobs 1` and `--jobs 8` byte-identical.
//!
//! Cancellation is cooperative: when a task result matches the caller's
//! `cancel` predicate the pool stops handing out *new* indices, but every
//! in-flight task runs to completion and its result is kept (drain, don't
//! abort). Because indices are claimed in increasing order, the completed
//! slots always form a prefix of the task range.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: `min(available cores, 8)`, at least 1.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Runs `tasks` task indices across `jobs` workers and returns one slot per
/// index, in index order.
///
/// * `run(index)` executes one task.
/// * `cancel(result)` inspects each finished task; returning `true` raises
///   the shared cancellation flag (fail-fast). Workers observe the flag
///   before claiming their next index, so in-flight tasks still drain.
///
/// Slots that were never claimed (only possible after cancellation) are
/// `None`; claimed slots are always `Some` by the time this returns. With
/// `jobs <= 1` the tasks run serially on the calling thread with identical
/// semantics, so a parallel sweep degrades to the plain loop.
pub fn sweep<T>(
    jobs: usize,
    tasks: usize,
    run: impl Fn(usize) -> T + Sync,
    cancel: impl Fn(&T) -> bool + Sync,
) -> Vec<Option<T>>
where
    T: Send,
{
    let mut slots: Vec<Option<T>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);
    if tasks == 0 {
        return slots;
    }
    if jobs <= 1 {
        for (index, slot) in slots.iter_mut().enumerate() {
            let result = run(index);
            let stop = cancel(&result);
            *slot = Some(result);
            if stop {
                break;
            }
        }
        return slots;
    }

    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let shared = Mutex::new(slots);
    let workers = jobs.min(tasks);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let cancelled = &cancelled;
            let shared = &shared;
            let run = &run;
            let cancel = &cancel;
            scope.spawn(move || loop {
                if cancelled.load(Ordering::SeqCst) {
                    break;
                }
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= tasks {
                    break;
                }
                let result = run(index);
                if cancel(&result) {
                    cancelled.store(true, Ordering::SeqCst);
                }
                let mut slots = shared.lock().unwrap_or_else(|e| e.into_inner());
                slots[index] = Some(result);
            });
        }
    });
    shared.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_small_and_positive() {
        let jobs = default_jobs();
        assert!((1..=8).contains(&jobs));
    }

    #[test]
    fn all_tasks_complete_and_land_in_their_slot() {
        for jobs in [1, 2, 4, 9] {
            let out = sweep(jobs, 20, |i| i * 3, |_| false);
            let values: Vec<usize> = out.into_iter().map(Option::unwrap).collect();
            assert_eq!(values, (0..20).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cancellation_keeps_a_prefix_and_drains_the_failing_task() {
        for jobs in [1, 4] {
            let out = sweep(jobs, 100, |i| i, |&i| i == 5);
            // The failing index itself completed...
            assert_eq!(out[5], Some(5));
            // ...everything claimed before it completed too (claims are in
            // increasing order, so completed slots form a prefix)...
            for (i, slot) in out.iter().enumerate().take(5) {
                assert_eq!(*slot, Some(i));
            }
            // ...and the tail was cut off rather than fully swept.
            let completed = out.iter().flatten().count();
            assert!(completed < 100, "jobs={jobs} swept past the cancellation");
            let last_some = out.iter().rposition(Option::is_some).unwrap();
            assert_eq!(
                completed,
                last_some + 1,
                "jobs={jobs}: completed slots must form a prefix"
            );
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let out: Vec<Option<u32>> = sweep(4, 0, |_| unreachable!(), |_| false);
        assert!(out.is_empty());
    }
}
