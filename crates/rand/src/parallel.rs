//! Deterministic fork-join parallelism for Monte-Carlo loops.
//!
//! The sampling-based explainers in this workspace (permutation Shapley,
//! Kernel SHAP, TMC data Shapley, Banzhaf, GeCo/DiCE search) are
//! embarrassingly parallel: many independent random walks whose results
//! are reduced at the end. The executors here parallelize exactly that
//! shape while keeping a hard reproducibility guarantee:
//!
//! **Determinism invariant.** Task `t` always draws from a fresh PCG64
//! seeded with [`child_seed`]`(seed, t)`, and results are reduced in task
//! order — never in completion order. The output is therefore a pure
//! function of `(seed, n_tasks)`: bit-identical across runs *and across
//! worker counts* (`workers = 1` and `workers = 64` agree exactly).
//!
//! Scheduling is static and strided (worker `w` takes tasks `w`,
//! `w + workers`, …), which needs no atomics and balances well for the
//! uniform task sizes Monte-Carlo chunks have.

use crate::rngs::StdRng;
use crate::{child_seed, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Number of workers the machine supports (`1` when it cannot be probed).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The most threads one `par_map_*` run starts, whatever `workers` asks
/// for: `workers` can arrive in a request, and a thread per task would
/// let one request start as many threads as it has chunks.
pub const MAX_THREADS: usize = 64;

/// The threads a `par_map_*` run over `n_tasks` tasks starts:
/// `min(workers, n_tasks, MAX_THREADS)`. Tasks are seeded by index and
/// reduced in task order, so the count never changes a result.
pub fn thread_count(workers: usize, n_tasks: usize) -> usize {
    workers.min(n_tasks).min(MAX_THREADS)
}

/// A panic captured from one task of a `try_par_map_*` run.
///
/// The lowest-indexed panicking task is reported, regardless of which
/// worker hit it first on the wall clock — fault reporting obeys the same
/// task-order determinism as the results themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the panicking task.
    pub task: usize,
    /// The panic payload, when it was a string (the common case); a
    /// placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parallel task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Extracts a human-readable message from a `catch_unwind` payload: the
/// `&str` or `String` the panic was raised with, or a fixed fallback for
/// any other payload type. The one copy every panic boundary in the
/// workspace uses.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `n_tasks` independent closures across `workers` scoped threads.
///
/// Each task receives its index and a PCG64 seeded with
/// [`child_seed`]`(seed, index)`; outputs come back in task order. See the
/// module docs for the determinism invariant.
///
/// # Panics
/// Panics when `workers == 0`, or propagates a worker panic.
pub fn par_map_seeded<U, F>(n_tasks: usize, seed: u64, workers: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, &mut StdRng) -> U + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    let run_task = |t: usize| {
        let mut rng = StdRng::seed_from_u64(child_seed(seed, t as u64));
        f(t, &mut rng)
    };
    let workers = thread_count(workers, n_tasks);
    if workers <= 1 {
        return (0..n_tasks).map(run_task).collect();
    }
    let mut out: Vec<Option<U>> = (0..n_tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let run_task = &run_task;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..n_tasks)
                        .step_by(workers)
                        .map(|t| (t, run_task(t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (t, value) in handle.join().expect("parallel worker panicked") {
                out[t] = Some(value);
            }
        }
    });
    out.into_iter().map(|v| v.expect("every task runs exactly once")).collect()
}

/// [`par_map_seeded`] with per-task panic isolation.
///
/// Each task body runs under `catch_unwind`, so a panicking task aborts
/// only itself — the other tasks (including ones scheduled on the same
/// worker thread) still run to completion. On success the output is
/// **bit-identical** to [`par_map_seeded`] for every worker count: the
/// seeding, the strided schedule, and the task-order reduction are all
/// unchanged. On failure the error names the lowest-indexed panicking
/// task, again independent of worker count and thread timing.
///
/// # Panics
/// Panics when `workers == 0`. Task panics are returned, not propagated.
pub fn try_par_map_seeded<U, F>(
    n_tasks: usize,
    seed: u64,
    workers: usize,
    f: F,
) -> Result<Vec<U>, TaskPanic>
where
    U: Send,
    F: Fn(usize, &mut StdRng) -> U + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    let run_task = |t: usize| -> Result<U, TaskPanic> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut rng = StdRng::seed_from_u64(child_seed(seed, t as u64));
            f(t, &mut rng)
        }))
        .map_err(|payload| TaskPanic { task: t, message: panic_message(payload) })
    };
    let workers = thread_count(workers, n_tasks);
    if workers <= 1 {
        return (0..n_tasks).map(run_task).collect();
    }
    let mut out: Vec<Option<Result<U, TaskPanic>>> = (0..n_tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let run_task = &run_task;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..n_tasks)
                        .step_by(workers)
                        .map(|t| (t, run_task(t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            // Worker threads never panic themselves — every task body is
            // caught — so this join only fails on executor bugs.
            for (t, value) in handle.join().expect("worker bodies are panic-free") {
                out[t] = Some(value);
            }
        }
    });
    out.into_iter().map(|v| v.expect("every task runs exactly once")).collect()
}

/// Element-wise sum reduction for the common "each chunk returns partial
/// sums" pattern. Summation runs in chunk order, preserving bit-exact
/// determinism.
pub fn sum_partials(partials: Vec<Vec<f64>>) -> Vec<f64> {
    let mut iter = partials.into_iter();
    let Some(mut acc) = iter.next() else {
        return Vec::new();
    };
    for partial in iter {
        assert_eq!(partial.len(), acc.len(), "partial length mismatch");
        for (a, p) in acc.iter_mut().zip(&partial) {
            *a += p;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngCore;
    use crate::Rng;

    #[test]
    fn worker_count_invariance() {
        let run = |workers| {
            par_map_seeded(13, 42, workers, |t, rng| (t, rng.gen::<f64>(), rng.next_u64()))
        };
        let one = run(1);
        for workers in [2, 3, 4, 16] {
            assert_eq!(one, run(workers), "workers={workers} diverged");
        }
    }

    #[test]
    fn tasks_get_independent_streams() {
        let draws = par_map_seeded(4, 9, 2, |_, rng| rng.next_u64());
        for i in 0..draws.len() {
            for j in i + 1..draws.len() {
                assert_ne!(draws[i], draws[j]);
            }
        }
    }

    #[test]
    fn sum_partials_is_ordered_and_exact() {
        assert_eq!(sum_partials(vec![]), Vec::<f64>::new());
        let s = sum_partials(vec![vec![1.0, 2.0], vec![0.5, -2.0]]);
        assert_eq!(s, vec![1.5, 0.0]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let out = par_map_seeded(2, 1, 8, |t, _| t);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn thread_count_is_capped_by_tasks_and_max_threads() {
        let huge = u32::MAX as usize;
        assert_eq!(thread_count(huge, huge), MAX_THREADS);
        assert_eq!(thread_count(huge, 3), 3);
        assert_eq!(thread_count(2, huge), 2);
        assert_eq!(thread_count(4, 0), 0);
    }

    #[test]
    fn try_variant_is_bit_identical_when_fault_free() {
        for workers in [1, 2, 4] {
            let plain =
                par_map_seeded(13, 42, workers, |t, rng| (t, rng.gen::<f64>(), rng.next_u64()));
            let tried =
                try_par_map_seeded(13, 42, workers, |t, rng| (t, rng.gen::<f64>(), rng.next_u64()))
                    .expect("fault-free run");
            assert_eq!(plain, tried, "workers={workers} diverged");
        }
    }

    #[test]
    fn try_variant_reports_lowest_panicking_task() {
        for workers in [1, 2, 4] {
            let err = try_par_map_seeded(9, 3, workers, |t, _| {
                if t == 5 || t == 7 {
                    panic!("task {t} exploded");
                }
                t
            })
            .expect_err("tasks 5 and 7 panic");
            assert_eq!(err.task, 5, "workers={workers}: lowest task wins");
            assert_eq!(err.message, "task 5 exploded");
        }
    }

    #[test]
    fn panicking_task_does_not_poison_its_worker_siblings() {
        // With 2 workers, tasks 0, 2, 4 share a thread; task 0's panic
        // must not take tasks 2 and 4 down with it.
        let err = try_par_map_seeded(5, 1, 2, |t, _| {
            assert!(t != 0, "task 0 exploded");
            t
        })
        .expect_err("task 0 panics");
        assert_eq!(err.task, 0);
        assert!(err.message.contains("task 0 exploded"));
    }
}
