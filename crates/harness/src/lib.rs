//! Harness utilities shared by the workspace-level examples
//! (`examples/*.rs` at the repository root), the cross-crate integration
//! tests (`tests/*.rs`), and the CLI's experiment drivers.
//!
//! The main export is [`run_grid`]: a parallel driver for sweeps over
//! independent simulated-machine runs. Every run simulates its whole
//! machine on the worker thread that claimed it, so `jobs` bounds the
//! host threads a sweep occupies whatever the machine sizes.
//!
//! Determinism: each run's virtual-time results depend only on its own
//! configuration (see the `cubemm-simnet` crate docs), and [`run_grid`]
//! returns results indexed exactly like its input slice, so a grid's
//! output is bitwise identical at any `jobs` value — property-tested by
//! the workspace determinism suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod chaos;
pub mod recovery;

/// Runs every task of a grid, `jobs` at a time.
///
/// `run(task)` executes one grid point. Tasks are claimed in input
/// order; results are returned indexed exactly like `tasks`, so the
/// output (and anything printed from it afterwards) is independent of
/// `jobs` and of worker interleaving.
///
/// `jobs <= 1` (or a single task) degenerates to a plain serial loop on
/// the calling thread — the serial path stays exercised, and callers can
/// expose `--jobs 1` as the conservative default.
///
/// # Panics
///
/// A panicking task propagates out of `run_grid` after the remaining
/// workers drain (as the scope's generic "a scoped thread panicked").
pub fn run_grid<T, R, F>(tasks: &[T], jobs: usize, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(tasks.len().max(1));
    if jobs == 1 {
        return tasks.iter().map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks.len() {
                    break;
                }
                let result = run(&tasks[i]);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            #[allow(
                clippy::expect_used,
                reason = "a task that failed would have panicked the scope above; \
                          every surviving slot is filled"
            )]
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every grid slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_results_keep_input_order_at_any_job_count() {
        let tasks: Vec<usize> = (0..37).collect();
        let serial = run_grid(&tasks, 1, |&t| t * t);
        for jobs in [2, 4, 8] {
            let parallel = run_grid(&tasks, jobs, |&t| t * t);
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn panicking_task_propagates() {
        let tasks = [0usize, 1, 2];
        let _ = run_grid(&tasks, 2, |&t| {
            if t == 1 {
                panic!("grid task panicked");
            }
            t
        });
    }
}
