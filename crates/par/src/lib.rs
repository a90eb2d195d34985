//! Deterministic fork–join parallelism for the analysis pipeline.
//!
//! The build image cannot fetch rayon, so this crate provides the small
//! fork–join slice the pipeline needs on plain `std::thread::scope`: a
//! work-stealing-free shared-counter [`par_map`] whose output is
//! **bit-identical** to the sequential map (results land in input order,
//! and the mapped function runs exactly once per item).
//!
//! [`Parallelism`] is the user-facing knob carried in the analysis
//! configuration: `Sequential` (the reference mode), `Auto` (one worker
//! per available core, overridable with the `PWCET_THREADS` environment
//! variable; resolved once per process), or an explicit thread count.
//!
//! [`Memo`] is the one bounded memo every in-process cache of the
//! pipeline is built on.
//!
//! # Example
//!
//! ```
//! use pwcet_par::{par_map, Parallelism};
//!
//! let squares = par_map(Parallelism::threads(4), &[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! let same = par_map(Parallelism::Sequential, &[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, same);
//! ```

mod memo;

pub use memo::{Admission, Memo, MemoStats};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// How a fan-out stage schedules its work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run items in order on the calling thread (the reference mode the
    /// property tests compare against).
    Sequential,
    /// One worker per available core; the `PWCET_THREADS` environment
    /// variable overrides the count when set to a positive integer. Both
    /// are read once, on the first `Auto` resolution of the process.
    Auto,
    /// Exactly this many workers.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// An explicit thread count (`Sequential` when `threads` is 0 or 1).
    pub fn threads(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            Some(n) if n.get() > 1 => Self::Threads(n),
            _ => Self::Sequential,
        }
    }

    /// The number of workers a stage with `items` work items will use.
    pub fn worker_count(self, items: usize) -> usize {
        let configured = match self {
            Self::Sequential => 1,
            Self::Auto => auto_workers(),
            Self::Threads(n) => n.get(),
        };
        configured.min(items).max(1)
    }
}

/// The worker count of [`Parallelism::Auto`]: `PWCET_THREADS` when it
/// holds a positive integer, else the available core count. Resolved once
/// per process: `available_parallelism` reads cgroup limits, which costs
/// more than a small fan-out it would schedule.
fn auto_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("PWCET_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    })
}

impl Default for Parallelism {
    /// [`Parallelism::Auto`].
    fn default() -> Self {
        Self::Auto
    }
}

/// Maps `f` over `items`, fanning out across worker threads.
///
/// The result vector is in input order and bit-identical to
/// `items.iter().map(f).collect()` whenever `f` is deterministic: every
/// item is processed exactly once and its output is stored at the item's
/// index. A panic in `f` propagates to the caller.
pub fn par_map<T, U, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = parallelism.worker_count(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                let output = f(item);
                *slots[index].lock().expect("no poisoned slot") = Some(output);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned slot")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

/// Runs two heterogeneous jobs, concurrently when `parallelism` allows.
///
/// The building block for pipeline stages with exactly two independent
/// tasks of different shapes — e.g. the incremental classification chain
/// and the SRB fixpoint of `AnalysisContext::prewarm`, where the chain is
/// inherently sequential (each level seeds the next) but independent of
/// the SRB analysis. Results are returned in argument order, so the
/// output is identical in every mode.
pub fn par_join<A, B, FA, FB>(parallelism: Parallelism, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if parallelism.worker_count(2) <= 1 {
        return (fa(), fb());
    }
    std::thread::scope(|scope| {
        let b = scope.spawn(fb);
        let a = fa();
        let b = b
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (a, b)
    })
}

/// Runs `f` for every index in `0..count` in parallel, discarding outputs.
pub fn par_for_each_index<F>(parallelism: Parallelism, count: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let indices: Vec<usize> = (0..count).collect();
    par_map(parallelism, &indices, |&i| f(i));
}

/// Drains a dynamically growing work pool across worker threads.
///
/// Unlike [`par_map`], the work list is not fixed up front: handling one
/// item may produce follow-up items (`f` pushes them into its out
/// parameter), which land back in the shared pool — the shape of
/// branch-and-bound subtree exploration, where every node may spawn two
/// children. Each worker owns a mutable state built once by `init`
/// (e.g. a cloned solver basis), so items never contend on shared
/// scratch.
///
/// The pool is drained LIFO; with one worker the traversal is exactly
/// the depth-first order of a sequential loop. The first `Err` returned
/// by `f` stops the drain: queued items are discarded, in-flight items
/// finish, and that error is returned.
pub fn par_drain<S, T, E, FI, F>(
    parallelism: Parallelism,
    seed: Vec<T>,
    init: FI,
    f: F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, T, &mut Vec<T>) -> Result<(), E> + Sync,
{
    // The pool grows dynamically, so size the crew by the configured
    // parallelism rather than the seed length; idle workers park on the
    // condvar until items (or the end) arrive.
    let workers = parallelism.worker_count(usize::MAX);
    if workers <= 1 {
        let mut state = init();
        let mut stack = seed;
        let mut out = Vec::new();
        while let Some(item) = stack.pop() {
            f(&mut state, item, &mut out)?;
            stack.append(&mut out);
        }
        return Ok(());
    }

    struct Pool<T, E> {
        queue: Vec<T>,
        active: usize,
        stopped: bool,
        error: Option<E>,
    }
    let pool = Mutex::new(Pool {
        queue: seed,
        active: 0,
        stopped: false,
        error: None,
    });
    let idle = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Lazy: a worker that never dequeues (small trees, many
                // cores) never pays for `init` — in the branch-and-bound
                // case that is a clone of a dense basis inverse.
                let mut state: Option<S> = None;
                let mut out = Vec::new();
                loop {
                    let item = {
                        let mut guard = pool.lock().expect("pool lock");
                        loop {
                            if guard.stopped || (guard.queue.is_empty() && guard.active == 0) {
                                return;
                            }
                            if let Some(item) = guard.queue.pop() {
                                guard.active += 1;
                                break item;
                            }
                            guard = idle.wait(guard).expect("pool lock");
                        }
                    };
                    // A panic in `f` must not strand peers parked on the
                    // condvar behind a stale `active` count: catch it,
                    // mark the pool stopped, wake everyone, and resume
                    // unwinding so the scope propagates the panic.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        f(state.get_or_insert_with(&init), item, &mut out)
                    }));
                    let mut guard = pool.lock().expect("pool lock");
                    guard.active -= 1;
                    match result {
                        Ok(Ok(())) => guard.queue.append(&mut out),
                        Ok(Err(e)) => {
                            if guard.error.is_none() {
                                guard.error = Some(e);
                            }
                            guard.stopped = true;
                        }
                        Err(payload) => {
                            guard.stopped = true;
                            drop(guard);
                            idle.notify_all();
                            std::panic::resume_unwind(payload);
                        }
                    }
                    drop(guard);
                    idle.notify_all();
                }
            });
        }
    });
    let pool = pool.into_inner().expect("pool lock");
    pool.error.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..257).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::threads(2),
            Parallelism::threads(7),
        ] {
            assert_eq!(par_map(parallelism, &items, |&x| x * x + 1), sequential);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(Parallelism::threads(4), &[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_clamped_to_items() {
        assert_eq!(Parallelism::threads(8).worker_count(3), 3);
        assert_eq!(Parallelism::threads(8).worker_count(0), 1);
        assert_eq!(Parallelism::Sequential.worker_count(100), 1);
        assert!(Parallelism::Auto.worker_count(100) >= 1);
    }

    #[test]
    fn auto_resolution_is_stable() {
        let first = Parallelism::Auto.worker_count(usize::MAX);
        assert!(first >= 1);
        for _ in 0..4 {
            assert_eq!(Parallelism::Auto.worker_count(usize::MAX), first);
        }
    }

    #[test]
    fn threads_normalizes_degenerate_counts() {
        assert_eq!(Parallelism::threads(0), Parallelism::Sequential);
        assert_eq!(Parallelism::threads(1), Parallelism::Sequential);
        assert_ne!(Parallelism::threads(2), Parallelism::Sequential);
    }

    #[test]
    fn for_each_index_visits_all() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        par_for_each_index(Parallelism::threads(4), hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn join_runs_both_jobs_in_every_mode() {
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::threads(2),
        ] {
            let (a, b) = par_join(parallelism, || 6 * 7, || "done".to_string());
            assert_eq!(a, 42);
            assert_eq!(b, "done");
        }
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        let left =
            std::panic::catch_unwind(|| par_join(Parallelism::threads(2), || panic!("left"), || 1));
        assert!(left.is_err());
        let right = std::panic::catch_unwind(|| {
            par_join(Parallelism::threads(2), || 1, || panic!("right"))
        });
        assert!(right.is_err());
    }

    #[test]
    fn drain_visits_generated_work_in_every_mode() {
        // Each item n < 16 spawns 2n+1 and 2n+2: a complete binary tree
        // of 31 nodes whatever the schedule.
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::threads(3),
            Parallelism::threads(8),
        ] {
            let visited: Vec<AtomicUsize> = (0..31).map(|_| AtomicUsize::new(0)).collect();
            let result: Result<(), ()> = par_drain(
                parallelism,
                vec![0usize],
                || (),
                |(), n, out| {
                    visited[n].fetch_add(1, Ordering::Relaxed);
                    if 2 * n + 2 < 31 {
                        out.push(2 * n + 1);
                        out.push(2 * n + 2);
                    }
                    Ok(())
                },
            );
            assert!(result.is_ok());
            assert!(
                visited.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                "{parallelism:?}: every generated item is processed exactly once"
            );
        }
    }

    #[test]
    fn drain_sequential_order_is_depth_first() {
        let order = Mutex::new(Vec::new());
        let result: Result<(), ()> = par_drain(
            Parallelism::Sequential,
            vec![0usize],
            || (),
            |(), n, out| {
                order.lock().unwrap().push(n);
                if n == 0 {
                    out.push(1); // pushed first, popped last
                    out.push(2); // popped first
                }
                if n == 2 {
                    out.push(3);
                }
                Ok(())
            },
        );
        assert!(result.is_ok());
        assert_eq!(*order.lock().unwrap(), vec![0, 2, 3, 1]);
    }

    #[test]
    fn drain_stops_on_error_and_returns_it() {
        for parallelism in [Parallelism::Sequential, Parallelism::threads(4)] {
            let result = par_drain(
                parallelism,
                vec![0u32],
                || (),
                |(), n, out| {
                    if n >= 5 {
                        return Err(format!("hit {n}"));
                    }
                    out.push(n + 1);
                    Ok(())
                },
            );
            assert_eq!(result, Err("hit 5".to_string()), "{parallelism:?}");
        }
    }

    #[test]
    fn drain_propagates_panics_without_hanging_peers() {
        // A panicking worker must wake parked peers and re-raise, not
        // leave them waiting on a stale active count forever.
        for parallelism in [Parallelism::Sequential, Parallelism::threads(4)] {
            let result = std::panic::catch_unwind(|| {
                let _: Result<(), ()> = par_drain(
                    parallelism,
                    vec![0u32],
                    || (),
                    |(), n, out| {
                        if n >= 3 {
                            panic!("boom at {n}");
                        }
                        out.push(n + 1);
                        Ok(())
                    },
                );
            });
            assert!(result.is_err(), "{parallelism:?}: panic must propagate");
        }
    }

    #[test]
    fn drain_with_empty_seed_returns_immediately() {
        let result: Result<(), ()> = par_drain(
            Parallelism::threads(4),
            Vec::<u8>::new(),
            || (),
            |_, _, _| Ok(()),
        );
        assert!(result.is_ok());
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_map(Parallelism::threads(2), &[1, 2, 3], |&x| {
                assert!(x < 3, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
