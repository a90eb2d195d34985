//! The sharded, bounded work queue behind the server.
//!
//! Jobs are hashed onto `N` shards; each shard owns **one worker thread**
//! and a bounded FIFO queue. Because a given key always lands on the
//! same shard and a shard executes strictly in order, all work for one
//! program is serialized — the first (cold) analysis warms the shared
//! reuse plane and every queued duplicate behind it is answered from the
//! memory tier — while distinct programs on distinct shards proceed
//! concurrently.
//!
//! Backpressure is explicit: a submission to a full queue fails
//! immediately with [`SubmitError::Overloaded`] (carrying the job back to
//! the caller) instead of blocking the accept path; the server turns that
//! into an overload response the client can retry.
//!
//! Shutdown **drains**: new submissions are refused with
//! [`SubmitError::ShuttingDown`], but every job already queued is still
//! executed before the workers exit, so in-flight requests always get
//! their response.
//!
//! Queue locks recover from poisoning: the server catches panics inside
//! the *job* (`catch_unwind` around the handler's analysis), but a panic
//! on any other worker path must not wedge the shard — a poisoned queue
//! mutex holds plain `VecDeque` state that is valid at every await
//! point, so every lock here takes `PoisonError::into_inner` instead of
//! propagating the poison to innocent submitters.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Why a submission was refused. The rejected job rides back to the
/// caller so it can be answered (or retried) without cloning.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The target shard's queue is at capacity.
    Overloaded {
        /// The refused job.
        job: T,
        /// The shard that was full.
        shard: usize,
        /// Its queue depth at refusal time (== capacity).
        depth: usize,
    },
    /// The pool is draining and accepts no new work.
    ShuttingDown {
        /// The refused job.
        job: T,
    },
}

struct ShardQueue<T> {
    jobs: VecDeque<T>,
    shutdown: bool,
}

struct ShardState<T> {
    queue: Mutex<ShardQueue<T>>,
    ready: Condvar,
}

/// A fixed set of single-worker shards with bounded queues. See the
/// [module docs](self) for the scheduling and shutdown contract.
pub struct ShardPool<T: Send + 'static> {
    shards: Vec<Arc<ShardState<T>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    capacity: usize,
}

impl<T: Send + 'static> ShardPool<T> {
    /// Spawns `shards` workers, each running `handler(shard_index, job)`
    /// for every job its queue receives. `capacity` bounds each queue.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `capacity` is zero.
    pub fn new<F>(shards: usize, capacity: usize, handler: F) -> Self
    where
        F: Fn(usize, T) + Send + Sync + 'static,
    {
        assert!(shards > 0, "a pool needs at least one shard");
        assert!(capacity > 0, "a zero-capacity queue rejects everything");
        let handler = Arc::new(handler);
        let states: Vec<Arc<ShardState<T>>> = (0..shards)
            .map(|_| {
                Arc::new(ShardState {
                    queue: Mutex::new(ShardQueue {
                        jobs: VecDeque::new(),
                        shutdown: false,
                    }),
                    ready: Condvar::new(),
                })
            })
            .collect();
        let workers = states
            .iter()
            .enumerate()
            .map(|(index, state)| {
                let state = Arc::clone(state);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
                        loop {
                            if let Some(job) = queue.jobs.pop_front() {
                                break Some(job);
                            }
                            if queue.shutdown {
                                break None;
                            }
                            queue = state
                                .ready
                                .wait(queue)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    match job {
                        Some(job) => handler(index, job),
                        None => return,
                    }
                })
            })
            .collect();
        Self {
            shards: states,
            workers: Mutex::new(workers),
            capacity,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard a key is routed to (stable for the pool's lifetime).
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Enqueues `job` on the shard owning `key`.
    ///
    /// Returns the shard index on success.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when that shard's queue is full,
    /// [`SubmitError::ShuttingDown`] after [`shutdown`](Self::shutdown)
    /// began — both return the job to the caller.
    pub fn submit(&self, key: u64, job: T) -> Result<usize, SubmitError<T>> {
        let shard = self.shard_of(key);
        let state = &self.shards[shard];
        let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.shutdown {
            return Err(SubmitError::ShuttingDown { job });
        }
        if queue.jobs.len() >= self.capacity {
            let depth = queue.jobs.len();
            return Err(SubmitError::Overloaded { job, shard, depth });
        }
        queue.jobs.push_back(job);
        state.ready.notify_one();
        Ok(shard)
    }

    /// Jobs currently queued across all shards (excluding the one each
    /// worker may be executing).
    pub fn queued(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .jobs
                    .len()
            })
            .sum()
    }

    /// Drains and stops the pool: refuses new submissions, lets every
    /// queued job run to completion, and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        for state in &self.shards {
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.shutdown = true;
            state.ready.notify_all();
        }
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl<T: Send + 'static> Drop for ShardPool<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn same_key_routes_to_the_same_shard() {
        let pool: ShardPool<u64> = ShardPool::new(4, 8, |_, _| {});
        for key in [0u64, 1, 17, u64::MAX, 0xdead_beef] {
            assert_eq!(pool.shard_of(key), pool.shard_of(key));
            assert!(pool.shard_of(key) < 4);
        }
        // Distinct residues land on distinct shards.
        assert_ne!(pool.shard_of(0), pool.shard_of(1));
        pool.shutdown();
    }

    #[test]
    fn jobs_on_one_shard_run_in_submission_order() {
        let (tx, rx) = mpsc::channel::<u32>();
        let pool: ShardPool<u32> = ShardPool::new(2, 64, move |_, job| {
            tx.send(job).unwrap();
        });
        for i in 0..32 {
            pool.submit(0, i).unwrap(); // all on shard 0
        }
        pool.shutdown();
        let order: Vec<u32> = rx.try_iter().collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn full_queue_overloads_deterministically() {
        // Gate the worker so the first job blocks in the handler; the
        // queue then holds exactly `capacity` jobs and the next submit
        // must be refused with the shard's depth.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let done = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&done);
        let pool: ShardPool<u32> = ShardPool::new(1, 2, move |_, _| {
            gate_rx.lock().unwrap().recv().unwrap();
            counted.fetch_add(1, Ordering::Relaxed);
        });
        pool.submit(0, 0).unwrap(); // picked up by the worker, blocks
                                    // Give the worker a moment to pop the first job.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.queued() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        pool.submit(0, 1).unwrap();
        pool.submit(0, 2).unwrap();
        match pool.submit(0, 3) {
            Err(SubmitError::Overloaded { job, shard, depth }) => {
                assert_eq!((job, shard, depth), (3, 0, 2));
            }
            other => panic!("expected overload, got {other:?}"),
        }
        // Unblock all three jobs and drain.
        for _ in 0..3 {
            gate_tx.send(()).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_refuses_new_ones() {
        let (tx, rx) = mpsc::channel::<u32>();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let pool: ShardPool<u32> = ShardPool::new(1, 16, move |_, job| {
            gate_rx.lock().unwrap().recv().unwrap();
            tx.send(job).unwrap();
        });
        for i in 0..5 {
            pool.submit(0, i).unwrap();
        }
        // Release the gate from a helper thread while shutdown drains.
        let feeder = std::thread::spawn(move || {
            for _ in 0..5 {
                gate_tx.send(()).unwrap();
            }
        });
        pool.shutdown();
        feeder.join().unwrap();
        assert_eq!(
            rx.try_iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "every queued job drains before exit"
        );
        match pool.submit(0, 99) {
            Err(SubmitError::ShuttingDown { job }) => assert_eq!(job, 99),
            other => panic!("expected shutdown refusal, got {other:?}"),
        }
    }

    #[test]
    fn distinct_shards_run_concurrently() {
        // Two jobs that can only finish if both run at once: each waits
        // for the other's token. On a serialized pool this deadlocks (and
        // the test would time out); on two shards it completes.
        let (tx_a, rx_a) = mpsc::channel::<()>();
        let (tx_b, rx_b) = mpsc::channel::<()>();
        let sides = Mutex::new(vec![(tx_a, rx_b), (tx_b, rx_a)]);
        let done = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&done);
        let pool: ShardPool<()> = ShardPool::new(2, 4, move |_, ()| {
            let (tx, rx) = sides.lock().unwrap().pop().unwrap();
            tx.send(()).unwrap();
            rx.recv_timeout(Duration::from_secs(30)).unwrap();
            counted.fetch_add(1, Ordering::Relaxed);
        });
        pool.submit(0, ()).unwrap();
        pool.submit(1, ()).unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _: ShardPool<()> = ShardPool::new(0, 1, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _: ShardPool<()> = ShardPool::new(1, 0, |_, _| {});
    }
}
