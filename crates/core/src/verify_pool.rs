//! A bounded worker pool for batched signature verification.
//!
//! The PoA hot path spends almost all of its time in RSA signature
//! checks (paper §V), and those checks are independent per entry — so a
//! submission's entries can fan out across cores. [`VerifyPool`] owns a
//! fixed set of worker threads shared by every in-flight request: one
//! pool per server, not per connection, so concurrent submissions share
//! the same bounded CPU budget instead of oversubscribing.
//!
//! # Batch semantics
//!
//! [`first_failure`](VerifyPool::first_failure) returns the **lowest**
//! index whose check fails, exactly like the serial
//! `for`-loop-with-early-return it replaces — verdicts are equivalent by
//! construction (proved across seeds in `tests/verify_pipeline.rs`).
//! Workers claim indices from a shared cursor in ascending order and
//! stop claiming once a failure below the cursor is known, so a forged
//! signature at the front aborts the batch about as fast as the serial
//! path would.
//!
//! The submitting thread participates in its own batch, which keeps the
//! pool deadlock-free under load: even with every worker busy on other
//! batches, a batch always makes progress on its caller's thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use alidrone_obs::{Counter, Histogram, Obs};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state for one batch: the claim cursor, the lowest failing
/// index seen so far, and a countdown of outstanding worker shares.
struct BatchState {
    cursor: AtomicUsize,
    /// `usize::MAX` = no failure yet. Only ever lowered (`fetch_min`).
    min_fail: AtomicUsize,
    pending: Mutex<usize>,
    done: Condvar,
}

impl BatchState {
    /// Drains the cursor: claims ascending indices, runs `check`, and
    /// records the lowest failure. Stops early once every index it could
    /// claim is above a known failure.
    fn run_share<T, F>(&self, items: &[T], check: &F)
    where
        F: Fn(usize, &T) -> bool,
    {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() || i > self.min_fail.load(Ordering::Relaxed) {
                // Indices only grow and min_fail only shrinks, so
                // nothing this share could still claim can matter.
                break;
            }
            if !check(i, &items[i]) {
                self.min_fail.fetch_min(i, Ordering::Relaxed);
            }
        }
    }

    fn finish_share(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Decrements the batch countdown even if a check panics, so the
/// submitting thread can never be left waiting forever.
struct ShareGuard<'a>(&'a BatchState);

impl Drop for ShareGuard<'_> {
    fn drop(&mut self) {
        self.0.finish_share();
    }
}

/// A fixed-size pool of verification workers shared across requests.
///
/// Dropping the pool closes the job channel and joins every worker;
/// in-flight batches complete first (the caller of each batch blocks
/// until its own batch is done, so a batch can never outlive its items).
pub struct VerifyPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    obs: Obs,
    batches: Arc<Counter>,
    entries: Arc<Counter>,
    early_aborts: Arc<Counter>,
    batch_latency: Arc<Histogram>,
}

impl std::fmt::Debug for VerifyPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyPool")
            .field("threads", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl VerifyPool {
    /// Spawns `threads` workers (clamped to ≥ 1). Batch metrics —
    /// `auditor.verify_batch.{batches,entries,early_aborts}` counters
    /// (entries per batch is `entries / batches`), the
    /// `auditor.verify_batch.latency_us` histogram and the per-batch
    /// `auditor.verify_batch` span — are registered on `obs`.
    pub fn new(threads: usize, obs: &Obs) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("verify-pool-{i}"))
                    .spawn(move || loop {
                        // Errors only when the sender is dropped: shutdown.
                        let job = {
                            let rx = rx.lock().unwrap_or_else(|p| p.into_inner());
                            rx.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn verify worker")
            })
            .collect();
        VerifyPool {
            tx: Some(tx),
            workers,
            obs: obs.clone(),
            batches: obs.counter("auditor.verify_batch.batches"),
            entries: obs.counter("auditor.verify_batch.entries"),
            early_aborts: obs.counter("auditor.verify_batch.early_aborts"),
            batch_latency: obs.histogram("auditor.verify_batch.latency_us"),
        }
    }

    /// Sizes a pool to the machine: one worker per available core
    /// (minimum 1).
    pub fn for_machine(obs: &Obs) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        VerifyPool::new(threads, obs)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `check` over every item, fanned across the pool plus the
    /// calling thread, and returns the lowest index for which it
    /// returned `false` — `None` when every check passed. Blocks until
    /// the batch is resolved.
    ///
    /// `items` and `check` are shared with worker threads by `Arc`, so
    /// the batch borrows nothing from the caller's stack.
    pub fn first_failure<T, F>(&self, items: Arc<Vec<T>>, check: Arc<F>) -> Option<usize>
    where
        T: Send + Sync + 'static,
        F: Fn(usize, &T) -> bool + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return None;
        }
        let span = self.obs.enter_span("auditor.verify_batch");
        let started = Instant::now();
        self.batches.add(1);
        self.entries.add(n as u64);
        // One share per worker plus one for this thread, never more
        // shares than items.
        let shares = (self.workers.len() + 1).min(n);
        let state = Arc::new(BatchState {
            cursor: AtomicUsize::new(0),
            min_fail: AtomicUsize::new(usize::MAX),
            pending: Mutex::new(shares),
            done: Condvar::new(),
        });
        if let Some(tx) = &self.tx {
            for _ in 1..shares {
                let job_state = Arc::clone(&state);
                let items = Arc::clone(&items);
                let check = Arc::clone(&check);
                let job: Job = Box::new(move || {
                    let _guard = ShareGuard(&job_state);
                    job_state.run_share(&items, &*check);
                });
                if tx.send(job).is_err() {
                    // Pool shutting down: the share was never queued, so
                    // retire it here and let the caller's share drain
                    // the whole batch.
                    state.finish_share();
                }
            }
        }
        {
            let _guard = ShareGuard(&state);
            state.run_share(&items, &*check);
        }
        let mut pending = state.pending.lock().unwrap_or_else(|p| p.into_inner());
        while *pending > 0 {
            pending = state.done.wait(pending).unwrap_or_else(|p| p.into_inner());
        }
        self.batch_latency
            .record_micros(started.elapsed().as_micros() as u64);
        drop(span);
        let min_fail = state.min_fail.load(Ordering::Relaxed);
        if min_fail == usize::MAX {
            None
        } else {
            if state.cursor.load(Ordering::Relaxed) < n + shares {
                self.early_aborts.add(1);
            }
            Some(min_fail)
        }
    }
}

impl Drop for VerifyPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with RecvError.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(threads: usize) -> VerifyPool {
        VerifyPool::new(threads, &Obs::noop())
    }

    #[test]
    fn all_pass_returns_none() {
        let p = pool(4);
        let items: Arc<Vec<u32>> = Arc::new((0..100).collect());
        assert_eq!(p.first_failure(items, Arc::new(|_, _: &u32| true)), None);
    }

    #[test]
    fn lowest_failing_index_wins() {
        let p = pool(4);
        let items: Arc<Vec<u32>> = Arc::new((0..500).collect());
        // Multiple failures: the serial answer is the lowest.
        let result = p.first_failure(
            Arc::clone(&items),
            Arc::new(|i, _: &u32| !(i == 7 || i == 3 || i >= 100)),
        );
        assert_eq!(result, Some(3));
    }

    #[test]
    fn empty_batch_is_none() {
        let p = pool(2);
        assert_eq!(
            p.first_failure(Arc::new(Vec::<u32>::new()), Arc::new(|_, _: &u32| false)),
            None
        );
    }

    #[test]
    fn single_worker_matches_serial() {
        let p = pool(1);
        let items: Arc<Vec<u32>> = Arc::new((0..20).collect());
        assert_eq!(
            p.first_failure(items, Arc::new(|_, v: &u32| *v != 11)),
            Some(11)
        );
    }

    #[test]
    fn metrics_count_batches_and_entries() {
        let obs = Obs::noop();
        let p = VerifyPool::new(2, &obs);
        let items: Arc<Vec<u32>> = Arc::new((0..10).collect());
        p.first_failure(Arc::clone(&items), Arc::new(|_, _: &u32| true));
        p.first_failure(items, Arc::new(|_, _: &u32| true));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("auditor.verify_batch.batches"), 2);
        assert_eq!(snap.counter("auditor.verify_batch.entries"), 20);
    }

    #[test]
    fn pool_survives_many_concurrent_batches() {
        let p = Arc::new(pool(3));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for round in 0..10 {
                        let fail_at = (t * 10 + round) % 13;
                        let items: Arc<Vec<usize>> = Arc::new((0..50).collect());
                        let got =
                            p.first_failure(items, Arc::new(move |i, _: &usize| i != fail_at));
                        assert_eq!(got, Some(fail_at));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
