//! A hand-rolled thread-pool executor over `std::thread` and channels.
//!
//! Workers pull boxed jobs from a shared `mpsc` receiver; each job runs
//! under `catch_unwind` so a panicking query isolates to its request
//! instead of killing the worker (the panic is counted for `/metrics`).
//! Since the keep-alive refactor a job is a whole *connection* (the
//! server's per-socket request loop), not a single request; the
//! admission layer counts the connections waiting for a worker
//! (`Admission::queue_depth`).
//! Dropping the sender is the shutdown signal: workers drain the queue,
//! see the channel disconnect, and exit, at which point
//! [`ThreadPool::shutdown`] (or `Drop`) joins them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of named worker threads.
pub struct ThreadPool {
    sender: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    panics: Arc<AtomicU64>,
    size: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.size)
            .field("panics", &self.panic_count())
            .finish()
    }
}

impl ThreadPool {
    /// Spawn `size` workers (minimum 1) named `{name}-{index}`.
    pub fn new(name: &str, size: usize) -> ThreadPool {
        let size = size.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let panics = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let receiver = Arc::clone(&receiver);
            let panics = Arc::clone(&panics);
            let handle = thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || worker_loop(&receiver, &panics))
                .expect("spawn worker thread");
            workers.push(handle);
        }
        ThreadPool {
            sender: Mutex::new(Some(sender)),
            workers: Mutex::new(workers),
            panics,
            size,
        }
    }

    /// Queue a job. Returns `false` if the pool is shutting down.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        match &*self.sender.lock().expect("pool sender poisoned") {
            Some(sender) => sender.send(Box::new(job)).is_ok(),
            None => false,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Jobs that panicked (and were contained) so far.
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting jobs, let workers drain the
    /// queue, and join them. Idempotent.
    pub fn shutdown(&self) {
        drop(self.sender.lock().expect("pool sender poisoned").take());
        let workers = std::mem::take(&mut *self.workers.lock().expect("pool workers poisoned"));
        for handle in workers {
            // Workers contain job panics themselves; a join error would
            // mean the loop itself died, which we ignore on shutdown.
            let _ = handle.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(receiver: &Mutex<mpsc::Receiver<Job>>, panics: &AtomicU64) {
    loop {
        // Hold the lock only while waiting for a job, never while
        // running one, so other workers keep pulling.
        let job = match receiver.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match job {
            Ok(job) => {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    panics.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Sender dropped: graceful shutdown.
            Err(mpsc::RecvError) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn jobs_run_on_workers() {
        let pool = ThreadPool::new("t", 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let done_tx = done_tx.clone();
            assert!(pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                done_tx.send(()).unwrap();
            }));
        }
        for _ in 0..100 {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = ThreadPool::new("t", 2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
        // After shutdown, jobs are refused rather than silently lost.
        assert!(!pool.execute(|| {}));
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_worker() {
        let pool = ThreadPool::new("t", 1);
        pool.execute(|| panic!("job panic (expected in test output)"));
        let (tx, rx) = mpsc::channel();
        // The single worker survived the panic and still runs jobs.
        pool.execute(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 42);
        assert_eq!(pool.panic_count(), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new("t", 3);
            for _ in 0..30 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // Drop blocked until every queued job finished.
        assert_eq!(counter.load(Ordering::SeqCst), 30);
    }
}
