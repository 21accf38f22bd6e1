//! A small fixed-size worker pool for asynchronous one-way message
//! delivery (thread-per-message would melt under the notification
//! benches), plus a byte-buffer pool the socket transports use to
//! render each envelope once without a fresh allocation per message.

use crossbeam::channel::{unbounded, Sender};
use std::io::Read;
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Buffers larger than this are dropped instead of pooled, so one huge
/// file-staging message can't pin megabytes of idle capacity forever.
const MAX_POOLED_CAPACITY: usize = 4 << 20;

/// At most this many idle buffers are retained.
const MAX_POOLED_BUFFERS: usize = 8;

/// The most a peer's claimed length (a frame header, a
/// `Content-Length`) may reserve before any of the payload has arrived;
/// a longer payload grows the buffer with the bytes actually received.
pub(crate) const FIRST_RESERVE: usize = 64 << 10;

/// Read exactly `len` bytes into the reusable `into` (cleared first).
/// Reads straight into spare capacity (nothing is zero-filled); a
/// payload that fits the reservation arrives in one read, and the
/// `take` answers the end-of-payload probe without touching the socket.
/// A peer that closes early is an `UnexpectedEof` naming both counts.
pub(crate) fn read_sized(r: &mut impl Read, len: usize, into: &mut Vec<u8>) -> std::io::Result<()> {
    into.clear();
    into.reserve(len.min(FIRST_RESERVE));
    let got = r.take(len as u64).read_to_end(into)?;
    if got < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("connection closed {got} bytes into a {len}-byte payload"),
        ));
    }
    Ok(())
}

/// Let go of a worker-owned buffer that one huge message grew, under
/// the rule [`BufPool::put`] applies to pooled ones.
pub(crate) fn release_oversized(buf: &mut Vec<u8>) {
    if buf.capacity() > MAX_POOLED_CAPACITY {
        *buf = Vec::new();
    }
}

/// A tiny pool of reusable `Vec<u8>` wire buffers.
///
/// `take` hands out a cleared buffer (recycled when available, fresh
/// otherwise); `put` returns it. Amortizes render-buffer allocations on
/// the HTTP and framed-TCP clients, where calls from many threads share
/// one connection.
#[derive(Default)]
pub struct BufPool {
    slots: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    pub fn new() -> Self {
        BufPool::default()
    }

    /// A cleared buffer, recycled when one is idle.
    pub fn take(&self) -> Vec<u8> {
        let mut buf = self
            .slots
            .lock()
            .expect("buffer pool poisoned")
            .pop()
            .unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer for reuse. Oversized or surplus buffers are
    /// simply dropped.
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let mut slots = self.slots.lock().expect("buffer pool poisoned");
        if slots.len() < MAX_POOLED_BUFFERS {
            slots.push(buf);
        }
    }
}

type Task = Box<dyn FnOnce() + Send>;

/// Fixed-size thread pool. Tasks run FIFO across workers.
pub struct ThreadPool {
    tx: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `n` workers (at least 1).
    pub fn new(n: usize, label: &str) -> Self {
        let (tx, rx) = unbounded::<Task>();
        let workers = (0..n.max(1))
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("{label}-{i}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            task();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Enqueue a task.
    pub fn execute(&self, task: impl FnOnce() + Send + 'static) {
        self.execute_all([task]);
    }

    /// Enqueue several tasks as one submission: they join the queue
    /// together, in order, and idle workers are woken once for the
    /// batch — at most one per task, none when every worker is busy —
    /// instead of the submitter being preempted between tasks.
    pub fn execute_all<F>(&self, tasks: impl IntoIterator<Item = F>)
    where
        F: FnOnce() + Send + 'static,
    {
        if let Some(tx) = &self.tx {
            tx.send_all(tasks.into_iter().map(|t| Box::new(t) as Task));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the channel; workers drain remaining tasks then exit.
        self.tx.take();
        // A task can own the last handle to the pool, so this may run
        // on a worker. Joining oneself fails ("Resource deadlock
        // avoided"); that worker is detached instead, and the closed
        // channel ends it once the task returns.
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_all_tasks() {
        let pool = ThreadPool::new(4, "test");
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = count.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drains
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn execute_all_runs_every_task_in_submission_order() {
        // One worker, so the order tasks ran in is the order they were
        // queued in.
        let pool = ThreadPool::new(1, "batch");
        let ran = Arc::new(Mutex::new(Vec::new()));
        let push = |i: usize| {
            let ran = ran.clone();
            move || ran.lock().unwrap().push(i)
        };
        pool.execute(push(0));
        pool.execute_all((1..50).map(push));
        pool.execute_all(Vec::<fn()>::new());
        pool.execute(push(50));
        drop(pool); // drains
        assert_eq!(*ran.lock().unwrap(), (0..=50).collect::<Vec<_>>());
    }

    #[test]
    fn last_handle_dropped_by_a_task_does_not_join_itself() {
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let pool = Arc::new(ThreadPool::new(2, "selfdrop"));
        let count = Arc::new(AtomicUsize::new(0));
        let (release, released) = channel::<()>();
        let (done_tx, done) = channel::<usize>();
        let owned = pool.clone();
        let seen = count.clone();
        pool.execute(move || {
            // Hold this worker until the test thread has let go, so
            // `owned` is the last handle and `drop` runs right here.
            released.recv().unwrap();
            drop(owned);
            // Not reached if `drop` panicked; the other worker was
            // joined, so it has drained the queue by now.
            done_tx.send(seen.load(Ordering::SeqCst)).unwrap();
        });
        for _ in 0..10 {
            let c = count.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        release.send(()).unwrap();
        let ran = done
            .recv_timeout(Duration::from_secs(10))
            .expect("ThreadPool::drop panicked on its own worker");
        assert_eq!(ran, 10, "queued tasks ran before drop returned");
    }

    #[test]
    fn buf_pool_recycles_and_clears() {
        let pool = BufPool::new();
        let mut b = pool.take();
        b.extend_from_slice(b"payload");
        let cap = b.capacity();
        pool.put(b);
        let again = pool.take();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "recycled the same allocation");
    }

    #[test]
    fn buf_pool_drops_oversized_buffers() {
        let pool = BufPool::new();
        pool.put(Vec::with_capacity(super::MAX_POOLED_CAPACITY + 1));
        assert_eq!(pool.take().capacity(), 0);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let pool = ThreadPool::new(0, "clamp");
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.execute(move || {
            d.store(1, Ordering::SeqCst);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
