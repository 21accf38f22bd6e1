//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the two pieces this workspace uses:
//!
//! * [`channel`] — an unbounded MPMC channel whose `Receiver` is
//!   `Clone` (every clone drains the *same* queue, so cloned receivers
//!   act as competing consumers, exactly how the transport thread pool
//!   uses them). A send wakes a receiver only when one is parked, and
//!   `Sender::send_all` (this shim's own) queues a batch under one lock.
//! * [`thread::scope`] — scoped spawns, delegating to
//!   `std::thread::scope` with crossbeam's closure signature.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        cv: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        /// Receivers between "about to wait" and "woke and re-took the
        /// lock". Each receiver counts itself in and out, whatever woke
        /// it, so the count never undercounts the receivers blocked in
        /// `wait`: a sender that notifies `min(pushed, parked)` times
        /// may notify one already on its way (harmless) but cannot leave
        /// a blocked one behind with an item queued.
        parked: usize,
    }

    /// Sending half; cloning adds another producer.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloning adds another *competing* consumer over
    /// the same queue (MPMC), unlike `std::sync::mpsc`.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                parked: 0,
            }),
            cv: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, item: T) -> Result<(), SendError<T>> {
            self.send_all([item]);
            Ok(())
        }

        /// Queue every item under one lock, then wake one parked
        /// receiver per item (none when every receiver is busy: they
        /// find the items when they next look). Not in the published
        /// crate. `items` is consumed while the channel is locked, so
        /// pass a ready collection, not a computation.
        pub fn send_all(&self, items: impl IntoIterator<Item = T>) {
            let mut st = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            let before = st.items.len();
            st.items.extend(items);
            let wake = (st.items.len() - before).min(st.parked);
            drop(st);
            for _ in 0..wake {
                self.shared.cv.notify_one();
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut st = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            st.senders += 1;
            drop(st);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            st.senders -= 1;
            let disconnected = st.senders == 0;
            drop(st);
            if disconnected {
                self.shared.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until an item is available or every `Sender` is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(item) = st.items.pop_front() {
                    return Ok(item);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.parked += 1;
                st = self.shared.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                st.parked -= 1;
            }
        }

        /// Receivers currently counted as parked in [`recv`](Self::recv).
        #[cfg(test)]
        pub(crate) fn parked(&self) -> usize {
            let st = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            st.parked
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(item) = st.items.pop_front() {
                Ok(item)
            } else if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn len(&self) -> usize {
            let st = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            st.items.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }
}

pub mod thread {
    /// Scoped threads with crossbeam's closure signature: spawned
    /// closures receive a `&Scope` argument (unused by this shim's
    /// callers beyond nesting spawns).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let scope = self.inner;
            ScopedJoinHandle {
                inner: scope.spawn(move || f(&Scope { inner: scope })),
            }
        }
    }

    /// Runs `f` with a scope handle; all threads spawned through the
    /// scope are joined before `scope` returns. Returns `Err` if any
    /// unjoined spawned thread panicked, mirroring crossbeam.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        let result = std::thread::scope(|s| f(&Scope { inner: s }));
        Ok(result)
    }
}

pub use thread::scope;

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError, TryRecvError};
    use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn cloned_receivers_compete_for_items() {
        let (tx, rx) = unbounded::<u32>();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total = AtomicU64::new(0);
        let seen = AtomicU64::new(0);
        crate::thread::scope(|s| {
            for _ in 0..4 {
                let rx = rx.clone();
                let total = &total;
                let seen = &seen;
                s.spawn(move |_| {
                    while let Ok(v) = rx.recv() {
                        total.fetch_add(u64::from(v), Ordering::Relaxed);
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 100);
        assert_eq!(total.load(Ordering::Relaxed), (0..100u64).sum::<u64>());
    }

    #[test]
    fn recv_errors_once_senders_dropped() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    /// Poll `cond` until it holds; the 10 s bound is the watchdog that
    /// turns a lost wake-up into a failure instead of a hung test.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "watchdog: {what}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn mixed_sends_reach_competing_receivers_exactly_once() {
        const PRODUCERS: usize = 8;
        const RECEIVERS: usize = 4;
        const ITEMS: usize = 100_000;
        let (tx, rx) = unbounded::<usize>();
        let seen: Arc<Vec<AtomicU8>> = Arc::new((0..ITEMS).map(|_| AtomicU8::new(0)).collect());
        let received = Arc::new(AtomicUsize::new(0));
        let receivers: Vec<_> = (0..RECEIVERS)
            .map(|_| {
                let (rx, seen, received) = (rx.clone(), seen.clone(), received.clone());
                std::thread::spawn(move || {
                    while let Ok(i) = rx.recv() {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                        received.fetch_add(1, Ordering::Release);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    // Producer p owns the items congruent to p, sent as
                    // singles and as batches of 2..=7 in turn; the
                    // yields let the receivers run dry and park.
                    let mut mine = (p..ITEMS).step_by(PRODUCERS).peekable();
                    let mut batch = 1;
                    while mine.peek().is_some() {
                        if batch == 1 {
                            tx.send(mine.next().unwrap()).unwrap();
                        } else {
                            tx.send_all(mine.by_ref().take(batch).collect::<Vec<_>>());
                        }
                        batch = batch % 7 + 1;
                        if batch == 4 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // `tx` is still alive: only a wake-up per queued item, not the
        // disconnect broadcast, can have emptied the queue.
        eventually("items queued with receivers parked", || {
            received.load(Ordering::Acquire) == ITEMS
        });
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        assert!(rx.is_empty());
        eventually("receivers park once the queue is dry", || {
            rx.parked() == RECEIVERS
        });
        drop(tx);
        eventually("disconnect wakes every parked receiver", || {
            receivers.iter().all(|r| r.is_finished())
        });
        for r in receivers {
            r.join().unwrap();
        }
        assert_eq!(rx.parked(), 0);
    }

    #[test]
    fn parked_count_survives_wakeups_that_find_nothing() {
        // A receiver woken for an item somebody else took first is, to
        // the channel, a spurious wake-up: it must count itself out and
        // back in, so the next send still knows to wake it.
        let (tx, rx) = unbounded::<u32>();
        let got = Arc::new(AtomicUsize::new(0));
        let receiver = {
            let (rx, got) = (rx.clone(), got.clone());
            std::thread::spawn(move || {
                while rx.recv().is_ok() {
                    got.fetch_add(1, Ordering::Release);
                }
            })
        };
        let mut stolen = 0;
        for i in 0..2_000 {
            eventually("receiver parks", || rx.parked() == 1);
            let before = got.load(Ordering::Acquire);
            tx.send(i).unwrap();
            if rx.try_recv().is_ok() {
                stolen += 1; // the receiver wakes to an empty queue
            } else {
                eventually("sent item received", || {
                    got.load(Ordering::Acquire) == before + 1
                });
            }
        }
        assert!(stolen > 0, "no wake-up ever found the queue empty");
        eventually("receiver parks again", || rx.parked() == 1);
        let before = got.load(Ordering::Acquire);
        tx.send(0).unwrap();
        eventually("a send after empty wake-ups still wakes", || {
            got.load(Ordering::Acquire) == before + 1
        });
        drop(tx);
        receiver.join().unwrap();
    }

    #[test]
    fn send_to_busy_receivers_is_found_without_a_wakeup() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.parked(), 0);
        tx.send_all([1, 2, 3]);
        tx.send_all(Vec::new());
        assert_eq!(rx.len(), 3);
        assert_eq!((rx.recv(), rx.recv(), rx.recv()), (Ok(1), Ok(2), Ok(3)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn scope_joins_and_propagates_results() {
        let mut vals = vec![0u32; 3];
        crate::scope(|s| {
            for (i, v) in vals.iter_mut().enumerate() {
                s.spawn(move |_| *v = i as u32 + 1);
            }
        })
        .unwrap();
        assert_eq!(vals, vec![1, 2, 3]);
    }
}
