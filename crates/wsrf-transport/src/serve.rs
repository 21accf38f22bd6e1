//! The accept/worker engine both socket servers run on.
//!
//! One accept thread per listener hands each accepted socket to an
//! *idle* worker, claimed before the hand-over so a connection is never
//! queued behind a busy one. With none idle it spawns a worker, up to
//! [`MAX_WORKERS`]; at the cap the connection is **shed** — the
//! transport answers it with a SOAP `Server` fault on the accept thread
//! and closes it — and `transport.<kind>.shed` counts it.
//!
//! Workers are spawned on demand, never at bind (a server that serves
//! one caller costs one thread), park between connections, and exit
//! when the listener drops. A worker owns its transport's
//! [`Connection::Buffers`] for life, so a transport whose connections
//! carry a single call still reuses its read and render buffers, and
//! per-thread caches stay warm.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver};
use wsrf_obs::{Counter, MetricsRegistry};

/// Connection workers one listener may have alive. Past this, accepted
/// connections are shed rather than given a thread.
const MAX_WORKERS: usize = 256;

/// The largest message either socket transport accepts — a framed
/// payload, an HTTP request body, an HTTP response body.
pub(crate) const MAX_MESSAGE: usize = 64 << 20;

/// Socket read timeout both transports give an accepted connection
/// unless told otherwise: a peer that stalls mid-message is dropped
/// instead of pinning its worker forever.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// True when an IO error is the socket read timeout firing.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// What a transport plugs into the engine: how to serve one accepted
/// connection, and how to turn one away.
pub(crate) trait Connection: Send + Sync + 'static {
    /// Buffers a worker keeps across the connections it serves.
    type Buffers: Default;

    /// Serve `stream` until the exchange (or the persistent session)
    /// ends. Runs on a worker thread, which closes the socket after.
    fn serve(&self, stream: &TcpStream, buffers: &mut Self::Buffers);

    /// Answer a connection no worker is free for, then close it. Runs
    /// on the accept thread, so it must not wait for the peer.
    fn shed(&self, stream: TcpStream);
}

/// Live and parked worker counts, shared by the accept thread and the
/// workers.
#[derive(Default)]
struct Workers {
    /// Workers alive (serving or parked). Only the accept thread adds.
    live: AtomicUsize,
    /// Parked workers nobody has claimed yet. A worker adds itself
    /// just before it blocks on the hand-over channel; the accept
    /// thread takes one off *before* it sends, so the channel never
    /// holds more sockets than there are workers about to receive.
    idle: AtomicUsize,
}

impl Workers {
    /// Claim one parked worker, if any.
    fn claim_idle(&self) -> bool {
        self.idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Takes a worker off the live count however its thread ends (a
/// panicking endpoint included), so the cap counts threads that exist.
struct Live {
    workers: Arc<Workers>,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.workers.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound loopback listener with its accept thread.
pub(crate) struct Listener {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    #[cfg(test)]
    workers: Arc<Workers>,
}

impl Listener {
    /// Bind `127.0.0.1:0` and serve accepted connections through
    /// `conn`, counting shed ones in `transport.<kind>.shed`.
    pub(crate) fn bind<C: Connection>(
        kind: &str,
        registry: &MetricsRegistry,
        read_timeout: Duration,
        conn: C,
    ) -> std::io::Result<Self> {
        Self::bind_capped(kind, registry, read_timeout, conn, MAX_WORKERS)
    }

    /// [`Listener::bind`] with an explicit worker cap. The production
    /// cap is the constant; tests shed at a cap they can reach without
    /// exhausting file descriptors.
    pub(crate) fn bind_capped<C: Connection>(
        kind: &str,
        registry: &MetricsRegistry,
        read_timeout: Duration,
        conn: C,
        cap: usize,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = Arc::new(Workers::default());
        let accept = Accept {
            conn: Arc::new(conn),
            shed: registry.counter(&format!("transport.{kind}.shed")),
            shutdown: shutdown.clone(),
            workers: workers.clone(),
            worker_name: format!("{kind}-conn"),
            read_timeout,
            cap,
        };
        let accept_thread = std::thread::Builder::new()
            .name(format!("{kind}-accept"))
            .spawn(move || accept.run(listener))?;
        Ok(Listener {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            #[cfg(test)]
            workers,
        })
    }

    /// The bound socket address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(live, idle)` worker counts, for tests that pin reuse, the cap
    /// and release on drop.
    #[cfg(test)]
    pub(crate) fn worker_counts(&self) -> impl Fn() -> (usize, usize) {
        let workers = self.workers.clone();
        move || {
            (
                workers.live.load(Ordering::SeqCst),
                workers.idle.load(Ordering::SeqCst),
            )
        }
    }
}

impl Drop for Listener {
    /// Stops accepting and releases every parked worker. Workers are
    /// not joined: one may be serving a persistent connection whose
    /// peer outlives this listener, and it exits when that peer closes.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// The accept thread's state.
struct Accept<C> {
    conn: Arc<C>,
    shed: Counter,
    shutdown: Arc<AtomicBool>,
    workers: Arc<Workers>,
    worker_name: String,
    read_timeout: Duration,
    cap: usize,
}

impl<C: Connection> Accept<C> {
    fn run(self, listener: TcpListener) {
        // Parked workers wait on `rx`; `tx` lives on this thread alone,
        // so returning from here is what releases them.
        let (tx, rx) = unbounded::<TcpStream>();
        for accepted in listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let Ok(stream) = accepted else { continue };
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(self.read_timeout)).ok();
            if self.workers.claim_idle() {
                let _ = tx.send(stream);
            } else if self.workers.live.load(Ordering::SeqCst) < self.cap {
                self.spawn_worker(stream, rx.clone());
            } else {
                self.shed.inc();
                self.conn.shed(stream);
            }
        }
    }

    fn spawn_worker(&self, first: TcpStream, rx: Receiver<TcpStream>) {
        self.workers.live.fetch_add(1, Ordering::SeqCst);
        let live = Live {
            workers: self.workers.clone(),
        };
        let conn = self.conn.clone();
        // A failed spawn drops the closure: the socket closes and
        // `live` is given back.
        let _ = std::thread::Builder::new()
            .name(self.worker_name.clone())
            .spawn(move || {
                let mut buffers = C::Buffers::default();
                let mut next = Some(first);
                while let Some(stream) = next {
                    conn.serve(&stream, &mut buffers);
                    // Idle from here: the peer has its answer, and a
                    // caller that comes straight back should find this
                    // worker rather than cost a new one.
                    live.workers.idle.fetch_add(1, Ordering::SeqCst);
                    drop(stream);
                    next = rx.recv().ok();
                }
            });
    }
}

/// Poll `done` for up to ten seconds (tests waiting on a worker to
/// park or exit).
#[cfg(test)]
pub(crate) fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}
