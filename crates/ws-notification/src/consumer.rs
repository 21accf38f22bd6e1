//! The notification consumer side: a lightweight listener endpoint.
//!
//! The paper's client "starts one of WSRF.NET's light-weight
//! notification receivers to receive asynchronous, WS-Notification
//! compliant, notifications via HTTP". [`NotificationListener`] is that
//! receiver: it registers on the network, accepts one-way `Notify`
//! messages, records them, and invokes per-topic callbacks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use wsrf_soap::{EndpointReference, Envelope};
use wsrf_transport::{Endpoint, InProcNetwork};

use crate::message::NotificationMessage;
use crate::topics::{TopicExpression, TopicPath};

type Callback = Arc<dyn Fn(&NotificationMessage) + Send + Sync>;

struct Inner {
    received: Mutex<Vec<NotificationMessage>>,
    cv: Condvar,
    handlers: Mutex<Vec<(TopicExpression, Callback)>>,
    address: String,
    /// When false the message log is skipped: only `total` and the
    /// callbacks run. Open-loop load tests register hundreds of
    /// thousands of listeners; recording every delivery would be an
    /// unbounded memory sink.
    record: bool,
    /// Lifetime delivery count (unlike `count()`, never reset by
    /// `drain()`).
    total: AtomicUsize,
}

/// A registered notification listener. Cheap to clone.
#[derive(Clone)]
pub struct NotificationListener {
    inner: Arc<Inner>,
}

impl NotificationListener {
    /// Create and register a listener at `address` on the network.
    pub fn register(net: &InProcNetwork, address: &str) -> NotificationListener {
        Self::register_inner(net, address, true)
    }

    /// A counting-only listener: deliveries bump [`Self::total`] and run
    /// callbacks but are not recorded, so memory stays O(1) no matter
    /// how many notifications arrive. `count()`/`received()`/`drain()`
    /// see nothing; use `total()`.
    pub fn register_counting(net: &InProcNetwork, address: &str) -> NotificationListener {
        Self::register_inner(net, address, false)
    }

    fn register_inner(net: &InProcNetwork, address: &str, record: bool) -> NotificationListener {
        let listener = NotificationListener {
            inner: Arc::new(Inner {
                received: Mutex::new(Vec::new()),
                cv: Condvar::new(),
                handlers: Mutex::new(Vec::new()),
                address: address.to_string(),
                record,
                total: AtomicUsize::new(0),
            }),
        };
        net.register(address, Arc::new(listener.clone()) as Arc<dyn Endpoint>);
        listener
    }

    /// The listener's EPR, for use as a subscription consumer
    /// reference.
    pub fn epr(&self) -> EndpointReference {
        EndpointReference::service(&self.inner.address)
    }

    /// Install a callback for messages whose topic matches
    /// `expression`. Callbacks run on the delivering thread.
    pub fn on_topic(
        &self,
        expression: TopicExpression,
        f: impl Fn(&NotificationMessage) + Send + Sync + 'static,
    ) {
        self.inner.handlers.lock().push((expression, Arc::new(f)));
    }

    /// Take all recorded messages (clears the log).
    pub fn drain(&self) -> Vec<NotificationMessage> {
        std::mem::take(&mut *self.inner.received.lock())
    }

    /// Messages recorded so far (without clearing). Clones the whole
    /// log; pollers should use [`Self::scan`].
    pub fn received(&self) -> Vec<NotificationMessage> {
        self.inner.received.lock().clone()
    }

    /// Run `f` over the recorded messages, in arrival order, without
    /// cloning any of them. The log is locked for the duration, so `f`
    /// must not cause a delivery to this listener.
    pub fn scan<R>(&self, f: impl FnOnce(&[NotificationMessage]) -> R) -> R {
        f(&self.inner.received.lock())
    }

    /// Number of messages recorded so far.
    pub fn count(&self) -> usize {
        self.inner.received.lock().len()
    }

    /// Lifetime number of messages delivered (counted even in
    /// counting-only mode, and unaffected by `drain()`), each once its
    /// callbacks have returned: what they wrote is visible here.
    pub fn total(&self) -> usize {
        self.inner.total.load(Ordering::Acquire)
    }

    /// Block until at least `n` messages have arrived (real-time
    /// timeout). Returns false on timeout. Use only with a scaled
    /// clock; with a manual clock delivery is inline and waiting is
    /// unnecessary.
    pub fn wait_for(&self, n: usize, timeout: std::time::Duration) -> bool {
        let mut received = self.inner.received.lock();
        let deadline = std::time::Instant::now() + timeout;
        while received.len() < n {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner.cv.wait_for(&mut received, deadline - now);
        }
        true
    }

    /// Block until some message satisfies `pred` (scans history too).
    pub fn wait_until(
        &self,
        timeout: std::time::Duration,
        pred: impl Fn(&NotificationMessage) -> bool,
    ) -> Option<NotificationMessage> {
        let mut received = self.inner.received.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(m) = received.iter().find(|m| pred(m)) {
                return Some(m.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            self.inner.cv.wait_for(&mut received, deadline - now);
        }
    }

    /// Messages on a specific topic recorded so far.
    pub fn on(&self, topic: &TopicPath) -> Vec<NotificationMessage> {
        self.scan(|log| log.iter().filter(|m| &m.topic == topic).cloned().collect())
    }

    /// Number of installed `on_topic` callbacks (every delivery is
    /// matched against each of them).
    #[doc(hidden)]
    pub fn handler_count(&self) -> usize {
        self.inner.handlers.lock().len()
    }
}

impl Endpoint for NotificationListener {
    fn handle(&self, env: Envelope) -> Option<Envelope> {
        // The envelope ends here: its payloads move into the messages.
        let msgs = NotificationMessage::into_messages(env);
        if msgs.is_empty() {
            return None;
        }
        // Record before invoking callbacks so a callback that
        // inspects history (or waits for counts) sees this message.
        if self.inner.record {
            let mut received = self.inner.received.lock();
            received.extend(msgs.iter().cloned());
        }
        self.inner.cv.notify_all();
        // Snapshot matching callbacks (each with the index of its
        // message) outside the lock: callbacks may trigger further
        // (inline) deliveries to this same listener, which must not
        // deadlock on the handlers lock.
        let to_run: Vec<(Callback, usize)> = {
            let handlers = self.inner.handlers.lock();
            msgs.iter()
                .enumerate()
                .flat_map(|(i, m)| {
                    handlers
                        .iter()
                        .filter(|(expr, _)| expr.matches(&m.topic))
                        .map(move |(_, f)| (f.clone(), i))
                })
                .collect()
        };
        for (f, i) in to_run {
            f(&msgs[i]);
        }
        self.inner.total.fetch_add(msgs.len(), Ordering::Release);
        None
    }

    fn name(&self) -> &str {
        "notification-listener"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::Clock;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wsrf_xml::Element;

    #[test]
    fn records_and_drains_messages() {
        let net = InProcNetwork::new(Clock::manual());
        let l = NotificationListener::register(&net, "inproc://c/l");
        let msg = NotificationMessage::new("a/b", Element::local("E"));
        net.send_oneway("inproc://c/l", msg.to_envelope(&l.epr()))
            .unwrap();
        assert_eq!(l.count(), 1);
        assert_eq!(l.on(&"a/b".into()).len(), 1);
        assert_eq!(l.drain().len(), 1);
        assert_eq!(l.count(), 0);
    }

    #[test]
    fn callbacks_fire_for_matching_topics_only() {
        let net = InProcNetwork::new(Clock::manual());
        let l = NotificationListener::register(&net, "inproc://c/l");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        l.on_topic(TopicExpression::full("js//exit"), move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        for topic in ["js/job/exit", "js/job/start", "js/exit"] {
            let msg = NotificationMessage::new(topic, Element::local("E"));
            net.send_oneway("inproc://c/l", msg.to_envelope(&l.epr()))
                .unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(l.count(), 3, "all messages recorded regardless of handlers");
    }

    #[test]
    fn counting_listener_counts_without_recording() {
        let net = InProcNetwork::new(Clock::manual());
        let l = NotificationListener::register_counting(&net, "inproc://c/l");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        l.on_topic(TopicExpression::full("t//"), move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        for _ in 0..3 {
            let msg = NotificationMessage::new("t/x", Element::local("E"));
            net.send_oneway("inproc://c/l", msg.to_envelope(&l.epr()))
                .unwrap();
        }
        assert_eq!(l.total(), 3);
        assert_eq!(hits.load(Ordering::SeqCst), 3, "callbacks still fire");
        assert_eq!(l.count(), 0, "nothing recorded");
        assert!(l.received().is_empty());
    }

    #[test]
    fn total_survives_drain() {
        let net = InProcNetwork::new(Clock::manual());
        let l = NotificationListener::register(&net, "inproc://c/l");
        let msg = NotificationMessage::new("t", Element::local("E"));
        net.send_oneway("inproc://c/l", msg.to_envelope(&l.epr()))
            .unwrap();
        assert_eq!(l.drain().len(), 1);
        assert_eq!(l.count(), 0);
        assert_eq!(l.total(), 1);
    }

    /// A reader that waits for `total()` and then reads what callbacks
    /// wrote must not find the last message counted and its write
    /// missing: a message counts once its callbacks are done.
    #[test]
    fn total_counts_a_message_after_its_callbacks() {
        let net = InProcNetwork::new(Clock::manual());
        let l = NotificationListener::register(&net, "inproc://c/l");
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = gate.clone();
        l.on_topic(TopicExpression::full("t//"), move |_| {
            g.wait(); // inside the callback
            g.wait(); // released
        });
        let (net2, epr) = (net.clone(), l.epr());
        let sender = std::thread::spawn(move || {
            let msg = NotificationMessage::new("t/x", Element::local("E"));
            net2.send_oneway("inproc://c/l", msg.to_envelope(&epr))
                .unwrap();
        });
        gate.wait();
        assert_eq!(l.count(), 1, "recorded before its callbacks run");
        assert_eq!(l.total(), 0, "counted while its callback still runs");
        gate.wait();
        sender.join().unwrap();
        assert_eq!(l.total(), 1);
    }

    #[test]
    fn non_notify_messages_ignored() {
        let net = InProcNetwork::new(Clock::manual());
        let l = NotificationListener::register(&net, "inproc://c/l");
        net.send_oneway("inproc://c/l", Envelope::new(Element::local("Other")))
            .unwrap();
        assert_eq!(l.count(), 0);
    }

    #[test]
    fn wait_for_unblocks_on_delivery() {
        let net = InProcNetwork::new(Clock::scaled(1000.0));
        let l = NotificationListener::register(&net, "inproc://c/l");
        let net2 = net.clone();
        let epr = l.epr();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let msg = NotificationMessage::new("t", Element::local("E"));
            net2.send_oneway("inproc://c/l", msg.to_envelope(&epr))
                .unwrap();
        });
        assert!(l.wait_for(1, std::time::Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let net = InProcNetwork::new(Clock::manual());
        let l = NotificationListener::register(&net, "inproc://c/l");
        assert!(!l.wait_for(1, std::time::Duration::from_millis(30)));
    }
}
