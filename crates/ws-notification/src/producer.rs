//! Direct (non-brokered) notification production: an embeddable
//! subscription manager plus the send path.
//!
//! This is the "custom mechanisms for asynchronous messaging are
//! permitted by WSRF.NET (and WSRF)" path: a producer that manages its
//! own subscriber list. The testbed does not use it — its job events go
//! through the broker, and the ProcSpawn exit and the upload completion
//! are a callback and a plain one-way message — but experiment E4 and
//! `tests/notification_flow.rs` compare it against the brokered path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use wsrf_soap::EndpointReference;
use wsrf_transport::{InProcNetwork, TransportError};
use wsrf_xml::Element;

use crate::message::NotificationMessage;
use crate::topics::{TopicExpression, TopicPath};

/// A registered subscription.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Stable id (also used as the subscription resource key in the
    /// brokered flavour).
    pub id: u64,
    /// Where notifications are delivered.
    pub consumer: EndpointReference,
    /// Which topics this subscription selects.
    pub expression: TopicExpression,
    /// Paused subscriptions match but do not deliver
    /// (WS-BaseNotification PauseSubscription).
    pub paused: bool,
}

/// Thread-safe subscriber registry with topic matching.
#[derive(Default)]
pub struct SubscriptionManager {
    subs: RwLock<Vec<Subscription>>,
    next_id: AtomicU64,
}

impl SubscriptionManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a subscription; returns its id.
    pub fn subscribe(&self, consumer: EndpointReference, expression: TopicExpression) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subs.write().push(Subscription {
            id,
            consumer,
            expression,
            paused: false,
        });
        id
    }

    /// Remove a subscription; true if it existed.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut subs = self.subs.write();
        let before = subs.len();
        subs.retain(|s| s.id != id);
        before != subs.len()
    }

    /// Pause or resume; true if the subscription exists.
    pub fn set_paused(&self, id: u64, paused: bool) -> bool {
        let mut subs = self.subs.write();
        match subs.iter_mut().find(|s| s.id == id) {
            Some(s) => {
                s.paused = paused;
                true
            }
            None => false,
        }
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.subs.read().len()
    }

    /// True when no subscriptions exist.
    pub fn is_empty(&self) -> bool {
        self.subs.read().is_empty()
    }

    /// Consumers whose (unpaused) subscriptions match `topic`.
    pub fn matching(&self, topic: &TopicPath) -> Vec<EndpointReference> {
        self.subs
            .read()
            .iter()
            .filter(|s| !s.paused && s.expression.matches(topic))
            .map(|s| s.consumer.clone())
            .collect()
    }
}

/// A notification producer: subscription manager + network send path.
pub struct NotificationProducer {
    /// The producer's own EPR, stamped into outgoing messages.
    pub epr: EndpointReference,
    /// Its subscribers.
    pub subscriptions: SubscriptionManager,
    net: Arc<InProcNetwork>,
}

impl NotificationProducer {
    /// A producer identified by `epr`, sending through `net`.
    pub fn new(epr: EndpointReference, net: Arc<InProcNetwork>) -> Self {
        NotificationProducer {
            epr,
            subscriptions: SubscriptionManager::new(),
            net,
        }
    }

    /// Publish `payload` on `topic`: one one-way `Notify` envelope per
    /// matching subscriber. Returns the number of deliveries attempted;
    /// unroutable consumers are skipped (their error is returned so the
    /// caller may prune them).
    pub fn notify(
        &self,
        topic: impl Into<TopicPath>,
        payload: Element,
    ) -> (usize, Vec<TransportError>) {
        let topic = topic.into();
        let msg = NotificationMessage::new(topic.clone(), payload).from_producer(self.epr.clone());
        let mut sent = 0;
        let mut errors = Vec::new();
        for consumer in self.subscriptions.matching(&topic) {
            match self
                .net
                .send_oneway(&consumer.address, msg.to_envelope(&consumer))
            {
                Ok(()) => sent += 1,
                Err(e) => errors.push(e),
            }
        }
        (sent, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::NotificationListener;
    use simclock::Clock;
    use wsrf_soap::ns;

    fn setup() -> (Arc<InProcNetwork>, NotificationProducer) {
        let net = InProcNetwork::new(Clock::manual());
        let producer =
            NotificationProducer::new(EndpointReference::service("inproc://m1/Exec"), net.clone());
        (net, producer)
    }

    #[test]
    fn subscribe_match_unsubscribe() {
        let m = SubscriptionManager::new();
        let a = m.subscribe(
            EndpointReference::service("inproc://a"),
            TopicExpression::full("js//"),
        );
        let _b = m.subscribe(
            EndpointReference::service("inproc://b"),
            TopicExpression::concrete("js/exit"),
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m.matching(&"js/exit".into()).len(), 2);
        assert_eq!(m.matching(&"js/start".into()).len(), 1);
        assert_eq!(m.matching(&"other".into()).len(), 0);
        assert!(m.unsubscribe(a));
        assert!(!m.unsubscribe(a));
        assert_eq!(m.matching(&"js/start".into()).len(), 0);
    }

    #[test]
    fn paused_subscriptions_do_not_match() {
        let m = SubscriptionManager::new();
        let id = m.subscribe(
            EndpointReference::service("inproc://a"),
            TopicExpression::simple("t"),
        );
        assert_eq!(m.matching(&"t".into()).len(), 1);
        assert!(m.set_paused(id, true));
        assert_eq!(m.matching(&"t".into()).len(), 0);
        assert!(m.set_paused(id, false));
        assert_eq!(m.matching(&"t".into()).len(), 1);
        assert!(!m.set_paused(999, true));
    }

    #[test]
    fn notify_delivers_to_matching_listeners() {
        let (net, producer) = setup();
        let listener = NotificationListener::register(&net, "inproc://client/listener");
        producer
            .subscriptions
            .subscribe(listener.epr(), TopicExpression::full("jobset-1//"));
        let (sent, errs) = producer.notify(
            "jobset-1/job/exit",
            Element::new(ns::UVACG, "ExitCode").text("0"),
        );
        assert_eq!((sent, errs.len()), (1, 0));
        let got = listener.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].topic.to_string(), "jobset-1/job/exit");
        assert_eq!(got[0].payload.text_content(), "0");
        assert_eq!(
            got[0].producer.as_ref().unwrap().address,
            "inproc://m1/Exec"
        );
    }

    #[test]
    fn notify_skips_non_matching_topics() {
        let (net, producer) = setup();
        let listener = NotificationListener::register(&net, "inproc://client/l2");
        producer
            .subscriptions
            .subscribe(listener.epr(), TopicExpression::concrete("a/b"));
        let (sent, _) = producer.notify("a/c", Element::local("E"));
        assert_eq!(sent, 0);
        assert!(listener.drain().is_empty());
    }

    #[test]
    fn unroutable_consumer_reports_error() {
        let (_net, producer) = setup();
        producer.subscriptions.subscribe(
            EndpointReference::service("inproc://ghost/listener"),
            TopicExpression::simple("t"),
        );
        let (sent, errs) = producer.notify("t", Element::local("E"));
        assert_eq!(sent, 0);
        assert_eq!(errs.len(), 1);
    }
}
