//! The `<wsnt:Notify>` wire format of WS-BaseNotification.

use std::sync::Arc;

use wsrf_core::Outbound;
use wsrf_soap::{ns, EndpointReference, Envelope};
use wsrf_xml::{Element, Fragment, Node};

use crate::topics::{Dialect, TopicPath};

/// Action URI of the one-way `Notify` message.
pub fn notify_action() -> String {
    format!("{}/Notify", ns::WSNT)
}

/// One notification: a topic, the producer that emitted it, and an
/// arbitrary message payload.
#[derive(Debug, Clone, PartialEq)]
pub struct NotificationMessage {
    /// The concrete topic the notification was published on.
    pub topic: TopicPath,
    /// Who produced it (used by consumers to poll the resource the
    /// event concerns — e.g. the job EPR broadcast in step 9).
    pub producer: Option<EndpointReference>,
    /// The payload element.
    pub payload: Element,
}

impl NotificationMessage {
    /// Build a message.
    pub fn new(topic: impl Into<TopicPath>, payload: Element) -> Self {
        NotificationMessage {
            topic: topic.into(),
            producer: None,
            payload,
        }
    }

    /// Attach the producer reference.
    pub fn from_producer(mut self, epr: EndpointReference) -> Self {
        self.producer = Some(epr);
        self
    }

    /// Serialize as a `<wsnt:NotificationMessage>` element.
    pub fn to_element(&self) -> Element {
        self.element_around(self.payload.clone())
    }

    /// This message as one shared `<wsnt:NotificationMessage>`
    /// fragment, the payload moved in: built once, spliced into every
    /// envelope that carries it ([`shared_notify`]).
    pub fn into_fragment(mut self) -> Arc<Fragment> {
        let payload = std::mem::take(&mut self.payload);
        Arc::new(Fragment::new(self.element_around(payload)))
    }

    fn element_around(&self, payload: Element) -> Element {
        let mut e = Element::new(ns::WSNT, "NotificationMessage");
        e.push_child(
            Element::new(ns::WSNT, "Topic")
                .attr("Dialect", Dialect::Concrete.uri())
                .text(self.topic.to_string()),
        );
        if let Some(p) = &self.producer {
            e.push_child(p.to_element_named(ns::WSNT, "ProducerReference"));
        }
        e.push_child(Element::new(ns::WSNT, "Message").child(payload));
        e
    }

    /// Decode from a `<wsnt:NotificationMessage>` element.
    pub fn from_element(e: &Element) -> Option<NotificationMessage> {
        let (topic, producer) = Self::decode_head(e)?;
        let payload = e.find(ns::WSNT, "Message")?.elements().next()?.clone();
        Some(NotificationMessage {
            topic,
            producer,
            payload,
        })
    }

    /// [`from_element`](Self::from_element) for an owner: the payload
    /// is moved out of `e` instead of cloned.
    fn from_owned_element(e: Element) -> Option<NotificationMessage> {
        let (topic, producer) = Self::decode_head(&e)?;
        let payload = first_element(
            first_element(e.children, |c| c.name.is(ns::WSNT, "Message"))?.children,
            |_| true,
        )?;
        Some(NotificationMessage {
            topic,
            producer,
            payload,
        })
    }

    /// Topic and producer reference, the parts decoding has to build
    /// whether or not it owns the element.
    fn decode_head(e: &Element) -> Option<(TopicPath, Option<EndpointReference>)> {
        let topic = TopicPath::parse(&e.find(ns::WSNT, "Topic")?.text_content());
        let producer = e
            .find(ns::WSNT, "ProducerReference")
            .and_then(|p| EndpointReference::from_element(p).ok());
        Some((topic, producer))
    }

    /// The `Notify` exchange carrying this one message to `to` (a
    /// consumer, or a broker to publish through).
    pub fn outbound(&self, to: &EndpointReference) -> Outbound<'static> {
        let body = Element::new(ns::WSNT, "Notify").child(self.to_element());
        Outbound::new(to.clone(), notify_action(), body)
    }

    /// Wrap one message in a complete one-way `Notify` envelope
    /// addressed to `consumer`.
    pub fn to_envelope(&self, consumer: &EndpointReference) -> Envelope {
        self.outbound(consumer).into_envelope()
    }

    /// Extract all messages from a `Notify` envelope body.
    pub fn from_envelope(env: &Envelope) -> Vec<NotificationMessage> {
        if !env.body.name.is(ns::WSNT, "Notify") {
            return Vec::new();
        }
        env.body
            .find_all(ns::WSNT, "NotificationMessage")
            .filter_map(NotificationMessage::from_element)
            .collect()
    }

    /// [`from_envelope`](Self::from_envelope) for a receiver that is
    /// done with the envelope: the same messages, each payload moved
    /// out of the body instead of cloned — except from a shared
    /// message, which other envelopes still carry and which is decoded
    /// by reference.
    pub fn into_messages(env: Envelope) -> Vec<NotificationMessage> {
        if !env.body.name.is(ns::WSNT, "Notify") {
            return Vec::new();
        }
        let is_message = |e: &Element| e.name.is(ns::WSNT, "NotificationMessage");
        env.body
            .children
            .into_iter()
            .filter_map(|c| match c {
                Node::Element(e) if is_message(&e) => NotificationMessage::from_owned_element(e),
                Node::Shared(f) if is_message(f.root()) => {
                    NotificationMessage::from_element(f.root())
                }
                _ => None,
            })
            .collect()
    }
}

/// The `Notify` exchange carrying one shared `<wsnt:NotificationMessage>`
/// ([`NotificationMessage::into_fragment`]) to `to`: what
/// [`NotificationMessage::outbound`] sends, byte for byte, without
/// building or copying the message again.
pub fn shared_notify(message: &Arc<Fragment>, to: &EndpointReference) -> Outbound<'static> {
    let body = Element::new(ns::WSNT, "Notify").shared(message.clone());
    Outbound::new(to.clone(), notify_action(), body)
}

/// The first element child accepted by `want`, by value.
fn first_element(children: Vec<Node>, want: impl Fn(&Element) -> bool) -> Option<Element> {
    children
        .into_iter()
        .find(|c| c.as_element().is_some_and(&want))?
        .into_element()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrf_soap::MessageInfo;

    #[test]
    fn element_roundtrip() {
        let msg = NotificationMessage::new(
            "jobset-1/job/exit",
            Element::new(ns::UVACG, "ExitCode").text("0"),
        )
        .from_producer(EndpointReference::resource(
            "inproc://m1/Exec",
            "JobKey",
            "j7",
        ));
        let back = NotificationMessage::from_element(&msg.to_element()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn envelope_roundtrip_through_wire() {
        let msg = NotificationMessage::new("a/b", Element::local("Evt").text("x"));
        let consumer = EndpointReference::service("inproc://client/listener");
        let env = msg.to_envelope(&consumer);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        let info = MessageInfo::extract(&parsed).unwrap();
        assert_eq!(info.action, notify_action());
        let msgs = NotificationMessage::from_envelope(&parsed);
        assert_eq!(msgs, vec![msg]);
    }

    #[test]
    fn non_notify_envelopes_yield_nothing() {
        let env = Envelope::new(Element::local("Other"));
        assert!(NotificationMessage::from_envelope(&env).is_empty());
    }

    #[test]
    fn malformed_message_elements_are_skipped() {
        let body = Element::new(ns::WSNT, "Notify")
            .child(Element::new(ns::WSNT, "NotificationMessage")) // no Topic/Message
            .child(NotificationMessage::new("t", Element::local("P")).to_element());
        let env = Envelope::new(body);
        assert_eq!(NotificationMessage::from_envelope(&env).len(), 1);
    }
}
