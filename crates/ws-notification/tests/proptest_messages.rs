//! An owner decodes a `Notify` envelope to exactly what a borrower does.

use proptest::prelude::*;
use ws_notification::NotificationMessage;
use wsrf_soap::{ns, EndpointReference, Envelope};
use wsrf_xml::Element;

/// One child of the `Notify` body: well-formed (with or without a
/// producer reference), malformed in each way decoding skips, or not a
/// `NotificationMessage` at all.
fn entry(kind: usize, topic: &str, text: &str) -> Element {
    let msg = NotificationMessage::new(topic, Element::new(ns::UVACG, "Evt").text(text));
    let without = |local: &str| {
        let mut e = msg.to_element();
        e.children
            .retain(|c| !c.as_element().is_some_and(|c| c.name.is(ns::WSNT, local)));
        e
    };
    match kind {
        0 => msg.to_element(),
        1 => msg
            .clone()
            .from_producer(EndpointReference::resource(
                "inproc://m1/Exec",
                "JobKey",
                text,
            ))
            .to_element(),
        2 => without("Topic"),
        3 => without("Message"),
        // A `Message` holding text only, then a second, whole one that
        // must not rescue the entry.
        4 => without("Message")
            .child(Element::new(ns::WSNT, "Message").text(text))
            .child(Element::new(ns::WSNT, "Message").child(Element::local("Late"))),
        // A producer reference that does not decode drops the
        // reference, not the message.
        5 => msg
            .to_element()
            .child(Element::new(ns::WSNT, "ProducerReference").text(text)),
        _ => Element::new(ns::UVACG, "NotificationMessage").child(msg.to_element()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn into_messages_equals_from_envelope(
        entries in proptest::collection::vec((0usize..7, "[a-z]{1,3}(/[a-z]{1,3}){0,2}", "[a-z0-9 <&]{0,8}"), 0..4),
        notify in 0usize..8,
    ) {
        // One body in eight is not a `Notify` and yields nothing.
        let mut body = if notify == 0 {
            Element::new(ns::WSNT, "Subscribe")
        } else {
            Element::new(ns::WSNT, "Notify")
        };
        for (kind, topic, text) in &entries {
            body.push_text(" ");
            body.push_child(entry(*kind, topic, text));
        }
        let env = Envelope::new(body);
        let borrowed = NotificationMessage::from_envelope(&env);
        let well_formed = entries.iter().filter(|(k, ..)| [0, 1, 5].contains(k)).count();
        prop_assert_eq!(borrowed.len(), if notify == 0 { 0 } else { well_formed });
        prop_assert_eq!(NotificationMessage::into_messages(env), borrowed);
    }
}
