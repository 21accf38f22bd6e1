//! Generic client-side proxies over the standard port types, and the
//! one way out of the process they all share.
//!
//! §5 of the paper: "Not only do clients not have to create these
//! interfaces themselves (i.e., generate proxies), but there is
//! potential to develop higher-level interfaces to standard Resource
//! Properties as part of WSRF.NET. This functionality could then be
//! provided to all clients and work on all services, not just
//! service/client pairs that had agreed upon their own specific
//! interfaces."
//!
//! [`Outbound`] is the single outbound path: every request or one-way
//! message a client helper, a service or the broker sends is assembled,
//! trace-stamped, routed and failed here. [`ResourceProxy`] is the
//! higher-level interface on top of it: typed get/set/query/destroy
//! over *any* WS-Resource, with no per-service code. The testbed builds
//! its typed job/directory wrappers on top of both.

use simclock::SimTime;
use wsrf_obs::{EventKind, Severity};
use wsrf_soap::{ns, EndpointReference, Envelope, MessageInfo, SoapFault, TraceContext};
use wsrf_transport::{InProcNetwork, TransportError};
use wsrf_xml::{Element, QName};

use crate::porttypes::{wsrl_action, wsrp_action, XPATH_DIALECT};
use crate::properties::PropertyDoc;

/// One outbound SOAP exchange, not yet sent: whom it goes to, which
/// action it invokes, what it carries.
///
/// Assembly is the same for every message that leaves a client or a
/// service: the WS-Addressing headers of `to` and `action`, then the
/// extra header (a WS-Security block) if there is one, then the trace
/// context if there is one. The message is routed by `to.address`.
pub struct Outbound<'a> {
    to: EndpointReference,
    action: String,
    body: Element,
    header: Option<Element>,
    trace: Option<&'a TraceContext>,
}

impl<'a> Outbound<'a> {
    /// A message for `to` invoking `action` with `body`.
    pub fn new(to: EndpointReference, action: impl Into<String>, body: Element) -> Self {
        Outbound {
            to,
            action: action.into(),
            body,
            header: None,
            trace: None,
        }
    }

    /// Carry one more header block after the addressing headers.
    pub fn header(mut self, header: Option<Element>) -> Self {
        self.header = header;
        self
    }

    /// Stamp the sender's trace context, so the receiving dispatch
    /// joins its span tree.
    pub fn trace(mut self, trace: Option<&'a TraceContext>) -> Self {
        self.trace = trace;
        self
    }

    /// The assembled envelope and the EPR it is addressed to.
    fn assemble(self) -> (EndpointReference, Envelope) {
        let mut env = Envelope::new(self.body);
        let info = MessageInfo::request(self.to, self.action);
        info.apply(&mut env);
        env.headers.extend(self.header);
        if let Some(tc) = self.trace {
            tc.stamp(&mut env);
        }
        (info.to, env)
    }

    /// The assembled envelope, for a sender that picks its own delivery
    /// (the broker's per-consumer drain, a test driving a socket).
    pub fn into_envelope(self) -> Envelope {
        self.assemble().1
    }

    /// Request/response: a transport error comes back as a `Server`
    /// fault, a fault response as `Err(that fault)`.
    pub fn call(self, net: &InProcNetwork) -> Result<Envelope, SoapFault> {
        let (to, env) = self.assemble();
        let resp = net
            .call(&to.address, env)
            .map_err(|e| SoapFault::server(e.to_string()))?;
        match resp.fault() {
            Some(f) => Err(f),
            None => Ok(resp),
        }
    }

    /// One-way. A message that could not be sent counts in
    /// `outbound.oneway_failed` and leaves an [`EventKind::OutboundFailed`]
    /// event before the error is returned, so a caller with nobody to
    /// tell may drop the `Result` without losing the fact.
    pub fn send(self, net: &InProcNetwork) -> Result<(), TransportError> {
        let trace = self.trace;
        let (to, env) = self.assemble();
        net.send_oneway(&to.address, env).inspect_err(|e| {
            let registry = net.metrics_registry();
            registry.counter("outbound.oneway_failed").inc();
            registry.events().emit(
                Severity::Warn,
                EventKind::OutboundFailed,
                "outbound",
                net.clock().now().as_nanos(),
                || match trace {
                    Some(tc) => format!("one-way to {to}: {e} (trace {:016x})", tc.trace_id),
                    None => format!("one-way to {to}: {e}"),
                },
            );
        })
    }
}

/// The EPR a response carries in its `{nsuri}local` body child.
pub fn epr_in(resp: &Envelope, nsuri: &str, local: &str) -> Result<EndpointReference, SoapFault> {
    let el = resp
        .body
        .find(nsuri, local)
        .ok_or_else(|| SoapFault::server(format!("{} missing {local}", resp.body.name.local)))?;
    EndpointReference::from_element(el).map_err(|e| SoapFault::server(e.to_string()))
}

/// A typed client-side handle to one WS-Resource, working against any
/// WSRF-compliant service through the standard port types alone.
#[derive(Clone)]
pub struct ResourceProxy<'a> {
    net: &'a InProcNetwork,
    epr: EndpointReference,
}

impl<'a> ResourceProxy<'a> {
    /// Wrap an EPR.
    pub fn new(net: &'a InProcNetwork, epr: EndpointReference) -> Self {
        ResourceProxy { net, epr }
    }

    /// The wrapped EPR.
    pub fn epr(&self) -> &EndpointReference {
        &self.epr
    }

    fn call(&self, action: String, body: Element) -> Result<Envelope, SoapFault> {
        Outbound::new(self.epr.clone(), action, body).call(self.net)
    }

    /// `GetResourceProperty` by (local or Clark) name, as text.
    pub fn get_text(&self, property: &str) -> Result<String, SoapFault> {
        let resp = self.call(
            wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text(property),
        )?;
        Ok(resp.body.text_content())
    }

    /// `GetResourceProperty` parsed as `f64`.
    pub fn get_f64(&self, property: &str) -> Result<f64, SoapFault> {
        self.get_text(property)?
            .trim()
            .parse()
            .map_err(|_| SoapFault::server(format!("property '{property}' is not a number")))
    }

    /// `GetResourceProperty` parsed as `i64`.
    pub fn get_i64(&self, property: &str) -> Result<i64, SoapFault> {
        self.get_text(property)?
            .trim()
            .parse()
            .map_err(|_| SoapFault::server(format!("property '{property}' is not an integer")))
    }

    /// `GetMultipleResourceProperties`: values in request order (text
    /// of each returned element).
    pub fn get_many(&self, properties: &[&str]) -> Result<Vec<String>, SoapFault> {
        let mut body = Element::new(ns::WSRP, "GetMultipleResourceProperties");
        for p in properties {
            body.push_child(Element::new(ns::WSRP, "ResourceProperty").text(*p));
        }
        let resp = self.call(wsrp_action("GetMultipleResourceProperties"), body)?;
        Ok(resp.body.elements().map(|e| e.text_content()).collect())
    }

    /// The whole property document, decoded.
    pub fn document(&self) -> Result<PropertyDoc, SoapFault> {
        let resp = self.call(
            wsrp_action("GetResourcePropertyDocument"),
            Element::new(ns::WSRP, "GetResourcePropertyDocument"),
        )?;
        let doc = resp
            .body
            .elements()
            .next()
            .ok_or_else(|| SoapFault::server("empty property document response"))?;
        Ok(PropertyDoc::from_document(doc))
    }

    /// `QueryResourceProperties` with an XPath-lite expression; returns
    /// the matched elements.
    pub fn query(&self, xpath: &str) -> Result<Vec<Element>, SoapFault> {
        let resp = self.call(
            wsrp_action("QueryResourceProperties"),
            Element::new(ns::WSRP, "QueryResourceProperties").child(
                Element::new(ns::WSRP, "QueryExpression")
                    .attr("Dialect", XPATH_DIALECT)
                    .text(xpath),
            ),
        )?;
        Ok(resp.body.elements().cloned().collect())
    }

    /// `SetResourceProperties` Update: replace a property with one
    /// text value.
    pub fn set_text(&self, property: QName, value: &str) -> Result<(), SoapFault> {
        self.call(
            wsrp_action("SetResourceProperties"),
            Element::new(ns::WSRP, "SetResourceProperties").child(
                Element::new(ns::WSRP, "Update").child(Element::with_name(property).text(value)),
            ),
        )?;
        Ok(())
    }

    /// `SetResourceProperties` Insert: append one element value.
    pub fn insert(&self, value: Element) -> Result<(), SoapFault> {
        self.call(
            wsrp_action("SetResourceProperties"),
            Element::new(ns::WSRP, "SetResourceProperties")
                .child(Element::new(ns::WSRP, "Insert").child(value)),
        )?;
        Ok(())
    }

    /// `SetResourceProperties` Delete: remove a property.
    pub fn delete_property(&self, property: &str) -> Result<(), SoapFault> {
        self.call(
            wsrp_action("SetResourceProperties"),
            Element::new(ns::WSRP, "SetResourceProperties")
                .child(Element::new(ns::WSRP, "Delete").attr("resourceProperty", property)),
        )?;
        Ok(())
    }

    /// WS-ResourceLifetime `Destroy`.
    pub fn destroy(&self) -> Result<(), SoapFault> {
        self.call(wsrl_action("Destroy"), Element::new(ns::WSRL, "Destroy"))?;
        Ok(())
    }

    /// WS-ResourceLifetime `SetTerminationTime` (absolute virtual
    /// time; `None` = never).
    pub fn set_termination_time(&self, at: Option<SimTime>) -> Result<(), SoapFault> {
        let text = at
            .map(|t| format!("{}", t.as_secs_f64()))
            .unwrap_or_default();
        self.call(
            wsrl_action("SetTerminationTime"),
            Element::new(ns::WSRL, "SetTerminationTime")
                .child(Element::new(ns::WSRL, "RequestedTerminationTime").text(text)),
        )?;
        Ok(())
    }

    /// Does the resource still exist? (A `GetResourcePropertyDocument`
    /// probe distinguishing NoSuchResource from other faults.)
    pub fn exists(&self) -> Result<bool, SoapFault> {
        match self.document() {
            Ok(_) => Ok(true),
            Err(f) if f.error_code() == Some("wsrf:NoSuchResource") => Ok(false),
            Err(f) => Err(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ServiceBuilder;
    use crate::store::MemoryStore;
    use simclock::Clock;
    use std::sync::Arc;
    use std::time::Duration;

    const U: &str = ns::UVACG;

    fn setup() -> (Clock, std::sync::Arc<InProcNetwork>, EndpointReference) {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("P", "inproc://m/P", Arc::new(MemoryStore::new()))
            .build(clock.clone(), net.clone());
        svc.register(&net);
        let mut doc = PropertyDoc::new();
        doc.set_text(QName::new(U, "Status"), "Running");
        doc.set_f64(QName::new(U, "Cpu"), 2.5);
        doc.set_i64(QName::new(U, "Pid"), 7);
        let epr = svc.core().create_resource_with_key("r1", doc).unwrap();
        (clock, net, epr)
    }

    fn names(env: &Envelope) -> Vec<String> {
        env.headers.iter().map(|h| h.name.to_string()).collect()
    }

    /// The sequence every call site used to type out by hand.
    fn hand_rolled(
        to: &EndpointReference,
        header: Option<&Element>,
        trace: Option<&TraceContext>,
    ) -> Envelope {
        let mut env = Envelope::new(Element::new(U, "Run"));
        MessageInfo::request(to.clone(), "urn:Run").apply(&mut env);
        if let Some(h) = header {
            env.headers.push(h.clone());
        }
        if let Some(tc) = trace {
            tc.stamp(&mut env);
        }
        env
    }

    #[test]
    fn assembly_matches_the_hand_rolled_sequence() {
        let to = EndpointReference::resource("inproc://m/P", format!("{{{U}}}PKey"), "r1");
        let security = Element::new(ns::WSSE, "Security").child(Element::local("Token").text("t"));
        let tc = TraceContext::new(0x42, 0x7, true);
        // Plain, with a WS-Security header, with a trace context (and
        // with both: addressing, then the header, then the trace).
        for (header, trace) in [
            (None, None),
            (Some(&security), None),
            (None, Some(&tc)),
            (Some(&security), Some(&tc)),
        ] {
            let ours = Outbound::new(to.clone(), "urn:Run", Element::new(U, "Run"))
                .header(header.cloned())
                .trace(trace)
                .into_envelope();
            let theirs = hand_rolled(&to, header, trace);
            assert_eq!(names(&ours), names(&theirs));
            // Message ids differ, in text only: they are fixed-width.
            assert_eq!(ours.wire_len(), theirs.wire_len());
            assert_eq!(ours.body, theirs.body);
        }
        let full = names(&hand_rolled(&to, Some(&security), Some(&tc)));
        let [.., header, trace] = full.as_slice() else {
            panic!("{full:?}")
        };
        assert!(header.ends_with("Security") && trace.ends_with("TraceContext"));
    }

    fn observed_net() -> (Arc<InProcNetwork>, Arc<wsrf_obs::MetricsRegistry>) {
        let registry = wsrf_obs::MetricsRegistry::enabled();
        let net = InProcNetwork::with_metrics(Clock::manual(), Default::default(), &registry);
        (net, registry)
    }

    #[test]
    fn unroutable_call_is_a_server_fault_naming_the_address() {
        let (net, registry) = observed_net();
        let nowhere = EndpointReference::service("inproc://nowhere/X");
        let fault = Outbound::new(nowhere, "urn:Run", Element::new(U, "Run"))
            .call(&net)
            .unwrap_err();
        assert_eq!(fault.code, "Server");
        assert!(fault.reason.contains("inproc://nowhere/X"), "{fault}");
        // The caller holds the error; nothing else is left behind.
        assert_eq!(registry.snapshot().counter("outbound.oneway_failed"), None);
        assert!(registry.events().is_empty());
    }

    #[test]
    fn failed_oneway_leaves_one_event_and_still_errs() {
        let (net, registry) = observed_net();
        net.clock().advance(Duration::from_secs(3));
        let nowhere = EndpointReference::service("inproc://nowhere/X");
        let tc = TraceContext::new(0xabc, 0x1, true);
        let err = Outbound::new(nowhere, "urn:Evt", Element::new(U, "Evt"))
            .trace(Some(&tc))
            .send(&net)
            .unwrap_err();
        assert_eq!(err, TransportError::NoRoute("inproc://nowhere/X".into()));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("outbound.oneway_failed"), Some(1));
        assert_eq!(snap.counter("events.outbound_failed"), Some(1));
        let events = registry.events().all();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(
            (e.kind, e.severity),
            (EventKind::OutboundFailed, Severity::Warn)
        );
        assert_eq!(e.virt_ns, SimTime::from_secs(3).as_nanos());
        assert!(e.detail.contains("inproc://nowhere/X"), "{}", e.detail);
        assert!(e.detail.contains("0000000000000abc"), "{}", e.detail);

        // A one-way that is accepted leaves nothing.
        net.register(
            "inproc://m/Sink",
            Arc::new(wsrf_transport::FnEndpoint::new("sink", |_| None)),
        );
        let sink = EndpointReference::service("inproc://m/Sink");
        Outbound::new(sink, "urn:Evt", Element::new(U, "Evt"))
            .send(&net)
            .unwrap();
        assert_eq!(registry.events().all().len(), 1);
    }

    #[test]
    fn fault_response_is_err_of_that_fault() {
        let (_c, net, epr) = setup();
        let fault = Outbound::new(epr.clone(), "urn:NoSuchOp", Element::new(U, "X"))
            .call(&net)
            .unwrap_err();
        assert_eq!(fault.error_code(), Some("wsrf:NoSuchOperation"));
        // `epr_in` names what the response lacks.
        let resp = Outbound::new(
            epr,
            wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text("Status"),
        )
        .call(&net)
        .unwrap();
        let missing = epr_in(&resp, ns::WSA, "EndpointReference").unwrap_err();
        assert!(
            missing.reason.contains("missing EndpointReference"),
            "{missing}"
        );
    }

    #[test]
    fn typed_getters() {
        let (_c, net, epr) = setup();
        let p = ResourceProxy::new(&net, epr);
        assert_eq!(p.get_text("Status").unwrap(), "Running");
        assert_eq!(p.get_f64("Cpu").unwrap(), 2.5);
        assert_eq!(p.get_i64("Pid").unwrap(), 7);
        assert!(p.get_f64("Status").is_err(), "type mismatch reported");
        assert_eq!(
            p.get_many(&["Status", "Pid"]).unwrap(),
            vec!["Running".to_string(), "7".to_string()]
        );
    }

    #[test]
    fn document_and_query() {
        let (_c, net, epr) = setup();
        let p = ResourceProxy::new(&net, epr);
        let doc = p.document().unwrap();
        assert_eq!(doc.len(), 3);
        let hits = p
            .query("/ResourcePropertyDocument[Status='Running']/Pid")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].text_content(), "7");
    }

    #[test]
    fn mutations() {
        let (_c, net, epr) = setup();
        let p = ResourceProxy::new(&net, epr);
        p.set_text(QName::new(U, "Status"), "Exited").unwrap();
        assert_eq!(p.get_text("Status").unwrap(), "Exited");
        p.insert(Element::new(U, "Tag").text("x")).unwrap();
        p.insert(Element::new(U, "Tag").text("y")).unwrap();
        assert_eq!(p.document().unwrap().get_local("Tag").len(), 2);
        p.delete_property("Tag").unwrap();
        assert!(p.document().unwrap().get_local("Tag").is_empty());
    }

    #[test]
    fn lifetime_via_proxy() {
        let (clock, net, epr) = setup();
        let p = ResourceProxy::new(&net, epr);
        assert!(p.exists().unwrap());
        p.set_termination_time(Some(SimTime::from_secs(30)))
            .unwrap();
        clock.advance(Duration::from_secs(31));
        assert!(!p.exists().unwrap());

        let (_c2, net2, epr2) = setup();
        let p2 = ResourceProxy::new(&net2, epr2);
        p2.destroy().unwrap();
        assert!(!p2.exists().unwrap());
        assert!(p2.destroy().is_err(), "double destroy faults");
    }
}
