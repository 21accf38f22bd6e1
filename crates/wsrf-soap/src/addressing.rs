//! WS-Addressing: endpoint references and message-addressing headers.
//!
//! Endpoint references (EPRs) are the linchpin of WSRF: a WS-Resource
//! is named by an EPR whose `<ReferenceProperties>` carry an opaque key
//! that the service resolves to stored state. The paper's services
//! exchange EPRs constantly — the Scheduler "fills in" the EPRs of
//! yet-to-be-created job output directories, the Execution Service
//! broadcasts each job's EPR so the client can poll it, and the File
//! System Service is told which EPR to fetch each input file from.

use wsrf_xml::{Element, XmlError};

use crate::envelope::Envelope;
use crate::ns;

/// What [`MessageInfo::extract`] and [`crate::LazyEnvelope::scan`] both
/// say about an envelope that cannot be routed.
pub(crate) const NO_ACTION: &str = "message has no wsa:Action header";

/// A WS-Addressing endpoint reference.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EndpointReference {
    /// The `<Address>` URI: transport scheme + authority + service path.
    pub address: String,
    /// `<ReferenceProperties>` children: opaque elements the *issuing*
    /// service uses to identify one WS-Resource. Stored in Clark-name /
    /// text form because the testbed only ever uses simple keys.
    pub reference_properties: Vec<(String, String)>,
}

impl EndpointReference {
    /// An EPR with no reference properties (a plain service endpoint).
    pub fn service(address: impl Into<String>) -> Self {
        EndpointReference {
            address: address.into(),
            reference_properties: Vec::new(),
        }
    }

    /// An EPR naming one resource of a service, keyed by a single
    /// reference property.
    pub fn resource(
        address: impl Into<String>,
        key_name: impl Into<String>,
        key_value: impl Into<String>,
    ) -> Self {
        EndpointReference {
            address: address.into(),
            reference_properties: vec![(key_name.into(), key_value.into())],
        }
    }

    /// Add a reference property (builder style).
    pub fn with_property(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.reference_properties.push((name.into(), value.into()));
        self
    }

    /// Look up a reference property by (local) name.
    pub fn property(&self, name: &str) -> Option<&str> {
        self.reference_properties
            .iter()
            .find(|(n, _)| n == name || n.ends_with(&format!("}}{}", name)))
            .map(|(_, v)| v.as_str())
    }

    /// The conventional resource key: the *first* reference property's
    /// value, or `None` for plain service EPRs.
    pub fn resource_key(&self) -> Option<&str> {
        self.reference_properties.first().map(|(_, v)| v.as_str())
    }

    /// Serialize as an element with the given qualified name (EPRs are
    /// embedded under many different element names: `<ReplyTo>`,
    /// `<ConsumerReference>`, a response's `<ResourceEpr>`, ...).
    pub fn to_element_named(&self, nsuri: &str, local: &str) -> Element {
        let mut e = Element::new(nsuri, local);
        e.push_child(Element::new(ns::WSA, "Address").text(&self.address));
        if !self.reference_properties.is_empty() {
            let mut rp = Element::new(ns::WSA, "ReferenceProperties");
            for (n, v) in &self.reference_properties {
                let name = wsrf_xml::QName::from_clark(n);
                rp.push_child(Element::with_name(name).text(v));
            }
            e.push_child(rp);
        }
        e
    }

    /// Serialize as `<wsa:EndpointReference>`.
    pub fn to_element(&self) -> Element {
        self.to_element_named(ns::WSA, "EndpointReference")
    }

    /// Decode from any element with WS-Addressing EPR structure.
    pub fn from_element(e: &Element) -> Result<Self, XmlError> {
        let address = e.expect_text(ns::WSA, "Address")?;
        let mut reference_properties = Vec::new();
        if let Some(rp) = e.find(ns::WSA, "ReferenceProperties") {
            for c in rp.elements() {
                reference_properties.push((c.name.to_string(), c.text_content()));
            }
        }
        Ok(EndpointReference {
            address,
            reference_properties,
        })
    }
}

impl std::fmt::Display for EndpointReference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.address)?;
        for (n, v) in &self.reference_properties {
            write!(f, "[{}={}]", wsrf_xml::QName::from_clark(n).local, v)?;
        }
        Ok(())
    }
}

/// The WS-Addressing message-information headers attached to each SOAP
/// message: destination EPR, action URI, message id and optional
/// reply-to / relates-to.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MessageInfo {
    /// Destination. Its reference properties ride along as separate
    /// headers (per WS-Addressing binding rules) so the receiving
    /// container can resolve the WS-Resource.
    pub to: EndpointReference,
    /// The operation URI, e.g. `uvacg/ExecutionService/Run`.
    pub action: String,
    /// Unique message id.
    pub message_id: String,
    /// Where to send the (asynchronous) reply, if any.
    pub reply_to: Option<EndpointReference>,
    /// Message id this message responds to, if any.
    pub relates_to: Option<String>,
}

impl MessageInfo {
    /// Headers for a request to `to` invoking `action`.
    pub fn request(to: EndpointReference, action: impl Into<String>) -> Self {
        MessageInfo {
            to,
            action: action.into(),
            message_id: fresh_message_id(),
            reply_to: None,
            relates_to: None,
        }
    }

    /// Headers for the response to `req`, echoing its message id in
    /// `<RelatesTo>`.
    pub fn response_to(req: &MessageInfo, action_suffix: &str) -> Self {
        MessageInfo {
            to: req.reply_to.clone().unwrap_or_default(),
            action: format!("{}{}", req.action, action_suffix),
            message_id: fresh_message_id(),
            reply_to: None,
            relates_to: Some(req.message_id.clone()),
        }
    }

    /// Stamp these headers onto an envelope.
    pub fn apply(&self, env: &mut Envelope) {
        env.headers
            .push(Element::new(ns::WSA, "To").text(&self.to.address));
        // Reference properties of the target EPR are promoted to
        // first-class headers, exactly as WS-Addressing requires and as
        // WSRF.NET expects to find them.
        for (n, v) in &self.to.reference_properties {
            let name = wsrf_xml::QName::from_clark(n);
            env.headers.push(Element::with_name(name).text(v));
        }
        env.headers
            .push(Element::new(ns::WSA, "Action").text(&self.action));
        env.headers
            .push(Element::new(ns::WSA, "MessageID").text(&self.message_id));
        if let Some(rt) = &self.reply_to {
            env.headers.push(rt.to_element_named(ns::WSA, "ReplyTo"));
        }
        if let Some(rel) = &self.relates_to {
            env.headers
                .push(Element::new(ns::WSA, "RelatesTo").text(rel));
        }
    }

    /// Recover addressing headers from a received envelope. Header
    /// blocks that are not WS-Addressing (or WS-Security) are treated
    /// as promoted reference properties, mirroring `apply`.
    pub fn extract(env: &Envelope) -> Result<Self, XmlError> {
        let mut info = MessageInfo::default();
        for h in &env.headers {
            if h.name.is(ns::WSA, "To") {
                info.to.address = h.text_content();
            } else if h.name.is(ns::WSA, "Action") {
                info.action = h.text_content();
            } else if h.name.is(ns::WSA, "MessageID") {
                info.message_id = h.text_content();
            } else if h.name.is(ns::WSA, "RelatesTo") {
                info.relates_to = Some(h.text_content());
            } else if h.name.is(ns::WSA, "ReplyTo") {
                info.reply_to = Some(EndpointReference::from_element(h)?);
            } else if h.name.ns_str() == Some(ns::WSSE) || h.name.ns_str() == Some(ns::WSA) {
                // Security headers are handled by the security layer;
                // unknown wsa headers are ignored.
            } else if h.name.is(ns::UVACG, TraceContext::HEADER_LOCAL) {
                // The trace context identifies the *request*, not the
                // resource — it must never become a reference property.
            } else {
                info.to
                    .reference_properties
                    .push((h.name.to_string(), h.text_content()));
            }
        }
        if info.action.is_empty() {
            return Err(XmlError::new(NO_ACTION));
        }
        Ok(info)
    }
}

/// Generate a unique message id (unique within this process; the
/// format mimics WS-Addressing's `uuid:` convention).
pub fn fresh_message_id() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    // Mix in the process id for cross-process uniqueness in the
    // multi-process transport tests; asked for once, not per message.
    static PID: OnceLock<u32> = OnceLock::new();
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    message_id(*PID.get_or_init(std::process::id), n)
}

/// `uuid:{pid:08x}-{n:016x}`, written digit by digit: every message
/// carries one, and the formatting machinery costs more than the rest
/// of its addressing headers.
fn message_id(pid: u32, n: u64) -> String {
    fn push_hex(out: &mut String, v: u64, digits: u32) {
        for shift in (0..digits).rev() {
            out.push(char::from(
                b"0123456789abcdef"[(v >> (4 * shift)) as usize & 0xf],
            ));
        }
    }
    let mut id = String::with_capacity("uuid:".len() + 8 + 1 + 16);
    id.push_str("uuid:");
    push_hex(&mut id, pid.into(), 8);
    id.push('-');
    push_hex(&mut id, n, 16);
    id
}

/// The distributed-tracing context carried as a first-class SOAP
/// header next to the WS-Addressing message-information headers.
///
/// Wire form follows the W3C Trace Context `traceparent` field,
/// carried in a `{uvacg}TraceContext` header element:
///
/// ```text
/// <u:TraceContext xmlns:u="http://grid.cs.virginia.edu/uvacg">
///   00-0000000000000000000000000000002a-0000000000000007-01
/// </u:TraceContext>
/// ```
///
/// `version(00) - trace-id(32 hex) - parent-span-id(16 hex) -
/// flags(01 = sampled)`. Trace ids are 64-bit in this testbed, so the
/// upper half of the 128-bit field is always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    /// The sender's span: the receiver parents its own span to this.
    pub span_id: u64,
    /// Whether the root sampled this trace (unsampled contexts
    /// propagate but record nothing).
    pub sampled: bool,
}

impl TraceContext {
    /// Local name of the header element (namespace [`ns::UVACG`]).
    pub const HEADER_LOCAL: &'static str = "TraceContext";

    pub fn new(trace_id: u64, span_id: u64, sampled: bool) -> Self {
        TraceContext {
            trace_id,
            span_id,
            sampled,
        }
    }

    /// The W3C-style `traceparent` value.
    pub fn to_traceparent(&self) -> String {
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id,
            self.span_id,
            u8::from(self.sampled)
        )
    }

    /// Parse a `traceparent` value; `None` on malformed input or the
    /// all-zero (invalid) trace id.
    pub fn parse(s: &str) -> Option<TraceContext> {
        let mut parts = s.trim().split('-');
        let (version, trace, span, flags) =
            (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() || version != "00" {
            return None;
        }
        if trace.len() != 32 || span.len() != 16 || flags.len() != 2 {
            return None;
        }
        let trace_id = u128::from_str_radix(trace, 16).ok()? as u64;
        let span_id = u64::from_str_radix(span, 16).ok()?;
        let flags = u8::from_str_radix(flags, 16).ok()?;
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            sampled: flags & 0x01 != 0,
        })
    }

    /// The header element.
    pub fn to_header(&self) -> Element {
        Element::new(ns::UVACG, Self::HEADER_LOCAL).text(self.to_traceparent())
    }

    /// Stamp onto an envelope, replacing any context already there
    /// (each hop re-stamps with its own span id).
    pub fn stamp(&self, env: &mut Envelope) {
        env.take_header(ns::UVACG, Self::HEADER_LOCAL);
        env.headers.push(self.to_header());
    }

    /// Recover the context from a received envelope, if present and
    /// well-formed.
    pub fn from_envelope(env: &Envelope) -> Option<TraceContext> {
        TraceContext::parse(&env.header(ns::UVACG, Self::HEADER_LOCAL)?.text_content())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epr_roundtrips_through_xml() {
        let epr = EndpointReference::resource("inproc://m1/Exec", "JobKey", "job-42")
            .with_property("{urn:x}Extra", "v");
        let back = EndpointReference::from_element(&epr.to_element()).unwrap();
        assert_eq!(back.address, epr.address);
        assert_eq!(back.resource_key(), Some("job-42"));
        assert_eq!(back.property("Extra"), Some("v"));
        // Clark-form names survive.
        assert_eq!(back.reference_properties[1].0, "{urn:x}Extra");
    }

    #[test]
    fn service_epr_has_no_key() {
        let epr = EndpointReference::service("http://h/svc");
        assert_eq!(epr.resource_key(), None);
        let el = epr.to_element();
        assert!(el.find(ns::WSA, "ReferenceProperties").is_none());
    }

    #[test]
    fn message_info_applies_and_extracts() {
        let to = EndpointReference::resource("inproc://m1/Exec", "JobKey", "7");
        let mut info = MessageInfo::request(to.clone(), "urn:Run");
        info.reply_to = Some(EndpointReference::service("inproc://client/listener"));
        let mut env = Envelope::new(Element::local("Run"));
        info.apply(&mut env);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        let back = MessageInfo::extract(&parsed).unwrap();
        assert_eq!(back.action, "urn:Run");
        assert_eq!(back.to.address, "inproc://m1/Exec");
        assert_eq!(back.to.resource_key(), Some("7"));
        assert_eq!(back.reply_to.unwrap().address, "inproc://client/listener");
        assert_eq!(back.message_id, info.message_id);
    }

    #[test]
    fn response_echoes_message_id() {
        let req = MessageInfo::request(EndpointReference::service("a"), "urn:Op");
        let resp = MessageInfo::response_to(&req, "Response");
        assert_eq!(resp.relates_to.as_deref(), Some(req.message_id.as_str()));
        assert_eq!(resp.action, "urn:OpResponse");
        assert_ne!(resp.message_id, req.message_id);
    }

    #[test]
    fn extract_requires_action() {
        let env = Envelope::new(Element::local("X"));
        assert!(MessageInfo::extract(&env).is_err());
    }

    #[test]
    fn message_ids_are_unique() {
        let a = fresh_message_id();
        let b = fresh_message_id();
        assert_ne!(a, b);
        assert!(a.starts_with("uuid:"));
    }

    #[test]
    fn message_ids_are_the_formatted_reference() {
        for pid in [0, 1, std::process::id(), u32::MAX] {
            for n in [0, 1, 0xdead_beef, u64::MAX] {
                assert_eq!(message_id(pid, n), format!("uuid:{pid:08x}-{n:016x}"));
            }
        }
        let id = fresh_message_id();
        let pid = format!("uuid:{:08x}-", std::process::id());
        assert!(id.starts_with(&pid) && id.len() == pid.len() + 16, "{id}");
    }

    #[test]
    fn display_shows_key() {
        let epr = EndpointReference::resource("inproc://m1/Fs", "DirKey", "d9");
        assert_eq!(epr.to_string(), "inproc://m1/Fs[DirKey=d9]");
    }

    #[test]
    fn trace_context_wire_roundtrip() {
        let tc = TraceContext::new(0xdead_beef_0042, 0x7, true);
        let tp = tc.to_traceparent();
        assert_eq!(
            tp,
            "00-00000000000000000000deadbeef0042-0000000000000007-01"
        );
        assert_eq!(TraceContext::parse(&tp), Some(tc));

        let mut env = Envelope::new(Element::local("Run"));
        tc.stamp(&mut env);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(TraceContext::from_envelope(&parsed), Some(tc));

        // Re-stamping replaces rather than accumulates.
        let mut env2 = parsed;
        let tc2 = TraceContext::new(tc.trace_id, 0x9, true);
        tc2.stamp(&mut env2);
        let headers: Vec<_> = env2
            .headers
            .iter()
            .filter(|h| h.name.is(ns::UVACG, TraceContext::HEADER_LOCAL))
            .collect();
        assert_eq!(headers.len(), 1);
        assert_eq!(TraceContext::from_envelope(&env2), Some(tc2));
    }

    #[test]
    fn trace_context_rejects_malformed() {
        for bad in [
            "",
            "00-xyz-0000000000000007-01",
            "01-00000000000000000000000000000001-0000000000000001-01", // wrong version
            "00-00000000000000000000000000000000-0000000000000001-01", // zero trace id
            "00-0001-0000000000000001-01",                             // short trace id
            "00-00000000000000000000000000000001-0001-01",             // short span id
            "00-00000000000000000000000000000001-0000000000000001-01-extra",
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
        let tc =
            TraceContext::parse("00-00000000000000000000000000000001-0000000000000002-00").unwrap();
        assert!(!tc.sampled);
    }

    #[test]
    fn trace_header_is_not_a_reference_property() {
        let to = EndpointReference::resource(
            "inproc://m1/Exec",
            "{http://grid.cs.virginia.edu/uvacg}JobKey",
            "7",
        );
        let mut env = Envelope::new(Element::local("Run"));
        MessageInfo::request(to, "urn:Run").apply(&mut env);
        TraceContext::new(1, 2, true).stamp(&mut env);
        let back = MessageInfo::extract(&Envelope::parse(&env.to_xml()).unwrap()).unwrap();
        // The real reference property survives; the trace header does
        // not leak into the key set.
        assert_eq!(back.to.resource_key(), Some("7"));
        assert_eq!(back.to.reference_properties.len(), 1);
    }
}
