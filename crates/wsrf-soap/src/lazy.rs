//! Lazy inbound envelopes: header routing from the pull stream.
//!
//! [`LazyEnvelope::scan`] makes one forward pass over a received wire
//! document with [`wsrf_xml::PullParser`]. Along the way it
//!
//! * reconstructs the full [`MessageInfo`] (To / Action / MessageID /
//!   RelatesTo / ReplyTo plus promoted reference-property headers)
//!   from text captured straight off the event stream,
//! * decodes the `{uvacg}TraceContext` header,
//! * materializes only the headers that later stages need as trees —
//!   `<ReplyTo>` (an embedded EPR) and WS-Security blocks — via the
//!   parser's `build_element` escape hatch,
//! * records the raw byte span and namespace scope of the body's
//!   operation element, deferring its DOM.
//!
//! The scan tokenizes the whole document (so malformed or truncated
//! input fails here, before any routing decision is acted on), but
//! builds no body DOM. Read-only operations that need at most the
//! body's name and text content answer without ever materializing it;
//! write operations call [`LazyEnvelope::materialize_body`] on demand.
//!
//! Semantics match the DOM path (`Envelope::parse` +
//! `MessageInfo::extract`) exactly: only the first `<soap:Header>` and
//! first `<soap:Body>` count, header order is irrelevant, duplicate
//! text headers resolve last-wins, unknown non-WSA/WSSE headers are
//! promoted to reference properties, and the trace-context header
//! never becomes one.

use std::sync::Arc;

use wsrf_xml::{Element, Event, PullParser, QName, XmlError};

use crate::addressing::{EndpointReference, MessageInfo, TraceContext, NO_ACTION};
use crate::ns;

/// Why [`LazyEnvelope::scan`] rejected a wire document. The two cases
/// fault differently downstream: a well-formed envelope that cannot be
/// routed is the container's `wsrf:BadRequest`, while an unparseable
/// one is a bare SOAP Client fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// The envelope parsed but carries no `wsa:Action` header — the
    /// same condition [`MessageInfo::extract`] rejects.
    MissingAction,
    /// The wire is not a well-formed SOAP envelope.
    Malformed(XmlError),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::MissingAction => XmlError::new(NO_ACTION).fmt(f),
            ScanError::Malformed(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ScanError {}

impl From<XmlError> for ScanError {
    fn from(e: XmlError) -> Self {
        ScanError::Malformed(e)
    }
}

/// A header-routed view of a received envelope whose body DOM has not
/// been built.
#[derive(Debug)]
pub struct LazyEnvelope<'a> {
    /// Fully reconstructed addressing headers.
    pub info: MessageInfo,
    /// Decoded trace-context header, if present and well-formed.
    pub trace: Option<TraceContext>,
    /// Headers materialized during the scan because a later stage
    /// needs them as trees: `<ReplyTo>` and WS-Security blocks.
    pub headers: Vec<Element>,
    /// Resolved name of the body's operation element.
    body_name: QName,
    /// Raw wire span of the operation element.
    body_span: &'a str,
    /// Namespace bindings in scope where the span starts.
    body_scope: Vec<(String, Option<Arc<str>>)>,
}

impl<'a> LazyEnvelope<'a> {
    /// Scan a wire document, routing on headers and deferring the
    /// body. Errors mirror [`crate::Envelope::parse`] +
    /// [`MessageInfo::extract`] on the same inputs.
    pub fn scan(wire: &'a str) -> Result<LazyEnvelope<'a>, ScanError> {
        let mut p = PullParser::new(wire);
        match p.next_event()? {
            Some(Event::Start { ns, local }) if is(&ns, local, ns::SOAP_ENV, "Envelope") => {}
            Some(Event::Start { ns, local }) => {
                return Err(XmlError::new(format!(
                    "expected soap:Envelope, found {}",
                    clark(&ns, local)
                ))
                .into());
            }
            // The tokenizer errors before yielding anything else first.
            _ => return Err(XmlError::new("expected soap:Envelope").into()),
        }

        let mut info = MessageInfo::default();
        let mut trace = None;
        let mut headers = Vec::new();
        let mut body: Option<(QName, &'a str, Vec<(String, Option<Arc<str>>)>)> = None;
        let mut seen_header = false;
        let mut seen_body = false;

        // Children of <Envelope>.
        loop {
            match p.next_event()? {
                Some(Event::Start { ns, local }) => {
                    if is(&ns, local, ns::SOAP_ENV, "Header") && !seen_header {
                        seen_header = true;
                        scan_headers(&mut p, &mut info, &mut trace, &mut headers)?;
                    } else if is(&ns, local, ns::SOAP_ENV, "Body") && !seen_body {
                        seen_body = true;
                        body = scan_body(&mut p, wire)?;
                    } else {
                        p.skip_element()?;
                    }
                }
                Some(Event::Text(_)) => {}
                Some(Event::End) => break,
                None => unreachable!("tokenizer reports eof-in-content as an error"),
            }
        }
        // Drive the trailing-content check, as Envelope::parse does.
        p.next_event()?;

        if !seen_body {
            return Err(XmlError::new(format!(
                "element <{{{}}}Envelope> is missing required child {{{}}}Body",
                ns::SOAP_ENV,
                ns::SOAP_ENV
            ))
            .into());
        }
        let (body_name, body_span, body_scope) =
            body.ok_or_else(|| XmlError::new("soap:Body must contain one element"))?;
        if info.action.is_empty() {
            return Err(ScanError::MissingAction);
        }
        Ok(LazyEnvelope {
            info,
            trace,
            headers,
            body_name,
            body_span,
            body_scope,
        })
    }

    /// Resolved name of the body's operation element (no DOM needed).
    pub fn body_name(&self) -> &QName {
        &self.body_name
    }

    /// Text content of the body element — concatenated character data
    /// of it and its descendants, like [`Element::text_content`] —
    /// collected from a re-tokenization of the deferred span without
    /// building a DOM.
    pub fn body_text(&self) -> String {
        let mut p = PullParser::with_scope(self.body_span, &self.body_scope);
        // The span already tokenized cleanly during the scan.
        match p.next_event() {
            Ok(Some(Event::Start { .. })) => p.collect_text().unwrap_or_default(),
            _ => String::new(),
        }
    }

    /// Materialize the deferred body element on demand (one DOM build,
    /// counted by [`wsrf_xml::dom_build_count`]).
    pub fn materialize_body(&self) -> Result<Element, XmlError> {
        let mut p = PullParser::with_scope(self.body_span, &self.body_scope);
        match p.next_event()? {
            Some(Event::Start { .. }) => p.build_element(),
            _ => Err(XmlError::new("deferred body span is not an element")),
        }
    }
}

fn is(ns: &Option<Arc<str>>, local: &str, want_ns: &str, want_local: &str) -> bool {
    local == want_local && ns.as_deref() == Some(want_ns)
}

fn clark(ns: &Option<Arc<str>>, local: &str) -> String {
    match ns {
        Some(uri) => format!("{{{}}}{}", uri, local),
        None => local.to_string(),
    }
}

/// Walk the children of the first `<soap:Header>`, mirroring the
/// classification chain of [`MessageInfo::extract`].
fn scan_headers(
    p: &mut PullParser<'_>,
    info: &mut MessageInfo,
    trace: &mut Option<TraceContext>,
    headers: &mut Vec<Element>,
) -> Result<(), XmlError> {
    loop {
        match p.next_event()? {
            Some(Event::Start { ns, local }) => {
                let nss = ns.as_deref();
                if nss == Some(ns::WSA) {
                    match local {
                        "To" => info.to.address = p.collect_text()?,
                        "Action" => info.action = p.collect_text()?,
                        "MessageID" => info.message_id = p.collect_text()?,
                        "RelatesTo" => info.relates_to = Some(p.collect_text()?),
                        "ReplyTo" => {
                            let el = p.build_element()?;
                            info.reply_to = Some(EndpointReference::from_element(&el)?);
                            headers.push(el);
                        }
                        // Unknown wsa headers are ignored.
                        _ => p.skip_element()?,
                    }
                } else if nss == Some(ns::WSSE) {
                    // Security blocks are consumed as trees by the
                    // security layer; keep them.
                    headers.push(p.build_element()?);
                } else if nss == Some(ns::UVACG) && local == TraceContext::HEADER_LOCAL {
                    // The trace context identifies the *request*, not
                    // the resource — never a reference property.
                    *trace = TraceContext::parse(&p.collect_text()?);
                } else {
                    // Promoted reference property.
                    let name = clark(&ns, local);
                    let text = p.collect_text()?;
                    info.to.reference_properties.push((name, text));
                }
            }
            Some(Event::Text(_)) => {}
            Some(Event::End) => return Ok(()),
            None => unreachable!("tokenizer reports eof-in-content as an error"),
        }
    }
}

/// Walk the children of the first `<soap:Body>`: capture the first
/// element's name, span and namespace scope, skip the rest.
#[allow(clippy::type_complexity)]
fn scan_body<'a>(
    p: &mut PullParser<'a>,
    wire: &'a str,
) -> Result<Option<(QName, &'a str, Vec<(String, Option<Arc<str>>)>)>, XmlError> {
    // Scope at <Body> includes every binding visible to its children
    // that the deferred span itself does not re-declare.
    let scope = p.scope();
    let mut first = None;
    loop {
        match p.next_event()? {
            Some(Event::Start { ns, local }) => {
                if first.is_none() {
                    let name = QName {
                        ns,
                        local: local.into(),
                    };
                    let start = p.last_start_pos();
                    p.skip_element()?;
                    first = Some((name, &wire[start..p.pos()], scope.clone()));
                } else {
                    // Extra body children are ignored, as in
                    // Envelope::from_element.
                    p.skip_element()?;
                }
            }
            Some(Event::Text(_)) => {}
            Some(Event::End) => return Ok(first),
            None => unreachable!("tokenizer reports eof-in-content as an error"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;
    use wsrf_xml::Element;

    fn request_wire() -> String {
        let to = EndpointReference::resource("inproc://m1/Exec", "{urn:k}JobKey", "j-7");
        let mut info = MessageInfo::request(to, "urn:svc/Run");
        info.reply_to = Some(EndpointReference::service("inproc://client/cb"));
        let mut env = Envelope::new(
            Element::new("urn:svc", "Run")
                .attr("mode", "fast")
                .child(Element::new("urn:svc", "Arg").text("a&b")),
        );
        info.apply(&mut env);
        TraceContext::new(0x42, 0x7, true).stamp(&mut env);
        env.to_xml()
    }

    #[test]
    fn scan_matches_dom_extraction() {
        let wire = request_wire();
        let dom = Envelope::parse(&wire).unwrap();
        let want = MessageInfo::extract(&dom).unwrap();
        let lazy = LazyEnvelope::scan(&wire).unwrap();
        assert_eq!(lazy.info, want);
        assert_eq!(lazy.trace, TraceContext::from_envelope(&dom));
        assert_eq!(lazy.body_name(), &dom.body.name);
        assert_eq!(lazy.body_text(), dom.body.text_content());
    }

    #[test]
    fn scan_builds_no_body_dom_until_asked() {
        // This thread's DOM builds: sibling tests build on others.
        let dom_builds = || wsrf_xml::parser::thread_parse_counts().1;
        let wire = request_wire();
        let before = dom_builds();
        let lazy = LazyEnvelope::scan(&wire).unwrap();
        let _ = lazy.body_text();
        // ReplyTo is the only tree built by the scan; the body span
        // stays raw even through body_text().
        assert_eq!(dom_builds() - before, 1);
        let body = lazy.materialize_body().unwrap();
        assert_eq!(dom_builds() - before, 2);
        assert_eq!(body, Envelope::parse(&wire).unwrap().body);
    }

    #[test]
    fn deferred_body_keeps_inherited_namespaces() {
        let wire = format!(
            "<e:Envelope xmlns:e=\"{soap}\" xmlns:p=\"urn:inherit\">\
             <e:Header><a:Action xmlns:a=\"{wsa}\">urn:op</a:Action></e:Header>\
             <e:Body><p:Op><p:Kid/></p:Op></e:Body></e:Envelope>",
            soap = ns::SOAP_ENV,
            wsa = ns::WSA,
        );
        let lazy = LazyEnvelope::scan(&wire).unwrap();
        assert!(lazy.body_name().is("urn:inherit", "Op"));
        let body = lazy.materialize_body().unwrap();
        assert_eq!(body, Envelope::parse(&wire).unwrap().body);
    }

    #[test]
    fn body_before_header_routes_identically() {
        let wire = format!(
            "<e:Envelope xmlns:e=\"{soap}\">\
             <e:Body><Op>x</Op></e:Body>\
             <e:Header><a:Action xmlns:a=\"{wsa}\">urn:op</a:Action>\
             <a:To xmlns:a=\"{wsa}\">dest</a:To></e:Header>\
             </e:Envelope>",
            soap = ns::SOAP_ENV,
            wsa = ns::WSA,
        );
        let lazy = LazyEnvelope::scan(&wire).unwrap();
        let want = MessageInfo::extract(&Envelope::parse(&wire).unwrap()).unwrap();
        assert_eq!(lazy.info, want);
        assert_eq!(lazy.info.to.address, "dest");
        assert_eq!(lazy.body_text(), "x");
    }

    #[test]
    fn duplicate_to_headers_resolve_last_wins() {
        let wire = format!(
            "<e:Envelope xmlns:e=\"{soap}\" xmlns:a=\"{wsa}\">\
             <e:Header><a:To>first</a:To><a:Action>urn:op</a:Action>\
             <a:To>second</a:To></e:Header>\
             <e:Body><Op/></e:Body></e:Envelope>",
            soap = ns::SOAP_ENV,
            wsa = ns::WSA,
        );
        let lazy = LazyEnvelope::scan(&wire).unwrap();
        let want = MessageInfo::extract(&Envelope::parse(&wire).unwrap()).unwrap();
        assert_eq!(lazy.info.to.address, "second");
        assert_eq!(lazy.info, want);
    }

    #[test]
    fn missing_action_fails_like_extract() {
        let wire = format!(
            "<e:Envelope xmlns:e=\"{soap}\"><e:Body><Op/></e:Body></e:Envelope>",
            soap = ns::SOAP_ENV,
        );
        let lazy_err = LazyEnvelope::scan(&wire).unwrap_err();
        let dom_err = MessageInfo::extract(&Envelope::parse(&wire).unwrap()).unwrap_err();
        assert_eq!(lazy_err, ScanError::MissingAction);
        assert_eq!(lazy_err.to_string(), dom_err.to_string());
    }

    #[test]
    fn malformed_wire_fails_like_dom_parse() {
        for wire in [
            "<a/>",                       // not an envelope
            "not xml at all",             // junk
            "<e:Envelope xmlns:e=\"x\">", // truncated
        ] {
            let lazy = LazyEnvelope::scan(wire);
            let dom = Envelope::parse(wire);
            assert!(lazy.is_err(), "{wire:?}");
            assert!(dom.is_err(), "{wire:?}");
        }
        // Truncated *body* after well-formed headers still fails the
        // scan (the single pass tokenizes everything).
        let truncated = format!(
            "<e:Envelope xmlns:e=\"{soap}\" xmlns:a=\"{wsa}\">\
             <e:Header><a:Action>urn:op</a:Action></e:Header>\
             <e:Body><Op><Unclosed>",
            soap = ns::SOAP_ENV,
            wsa = ns::WSA,
        );
        assert!(LazyEnvelope::scan(&truncated).is_err());
    }

    #[test]
    fn empty_body_fails_like_from_element() {
        let wire = format!(
            "<e:Envelope xmlns:e=\"{soap}\" xmlns:a=\"{wsa}\">\
             <e:Header><a:Action>urn:op</a:Action></e:Header>\
             <e:Body/></e:Envelope>",
            soap = ns::SOAP_ENV,
            wsa = ns::WSA,
        );
        let lazy_err = LazyEnvelope::scan(&wire).unwrap_err();
        let dom_err = Envelope::parse(&wire).unwrap_err();
        assert_eq!(lazy_err, ScanError::Malformed(dom_err));
    }

    #[test]
    fn security_headers_are_retained_as_trees() {
        let wire = format!(
            "<e:Envelope xmlns:e=\"{soap}\" xmlns:a=\"{wsa}\" xmlns:s=\"{wsse}\">\
             <e:Header><a:Action>urn:op</a:Action>\
             <s:Security><s:UsernameToken><s:Username>u</s:Username>\
             </s:UsernameToken></s:Security></e:Header>\
             <e:Body><Op/></e:Body></e:Envelope>",
            soap = ns::SOAP_ENV,
            wsa = ns::WSA,
            wsse = ns::WSSE,
        );
        let lazy = LazyEnvelope::scan(&wire).unwrap();
        let sec = lazy
            .headers
            .iter()
            .find(|h| h.name.is(ns::WSSE, "Security"))
            .expect("security header retained");
        let dom = Envelope::parse(&wire).unwrap();
        assert_eq!(sec, dom.header(ns::WSSE, "Security").unwrap());
    }
}
