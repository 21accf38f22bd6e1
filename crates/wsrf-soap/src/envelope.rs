//! SOAP envelopes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wsrf_xml::{Element, Event, LenSink, PullParser, TreeWriter, XmlError, XmlSink};

use crate::ns;

/// Full envelope serializations performed so far (process-wide).
/// [`Envelope::wire_len`] does *not* count: it renders into a
/// byte-counting sink, which is the point — the tests use this counter
/// to prove the transports hit their render budgets (zero per inproc
/// exchange, one per direction on the socket transports).
static RENDERS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of full envelope renders ([`Envelope::write_into`]
/// / [`Envelope::to_xml`] calls). Test hook for the render-once wire
/// path invariant; see `tests/wirepath_renders.rs`.
pub fn render_count() -> u64 {
    RENDERS.load(Ordering::Relaxed)
}

/// A SOAP message: ordered header blocks plus exactly one body element.
///
/// The body holds the operation request/response (or a `<Fault>`); the
/// headers hold WS-Addressing, reference properties and WS-Security
/// blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Header blocks in order. Each is a top-level child of
    /// `<soap:Header>`.
    pub headers: Vec<Element>,
    /// The single child element of `<soap:Body>`.
    pub body: Element,
}

impl Envelope {
    /// An envelope with the given body and no headers.
    pub fn new(body: Element) -> Self {
        Envelope {
            headers: Vec::new(),
            body,
        }
    }

    /// Builder-style header append.
    pub fn with_header(mut self, header: Element) -> Self {
        self.headers.push(header);
        self
    }

    /// First header block with the given namespace/local name.
    pub fn header(&self, nsuri: &str, local: &str) -> Option<&Element> {
        self.headers.iter().find(|h| h.name.is(nsuri, local))
    }

    /// Remove and return the first matching header block.
    pub fn take_header(&mut self, nsuri: &str, local: &str) -> Option<Element> {
        let idx = self.headers.iter().position(|h| h.name.is(nsuri, local))?;
        Some(self.headers.remove(idx))
    }

    /// Stream the wire document into `out` without cloning the tree:
    /// the `<soap:Envelope>`/`<soap:Header>`/`<soap:Body>` scaffolding
    /// is written directly and the header/body subtrees are serialized
    /// in place. `<soap:Envelope>` declares WS-Addressing beside `soap`,
    /// so every addressing header and every EPR in the body reuses that
    /// one binding instead of declaring its own.
    fn render<S: XmlSink>(&self, out: &mut S) {
        let mut w = TreeWriter::new(out);
        w.prolog();
        w.start_declaring(Some(ns::SOAP_ENV), "Envelope", &[ns::WSA]);
        if !self.headers.is_empty() {
            w.start(Some(ns::SOAP_ENV), "Header");
            for h in &self.headers {
                w.element(h);
            }
            w.end();
        }
        w.start(Some(ns::SOAP_ENV), "Body");
        w.element(&self.body);
        w.end();
        w.end();
    }

    /// Serialize the wire document into a reusable buffer (appends; the
    /// caller clears). One full render, zero clones.
    pub fn write_into<S: XmlSink>(&self, out: &mut S) {
        RENDERS.fetch_add(1, Ordering::Relaxed);
        self.render(out);
    }

    /// Exact wire size in bytes — `to_xml().len()` computed by running
    /// the serializer against a counting sink. No allocation, no clone,
    /// and it does not count as a render (see [`render_count`]).
    pub fn wire_len(&self) -> usize {
        let mut count = LenSink::new();
        self.render(&mut count);
        count.len()
    }

    /// Serialize to the on-the-wire document string. Thin compatibility
    /// wrapper over [`Self::write_into`].
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_into(&mut out);
        out
    }

    /// Parse an envelope from its wire form: one pass over the pull
    /// stream under the rules [`walk`] shares with
    /// [`LazyEnvelope::scan`](crate::LazyEnvelope::scan), building each
    /// header block and the body element where it stands — no wrapper
    /// tree to copy them out of. Counts one DOM build.
    pub fn parse(xml: &str) -> Result<Envelope, XmlError> {
        let mut headers = Vec::new();
        let body = walk(
            &mut PullParser::new(xml),
            |p| {
                children(p, |p, _, _| {
                    headers.push(p.build_part()?);
                    Ok(())
                })
            },
            |p| first_child(p, |p, _, _| p.build_element()),
        )?;
        Ok(Envelope { headers, body })
    }
}

/// Walk a wire envelope under the rules both decoders share: the root
/// must be `soap:Envelope`; only its first `soap:Header` and its first
/// `soap:Body` count, each handed to its callback just after its start
/// tag (the callback consumes it through its end); any other child is
/// skipped, and content after the envelope is an error. Returns what
/// `body` made of the Body's first element, failing if there was no
/// Body or no element in it.
pub(crate) fn walk<'a, T>(
    p: &mut PullParser<'a>,
    mut header: impl FnMut(&mut PullParser<'a>) -> Result<(), XmlError>,
    mut body: impl FnMut(&mut PullParser<'a>) -> Result<Option<T>, XmlError>,
) -> Result<T, XmlError> {
    match p.next_event()? {
        Some(Event::Start { ns, local }) if is(&ns, local, ns::SOAP_ENV, "Envelope") => {}
        Some(Event::Start { ns, local }) => {
            return Err(XmlError::new(format!(
                "expected soap:Envelope, found {}",
                clark(&ns, local)
            )));
        }
        // The tokenizer errors before yielding anything else first.
        _ => return Err(XmlError::new("expected soap:Envelope")),
    }
    let mut seen_header = false;
    let mut found = None;
    children(p, |p, ns, local| {
        if is(&ns, local, ns::SOAP_ENV, "Header") && !seen_header {
            seen_header = true;
            header(p)
        } else if is(&ns, local, ns::SOAP_ENV, "Body") && found.is_none() {
            found = Some(body(p)?);
            Ok(())
        } else {
            p.skip_element()
        }
    })?;
    // The trailing-content check.
    p.next_event()?;
    match found {
        None => Err(XmlError::new(format!(
            "element <{{{soap}}}Envelope> is missing required child {{{soap}}}Body",
            soap = ns::SOAP_ENV
        ))),
        Some(None) => Err(XmlError::new("soap:Body must contain one element")),
        Some(Some(t)) => Ok(t),
    }
}

/// Hand each element child of the element whose start tag was just
/// pulled to `f`, which consumes it through its end; the text between
/// them is skipped. Returns after the parent's end tag.
pub(crate) fn children<'a>(
    p: &mut PullParser<'a>,
    mut f: impl FnMut(&mut PullParser<'a>, Option<Arc<str>>, &'a str) -> Result<(), XmlError>,
) -> Result<(), XmlError> {
    loop {
        match p.next_event()? {
            Some(Event::Start { ns, local }) => f(p, ns, local)?,
            Some(Event::Text(_)) => {}
            Some(Event::End) => return Ok(()),
            None => unreachable!("tokenizer reports eof-in-content as an error"),
        }
    }
}

/// [`children`], handing only the first element child to `f` and
/// skipping the rest: what `f` made of it, if there was one.
pub(crate) fn first_child<'a, T>(
    p: &mut PullParser<'a>,
    mut f: impl FnMut(&mut PullParser<'a>, Option<Arc<str>>, &'a str) -> Result<T, XmlError>,
) -> Result<Option<T>, XmlError> {
    let mut first = None;
    children(p, |p, ns, local| {
        if first.is_none() {
            first = Some(f(p, ns, local)?);
            Ok(())
        } else {
            p.skip_element()
        }
    })?;
    Ok(first)
}

pub(crate) fn is(ns: &Option<Arc<str>>, local: &str, want_ns: &str, want_local: &str) -> bool {
    local == want_local && ns.as_deref() == Some(want_ns)
}

/// `{uri}local`, as a [`wsrf_xml::QName`] displays.
pub(crate) fn clark(ns: &Option<Arc<str>>, local: &str) -> String {
    match ns {
        Some(uri) => format!("{{{}}}{}", uri, local),
        None => local.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrf_xml::Element;

    fn request() -> Envelope {
        Envelope::new(Element::new("urn:svc", "Run").attr("job", "j1"))
            .with_header(Element::new(crate::ns::WSA, "Action").text("urn:svc/Run"))
            .with_header(Element::new("urn:custom", "Tag").text("x"))
    }

    #[test]
    fn roundtrips_through_wire_form() {
        let env = request();
        let back = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn header_lookup_and_removal() {
        let mut env = request();
        assert!(env.header(crate::ns::WSA, "Action").is_some());
        let taken = env.take_header("urn:custom", "Tag").unwrap();
        assert_eq!(taken.text_content(), "x");
        assert!(env.header("urn:custom", "Tag").is_none());
        assert_eq!(env.headers.len(), 1);
    }

    #[test]
    fn headerless_envelope_omits_header_element() {
        let env = Envelope::new(Element::local("Ping"));
        let xml = env.to_xml();
        assert!(!xml.contains("Header"), "{}", xml);
        assert_eq!(Envelope::parse(&xml).unwrap(), env);
    }

    #[test]
    fn rejects_non_envelope_roots() {
        assert!(Envelope::parse("<a/>").is_err());
    }

    #[test]
    fn rejects_empty_body() {
        let xml = format!(
            "<e:Envelope xmlns:e=\"{}\"><e:Body/></e:Envelope>",
            crate::ns::SOAP_ENV
        );
        assert!(Envelope::parse(&xml).is_err());
    }

    #[test]
    fn fault_detection() {
        let env = Envelope::new(Element::new(crate::ns::SOAP_ENV, "Fault"));
        assert!(env.is_fault());
        assert!(!request().is_fault());
        assert!(request().fault().is_none());
    }
}
