//! XML serialization with automatic namespace-prefix management.
//!
//! The writer walks the element tree, assigning prefixes (`ns0`,
//! `ns1`, ...) to namespace URIs the first time they appear and emitting
//! the corresponding `xmlns:` declarations on the element that
//! introduced them. Prefix bindings are scoped: siblings reuse a
//! binding introduced by an ancestor but not one introduced by an
//! earlier sibling subtree.
//!
//! The serializer is **borrowing and sink-generic**: it never clones
//! the tree, and it renders through the [`XmlSink`] trait, so the same
//! single pass can fill a `String`, append to a reusable `Vec<u8>`
//! transport buffer, or — via [`LenSink`] — merely *count* bytes.
//! [`Element::encoded_len`] uses the counting sink to compute the exact
//! wire length without rendering, which is what lets the in-process
//! transport account for bytes with zero serializations per message.
//! Prefixes are tracked as integer ids on a stack-scoped table
//! (`bindings` holds `(uri, id)` pairs borrowed from the tree), so the
//! hot path performs no per-element allocations; the only heap use is
//! the prefix stack itself.

use crate::node::{Element, Node};

/// The XML declaration prepended by [`Element::to_document`] and
/// [`Element::write_document_into`].
pub const XML_PROLOG: &str = "<?xml version=\"1.0\" encoding=\"utf-8\"?>";

/// Output sink for the serializer.
///
/// Implemented for `String` (the classic `to_xml` path), `Vec<u8>`
/// (pooled transport buffers; the writer only pushes valid UTF-8) and
/// [`LenSink`] (byte counting without rendering).
pub trait XmlSink {
    /// Append a string slice.
    fn push_str(&mut self, s: &str);
    /// Append a single character.
    fn push_char(&mut self, c: char);
}

impl XmlSink for String {
    fn push_str(&mut self, s: &str) {
        self.push_str(s);
    }

    fn push_char(&mut self, c: char) {
        self.push(c);
    }
}

impl XmlSink for Vec<u8> {
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    fn push_char(&mut self, c: char) {
        let mut buf = [0u8; 4];
        self.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
    }
}

/// A sink that discards bytes and remembers only how many there were.
/// Feeding the serializer a `LenSink` *is* the exact-size computation:
/// the size pass and the render pass are the same code, so they cannot
/// disagree.
#[derive(Debug, Default, Clone, Copy)]
pub struct LenSink(usize);

impl LenSink {
    pub fn new() -> Self {
        LenSink(0)
    }

    /// Bytes "written" so far.
    pub fn len(&self) -> usize {
        self.0
    }

    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

impl XmlSink for LenSink {
    fn push_str(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn push_char(&mut self, c: char) {
        self.0 += c.len_utf8();
    }
}

/// Escape character data for use inside element content.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(s, &mut out);
    out
}

/// Escape character data for use inside a double-quoted attribute.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attr_into(s, &mut out);
    out
}

/// Copy `s` to `out`, replacing each byte `entity_for` names with its
/// entity. Every special is ASCII, so the scan runs over bytes and the
/// clean runs between specials — usually the whole string — go out in
/// one `push_str` each.
fn escape_into<S: XmlSink>(s: &str, out: &mut S, entity_for: impl Fn(u8) -> Option<&'static str>) {
    let mut clean_from = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if let Some(entity) = entity_for(b) {
            out.push_str(&s[clean_from..i]);
            out.push_str(entity);
            clean_from = i + 1;
        }
    }
    out.push_str(&s[clean_from..]);
}

/// [`escape_text`] straight into a sink: no intermediate `String`.
pub fn escape_text_into<S: XmlSink>(s: &str, out: &mut S) {
    escape_into(s, out, |b| match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        _ => None,
    })
}

/// [`escape_attr`] straight into a sink: no intermediate `String`.
pub fn escape_attr_into<S: XmlSink>(s: &str, out: &mut S) {
    escape_into(s, out, |b| match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        b'\n' => Some("&#10;"),
        b'\t' => Some("&#9;"),
        b'\r' => Some("&#13;"),
        _ => None,
    })
}

/// Append the synthesized prefix for binding `id` (`ns0`, `ns1`, ...)
/// without formatting through the allocator.
fn push_prefix<S: XmlSink>(out: &mut S, id: u32) {
    out.push_str("ns");
    // u32 has at most 10 decimal digits.
    let mut digits = [0u8; 10];
    let mut n = id;
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push_char(d as char);
    }
}

/// Scoped prefix table used during a single serialization pass. URIs
/// are borrowed from the tree being written; prefixes are the integer
/// ids they render as (`ns{id}`), assigned monotonically so sibling
/// subtrees never reuse each other's ids.
struct Scope<'n> {
    /// Stack of (uri, prefix id) bindings; later entries shadow earlier.
    bindings: Vec<(&'n str, u32)>,
    next_id: u32,
    /// Declarations introduced by the tag currently being opened,
    /// reused across elements so `open_tag` never allocates.
    fresh: Vec<(&'n str, u32)>,
}

impl<'n> Scope<'n> {
    fn new() -> Self {
        Scope {
            bindings: Vec::new(),
            next_id: 0,
            fresh: Vec::new(),
        }
    }

    fn lookup(&self, uri: &str) -> Option<u32> {
        // Namespace URIs are interned, so a bound URI is nearly always
        // the very same string: compare pointers before contents.
        self.bindings
            .iter()
            .rev()
            .find(|(u, _)| std::ptr::eq(*u, uri) || *u == uri)
            .map(|(_, id)| *id)
    }

    /// Resolve `uri` to a prefix id, minting a new declaration (staged
    /// in `fresh`) when neither the scope nor the current tag binds it.
    fn resolve(&mut self, uri: &'n str) -> u32 {
        if let Some(id) = self.lookup(uri) {
            return id;
        }
        if let Some(&(_, id)) = self.fresh.iter().find(|(u, _)| *u == uri) {
            return id;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.fresh.push((uri, id));
        id
    }

    /// Move the staged declarations into scope; returns how many were
    /// added (the caller truncates by the same count after the close
    /// tag).
    fn commit(&mut self) -> usize {
        let added = self.fresh.len();
        self.bindings.extend(self.fresh.iter().copied());
        added
    }
}

/// Emit `ns{id}:local`, or bare `local` for a name in no namespace.
fn emit_name<S: XmlSink>(prefix: Option<u32>, local: &str, out: &mut S) {
    if let Some(id) = prefix {
        push_prefix(out, id);
        out.push_char(':');
    }
    out.push_str(local);
}

/// Move the declarations staged in `scope.fresh` into scope and emit
/// `<name` plus their `xmlns:` attributes. Returns the number of
/// bindings introduced.
fn open_with_decls<S: XmlSink>(
    prefix: Option<u32>,
    local: &str,
    out: &mut S,
    scope: &mut Scope<'_>,
) -> usize {
    let added = scope.commit();
    out.push_char('<');
    emit_name(prefix, local, out);
    // Declarations introduced by this tag sit at the top of the stack.
    for &(uri, id) in &scope.bindings[scope.bindings.len() - added..] {
        out.push_str(" xmlns:");
        push_prefix(out, id);
        out.push_str("=\"");
        escape_attr_into(uri, out);
        out.push_char('"');
    }
    added
}

/// Open tag for a synthetic (element-free) name: resolve, declare,
/// emit. Returns the number of bindings introduced and the name's
/// prefix id, which the close tag reuses.
fn open_raw<'n, S: XmlSink>(
    ns: Option<&'n str>,
    local: &'n str,
    out: &mut S,
    scope: &mut Scope<'n>,
) -> (usize, Option<u32>) {
    scope.fresh.clear();
    let prefix = ns.map(|uri| scope.resolve(uri));
    (open_with_decls(prefix, local, out, scope), prefix)
}

/// Open tag for a real element: two passes — resolve every prefix the
/// tag needs (element name first, then attribute names, matching the
/// historical declaration order), then emit name, `xmlns:` declarations
/// and attributes. Returns the number of bindings introduced and the
/// element name's prefix id, which the close tag reuses.
fn open_tag<'n, S: XmlSink>(
    e: &'n Element,
    out: &mut S,
    scope: &mut Scope<'n>,
) -> (usize, Option<u32>) {
    scope.fresh.clear();
    let prefix = e.name.ns_str().map(|uri| scope.resolve(uri));
    for (an, _) in &e.attrs {
        if let Some(uri) = an.ns_str() {
            scope.resolve(uri);
        }
    }
    let added = open_with_decls(prefix, &e.name.local, out, scope);
    for (an, av) in &e.attrs {
        out.push_char(' ');
        let attr_prefix = an.ns_str().map(|uri| {
            scope
                .lookup(uri)
                .expect("attribute namespace resolved above")
        });
        emit_name(attr_prefix, &an.local, out);
        out.push_str("=\"");
        escape_attr_into(av, out);
        out.push_char('"');
    }
    (added, prefix)
}

fn write_element<'n, S: XmlSink>(e: &'n Element, out: &mut S, scope: &mut Scope<'n>) {
    let (added, prefix) = open_tag(e, out, scope);
    if e.children.is_empty() {
        out.push_str("/>");
    } else {
        out.push_char('>');
        for c in &e.children {
            match c {
                Node::Text(t) => escape_text_into(t, out),
                Node::Element(el) => write_element(el, out, scope),
            }
        }
        out.push_str("</");
        emit_name(prefix, &e.name.local, out);
        out.push_char('>');
    }
    scope.bindings.truncate(scope.bindings.len() - added);
}

impl Element {
    /// Serialize this element (and subtree) to a compact XML string.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_xml_into(&mut out);
        out
    }

    /// Serialize with a leading XML declaration, as sent on the wire.
    pub fn to_document(&self) -> String {
        let mut out = String::with_capacity(256 + XML_PROLOG.len());
        self.write_document_into(&mut out);
        out
    }

    /// Serialize into an existing sink without cloning the tree —
    /// byte-for-byte identical to [`Element::to_xml`].
    pub fn write_xml_into<S: XmlSink>(&self, out: &mut S) {
        let mut scope = Scope::new();
        write_element(self, out, &mut scope);
    }

    /// Serialize with the XML declaration into an existing sink —
    /// byte-for-byte identical to [`Element::to_document`].
    pub fn write_document_into<S: XmlSink>(&self, out: &mut S) {
        out.push_str(XML_PROLOG);
        self.write_xml_into(out);
    }

    /// Exact serialized size in bytes: `to_xml().len()` computed in a
    /// single counting pass, without rendering. The pass shares the
    /// serializer code path (via [`LenSink`]), so the count includes
    /// namespace declarations, synthesized prefixes and escaping — the
    /// things [`Element::approx_size`] deliberately skips.
    pub fn encoded_len(&self) -> usize {
        let mut count = LenSink::new();
        self.write_xml_into(&mut count);
        count.len()
    }

    /// Serialize to an indented, human-readable string (used by the
    /// examples and by diagnostics; never on the wire).
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut scope = Scope::new();
        write_pretty(self, &mut out, &mut scope, 0);
        out
    }
}

/// Streaming writer for documents whose outer structure is not an
/// [`Element`] tree: open synthetic tags with [`TreeWriter::start`],
/// splice whole borrowed subtrees with [`TreeWriter::element`], close
/// with [`TreeWriter::end`]. All prefix scoping is shared with the
/// element serializer, so a document written this way is byte-for-byte
/// what serializing the equivalent built tree would produce — without
/// ever building (or cloning into) that tree. `wsrf-soap` uses this to
/// render envelopes straight from their `headers`/`body` fields.
pub struct TreeWriter<'o, 'n, S: XmlSink> {
    out: &'o mut S,
    scope: Scope<'n>,
    /// Open synthetic tags: prefix id, local name, bindings introduced.
    open: Vec<(Option<u32>, &'n str, usize)>,
}

impl<'o, 'n, S: XmlSink> TreeWriter<'o, 'n, S> {
    pub fn new(out: &'o mut S) -> Self {
        TreeWriter {
            out,
            scope: Scope::new(),
            open: Vec::new(),
        }
    }

    /// Emit the XML declaration (call first, at most once).
    pub fn prolog(&mut self) {
        self.out.push_str(XML_PROLOG);
    }

    /// Open `<prefix:local>` for a synthetic element that will receive
    /// children. Attributes are not supported on synthetic tags; use
    /// [`TreeWriter::element`] for real elements.
    pub fn start(&mut self, ns: Option<&'n str>, local: &'n str) {
        let (added, prefix) = open_raw(ns, local, self.out, &mut self.scope);
        self.out.push_char('>');
        self.open.push((prefix, local, added));
    }

    /// Serialize a borrowed element subtree in the current scope.
    pub fn element(&mut self, e: &'n Element) {
        write_element(e, self.out, &mut self.scope);
    }

    /// Close the most recently opened synthetic tag.
    pub fn end(&mut self) {
        let (prefix, local, added) = self.open.pop().expect("TreeWriter::end without start");
        self.out.push_str("</");
        emit_name(prefix, local, self.out);
        self.out.push_char('>');
        self.scope
            .bindings
            .truncate(self.scope.bindings.len() - added);
    }
}

fn write_pretty<'n>(e: &'n Element, out: &mut String, scope: &mut Scope<'n>, depth: usize) {
    let indent = "  ".repeat(depth);
    out.push_str(&indent);
    let (added, prefix) = open_tag(e, out, scope);
    let has_child_elems = e.elements().next().is_some();
    if e.children.is_empty() {
        out.push_str("/>\n");
    } else if !has_child_elems {
        out.push('>');
        for c in &e.children {
            if let Node::Text(t) = c {
                escape_text_into(t, out);
            }
        }
        out.push_str("</");
        emit_name(prefix, &e.name.local, out);
        out.push_str(">\n");
    } else {
        out.push_str(">\n");
        for c in &e.children {
            match c {
                Node::Text(t) if t.trim().is_empty() => {}
                Node::Text(t) => {
                    out.push_str(&"  ".repeat(depth + 1));
                    escape_text_into(t, out);
                    out.push('\n');
                }
                Node::Element(el) => write_pretty(el, out, scope, depth + 1),
            }
        }
        out.push_str(&indent);
        out.push_str("</");
        emit_name(prefix, &e.name.local, out);
        out.push_str(">\n");
    }
    scope.bindings.truncate(scope.bindings.len() - added);
}

#[cfg(test)]
mod tests {
    use super::{LenSink, TreeWriter, XmlSink};
    use crate::{Element, QName};

    #[test]
    fn writes_empty_element() {
        assert_eq!(Element::local("a").to_xml(), "<a/>");
    }

    #[test]
    fn writes_namespace_declarations_once() {
        let e = Element::new("urn:x", "a")
            .child(Element::new("urn:x", "b"))
            .child(Element::new("urn:y", "c"));
        let xml = e.to_xml();
        assert_eq!(
            xml,
            "<ns0:a xmlns:ns0=\"urn:x\"><ns0:b/><ns1:c xmlns:ns1=\"urn:y\"/></ns0:a>"
        );
    }

    #[test]
    fn escapes_text_and_attributes() {
        let e = Element::local("a")
            .attr("v", "x<\">&")
            .text("1 < 2 & 3 > 2");
        let xml = e.to_xml();
        assert_eq!(
            xml,
            "<a v=\"x&lt;&quot;&gt;&amp;\">1 &lt; 2 &amp; 3 &gt; 2</a>"
        );
    }

    /// The per-`char` escaper this module used to run, kept as the
    /// reference the byte-scanning one is pinned to.
    fn escape_per_char(s: &str, attr: bool) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' if attr => out.push_str("&quot;"),
                '\n' if attr => out.push_str("&#10;"),
                '\t' if attr => out.push_str("&#9;"),
                '\r' if attr => out.push_str("&#13;"),
                _ => out.push(c),
            }
        }
        out
    }

    fn escaped<S: XmlSink + Default>(s: &str, attr: bool) -> S {
        let mut out = S::default();
        if attr {
            super::escape_attr_into(s, &mut out);
        } else {
            super::escape_text_into(s, &mut out);
        }
        out
    }

    proptest::proptest! {
        /// Specials packed against 1-, 2-, 3- and 4-byte characters.
        #[test]
        fn escaping_matches_per_char_reference(
            s in "[&<>\"\n\t\r'&<>\"\n\t\ra-z \u{80}-\u{7ff}\u{800}-\u{d7ff}\u{e000}-\u{ffff}\u{10000}-\u{10ffff}]{0,48}"
        ) {
            for attr in [false, true] {
                let want = escape_per_char(&s, attr);
                proptest::prop_assert_eq!(&escaped::<String>(&s, attr), &want);
                proptest::prop_assert_eq!(&escaped::<Vec<u8>>(&s, attr), want.as_bytes());
                proptest::prop_assert_eq!(escaped::<LenSink>(&s, attr).len(), want.len());
            }
        }
    }

    #[test]
    fn sibling_scopes_do_not_leak_prefixes() {
        // urn:y is introduced inside the first child's subtree; the
        // second child must re-declare it.
        let e = Element::local("r")
            .child(Element::local("c1").child(Element::new("urn:y", "x")))
            .child(Element::new("urn:y", "x"));
        let xml = e.to_xml();
        assert_eq!(xml.matches("xmlns:").count(), 2, "{}", xml);
    }

    #[test]
    fn document_has_declaration() {
        assert!(Element::local("a").to_document().starts_with("<?xml"));
    }

    #[test]
    fn pretty_print_indents() {
        let e = Element::local("a").child(Element::local("b").text("t"));
        let pretty = e.to_pretty_xml();
        assert_eq!(pretty, "<a>\n  <b>t</b>\n</a>\n");
    }

    #[test]
    fn attribute_namespaces_declare_on_the_tag() {
        let e = Element::new("urn:x", "a").attr_ns(QName::new("urn:attr", "k"), "v");
        assert_eq!(
            e.to_xml(),
            "<ns0:a xmlns:ns0=\"urn:x\" xmlns:ns1=\"urn:attr\" ns1:k=\"v\"/>"
        );
    }

    #[test]
    fn encoded_len_matches_render_exactly() {
        let e = Element::new("urn:x", "root")
            .attr("plain", "a&b")
            .attr_ns(QName::new("urn:y", "q"), "line\nbreak")
            .child(Element::new("urn:x", "kid").text("1 < 2"))
            .child(Element::local("bare").child(Element::new("urn:z", "deep")))
            .text("日本語 & more");
        let xml = e.to_xml();
        assert_eq!(e.encoded_len(), xml.len());
        assert_eq!(
            e.encoded_len() + super::XML_PROLOG.len(),
            e.to_document().len()
        );
    }

    #[test]
    fn vec_sink_matches_string_sink() {
        let e = Element::new("urn:x", "a").child(Element::new("urn:y", "b").text("t<ö>"));
        let mut v: Vec<u8> = Vec::new();
        e.write_xml_into(&mut v);
        assert_eq!(v, e.to_xml().into_bytes());
        let mut doc: Vec<u8> = Vec::new();
        e.write_document_into(&mut doc);
        assert_eq!(doc, e.to_document().into_bytes());
    }

    #[test]
    fn len_sink_counts_utf8_bytes() {
        let mut c = LenSink::new();
        c.push_str("ab");
        c.push_char('ö');
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn tree_writer_matches_built_tree() {
        const NS: &str = "urn:outer";
        let h1 = Element::new("urn:h", "H1").text("x");
        let h2 = Element::new("urn:h", "H2").attr("k", "v");
        let body = Element::new("urn:b", "B").child(Element::new(NS, "reuse"));

        // The same document built as a tree and cloned in...
        let built = Element::new(NS, "Env")
            .child(Element::new(NS, "Head").child(h1.clone()).child(h2.clone()))
            .child(Element::new(NS, "Body").child(body.clone()))
            .to_document();

        // ...and streamed without cloning.
        let mut out = String::new();
        let mut w = TreeWriter::new(&mut out);
        w.prolog();
        w.start(Some(NS), "Env");
        w.start(Some(NS), "Head");
        w.element(&h1);
        w.element(&h2);
        w.end();
        w.start(Some(NS), "Body");
        w.element(&body);
        w.end();
        w.end();
        assert_eq!(out, built);

        // The counting sink agrees with the rendering sink.
        let mut count = LenSink::new();
        let mut w = TreeWriter::new(&mut count);
        w.prolog();
        w.start(Some(NS), "Env");
        w.start(Some(NS), "Head");
        w.element(&h1);
        w.element(&h2);
        w.end();
        w.start(Some(NS), "Body");
        w.element(&body);
        w.end();
        w.end();
        assert_eq!(count.len(), built.len());
    }

    #[test]
    fn prefix_ids_grow_past_nine_without_reuse() {
        // Eleven distinct sibling namespaces force a two-digit prefix;
        // the length pass must agree with the render on every digit.
        let mut root = Element::local("r");
        for i in 0..11 {
            root.push_child(Element::new(format!("urn:n{i}"), "c"));
        }
        let xml = root.to_xml();
        assert!(xml.contains("xmlns:ns10=\"urn:n10\""), "{xml}");
        assert_eq!(root.encoded_len(), xml.len());
    }
}
