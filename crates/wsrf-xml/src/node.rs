//! The XML tree: elements, attributes and text nodes, with a fluent
//! builder API used pervasively when assembling SOAP messages.

use std::sync::{Arc, OnceLock};

use crate::name::{LocalName, QName};

/// A node in an XML tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A run of character data (already unescaped).
    Text(String),
    /// An immutable element shared between trees (see [`Fragment`]).
    /// Reads see through it as through [`Node::Element`]; the parser
    /// never produces one.
    Shared(Arc<Fragment>),
}

impl Node {
    /// The contained element, if this node is one (a shared node's
    /// root).
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Shared(f) => Some(&f.root),
            Node::Text(_) => None,
        }
    }

    /// The contained text, if this node is character data.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            Node::Element(_) | Node::Shared(_) => None,
        }
    }

    /// The contained element by value: moved out of an element node,
    /// copied out of a shared one unless this was its last holder.
    pub fn into_element(self) -> Option<Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Shared(f) => Some(Arc::try_unwrap(f).map_or_else(|f| f.root.clone(), |f| f.root)),
            Node::Text(_) => None,
        }
    }
}

/// A shared node is equal to the element it wraps.
impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        match (self, other) {
            (Node::Text(a), Node::Text(b)) => a == b,
            (Node::Text(_), _) | (_, Node::Text(_)) => false,
            _ => self.as_element() == other.as_element(),
        }
    }
}

/// An immutable element that caches its own rendering, so that one
/// message built once can be spliced into many trees ([`Node::Shared`])
/// — the broker's one `NotificationMessage` per publish in every
/// consumer's envelope.
///
/// The splice renders exactly what the same element inlined at that
/// point would render: prefixes are not re-declared inside the
/// fragment. That rendering depends on two things at the splice point
/// only — the prefix ids the enclosing scope binds for the namespaces
/// the fragment uses, and the next id the writer would mint — so the
/// first splice records them with the bytes it wrote and the number of
/// ids it minted. A later splice in the same prefix environment is one
/// copy of those bytes (one add on a [`crate::LenSink`]); any other
/// environment renders the tree again.
pub struct Fragment {
    pub(crate) root: Element,
    /// Every namespace the fragment's names use, once each.
    pub(crate) uris: Vec<Arc<str>>,
    pub(crate) splice: OnceLock<crate::writer::Splice>,
}

impl Fragment {
    /// Freeze `root` as a shareable fragment.
    pub fn new(root: Element) -> Fragment {
        let mut uris: Vec<Arc<str>> = Vec::new();
        for e in root.descendants() {
            let names = std::iter::once(&e.name).chain(e.attrs.iter().map(|(n, _)| n));
            for uri in names.filter_map(|n| n.ns.as_ref()) {
                if !uris.iter().any(|u| u == uri) {
                    uris.push(uri.clone());
                }
            }
        }
        Fragment {
            root,
            uris,
            splice: OnceLock::new(),
        }
    }

    /// The frozen element.
    pub fn root(&self) -> &Element {
        &self.root
    }
}

impl std::fmt::Debug for Fragment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Fragment").field(&self.root).finish()
    }
}

/// An XML element: a qualified name, attributes and ordered children.
///
/// This is the universal currency of the workspace — SOAP envelopes,
/// resource property documents, notification payloads and fault details
/// are all `Element` trees.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Element {
    /// The element's qualified name.
    pub name: QName,
    /// Attributes in document order. Namespace declarations are *not*
    /// stored here; prefixes are synthesized by the writer.
    pub attrs: Vec<(QName, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// New empty element in a namespace.
    pub fn new(ns: impl AsRef<str>, local: impl Into<LocalName>) -> Self {
        Element {
            name: QName::new(ns, local),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// New empty element in no namespace.
    pub fn local(local: impl Into<LocalName>) -> Self {
        Element {
            name: QName::local(local),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// New element with the given qualified name.
    pub fn with_name(name: QName) -> Self {
        Element {
            name,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    // ---- builder API -------------------------------------------------

    /// Add an unqualified attribute (builder style).
    pub fn attr(mut self, name: impl Into<LocalName>, value: impl Into<String>) -> Self {
        self.attrs.push((QName::local(name), value.into()));
        self
    }

    /// Add a namespace-qualified attribute (builder style).
    pub fn attr_ns(mut self, name: QName, value: impl Into<String>) -> Self {
        self.attrs.push((name, value.into()));
        self
    }

    /// Append a child element (builder style).
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Append several child elements (builder style).
    pub fn children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        self.children
            .extend(children.into_iter().map(Node::Element));
        self
    }

    /// Append a text node (builder style). Empty text is skipped:
    /// `<a></a>` and `<a/>` are the same infoset, so empty text nodes
    /// could never survive a write/parse roundtrip.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.push_text(text);
        self
    }

    /// Append a shared fragment as a child (builder style).
    pub fn shared(mut self, fragment: Arc<Fragment>) -> Self {
        self.children.push(Node::Shared(fragment));
        self
    }

    /// Append a child element in place.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Append a text node in place (empty text is skipped; see
    /// [`Self::text`]).
    pub fn push_text(&mut self, text: impl Into<String>) {
        let text = text.into();
        if !text.is_empty() {
            self.children.push(Node::Text(text));
        }
    }

    // ---- navigation ---------------------------------------------------

    /// Iterator over child elements (skipping text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// First child element with the given namespace and local name.
    pub fn find(&self, ns: &str, local: &str) -> Option<&Element> {
        self.elements().find(|e| e.name.is(ns, local))
    }

    /// All child elements with the given namespace and local name.
    pub fn find_all<'a>(
        &'a self,
        ns: &'a str,
        local: &'a str,
    ) -> impl Iterator<Item = &'a Element> {
        self.elements().filter(move |e| e.name.is(ns, local))
    }

    /// First child element with the given local name, in any namespace.
    pub fn find_local(&self, local: &str) -> Option<&Element> {
        self.elements().find(|e| e.name.local == *local)
    }

    /// Mutable access to the first child element with the given name. A
    /// shared child is first replaced by its own copy: the fragment
    /// itself is never edited.
    pub fn find_mut(&mut self, ns: &str, local: &str) -> Option<&mut Element> {
        let node = self
            .children
            .iter_mut()
            .find(|n| n.as_element().is_some_and(|e| e.name.is(ns, local)))?;
        if let Node::Shared(f) = node {
            *node = Node::Element(f.root.clone());
        }
        match node {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Value of an unqualified attribute.
    pub fn attr_value(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(q, _)| q.ns.is_none() && q.local == *name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of a namespace-qualified attribute.
    pub fn attr_value_ns(&self, ns: &str, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(q, _)| q.is(ns, name))
            .map(|(_, v)| v.as_str())
    }

    /// Estimated serialized byte size — open/close tags, attributes,
    /// text and descendants — computed without serializing (no
    /// allocation). Namespace declarations are not counted, so this
    /// slightly undershoots `to_xml().len()`; metrics accounting uses
    /// it where exact wire size is not worth a serialization pass.
    pub fn approx_size(&self) -> usize {
        // "<local>" + "</local>"
        let mut n = 2 * self.name.local.len() + 5;
        for (name, value) in &self.attrs {
            n += name.local.len() + value.len() + 4;
        }
        for c in &self.children {
            n += match c.as_element() {
                Some(e) => e.approx_size(),
                None => c.as_text().map_or(0, str::len),
            };
        }
        n
    }

    /// Concatenation of all descendant text.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for c in &self.children {
            match c.as_element() {
                Some(e) => e.collect_text(out),
                None => out.push_str(c.as_text().unwrap_or_default()),
            }
        }
    }

    /// Depth-first iterator over this element and all descendants.
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: vec![self] }
    }

    /// Required child lookup, for protocol decoding: like [`Self::find`]
    /// but produces a descriptive error.
    pub fn expect(&self, ns: &str, local: &str) -> crate::Result<&Element> {
        self.find(ns, local).ok_or_else(|| {
            crate::XmlError::new(format!(
                "element <{}> is missing required child {{{}}}{}",
                self.name, ns, local
            ))
        })
    }

    /// Required child's text content.
    pub fn expect_text(&self, ns: &str, local: &str) -> crate::Result<String> {
        Ok(self.expect(ns, local)?.text_content())
    }

    /// Number of element children.
    pub fn element_count(&self) -> usize {
        self.elements().count()
    }
}

/// Depth-first traversal produced by [`Element::descendants`].
pub struct Descendants<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<Self::Item> {
        let next = self.stack.pop()?;
        // Push children in reverse so iteration is document order.
        self.stack
            .extend(next.children.iter().rev().filter_map(Node::as_element));
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: &str = "urn:test";

    fn sample() -> Element {
        Element::new(NS, "root")
            .attr("id", "1")
            .child(Element::new(NS, "a").text("hello"))
            .child(Element::new(NS, "b").child(Element::new(NS, "a").text(" world")))
            .text("tail")
    }

    #[test]
    fn builder_and_navigation() {
        let e = sample();
        assert_eq!(e.attr_value("id"), Some("1"));
        assert_eq!(e.find(NS, "a").unwrap().text_content(), "hello");
        assert_eq!(
            e.find(NS, "b")
                .unwrap()
                .find(NS, "a")
                .unwrap()
                .text_content(),
            " world"
        );
        assert!(e.find(NS, "zzz").is_none());
        assert_eq!(e.element_count(), 2);
    }

    #[test]
    fn text_content_concatenates_depth_first() {
        assert_eq!(sample().text_content(), "hello worldtail");
    }

    #[test]
    fn descendants_in_document_order() {
        let s = sample();
        let names: Vec<&str> = s.descendants().map(|e| e.name.local.as_str()).collect();
        assert_eq!(names, ["root", "a", "b", "a"]);
    }

    #[test]
    fn find_all_filters_by_name() {
        let e = Element::local("r")
            .child(Element::new(NS, "x"))
            .child(Element::new("urn:other", "x"))
            .child(Element::new(NS, "x"));
        assert_eq!(e.find_all(NS, "x").count(), 2);
    }

    #[test]
    fn expect_reports_useful_error() {
        let err = sample().expect(NS, "missing").unwrap_err();
        assert!(err.message.contains("missing required child"), "{}", err);
    }

    #[test]
    fn a_shared_node_reads_and_compares_as_its_element() {
        let inline = Element::local("w").child(sample());
        let shared = Element::local("w").shared(Arc::new(Fragment::new(sample())));
        assert_eq!(shared, inline);
        assert_eq!(shared.find(NS, "root").unwrap().attr_value("id"), Some("1"));
        assert_eq!(shared.text_content(), inline.text_content());
        let names = |e: &Element| -> Vec<String> {
            e.descendants().map(|d| d.name.local.to_string()).collect()
        };
        assert_eq!(names(&shared), names(&inline));
        let path = crate::xpath::Path::parse("/w/root/b/a").unwrap();
        assert_eq!(path.select(&shared).len(), 1);
        assert_ne!(shared, Element::local("w").child(Element::new(NS, "root")));
        let into = |e: Element| e.children.into_iter().next().unwrap().into_element();
        assert_eq!(into(shared), Some(sample()));
    }

    #[test]
    fn find_mut_allows_in_place_edit() {
        let mut e = sample();
        e.find_mut(NS, "a").unwrap().push_text("!");
        assert_eq!(e.find(NS, "a").unwrap().text_content(), "hello!");
    }
}
