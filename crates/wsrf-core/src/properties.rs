//! The resource properties document.
//!
//! WS-ResourceProperties models the client-visible state of a
//! WS-Resource as an XML document whose top-level children are the
//! individual *resource properties*; a property may have zero, one or
//! many element values. [`PropertyDoc`] is that document in decoded
//! form, preserving declaration order (the order is part of the
//! document's schema).

use wsrf_xml::{Element, QName};

/// The decoded resource properties document of one WS-Resource.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PropertyDoc {
    entries: Vec<(QName, Vec<Element>)>,
}

impl PropertyDoc {
    /// An empty document.
    pub fn new() -> Self {
        PropertyDoc::default()
    }

    /// Number of distinct properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no properties exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Property names in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &QName> {
        self.entries.iter().map(|(n, _)| n)
    }

    /// Every property with its values, in declaration order.
    pub fn entries(&self) -> impl Iterator<Item = (&QName, &[Element])> {
        self.entries.iter().map(|(n, v)| (n, v.as_slice()))
    }

    /// All element values of a property (empty slice if absent).
    pub fn get(&self, name: &QName) -> &[Element] {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Find by local name regardless of namespace (convenient for the
    /// testbed services which use one namespace throughout).
    pub fn get_local(&self, local: &str) -> &[Element] {
        self.entries
            .iter()
            .find(|(n, _)| n.local == local)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Text content of the first value of a property.
    pub fn text(&self, name: &QName) -> Option<String> {
        self.get(name).first().map(Element::text_content)
    }

    /// Text content by local name.
    pub fn text_local(&self, local: &str) -> Option<String> {
        self.get_local(local).first().map(Element::text_content)
    }

    /// Parse the first value's text as `f64`.
    pub fn f64(&self, name: &QName) -> Option<f64> {
        self.text(name)?.trim().parse().ok()
    }

    /// Parse the first value's text as `i64`.
    pub fn i64(&self, name: &QName) -> Option<i64> {
        self.text(name)?.trim().parse().ok()
    }

    /// True if the property exists (even with zero values).
    pub fn contains(&self, name: &QName) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }

    /// Replace all values of `name` with a single text-valued element
    /// (creating the property if needed). This is the workhorse for
    /// simple scalar properties.
    pub fn set_text(&mut self, name: QName, value: impl Into<String>) {
        let el = Element::with_name(name.clone()).text(value);
        self.update(name, vec![el]);
    }

    /// Set a numeric property.
    pub fn set_f64(&mut self, name: QName, value: f64) {
        self.set_text(name, format!("{value}"));
    }

    /// Set an integer property.
    pub fn set_i64(&mut self, name: QName, value: i64) {
        self.set_text(name, value.to_string());
    }

    /// Append one more element value to a property (creating it if
    /// needed) — WSRF's `Insert`.
    pub fn insert(&mut self, name: QName, value: Element) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, vals)) => vals.push(value),
            None => self.entries.push((name, vec![value])),
        }
    }

    /// Replace all values of a property — WSRF's `Update`.
    pub fn update(&mut self, name: QName, values: Vec<Element>) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, vals)) => *vals = values,
            None => self.entries.push((name, values)),
        }
    }

    /// Remove a property entirely — WSRF's `Delete`. Returns true if
    /// it existed.
    pub fn delete(&mut self, name: &QName) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| n != name);
        before != self.entries.len()
    }

    /// Remove a property by local name regardless of namespace.
    pub fn delete_local(&mut self, local: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| n.local != local);
        before != self.entries.len()
    }

    /// Remove one element value matching a predicate from a property's
    /// value list (used e.g. by service groups removing one entry).
    pub fn remove_value(&mut self, name: &QName, pred: impl Fn(&Element) -> bool) -> bool {
        if let Some((_, vals)) = self.entries.iter_mut().find(|(n, _)| n == name) {
            if let Some(idx) = vals.iter().position(pred) {
                vals.remove(idx);
                return true;
            }
        }
        false
    }

    /// Render the full resource properties document with the given
    /// root element name.
    pub fn to_document(&self, root: QName) -> Element {
        let mut doc = Element::with_name(root);
        for (_, vals) in &self.entries {
            for v in vals {
                doc.push_child(v.clone());
            }
        }
        doc
    }

    /// Decode a document produced by [`Self::to_document`] (or any
    /// element whose children are property values).
    pub fn from_document(doc: &Element) -> Self {
        let mut pd = PropertyDoc::new();
        for child in doc.elements() {
            pd.insert(child.name.clone(), child.clone());
        }
        pd
    }

    /// Estimated serialized size (used by stores for metrics); cheap —
    /// no serialization, see [`Element::approx_size`].
    pub fn approx_bytes(&self) -> usize {
        self.entries
            .iter()
            .flat_map(|(_, v)| v.iter())
            .map(|e| e.approx_size())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: &str = "urn:test";

    fn q(local: &str) -> QName {
        QName::new(NS, local)
    }

    #[test]
    fn set_and_get_scalars() {
        let mut d = PropertyDoc::new();
        d.set_text(q("Status"), "Running");
        d.set_f64(q("Cpu"), 1.25);
        d.set_i64(q("Pid"), 42);
        assert_eq!(d.text(&q("Status")).unwrap(), "Running");
        assert_eq!(d.f64(&q("Cpu")).unwrap(), 1.25);
        assert_eq!(d.i64(&q("Pid")).unwrap(), 42);
        assert_eq!(d.len(), 3);
        assert!(d.contains(&q("Status")));
        assert!(!d.contains(&q("Nope")));
    }

    #[test]
    fn set_text_replaces_existing() {
        let mut d = PropertyDoc::new();
        d.set_text(q("Status"), "Running");
        d.set_text(q("Status"), "Exited");
        assert_eq!(d.get(&q("Status")).len(), 1);
        assert_eq!(d.text(&q("Status")).unwrap(), "Exited");
    }

    #[test]
    fn insert_accumulates_values() {
        let mut d = PropertyDoc::new();
        d.insert(q("Entry"), Element::with_name(q("Entry")).attr("id", "1"));
        d.insert(q("Entry"), Element::with_name(q("Entry")).attr("id", "2"));
        assert_eq!(d.get(&q("Entry")).len(), 2);
        assert_eq!(d.len(), 1, "one property, two values");
    }

    #[test]
    fn delete_and_remove_value() {
        let mut d = PropertyDoc::new();
        d.insert(q("Entry"), Element::with_name(q("Entry")).attr("id", "1"));
        d.insert(q("Entry"), Element::with_name(q("Entry")).attr("id", "2"));
        assert!(d.remove_value(&q("Entry"), |e| e.attr_value("id") == Some("1")));
        assert_eq!(d.get(&q("Entry")).len(), 1);
        assert!(!d.remove_value(&q("Entry"), |e| e.attr_value("id") == Some("9")));
        assert!(d.delete(&q("Entry")));
        assert!(!d.delete(&q("Entry")));
        assert!(d.is_empty());
    }

    #[test]
    fn document_roundtrip_preserves_order_and_values() {
        let mut d = PropertyDoc::new();
        d.set_text(q("B"), "2");
        d.set_text(q("A"), "1");
        d.insert(
            q("B2"),
            Element::with_name(q("B2")).child(Element::local("inner").text("x")),
        );
        let doc = d.to_document(q("Props"));
        let names: Vec<&str> = doc.elements().map(|e| e.name.local.as_str()).collect();
        assert_eq!(names, ["B", "A", "B2"]);
        let back = PropertyDoc::from_document(&doc);
        assert_eq!(back, d);
    }

    #[test]
    fn local_name_lookup() {
        let mut d = PropertyDoc::new();
        d.set_text(QName::new("urn:other", "Path"), "/tmp/x");
        assert_eq!(d.text_local("Path").unwrap(), "/tmp/x");
        assert!(d.get_local("Missing").is_empty());
    }

    #[test]
    fn numeric_parse_failures_are_none() {
        let mut d = PropertyDoc::new();
        d.set_text(q("X"), "not-a-number");
        assert_eq!(d.f64(&q("X")), None);
        assert_eq!(d.i64(&q("X")), None);
        assert_eq!(d.f64(&q("Absent")), None);
    }
}
