//! Property-based tests: any generated element tree must survive a
//! write → parse roundtrip unchanged, and the writer must always emit
//! well-formed XML.

use proptest::prelude::*;
use wsrf_xml::{parse, Element, Event, Node, PullParser, QName};

/// Strategy for XML name-legal identifiers.
fn ident() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_.-]{0,8}"
}

/// Strategy for namespace URIs (including none).
fn ns() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        2 => Just(None),
        3 => "[a-z]{1,6}".prop_map(|s| Some(format!("urn:{}", s))),
    ]
}

/// Arbitrary text content. Excludes raw control characters (the writer
/// does not escape those and real SOAP stacks reject them).
fn text() -> impl Strategy<Value = String> {
    "[ -~]{0,20}"
}

fn qname() -> impl Strategy<Value = QName> {
    (ns(), ident()).prop_map(|(ns, local)| match ns {
        Some(u) => QName::new(u, local),
        None => QName::local(local),
    })
}

fn leaf() -> impl Strategy<Value = Element> {
    (
        qname(),
        prop::collection::vec((ident(), text()), 0..3),
        prop::option::of(text()),
    )
        .prop_map(|(name, attrs, txt)| {
            let mut e = Element::with_name(name);
            // Attribute names must be unique within an element.
            let mut seen = std::collections::HashSet::new();
            for (an, av) in attrs {
                if seen.insert(an.clone()) {
                    e.attrs.push((QName::local(an), av));
                }
            }
            if let Some(t) = txt {
                if !t.is_empty() {
                    e.push_text(t);
                }
            }
            e
        })
}

fn tree() -> impl Strategy<Value = Element> {
    leaf().prop_recursive(3, 24, 4, |inner| {
        (
            qname(),
            prop::collection::vec(inner, 0..4),
            prop::option::of(text()),
        )
            .prop_map(|(name, kids, txt)| {
                let mut e = Element::with_name(name);
                // Interleave text between children so adjacent text
                // nodes never occur (the parser merges them).
                for (i, k) in kids.into_iter().enumerate() {
                    if i == 0 {
                        if let Some(t) = &txt {
                            if !t.is_empty() {
                                e.push_text(t.clone());
                            }
                        }
                    }
                    e.push_child(k);
                }
                e
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_parse_roundtrip(e in tree()) {
        let xml = e.to_xml();
        let back = parse(&xml).unwrap_or_else(|err| panic!("unparseable output {xml:?}: {err}"));
        prop_assert_eq!(back, e);
    }

    #[test]
    fn document_form_also_roundtrips(e in tree()) {
        let xml = e.to_document();
        let back = parse(&xml).unwrap();
        prop_assert_eq!(back, e);
    }

    #[test]
    fn text_escaping_roundtrips(t in "[ -~]{0,40}") {
        let e = Element::local("a").text(t.clone()).attr("k", t.clone());
        let back = parse(&e.to_xml()).unwrap();
        if t.is_empty() {
            prop_assert!(back.children.is_empty());
        } else {
            prop_assert_eq!(back.text_content(), t.clone());
        }
        prop_assert_eq!(back.attr_value("k").unwrap(), t);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "[ -~<>&\"']{0,64}") {
        let _ = parse(&s); // must return Err, not panic
    }

    #[test]
    fn descendant_count_is_stable(e in tree()) {
        let n = e.descendants().count();
        let back = parse(&e.to_xml()).unwrap();
        prop_assert_eq!(back.descendants().count(), n);
    }
}

// ---- pull-vs-DOM equivalence -------------------------------------
//
// The DOM entry point is a thin wrapper over the pull parser, but the
// wrapper could still diverge (attribute handling, text merging, error
// propagation). These properties pin the two surfaces together: any
// document re-materialized from the raw event stream must equal the
// tree `parse` builds, and malformed inputs must fail identically.

/// Re-materialize a whole document by hand from the event stream —
/// deliberately NOT via `build_element`, so this exercises the public
/// event surface (`next_event` + `attrs`) end to end.
fn materialize_from_events(input: &str) -> Result<Element, String> {
    let mut p = PullParser::new(input);
    let mut stack: Vec<Element> = Vec::new();
    loop {
        match p.next_event().map_err(|e| e.to_string())? {
            Some(Event::Start { ns, local }) => {
                let name = match ns {
                    Some(uri) => QName {
                        ns: Some(uri),
                        local: local.into(),
                    },
                    None => QName::local(local),
                };
                let mut e = Element::with_name(name);
                for a in p.attrs() {
                    let qn = match &a.ns {
                        Some(uri) => QName {
                            ns: Some(uri.clone()),
                            local: a.local.into(),
                        },
                        None => QName::local(a.local),
                    };
                    e.attrs.push((qn, a.value.to_string()));
                }
                stack.push(e);
            }
            Some(Event::Text(t)) => {
                let top = stack.last_mut().ok_or("text outside root")?;
                // Adjacent text events (e.g. CDATA next to character
                // data) merge exactly as DOM materialization does.
                if t.is_empty() {
                    continue;
                }
                if let Some(Node::Text(prev)) = top.children.last_mut() {
                    prev.push_str(&t);
                } else {
                    top.children.push(Node::Text(t.into_owned()));
                }
            }
            Some(Event::End) => {
                let done = stack.pop().ok_or("unbalanced end event")?;
                match stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(done)),
                    None => return Ok(done),
                }
            }
            None => return Err("document has no root element".into()),
        }
    }
}

/// Drive the pull parser to completion, reporting the first error the
/// same way `parse` would (the tree is discarded).
fn drain_events(input: &str) -> Result<(), String> {
    let mut p = PullParser::new(input);
    loop {
        match p.next_event() {
            Ok(Some(_)) => {}
            Ok(None) => return Ok(()),
            Err(e) => return Err(e.to_string()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_stream_rematerializes_to_the_dom_tree(e in tree()) {
        let xml = e.to_xml();
        let dom = parse(&xml).unwrap();
        let from_events = materialize_from_events(&xml).unwrap();
        prop_assert_eq!(&from_events, &dom);
        prop_assert_eq!(from_events, e);
    }

    #[test]
    fn build_element_escape_hatch_matches_parse(e in tree()) {
        let xml = e.to_document();
        let mut p = PullParser::new(&xml);
        p.next_event().unwrap().unwrap();
        let built = p.build_element().unwrap();
        prop_assert!(p.next_event().unwrap().is_none());
        prop_assert_eq!(built, parse(&xml).unwrap());
    }

    #[test]
    fn pull_and_dom_fail_on_the_same_malformed_inputs(s in "[ -~<>&\"'/=]{0,64}") {
        // Neither surface may panic, and they must agree on Ok vs Err
        // including the error message and offset.
        let dom = parse(&s).map(|_| ()).map_err(|e| e.to_string());
        let pull = drain_events(&s);
        prop_assert_eq!(dom, pull);
    }

    #[test]
    fn truncated_documents_fail_identically(e in tree(), cut in 0usize..=100) {
        let xml = e.to_xml();
        // Truncate at an arbitrary char boundary; both surfaces must
        // agree on whether the prefix still parses and on the error.
        let mut at = xml.len() * cut / 100;
        while !xml.is_char_boundary(at) {
            at -= 1;
        }
        let prefix = &xml[..at];
        let dom = parse(prefix).map(|_| ()).map_err(|e| e.to_string());
        let pull = drain_events(prefix);
        prop_assert_eq!(dom, pull);
    }
}

#[test]
fn unicode_text_roundtrips() {
    let e = Element::local("a")
        .text("héllo ✓ 漢字")
        .attr("k", "ünïcode");
    let back = parse(&e.to_xml()).unwrap();
    assert_eq!(back, e);
}

#[test]
fn deeply_nested_tree_roundtrips() {
    let mut e = Element::local("leaf");
    for i in 0..90 {
        e = Element::local(format!("n{}", i)).child(e);
    }
    let back = parse(&e.to_xml()).unwrap();
    assert_eq!(back.descendants().count(), 91);
}

#[test]
fn many_siblings_roundtrip() {
    let mut root = Element::new("urn:x", "root");
    for i in 0..500 {
        root.push_child(Element::new("urn:x", "item").attr("i", i.to_string()));
    }
    let back = parse(&root.to_xml()).unwrap();
    assert_eq!(back, root);
    assert_eq!(
        Node::Element(back).as_element().unwrap().element_count(),
        500
    );
}
