//! Property-based tests for shared fragments ([`Node::Shared`]): a
//! fragment spliced anywhere in any tree renders exactly what the same
//! element inlined there renders — on the splice that fills its cache,
//! on one that replays it and in another prefix environment — through
//! every sink, and the output parses back to the inlined tree.

use std::sync::Arc;

use proptest::prelude::*;
use wsrf_xml::{parse, Element, Fragment, LenSink, Node, QName};

/// Namespaces from one small pool, so that wrappers and fragments bind
/// the same URIs; a wrapper's sibling scopes re-mint them, which takes
/// prefix ids past ten.
fn ns() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        1 => Just(None),
        4 => (0u32..12).prop_map(|i| Some(format!("urn:p{i}"))),
    ]
}

fn qname() -> impl Strategy<Value = QName> {
    (ns(), "[a-z]{1,4}").prop_map(|(ns, local)| match ns {
        Some(u) => QName::new(u, local),
        None => QName::local(local),
    })
}

fn leaf() -> impl Strategy<Value = Element> {
    (
        qname(),
        prop::collection::vec((qname(), "[ -~]{0,6}"), 0..3),
        prop::option::of("[ -~]{1,8}"),
    )
        .prop_map(|(name, attrs, text)| {
            let mut e = Element::with_name(name);
            for (an, av) in attrs {
                // Attribute names are unique within an element.
                if e.attrs.iter().all(|(n, _)| *n != an) {
                    e.attrs.push((an, av));
                }
            }
            if let Some(t) = text {
                e.push_text(t);
            }
            e
        })
}

fn tree() -> impl Strategy<Value = Element> {
    leaf().prop_recursive(3, 24, 4, |inner| {
        (leaf(), prop::collection::vec(inner, 0..4)).prop_map(|(mut e, kids)| {
            for k in kids {
                e.push_child(k);
            }
            e
        })
    })
}

/// `tree` with `node` inserted among the children of one of its
/// elements (shared children are not entered), both chosen by `at`.
fn with_child(tree: &Element, node: Node, at: (usize, usize)) -> Element {
    fn visit(e: &mut Element, target: &mut usize, node: &mut Option<Node>, pos: usize) {
        if *target == 0 {
            let i = pos % (e.children.len() + 1);
            e.children.insert(i, node.take().expect("inserted once"));
            return;
        }
        *target -= 1;
        for c in &mut e.children {
            if node.is_none() {
                return;
            }
            if let Node::Element(k) = c {
                visit(k, target, node, pos);
            }
        }
    }
    let mut out = tree.clone();
    let elements = 1 + count_unshared(tree);
    visit(&mut out, &mut (at.0 % elements), &mut Some(node), at.1);
    out
}

/// Descendant elements reachable without entering a shared node.
fn count_unshared(e: &Element) -> usize {
    e.children
        .iter()
        .map(|c| match c {
            Node::Element(k) => 1 + count_unshared(k),
            _ => 0,
        })
        .sum()
}

/// The same tree with every shared node replaced by a copy of its root.
fn inlined(e: &Element) -> Element {
    let mut out = Element::with_name(e.name.clone());
    out.attrs = e.attrs.clone();
    out.children = e
        .children
        .iter()
        .map(|c| match c.as_element() {
            Some(k) => Node::Element(inlined(k)),
            None => c.clone(),
        })
        .collect();
    out
}

/// `tree` renders, sized first or rendered first, byte for byte as its
/// inlined copy does in every sink, and parses back to it.
fn renders_as_inlined(tree: &Element, size_first: bool) -> Result<(), TestCaseError> {
    let flat = inlined(tree);
    let want = flat.to_xml();
    let size = |e: &Element| {
        let mut n = LenSink::new();
        e.write_xml_into(&mut n);
        n.len()
    };
    if size_first {
        prop_assert_eq!(size(tree), want.len());
    }
    prop_assert_eq!(&tree.to_xml(), &want);
    let mut bytes: Vec<u8> = Vec::new();
    tree.write_xml_into(&mut bytes);
    prop_assert_eq!(bytes.as_slice(), want.as_bytes());
    prop_assert_eq!(size(tree), want.len());
    let back = parse(&want).unwrap_or_else(|e| panic!("unparseable {want:?}: {e}"));
    prop_assert_eq!(&back, &flat);
    prop_assert_eq!(&back, tree);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_spliced_fragment_renders_as_if_inlined(
        first in tree(),
        second in tree(),
        root in tree(),
        at in (any::<usize>(), any::<usize>()),
        again in (any::<usize>(), any::<usize>()),
        size_first in any::<bool>(),
    ) {
        let fragment = Arc::new(Fragment::new(root.clone()));
        let shared = || Node::Shared(fragment.clone());
        // The fragment twice in one tree: its second splice comes after
        // its first one's ids, so that one misses (or ends up in the
        // same environment, and replays).
        let one = with_child(&with_child(&first, shared(), at), shared(), again);
        let two = with_child(&second, shared(), at);
        // Cache fill, then replay, then a second environment.
        renders_as_inlined(&one, size_first)?;
        renders_as_inlined(&one, !size_first)?;
        renders_as_inlined(&two, size_first)?;
        prop_assert_eq!(fragment.root(), &root);
    }

    #[test]
    fn find_mut_copies_a_shared_child_out(root in tree(), text in "[a-z]{1,4}") {
        let fragment = Arc::new(Fragment::new(root.clone()));
        let mut holder = Element::local("holder").shared(fragment.clone());
        let before = holder.to_xml();
        let (ns, local) = (root.name.ns_str().unwrap_or("").to_string(), root.name.local.to_string());
        match holder.find_mut(&ns, &local) {
            Some(child) => child.push_text(text.clone()),
            // A root in no namespace: `find_mut` never matches it.
            None => prop_assert!(root.name.ns.is_none()),
        }
        prop_assert_eq!(fragment.root(), &root);
        let again = Element::local("holder").shared(fragment.clone());
        prop_assert_eq!(&again.to_xml(), &before);
        if root.name.ns.is_some() {
            prop_assert!(matches!(holder.children[0], Node::Element(_)));
            prop_assert_eq!(holder.children[0].as_element().unwrap().text_content(), root.text_content() + &text);
        }
    }
}
