//! # wsrf-xml
//!
//! A small, dependency-free, namespace-aware XML infoset that serves as
//! the wire format for the entire WSRF stack in this workspace.
//!
//! The WSRF family of specifications (WS-ResourceProperties,
//! WS-ResourceLifetime, WS-BaseFaults, WS-ServiceGroup) and the
//! WS-Notification family are all defined in terms of XML documents and
//! qualified names, so faithfully reproducing the paper requires a real
//! XML layer rather than an ad-hoc struct encoding. This crate provides:
//!
//! * [`QName`] — namespace-qualified names,
//! * [`Element`] / [`Node`] — an ordered, attribute-carrying tree,
//! * a serializer ([`Element::to_xml`]) with automatic prefix
//!   management,
//! * a parser ([`parse`]) that resolves namespace prefixes,
//! * an XPath-lite engine ([`xpath::Path`]) sufficient for the
//!   `QueryResourceProperties` XPath dialect used by the paper's
//!   testbed.
//!
//! The implementation favours clarity over raw speed, but it is used on
//! every message hop, so the parser is a single-pass byte-walking
//! recursive descent with no regexes and few allocations beyond the
//! resulting tree.

pub mod base64;
pub mod error;
pub mod name;
pub mod node;
pub mod parser;
pub mod writer;
pub mod xpath;

pub use error::XmlError;
pub use name::{intern_ns, LocalName, QName};
pub use node::{Element, Fragment, Node};
pub use parser::{dom_build_count, parse, parse_event_count, Attr, Event, PullParser};
pub use writer::{LenSink, TreeWriter, XmlSink};

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, XmlError>;
