//! # wsrf-soap
//!
//! SOAP 1.1-style envelopes, WS-Addressing and fault types — the
//! message layer the WSRF specifications are defined against.
//!
//! The paper's testbed routes every interaction through SOAP messages
//! whose **headers** carry the interesting information: the
//! WS-Addressing `<To>` and `<Action>` elements select the service and
//! operation, and the `<ReferenceProperties>` of the targeted
//! [`EndpointReference`] name the specific WS-Resource ("WSRF.NET uses
//! the value of the EndpointReference in the `<To>` header of the
//! invocation SOAP message to interact with a particular resource").
//! This crate reproduces exactly that machinery:
//!
//! * [`Envelope`] — header blocks + a body element, with wire
//!   (de)serialization,
//! * [`EndpointReference`] — WS-Addressing EPRs with reference
//!   properties, the universal name for WS-Resources,
//! * [`MessageInfo`] — the addressing headers stamped on each message,
//! * [`TraceContext`] — the W3C-trace-context-style header that
//!   carries a distributed-tracing span identity hop to hop,
//! * [`SoapFault`] / [`BaseFault`] — SOAP faults carrying
//!   WS-BaseFaults payloads with cause chains,
//! * [`Uri`] — tiny scheme/authority/path splitter for the testbed's
//!   `http`, `soap.tcp`, `inproc`, `local` and `jobN` URI schemes.

// WS-BaseFaults carries timestamps, originator EPRs and cause chains
// by design, so fault values are large; handlers are not hot paths and
// faults are exceptional, so we keep them by value rather than boxing
// every error site.
#![allow(clippy::result_large_err)]

pub mod addressing;
pub mod envelope;
pub mod fault;
pub mod lazy;
pub mod ns;
pub mod uri;

pub use addressing::{EndpointReference, MessageInfo, TraceContext};
pub use envelope::{render_count, Envelope};
pub use fault::{BaseFault, SoapFault};
pub use lazy::{LazyEnvelope, ScanError};
pub use uri::Uri;

/// Result alias for message-layer operations.
pub type Result<T> = std::result::Result<T, SoapFault>;
