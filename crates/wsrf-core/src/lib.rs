//! # wsrf-core
//!
//! The WSRF framework itself — this workspace's analogue of WSRF.NET.
//!
//! WSRF defines "stateful resources" and canonical patterns for
//! discovering, querying and manipulating them through web services.
//! The paper evaluates those abstractions by building a remote job
//! execution testbed on WSRF.NET; this crate reproduces the toolkit
//! layer the testbed stands on:
//!
//! * [`PropertyDoc`] — the resource properties document: the typed,
//!   ordered bag of state a WS-Resource exposes,
//! * [`store`] — pluggable persistence backends mirroring WSRF.NET's
//!   "database-backed system for accessing state in service code"
//!   ([`store::MemoryStore`], the relational-style
//!   [`store::StructuredStore`], and [`store::BlobStore`] which stores
//!   serialized XML and must reparse to query — the exact trade-off
//!   §5 of the paper discusses),
//! * [`container`] — the Figure 1 dispatch pipeline: resolve the EPR
//!   in the SOAP headers → load the resource's state → invoke the
//!   method → save the state → serialize the response,
//! * [`porttypes`] — the standard WS-ResourceProperties and
//!   WS-ResourceLifetime port types a service imports (the analogue of
//!   WSRF.NET's `[WSRFPortType]` attribute),
//! * [`servicegroup`] — WS-ServiceGroup, used by the testbed's Node
//!   Info Service whose members are processors.
//!
//! The programming model mirrors Figure 2 of the paper: a service
//! author declares resource state, resource properties (including
//! computed ones, like the C# property getters), imports standard port
//! types, and writes plain handlers that receive their resource's
//! state as an in-memory document.

// WS-BaseFaults carries timestamps, originator EPRs and cause chains
// by design, so fault values are large; handlers are not hot paths and
// faults are exceptional, so we keep them by value rather than boxing
// every error site.
#![allow(clippy::result_large_err)]

pub mod container;
pub mod faults;
pub mod porttypes;
pub mod properties;
pub mod proxy;
pub mod servicegroup;
pub mod store;
pub mod wal;
pub mod wsdl;

pub use container::{Ctx, Service, ServiceBuilder, ServiceCore};
pub use properties::PropertyDoc;
pub use proxy::{epr_in, Outbound, ResourceProxy};
pub use store::{BlobStore, MemoryStore, ResourceStore, StoreError, StructuredStore};
pub use wal::DurableStore;
