//! # wsrf-transport
//!
//! Message transports for the WSRF stack.
//!
//! The paper's testbed moves SOAP messages three ways:
//!
//! 1. ordinary request/response over HTTP (IIS/ASP.NET dispatch),
//! 2. **one-way messages** ("a one-way message closes the connection
//!    immediately after sending ... while a void function will actually
//!    send a reply message with an empty message body") used by the
//!    File System Service upload protocol and by all notifications,
//! 3. WSE's SOAP-over-TCP (`soap.tcp`) for bulk file transfer from the
//!    client's machine.
//!
//! This crate reproduces all three:
//!
//! * [`InProcNetwork`] — the simulated campus network. Endpoints
//!   register under `scheme://authority/path` addresses; message costs
//!   (latency + size/bandwidth, with per-scheme protocol overheads)
//!   are modeled against the shared [`simclock::Clock`] and recorded in
//!   [`NetMetrics`].
//! * [`http::HttpSoapServer`] / [`http::http_call`] — a real minimal
//!   HTTP/1.1 SOAP endpoint over localhost TCP.
//! * [`tcpframe::FramedServer`] / [`tcpframe::FramedClient`] — a real
//!   WSE-like length-prefixed `soap.tcp` transport with persistent
//!   connections and true one-way frames.
//!
//! All service containers speak through the [`Endpoint`] trait, so the
//! same service runs unchanged behind any of the three transports.

pub mod endpoint;
pub mod error;
pub mod http;
pub mod inproc;
pub mod netsim;
pub mod obs;
pub mod pool;
mod serve;
pub mod tcpframe;

pub use endpoint::{Endpoint, FnEndpoint};
pub use error::TransportError;
pub use inproc::{modeled_metric_name, InProcNetwork, NetMetrics};
pub use netsim::{LinkProfile, NetConfig};
