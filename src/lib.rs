//! # wsrf-grid
//!
//! Umbrella crate for the WSRF / WS-Notification stack and the UVaCG
//! remote job execution testbed — a Rust reproduction of *"Exploiting
//! WSRF and WSRF.NET for Remote Job Execution in Grid Environments"*
//! (Wasson & Humphrey, IPPS 2005).
//!
//! The layers, bottom to top:
//!
//! | crate | provides |
//! |---|---|
//! | [`xml`] | namespace-aware XML infoset, parser, writer, XPath-lite |
//! | [`clock`] | the virtual clock every simulated subsystem shares |
//! | [`obs`] | lock-cheap metrics: counters, log-bucket histograms, virtual/real timers |
//! | [`soap`] | SOAP envelopes, WS-Addressing EPRs, WS-BaseFaults |
//! | [`security`] | SHA-256 / HMAC / ChaCha20 / toy PKI / WS-Security tokens |
//! | [`transport`] | simulated campus network + real HTTP and `soap.tcp` |
//! | [`wsrf`] | the WSRF framework: resource properties, lifetime, service groups, the container |
//! | [`notification`] | WS-BaseNotification, WS-Topics, the broker |
//! | [`node`] | simulated machines: filesystem, PS CPU model, ProcSpawn |
//! | [`testbed`] | the paper's services: FSS, ES, NIS, Scheduler, client |
//!
//! ## Quickstart
//!
//! ```
//! use wsrf_grid::prelude::*;
//! use std::time::Duration;
//!
//! // Boot a 4-machine campus grid on a manual virtual clock.
//! let grid = CampusGrid::build(GridConfig::with_machines(4), Clock::manual());
//! let client = grid.client("demo");
//!
//! // A one-job job set: 2 CPU-seconds, one output file.
//! client.put_file("C:\\prog.exe",
//!     JobProgram::compute(2.0).writing("result.dat", 256).to_manifest());
//! let spec = JobSetSpec::new("demo-set")
//!     .job(JobSpec::new("job1", FileRef::parse("local://C:\\prog.exe").unwrap())
//!         .output("result.dat"));
//!
//! let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
//! grid.clock.advance(Duration::from_secs(10));
//! assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
//! assert_eq!(handle.fetch_output("job1", "result.dat").unwrap().len(), 256);
//! ```

pub use simclock as clock;
pub use ws_notification as notification;
pub use wsrf_core as wsrf;
pub use wsrf_obs as obs;
pub use wsrf_security as security;
pub use wsrf_soap as soap;
pub use wsrf_transport as transport;
pub use wsrf_xml as xml;

pub use grid_node as node;
pub use uvacg as testbed;

/// Everything a testbed user typically needs.
pub mod prelude {
    pub use grid_node::{JobProgram, Machine, MachineSpec};
    pub use simclock::{Clock, SimTime};
    pub use uvacg::{
        AuthorityStatus, CampusGrid, Client, EventPump, FastestAvailable, FileRef, GridCatalog,
        GridConfig, JobSetHandle, JobSetOutcome, JobSetSpec, JobSpec, LeastLoaded, MachineOutcome,
        MetricsFeedback, MetricsSource, MonitorService, NodeSnapshot, OutcomeKind, PenaltyRow,
        Random, RemoteEvent, RoundRobin, Scheduler, SchedulingPolicy,
    };
    pub use wsrf_core::DurableStore;
    pub use wsrf_obs::{
        MetricsRegistry, MetricsSnapshot, ObsConfig, TraceConfig, TraceSnapshot, Tracer,
    };
    pub use wsrf_soap::{BaseFault, EndpointReference, Envelope, SoapFault, TraceContext};
    pub use wsrf_transport::{InProcNetwork, LinkProfile, NetConfig};
    pub use wsrf_xml::Element;
}
