//! # uvacg — the University of Virginia Campus Grid testbed
//!
//! The paper's primary contribution: "a remote job execution testbed
//! that runs job sets on behalf of users ... web services utilizing
//! WSRF and WS-Notification to handle scheduling, data movement,
//! security and asynchronous messaging" (§4), rebuilt in Rust on the
//! WSRF stack in this workspace.
//!
//! The system architecture matches Figure 3 of the paper:
//!
//! * every machine runs a [`fss`] **File System Service** (resources =
//!   directories) and an [`es`] **Execution Service** (resources =
//!   jobs), plus the two "Windows services" — ProcSpawn and the
//!   Processor Utilization monitor — provided by `grid-node`,
//! * a single **Notification Broker** (from `ws-notification`)
//!   multicasts job-set events,
//! * the [`nis`] **Node Info Service** is a WS-ServiceGroup whose
//!   members are processors,
//! * the [`scheduler`] **Scheduler Service** (resources = job sets)
//!   coordinates everything: dependency-ordered job placement onto the
//!   "fastest, most available machine", EPR fill-in for inter-job data
//!   flow, and per-job-set notification topics,
//! * the [`client`] assembles job-set descriptions (`local://...`,
//!   `job1://output2`), runs a WSE-TCP-style local file server and a
//!   lightweight notification listener.
//!
//! [`grid::CampusGrid`] wires a whole campus together in one call; the
//! [`baseline`] module provides the GRAM-like submit-and-poll
//! comparator used by experiments E2 and E8; [`proxies`] offers typed
//! job/directory views built purely on the standard port types (the
//! §5 "higher-level interfaces" idea).

// WS-BaseFaults carries timestamps, originator EPRs and cause chains
// by design, so fault values are large; handlers are not hot paths and
// faults are exceptional, so we keep them by value rather than boxing
// every error site.
#![allow(clippy::result_large_err)]

pub mod baseline;
pub mod client;
pub mod es;
pub mod fss;
pub mod grid;
pub mod jobset;
pub mod monitor;
pub mod nis;
pub mod policy;
pub mod proxies;
pub mod scheduler;
pub mod security;

pub use client::{Client, JobSetHandle, JobSetOutcome};
pub use grid::{CampusGrid, GridConfig};
pub use jobset::{FileRef, JobSetSpec, JobSpec};
pub use monitor::{
    AuthorityStatus, EventPump, GridCatalog, MetricsSource, MonitorService, RemoteEvent,
};
pub use policy::{
    FastestAvailable, LeastLoaded, MachineOutcome, MetricsFeedback, NodeSnapshot, OutcomeKind,
    PenaltyRow, Random, RoundRobin, SchedulingPolicy,
};
pub use proxies::{DirectoryProxy, JobProxy};
pub use scheduler::{Scheduler, Standby};

/// The testbed's XML namespace (re-exported for tests and benches).
pub use wsrf_soap::ns::UVACG;

/// Virtual time a job-set or job WS-Resource stays addressable after it
/// reaches a terminal state. WSRF's soft-state answer to "who frees
/// finished work": nobody has to, and a client that wants its results
/// for longer extends the lease with the standard WS-ResourceLifetime
/// `SetTerminationTime` before this runs out.
const TERMINAL_RETENTION: std::time::Duration = std::time::Duration::from_secs(3600);

/// Give the terminal resource `key` its [`TERMINAL_RETENTION`] lease.
/// A termination time someone already set (the client's own
/// `SetTerminationTime`) wins.
fn retire(core: &std::sync::Arc<wsrf_core::container::ServiceCore>, key: &str) {
    if !core.termination_scheduled(key) {
        core.set_termination_time(key, Some(core.clock.now() + TERMINAL_RETENTION));
    }
}
