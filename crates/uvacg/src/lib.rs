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
//! comparator used by experiments E2 and E8; [`job`] is the one
//! definition of a job's life at its ES and of the events it is told in.

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
pub mod job;
pub mod jobset;
pub mod monitor;
pub mod nis;
pub mod policy;
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
pub use scheduler::Scheduler;

/// The testbed's XML namespace (re-exported for tests and benches).
pub use wsrf_soap::ns::UVACG;

/// `{UVACG}local`: the name of a testbed property or element.
fn q(local: &str) -> wsrf_xml::QName {
    wsrf_xml::QName::new(UVACG, local)
}

/// Virtual time a job-set or job WS-Resource stays addressable after it
/// reaches a terminal state, and the lease of what a job set makes on
/// its way (its broker subscriptions and its jobs' working directories),
/// which the Scheduler renews while the set runs. WSRF's soft-state
/// answer to "who frees finished work": nobody has to, and a client that
/// wants its results for longer extends the set's lease with the
/// standard WS-ResourceLifetime `SetTerminationTime` before this runs out.
const TERMINAL_RETENTION: std::time::Duration = std::time::Duration::from_secs(3600);

/// Give a resource its [`TERMINAL_RETENTION`] lease inside the edit that
/// ends it, and return the lease to arm after that edit. A termination
/// time already set (the client's own `SetTerminationTime`) wins.
fn retire(doc: &mut wsrf_core::PropertyDoc, now: simclock::SimTime) -> Option<simclock::SimTime> {
    if doc.termination_time().is_some() {
        return None;
    }
    let at = now + TERMINAL_RETENTION;
    doc.set_termination_time(Some(at));
    Some(at)
}
