//! # ws-notification
//!
//! The WS-Notification family — WS-BaseNotification, WS-Topics and
//! WS-BrokeredNotification — implemented over the `wsrf-core`
//! container, mirroring WSRF.NET's support.
//!
//! The paper's testbed leans on notification everywhere: the
//! ProcSpawn service notifies the Execution Service when a job exits,
//! the File System Service notifies when uploads complete, the
//! Processor Utilization service notifies the Node Info Service on
//! utilization changes, and a central **Notification Broker**
//! multicasts job-set events to the Scheduler and the client ("it is
//! more convenient to use the Notification Broker service as a
//! multicast mechanism").
//!
//! * [`topics`] — topic paths and the three WS-Topics expression
//!   dialects (Simple / Concrete / Full with `*` and `//` wildcards),
//! * [`message`] — the `<wsnt:Notify>` wire format,
//! * [`producer`] — an embeddable subscription manager + direct
//!   notification producer ("custom mechanisms ... are permitted"),
//! * [`consumer`] — a lightweight notification listener, the analogue
//!   of "WSRF.NET's light-weight notification receivers" the client
//!   GUI starts,
//! * [`broker`] — the brokered path: a WSRF service whose resources
//!   are *subscriptions* (pausable, lease-limited, queryable through
//!   the standard port types).

// WS-BaseFaults carries timestamps, originator EPRs and cause chains
// by design, so fault values are large; handlers are not hot paths and
// faults are exceptional, so we keep them by value rather than boxing
// every error site.
#![allow(clippy::result_large_err)]

pub mod broker;
pub mod consumer;
pub mod message;
pub mod producer;
pub mod topics;

pub use consumer::NotificationListener;
pub use message::NotificationMessage;
pub use producer::{NotificationProducer, SubscriptionManager};
pub use topics::{Dialect, TopicExpression, TopicPath};
