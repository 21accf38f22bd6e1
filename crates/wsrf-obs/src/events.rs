//! Structured event log: a bounded, per-severity ring of typed events.
//!
//! Metrics answer "how much"; the event log answers "what happened".
//! Emitters (container dispatch, the WAL, the broker's delivery
//! fabric, the scheduler) push typed [`Event`]s; consumers read them
//! back as a `{UVACG}EventLog` resource property, stream them onto a
//! `monitor/events` notification topic, or scrape them through the
//! exposition endpoint's health view.
//!
//! Rules match the rest of the registry:
//!
//! 1. **Opt-out is free.** A disabled log is `None` inside; `emit`
//!    takes the detail as a closure so callers pay no formatting (and
//!    no allocation) when the log is off.
//! 2. **Bounded per severity.** Each severity keeps its own ring of
//!    `capacity` events, so a storm of `Info` chatter can never evict
//!    the `Error` that explains it. Evictions are counted
//!    (`events.dropped`), never blocking.
//! 3. **Globally ordered.** Every event gets a sequence number from one
//!    atomic; `since(seq)` lets a pump stream the log incrementally
//!    without missing or duplicating events.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{Counter, MetricsRegistry};

/// How loud an event is. Ordering is by urgency (`Info < Warn <
/// Error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warn,
    Error,
}

/// All severities, ring order.
pub const SEVERITIES: [Severity; 3] = [Severity::Info, Severity::Warn, Severity::Error];

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    fn idx(&self) -> usize {
        *self as usize
    }
}

/// What kind of thing happened. A closed set: kinds are counted
/// individually (`events.<kind>`), so an open set would be an
/// unbounded-cardinality escape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A container operation returned a fault.
    DispatchFault,
    /// A WAL shard compacted its log into a snapshot.
    WalSnapshot,
    /// A WAL shard could not write (or roll back) a record; the
    /// mutation was refused.
    WalAppendError,
    /// The broker auto-paused a subscription after consecutive
    /// delivery failures.
    DeliveryAutopause,
    /// A WS-ResourceLifetime lease expired and the resource was
    /// destroyed.
    LeaseExpiry,
    /// A scheduler job set ran to completion.
    JobCompleted,
    /// A scheduler job (or its machine) failed or timed out.
    JobFailed,
    /// A state write made outside a dispatch — nobody to return the
    /// error to — was refused by the store, for a reason other than the
    /// resource being gone.
    StoreWriteDropped,
    /// A one-way message could not be sent (the sender may have had
    /// nobody to return the transport error to).
    OutboundFailed,
}

/// All kinds, counter order.
pub const EVENT_KINDS: [EventKind; 9] = [
    EventKind::DispatchFault,
    EventKind::WalSnapshot,
    EventKind::WalAppendError,
    EventKind::DeliveryAutopause,
    EventKind::LeaseExpiry,
    EventKind::JobCompleted,
    EventKind::JobFailed,
    EventKind::StoreWriteDropped,
    EventKind::OutboundFailed,
];

impl EventKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::DispatchFault => "dispatch_fault",
            EventKind::WalSnapshot => "wal_snapshot",
            EventKind::WalAppendError => "wal_append_error",
            EventKind::DeliveryAutopause => "delivery_autopause",
            EventKind::LeaseExpiry => "lease_expiry",
            EventKind::JobCompleted => "job_completed",
            EventKind::JobFailed => "job_failed",
            EventKind::StoreWriteDropped => "store_write_dropped",
            EventKind::OutboundFailed => "outbound_failed",
        }
    }

    fn idx(&self) -> usize {
        *self as usize
    }
}

/// One logged occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global sequence number, starting at 1; total order across
    /// severities.
    pub seq: u64,
    pub severity: Severity,
    pub kind: EventKind,
    /// The service (or subsystem) that emitted the event.
    pub service: Arc<str>,
    /// Human-readable specifics ("op QueryJob: no such resource").
    pub detail: String,
    /// Virtual time of the event; `0` when the emitter has no clock
    /// (the WAL).
    pub virt_ns: u64,
}

struct EventLogInner {
    capacity: usize,
    next_seq: AtomicU64,
    rings: [Mutex<VecDeque<Event>>; 3],
    emitted: Counter,
    dropped: Counter,
    by_kind: [Counter; EVENT_KINDS.len()],
}

/// Handle onto a deployment's event log. Cloning shares the rings; a
/// disabled log is `None` inside and free to call.
#[derive(Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<EventLogInner>>,
}

impl EventLog {
    /// The disabled log.
    pub fn noop() -> Self {
        EventLog { inner: None }
    }

    /// Build a log retaining up to `capacity` events per severity; its
    /// `events.*` counters register in `metrics`. `capacity == 0`
    /// disables the log entirely.
    pub fn new(capacity: usize, metrics: &MetricsRegistry) -> Self {
        if capacity == 0 {
            return EventLog::noop();
        }
        EventLog {
            inner: Some(Arc::new(EventLogInner {
                capacity,
                next_seq: AtomicU64::new(1),
                rings: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
                emitted: metrics.counter("events.emitted"),
                dropped: metrics.counter("events.dropped"),
                by_kind: std::array::from_fn(|i| {
                    metrics.counter(&format!("events.{}", EVENT_KINDS[i].as_str()))
                }),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Retention bound per severity ring (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map(|i| i.capacity).unwrap_or(0)
    }

    /// Log one event. `detail` is a closure so a disabled log costs a
    /// branch, not a format. Returns the event's sequence number (`0`
    /// when disabled).
    pub fn emit(
        &self,
        severity: Severity,
        kind: EventKind,
        service: &str,
        virt_ns: u64,
        detail: impl FnOnce() -> String,
    ) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            severity,
            kind,
            service: Arc::from(service),
            detail: detail(),
            virt_ns,
        };
        let mut ring = inner.rings[severity.idx()].lock();
        if ring.len() >= inner.capacity {
            ring.pop_front();
            inner.dropped.inc();
        }
        ring.push_back(event);
        drop(ring);
        inner.emitted.inc();
        inner.by_kind[kind.idx()].inc();
        seq
    }

    /// The newest `n` events of one severity, oldest first.
    pub fn recent(&self, severity: Severity, n: usize) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let ring = inner.rings[severity.idx()].lock();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Retained events of one severity.
    pub fn len(&self, severity: Severity) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.rings[severity.idx()].lock().len())
            .unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        SEVERITIES.iter().all(|s| self.len(*s) == 0)
    }

    /// Every retained event across severities, in sequence order.
    pub fn all(&self) -> Vec<Event> {
        self.since(0)
    }

    /// Retained events with `seq > after`, in sequence order — the
    /// incremental read an event pump uses. Events already evicted
    /// from their ring are gone (bounded retention is the contract);
    /// compare the pump's cursor with [`EventLog::last_seq`] and
    /// `events.dropped` to detect gaps.
    pub fn since(&self, after: u64) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<Event> = Vec::new();
        for ring in &inner.rings {
            out.extend(ring.lock().iter().filter(|e| e.seq > after).cloned());
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The most recently assigned sequence number (0 when nothing has
    /// been emitted).
    pub fn last_seq(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.next_seq.load(Ordering::Relaxed) - 1)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(cap: usize) -> (EventLog, Arc<MetricsRegistry>) {
        let reg = MetricsRegistry::enabled();
        (EventLog::new(cap, &reg), reg)
    }

    #[test]
    fn disabled_log_costs_nothing() {
        let noop = EventLog::noop();
        let mut formatted = false;
        let seq = noop.emit(Severity::Error, EventKind::DispatchFault, "svc", 0, || {
            formatted = true;
            "boom".into()
        });
        assert_eq!(seq, 0);
        assert!(!formatted, "detail closure must not run when disabled");
        assert!(noop.all().is_empty());
        assert_eq!(EventLog::new(0, &MetricsRegistry::enabled()).capacity(), 0);
    }

    #[test]
    fn rings_are_bounded_per_severity() {
        let (log, reg) = log(3);
        for i in 0..10 {
            log.emit(Severity::Info, EventKind::WalSnapshot, "wal", i, || {
                format!("snap {i}")
            });
        }
        // Info churn does not evict the lone error.
        log.emit(Severity::Error, EventKind::DispatchFault, "fss", 99, || {
            "fault".into()
        });
        assert_eq!(log.len(Severity::Info), 3);
        assert_eq!(log.len(Severity::Error), 1);
        let info = log.recent(Severity::Info, 10);
        assert_eq!(info.len(), 3);
        assert_eq!(info[0].detail, "snap 7", "oldest evicted first");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events.emitted"), Some(11));
        assert_eq!(snap.counter("events.dropped"), Some(7));
        assert_eq!(snap.counter("events.wal_snapshot"), Some(10));
        assert_eq!(snap.counter("events.dispatch_fault"), Some(1));
    }

    #[test]
    fn since_merges_severities_in_sequence_order() {
        let (log, _reg) = log(16);
        log.emit(Severity::Info, EventKind::JobCompleted, "sched", 1, || {
            "a".into()
        });
        log.emit(Severity::Warn, EventKind::JobFailed, "sched", 2, || {
            "b".into()
        });
        log.emit(Severity::Info, EventKind::LeaseExpiry, "broker", 3, || {
            "c".into()
        });
        let all = log.all();
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "global order across rings"
        );
        let tail = log.since(all[1].seq);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].detail, "c");
        assert_eq!(log.last_seq(), 3);
        assert!(log.since(log.last_seq()).is_empty());
    }

    #[test]
    fn concurrent_emitters_keep_unique_sequence() {
        let (log, _reg) = log(4096);
        crossbeam::scope(|s| {
            for t in 0..4 {
                let log = &log;
                s.spawn(move |_| {
                    for i in 0..100 {
                        log.emit(Severity::Info, EventKind::WalSnapshot, "wal", i, || {
                            format!("t{t} i{i}")
                        });
                    }
                });
            }
        })
        .unwrap();
        let all = log.all();
        assert_eq!(all.len(), 400);
        let mut seqs: Vec<u64> = all.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "no duplicate sequence numbers");
    }
}
