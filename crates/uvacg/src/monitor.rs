//! The grid monitoring plane — a G-Monitor-style console backend over
//! the WSRF machinery itself.
//!
//! Three pieces, layered on the observability substrate in `wsrf-obs`:
//!
//! * [`monitor_service`] deploys a WSRF service whose well-known
//!   `monitor` resource publishes the deployment's structured event
//!   log (`{UVACG}EventLog`) and rolling SLO health (`{UVACG}Health`)
//!   as *computed* resource properties — queryable with the standard
//!   WS-ResourceProperties port types like any other RP.
//! * [`EventPump`] bridges the in-process event rings onto the
//!   notification fabric: each flush publishes the events that arrived
//!   since the previous one on the [`MONITOR_TOPIC`] topic, so remote
//!   consoles see faults, WAL snapshots, auto-pauses and lease
//!   expiries as they happen. The pump pulls from the ring with a
//!   sequence cursor rather than hooking emit sites, so a delivery
//!   failure caused by the pump's own publish (which emits an
//!   auto-pause event) surfaces on the *next* flush instead of
//!   recursing into the broker.
//! * [`MonitorService`] is the aggregation side: it subscribes a
//!   listener per authority to that topic, periodically pulls each
//!   authority's metrics snapshot (the live registry, or the HTTP
//!   `/metrics.json` endpoint read back with
//!   [`MetricsSnapshot::from_json`]), and folds everything into a
//!   [`GridCatalog`] the `examples/console.rs` live view renders. A
//!   scrape that fails is an alert on that authority's row.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simclock::Clock;
use ws_notification::broker;
use ws_notification::consumer::NotificationListener;
use ws_notification::message::NotificationMessage;
use ws_notification::topics::TopicExpression;
use wsrf_core::container::{Service, ServiceBuilder};
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::ResourceStore;
use wsrf_obs::{Event, MetricValue, MetricsRegistry, MetricsSnapshot};
use wsrf_soap::ns::UVACG;
use wsrf_soap::{EndpointReference, SoapFault};
use wsrf_transport::InProcNetwork;
use wsrf_xml::Element;

use crate::q;

/// The notification topic event pumps publish on.
pub const MONITOR_TOPIC: &str = "monitor/events";

/// Well-known resource key of the monitor RPs.
pub const MONITOR_KEY: &str = "monitor";

/// Serialize one structured event as a `{UVACG}Event` element.
pub fn event_to_element(e: &Event) -> Element {
    Element::with_name(q("Event"))
        .attr("seq", e.seq.to_string())
        .attr("severity", e.severity.as_str())
        .attr("kind", e.kind.as_str())
        .attr("service", &*e.service)
        .attr("t", e.virt_ns.to_string())
        .text(&e.detail)
}

/// Deploy the monitor WSRF service: a single well-known resource
/// (key [`MONITOR_KEY`]) whose `{UVACG}EventLog` and `{UVACG}Health`
/// properties are computed live from `registry` at query time, the
/// same pattern as the scheduler's `Trace` RP.
pub fn monitor_service(
    address: &str,
    registry: &Arc<MetricsRegistry>,
    store: Arc<dyn ResourceStore>,
    clock: Clock,
    net: Arc<InProcNetwork>,
) -> Arc<Service> {
    let ev_reg = registry.clone();
    let slo_reg = registry.clone();
    let service = ServiceBuilder::new("Monitor", address, store)
        .computed_property(q("EventLog"), move |_doc, _now| {
            let events = ev_reg.events().all();
            let mut el = Element::with_name(q("EventLog"))
                .attr("count", events.len().to_string())
                .attr("lastSeq", ev_reg.events().last_seq().to_string());
            for e in &events {
                el.push_child(event_to_element(e));
            }
            vec![el]
        })
        .computed_property(q("Health"), move |_doc, now| {
            let mut el = Element::with_name(q("Health"));
            for h in slo_reg.slo().health_all(now.as_nanos()) {
                el.push_child(
                    Element::with_name(q("Service"))
                        .attr("name", &*h.service)
                        .attr("total", h.total.to_string())
                        .attr("ok", h.ok.to_string())
                        .attr("successRate", format!("{:.6}", h.success_rate))
                        .attr("p99Ns", h.p99_ns.to_string())
                        .attr("burnRate", format!("{:.4}", h.burn_rate))
                        .attr("healthy", if h.is_healthy() { "true" } else { "false" }),
                );
            }
            vec![el]
        })
        .build(clock, net);
    // Nobody to tell at deployment: a store that refuses the resource
    // answers every monitor read with `wsrf:NoSuchResource` instead.
    let _ = service
        .core()
        .create_resource_with_key(MONITOR_KEY, PropertyDoc::new());
    service
}

/// Streams the deployment's event rings onto the notification fabric.
///
/// Cursor-based: [`EventPump::flush`] publishes everything past the
/// last flushed sequence number as one batched `{UVACG}Events`
/// notification on [`MONITOR_TOPIC`]. Events emitted *during* a flush
/// (e.g. an auto-pause triggered by this very publish) carry higher
/// sequence numbers and ride the next flush — no broker re-entrancy.
pub struct EventPump {
    net: Arc<InProcNetwork>,
    registry: Arc<MetricsRegistry>,
    broker: EndpointReference,
    authority: String,
    last_seq: AtomicU64,
}

impl EventPump {
    /// A pump draining `registry`'s event log to `broker`, stamping
    /// batches with `authority` so aggregators can tell grids apart.
    pub fn new(
        net: Arc<InProcNetwork>,
        registry: Arc<MetricsRegistry>,
        broker: EndpointReference,
        authority: &str,
    ) -> Arc<EventPump> {
        Arc::new(EventPump {
            net,
            registry,
            broker,
            authority: authority.to_string(),
            last_seq: AtomicU64::new(0),
        })
    }

    /// Publish all events newer than the cursor; returns how many went
    /// out (0 publishes nothing). A batch the broker never got leaves
    /// the cursor where it was, so it goes out with the next flush.
    pub fn flush(&self) -> usize {
        let after = self.last_seq.load(Ordering::Acquire);
        let events = self.registry.events().since(after);
        if events.is_empty() {
            return 0;
        }
        let mut batch = Element::with_name(q("Events")).attr("authority", &self.authority);
        let mut max_seq = after;
        for e in &events {
            max_seq = max_seq.max(e.seq);
            batch.push_child(event_to_element(e));
        }
        let msg = NotificationMessage::new(MONITOR_TOPIC, batch);
        if broker::publish(&self.net, &self.broker, &msg).is_err() {
            return 0;
        }
        self.last_seq.store(max_seq, Ordering::Release);
        events.len()
    }

    /// Self-rescheduling flush every `every` of virtual time. On a
    /// manual clock each `advance` past a boundary drains once.
    pub fn start(self: &Arc<Self>, clock: &Clock, every: std::time::Duration) {
        let pump = self.clone();
        let clock2 = clock.clone();
        clock.schedule(every, move |_| {
            pump.flush();
            pump.start(&clock2, every);
        });
    }
}

/// Where an authority's metrics snapshot comes from.
pub enum MetricsSource {
    /// Read the registry in-process (same-process deployments).
    Registry(Arc<MetricsRegistry>),
    /// Scrape `http://<authority>/metrics.json` from a monitored
    /// [`wsrf_transport::http::HttpSoapServer`]; `/healthz` supplies
    /// the degraded flag.
    Http(String),
}

/// One event as received from an authority's pump.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteEvent {
    pub authority: String,
    pub seq: u64,
    pub severity: String,
    pub kind: String,
    pub service: String,
    pub virt_ns: u64,
    pub detail: String,
}

/// One Figure 3 step's latency digest (from a
/// `scheduler.step.<NN>_<name>_ns` histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct StepStat {
    /// Step label, e.g. `03_es_run`.
    pub name: String,
    pub mean_ns: f64,
    pub count: u64,
}

/// Per-authority digest of one polling round.
#[derive(Debug, Clone, PartialEq)]
pub struct AuthorityStatus {
    pub name: String,
    /// Job sets completed (`scheduler.makespan_ns` count).
    pub sets_completed: u64,
    /// Mean set makespan, virtual ns.
    pub mean_makespan_ns: f64,
    /// Jobs dispatched (`scheduler.step.03_es_run_ns` count).
    pub jobs_dispatched: u64,
    /// Jobs whose exit broadcast arrived (step 10 count).
    pub jobs_completed: u64,
    /// Dispatched minus exited: the grid's current queue depth.
    pub jobs_in_flight: u64,
    /// Container dispatches across every service (`*.dispatches`).
    pub dispatches: u64,
    /// Fault envelopes across every service (`*.faults`).
    pub faults: u64,
    /// Broker deliveries so far.
    pub deliveries: u64,
    /// Slowest Figure 3 steps by mean latency, descending.
    pub slowest_steps: Vec<StepStat>,
    /// Active alerts (a failed metrics scrape, SLO burn, degraded
    /// `/healthz`, warn/error events).
    pub alerts: Vec<String>,
}

/// A grid-wide snapshot assembled by [`MonitorService::poll`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridCatalog {
    /// Virtual time of the poll (the monitor's clock).
    pub at_ns: u64,
    pub authorities: Vec<AuthorityStatus>,
    /// Recent events across all authorities, oldest first.
    pub events: Vec<RemoteEvent>,
}

impl GridCatalog {
    /// Render a fixed-width console frame (the `examples/console.rs`
    /// live view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== grid monitor @ {:.3}s virtual ==\n",
            self.at_ns as f64 / 1e9
        ));
        out.push_str(&format!(
            "{:<12} {:>5} {:>6} {:>9} {:>7} {:>7} {:>8}  alerts\n",
            "authority", "sets", "jobs", "in-flight", "disp", "faults", "deliver"
        ));
        for a in &self.authorities {
            out.push_str(&format!(
                "{:<12} {:>5} {:>6} {:>9} {:>7} {:>7} {:>8}  {}\n",
                a.name,
                a.sets_completed,
                a.jobs_completed,
                a.jobs_in_flight,
                a.dispatches,
                a.faults,
                a.deliveries,
                if a.alerts.is_empty() {
                    "-".to_string()
                } else {
                    a.alerts.join("; ")
                }
            ));
        }
        for a in &self.authorities {
            if a.slowest_steps.is_empty() {
                continue;
            }
            out.push_str(&format!("-- slowest steps: {} --\n", a.name));
            for s in &a.slowest_steps {
                out.push_str(&format!(
                    "  {:<24} mean {:>12.0} ns  x{}\n",
                    s.name, s.mean_ns, s.count
                ));
            }
        }
        if !self.events.is_empty() {
            out.push_str("-- recent events --\n");
            for e in self
                .events
                .iter()
                .rev()
                .take(8)
                .collect::<Vec<_>>()
                .iter()
                .rev()
            {
                out.push_str(&format!(
                    "  [{:<5}] {}/{} {} @{:.3}s: {}\n",
                    e.severity,
                    e.authority,
                    e.service,
                    e.kind,
                    e.virt_ns as f64 / 1e9,
                    e.detail
                ));
            }
        }
        out
    }
}

struct AuthorityHandle {
    name: String,
    source: MetricsSource,
    /// Keeps the subscription's consumer endpoint alive.
    _listener: NotificationListener,
}

struct MonInner {
    authorities: Mutex<Vec<AuthorityHandle>>,
    events: Mutex<VecDeque<RemoteEvent>>,
    cap: usize,
}

/// The aggregation service: one listener per monitored authority on
/// that authority's network, a bounded cross-grid event buffer, and a
/// pull-based metrics poll.
pub struct MonitorService {
    clock: Clock,
    inner: Arc<MonInner>,
}

/// How many slowest steps a poll reports per authority.
const TOP_STEPS: usize = 5;

/// Cross-authority event buffer bound.
const EVENT_BUFFER_CAP: usize = 512;

impl MonitorService {
    /// A monitor on `clock` (drives the catalog's timestamp; share the
    /// grids' clock so virtual times line up).
    pub fn new(clock: Clock) -> MonitorService {
        MonitorService {
            clock,
            inner: Arc::new(MonInner {
                authorities: Mutex::new(Vec::new()),
                events: Mutex::new(VecDeque::new()),
                cap: EVENT_BUFFER_CAP,
            }),
        }
    }

    /// Attach one authority: register a listener at
    /// `inproc://monitor/<name>` on *that authority's* network,
    /// subscribe it to [`MONITOR_TOPIC`] at the authority's broker,
    /// and remember where its metrics snapshots come from.
    pub fn add_authority(
        &self,
        name: &str,
        net: &Arc<InProcNetwork>,
        broker_epr: &EndpointReference,
        source: MetricsSource,
    ) -> Result<(), SoapFault> {
        let address = format!("inproc://monitor/{name}");
        let listener = NotificationListener::register_counting(net, &address);
        let inner = self.inner.clone();
        let authority = name.to_string();
        listener.on_topic(TopicExpression::full(MONITOR_TOPIC), move |msg| {
            let mut events = inner.events.lock();
            for ev in msg.payload.find_all(UVACG, "Event") {
                let attr_u64 = |k: &str| ev.attr_value(k).and_then(|v| v.parse().ok()).unwrap_or(0);
                if events.len() == inner.cap {
                    events.pop_front();
                }
                events.push_back(RemoteEvent {
                    authority: authority.clone(),
                    seq: attr_u64("seq"),
                    severity: ev.attr_value("severity").unwrap_or("info").to_string(),
                    kind: ev.attr_value("kind").unwrap_or("").to_string(),
                    service: ev.attr_value("service").unwrap_or("").to_string(),
                    virt_ns: attr_u64("t"),
                    detail: ev.text_content(),
                });
            }
        });
        broker::subscribe(
            net,
            broker_epr,
            &listener.epr(),
            &TopicExpression::full(MONITOR_TOPIC),
            None,
        )?;
        self.inner.authorities.lock().push(AuthorityHandle {
            name: name.to_string(),
            source,
            _listener: listener,
        });
        Ok(())
    }

    /// Number of attached authorities.
    pub fn authority_count(&self) -> usize {
        self.inner.authorities.lock().len()
    }

    /// Events buffered so far (oldest first).
    pub fn events(&self) -> Vec<RemoteEvent> {
        self.inner.events.lock().iter().cloned().collect()
    }

    /// Pull every authority's metrics snapshot and fold the current
    /// state into a [`GridCatalog`].
    pub fn poll(&self) -> GridCatalog {
        let now_ns = self.clock.now().as_nanos();
        let events: Vec<RemoteEvent> = self.inner.events.lock().iter().cloned().collect();
        let authorities = self.inner.authorities.lock();
        let statuses = authorities
            .iter()
            .map(|a| {
                let (metrics, degraded) = match &a.source {
                    MetricsSource::Registry(reg) => {
                        let degraded = reg.slo().health_all(now_ns).iter().any(|h| !h.is_healthy());
                        (Ok(reg.snapshot()), degraded)
                    }
                    MetricsSource::Http(authority) => {
                        let degraded = wsrf_transport::http::http_get(authority, "/healthz")
                            .map(|(code, _)| code == 503)
                            .unwrap_or(false);
                        (scrape(authority), degraded)
                    }
                };
                let mut status = digest(
                    &a.name,
                    metrics.as_ref().unwrap_or(&MetricsSnapshot::default()),
                    degraded,
                    &events,
                );
                if let Err(why) = metrics {
                    status
                        .alerts
                        .insert(0, format!("metrics scrape failed: {why}"));
                }
                status
            })
            .collect();
        GridCatalog {
            at_ns: now_ns,
            authorities: statuses,
            events,
        }
    }
}

/// `GET /metrics.json` from `authority`, read back with
/// [`MetricsSnapshot::from_json`]; why not, when it cannot be.
fn scrape(authority: &str) -> Result<MetricsSnapshot, String> {
    match wsrf_transport::http::http_get(authority, "/metrics.json") {
        Ok((200, body)) => MetricsSnapshot::from_json(&body).map_err(|e| e.to_string()),
        Ok((code, _)) => Err(format!("GET /metrics.json answered {code}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Fold one authority's metrics snapshot + event tail into its status row.
fn digest(
    name: &str,
    metrics: &MetricsSnapshot,
    degraded: bool,
    events: &[RemoteEvent],
) -> AuthorityStatus {
    let hist = |k: &str| metrics.histogram(k).unwrap_or_default();
    let makespan = hist("scheduler.makespan_ns");
    let dispatched = hist("scheduler.step.03_es_run_ns");
    let exited = hist("scheduler.step.10_exit_broadcast_ns");
    let mut dispatches = 0u64;
    let mut faults = 0u64;
    let mut steps: Vec<StepStat> = Vec::new();
    for (k, v) in &metrics.entries {
        match v {
            MetricValue::Counter(c)
                if k.starts_with("container.") && k.ends_with(".dispatches") =>
            {
                dispatches = dispatches.saturating_add(*c)
            }
            MetricValue::Counter(c) if k.starts_with("container.") && k.ends_with(".faults") => {
                faults = faults.saturating_add(*c)
            }
            MetricValue::Histogram(h) if h.count > 0 => {
                if let Some(step) = k
                    .strip_prefix("scheduler.step.")
                    .and_then(|s| s.strip_suffix("_ns"))
                {
                    steps.push(StepStat {
                        name: step.to_string(),
                        mean_ns: h.mean(),
                        count: h.count,
                    });
                }
            }
            _ => {}
        }
    }
    steps.sort_by(|a, b| b.mean_ns.partial_cmp(&a.mean_ns).unwrap());
    steps.truncate(TOP_STEPS);

    let mut alerts = Vec::new();
    if degraded {
        alerts.push("SLO burn: degraded".to_string());
    }
    if faults > 0 {
        alerts.push(format!("{faults} dispatch faults"));
    }
    let noisy = events
        .iter()
        .filter(|e| e.authority == name && e.severity != "info")
        .count();
    if noisy > 0 {
        alerts.push(format!("{noisy} warn/error events"));
    }
    AuthorityStatus {
        name: name.to_string(),
        sets_completed: makespan.count,
        mean_makespan_ns: makespan.mean(),
        jobs_dispatched: dispatched.count,
        jobs_completed: exited.count,
        jobs_in_flight: dispatched.count.saturating_sub(exited.count),
        dispatches,
        faults,
        deliveries: metrics.counter("broker.deliveries").unwrap_or(0),
        slowest_steps: steps,
        alerts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ranks_slowest_steps_and_flags_faults() {
        let reg = MetricsRegistry::enabled();
        reg.counter("container.Scheduler.dispatches").add(10);
        reg.counter("container.Scheduler.faults").add(2);
        reg.histogram("scheduler.step.03_es_run_ns").record(50);
        reg.histogram("scheduler.step.10_exit_broadcast_ns")
            .record(5_000_000);
        let status = digest("campus", &reg.snapshot(), false, &[]);
        assert_eq!(status.dispatches, 10);
        assert_eq!(status.faults, 2);
        assert_eq!(status.jobs_dispatched, 1);
        assert_eq!(status.jobs_completed, 1);
        assert_eq!(status.jobs_in_flight, 0);
        assert_eq!(status.slowest_steps[0].name, "10_exit_broadcast");
        assert!(status
            .alerts
            .iter()
            .any(|a| a.contains("2 dispatch faults")));
    }

    #[test]
    fn catalog_renders_every_authority_row() {
        let catalog = GridCatalog {
            at_ns: 2_500_000_000,
            authorities: vec![digest("campus-a", &MetricsSnapshot::default(), true, &[])],
            events: vec![RemoteEvent {
                authority: "campus-a".into(),
                seq: 1,
                severity: "warn".into(),
                kind: "dispatch_fault".into(),
                service: "Scheduler".into(),
                virt_ns: 1_000_000_000,
                detail: "uvacg:NoSuchJob: gone".into(),
            }],
        };
        let frame = catalog.render();
        assert!(frame.contains("campus-a"));
        assert!(frame.contains("SLO burn: degraded"));
        assert!(frame.contains("dispatch_fault"));
        assert!(frame.contains("2.500s virtual"));
    }

    #[test]
    fn an_unreachable_authority_is_an_alert_not_a_zero_row() {
        let grid = crate::CampusGrid::build(crate::GridConfig::with_machines(1), Clock::manual());
        let closed = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let monitor = MonitorService::new(grid.clock.clone());
        monitor
            .add_authority(
                "gone",
                &grid.net,
                &grid.broker,
                MetricsSource::Http(closed.to_string()),
            )
            .unwrap();
        let row = &monitor.poll().authorities[0];
        assert!(
            row.alerts[0].starts_with("metrics scrape failed: ")
                && row.alerts[0].contains("connect"),
            "{:?}",
            row.alerts
        );
    }

    #[test]
    fn a_batch_the_broker_never_got_goes_out_with_the_next_flush() {
        use wsrf_core::store::MemoryStore;
        use wsrf_obs::{EventKind, Severity};

        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let address = "inproc://hub/Broker";
        let broker_svc = broker::notification_broker(
            "Broker",
            address,
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        let reg = MetricsRegistry::enabled();
        let pump = EventPump::new(
            net.clone(),
            reg.clone(),
            broker_svc.core().service_epr(),
            "a",
        );
        let emit = |detail: &'static str| {
            let kind = EventKind::DispatchFault;
            reg.events()
                .emit(Severity::Warn, kind, "svc", 0, || detail.into())
        };
        emit("first");
        emit("second");

        // The broker leaves the network: the batch does not go out.
        broker_svc.register(&net);
        assert!(net.unregister(address));
        assert_eq!(pump.flush(), 0);

        broker_svc.register(&net);
        let listener = NotificationListener::register(&net, "inproc://console/listener");
        let expr = TopicExpression::full(MONITOR_TOPIC);
        broker::subscribe(
            &net,
            &broker_svc.core().service_epr(),
            &listener.epr(),
            &expr,
            None,
        )
        .unwrap();
        assert_eq!(pump.flush(), 2);
        let batches = listener.on(&MONITOR_TOPIC.into());
        assert_eq!(batches.len(), 1);
        let details: Vec<String> = batches[0]
            .payload
            .find_all(UVACG, "Event")
            .map(|e| e.text_content())
            .collect();
        assert_eq!(details, ["first", "second"]);
        assert_eq!(pump.flush(), 0, "nothing is sent twice");
    }
}
