//! The simulated campus network.
//!
//! Every machine's services register here under their full address
//! (`inproc://machine01/ExecutionService`, `soap.tcp://client/files`).
//! Message *costs* come from the [`NetConfig`] model against the shared
//! virtual clock; message *delivery* is an in-process method call, so a
//! whole campus grid runs in one address space at memory speed while
//! still exhibiting realistic timing and traffic metrics.
//!
//! Because delivery passes the [`Envelope`] by value — no wire text is
//! ever produced — this transport's receive path is already "zero
//! parse": the inbound-lazy machinery ([`Endpoint::handle_wire`], the
//! container's pull-scan routing) only comes into play on the socket
//! transports, which own real receive buffers.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use simclock::Clock;
use wsrf_obs::{ActiveSpan, Histogram, HistogramFamily, MetricsRegistry};
use wsrf_soap::{Envelope, Uri};

use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::netsim::NetConfig;
use crate::obs::LinkObs;
use crate::pool::ThreadPool;

/// Traffic counters, readable at any time (experiments E5/E8 plot
/// these).
#[derive(Default)]
pub struct NetMetrics {
    /// Request/response exchanges completed.
    pub calls: AtomicU64,
    /// One-way messages accepted for delivery.
    pub oneways: AtomicU64,
    /// Serialized payload bytes moved (requests + responses).
    pub bytes: AtomicU64,
    /// Accumulated modeled (virtual) transfer time in nanoseconds.
    pub modeled_nanos: AtomicU64,
    /// Messages dropped because the destination vanished between
    /// scheduling and delivery.
    pub undeliverable: AtomicU64,
}

impl NetMetrics {
    /// Snapshot of (calls, oneways, bytes, modeled transfer time).
    pub fn snapshot(&self) -> (u64, u64, u64, Duration) {
        (
            self.calls.load(Ordering::Relaxed),
            self.oneways.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            Duration::from_nanos(self.modeled_nanos.load(Ordering::Relaxed)),
        )
    }

    fn record(&self, bytes: u64, modeled: Duration) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.modeled_nanos
            .fetch_add(modeled.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Address → endpoint, as registered.
type Registry = RwLock<HashMap<String, Arc<dyn Endpoint>>>;

/// A one-way message routed, traced, sized, priced and counted
/// ([`InProcNetwork::accept_oneway`]), its delivery still to decide.
struct AcceptedOneway {
    /// The destination as resolved at acceptance.
    ep: Arc<dyn Endpoint>,
    /// Modeled transfer time.
    cost: Duration,
    /// The hop span, open for as long as the accepting call works on
    /// the message.
    _hop: Option<ActiveSpan>,
}

/// The simulated network fabric.
pub struct InProcNetwork {
    clock: Clock,
    /// Shared with deferred one-way deliveries, which re-resolve their
    /// destination at delivery time (see [`InProcNetwork::send_oneway`]).
    registry: Arc<Registry>,
    /// Cost model: read on every call/oneway, written only when a
    /// test or bench reconfigures the net — hence a RwLock, so
    /// concurrent senders never serialize on it.
    config: RwLock<NetConfig>,
    /// Counters for experiments.
    pub metrics: Arc<NetMetrics>,
    /// Registry-backed observability (no-op unless constructed via
    /// [`InProcNetwork::with_metrics`]).
    obs: LinkObs,
    /// The deployment's registry; services built on this network
    /// default their metrics to it.
    obs_registry: Arc<MetricsRegistry>,
    /// Modeled (virtual) transfer time per message, nanoseconds.
    obs_modeled: Histogram,
    /// Per-authority breakdown of the same, bounded: authorities come
    /// from an open set (every client id is one), so past the cap the
    /// long tail shares `transport.inproc.modeled.other_ns` instead of
    /// minting a histogram per name.
    obs_modeled_by_auth: HistogramFamily,
    /// Defers [`send_oneway`](InProcNetwork::send_oneway) deliveries
    /// off the manual clock; [`deliver_oneway`](InProcNetwork::deliver_oneway)
    /// never touches it.
    pool: ThreadPool,
}

impl InProcNetwork {
    /// A network with zero-cost links (deterministic tests).
    pub fn new(clock: Clock) -> Arc<Self> {
        Self::with_config(clock, NetConfig::default())
    }

    /// A network with an explicit cost model.
    pub fn with_config(clock: Clock, config: NetConfig) -> Arc<Self> {
        Self::with_metrics(clock, config, &MetricsRegistry::disabled())
    }

    /// A network that additionally records traffic into a metrics
    /// registry (`transport.inproc.*`).
    pub fn with_metrics(
        clock: Clock,
        config: NetConfig,
        registry: &Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        Arc::new(InProcNetwork {
            clock,
            registry: Arc::new(RwLock::new(HashMap::new())),
            config: RwLock::new(config),
            metrics: Arc::new(NetMetrics::default()),
            obs: LinkObs::new(registry, "inproc"),
            obs_modeled: registry.histogram("transport.inproc.modeled_ns"),
            obs_modeled_by_auth: registry.histogram_family(
                "transport.inproc.modeled",
                "_ns",
                MODELED_AUTHORITY_CAP,
            ),
            obs_registry: registry.clone(),
            pool: ThreadPool::new(4, "inproc-oneway"),
        })
    }

    /// The clock this network charges costs against.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The metrics registry this network records into (a disabled
    /// registry unless constructed via [`InProcNetwork::with_metrics`]).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs_registry
    }

    /// Replace the cost model (benches sweep this).
    pub fn set_config(&self, config: NetConfig) {
        *self.config.write() = config;
    }

    /// Register an endpoint at a full address
    /// (`scheme://authority/path`). Re-registering replaces.
    pub fn register(&self, address: impl Into<String>, endpoint: Arc<dyn Endpoint>) {
        self.registry
            .write()
            .insert(normalized(&address.into()).into_owned(), endpoint);
    }

    /// Remove an endpoint; true if it existed.
    pub fn unregister(&self, address: &str) -> bool {
        self.registry
            .write()
            .remove(&*normalized(address))
            .is_some()
    }

    /// Addresses currently registered (diagnostics).
    pub fn addresses(&self) -> Vec<String> {
        let mut v: Vec<String> = self.registry.read().keys().cloned().collect();
        v.sort();
        v
    }

    fn lookup(&self, address: &str) -> Result<Arc<dyn Endpoint>, TransportError> {
        // Keys were normalized at register time, and callers almost
        // always pass already-normalized addresses — probe with the
        // borrowed key and only allocate a normalized copy when the
        // address actually needs fixing up.
        self.registry
            .read()
            .get(&*normalized(address))
            .cloned()
            .ok_or_else(|| TransportError::NoRoute(address.to_string()))
    }

    /// Exact wire size of `env`, computed by a single counting pass
    /// over the serializer — no render, no clone. Feeds the serialize
    /// metrics when the registry is live.
    fn wire_size(&self, env: &Envelope) -> u64 {
        if self.obs_registry.is_enabled() {
            let t0 = std::time::Instant::now();
            let bytes = env.wire_len() as u64;
            self.obs.record_serialize(bytes, t0);
            bytes
        } else {
            env.wire_len() as u64
        }
    }

    /// Price `bytes` on the link to `dest` — the destination address
    /// split once per message by [`Uri::split`]; an address with no
    /// `://` rides free — and record the transfer: [`NetMetrics`], the
    /// aggregate histogram, and the per-authority breakdown
    /// ([`modeled_metric_name`]) that lets a feedback policy see which
    /// machine's link is slow. The breakdown rides a bounded
    /// [`HistogramFamily`]: the first [`MODELED_AUTHORITY_CAP`]
    /// authorities get their own histogram (cached handles — no
    /// per-transfer name formatting), the rest share the `other`
    /// overflow.
    fn modeled(&self, dest: Option<(&str, &str, &str)>, bytes: u64) -> Duration {
        let cost = match dest {
            Some((scheme, authority, _)) => {
                self.config
                    .read()
                    .transfer_time(&lowercased(scheme), authority, bytes)
            }
            None => Duration::ZERO,
        };
        self.metrics.record(bytes, cost);
        self.obs_modeled.record_duration(cost);
        if let (true, Some((_, authority, _))) = (self.obs_registry.is_enabled(), dest) {
            self.obs_modeled_by_auth
                .histogram(&lowercased(authority))
                .record_duration(cost);
        }
        cost
    }

    /// Synchronous request/response exchange.
    ///
    /// The caller experiences the modeled request + response transfer
    /// times: on a scaled clock it genuinely sleeps (scaled); on a
    /// manual clock costs are recorded in [`NetMetrics`] but delivery
    /// is inline, keeping tests single-threaded and deterministic.
    pub fn call(&self, to: &str, mut env: Envelope) -> Result<Envelope, TransportError> {
        let started = std::time::Instant::now();
        let ep = self.lookup(to)?;
        // Hop span (noop unless tracing): re-stamps the trace header
        // before byte accounting so the wire size reflects what is
        // delivered. Finishes when the exchange completes.
        let mut hop = self.obs.hop_span(&mut env, "transport.call", &self.clock);
        if let Some(s) = hop.as_mut() {
            s.annotate("to", to);
        }
        let dest = Uri::split(to);
        let req_bytes = self.wire_size(&env);
        self.charge(self.modeled(dest, req_bytes));
        let resp = ep
            .handle(env)
            .ok_or_else(|| TransportError::NoResponse(to.to_string()))?;
        let resp_bytes = self.wire_size(&resp);
        self.charge(self.modeled(dest, resp_bytes));
        self.metrics.calls.fetch_add(1, Ordering::Relaxed);
        self.obs.record_call(req_bytes, resp_bytes, started);
        Ok(resp)
    }

    /// What every one-way message owes before its delivery is decided:
    /// route it (a missing destination fails here, not later), extend
    /// its trace by a hop, size it, price it, count it.
    fn accept_oneway(
        &self,
        to: &str,
        env: &mut Envelope,
    ) -> Result<AcceptedOneway, TransportError> {
        let started = std::time::Instant::now();
        let ep = self.lookup(to)?;
        let mut hop = self.obs.hop_span(env, "transport.oneway", &self.clock);
        if let Some(s) = hop.as_mut() {
            s.annotate("to", to);
        }
        let bytes = self.wire_size(env);
        let cost = self.modeled(Uri::split(to), bytes);
        self.metrics.oneways.fetch_add(1, Ordering::Relaxed);
        self.obs.record_oneway(bytes, started);
        Ok(AcceptedOneway {
            ep,
            cost,
            _hop: hop,
        })
    }

    /// One-way message: returns as soon as the message is "on the
    /// wire". Routing failures surface immediately; delivery happens
    /// after the modeled transfer time (via the clock in manual mode,
    /// via the worker pool in scaled mode).
    pub fn send_oneway(&self, to: &str, mut env: Envelope) -> Result<(), TransportError> {
        let AcceptedOneway { ep, cost, _hop } = self.accept_oneway(to, &mut env)?;
        if self.clock.is_manual() && cost.is_zero() {
            ep.handle(env);
            return Ok(());
        }
        // Deferred delivery late-binds the destination ([`arrive`]).
        drop(ep);
        let addr = normalized(to).into_owned();
        let registry = self.registry.clone();
        let metrics = self.metrics.clone();
        if self.clock.is_manual() {
            self.clock
                .schedule(cost, move |_| arrive(&registry, &metrics, &addr, env));
        } else {
            let clock = self.clock.clone();
            self.pool.execute(move || {
                clock.sleep(cost);
                arrive(&registry, &metrics, &addr, env);
            });
        }
        Ok(())
    }

    /// [`send_oneway`](Self::send_oneway) for a caller that already
    /// owns a delivery thread (the broker's per-consumer drain): the
    /// same routing, accounting and failure at lookup, but off the
    /// manual clock the modeled transfer time is slept, and the
    /// endpoint run, **on the calling thread** — no hand-over to this
    /// network's one-way pool, and two messages delivered one after the
    /// other arrive in that order. A message that spent time on the
    /// wire still late-binds its destination. On a manual clock this
    /// *is* `send_oneway`: virtual time is never slept on a sending
    /// thread.
    pub fn deliver_oneway(&self, to: &str, mut env: Envelope) -> Result<(), TransportError> {
        if self.clock.is_manual() {
            return self.send_oneway(to, env);
        }
        let AcceptedOneway { ep, cost, _hop } = self.accept_oneway(to, &mut env)?;
        if cost.is_zero() {
            ep.handle(env);
        } else {
            drop(ep);
            self.clock.sleep(cost);
            arrive(&self.registry, &self.metrics, &normalized(to), env);
        }
        Ok(())
    }

    /// Charge a modeled duration to the caller.
    fn charge(&self, cost: Duration) {
        if !cost.is_zero() && !self.clock.is_manual() {
            self.clock.sleep(cost);
        }
    }
}

/// A message that spent modeled time on the wire reaches whoever holds
/// `addr` (normalized) *now*: the endpoint is re-resolved when the
/// message "arrives", not captured at send time. A container that
/// unregistered (crashed) in the meantime drops the message
/// (`undeliverable`); one that re-registered (restarted, or a standby
/// taking over the address) receives it — exactly the wire semantics a
/// real network would give a rebound listener.
fn arrive(registry: &Registry, metrics: &NetMetrics, addr: &str, env: Envelope) {
    let found = registry.read().get(addr).cloned();
    match found {
        Some(ep) => {
            ep.handle(env);
        }
        None => {
            metrics.undeliverable.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The registry's key for `address`: no trailing slash, lower case.
/// Borrowed when the address already is lower case (the usual case), so
/// a lookup probes the map without allocating.
fn normalized(address: &str) -> Cow<'_, str> {
    lowercased(address.trim_end_matches('/'))
}

/// `s` in ASCII lower case, borrowed when it already is.
fn lowercased(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Max distinct authorities holding their own modeled-transfer
/// histogram; the rest share `transport.inproc.modeled.other_ns`.
pub const MODELED_AUTHORITY_CAP: usize = 64;

/// Metric name of the per-authority modeled-transfer histogram, e.g.
/// `transport.inproc.modeled.machine01_ns`. Feedback-aware schedulers
/// read these to learn which links are slow. Only the first
/// [`MODELED_AUTHORITY_CAP`] authorities get their own series; past
/// the cap the name resolves to an empty histogram and the samples
/// live in the shared overflow.
pub fn modeled_metric_name(authority: &str) -> String {
    format!(
        "transport.inproc.modeled.{}_ns",
        authority.to_ascii_lowercase()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FnEndpoint;
    use wsrf_xml::Element;

    fn echo() -> Arc<dyn Endpoint> {
        Arc::new(FnEndpoint::new("echo", Some))
    }

    fn ping() -> Envelope {
        Envelope::new(Element::local("Ping"))
    }

    #[test]
    fn call_routes_to_registered_endpoint() {
        let net = InProcNetwork::new(Clock::manual());
        net.register("inproc://m1/Echo", echo());
        let resp = net.call("inproc://m1/Echo", ping()).unwrap();
        assert_eq!(resp, ping());
        let (calls, oneways, bytes, _) = net.metrics.snapshot();
        assert_eq!((calls, oneways), (1, 0));
        assert!(bytes > 0);
    }

    #[test]
    fn modeled_per_authority_histograms_are_bounded() {
        let reg = MetricsRegistry::enabled();
        let net = InProcNetwork::with_metrics(Clock::manual(), NetConfig::default(), &reg);
        // Twice the cap of distinct authorities (every client id is
        // one in real runs) must not mint twice the cap of metrics.
        for i in 0..(MODELED_AUTHORITY_CAP * 2) {
            let addr = format!("inproc://auth{i:03}/Echo");
            net.register(&addr, echo());
            net.call(&addr, ping()).unwrap();
        }
        let snap = reg.snapshot();
        let per_auth = snap
            .entries
            .iter()
            .filter(|(n, _)| n.starts_with("transport.inproc.modeled."))
            .count();
        // cap named series + the shared overflow.
        assert_eq!(per_auth, MODELED_AUTHORITY_CAP + 1);
        // In-cap authorities keep the modeled_metric_name contract the
        // feedback policy reads through (2 samples: request + response).
        assert_eq!(
            snap.histogram(&modeled_metric_name("auth000"))
                .unwrap()
                .count,
            2
        );
        // The long tail lands in the overflow, none of it lost.
        assert_eq!(
            snap.histogram("transport.inproc.modeled.other_ns")
                .unwrap()
                .count,
            2 * MODELED_AUTHORITY_CAP as u64
        );
        assert!(snap
            .histogram(&modeled_metric_name(&format!(
                "auth{:03}",
                MODELED_AUTHORITY_CAP + 1
            )))
            .is_none());
    }

    #[test]
    fn unknown_address_is_no_route() {
        let net = InProcNetwork::new(Clock::manual());
        assert_eq!(
            net.call("inproc://nowhere/X", ping()),
            Err(TransportError::NoRoute("inproc://nowhere/X".into()))
        );
        assert_eq!(
            net.send_oneway("inproc://nowhere/X", ping()),
            Err(TransportError::NoRoute("inproc://nowhere/X".into()))
        );
    }

    #[test]
    fn addresses_are_case_insensitive_and_slash_tolerant() {
        let net = InProcNetwork::new(Clock::manual());
        net.register("inproc://M1/Echo/", echo());
        assert!(net.call("INPROC://m1/echo", ping()).is_ok());
    }

    #[test]
    fn unregister_removes_route() {
        let net = InProcNetwork::new(Clock::manual());
        net.register("inproc://m1/Echo", echo());
        assert!(net.unregister("inproc://m1/Echo"));
        assert!(!net.unregister("inproc://m1/Echo"));
        assert!(matches!(
            net.call("inproc://m1/Echo", ping()),
            Err(TransportError::NoRoute(_))
        ));
    }

    #[test]
    fn oneway_with_zero_cost_delivers_inline_on_manual_clock() {
        use std::sync::atomic::AtomicUsize;
        let net = InProcNetwork::new(Clock::manual());
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("sink", move |_| {
                h.fetch_add(1, Ordering::SeqCst);
                None
            })),
        );
        net.send_oneway("inproc://m1/Sink", ping()).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn oneway_with_modeled_cost_waits_for_advance() {
        use std::sync::atomic::AtomicUsize;
        let clock = Clock::manual();
        let cfg = latency(Duration::from_millis(10));
        let net = InProcNetwork::with_config(clock.clone(), cfg);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("sink", move |_| {
                h.fetch_add(1, Ordering::SeqCst);
                None
            })),
        );
        net.send_oneway("inproc://m1/Sink", ping()).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 0, "not yet delivered");
        clock.advance(Duration::from_millis(10));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scheduled_oneway_delivers_to_rebound_endpoint_not_stale_one() {
        // A container that restarts between a message being "on the
        // wire" and arriving must receive it at its new endpoint; a
        // vanished one must count as undeliverable, not deliver to the
        // stale registration.
        use std::sync::atomic::AtomicUsize;
        let clock = Clock::manual();
        let cfg = latency(Duration::from_millis(10));
        let net = InProcNetwork::with_config(clock.clone(), cfg);
        let old_hits = Arc::new(AtomicUsize::new(0));
        let new_hits = Arc::new(AtomicUsize::new(0));
        let (o, n) = (old_hits.clone(), new_hits.clone());
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("old", move |_| {
                o.fetch_add(1, Ordering::SeqCst);
                None
            })),
        );
        // In flight, then the container restarts (unregister + register).
        net.send_oneway("inproc://m1/Sink", ping()).unwrap();
        net.unregister("inproc://m1/Sink");
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("new", move |_| {
                n.fetch_add(1, Ordering::SeqCst);
                None
            })),
        );
        clock.advance(Duration::from_millis(10));
        assert_eq!(old_hits.load(Ordering::SeqCst), 0, "stale endpoint hit");
        assert_eq!(
            new_hits.load(Ordering::SeqCst),
            1,
            "rebound endpoint missed"
        );

        // In flight with no one rebinding: dropped and counted.
        net.send_oneway("inproc://m1/Sink", ping()).unwrap();
        net.unregister("inproc://m1/Sink");
        clock.advance(Duration::from_millis(10));
        assert_eq!(new_hits.load(Ordering::SeqCst), 1);
        assert_eq!(net.metrics.undeliverable.load(Ordering::SeqCst), 1);
    }

    fn latency(d: Duration) -> NetConfig {
        NetConfig {
            default: crate::netsim::LinkProfile {
                latency: d,
                bandwidth_bps: u64::MAX,
                overhead_bytes: 0,
                inflation: 1.0,
            },
            ..NetConfig::default()
        }
    }

    /// An endpoint recording the thread each message arrived on.
    fn thread_sink(
        seen: &Arc<parking_lot::Mutex<Vec<std::thread::ThreadId>>>,
    ) -> Arc<dyn Endpoint> {
        let seen = seen.clone();
        Arc::new(FnEndpoint::new("sink", move |_| {
            seen.lock().push(std::thread::current().id());
            None
        }))
    }

    #[test]
    fn deliver_oneway_runs_the_endpoint_on_the_calling_thread() {
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let me = std::thread::current().id();
        // Zero cost, then 2 virtual s = 2 real ms: delivered by the
        // time the call returns, here, after the modeled time.
        for (cfg, at_least) in [
            (NetConfig::default(), Duration::ZERO),
            (latency(Duration::from_secs(2)), Duration::from_millis(2)),
        ] {
            let net = InProcNetwork::with_config(Clock::scaled(1000.0), cfg);
            net.register("inproc://m1/Sink", thread_sink(&seen));
            let t0 = std::time::Instant::now();
            net.deliver_oneway("inproc://M1/Sink/", ping()).unwrap();
            assert!(t0.elapsed() >= at_least);
            assert_eq!(seen.lock().drain(..).collect::<Vec<_>>(), vec![me]);
            assert_eq!(net.metrics.snapshot().1, 1, "counted as a one-way");
            // `send_oneway` on the same network still defers to the pool.
            net.send_oneway("inproc://m1/Sink", ping()).unwrap();
            while seen.lock().is_empty() {
                std::thread::yield_now();
            }
            assert_ne!(seen.lock().drain(..).collect::<Vec<_>>(), vec![me]);
            assert_eq!(
                net.deliver_oneway("inproc://nowhere/X", ping()),
                Err(TransportError::NoRoute("inproc://nowhere/X".into()))
            );
        }
    }

    #[test]
    fn deliver_oneway_on_a_manual_clock_is_send_oneway() {
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let clock = Clock::manual();
        let net = InProcNetwork::with_config(clock.clone(), latency(Duration::from_millis(10)));
        net.register("inproc://m1/Sink", thread_sink(&seen));
        net.deliver_oneway("inproc://m1/Sink", ping()).unwrap();
        assert!(seen.lock().is_empty(), "virtual time is not slept");
        clock.advance(Duration::from_millis(10));
        assert_eq!(seen.lock().len(), 1);
        net.set_config(NetConfig::default());
        net.deliver_oneway("inproc://m1/Sink", ping()).unwrap();
        assert_eq!(seen.lock().len(), 2, "zero cost delivers inline");
    }

    #[test]
    fn deliver_oneway_late_binds_a_message_that_spent_time_on_the_wire() {
        use std::sync::atomic::AtomicUsize;
        // 300 virtual s = 300 real ms on the wire: room to rebind the
        // address after the sender has resolved and counted it.
        let net =
            InProcNetwork::with_config(Clock::scaled(1000.0), latency(Duration::from_secs(300)));
        let hits = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let counting = |i: usize| -> Arc<dyn Endpoint> {
            let hits = hits.clone();
            Arc::new(FnEndpoint::new("sink", move |_| {
                hits[i].fetch_add(1, Ordering::SeqCst);
                None
            }))
        };
        let in_flight = |n: u64| {
            while net.metrics.oneways.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
        };
        net.register("inproc://m1/Sink", counting(0));
        std::thread::scope(|s| {
            s.spawn(|| net.deliver_oneway("inproc://m1/Sink", ping()).unwrap());
            in_flight(1);
            net.register("inproc://m1/Sink", counting(1));
        });
        let seen = |i: usize| hits[i].load(Ordering::SeqCst);
        assert_eq!((seen(0), seen(1)), (0, 1), "rebound endpoint receives it");
        std::thread::scope(|s| {
            s.spawn(|| net.deliver_oneway("inproc://m1/Sink", ping()).unwrap());
            in_flight(2);
            net.unregister("inproc://m1/Sink");
        });
        assert_eq!((seen(0), seen(1)), (0, 1));
        assert_eq!(net.metrics.undeliverable.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn endpoint_returning_none_on_call_is_an_error() {
        let net = InProcNetwork::new(Clock::manual());
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("sink", |_| None)),
        );
        assert!(matches!(
            net.call("inproc://m1/Sink", ping()),
            Err(TransportError::NoResponse(_))
        ));
    }

    #[test]
    fn modeled_time_accumulates_in_metrics() {
        let clock = Clock::manual();
        let cfg = latency(Duration::from_millis(5));
        let net = InProcNetwork::with_config(clock, cfg);
        net.register("inproc://m1/Echo", echo());
        net.call("inproc://m1/Echo", ping()).unwrap();
        let (_, _, _, modeled) = net.metrics.snapshot();
        assert_eq!(modeled, Duration::from_millis(10), "request + response");
    }

    #[test]
    fn scaled_clock_call_experiences_latency() {
        let clock = Clock::scaled(1000.0); // 1 virtual ms = 1 real us
        let cfg = latency(Duration::from_secs(1)); // 1 virtual s = 1 real ms
        let net = InProcNetwork::with_config(clock, cfg);
        net.register("inproc://m1/Echo", echo());
        let t0 = std::time::Instant::now();
        net.call("inproc://m1/Echo", ping()).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(2),
            "two modeled seconds"
        );
    }
}
