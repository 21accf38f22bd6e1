//! The system under test, seen from outside.
//!
//! This is the **only** file of the benchmark that names repository
//! APIs; a later API move is a change to this file alone. Everything
//! here goes through public items. The pinned surface:
//!
//! * `uvacg`: `CampusGrid::build`, `GridConfig::{with_machines,with_obs}`,
//!   the address constants of `uvacg::grid`, `Client::{new,put_file,submit,listener}`,
//!   `JobSetHandle::{outcome,fetch_output}`, `JobSetSpec`/`JobSpec`/`FileRef`,
//!   `Scheduler::job_states`, the five service constructors
//!   (`notification_broker`, `node_info_service`, `file_system_service`,
//!   `execution_service`, `scheduler_service`), `nis::{register_machine,report_utilization}`
//! * `grid-node`: `Machine`, `MachineSpec`, `ProcSpawn`, `JobProgram`
//! * `simclock`: `Clock::{manual,realtime,advance,now}`
//! * `wsrf-transport`: `InProcNetwork::{with_metrics,register,unregister,addresses,call,send_oneway}`
//!   and its `metrics`, `Endpoint`, `FramedServer::start_with_metrics`,
//!   `FramedClient::{connect,call}`, `HttpSoapServer::start_with_metrics`, `http_call`
//! * `wsrf-core`: `ServiceBuilder`, `Service::{dispatch_wire,core}`, `ResourceStore`,
//!   `MemoryStore`, `DurableStore::open_with`, `PropertyDoc`, `wsrp_action`
//! * `ws-notification`: `subscribe`, `publish`,
//!   `NotificationListener::{register_counting,on_topic,drain,total}`,
//!   `NotificationMessage`, `TopicExpression`
//! * `wsrf-soap` / `wsrf-xml`: `Envelope::{new,parse,write_into,wire_len}`,
//!   `LazyEnvelope::scan`, `MessageInfo`, `EndpointReference`, `SoapFault`,
//!   `PullParser`, `parse`, `Element`, `QName`, `xpath::Path`, and the three
//!   budget counters `parse_event_count`, `dom_build_count`, `render_count`
//! * `wsrf-obs`: `MetricsRegistry::{enabled,new}`, `ObsConfig`

// Fault values are rich by design (see wsrf-core); not hot paths here.
#![allow(clippy::result_large_err)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grid_node::{JobProgram, Machine, ProcSpawn};
use simclock::Clock;
use uvacg::es::{execution_service, EsConfig};
use uvacg::fss::file_system_service;
use uvacg::grid::{BROKER_ADDRESS, NIS_ADDRESS, SCHEDULER_ADDRESS, SCHEDULER_LISTENER_ADDRESS};
use uvacg::nis::{self, node_info_service};
use uvacg::scheduler::{scheduler_service, SchedulerConfig};
use uvacg::{
    CampusGrid, Client, FastestAvailable, FileRef, GridConfig, JobSetHandle, JobSetOutcome,
    JobSetSpec, JobSpec, Scheduler,
};
use ws_notification::broker::{notification_broker, publish, subscribe};
use ws_notification::{NotificationListener, NotificationMessage, TopicExpression};
use wsrf_core::porttypes::{wsrp_action, XPATH_DIALECT};
use wsrf_core::store::StoreError;
use wsrf_core::{DurableStore, MemoryStore, PropertyDoc, ResourceStore, Service, ServiceBuilder};
use wsrf_obs::{MetricsRegistry, ObsConfig};
use wsrf_soap::{ns, EndpointReference, Envelope, LazyEnvelope, MessageInfo, SoapFault};
use wsrf_transport::http::{http_call, HttpSoapServer};
use wsrf_transport::tcpframe::{FramedClient, FramedServer};
use wsrf_transport::{Endpoint, InProcNetwork, NetConfig, TransportError};
use wsrf_xml::{Element, PullParser, QName};

use crate::trace::{Leaf, Tracer};

// ---------------------------------------------------------------------
// Budget counters
// ---------------------------------------------------------------------

/// The three process-wide budget counters, read together.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub parse_events: u64,
    pub dom_builds: u64,
    pub renders: u64,
}

impl Counters {
    pub fn read() -> Counters {
        Counters {
            parse_events: wsrf_xml::parse_event_count(),
            dom_builds: wsrf_xml::dom_build_count(),
            renders: wsrf_soap::render_count(),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            parse_events: self.parse_events - earlier.parse_events,
            dom_builds: self.dom_builds - earlier.dom_builds,
            renders: self.renders - earlier.renders,
        }
    }
}

// ---------------------------------------------------------------------
// Wire corpus captured from the workload
// ---------------------------------------------------------------------

/// A bounded sample of the messages a workload really exchanged, kept
/// so the replay rows time public functions on the workload's own
/// traffic rather than on invented documents.
pub struct Capture {
    seen: AtomicU64,
    inner: Mutex<CaptureInner>,
}

#[derive(Default)]
struct CaptureInner {
    requests: Vec<Envelope>,
    request_wires: Vec<String>,
    responses: Vec<Envelope>,
}

/// Keep every `STRIDE`-th exchange, up to `CAP` of them.
const CAPTURE_STRIDE: u64 = 7;
const CAPTURE_CAP: usize = 512;

impl Capture {
    pub fn new() -> Arc<Capture> {
        Arc::new(Capture {
            seen: AtomicU64::new(0),
            inner: Mutex::new(CaptureInner::default()),
        })
    }

    /// Decide once per exchange, so a request and its response are
    /// sampled together.
    fn sample(&self) -> bool {
        self.seen
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(CAPTURE_STRIDE)
    }

    fn with(&self, f: impl FnOnce(&mut CaptureInner)) {
        let mut inner = self.inner.lock().expect("capture poisoned");
        if inner.requests.len() + inner.request_wires.len() < CAPTURE_CAP {
            f(&mut inner);
        }
    }
}

// ---------------------------------------------------------------------
// Benchmark-owned wrappers around the public seams
// ---------------------------------------------------------------------

/// Records a span around every message an endpoint handles and feeds
/// the capture. Installed only in the traced pass.
struct Traced<E: Endpoint + ?Sized> {
    inner: Arc<E>,
    span: &'static str,
    tracer: Tracer,
    capture: Arc<Capture>,
}

impl<E: Endpoint + ?Sized> Endpoint for Traced<E> {
    fn handle(&self, env: Envelope) -> Option<Envelope> {
        let sampled = self.capture.sample();
        if sampled {
            self.capture.with(|c| c.requests.push(env.clone()));
        }
        let resp = {
            let _span = self.tracer.span(self.span);
            self.inner.handle(env)
        };
        if let (true, Some(r)) = (sampled, &resp) {
            self.capture.with(|c| c.responses.push(r.clone()));
        }
        resp
    }

    fn handle_wire(&self, wire: &str) -> Option<Envelope> {
        let sampled = self.capture.sample();
        if sampled {
            self.capture
                .with(|c| c.request_wires.push(wire.to_string()));
        }
        let resp = {
            let _span = self.tracer.span(self.span);
            self.inner.handle_wire(wire)
        };
        if let (true, Some(r)) = (sampled, &resp) {
            self.capture.with(|c| c.responses.push(r.clone()));
        }
        resp
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every store call as leaf time under the enclosing span and
/// counts documents loaded. Installed only in the traced pass.
struct TracedStore {
    inner: Arc<dyn ResourceStore>,
    name: &'static str,
    tracer: Tracer,
    /// Wrapped by another `TracedStore` (under a `DurableStore`): its
    /// time is already inside the outer one's, so it is only tallied.
    nested: bool,
}

impl TracedStore {
    fn timed<T>(&self, docs: impl FnOnce(&T) -> (u64, u64), f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let (docs, bytes) = docs(&out);
        let leaf = Leaf {
            calls: 1,
            docs,
            bytes,
            ns,
        };
        if self.nested {
            self.tracer.tally(self.name, leaf);
        } else {
            self.tracer.leaf(self.name, leaf);
        }
        out
    }
}

impl ResourceStore for TracedStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.timed(
            |_| (0, doc.approx_bytes() as u64),
            || self.inner.create(service, key, doc),
        )
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        self.timed(
            |r: &Result<PropertyDoc, StoreError>| (r.is_ok() as u64, 0),
            || self.inner.load(service, key),
        )
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.timed(
            |_| (0, doc.approx_bytes() as u64),
            || self.inner.save(service, key, doc),
        )
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        self.timed(|_| (0, 0), || self.inner.destroy(service, key))
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.timed(|_| (0, 0), || self.inner.exists(service, key))
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.timed(|_| (0, 0), || self.inner.list(service))
    }

    fn query(&self, service: &str, path: &wsrf_xml::xpath::Path) -> Vec<String> {
        self.timed(|_| (0, 0), || self.inner.query(service, path))
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// Socket traffic counters shared by every [`Bridge`] of one fixture.
#[derive(Default)]
pub struct TcpStats {
    pub exchanges: AtomicU64,
    pub connections: AtomicU64,
    pub errors: AtomicU64,
}

/// Registered at a service's `inproc://` address in place of the
/// service: forwards every message over loopback `soap.tcp` to the
/// [`FramedServer`] fronting the real endpoint. A pool, not one
/// connection, because dispatch re-enters services: a handler that
/// calls back into its caller needs a second connection while the
/// first is still waiting for its response.
///
/// One-way sends become exchanges too (the server answers an empty
/// frame), which keeps a manual-clock grid one synchronous chain.
struct Bridge {
    authority: String,
    idle: Mutex<Vec<FramedClient>>,
    stats: Arc<TcpStats>,
    tracer: Option<Tracer>,
}

impl Bridge {
    fn exchange(&self, env: &Envelope) -> Result<Envelope, TransportError> {
        let pooled = self.idle.lock().expect("bridge pool poisoned").pop();
        let client = match pooled {
            Some(c) => c,
            None => {
                self.stats.connections.fetch_add(1, Ordering::Relaxed);
                FramedClient::connect(&self.authority)?
            }
        };
        let result = {
            let _span = self.tracer.as_ref().map(|t| t.span_handoff(SPAN_TCP));
            client.call(env)
        };
        self.idle.lock().expect("bridge pool poisoned").push(client);
        result
    }
}

impl Endpoint for Bridge {
    fn handle(&self, env: Envelope) -> Option<Envelope> {
        self.stats.exchanges.fetch_add(1, Ordering::Relaxed);
        match self.exchange(&env) {
            Ok(resp) => Some(resp),
            Err(TransportError::NoResponse(_)) => None,
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                Some(SoapFault::server(format!("bridge to {}: {e}", self.authority)).to_envelope())
            }
        }
    }

    fn name(&self) -> &str {
        "bridge"
    }
}

// Span names. The report maps them to layers; they are listed here
// because the wrappers that open them live here.
pub const SPAN_TCP: &str = "transport.tcp";
pub const SPAN_HTTP: &str = "transport.http";
pub const SPAN_SCHEDULER: &str = "uvacg.scheduler";
pub const SPAN_SCHEDULER_LISTENER: &str = "uvacg.scheduler.listener";
pub const SPAN_ES: &str = "uvacg.es";
pub const SPAN_FSS: &str = "uvacg.fss";
pub const SPAN_NIS: &str = "uvacg.nis";
pub const SPAN_BROKER: &str = "notify.broker";
pub const SPAN_LISTENER: &str = "notify.listener";
pub const SPAN_SUBMIT: &str = "uvacg.client.submit";
pub const SPAN_POLL: &str = "uvacg.client.poll";
pub const SPAN_ADVANCE: &str = "simclock.advance";
pub const SPAN_PUBLISH: &str = "notify.publish";
pub const SPAN_RPC_SERVICE: &str = "core.service";

// ---------------------------------------------------------------------
// Deployment plumbing shared by the fixtures
// ---------------------------------------------------------------------

/// How a fixture's endpoints are reached and whether they are traced.
struct Wiring {
    net: Arc<InProcNetwork>,
    metrics: Arc<MetricsRegistry>,
    /// `Some` puts every endpoint behind a [`FramedServer`] + [`Bridge`].
    tcp: Option<Arc<TcpStats>>,
    tracer: Option<Tracer>,
    capture: Arc<Capture>,
    servers: Vec<FramedServer>,
}

impl Wiring {
    fn new(
        net: Arc<InProcNetwork>,
        metrics: Arc<MetricsRegistry>,
        bridged: bool,
        tracer: Option<Tracer>,
    ) -> Wiring {
        Wiring {
            net,
            metrics,
            tcp: bridged.then(Arc::default),
            tracer,
            capture: Capture::new(),
            servers: Vec::new(),
        }
    }

    /// An in-process network of its own on `clock`, with observability
    /// on as in a default `CampusGrid`.
    fn on_fresh_network(clock: Clock, bridged: bool, tracer: Option<Tracer>) -> Wiring {
        let metrics = MetricsRegistry::enabled();
        let net = InProcNetwork::with_metrics(clock, NetConfig::default(), &metrics);
        Wiring::new(net, metrics, bridged, tracer)
    }

    /// Calls + one-ways the in-process network has carried.
    fn messages(&self) -> u64 {
        let (calls, oneways, _, _) = self.net.metrics.snapshot();
        calls + oneways
    }

    /// A fresh resource store, traced when the pass is.
    fn store(&self, name: &'static str) -> Arc<dyn ResourceStore> {
        self.wrap_store(name, Arc::new(MemoryStore::new()), false)
    }

    fn wrap_store(
        &self,
        name: &'static str,
        inner: Arc<dyn ResourceStore>,
        nested: bool,
    ) -> Arc<dyn ResourceStore> {
        match &self.tracer {
            Some(tracer) => Arc::new(TracedStore {
                inner,
                name,
                tracer: tracer.clone(),
                nested,
            }),
            None => inner,
        }
    }

    fn traced(&self, endpoint: Arc<dyn Endpoint>, span: &'static str) -> Arc<dyn Endpoint> {
        match &self.tracer {
            Some(tracer) => Arc::new(Traced {
                inner: endpoint,
                span,
                tracer: tracer.clone(),
                capture: self.capture.clone(),
            }),
            None => endpoint,
        }
    }

    /// Make `endpoint` reachable at `address`: directly, or through a
    /// socket when the fixture is bridged.
    fn expose(&mut self, address: &str, endpoint: Arc<dyn Endpoint>, span: &'static str) {
        let endpoint = self.traced(endpoint, span);
        match &self.tcp {
            None => self.net.register(address, endpoint),
            Some(stats) => {
                let server = FramedServer::start_with_metrics(endpoint, &self.metrics)
                    .expect("bind loopback soap.tcp listener");
                self.net.register(
                    address,
                    Arc::new(Bridge {
                        authority: server.authority(),
                        idle: Mutex::new(Vec::new()),
                        stats: stats.clone(),
                        tracer: self.tracer.clone(),
                    }),
                );
                self.servers.push(server);
            }
        }
    }

    /// Drop every registration. Services hold the network and the
    /// network holds the services; clearing the registry breaks the
    /// cycle so a round's fixture — its history, its threads, its
    /// sockets — is really gone before the next round starts.
    fn teardown(&mut self) {
        for address in self.net.addresses() {
            self.net.unregister(&address);
        }
        self.servers.clear();
    }
}

// ---------------------------------------------------------------------
// Figure 3 fixture
// ---------------------------------------------------------------------

/// Which deployment a Figure 3 fixture runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deploy {
    /// `CampusGrid::build`, untouched.
    CampusGrid,
    /// The same services assembled from their public constructors on
    /// the in-process network (what the traced inproc pass wraps).
    Mirror,
    /// The mirror with every service and listener behind a loopback
    /// `soap.tcp` socket.
    MirrorTcp,
}

pub struct Fig3Options {
    pub deploy: Deploy,
    pub tracer: Option<Tracer>,
    /// `false` deploys with observability disabled (the `obs.cost` row).
    pub obs: bool,
}

/// One finished job set.
#[derive(Default)]
pub struct SetResult {
    pub completed: bool,
    /// Virtual time from submission to the `completed` notification.
    pub makespan_ns: u64,
    /// Messages the in-process network carried for this set.
    pub messages: u64,
    /// Socket exchanges this set took (0 unless bridged).
    pub exchanges: u64,
    /// The submitted set, for [`Fig3::fetch_output`]; `None` when the
    /// submission itself faulted.
    pub handle: Option<SetHandle>,
}

/// A submitted job set (opaque outside this file).
pub struct SetHandle(JobSetHandle);

pub struct Fig3 {
    clock: Clock,
    client: Client,
    scheduler: Scheduler,
    spec: JobSetSpec,
    completed_at_ns: Arc<AtomicU64>,
    wiring: Wiring,
    /// Keeps a `CampusGrid` deployment alive.
    _grid: Option<CampusGrid>,
    _machines: Vec<Arc<Machine>>,
}

const MACHINES: usize = 4;
const CLIENT_ID: &str = "bench-client";
const OUTPUT_BYTES: u64 = 1024;

impl Fig3 {
    pub fn deploy(opts: Fig3Options) -> Fig3 {
        let clock = Clock::manual();
        let obs = if opts.obs {
            ObsConfig::enabled()
        } else {
            ObsConfig::disabled()
        };
        let config = GridConfig::with_machines(MACHINES).with_obs(obs);
        let (wiring, scheduler, grid, machines) = match opts.deploy {
            Deploy::CampusGrid => {
                assert!(opts.tracer.is_none(), "CampusGrid::build cannot be wrapped");
                let grid = CampusGrid::build(config, clock.clone());
                let wiring = Wiring::new(grid.net.clone(), grid.metrics.clone(), false, None);
                let scheduler = grid.scheduler.clone();
                (wiring, scheduler, Some(grid), Vec::new())
            }
            Deploy::Mirror | Deploy::MirrorTcp => {
                let metrics = MetricsRegistry::new(obs);
                let net = InProcNetwork::with_metrics(clock.clone(), config.net.clone(), &metrics);
                let bridged = opts.deploy == Deploy::MirrorTcp;
                let mut wiring = Wiring::new(net, metrics, bridged, opts.tracer.clone());
                let (scheduler, machines) = mirror_campus_grid(&mut wiring, &config, &clock);
                (wiring, scheduler, None, machines)
            }
        };

        let client = Client::new(
            CLIENT_ID,
            wiring.net.clone(),
            clock.clone(),
            scheduler.epr(),
            None,
        );
        let mut fixture = Fig3 {
            clock,
            client,
            scheduler,
            spec: pipeline_spec(),
            completed_at_ns: Arc::new(AtomicU64::new(0)),
            wiring,
            _grid: grid,
            _machines: machines,
        };
        fixture.wire_client();
        fixture
    }

    /// The client's own endpoints. Its listener goes behind a socket
    /// like every other listener; its file server is a private type the
    /// client registers itself, so it stays on the in-process path.
    fn wire_client(&mut self) {
        let listener = self.client.listener().clone();
        // Virtual completion time, noted as the notification arrives.
        let at = self.completed_at_ns.clone();
        let clock = self.clock.clone();
        listener.on_topic(TopicExpression::full("*/completed"), move |_| {
            at.store(clock.now().as_nanos(), Ordering::SeqCst);
        });
        if self.wiring.tcp.is_some() || self.wiring.tracer.is_some() {
            let address = listener.epr().address;
            self.wiring
                .expose(&address, Arc::new(listener), SPAN_LISTENER);
        }
        self.client.put_file(
            STAGE1_EXE,
            JobProgram::compute(1.0)
                .writing("out.dat", OUTPUT_BYTES)
                .to_manifest(),
        );
        self.client.put_file(
            STAGE2_EXE,
            JobProgram::compute(1.0)
                .reading("in.dat")
                .writing("out.dat", OUTPUT_BYTES)
                .to_manifest(),
        );
    }

    /// Run one Figure 3 job set: submit, advance virtual time until the
    /// set is done, read the outcome, drain the listener.
    pub fn run_set(&self) -> SetResult {
        let tracer = self.wiring.tracer.as_ref();
        let messages_before = self.messages();
        let exchanges_before = self.exchanges();
        let submitted_at = self.clock.now().as_nanos();
        self.completed_at_ns.store(0, Ordering::SeqCst);

        let handle = {
            let _span = tracer.map(|t| t.span(SPAN_SUBMIT));
            self.client.submit(&self.spec, "griduser", "gridpass")
        };
        let Ok(handle) = handle else {
            return SetResult::default();
        };
        {
            // Two 1 cpu-s jobs back to back finish well inside this
            // window on any machine of the grid; virtual time is free.
            let _span = tracer.map(|t| t.span(SPAN_ADVANCE));
            self.clock.advance(Duration::from_secs(10));
        }
        let completed = {
            let _span = tracer.map(|t| t.span(SPAN_POLL));
            let outcome = handle.outcome();
            // `outcome` clones the listener's whole history; without
            // this drain that client artefact dominates every set.
            self.client.listener().drain();
            outcome == Some(JobSetOutcome::Completed)
        };
        SetResult {
            completed,
            makespan_ns: self
                .completed_at_ns
                .load(Ordering::SeqCst)
                .saturating_sub(submitted_at),
            messages: self.messages() - messages_before,
            exchanges: self.exchanges() - exchanges_before,
            handle: Some(SetHandle(handle)),
        }
    }

    /// Read job2's `out.dat` back through its directory EPR; its size.
    pub fn fetch_output(&self, set: &SetHandle) -> usize {
        set.0
            .fetch_output("job2", "out.dat")
            .map_or(0, |bytes| bytes.len())
    }

    fn exchanges(&self) -> u64 {
        self.wiring
            .tcp
            .as_ref()
            .map_or(0, |s| s.exchanges.load(Ordering::Relaxed))
    }

    /// Calls + one-ways the in-process network has carried.
    pub fn messages(&self) -> u64 {
        self.wiring.messages()
    }

    /// Bytes the in-process network has sized (`wire_len`) so far.
    pub fn wire_bytes(&self) -> u64 {
        self.wiring.net.metrics.snapshot().2
    }

    pub fn tcp_stats(&self) -> Option<&Arc<TcpStats>> {
        self.wiring.tcp.as_ref()
    }

    pub fn capture(&self) -> &Arc<Capture> {
        &self.wiring.capture
    }

    /// Final per-job states of the fixture's `set_index`-th job set, as
    /// the scheduler reports them.
    pub fn last_job_states(&self, set_index: u64) -> Vec<(String, String, Option<i32>)> {
        // The scheduler numbers its job-set resources from 1.
        self.scheduler
            .job_states(&format!("scheduler-{}", set_index + 1))
            .unwrap_or_default()
    }

    pub fn teardown(mut self) {
        self.wiring.teardown();
    }
}

const STAGE1_EXE: &str = "C:\\stage1.exe";
const STAGE2_EXE: &str = "C:\\stage2.exe";

/// The Figure 3 two-job pipeline: job2 consumes job1's output.
fn pipeline_spec() -> JobSetSpec {
    let exe = |path: &str| FileRef::parse(&format!("local://{path}")).expect("valid file ref");
    JobSetSpec::new("fig3")
        .job(JobSpec::new("job1", exe(STAGE1_EXE)).output("out.dat"))
        .job(
            JobSpec::new("job2", exe(STAGE2_EXE))
                .input(
                    FileRef::parse("job1://out.dat").expect("valid file ref"),
                    "in.dat",
                )
                .output("out.dat"),
        )
}

/// `CampusGrid::build`, reassembled from the public constructors so
/// each endpoint and store can be wrapped or put behind a socket. The
/// monitor service and event pump are left out: no job set touches
/// them. `bench selftest` holds this equal to the original.
fn mirror_campus_grid(
    wiring: &mut Wiring,
    config: &GridConfig,
    clock: &Clock,
) -> (Scheduler, Vec<Arc<Machine>>) {
    let net = wiring.net.clone();

    let broker_svc = notification_broker(
        "Broker",
        BROKER_ADDRESS,
        wiring.store("broker"),
        clock.clone(),
        net.clone(),
    );
    let broker = broker_svc.core().service_epr();
    wiring.expose(BROKER_ADDRESS, broker_svc, SPAN_BROKER);

    let nis_svc = node_info_service(NIS_ADDRESS, wiring.store("nis"), clock.clone(), net.clone());
    wiring.expose(NIS_ADDRESS, nis_svc, SPAN_NIS);

    let mut machines = Vec::new();
    for spec in &config.machines {
        let machine = Machine::new(spec.clone(), clock.clone());
        let name = &spec.name;
        let fss_address = format!("inproc://{name}/FileSystem");
        let es_address = format!("inproc://{name}/Execution");

        let fss = file_system_service(
            name,
            machine.fs.clone(),
            wiring.store("fss"),
            clock.clone(),
            net.clone(),
        );
        wiring.expose(&fss_address, fss, SPAN_FSS);

        let es = execution_service(
            EsConfig {
                machine: machine.clone(),
                spawner: Arc::new(ProcSpawn::new(machine.clone())),
                fss_address: fss_address.clone(),
                broker: Some(broker.clone()),
                security: None,
                store: wiring.store("es"),
            },
            clock.clone(),
            net.clone(),
        );
        wiring.expose(&es_address, es, SPAN_ES);

        nis::register_machine(
            &net,
            NIS_ADDRESS,
            name,
            spec.cpu_mhz,
            spec.cores,
            spec.ram_mb,
            &es_address,
            &fss_address,
        )
        .expect("NIS registration cannot fail on a fresh grid");

        let net_for_monitor = net.clone();
        let machine_name = name.clone();
        machine.monitor_utilization(config.utilization_delta, move |u| {
            let _ = nis::report_utilization(&net_for_monitor, NIS_ADDRESS, &machine_name, u);
        });
        machines.push(machine);
    }

    let scheduler = scheduler_service(
        SCHEDULER_ADDRESS,
        SchedulerConfig {
            nis_address: NIS_ADDRESS.to_string(),
            broker,
            policy: Arc::new(FastestAvailable),
            security: None,
            store: wiring.store("scheduler"),
            listener_address: SCHEDULER_LISTENER_ADDRESS.to_string(),
            job_timeout: None,
            replicate: false,
        },
        clock.clone(),
        net,
    );
    wiring.expose(SCHEDULER_ADDRESS, scheduler.service.clone(), SPAN_SCHEDULER);
    // `scheduler_service` registered the listener itself; re-expose it
    // so it, too, is traced or bridged.
    wiring.expose(
        SCHEDULER_LISTENER_ADDRESS,
        Arc::new(scheduler.listener.clone()),
        SPAN_SCHEDULER_LISTENER,
    );
    (scheduler, machines)
}

// ---------------------------------------------------------------------
// RPC fixture: one service, 1000 resources × 12 properties
// ---------------------------------------------------------------------

pub const RPC_KEYS: usize = 1000;
pub const RPC_PROPS: usize = 12;
const LEDGER: &str = "Ledger";
const LEDGER_ADDRESS: &str = "inproc://bench/Ledger";

/// How clients reach the RPC service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcTransport {
    /// Persistent `soap.tcp` connection per client.
    Tcp,
    /// HTTP, one connection per call.
    Http,
}

/// One WS-ResourceProperties read.
#[derive(Clone, Debug)]
pub enum ReadOp {
    Get { key: usize, prop: usize },
    GetMultiple { key: usize, props: [usize; 3] },
    Query { key: usize, prop: usize },
}

enum RpcServer {
    Tcp(FramedServer),
    Http(HttpSoapServer),
}

pub struct RpcFixture {
    service: Arc<Service>,
    server: RpcServer,
    eprs: Arc<Vec<EndpointReference>>,
    wal: Option<Wal>,
    wiring: Wiring,
}

struct Wal {
    dir: PathBuf,
    registry: Arc<MetricsRegistry>,
}

fn prop_name(prop: usize) -> QName {
    QName::new(ns::UVACG, format!("P{prop:02}"))
}

fn key_name(key: usize) -> String {
    format!("r{key:04}")
}

/// The value property `prop` of resource `key` holds after `version`
/// writes (0 = as populated). Reads are checked against it.
pub fn rpc_value(key: usize, prop: usize, version: u64) -> String {
    format!("k{key}-p{prop}-v{version}")
}

pub const STORE_RPC: &str = "rpc";
pub const STORE_RPC_INNER: &str = "rpc.inner";

impl RpcFixture {
    /// Deploy and populate. `wal_dir` puts the resources in a
    /// `DurableStore` over that (fresh) directory.
    pub fn deploy(
        transport: RpcTransport,
        wal_dir: Option<&Path>,
        tracer: Option<Tracer>,
    ) -> RpcFixture {
        let clock = Clock::manual();
        let wiring = Wiring::on_fresh_network(clock.clone(), false, tracer);
        let metrics = wiring.metrics.clone();
        let memory: Arc<dyn ResourceStore> = Arc::new(MemoryStore::new());
        let (store, wal) = match wal_dir {
            None => (wiring.wrap_store(STORE_RPC, memory, false), None),
            Some(dir) => {
                // durable(traced) over inner(traced): the difference of
                // their save times is the WAL append.
                let inner = wiring.wrap_store(STORE_RPC_INNER, memory, true);
                let durable = DurableStore::open_with(dir, inner, Some(&metrics))
                    .expect("open WAL directory");
                let wal = Wal {
                    dir: dir.to_path_buf(),
                    registry: metrics.clone(),
                };
                (
                    wiring.wrap_store(STORE_RPC, Arc::new(durable), false),
                    Some(wal),
                )
            }
        };
        let service = ServiceBuilder::new(LEDGER, LEDGER_ADDRESS, store)
            .with_metrics(metrics.clone())
            .build(clock, wiring.net.clone());
        let mut eprs = Vec::with_capacity(RPC_KEYS);
        for key in 0..RPC_KEYS {
            let mut doc = PropertyDoc::new();
            for prop in 0..RPC_PROPS {
                doc.set_text(prop_name(prop), rpc_value(key, prop, 0));
            }
            let epr = service
                .core()
                .create_resource_with_key(&key_name(key), doc)
                .expect("fresh store accepts every key");
            eprs.push(epr);
        }
        let endpoint = wiring.traced(service.clone(), SPAN_RPC_SERVICE);
        let server = match transport {
            RpcTransport::Tcp => RpcServer::Tcp(
                FramedServer::start_with_metrics(endpoint, &metrics)
                    .expect("bind loopback soap.tcp listener"),
            ),
            RpcTransport::Http => RpcServer::Http(
                HttpSoapServer::start_with_metrics(endpoint, &metrics)
                    .expect("bind loopback http listener"),
            ),
        };
        RpcFixture {
            service,
            server,
            eprs: Arc::new(eprs),
            wal,
            wiring,
        }
    }

    /// A client of its own: a persistent connection on `soap.tcp`, the
    /// authority to dial per call on HTTP.
    pub fn connect(&self) -> RpcClient {
        let conn = match &self.server {
            RpcServer::Tcp(s) => RpcConn::Tcp(
                FramedClient::connect(&s.authority()).expect("connect to loopback listener"),
            ),
            RpcServer::Http(s) => RpcConn::Http(s.authority()),
        };
        RpcClient {
            conn,
            eprs: self.eprs.clone(),
            tracer: self.wiring.tracer.clone(),
        }
    }

    pub fn capture(&self) -> &Arc<Capture> {
        &self.wiring.capture
    }

    /// Bytes appended to the WAL so far (0 without one).
    pub fn wal_bytes(&self) -> u64 {
        self.wal
            .as_ref()
            .map_or(0, |w| w.registry.counter("store.wal.bytes").get())
    }

    /// Reopen the WAL directory into a fresh store, as a restarted
    /// process would, and compare every expected property with what
    /// replay restored. Returns (mismatches, records replayed, seconds).
    pub fn verify_wal_replay(&self, expected: &[Vec<u64>]) -> (u64, u64, f64) {
        let wal = self.wal.as_ref().expect("fixture has a WAL");
        let registry = MetricsRegistry::enabled();
        let t0 = Instant::now();
        let reopened =
            DurableStore::open_with(&wal.dir, Arc::new(MemoryStore::new()), Some(&registry))
                .expect("reopen WAL directory");
        let seconds = t0.elapsed().as_secs_f64();
        let records = registry.counter("recovery.records").get();
        let mut mismatches = 0;
        for (key, versions) in expected.iter().enumerate() {
            match reopened.load(LEDGER, &key_name(key)) {
                Ok(doc) => {
                    for (prop, version) in versions.iter().enumerate() {
                        if doc.text(&prop_name(prop)) != Some(rpc_value(key, prop, *version)) {
                            mismatches += 1;
                        }
                    }
                }
                Err(_) => mismatches += versions.len() as u64,
            }
        }
        (mismatches, records, seconds)
    }

    pub fn teardown(mut self) {
        self.wiring.teardown();
    }
}

enum RpcConn {
    Tcp(FramedClient),
    Http(String),
}

pub struct RpcClient {
    conn: RpcConn,
    eprs: Arc<Vec<EndpointReference>>,
    tracer: Option<Tracer>,
}

pub const SPAN_CLIENT_STUB: &str = "soap.client";

/// A WS-ResourceProperties request addressed to one resource.
fn wsrp_request(to: &EndpointReference, action: &str, body: Element) -> Envelope {
    let mut env = Envelope::new(body);
    MessageInfo::request(to.clone(), wsrp_action(action)).apply(&mut env);
    env
}

fn get_property_body(prop: usize) -> Element {
    Element::new(ns::WSRP, "GetResourceProperty").text(prop_name(prop).to_string())
}

fn update_property_body(key: usize, prop: usize, version: u64) -> Element {
    Element::new(ns::WSRP, "SetResourceProperties").child(
        Element::new(ns::WSRP, "Update")
            .child(Element::with_name(prop_name(prop)).text(rpc_value(key, prop, version))),
    )
}

impl RpcClient {
    fn call(&self, key: usize, action: &str, body: Element) -> Result<Envelope, String> {
        let env = wsrp_request(&self.eprs[key], action, body);
        let resp = match &self.conn {
            RpcConn::Tcp(client) => {
                let _span = self.tracer.as_ref().map(|t| t.span_handoff(SPAN_TCP));
                client.call(&env)
            }
            RpcConn::Http(authority) => {
                let _span = self.tracer.as_ref().map(|t| t.span_handoff(SPAN_HTTP));
                http_call(authority, LEDGER, &env)
            }
        }
        .map_err(|e| e.to_string())?;
        match resp.fault() {
            Some(f) => Err(format!("fault: {f}")),
            None => Ok(resp),
        }
    }

    /// Issue one read and check the value that came back against what
    /// the resource holds (`version_of(key, prop)` writes so far).
    pub fn read(
        &self,
        op: &ReadOp,
        version_of: impl Fn(usize, usize) -> u64,
    ) -> Result<(), String> {
        let _span = self.tracer.as_ref().map(|t| t.span(SPAN_CLIENT_STUB));
        let (key, got, want) = match op {
            ReadOp::Get { key, prop } => {
                let resp = self.call(*key, "GetResourceProperty", get_property_body(*prop))?;
                let want = rpc_value(*key, *prop, version_of(*key, *prop));
                (*key, resp.body.text_content(), want)
            }
            ReadOp::GetMultiple { key, props } => {
                let body = Element::new(ns::WSRP, "GetMultipleResourceProperties").children(
                    props.iter().map(|p| {
                        Element::new(ns::WSRP, "ResourceProperty").text(prop_name(*p).to_string())
                    }),
                );
                let resp = self.call(*key, "GetMultipleResourceProperties", body)?;
                let want: String = props
                    .iter()
                    .map(|p| rpc_value(*key, *p, version_of(*key, *p)))
                    .collect();
                (*key, resp.body.text_content(), want)
            }
            ReadOp::Query { key, prop } => {
                let body = Element::new(ns::WSRP, "QueryResourceProperties").child(
                    Element::new(ns::WSRP, "QueryExpression")
                        .attr("Dialect", XPATH_DIALECT)
                        .text(format!("/ResourcePropertyDocument/P{prop:02}")),
                );
                let resp = self.call(*key, "QueryResourceProperties", body)?;
                let want = rpc_value(*key, *prop, version_of(*key, *prop));
                (*key, resp.body.text_content(), want)
            }
        };
        if got == want {
            Ok(())
        } else {
            Err(format!("key {key}: read '{got}', expected '{want}'"))
        }
    }

    /// One `SetResourceProperties` Update of a single property.
    pub fn write(&self, key: usize, prop: usize, version: u64) -> Result<(), String> {
        let _span = self.tracer.as_ref().map(|t| t.span(SPAN_CLIENT_STUB));
        let body = update_property_body(key, prop, version);
        self.call(key, "SetResourceProperties", body).map(|_| ())
    }
}

/// `core.dispatch_wire_us.{read,write}`: `Service::dispatch_wire`
/// called directly — no socket, no client — on request wires rendered
/// by the same builders the RPC workloads use, against a freshly
/// populated in-memory ledger. Returns mean µs per dispatch.
pub fn dispatch_wire_rows(budget: Duration) -> (f64, f64) {
    let fixture = RpcFixture::deploy(RpcTransport::Tcp, None, None);
    let wire = |key: usize, action: &str, body: Element| {
        let mut out = String::new();
        wsrp_request(&fixture.eprs[key], action, body).write_into(&mut out);
        out
    };
    let spread = |i: usize| (i * 13 % RPC_KEYS, i % RPC_PROPS);
    let reads: Vec<String> = (0..64)
        .map(|i| {
            let (key, prop) = spread(i);
            wire(key, "GetResourceProperty", get_property_body(prop))
        })
        .collect();
    let writes: Vec<String> = (0..64)
        .map(|i| {
            let (key, prop) = spread(i);
            wire(
                key,
                "SetResourceProperties",
                update_property_body(key, prop, 1),
            )
        })
        .collect();
    let service = fixture.service.clone();
    let time = |wires: &[String]| {
        per_item_ns(budget / 2, wires.len(), || {
            for w in wires {
                let resp = service.dispatch_wire(w);
                assert!(!resp.is_fault(), "replayed dispatch faulted");
            }
        }) / 1e3
    };
    let rows = (time(&reads), time(&writes));
    fixture.teardown();
    rows
}

// ---------------------------------------------------------------------
// Notification fixture: broker + counting listeners on the real clock
// ---------------------------------------------------------------------

pub struct NotifyFixture {
    broker: EndpointReference,
    listeners: Vec<NotificationListener>,
    roots: usize,
    wiring: Wiring,
}

/// Called on the delivering thread with (listener index, publish seq).
pub type OnDelivery = Arc<dyn Fn(usize, u64) + Send + Sync>;

impl NotifyFixture {
    /// `listeners` counting listeners spread evenly over `roots` topic
    /// roots (fan-out = listeners / roots), each subscribed through the
    /// broker to everything under its root.
    pub fn deploy(
        listeners: usize,
        roots: usize,
        tracer: Option<Tracer>,
        on_delivery: OnDelivery,
    ) -> NotifyFixture {
        // The production delivery path — per-consumer queues drained by
        // the worker pool — only runs off the manual clock.
        let clock = Clock::realtime();
        let mut wiring = Wiring::on_fresh_network(clock.clone(), false, tracer);
        let net = wiring.net.clone();
        let broker_svc = notification_broker(
            "Broker",
            BROKER_ADDRESS,
            wiring.store("broker"),
            clock,
            net.clone(),
        );
        let broker = broker_svc.core().service_epr();
        wiring.expose(BROKER_ADDRESS, broker_svc, SPAN_BROKER);

        let listeners: Vec<NotificationListener> = (0..listeners)
            .map(|i| {
                let address = format!("inproc://c{i}/l");
                let listener = NotificationListener::register_counting(&net, &address);
                let under_root = TopicExpression::full(&format!("r{}//", i % roots));
                subscribe(&net, &broker, &listener.epr(), &under_root, None)
                    .expect("broker accepts the subscription");
                let cb = on_delivery.clone();
                listener.on_topic(under_root, move |msg| {
                    if let Ok(seq) = msg.payload.text_content().parse::<u64>() {
                        cb(i, seq);
                    }
                });
                if wiring.tracer.is_some() {
                    wiring.expose(&address, Arc::new(listener.clone()), SPAN_LISTENER);
                }
                listener
            })
            .collect();
        NotifyFixture {
            broker,
            listeners,
            roots,
            wiring,
        }
    }

    /// Publish message `seq` on a topic under root `root` (one-way).
    pub fn publish(&self, root: usize, seq: u64) -> Result<(), String> {
        let _span = self.wiring.tracer.as_ref().map(|t| t.span(SPAN_PUBLISH));
        let msg = NotificationMessage::new(
            format!("r{root}/evt").as_str(),
            Element::local("E").text(seq.to_string()),
        );
        publish(&self.wiring.net, &self.broker, &msg).map_err(|e| e.to_string())
    }

    /// Calls + one-ways the in-process network has carried.
    pub fn messages(&self) -> u64 {
        self.wiring.messages()
    }

    /// Lifetime delivery count per listener.
    pub fn delivered(&self) -> Vec<u64> {
        self.listeners.iter().map(|l| l.total() as u64).collect()
    }

    pub fn roots(&self) -> usize {
        self.roots
    }

    pub fn capture(&self) -> &Arc<Capture> {
        &self.wiring.capture
    }

    pub fn teardown(mut self) {
        // A delivery worker still unwinding from its last drain holds a
        // reference to the broker's delivery fabric; if that became the
        // last one the fabric's pool would be dropped on its own worker
        // and try to join itself. Let the workers park first.
        std::thread::sleep(Duration::from_millis(5));
        self.wiring.teardown();
    }
}

// ---------------------------------------------------------------------
// Replay rows: public functions timed on the captured corpus
// ---------------------------------------------------------------------

/// Per-layer costs of the wire path, measured by calling public
/// functions on messages captured from the workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayRows {
    pub scan_ns_per_kb: f64,
    pub dom_build_ns_per_kb: f64,
    pub render_ns_per_kb: f64,
    pub lazy_scan_us_per_msg: f64,
    pub envelope_parse_us_per_msg: f64,
    pub write_into_us_per_msg: f64,
    pub wire_len_us_per_msg: f64,
    pub inproc_call_us_per_msg: f64,
}

/// Run `pass` (which handles `items` items) repeatedly for about
/// `budget`, at least three times; mean nanoseconds per item.
fn per_item_ns(budget: Duration, items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || t0.elapsed() < budget {
        pass();
        passes += 1;
    }
    t0.elapsed().as_nanos() as f64 / (passes as f64 * items as f64)
}

pub fn replay_rows(capture: &Capture, budget_per_row: Duration) -> ReplayRows {
    let (requests, responses, request_wires) = {
        let inner = capture.inner.lock().expect("capture poisoned");
        let render = |e: &Envelope| {
            let mut s = String::new();
            e.write_into(&mut s);
            s
        };
        // Requests reach the corpus as wires (socket fixtures) or as
        // envelopes (in-process fixtures); bring both to both forms.
        let mut wires = inner.request_wires.clone();
        wires.extend(inner.requests.iter().map(render));
        let mut requests = inner.requests.clone();
        requests.extend(
            inner
                .request_wires
                .iter()
                .filter_map(|w| Envelope::parse(w).ok()),
        );
        (requests, inner.responses.clone(), wires)
    };
    let all: Vec<&Envelope> = requests.iter().chain(&responses).collect();
    if all.is_empty() {
        return ReplayRows::default();
    }
    let all_wires: Vec<String> = all
        .iter()
        .map(|e| {
            let mut s = String::new();
            e.write_into(&mut s);
            s
        })
        .collect();
    let response_wires = &all_wires[requests.len()..];
    let kb = all_wires.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let per_kb = |ns_per_msg: f64| ns_per_msg * all.len() as f64 / kb;
    let b = budget_per_row;

    let scan = per_item_ns(b, all_wires.len(), || {
        for w in &all_wires {
            let mut p = PullParser::new(w);
            while let Ok(Some(ev)) = p.next_event() {
                std::hint::black_box(&ev);
            }
        }
    });
    let dom = per_item_ns(b, all_wires.len(), || {
        for w in &all_wires {
            std::hint::black_box(wsrf_xml::parse(w).ok());
        }
    });
    let trees: Vec<Element> = all_wires
        .iter()
        .filter_map(|w| wsrf_xml::parse(w).ok())
        .collect();
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let render = per_item_ns(b, trees.len(), || {
        for t in &trees {
            buf.clear();
            t.write_document_into(&mut buf);
            std::hint::black_box(&buf);
        }
    });
    let lazy = per_item_ns(b, request_wires.len(), || {
        for w in &request_wires {
            std::hint::black_box(LazyEnvelope::scan(w).is_ok());
        }
    });
    let parse = per_item_ns(b, response_wires.len(), || {
        for w in response_wires {
            std::hint::black_box(Envelope::parse(w).ok());
        }
    });
    let write_into = per_item_ns(b, all.len(), || {
        for e in &all {
            buf.clear();
            e.write_into(&mut buf);
            std::hint::black_box(&buf);
        }
    });
    let wire_len = per_item_ns(b, all.len(), || {
        for e in &all {
            std::hint::black_box(e.wire_len());
        }
    });

    ReplayRows {
        scan_ns_per_kb: per_kb(scan),
        dom_build_ns_per_kb: per_kb(dom),
        render_ns_per_kb: per_kb(render),
        lazy_scan_us_per_msg: lazy / 1e3,
        envelope_parse_us_per_msg: parse / 1e3,
        write_into_us_per_msg: write_into / 1e3,
        wire_len_us_per_msg: wire_len / 1e3,
        inproc_call_us_per_msg: inproc_call_us(&requests, &responses, b),
    }
}

/// `InProcNetwork::call` to an endpoint that does nothing, on captured
/// request/response pairs: lookup + sizing both ways + accounting.
fn inproc_call_us(requests: &[Envelope], responses: &[Envelope], budget: Duration) -> f64 {
    struct Canned(Mutex<Vec<Envelope>>);
    impl Endpoint for Canned {
        fn handle(&self, _env: Envelope) -> Option<Envelope> {
            self.0.lock().expect("canned responses poisoned").pop()
        }
    }
    let n = requests.len().min(responses.len());
    if n == 0 {
        return 0.0;
    }
    let net = InProcNetwork::with_metrics(
        Clock::manual(),
        NetConfig::default(),
        &MetricsRegistry::enabled(),
    );
    let canned = Arc::new(Canned(Mutex::new(Vec::new())));
    net.register("inproc://replay/Sink", canned.clone());
    let t0 = Instant::now();
    let (mut spent, mut calls) = (Duration::ZERO, 0u64);
    while calls < 3 * n as u64 || t0.elapsed() < budget {
        // Cloning the inputs is set-up, not the call: keep it untimed.
        let batch: Vec<Envelope> = requests[..n].to_vec();
        *canned.0.lock().expect("canned responses poisoned") = responses[..n].to_vec();
        let t = Instant::now();
        for env in batch {
            std::hint::black_box(net.call("inproc://replay/Sink", env).is_ok());
        }
        spent += t.elapsed();
        calls += n as u64;
    }
    net.unregister("inproc://replay/Sink");
    spent.as_nanos() as f64 / calls as f64 / 1e3
}

// ---------------------------------------------------------------------
// Selftest probe
// ---------------------------------------------------------------------

/// An endpoint behind a [`Bridge`] whose handler calls back into its
/// own address `depth` more times before answering. With one pooled
/// connection this would wait on itself forever; returns the number of
/// connections the pool grew to.
pub fn bridge_reentrancy_probe(depth: usize) -> Result<u64, String> {
    const ADDRESS: &str = "inproc://probe/Reenter";
    struct Reenter(Arc<InProcNetwork>);
    impl Endpoint for Reenter {
        fn handle(&self, env: Envelope) -> Option<Envelope> {
            let left: usize = env.body.text_content().parse().unwrap_or(0);
            if left == 0 {
                return Some(Envelope::new(Element::local("Bottom")));
            }
            let inner = Envelope::new(Element::local("Reenter").text((left - 1).to_string()));
            self.0.call(ADDRESS, inner).ok()
        }
    }
    let mut wiring = Wiring::on_fresh_network(Clock::manual(), true, None);
    let net = wiring.net.clone();
    wiring.expose(ADDRESS, Arc::new(Reenter(net.clone())), "probe");
    let request = Envelope::new(Element::local("Reenter").text(depth.to_string()));
    let answer = net.call(ADDRESS, request).map_err(|e| e.to_string());
    let connections = wiring
        .tcp
        .as_ref()
        .map_or(0, |s| s.connections.load(Ordering::Relaxed));
    wiring.teardown();
    match answer {
        Ok(env) if env.body.name.local == "Bottom" => Ok(connections),
        Ok(env) => Err(format!("unexpected answer <{}>", env.body.name.local)),
        Err(e) => Err(e),
    }
}
