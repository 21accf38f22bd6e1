//! The service container: the Figure 1 dispatch pipeline.
//!
//! WSRF.NET wraps an author's web service in a generated "wrapper"
//! service; on each invocation the wrapper (1) reads the
//! EndpointReference in the SOAP headers, (2) resolves the named
//! WS-Resource by loading its state values from the database, (3)
//! invokes either an author-written operation or a standard WSRF port
//! type, (4) saves any changed state back, and (5) serializes the
//! result. [`Service::handle`] is that pipeline; [`ServiceBuilder`] is
//! the analogue of the `[Resource]` / `[ResourceProperty]` /
//! `[WSRFPortType]` attribute programming model of Figure 2.

use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use simclock::{Clock, SimTime, TimerId};
use wsrf_obs::{
    Counter, EventKind, EventLog, Histogram, MetricsRegistry, Severity, SloHandle, SpanContext,
    Timer, Tracer,
};
use wsrf_soap::{
    ns, BaseFault, EndpointReference, Envelope, LazyEnvelope, MessageInfo, ScanError, SoapFault,
    TraceContext,
};
use wsrf_transport::{Endpoint, InProcNetwork};
use wsrf_xml::{Element, QName};

use crate::faults;
use crate::properties::PropertyDoc;
use crate::store::{ResourceStore, StoreError};

/// A computed (derived) resource property — the analogue of a C#
/// property getter marked `[ResourceProperty]` in Figure 2. It is
/// evaluated on demand against the stored state and merged into the
/// property views returned by the standard port types.
pub type ComputedProperty = Box<dyn Fn(&PropertyDoc, SimTime) -> Vec<Element> + Send + Sync>;

/// Handler for one operation. Receives an invocation context and
/// returns the response body element (or a fault).
pub type OpHandler = Box<dyn Fn(&mut Ctx<'_>) -> Result<Element, BaseFault> + Send + Sync>;

/// How an operation relates to resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Requires a resource key; state is loaded before and saved after.
    Resource,
    /// Service-level operation (factories, group queries); no resource
    /// is loaded, but the handler may create/destroy resources itself.
    Static,
}

/// How an operation touches resource state. `Read` ops take a shared
/// lease, may not mutate the document, and skip the save stage
/// entirely; `Write` ops take an exclusive lease and run the full
/// load→invoke→save pipeline.
/// Author operations default to `Write` (safe for arbitrary handlers);
/// [`ServiceBuilder::read_operation`] opts a handler into `Read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpAccess {
    /// Observes resource state only — [`Ctx::resource_mut`] faults —
    /// so many readers may run concurrently.
    Read,
    /// May mutate resource state; serialized per resource.
    Write,
}

/// One dispatchable operation (visible to the port-type installers).
pub(crate) struct Op {
    kind: OpKind,
    access: OpAccess,
    /// Interned `dispatch.{op}` span name, so traced dispatches never
    /// format or allocate a name per call.
    span_name: Arc<str>,
    handler: OpHandler,
}

/// Number of lease stripes per service (power of two). Distinct keys
/// may share a stripe — that costs spurious contention, never safety.
const LEASE_STRIPES: usize = 64;

/// A held lease (either mode); released on drop after the save stage.
enum LeaseGuard<'a> {
    Shared(#[allow(dead_code)] RwLockReadGuard<'a, ()>),
    Exclusive(#[allow(dead_code)] RwLockWriteGuard<'a, ()>),
}

/// Shared, long-lived half of a service: everything handlers need to
/// mint EPRs, create resources, schedule lifetimes and talk to the
/// network. Cheaply cloneable via `Arc`.
pub struct ServiceCore {
    /// Service name (also the store's table name).
    pub name: String,
    /// Full address, e.g. `inproc://machine01/ExecutionService`.
    pub address: String,
    /// The grid clock.
    pub clock: Clock,
    /// The simulated network (for outgoing calls/notifications).
    pub net: Arc<InProcNetwork>,
    /// Resource state backend.
    pub store: Arc<dyn ResourceStore>,
    /// Qualified name of the reference property carrying the resource
    /// key (in Clark form), e.g. `{uvacg}JobKey`.
    pub key_property: String,
    /// Deployment-wide metrics registry (disabled by default; see
    /// [`ServiceBuilder::with_metrics`]). Handlers and higher layers
    /// register their own metrics through this.
    pub metrics: Arc<MetricsRegistry>,
    next_key: AtomicU64,
    /// Scheduled-destruction timers per resource key.
    lifetime: Mutex<HashMap<String, TimerId>>,
    /// Per-resource read/write leases ([`ServiceCore::lease`]).
    leases: Box<[RwLock<()>]>,
    computed: Vec<(QName, ComputedProperty)>,
}

impl ServiceCore {
    /// The EPR naming one of this service's resources.
    pub fn epr_for(&self, key: &str) -> EndpointReference {
        EndpointReference::resource(&self.address, &self.key_property, key)
    }

    /// The service's own (resource-less) EPR.
    pub fn service_epr(&self) -> EndpointReference {
        EndpointReference::service(&self.address)
    }

    /// Generate a fresh resource key.
    pub fn fresh_key(&self) -> String {
        let n = self.next_key.fetch_add(1, Ordering::Relaxed);
        format!("{}-{}", self.name.to_ascii_lowercase(), n)
    }

    /// Create a resource with a generated key; returns its EPR.
    pub fn create_resource(&self, doc: PropertyDoc) -> Result<EndpointReference, BaseFault> {
        let key = self.fresh_key();
        self.create_resource_with_key(&key, doc)
    }

    /// Create a resource under an explicit key.
    pub fn create_resource_with_key(
        &self,
        key: &str,
        doc: PropertyDoc,
    ) -> Result<EndpointReference, BaseFault> {
        self.store
            .create(&self.name, key, &doc)
            .map_err(faults::from_store)?;
        Ok(self.epr_for(key))
    }

    /// Destroy a resource immediately (WS-ResourceLifetime `Destroy`).
    pub fn destroy_resource(&self, key: &str) -> Result<(), BaseFault> {
        if let Some(t) = self.lifetime.lock().remove(key) {
            self.clock.cancel(t);
        }
        self.store
            .destroy(&self.name, key)
            .map_err(faults::from_store)
    }

    /// The lease stripe of resource `key`. A dispatch holds it — shared
    /// for [`OpAccess::Read`], exclusive for [`OpAccess::Write`] — across
    /// load→invoke→save and [`ServiceCore::edit`] across its own, so no
    /// two writers both edit private copies and last-save-win (the lost
    /// update WSRF.NET leaves to the database, §5). Handlers run inside
    /// it, so never dispatch back into their service; create and destroy
    /// take none.
    fn lease(&self, key: &str) -> &RwLock<()> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.leases[(h.finish() as usize) & (LEASE_STRIPES - 1)]
    }

    /// Change resource `key` outside a dispatch, the only way to: under
    /// the exclusive lease a `Write` dispatch takes, read the stored
    /// document, let `f` edit it and save it; `Ok(None)` if the resource
    /// is gone, before or during the edit. `f` touches only the document
    /// (no sends, no publishes), and `edit` is never called on a thread
    /// holding one of this service's leases — in a resource operation's
    /// handler — since stripes do not re-enter.
    pub fn edit<R>(
        &self,
        key: &str,
        f: impl FnOnce(&mut PropertyDoc) -> R,
    ) -> Result<Option<R>, WriteRefused<'_>> {
        let _lease = self.lease(key).write();
        let edited = self.store.share(&self.name, key).and_then(|mut doc| {
            let edited = f(Arc::make_mut(&mut doc));
            self.store.save(&self.name, key, &doc).map(|()| edited)
        });
        unless_gone(edited).map_err(|error| WriteRefused {
            core: self,
            key: key.to_string(),
            error: Some(error),
        })
    }

    /// Schedule destruction at an absolute virtual time
    /// (WS-ResourceLifetime `SetTerminationTime`), replacing any
    /// earlier schedule. `None` cancels scheduled destruction.
    pub fn set_termination_time(self: &Arc<Self>, key: &str, at: Option<SimTime>) {
        let mut lt = self.lifetime.lock();
        if let Some(t) = lt.remove(key) {
            self.clock.cancel(t);
        }
        if let Some(at) = at {
            let core = Arc::clone(self);
            let key_owned = key.to_string();
            let timer = self.clock.schedule_at(at, move |now| {
                // Best-effort: the resource may already be gone.
                core.lifetime.lock().remove(&key_owned);
                if core.store.destroy(&core.name, &key_owned).is_ok() {
                    core.metrics.events().emit(
                        Severity::Info,
                        EventKind::LeaseExpiry,
                        &core.name,
                        now.as_nanos(),
                        || format!("resource {key_owned} destroyed at lease expiry"),
                    );
                }
            });
            lt.insert(key.to_string(), timer);
        }
    }

    /// The scheduled termination time of a resource, if any — exposed
    /// because `TerminationTime` is itself a resource property.
    pub fn termination_scheduled(&self, key: &str) -> bool {
        self.lifetime.lock().contains_key(key)
    }

    /// Evaluate computed properties against stored state.
    pub fn computed_values(&self, doc: &PropertyDoc) -> Vec<Element> {
        let now = self.clock.now();
        self.computed
            .iter()
            .flat_map(|(_, f)| f(doc, now))
            .collect()
    }

    /// Full property view (stored + computed) as a document.
    pub fn property_view(&self, doc: &PropertyDoc) -> Element {
        let mut root = doc.to_document(QName::new(ns::WSRP, "ResourcePropertyDocument"));
        for v in self.computed_values(doc) {
            root.push_child(v);
        }
        root
    }

    /// Look up values for one property name (stored first, then
    /// computed).
    pub fn property_values(&self, doc: &PropertyDoc, name: &QName) -> Vec<Element> {
        let mut vals: Vec<Element> = doc.get(name).to_vec();
        if vals.is_empty() {
            vals = doc.get_local(&name.local).to_vec();
        }
        if vals.is_empty() {
            let now = self.clock.now();
            for (n, f) in &self.computed {
                if n == name || n.local == name.local {
                    vals.extend(f(doc, now));
                }
            }
        }
        vals
    }

    /// Does the service declare a property with this name (stored
    /// schema is open, so this checks computed names only)?
    pub fn has_computed(&self, name: &QName) -> bool {
        self.computed
            .iter()
            .any(|(n, _)| n == name || n.local == name.local)
    }
}

/// `None` for a resource that is gone — destroyed or expired since it
/// was read — whose write is dropped rather than bringing it back: the
/// rule of the save stage and of [`ServiceCore::edit`] alike.
fn unless_gone<T>(result: Result<T, StoreError>) -> Result<Option<T>, StoreError> {
    match result {
        Ok(value) => Ok(Some(value)),
        Err(StoreError::NotFound(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// A change [`ServiceCore::edit`] could not make: the store refused it.
/// It is reported exactly once. A caller with someone to answer turns
/// it into their fault with `?`; dropping it instead — nobody to answer
/// — leaves one [`EventKind::StoreWriteDropped`] event.
pub struct WriteRefused<'a> {
    core: &'a ServiceCore,
    key: String,
    /// Taken when the refusal becomes a fault.
    error: Option<StoreError>,
}

impl From<WriteRefused<'_>> for BaseFault {
    fn from(mut refused: WriteRefused<'_>) -> BaseFault {
        faults::from_store(refused.error.take().expect("answered once"))
    }
}

impl Drop for WriteRefused<'_> {
    fn drop(&mut self) {
        if let Some(error) = self.error.take() {
            let core = self.core;
            core.metrics.events().emit(
                Severity::Error,
                EventKind::StoreWriteDropped,
                &core.name,
                core.clock.now().as_nanos(),
                || format!("write to {} dropped: {error}", self.key),
            );
        }
    }
}

/// The request body as seen by a handler: a DOM reference on the
/// classic path, a deferred wire span on the lazy path.
///
/// `BodyRef` derefs to [`Element`], so `ctx.body.find(..)` and friends
/// keep working unchanged — but on the lazy path the *first* deref is
/// what materializes the DOM (counted by [`wsrf_xml::dom_build_count`]).
/// Handlers that need at most the operation element's name or text
/// should use [`name`](Self::name) / [`text`](Self::text), which never
/// materialize; that is how the WS-RP read operations answer with zero
/// DOM builds. [`dom`](Self::dom) returns the element at the full
/// dispatch lifetime for handlers that must hold it across a
/// `resource_mut()` borrow.
#[derive(Clone, Copy)]
pub struct BodyRef<'a> {
    view: BodyView<'a>,
    cell: &'a OnceCell<Element>,
}

#[derive(Clone, Copy)]
enum BodyView<'a> {
    Dom(&'a Element),
    Lazy(&'a LazyEnvelope<'a>),
}

impl<'a> BodyRef<'a> {
    /// A body already materialized as a tree (the DOM dispatch path).
    /// The cell is untouched; callers pass a fresh one per dispatch.
    pub fn dom_backed(body: &'a Element, cell: &'a OnceCell<Element>) -> Self {
        BodyRef {
            view: BodyView::Dom(body),
            cell,
        }
    }

    /// A body deferred as a raw wire span (the lazy dispatch path).
    pub fn lazy_backed(env: &'a LazyEnvelope<'a>, cell: &'a OnceCell<Element>) -> Self {
        BodyRef {
            view: BodyView::Lazy(env),
            cell,
        }
    }

    /// The operation element's qualified name. Never materializes.
    pub fn name(&self) -> &'a QName {
        match self.view {
            BodyView::Dom(e) => &e.name,
            BodyView::Lazy(le) => le.body_name(),
        }
    }

    /// The operation element's text content (like
    /// [`Element::text_content`]). Never materializes on the lazy
    /// path — text is collected straight from the event stream.
    pub fn text(&self) -> String {
        match self.view {
            BodyView::Dom(e) => e.text_content(),
            BodyView::Lazy(le) => le.body_text(),
        }
    }

    /// The full body element, materialized on first use on the lazy
    /// path. Unlike deref, the returned reference lives for the whole
    /// dispatch, so it can be held across `ctx.resource_mut()`.
    pub fn dom(&self) -> &'a Element {
        match self.view {
            BodyView::Dom(e) => e,
            BodyView::Lazy(le) => self.cell.get_or_init(|| {
                // The span tokenized cleanly during the routing scan,
                // so re-building it cannot fail; degrade to an empty
                // element of the right name rather than panicking.
                le.materialize_body()
                    .unwrap_or_else(|_| Element::with_name(le.body_name().clone()))
            }),
        }
    }
}

impl std::ops::Deref for BodyRef<'_> {
    type Target = Element;

    fn deref(&self) -> &Element {
        self.dom()
    }
}

/// The invocation context passed to every handler.
pub struct Ctx<'a> {
    /// Shared service machinery.
    pub core: &'a Arc<ServiceCore>,
    /// Decoded addressing headers of the request.
    pub info: &'a MessageInfo,
    /// The resolved resource key, when present in the headers.
    pub key: Option<String>,
    /// The resource's state for [`OpKind::Resource`] ops: the store's
    /// own snapshot, shared until a handler first mutates it. Private,
    /// so the only way to a `&mut` is [`Ctx::resource_mut`].
    resource: Option<Arc<PropertyDoc>>,
    /// How the invoked operation is classified.
    access: OpAccess,
    /// All raw header blocks (for security processing). On the lazy
    /// path only tree-shaped headers (`<ReplyTo>`, WS-Security) are
    /// present; text headers live in `info`.
    pub headers: &'a [Element],
    /// The request body (deref to use it as an [`Element`]).
    pub body: BodyRef<'a>,
    /// The trace context of this dispatch — the container's own span
    /// when it is recording, otherwise the context carried in the
    /// request headers. Handlers stamp this onto every outgoing
    /// message so the causal chain survives each hop.
    pub trace: Option<TraceContext>,
}

impl Ctx<'_> {
    /// The loaded resource, to look at: lent with no copy. Faults when
    /// the operation has no resource.
    pub fn resource(&self) -> Result<&PropertyDoc, BaseFault> {
        self.resource
            .as_deref()
            .ok_or_else(|| faults::missing_resource_key(&self.core.name))
    }

    /// The loaded resource, to edit; what it holds when the handler
    /// returns Ok is saved back. The first call takes the one copy a
    /// write needs (the snapshot is the store's own row). A
    /// [`OpAccess::Read`] operation has no save stage, so it gets a
    /// `wsrf:ReadOnlyOperation` fault instead of an edit nobody keeps.
    pub fn resource_mut(&mut self) -> Result<&mut PropertyDoc, BaseFault> {
        match self.resource.as_mut() {
            None => Err(faults::missing_resource_key(&self.core.name)),
            Some(_) if self.access == OpAccess::Read => {
                Err(faults::read_only_operation(&self.info.action))
            }
            Some(doc) => Ok(Arc::make_mut(doc)),
        }
    }

    /// The resource key, or a fault.
    pub fn key(&self) -> Result<&str, BaseFault> {
        self.key
            .as_deref()
            .ok_or_else(|| faults::missing_resource_key(&self.core.name))
    }

    /// Find a raw header by name (e.g. the WS-Security block).
    pub fn header(&self, nsuri: &str, local: &str) -> Option<&Element> {
        self.headers.iter().find(|h| h.name.is(nsuri, local))
    }
}

/// One sampled dispatch in every `STAGE_SAMPLE_EVERY` records its
/// per-stage timings (the first always does, so even a one-dispatch
/// service shows all four stages). Counters stay exact for every
/// dispatch; only the stage histograms are sampled — this keeps the
/// enabled-metrics dispatch overhead to a handful of atomic ops.
const STAGE_SAMPLE_EVERY: u64 = 16;

/// Pre-registered handles for the Figure 1 pipeline stages, created
/// once at build time so the dispatch hot path never touches the
/// registry. All handles are no-ops when metrics are disabled.
struct DispatchObs {
    enabled: bool,
    /// Rolling tick deciding which dispatches sample stage timings.
    sample_tick: AtomicU64,
    /// Total dispatches entering the pipeline.
    dispatches: Counter,
    /// Dispatches that produced a fault envelope.
    faults: Counter,
    /// Stage (1)+(2): addressing-header extraction and EPR resolution.
    resolve: Timer,
    /// Stage (2b): resource state load from the store.
    load: Timer,
    /// Stage (3): handler invocation.
    invoke: Timer,
    /// Stage (4): state write-back.
    save: Timer,
    /// Bytes of resource state loaded / saved (serialized size).
    load_bytes: Counter,
    save_bytes: Counter,
    /// Resource-scoped dispatches by access mode (exact counts).
    reads: Counter,
    writes: Counter,
    /// Real nanoseconds spent waiting to acquire the per-resource
    /// lease, recorded on sampled dispatches — the contention signal.
    lock_wait: Histogram,
    /// Per-operation invocation counts, keyed by action URI.
    per_op: HashMap<String, Counter>,
    /// Structured event log for fault envelopes (noop when disabled).
    events: EventLog,
    /// Per-service SLO window fed by every dispatch outcome.
    slo: SloHandle,
}

impl DispatchObs {
    fn new(registry: &MetricsRegistry, service: &str, actions: &HashMap<String, Op>) -> Self {
        let prefix = format!("container.{service}");
        let per_op = actions
            .keys()
            .map(|action| {
                let op = action.rsplit('/').next().unwrap_or(action);
                (
                    action.clone(),
                    registry.counter(&format!("{prefix}.op.{op}.count")),
                )
            })
            .collect();
        DispatchObs {
            enabled: registry.is_enabled(),
            sample_tick: AtomicU64::new(0),
            dispatches: registry.counter(&format!("{prefix}.dispatches")),
            faults: registry.counter(&format!("{prefix}.faults")),
            resolve: registry.timer(&format!("{prefix}.stage.resolve")),
            load: registry.timer(&format!("{prefix}.stage.load")),
            invoke: registry.timer(&format!("{prefix}.stage.invoke")),
            save: registry.timer(&format!("{prefix}.stage.save")),
            load_bytes: registry.counter(&format!("{prefix}.store.load_bytes")),
            save_bytes: registry.counter(&format!("{prefix}.store.save_bytes")),
            reads: registry.counter(&format!("{prefix}.reads")),
            writes: registry.counter(&format!("{prefix}.writes")),
            lock_wait: registry.histogram(&format!("{prefix}.lock_wait_ns")),
            per_op,
            events: registry.events().clone(),
            slo: registry.slo().service(service),
        }
    }

    /// Should this dispatch time its stages?
    fn sample_stages(&self) -> bool {
        self.enabled && self.sample_tick.fetch_add(1, Ordering::Relaxed) % STAGE_SAMPLE_EVERY == 0
    }
}

/// Boundary tracker for one sampled dispatch: the stages are
/// contiguous, so each edge needs a single read of each clock (instead
/// of a start/stop pair per stage).
struct StageLap {
    virt: SimTime,
    real: std::time::Instant,
}

impl StageLap {
    fn begin(clock: &Clock) -> Self {
        StageLap {
            virt: clock.now(),
            real: std::time::Instant::now(),
        }
    }

    /// Close the current stage into `timer` and open the next one.
    fn lap(&mut self, clock: &Clock, timer: &Timer) {
        let virt = clock.now();
        let real = std::time::Instant::now();
        timer.record(virt.since(self.virt), real.duration_since(self.real));
        self.virt = virt;
        self.real = real;
    }
}

/// Estimated serialized size of a property document, for byte
/// accounting. Only evaluated when metrics are enabled; estimated
/// rather than serialized so accounting never dominates dispatch.
fn doc_bytes(doc: &PropertyDoc) -> u64 {
    doc.approx_bytes() as u64
}

/// A deployed WSRF service: the wrapper web service of Figure 1.
pub struct Service {
    core: Arc<ServiceCore>,
    ops: HashMap<String, Op>,
    description: Element,
    obs: DispatchObs,
    tracer: Tracer,
    /// Interned service name for span records.
    label: Arc<str>,
}

impl Service {
    /// Shared machinery, for handlers captured outside dispatch.
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// The service's self-description document (the WSDL analogue;
    /// also served under [`crate::wsdl::DESCRIBE_ACTION`]).
    pub fn description(&self) -> &Element {
        &self.description
    }

    /// Register this service on the network under its address.
    pub fn register(self: &Arc<Self>, net: &InProcNetwork) {
        net.register(self.core.address.clone(), self.clone() as Arc<dyn Endpoint>);
    }

    /// Dispatch pipeline (see module docs). Public so in-process tests
    /// can invoke without a network.
    pub fn dispatch(&self, env: Envelope) -> Envelope {
        self.obs.dispatches.inc();
        let started = self.obs.enabled.then(std::time::Instant::now);
        // (1) Read the addressing headers / EPR.
        let result = MessageInfo::extract(&env)
            .map_err(|e| faults::bad_request(&format!("bad addressing headers: {e}")))
            .and_then(|info| {
                let cell = OnceCell::new();
                self.run_pipeline(
                    &info,
                    TraceContext::from_envelope(&env),
                    &env.headers,
                    BodyRef::dom_backed(&env.body, &cell),
                )
            });
        self.complete(started, result)
    }

    /// Dispatch straight from the wire form: route on a forward-only
    /// header scan ([`LazyEnvelope`]) and materialize the body DOM
    /// only if the invoked handler actually dereferences it. This is
    /// the inbound half of the zero-copy wire path; the socket
    /// transports call it through [`Endpoint::handle_wire`] with a
    /// borrowed slice of their per-connection receive buffer.
    pub fn dispatch_wire(&self, wire: &str) -> Envelope {
        let scanned = LazyEnvelope::scan(wire);
        // Unparseable wires mirror the fault the DOM-path transports
        // produced themselves before dispatch...
        if let Err(ScanError::Malformed(e)) = &scanned {
            return SoapFault::client(format!("unparseable envelope: {e}")).to_envelope();
        }
        self.obs.dispatches.inc();
        let started = self.obs.enabled.then(std::time::Instant::now);
        let result = match &scanned {
            // Stage (1) already happened inside the scan: the addressing
            // view was reconstructed from the event stream.
            Ok(lazy) => {
                let cell = OnceCell::new();
                self.run_pipeline(
                    &lazy.info,
                    lazy.trace,
                    &lazy.headers,
                    BodyRef::lazy_backed(lazy, &cell),
                )
            }
            // ...while addressing-shaped problems fault exactly like the
            // DOM pipeline's MessageInfo::extract stage.
            Err(e) => Err(faults::bad_request(&format!("bad addressing headers: {e}"))),
        };
        self.complete(started, result)
    }

    /// Shared tail of both dispatch entry points: SLO accounting and
    /// fault-envelope rendering.
    fn complete(
        &self,
        started: Option<std::time::Instant>,
        result: Result<Envelope, BaseFault>,
    ) -> Envelope {
        match result {
            Ok(resp) => {
                if let Some(t) = started {
                    let latency = t.elapsed().as_nanos() as u64;
                    self.obs
                        .slo
                        .record(true, latency, self.core.clock.now().as_nanos());
                }
                resp
            }
            Err(fault) => {
                self.obs.faults.inc();
                let now = self.core.clock.now();
                if let Some(t) = started {
                    self.obs
                        .slo
                        .record(false, t.elapsed().as_nanos() as u64, now.as_nanos());
                }
                self.obs.events.emit(
                    Severity::Warn,
                    EventKind::DispatchFault,
                    &self.label,
                    now.as_nanos(),
                    || format!("{}: {}", fault.error_code, fault.description),
                );
                let f = fault
                    .at(now.as_secs_f64())
                    .from_originator(self.core.service_epr());
                SoapFault::from_base(f).to_envelope()
            }
        }
    }

    /// Stages (1b)–(5) of the Figure 1 pipeline, shared by the DOM and
    /// lazy entry points.
    fn run_pipeline(
        &self,
        info: &MessageInfo,
        incoming: Option<TraceContext>,
        headers: &[Element],
        body: BodyRef<'_>,
    ) -> Result<Envelope, BaseFault> {
        // Stage timings are sampled (see STAGE_SAMPLE_EVERY); a
        // dispatch that faults mid-pipeline records only the stages it
        // completed. Counters below are exact for every dispatch.
        let mut lap = self
            .obs
            .sample_stages()
            .then(|| StageLap::begin(&self.core.clock));

        let op = self
            .ops
            .get(&info.action)
            .ok_or_else(|| faults::no_such_operation(&info.action))?;
        if let Some(c) = self.obs.per_op.get(&info.action) {
            c.inc();
        }

        // A span covering the whole pipeline, opened only when the
        // request carries a trace header: traces begin at explicit
        // entry points (the client's submit), containers and transports
        // only extend them. Headerless traffic therefore costs one
        // header scan and a branch even with tracing enabled, and
        // untraced background chatter can never evict job-set trees
        // from the bounded span ring. The guard finishes (after the
        // save stage) on every exit path.
        let mut span = match incoming {
            Some(tc) if self.tracer.is_enabled() => Some(self.tracer.start_child(
                SpanContext {
                    trace_id: tc.trace_id,
                    span_id: tc.span_id,
                    sampled: tc.sampled,
                },
                op.span_name.clone(),
                self.label.clone(),
                &self.core.clock,
            )),
            _ => None,
        };
        let trace = match &span {
            Some(s) if s.context().is_active() => {
                let c = s.context();
                Some(TraceContext::new(c.trace_id, c.span_id, c.sampled))
            }
            _ => incoming,
        };

        // (2) Resolve the WS-Resource named by the reference properties.
        let key = info
            .to
            .reference_properties
            .iter()
            .find(|(n, _)| {
                *n == self.core.key_property
                    || QName::from_clark(n).local
                        == QName::from_clark(&self.core.key_property).local
            })
            .map(|(_, v)| v.clone());
        if let Some(l) = lap.as_mut() {
            l.lap(&self.core.clock, &self.obs.resolve);
        }

        // (2a) Take the per-resource lease — shared for Read ops,
        // exclusive for Write — held across load→invoke→save so
        // concurrent writers to one resource serialize instead of
        // last-save-wins. Acquisition wait is the contention metric.
        let mut loaded: Option<Arc<PropertyDoc>> = None;
        let mut _lease: Option<LeaseGuard<'_>> = None;
        if op.kind == OpKind::Resource {
            let k = key
                .as_deref()
                .ok_or_else(|| faults::missing_resource_key(&self.core.name))?;
            match op.access {
                OpAccess::Read => self.obs.reads.inc(),
                OpAccess::Write => self.obs.writes.inc(),
            }
            let waited = lap.is_some().then(std::time::Instant::now);
            let stripe = self.core.lease(k);
            _lease = Some(match op.access {
                OpAccess::Read => LeaseGuard::Shared(stripe.read()),
                OpAccess::Write => LeaseGuard::Exclusive(stripe.write()),
            });
            if let Some(t0) = waited {
                self.obs.lock_wait.record(t0.elapsed().as_nanos() as u64);
            }
            let doc = self
                .core
                .store
                .share(&self.core.name, k)
                .map_err(faults::from_store)?;
            if self.obs.enabled {
                self.obs.load_bytes.add(doc_bytes(&doc));
            }
            loaded = Some(doc);
        }
        if let Some(l) = lap.as_mut() {
            l.lap(&self.core.clock, &self.obs.load);
        }

        // (3) Invoke the method with the state in scope.
        if let (Some(s), Some(k)) = (span.as_mut(), key.as_deref()) {
            s.annotate("key", k);
        }
        let mut ctx = Ctx {
            core: &self.core,
            info,
            key: key.clone(),
            resource: loaded,
            access: op.access,
            headers,
            body,
            trace,
        };
        let result = (op.handler)(&mut ctx)?;
        if let Some(l) = lap.as_mut() {
            l.lap(&self.core.clock, &self.obs.invoke);
        }

        // (4) Save state back — Write ops only; Read ops skip the
        // stage outright. Writes save unconditionally, like WSRF.NET
        // ("any changes to those values will be saved back to the
        // database" — and unchanged ones too).
        if let Some(doc) = ctx.resource.take().filter(|_| op.access == OpAccess::Write) {
            let k = key.as_deref().expect("resource op had a key");
            let saved = unless_gone(self.core.store.save(&self.core.name, k, &doc));
            if saved.map_err(faults::from_store)?.is_some() && self.obs.enabled {
                self.obs.save_bytes.add(doc_bytes(&doc));
            }
        }
        if let Some(l) = lap.as_mut() {
            l.lap(&self.core.clock, &self.obs.save);
        }

        // (5) Serialize the response.
        let mut resp = Envelope::new(result);
        MessageInfo::response_to(info, "Response").apply(&mut resp);
        Ok(resp)
    }
}

impl Endpoint for Service {
    fn handle(&self, env: Envelope) -> Option<Envelope> {
        Some(self.dispatch(env))
    }

    /// Route from the raw wire text without pre-parsing a DOM — the
    /// inbound zero-copy path used by the socket transports.
    fn handle_wire(&self, wire: &str) -> Option<Envelope> {
        Some(self.dispatch_wire(wire))
    }

    fn name(&self) -> &str {
        &self.core.name
    }
}

/// Builder mirroring the Figure 2 programming model.
pub struct ServiceBuilder {
    name: String,
    address: String,
    key_property: String,
    store: Arc<dyn ResourceStore>,
    ops: HashMap<String, Op>,
    computed: Vec<(QName, ComputedProperty)>,
    standard_port_types: bool,
    lifetime_port_type: bool,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ServiceBuilder {
    /// Start building a service deployed at `address`.
    pub fn new(
        name: impl Into<String>,
        address: impl Into<String>,
        store: Arc<dyn ResourceStore>,
    ) -> Self {
        let name = name.into();
        ServiceBuilder {
            key_property: format!("{{{}}}{}Key", ns::UVACG, name),
            name,
            address: address.into(),
            store,
            ops: HashMap::new(),
            computed: Vec::new(),
            standard_port_types: true,
            lifetime_port_type: true,
            metrics: None,
        }
    }

    /// Attach a metrics registry; dispatch-stage timings, per-operation
    /// counts, and store byte counters are recorded into it. When not
    /// set, the network's registry is used (a disabled registry unless
    /// the network was built with one).
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Override the reference-property name carrying the resource key
    /// (Clark form).
    pub fn key_property(mut self, clark_name: impl Into<String>) -> Self {
        self.key_property = clark_name.into();
        self
    }

    /// Add a resource-scoped operation (state loaded/saved around it).
    /// The action URI is `{UVACG}/{service}/{op}`.
    pub fn operation(
        mut self,
        op_name: &str,
        handler: impl Fn(&mut Ctx<'_>) -> Result<Element, BaseFault> + Send + Sync + 'static,
    ) -> Self {
        let action = action_uri(&self.name, op_name);
        insert_op(
            &mut self.ops,
            action,
            OpKind::Resource,
            OpAccess::Write,
            Box::new(handler),
        );
        self
    }

    /// Add a resource-scoped operation that only *observes* state: it
    /// runs under a shared lease on the store's own snapshot of the
    /// document, skips the whole save stage, and faults if it asks for
    /// [`Ctx::resource_mut`]. Opt in only for genuinely read-only
    /// handlers.
    pub fn read_operation(
        mut self,
        op_name: &str,
        handler: impl Fn(&mut Ctx<'_>) -> Result<Element, BaseFault> + Send + Sync + 'static,
    ) -> Self {
        let action = action_uri(&self.name, op_name);
        insert_op(
            &mut self.ops,
            action,
            OpKind::Resource,
            OpAccess::Read,
            Box::new(handler),
        );
        self
    }

    /// Add a service-scoped (static/factory) operation.
    pub fn static_operation(
        mut self,
        op_name: &str,
        handler: impl Fn(&mut Ctx<'_>) -> Result<Element, BaseFault> + Send + Sync + 'static,
    ) -> Self {
        let action = action_uri(&self.name, op_name);
        insert_op(
            &mut self.ops,
            action,
            OpKind::Static,
            OpAccess::Write,
            Box::new(handler),
        );
        self
    }

    /// Add an operation under an explicit action URI (used by the
    /// WS-Notification layer, whose actions live in the WSN
    /// namespaces). Defaults to `Write` access.
    pub fn raw_operation(
        mut self,
        action: impl Into<String>,
        kind: OpKind,
        handler: impl Fn(&mut Ctx<'_>) -> Result<Element, BaseFault> + Send + Sync + 'static,
    ) -> Self {
        insert_op(
            &mut self.ops,
            action.into(),
            kind,
            OpAccess::Write,
            Box::new(handler),
        );
        self
    }

    /// Declare a computed resource property (Figure 2's
    /// `[ResourceProperty]` C# getter).
    pub fn computed_property(
        mut self,
        name: QName,
        f: impl Fn(&PropertyDoc, SimTime) -> Vec<Element> + Send + Sync + 'static,
    ) -> Self {
        self.computed.push((name, Box::new(f)));
        self
    }

    /// Opt out of the standard WS-ResourceProperties port types
    /// (`[WSRFPortType]` not applied) — used by the custom-interface
    /// baseline in experiment E2.
    pub fn without_standard_port_types(mut self) -> Self {
        self.standard_port_types = false;
        self
    }

    /// Opt out of WS-ResourceLifetime operations.
    pub fn without_lifetime(mut self) -> Self {
        self.lifetime_port_type = false;
        self
    }

    /// Finish: produce the deployable service.
    pub fn build(self, clock: Clock, net: Arc<InProcNetwork>) -> Arc<Service> {
        let metrics = self
            .metrics
            .unwrap_or_else(|| net.metrics_registry().clone());
        // A durable store may already hold resources from a previous
        // incarnation of this service; start the key sequence past the
        // highest `{name}-N` key it carries so restart cannot mint a
        // colliding EPR.
        let prefix = format!("{}-", self.name.to_ascii_lowercase());
        let next = self
            .store
            .list(&self.name)
            .iter()
            .filter_map(|k| k.strip_prefix(&prefix)?.parse::<u64>().ok())
            .max()
            .map_or(1, |n| n + 1);
        let core = Arc::new(ServiceCore {
            name: self.name,
            address: self.address,
            clock,
            net,
            store: self.store,
            key_property: self.key_property,
            metrics,
            next_key: AtomicU64::new(next),
            lifetime: Mutex::new(HashMap::new()),
            leases: (0..LEASE_STRIPES).map(|_| RwLock::new(())).collect(),
            computed: self.computed,
        });
        let mut ops = self.ops;
        if self.standard_port_types {
            crate::porttypes::install_resource_properties(&mut ops);
        }
        if self.lifetime_port_type {
            crate::porttypes::install_lifetime(&mut ops);
        }
        // Self-description (the WSDL analogue): every service answers
        // GetServiceDescription with its operation table.
        let mut actions: Vec<(String, bool)> = ops
            .iter()
            .map(|(a, op)| (a.clone(), op.kind == OpKind::Resource))
            .collect();
        let computed_names: Vec<QName> = core.computed.iter().map(|(n, _)| n.clone()).collect();
        let description = crate::wsdl::describe(
            &core.name,
            &core.address,
            &core.key_property,
            &mut actions,
            &computed_names,
        );
        let desc_for_op = description.clone();
        insert_op(
            &mut ops,
            crate::wsdl::DESCRIBE_ACTION.to_string(),
            OpKind::Static,
            OpAccess::Read,
            Box::new(move |_| Ok(desc_for_op.clone())),
        );
        let obs = DispatchObs::new(&core.metrics, &core.name, &ops);
        let tracer = core.metrics.tracer().clone();
        let label: Arc<str> = core.name.as_str().into();
        Arc::new(Service {
            core,
            ops,
            description,
            obs,
            tracer,
            label,
        })
    }
}

/// Action URI for an author-defined operation.
pub fn action_uri(service: &str, op: &str) -> String {
    format!("{}/{}/{}", ns::UVACG, service, op)
}

/// Insert an operation into a builder-produced map (used by the port
/// type installers).
pub(crate) fn insert_op(
    ops: &mut HashMap<String, Op>,
    action: String,
    kind: OpKind,
    access: OpAccess,
    handler: OpHandler,
) {
    let op_name = action.rsplit('/').next().unwrap_or(&action);
    let span_name: Arc<str> = format!("dispatch.{op_name}").into();
    ops.insert(
        action,
        Op {
            kind,
            access,
            span_name,
            handler,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use crate::Outbound;
    use wsrf_soap::ns::UVACG;

    fn q(local: &str) -> QName {
        QName::new(UVACG, local)
    }

    fn call(svc: &Arc<Service>, to: EndpointReference, action: &str, body: Element) -> Envelope {
        svc.dispatch(Outbound::new(to, action, body).into_envelope())
    }

    fn demo_service() -> (Arc<Service>, Arc<InProcNetwork>) {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("Demo", "inproc://m1/Demo", Arc::new(MemoryStore::new()))
            .static_operation("Create", |ctx| {
                let mut doc = PropertyDoc::new();
                doc.set_text(q("Status"), "Fresh");
                doc.set_i64(q("Hits"), 0);
                let epr = ctx.core.create_resource(doc)?;
                Ok(Element::new(UVACG, "CreateResponse").child(epr.to_element()))
            })
            .operation("Touch", |ctx| {
                let doc = ctx.resource_mut()?;
                let hits = doc.i64(&q("Hits")).unwrap_or(0) + 1;
                doc.set_i64(q("Hits"), hits);
                Ok(Element::new(UVACG, "TouchResponse").text(hits.to_string()))
            })
            .computed_property(q("Blurb"), |doc, now| {
                let status = doc.text_local("Status").unwrap_or_default();
                vec![Element::new(UVACG, "Blurb").text(format!("At {now} the status is {status}"))]
            })
            .build(clock, net.clone());
        svc.register(&net);
        (svc, net)
    }

    fn create_resource(svc: &Arc<Service>) -> EndpointReference {
        let resp = call(
            svc,
            svc.core().service_epr(),
            &action_uri("Demo", "Create"),
            Element::new(UVACG, "Create"),
        );
        assert!(!resp.is_fault(), "{:?}", resp.fault());
        EndpointReference::from_element(resp.body.find(ns::WSA, "EndpointReference").unwrap())
            .unwrap()
    }

    #[test]
    fn rebuilt_service_skips_keys_already_in_the_store() {
        // A durable store replayed after a restart still holds the old
        // incarnation's resources; a fresh build must not mint their
        // keys again.
        let store = Arc::new(MemoryStore::new());
        store.create("Demo", "demo-7", &PropertyDoc::new()).unwrap();
        store.create("Demo", "demo-3", &PropertyDoc::new()).unwrap();
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("Demo", "inproc://m1/Demo", store)
            .static_operation("Create", |ctx| {
                let epr = ctx.core.create_resource(PropertyDoc::new())?;
                Ok(Element::new(UVACG, "CreateResponse").child(epr.to_element()))
            })
            .build(clock, net.clone());
        svc.register(&net);
        let epr = create_resource(&svc);
        assert_eq!(epr.resource_key().unwrap(), "demo-8");
    }

    #[test]
    fn factory_creates_and_resource_ops_mutate_state() {
        let (svc, _net) = demo_service();
        let epr = create_resource(&svc);
        assert_eq!(epr.address, "inproc://m1/Demo");
        let key = epr.resource_key().unwrap().to_string();
        assert!(svc.core().store.exists("Demo", &key));

        for expected in 1..=3 {
            let resp = call(
                &svc,
                epr.clone(),
                &action_uri("Demo", "Touch"),
                Element::new(UVACG, "Touch"),
            );
            assert!(!resp.is_fault());
            assert_eq!(resp.body.text_content(), expected.to_string());
        }
        // State persisted across invocations.
        let doc = svc.core().store.load("Demo", &key).unwrap();
        assert_eq!(doc.i64(&q("Hits")).unwrap(), 3);
    }

    #[test]
    fn unknown_action_faults() {
        let (svc, _net) = demo_service();
        let resp = call(
            &svc,
            svc.core().service_epr(),
            "urn:bogus/Action",
            Element::local("X"),
        );
        let fault = resp.fault().unwrap();
        assert_eq!(fault.error_code(), Some("wsrf:NoSuchOperation"));
        // The fault carries originator and timestamp.
        let detail = fault.detail.unwrap();
        assert_eq!(detail.originator.unwrap().address, "inproc://m1/Demo");
    }

    #[test]
    fn resource_op_without_key_faults() {
        let (svc, _net) = demo_service();
        let resp = call(
            &svc,
            svc.core().service_epr(), // no reference properties
            &action_uri("Demo", "Touch"),
            Element::new(UVACG, "Touch"),
        );
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wsrf:MissingResourceKey")
        );
    }

    #[test]
    fn missing_resource_faults() {
        let (svc, _net) = demo_service();
        let ghost = svc.core().epr_for("demo-999");
        let resp = call(
            &svc,
            ghost,
            &action_uri("Demo", "Touch"),
            Element::new(UVACG, "Touch"),
        );
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wsrf:NoSuchResource")
        );
    }

    #[test]
    fn dispatch_over_network() {
        let (svc, net) = demo_service();
        let epr = create_resource(&svc);
        let touch = Element::new(UVACG, "Touch");
        let resp = Outbound::new(epr, action_uri("Demo", "Touch"), touch)
            .call(&net)
            .unwrap();
        assert_eq!(resp.body.text_content(), "1");
    }

    #[test]
    fn response_carries_addressing_headers() {
        let (svc, _net) = demo_service();
        let epr = create_resource(&svc);
        let mut env = Envelope::new(Element::new(UVACG, "Touch"));
        let info = MessageInfo::request(epr, action_uri("Demo", "Touch"));
        info.apply(&mut env);
        let resp = svc.dispatch(env);
        let back = MessageInfo::extract(&resp).unwrap();
        assert_eq!(back.relates_to.as_deref(), Some(info.message_id.as_str()));
        assert!(back.action.ends_with("TouchResponse"));
    }

    #[test]
    fn handler_fault_propagates_with_timestamp() {
        let clock = Clock::manual();
        clock.advance(std::time::Duration::from_secs(42));
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("F", "inproc://m1/F", Arc::new(MemoryStore::new()))
            .static_operation("Boom", |_| Err(BaseFault::new("uvacg:Boom", "exploded")))
            .build(clock, net);
        let resp = call(
            &svc,
            svc.core().service_epr(),
            &action_uri("F", "Boom"),
            Element::local("Boom"),
        );
        let detail = resp.fault().unwrap().detail.unwrap();
        assert_eq!(detail.error_code, "uvacg:Boom");
        assert_eq!(detail.timestamp, "42.000000");
    }

    #[test]
    fn destroy_inside_handler_skips_save() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("D", "inproc://m1/D", Arc::new(MemoryStore::new()))
            .operation("SelfDestruct", |ctx| {
                let key = ctx.key()?.to_string();
                ctx.core.destroy_resource(&key)?;
                Ok(Element::local("Gone"))
            })
            .build(clock, net);
        let epr = svc.core().create_resource(PropertyDoc::new()).unwrap();
        let resp = call(
            &svc,
            epr.clone(),
            &action_uri("D", "SelfDestruct"),
            Element::local("SelfDestruct"),
        );
        assert!(!resp.is_fault(), "{:?}", resp.fault());
        assert!(!svc.core().store.exists("D", epr.resource_key().unwrap()));
    }

    #[test]
    fn scheduled_termination_destroys_resource() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("L", "inproc://m1/L", Arc::new(MemoryStore::new()))
            .build(clock.clone(), net);
        let core = svc.core();
        let epr = core.create_resource(PropertyDoc::new()).unwrap();
        let key = epr.resource_key().unwrap();
        core.set_termination_time(key, Some(SimTime::from_secs(10)));
        assert!(core.termination_scheduled(key));
        clock.advance(std::time::Duration::from_secs(9));
        assert!(core.store.exists("L", key));
        clock.advance(std::time::Duration::from_secs(1));
        assert!(!core.store.exists("L", key));
        assert!(!core.termination_scheduled(key));
    }

    #[test]
    fn termination_can_be_rescheduled_and_cancelled() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("L2", "inproc://m1/L2", Arc::new(MemoryStore::new()))
            .build(clock.clone(), net);
        let core = svc.core();
        let epr = core.create_resource(PropertyDoc::new()).unwrap();
        let key = epr.resource_key().unwrap();
        core.set_termination_time(key, Some(SimTime::from_secs(5)));
        core.set_termination_time(key, Some(SimTime::from_secs(50)));
        clock.advance(std::time::Duration::from_secs(10));
        assert!(core.store.exists("L2", key), "rescheduled later");
        core.set_termination_time(key, None);
        clock.advance(std::time::Duration::from_secs(100));
        assert!(core.store.exists("L2", key), "cancelled");
    }

    /// Store wrapper counting save calls, and how many of them were
    /// handed the stored row itself (the handler took no copy).
    struct CountingStore {
        inner: MemoryStore,
        saves: std::sync::atomic::AtomicUsize,
        saves_of_the_row: std::sync::atomic::AtomicUsize,
    }

    impl crate::store::ResourceStore for CountingStore {
        fn create(
            &self,
            s: &str,
            k: &str,
            d: &PropertyDoc,
        ) -> Result<(), crate::store::StoreError> {
            self.inner.create(s, k, d)
        }
        fn load(&self, s: &str, k: &str) -> Result<PropertyDoc, crate::store::StoreError> {
            self.inner.load(s, k)
        }
        fn share(&self, s: &str, k: &str) -> Result<Arc<PropertyDoc>, crate::store::StoreError> {
            self.inner.share(s, k)
        }
        fn save(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), crate::store::StoreError> {
            self.saves.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if self
                .inner
                .share(s, k)
                .is_ok_and(|row| std::ptr::eq(&*row, d))
            {
                self.saves_of_the_row
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            self.inner.save(s, k, d)
        }
        fn destroy(&self, s: &str, k: &str) -> Result<(), crate::store::StoreError> {
            self.inner.destroy(s, k)
        }
        fn exists(&self, s: &str, k: &str) -> bool {
            self.inner.exists(s, k)
        }
        fn list(&self, s: &str) -> Vec<String> {
            self.inner.list(s)
        }
        fn query(&self, s: &str, p: &wsrf_xml::xpath::Path) -> Vec<String> {
            self.inner.query(s, p)
        }
        fn backend_name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn write_op_leaving_state_unchanged_still_saves_once() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let store = Arc::new(CountingStore {
            inner: MemoryStore::new(),
            saves: std::sync::atomic::AtomicUsize::new(0),
            saves_of_the_row: std::sync::atomic::AtomicUsize::new(0),
        });
        // `operation` classifies the handler as a Write op even though
        // it only looks at the state.
        let svc = ServiceBuilder::new("SP", "inproc://m/SP", store.clone())
            .operation("Read", |ctx| {
                let doc = ctx.resource()?;
                Ok(Element::new(UVACG, "R").text(doc.text_local("X").unwrap_or_default()))
            })
            .build(clock, net);
        let mut doc = PropertyDoc::new();
        doc.set_i64(q("X"), 0);
        let epr = svc.core().create_resource_with_key("r1", doc).unwrap();
        let resp = call(
            &svc,
            epr,
            &action_uri("SP", "Read"),
            Element::new(UVACG, "Read"),
        );
        assert!(!resp.is_fault());
        assert_eq!(store.saves.load(std::sync::atomic::Ordering::SeqCst), 1);
        // ...and what it saved is the snapshot it was lent: no copy.
        let of_the_row = &store.saves_of_the_row;
        assert_eq!(of_the_row.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    /// A service with one op per way of misusing `resource_mut`.
    fn misbehaving_service() -> (Arc<Service>, EndpointReference) {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("M", "inproc://m/M", Arc::new(MemoryStore::new()))
            .read_operation("SneakyRead", |ctx| {
                ctx.resource_mut()?.set_i64(q("X"), 1);
                Ok(Element::new(UVACG, "R"))
            })
            .operation("EditThenFail", |ctx| {
                ctx.resource_mut()?.set_i64(q("X"), 2);
                Err(BaseFault::new("uvacg:Boom", "after the edit"))
            })
            .build(clock, net);
        let mut doc = PropertyDoc::new();
        doc.set_i64(q("X"), 0);
        let epr = svc.core().create_resource_with_key("r1", doc).unwrap();
        (svc, epr)
    }

    #[test]
    fn read_op_that_asks_to_mutate_faults() {
        let (svc, epr) = misbehaving_service();
        let row = svc.core().store.share("M", "r1").unwrap();
        let resp = call(
            &svc,
            epr,
            &action_uri("M", "SneakyRead"),
            Element::new(UVACG, "SneakyRead"),
        );
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wsrf:ReadOnlyOperation")
        );
        assert!(Arc::ptr_eq(
            &row,
            &svc.core().store.share("M", "r1").unwrap()
        ));
        assert_eq!(row.i64(&q("X")), Some(0));
    }

    #[test]
    fn write_op_faulting_after_an_edit_leaves_the_row_untouched() {
        let (svc, epr) = misbehaving_service();
        let row = svc.core().store.share("M", "r1").unwrap();
        let resp = call(
            &svc,
            epr,
            &action_uri("M", "EditThenFail"),
            Element::new(UVACG, "EditThenFail"),
        );
        assert_eq!(resp.fault().unwrap().error_code(), Some("uvacg:Boom"));
        // The edit went to the handler's copy; the store still holds
        // the very row it held, reading what it read.
        assert!(Arc::ptr_eq(
            &row,
            &svc.core().store.share("M", "r1").unwrap()
        ));
        assert_eq!(row.i64(&q("X")), Some(0));
    }

    fn counting_service() -> (Arc<Service>, Arc<CountingStore>) {
        let clock = Clock::manual();
        let store = Arc::new(CountingStore {
            inner: MemoryStore::new(),
            saves: std::sync::atomic::AtomicUsize::new(0),
            saves_of_the_row: std::sync::atomic::AtomicUsize::new(0),
        });
        let svc = ServiceBuilder::new("E", "inproc://m/E", store.clone())
            .build(clock.clone(), InProcNetwork::new(clock));
        (svc, store)
    }

    #[test]
    fn edit_of_a_missing_resource_writes_nothing() {
        let (svc, store) = counting_service();
        let mut ran = false;
        let edited = svc.core().edit("ghost", |_| ran = true);
        assert!(matches!(edited, Ok(None)));
        assert!(!ran, "nothing to edit");
        assert_eq!(store.saves.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert!(!svc.core().store.exists("E", "ghost"));
    }

    #[test]
    fn a_resource_destroyed_during_an_edit_stays_destroyed() {
        let (svc, _store) = counting_service();
        let core = svc.core();
        core.create_resource_with_key("r1", PropertyDoc::new())
            .unwrap();
        // A lifetime timer destroys without the lease, so it can land
        // between an edit's read and its save.
        let edited = core.edit("r1", |doc| {
            core.store.destroy("E", "r1").unwrap();
            doc.set_i64(q("X"), 1);
        });
        assert!(matches!(edited, Ok(None)), "the write is dropped");
        assert!(!core.store.exists("E", "r1"), "not resurrected");
    }

    #[test]
    fn a_refused_edit_is_reported_exactly_once() {
        let reg = MetricsRegistry::enabled();
        let clock = Clock::manual();
        let store = Arc::new(crate::store::StructuredStore::new());
        store.define_schema("svc", vec![(q("Status"), crate::store::ColumnType::Text)]);
        fn edit(ctx: &mut Ctx<'_>, answer: bool) -> Result<Element, BaseFault> {
            let refused = ctx
                .core
                .edit("a", |doc| doc.set_f64(q("Cpu"), 1.0)) // not a column
                .map(|_| ());
            match answer {
                true => refused?,
                false => drop(refused),
            }
            Ok(Element::new(UVACG, "Done"))
        }
        let svc = ServiceBuilder::new("svc", "inproc://m/svc", store)
            .with_metrics(reg.clone())
            .static_operation("Answer", |ctx| edit(ctx, true))
            .static_operation("Drop", |ctx| edit(ctx, false))
            .build(clock.clone(), InProcNetwork::new(clock));
        let core = svc.core();
        let mut doc = PropertyDoc::new();
        doc.set_text(q("Status"), "Running");
        core.create_resource_with_key("a", doc).unwrap();
        let count = |kind: &str| reg.snapshot().counter(&format!("events.{kind}"));

        // Expired or saved: nothing to report.
        assert!(matches!(core.edit("gone", |_| ()), Ok(None)));
        let saved = core.edit("a", |doc| doc.set_text(q("Status"), "Exited"));
        assert!(matches!(saved, Ok(Some(()))));
        assert_eq!(count("store_write_dropped"), Some(0));

        // Nobody to answer: one `StoreWriteDropped`, no `DispatchFault`.
        let run = |op| {
            call(
                &svc,
                core.service_epr(),
                &action_uri("svc", op),
                Element::local(op),
            )
        };
        assert!(!run("Drop").is_fault());
        assert_eq!(count("store_write_dropped"), Some(1));
        assert_eq!(count("dispatch_fault"), Some(0));
        let event = reg.events().recent(Severity::Error, 1).remove(0);
        assert_eq!(event.kind, EventKind::StoreWriteDropped);
        assert_eq!(&*event.service, "svc");
        assert!(event
            .detail
            .contains("write to a dropped: schema violation"));

        // A caller to answer: its fault, and nothing else.
        let fault = run("Answer");
        assert_eq!(
            fault.fault().unwrap().error_code(),
            Some("wsrf:StorageFault")
        );
        assert_eq!(count("store_write_dropped"), Some(1));
        assert_eq!(count("dispatch_fault"), Some(1));
        assert_eq!(
            core.store.share("svc", "a").unwrap().text(&q("Status")),
            Some("Exited".to_string())
        );
    }

    #[test]
    fn computed_property_reflects_state_and_clock() {
        let (svc, _net) = demo_service();
        let core = svc.core();
        let mut doc = PropertyDoc::new();
        doc.set_text(q("Status"), "Running");
        let vals = core.property_values(&doc, &q("Blurb"));
        assert_eq!(vals.len(), 1);
        assert!(vals[0].text_content().contains("status is Running"));
    }
}
