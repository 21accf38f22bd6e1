//! WS-BrokeredNotification: the Notification Broker service.
//!
//! "While the web service generating the event could maintain its own
//! list of parties interested in receiving that event, it is more
//! convenient to use the Notification Broker service as a multicast
//! mechanism" (§4.3). The broker is a full WSRF service whose
//! **resources are subscriptions**: created by `Subscribe`, paused,
//! destroyed and leased through the standard port types, and read
//! (consumer, topic expression, paused flag) through WS-RP.
//!
//! The store stays the source of truth, but `Notify` never rescans it:
//! a [`SubscriptionIndex`] keeps compiled entries bucketed by the
//! expression's concrete root across hash shards, plus a wildcard
//! bucket (`//exit`), and every write to the broker's table — lease
//! timers and `SetResourceProperties` included — passes the
//! [`ResourceStore`] decorator that keeps it in step. An entry's mode,
//! failure streak and deliveries in flight change only by
//! [`SubLife::apply`], under the entry's lock, never held across a send.
//! `Destroy` takes no lease and returns once nothing is in flight to the
//! subscription, unless the destroying thread is itself delivering.
//!
//! Delivery is inline and subscription-ordered on manual clocks (the
//! deterministic test network depends on it). Otherwise a publish queues
//! each delivery on its consumer's queue and starts the idle queues
//! together, and the `broker-delivery` worker draining a queue runs the
//! consumer ([`InProcNetwork::deliver_oneway`]): a consumer hears its
//! messages in order and one at a time, and one blocked in its handler
//! pins one of the `DELIVERY_WORKERS`, not the fan-out. Overlapping
//! subscriptions of one consumer coalesce; failures are counted,
//! reported in `NotifyResponse`, and auto-pause a subscription.
//!
//! A publish builds each `<wsnt:NotificationMessage>` once, as a shared
//! [`Fragment`]; a delivery splices it into the consumer's `Notify`
//! ([`shared_notify`]), byte for byte what
//! [`NotificationMessage::to_envelope`] sends, and the
//! `GetCurrentMessage` cache keeps the same fragment.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex, RwLock};
use simclock::{Clock, SimTime};
use wsrf_core::container::{Ctx, OpKind, Service, ServiceBuilder, ServiceCore};
use wsrf_core::faults;
use wsrf_core::porttypes::wsrl_action;
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::{ResourceStore, StoreError};
use wsrf_core::{epr_in, Outbound};
use wsrf_obs::{Counter, CounterFamily, EventKind, Gauge, Severity};
use wsrf_soap::{ns, BaseFault, EndpointReference, Envelope, SoapFault, TraceContext};
use wsrf_transport::pool::ThreadPool;
use wsrf_transport::{InProcNetwork, TransportError};
use wsrf_xml::xpath::Path;
use wsrf_xml::{Element, Fragment, QName};

use crate::life::{Action, Event, Mode, SubLife, AUTOPAUSE_AFTER};
use crate::message::{notify_action, shared_notify, NotificationMessage};
use crate::topics::{Dialect, TopicExpression, TopicPath};

/// Property names of a subscription resource.
fn p_consumer() -> QName {
    QName::new(ns::WSNT, "ConsumerReference")
}
fn p_expression() -> QName {
    QName::new(ns::WSNT, "TopicExpression")
}
fn p_paused() -> QName {
    QName::new(ns::WSNT, "Paused")
}

/// Workers draining per-consumer queues off the manual clock.
const DELIVERY_WORKERS: usize = 4;
/// Maximum concrete topics retained by the `GetCurrentMessage` cache.
const CURRENT_CACHE_CAP: usize = 512;
/// Maximum distinct topic roots minting their own
/// `broker.topic.<root>.*` counters; the rest share `broker.topic.other.*`.
const TOPIC_ROOT_CAP: usize = 64;

const INDEX_SHARDS: usize = 16;

fn shard_of(root: &str) -> usize {
    let mut h = DefaultHasher::new();
    root.hash(&mut h);
    (h.finish() as usize) % INDEX_SHARDS
}

/// One subscription, compiled once at write time instead of re-parsed
/// on every publish.
struct CompiledSub {
    key: String,
    expr: TopicExpression,
    consumer: EndpointReference,
    /// Changed only through [`CompiledSub::step`].
    life: Mutex<SubLife>,
    /// Where a `Retire` answered `Wait` sleeps until `Wake`.
    drained: Condvar,
    /// Its consumer's queue ([`SubscriptionIndex::consumers`]).
    queue: SharedQueue,
}

impl CompiledSub {
    /// What a subscription document says: expression, consumer, paused.
    fn parse(doc: &PropertyDoc) -> Option<(TopicExpression, EndpointReference, bool)> {
        let expr_el = doc.get(&p_expression()).first()?;
        let dialect = expr_el.attr_value("Dialect").and_then(Dialect::from_uri)?;
        let expr = TopicExpression::parse(dialect, &expr_el.text_content());
        let consumer = EndpointReference::from_element(doc.get(&p_consumer()).first()?).ok()?;
        let paused = doc.text(&p_paused()).as_deref() == Some("true");
        Some((expr, consumer, paused))
    }

    /// One transition and the wake-up it may owe. The lock is never held
    /// across a send: an inline delivery re-enters the broker.
    fn step(&self, event: Event) -> Action {
        let action = self.life.lock().apply(event);
        if action == Action::Wake {
            self.drained.notify_all();
        }
        action
    }
}

thread_local! {
    /// Set while this thread runs a delivery (`Retire`'s `delivering`).
    static DELIVERING: Cell<bool> = const { Cell::new(false) };
}

/// A delivery's mark on this thread; a consumer that unwinds ends it.
struct Delivering<'a>(&'a CompiledSub, bool);

impl Drop for Delivering<'_> {
    fn drop(&mut self) {
        DELIVERING.set(self.1);
        if std::thread::panicking() {
            self.0.step(Event::End { ok: false });
        }
    }
}

/// Write-through cache of compiled subscriptions: `notify_op` reads one
/// root bucket and the wildcard bucket per message, not the table.
struct SubscriptionIndex {
    /// root → entries, spread over hash shards for lock granularity.
    shards: Vec<RwLock<HashMap<String, Vec<Arc<CompiledSub>>>>>,
    /// Expressions with no concrete first segment (`//exit`, `*/x`).
    wildcard: RwLock<Vec<Arc<CompiledSub>>>,
    /// Control-plane lookup; never touched by `notify_op`.
    by_key: RwLock<HashMap<String, Arc<CompiledSub>>>,
    size: Gauge,
    /// Consumer address → its queue, kept while a subscription names it
    /// or a drainer works it: as large as the index, not the history, and
    /// a consumer re-subscribing mid-delivery joins the queue it is on.
    consumers: Mutex<HashMap<String, SharedQueue>>,
    /// Consumers with a subscription.
    consumer_count: Gauge,
}

impl SubscriptionIndex {
    fn new(size: Gauge, consumer_count: Gauge) -> SubscriptionIndex {
        SubscriptionIndex {
            shards: (0..INDEX_SHARDS).map(|_| RwLock::default()).collect(),
            wildcard: RwLock::default(),
            by_key: RwLock::default(),
            size,
            consumers: Mutex::default(),
            consumer_count,
        }
    }

    /// Reflect a saved subscription unless `stored()` says a lease-free
    /// `Destroy` came first. A save that keeps expression and consumer is
    /// a `Saved` step; any other recompiles and re-buckets the entry.
    fn upsert(&self, key: &str, doc: &PropertyDoc, stored: impl FnOnce() -> bool) {
        let Some((expr, consumer, paused)) = CompiledSub::parse(doc) else {
            // No longer a subscription: drop the entry, match no garbage.
            self.remove(key);
            return;
        };
        let mut by_key = self.by_key.write();
        if !stored() {
            return;
        }
        let same = |e: &&Arc<CompiledSub>| e.expr == expr && e.consumer == consumer;
        if let Some(existing) = by_key.get(key).filter(same) {
            existing.step(Event::Saved { paused });
            return;
        }
        let queue = self.join(&consumer.address);
        if let Some(old) = by_key.remove(key) {
            // No `Wait`: the subscription lives on as the new entry.
            self.retire(&old);
        }
        let sub = Arc::new(CompiledSub {
            key: key.to_string(),
            expr,
            consumer,
            life: Mutex::default(),
            drained: Condvar::new(),
            queue,
        });
        sub.step(Event::Saved { paused });
        match sub.expr.concrete_root() {
            Some(root) => self.shards[shard_of(root)]
                .write()
                .entry(root.to_string())
                .or_default()
                .push(sub.clone()),
            None => self.wildcard.write().push(sub.clone()),
        }
        by_key.insert(key.to_string(), sub);
        self.size.set(by_key.len() as i64);
    }

    /// The consumer's queue, with one more subscription on it.
    fn join(&self, address: &str) -> SharedQueue {
        let mut consumers = self.consumers.lock();
        if !consumers.contains_key(address) {
            consumers.insert(address.to_string(), SharedQueue::default());
        }
        let queue = consumers[address].clone();
        let mut q = queue.lock();
        q.subs += 1;
        if q.subs == 1 {
            self.consumer_count.add(1);
        }
        drop(q);
        queue
    }

    /// Reflect a destroyed subscription (WSRL `Destroy`, lease expiry),
    /// returning once no delivery to it is in flight (`Retire`'s `Wait`).
    fn remove(&self, key: &str) {
        let mut by_key = self.by_key.write();
        let Some(old) = by_key.remove(key) else {
            return;
        };
        self.size.set(by_key.len() as i64);
        let action = self.retire(&old);
        drop(by_key); // the consumer waited for may subscribe
        if action == Action::Wait {
            let mut life = old.life.lock();
            while life.in_flight > 0 {
                old.drained.wait(&mut life);
            }
        }
    }

    /// An entry that left `by_key` stops matching and delivering. Its
    /// queue leaves `consumers` with its last subscription, at once if
    /// idle, else when its drainer goes idle ([`Self::forget`]).
    fn retire(&self, sub: &Arc<CompiledSub>) -> Action {
        let action = sub.step(Event::Retire {
            delivering: DELIVERING.get(),
        });
        let mut consumers = self.consumers.lock();
        let mut q = sub.queue.lock();
        q.subs -= 1;
        if q.subs == 0 {
            self.consumer_count.sub(1);
            if !q.draining {
                consumers.remove(&sub.consumer.address);
            }
        }
        drop((q, consumers));
        match sub.expr.concrete_root() {
            Some(root) => {
                let mut shard = self.shards[shard_of(root)].write();
                if let Some(bucket) = shard.get_mut(root) {
                    bucket.retain(|s| !Arc::ptr_eq(s, sub));
                    if bucket.is_empty() {
                        shard.remove(root);
                    }
                }
            }
            None => self.wildcard.write().retain(|s| !Arc::ptr_eq(s, sub)),
        }
        action
    }

    /// A drainer left `queue` idle with no subscription on it.
    fn forget(&self, address: &str, queue: &SharedQueue) {
        let mut consumers = self.consumers.lock();
        let q = queue.lock();
        let ours = consumers
            .get(address)
            .is_some_and(|c| Arc::ptr_eq(c, queue));
        if ours && q.subs == 0 && !q.draining {
            consumers.remove(address);
        }
    }

    /// Entries whose expression matches `topic`: the topic root's bucket
    /// plus the wildcard bucket — never the full table. The fan-out
    /// checks each one is live.
    fn matching(&self, topic: &TopicPath) -> Vec<Arc<CompiledSub>> {
        let mut out = Vec::new();
        let root = topic.root();
        if let Some(bucket) = self.shards[shard_of(root)].read().get(root) {
            out.extend(bucket.iter().filter(|s| s.expr.matches(topic)).cloned());
        }
        let wildcard = self.wildcard.read();
        out.extend(wildcard.iter().filter(|s| s.expr.matches(topic)).cloned());
        out
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.by_key.read().len()
    }
}

/// [`ResourceStore`] decorator owning index invalidation, so *every*
/// write path updates it: handlers, the standard WSRL and WSRP ops, and
/// lease-expiry timers firing `store.destroy` from the clock.
struct IndexingStore {
    inner: Arc<dyn ResourceStore>,
    /// The broker's table; others on a shared store pass through.
    service: String,
    index: Arc<SubscriptionIndex>,
}

impl ResourceStore for IndexingStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.create(service, key, doc)?;
        if service == self.service {
            self.index.upsert(key, doc, || true);
        }
        Ok(())
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        self.inner.load(service, key)
    }

    fn share(&self, service: &str, key: &str) -> Result<Arc<PropertyDoc>, StoreError> {
        self.inner.share(service, key)
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.save(service, key, doc)?;
        if service == self.service {
            self.index
                .upsert(key, doc, || self.inner.exists(service, key));
        }
        Ok(())
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        let result = self.inner.destroy(service, key);
        if service == self.service && matches!(result, Ok(()) | Err(StoreError::NotFound(_))) {
            self.index.remove(key);
        }
        result
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.inner.exists(service, key)
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.inner.list(service)
    }

    fn query(&self, service: &str, path: &Path) -> Vec<String> {
        self.inner.query(service, path)
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// Two-generation (segmented-LRU) cache of the last message per topic:
/// when `hot` fills half the cap it becomes `cold`, so topics neither
/// re-published nor re-read within a generation age out, in O(1).
struct CurrentCache {
    cap: usize,
    hot: HashMap<String, Arc<Fragment>>,
    cold: HashMap<String, Arc<Fragment>>,
}

impl CurrentCache {
    fn new(cap: usize) -> CurrentCache {
        CurrentCache {
            cap: cap.max(2),
            hot: HashMap::new(),
            cold: HashMap::new(),
        }
    }

    fn insert(&mut self, topic: String, msg: Arc<Fragment>) {
        self.cold.remove(&topic);
        self.hot.insert(topic, msg);
        if self.hot.len() >= (self.cap / 2).max(1) {
            self.cold = std::mem::take(&mut self.hot);
        }
    }

    fn get(&mut self, topic: &str) -> Option<&Arc<Fragment>> {
        if !self.hot.contains_key(topic) {
            if let Some(m) = self.cold.remove(topic) {
                self.hot.insert(topic.to_string(), m);
            }
        }
        self.hot.get(topic)
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }
}

/// How many queued deliveries a worker takes per queue visit.
const DRAIN_BATCH: usize = 64;

struct Delivery {
    sub: Arc<CompiledSub>,
    /// The publish's one `<wsnt:NotificationMessage>`.
    message: Arc<Fragment>,
    trace: Option<TraceContext>,
}

impl Delivery {
    /// Wait behind whatever the consumer still has pending. Returns the
    /// subscription when its queue was idle: the caller owes the queue a
    /// drainer ([`DeliveryFabric::start_drains`]).
    fn enqueue(self) -> Option<Arc<CompiledSub>> {
        let sub = self.sub.clone();
        let mut q = sub.queue.lock();
        q.q.push_back(self);
        let idle = !std::mem::replace(&mut q.draining, true);
        drop(q);
        idle.then_some(sub)
    }
}

/// One consumer's queue, shared by its subscriptions, index and drainer.
type SharedQueue = Arc<Mutex<ConsumerQueue>>;

#[derive(Default)]
struct ConsumerQueue {
    q: VecDeque<Delivery>,
    /// True from the push that found the queue idle until the worker
    /// that drains it finds it empty: at most one drainer, and as the
    /// drainer also runs the consumer, per-consumer FIFO.
    draining: bool,
    /// Indexed subscriptions naming this consumer.
    subs: usize,
}

/// Owns the actual sends: failure accounting, auto-pause, and (on
/// non-manual clocks) the small worker pool that drains the
/// per-consumer queues and runs the consumers.
struct DeliveryFabric {
    index: Arc<SubscriptionIndex>,
    net: Arc<InProcNetwork>,
    failures: Counter,
    autopaused: Counter,
    pool: OnceLock<ThreadPool>,
}

impl DeliveryFabric {
    fn send_now(
        &self,
        core: &ServiceCore,
        sub: &CompiledSub,
        message: &Arc<Fragment>,
        trace: Option<TraceContext>,
    ) -> Option<bool> {
        if sub.step(Event::Begin) != Action::Send {
            return None;
        }
        // The consumer's addressing around the publish's own message
        // (producer reference included), neither rebuilt nor copied.
        let env = shared_notify(message, &sub.consumer)
            .trace(trace.as_ref())
            .into_envelope();
        // This thread is the consumer's delivery thread — the publisher's
        // on a manual clock, a `broker-delivery` worker otherwise.
        let delivering = Delivering(sub, DELIVERING.replace(true));
        let ok = self.net.deliver_oneway(&sub.consumer.address, env).is_ok();
        drop(delivering);
        if sub.step(Event::End { ok }) == Action::AutoPause {
            self.autopause(core, sub);
        }
        if !ok {
            self.failures.inc();
        }
        Some(ok)
    }

    /// Write a subscription's auto-pause through the store so the
    /// `Paused` resource property shows it.
    fn autopause(&self, core: &ServiceCore, sub: &CompiledSub) {
        self.autopaused.inc();
        core.metrics.events().emit(
            Severity::Warn,
            EventKind::DeliveryAutopause,
            &core.name,
            core.clock.now().as_nanos(),
            || {
                format!(
                    "subscription {} auto-paused after {AUTOPAUSE_AFTER} delivery failures",
                    sub.key
                )
            },
        );
        // Nobody to tell: a refused write leaves a `StoreWriteDropped` event.
        let _ = core.edit(&sub.key, |doc| doc.set_text(p_paused(), "true"));
    }

    fn pool(&self) -> &ThreadPool {
        self.pool
            .get_or_init(|| ThreadPool::new(DELIVERY_WORKERS, "broker-delivery"))
    }

    /// One drainer per queue, submitted together: a publish wakes the
    /// pool once, after its last delivery is queued, not once per
    /// consumer.
    fn start_drains(self: &Arc<Self>, core: &Arc<ServiceCore>, idle: Vec<Arc<CompiledSub>>) {
        if idle.is_empty() {
            return;
        }
        self.pool().execute_all(idle.into_iter().map(|sub| {
            let (fabric, core) = (self.clone(), core.clone());
            move || fabric.drain(&core, &sub)
        }));
    }

    /// Drain one consumer's queue in batches, delivering on this
    /// thread. A slow consumer pins this worker; every other consumer
    /// keeps flowing on the rest of the pool.
    fn drain(&self, core: &ServiceCore, sub: &CompiledSub) {
        loop {
            let batch: Vec<Delivery> = {
                let mut q = sub.queue.lock();
                if q.q.is_empty() {
                    q.draining = false;
                    let orphan = q.subs == 0;
                    drop(q);
                    if orphan {
                        self.index.forget(&sub.consumer.address, &sub.queue);
                    }
                    return;
                }
                let n = q.q.len().min(DRAIN_BATCH);
                q.q.drain(..n).collect()
            };
            for d in batch {
                // `send_now` counts a failure and auto-pauses; a queued
                // delivery has no publisher left to report it to.
                let _ = self.send_now(core, &d.sub, &d.message, d.trace);
            }
        }
    }
}

/// Everything the broker's operation closures share.
struct BrokerState {
    fabric: Arc<DeliveryFabric>,
    current: Mutex<CurrentCache>,
    cache_size: Gauge,
    publishes: Counter,
    deliveries: Counter,
    coalesced: Counter,
    topic_publishes: CounterFamily,
    topic_deliveries: CounterFamily,
}

/// Build the Notification Broker service.
///
/// * `Subscribe` (WSNT action) — create a subscription resource.
/// * `Notify` (WSNT action, one-way) — fan a notification out to every
///   matching, unpaused subscription.
/// * `PauseSubscription` / `ResumeSubscription` (resource ops).
/// * `Destroy` (lease-free) and the standard `SetTerminationTime`.
pub fn notification_broker(
    name: &str,
    address: &str,
    store: Arc<dyn ResourceStore>,
    clock: Clock,
    net: Arc<InProcNetwork>,
) -> Arc<Service> {
    let registry = net.metrics_registry().clone();
    let index = Arc::new(SubscriptionIndex::new(
        registry.gauge("broker.index.subscriptions"),
        registry.gauge("broker.index.consumers"),
    ));
    let store: Arc<dyn ResourceStore> = Arc::new(IndexingStore {
        inner: store,
        service: name.to_string(),
        index: index.clone(),
    });
    // A durable store may already hold subscriptions from a previous
    // incarnation; seed the index so they match immediately.
    for key in store.list(name) {
        if let Ok(doc) = store.share(name, &key) {
            index.upsert(&key, &doc, || true);
        }
    }
    let fabric = Arc::new(DeliveryFabric {
        index,
        net: net.clone(),
        failures: registry.counter("broker.delivery_failures"),
        autopaused: registry.counter("broker.autopaused"),
        pool: OnceLock::new(),
    });
    let state = Arc::new(BrokerState {
        fabric,
        current: Mutex::new(CurrentCache::new(CURRENT_CACHE_CAP)),
        cache_size: registry.gauge("broker.current_cache.size"),
        publishes: registry.counter("broker.publishes"),
        deliveries: registry.counter("broker.deliveries"),
        coalesced: registry.counter("broker.coalesced"),
        topic_publishes: registry.counter_family("broker.topic", "publishes", TOPIC_ROOT_CAP),
        topic_deliveries: registry.counter_family("broker.topic", "deliveries", TOPIC_ROOT_CAP),
    });
    let s_notify = state.clone();
    let s_get = state;
    let mut broker = ServiceBuilder::new(name, address, store)
        .key_property(format!("{{{}}}SubscriptionKey", ns::WSNT))
        .raw_operation(subscribe_action(), OpKind::Static, subscribe_op)
        // A subscription's `Destroy` waits out its deliveries in flight,
        // and one may be writing to a subscription on the same lease
        // stripe: like a lease-expiry timer, it takes no lease.
        .raw_operation(wsrl_action("Destroy"), OpKind::Static, |ctx| {
            ctx.core.destroy_resource(ctx.key()?)?;
            Ok(Element::new(ns::WSRL, "DestroyResponse"))
        })
        .raw_operation(notify_action(), OpKind::Static, move |ctx| {
            notify_op(ctx, &s_notify)
        })
        .raw_operation(
            format!("{}/GetCurrentMessage", ns::WSNT),
            OpKind::Static,
            move |ctx| {
                let topic = ctx
                    .body
                    .find(ns::WSNT, "Topic")
                    .map(|t| t.text_content())
                    .filter(|t| !t.is_empty())
                    .ok_or_else(|| faults::bad_request("GetCurrentMessage requires Topic"))?;
                let message = s_get.current.lock().get(&topic).cloned();
                let message = message.ok_or_else(|| {
                    BaseFault::new(
                        "wsnt:NoCurrentMessageOnTopic",
                        format!("no message has been published on '{topic}'"),
                    )
                })?;
                Ok(Element::new(ns::WSNT, "GetCurrentMessageResponse").shared(message))
            },
        );
    for paused in [true, false] {
        let action = format!("{}/{}", ns::WSNT, pause_op(paused));
        broker = broker.raw_operation(action, OpKind::Resource, move |ctx| {
            set_paused_op(ctx, paused)
        });
    }
    broker.build(clock, net)
}

/// The `Subscribe` action URI.
pub fn subscribe_action() -> String {
    format!("{}/Subscribe", ns::WSNT)
}

fn subscribe_op(ctx: &mut Ctx<'_>) -> Result<Element, BaseFault> {
    let consumer_el = ctx
        .body
        .find(ns::WSNT, "ConsumerReference")
        .ok_or_else(|| faults::bad_request("Subscribe requires ConsumerReference"))?;
    let consumer = EndpointReference::from_element(consumer_el)
        .map_err(|e| faults::bad_request(&format!("bad ConsumerReference: {e}")))?;
    let expr_el = ctx
        .body
        .find(ns::WSNT, "TopicExpression")
        .ok_or_else(|| faults::bad_request("Subscribe requires TopicExpression"))?;
    let dialect = expr_el
        .attr_value("Dialect")
        .and_then(Dialect::from_uri)
        .ok_or_else(|| faults::bad_request("unknown topic expression dialect"))?;
    let expr = TopicExpression::parse(dialect, &expr_el.text_content());

    let mut doc = PropertyDoc::new();
    doc.update(
        p_consumer(),
        vec![consumer.to_element_named(ns::WSNT, "ConsumerReference")],
    );
    doc.update(
        p_expression(),
        vec![Element::with_name(p_expression())
            .attr("Dialect", dialect.uri())
            .text(expr.text())],
    );
    doc.set_text(p_paused(), "false");
    let key = ctx.core.fresh_key();
    let sub_epr = ctx.core.create_resource_with_key(&key, doc)?;

    // Optional lease, in seconds *from now* (WS-BaseNotification's
    // relative form): a 30 s lease taken at t=100 dies at t=130.
    if let Some(itt) = ctx.body.find(ns::WSNT, "InitialTerminationTime") {
        let text = itt.text_content();
        if !text.trim().is_empty() {
            let secs: f64 = text
                .trim()
                .parse()
                .map_err(|_| faults::bad_request("InitialTerminationTime must be seconds"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(faults::bad_request(
                    "InitialTerminationTime must be a non-negative number of seconds",
                ));
            }
            let at = SimTime::from_secs_f64(ctx.core.clock.now().as_secs_f64() + secs);
            ctx.core.set_termination_time(&key, Some(at));
        }
    }

    Ok(Element::new(ns::WSNT, "SubscribeResponse")
        .child(sub_epr.to_element_named(ns::WSNT, "SubscriptionReference")))
}

/// `PauseSubscription` or `ResumeSubscription`.
fn pause_op(paused: bool) -> &'static str {
    ["ResumeSubscription", "PauseSubscription"][paused as usize]
}

fn set_paused_op(ctx: &mut Ctx<'_>, paused: bool) -> Result<Element, BaseFault> {
    ctx.resource_mut()?.set_text(p_paused(), paused.to_string());
    let response = format!("{}Response", pause_op(paused));
    Ok(Element::new(ns::WSNT, &response))
}

/// One message of a `Notify`, as the broker holds it for its fan-out:
/// built once, whatever the number of consumers.
struct Published {
    topic: TopicPath,
    /// The `<wsnt:NotificationMessage>` every delivery splices.
    message: Arc<Fragment>,
    /// `broker.topic.<root>.deliveries`, resolved once.
    deliveries: Counter,
}

fn notify_op(ctx: &mut Ctx<'_>, state: &Arc<BrokerState>) -> Result<Element, BaseFault> {
    // Decode the incoming notification(s).
    let messages: Vec<Published> = ctx
        .body
        .find_all(ns::WSNT, "NotificationMessage")
        .filter_map(NotificationMessage::from_element)
        .map(|m| Published {
            topic: m.topic.clone(),
            deliveries: state.topic_deliveries.counter(m.topic.root()),
            message: m.into_fragment(),
        })
        .collect();
    if messages.is_empty() {
        return Err(faults::bad_request("Notify carried no NotificationMessage"));
    }
    {
        let mut cur = state.current.lock();
        for m in &messages {
            cur.insert(m.topic.to_string(), m.message.clone());
        }
        state.cache_size.set(cur.len() as i64);
    }

    // Fan out to matching subscriptions, propagating the publisher's
    // trace context so deliveries stay in the submission's span tree.
    let trace = ctx.trace;
    let core = ctx.core.clone();
    let fanout_span = core.metrics.timer("broker.fanout").start(&core.clock);
    state.publishes.add(messages.len() as u64);
    for m in &messages {
        state.topic_publishes.counter(m.topic.root()).inc();
    }

    let (mut delivered, mut failed, mut coalesced) = (0usize, 0usize, 0usize);
    // Per message, the consumers served: overlapping subscriptions of
    // one consumer coalesce (its earliest wins).
    let mut seen: Vec<HashSet<&str>> = vec![HashSet::new(); messages.len()];

    // Matching entries in subscription order (keys are "<svc>-<n>"):
    // earlier subscribers hear an event before those whose handling may
    // publish further events, keeping causality on the inline network.
    let mut matched: Vec<Arc<CompiledSub>> = Vec::new();
    for m in &messages {
        matched.extend(state.fabric.index.matching(&m.topic));
    }
    matched.sort_by(|a, b| (a.key.len(), &a.key).cmp(&(b.key.len(), &b.key)));
    matched.dedup_by(|a, b| a.key == b.key);
    // Manual clocks deliver inline; others queue every delivery, then
    // start the idle queues together.
    let inline = core.clock.is_manual();
    let mut idle = Vec::new();
    for sub in &matched {
        for (i, m) in messages.iter().enumerate() {
            if !sub.expr.matches(&m.topic) || sub.life.lock().mode != Mode::Live {
                continue;
            }
            if !seen[i].insert(&sub.consumer.address) {
                coalesced += 1;
                continue;
            }
            m.deliveries.inc();
            if inline {
                match state.fabric.send_now(&core, sub, &m.message, trace) {
                    Some(true) => delivered += 1,
                    Some(false) => failed += 1,
                    None => {}
                }
            } else {
                let delivery = Delivery {
                    sub: sub.clone(),
                    message: m.message.clone(),
                    trace,
                };
                idle.extend(delivery.enqueue());
                delivered += 1;
            }
        }
    }
    state.fabric.start_drains(&core, idle);
    state.deliveries.add(delivered as u64);
    state.coalesced.add(coalesced as u64);
    fanout_span.finish();
    Ok(Element::new(ns::WSNT, "NotifyResponse")
        .attr("delivered", delivered.to_string())
        .attr("failed", failed.to_string())
        .attr("coalesced", coalesced.to_string()))
}

/// Subscribe `consumer` to `expression` at the broker; returns the
/// subscription's EPR. `initial_termination` is a lease in seconds from now.
pub fn subscribe(
    net: &InProcNetwork,
    broker: &EndpointReference,
    consumer: &EndpointReference,
    expression: &TopicExpression,
    initial_termination: Option<f64>,
) -> Result<EndpointReference, SoapFault> {
    let mut body = Element::new(ns::WSNT, "Subscribe")
        .child(consumer.to_element_named(ns::WSNT, "ConsumerReference"))
        .child(
            Element::new(ns::WSNT, "TopicExpression")
                .attr("Dialect", expression.dialect.uri())
                .text(expression.text()),
        );
    if let Some(secs) = initial_termination {
        body.push_child(Element::new(ns::WSNT, "InitialTerminationTime").text(format!("{secs}")));
    }
    let resp = Outbound::new(broker.clone(), subscribe_action(), body).call(net)?;
    epr_in(&resp, ns::WSNT, "SubscriptionReference")
}

/// Publish a notification *through* the broker (one-way).
pub fn publish(
    net: &InProcNetwork,
    broker: &EndpointReference,
    msg: &NotificationMessage,
) -> Result<(), TransportError> {
    msg.outbound(broker).send(net)
}

/// Publish via request/response, returning the broker's `NotifyResponse`
/// (`delivered`/`failed`/`coalesced` attributes); a fault is an `Err`.
pub fn publish_counted(
    net: &InProcNetwork,
    broker: &EndpointReference,
    msg: &NotificationMessage,
) -> Result<Envelope, SoapFault> {
    msg.outbound(broker).call(net)
}

/// Pause or resume a subscription by its EPR.
pub fn set_subscription_paused(
    net: &InProcNetwork,
    subscription: &EndpointReference,
    paused: bool,
) -> Result<(), SoapFault> {
    let op = pause_op(paused);
    Outbound::new(
        subscription.clone(),
        format!("{}/{op}", ns::WSNT),
        Element::new(ns::WSNT, op),
    )
    .call(net)?;
    Ok(())
}

/// Fetch the last message published on a concrete topic
/// (WS-BaseNotification `GetCurrentMessage`).
pub fn get_current_message(
    net: &InProcNetwork,
    broker: &EndpointReference,
    topic: &str,
) -> Result<Option<NotificationMessage>, SoapFault> {
    let body = Element::new(ns::WSNT, "GetCurrentMessage")
        .child(Element::new(ns::WSNT, "Topic").text(topic));
    match Outbound::new(
        broker.clone(),
        format!("{}/GetCurrentMessage", ns::WSNT),
        body,
    )
    .call(net)
    {
        Ok(resp) => Ok(resp
            .body
            .find(ns::WSNT, "NotificationMessage")
            .and_then(NotificationMessage::from_element)),
        Err(f) if f.error_code() == Some("wsnt:NoCurrentMessageOnTopic") => Ok(None),
        Err(f) => Err(f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::NotificationListener;
    use wsrf_core::store::MemoryStore;
    use wsrf_core::ResourceProxy;

    struct Fixture {
        net: Arc<InProcNetwork>,
        clock: Clock,
        broker_epr: EndpointReference,
        #[allow(dead_code)]
        broker: Arc<Service>,
    }

    fn fixture() -> Fixture {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let broker = notification_broker(
            "Broker",
            "inproc://hub/Broker",
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        broker.register(&net);
        let broker_epr = broker.core().service_epr();
        Fixture {
            net,
            clock,
            broker_epr,
            broker,
        }
    }

    fn msg(topic: &str) -> NotificationMessage {
        NotificationMessage::new(topic, Element::new(ns::UVACG, "Evt").text(topic))
            .from_producer(EndpointReference::service("inproc://m1/Exec"))
    }

    #[test]
    fn broker_multicasts_to_matching_subscribers() {
        let f = fixture();
        let sched = NotificationListener::register(&f.net, "inproc://hub/sched-listener");
        let client = NotificationListener::register(&f.net, "inproc://client/listener");
        let other = NotificationListener::register(&f.net, "inproc://other/listener");
        subscribe(
            &f.net,
            &f.broker_epr,
            &sched.epr(),
            &TopicExpression::full("js-1//"),
            None,
        )
        .unwrap();
        subscribe(
            &f.net,
            &f.broker_epr,
            &client.epr(),
            &TopicExpression::full("js-1//"),
            None,
        )
        .unwrap();
        subscribe(
            &f.net,
            &f.broker_epr,
            &other.epr(),
            &TopicExpression::full("js-2//"),
            None,
        )
        .unwrap();

        publish(&f.net, &f.broker_epr, &msg("js-1/job/exit")).unwrap();
        assert_eq!(sched.count(), 1);
        assert_eq!(client.count(), 1);
        assert_eq!(other.count(), 0);
        // Producer reference survives brokering.
        assert_eq!(
            sched.received()[0].producer.as_ref().unwrap().address,
            "inproc://m1/Exec"
        );
    }

    #[test]
    fn a_brokered_notify_is_byte_for_byte_the_direct_one() {
        let f = fixture();
        // Deliveries go in subscription order: the first consumer's
        // splice fills the message's cache, the second (same envelope
        // shape) replays it, the third (two reference properties, so two
        // more headers) renders it again.
        let consumers = [
            EndpointReference::service("inproc://c/first"),
            EndpointReference::service("inproc://c/second"),
            EndpointReference::resource(
                "inproc://c/keyed",
                format!("{{{}}}ListenerKey", ns::UVACG),
                "k-7",
            )
            .with_property("{urn:x}Extra", "v"),
        ];
        let received = Arc::new(Mutex::new(Vec::new()));
        for consumer in &consumers {
            let (seen, address) = (received.clone(), consumer.address.clone());
            let recorder = wsrf_transport::FnEndpoint::new("recorder", move |env| {
                seen.lock().push((address.clone(), env));
                None
            });
            f.net.register(&consumer.address, Arc::new(recorder));
            let all = TopicExpression::full("t//");
            subscribe(&f.net, &f.broker_epr, consumer, &all, None).unwrap();
        }
        let m = msg("t/x");
        for tc in [None, Some(TraceContext::new(0x5eed, 0x42, true))] {
            m.outbound(&f.broker_epr)
                .trace(tc.as_ref())
                .send(&f.net)
                .unwrap();
            let got = std::mem::take(&mut *received.lock());
            assert_eq!(got.len(), consumers.len());
            for (consumer, (address, env)) in consumers.iter().zip(got) {
                assert_eq!(consumer.address, address);
                let trace = TraceContext::from_envelope(&env);
                assert_eq!(trace.is_some(), tc.is_some(), "{address}");
                let mut want = m.to_envelope(consumer);
                if let Some(t) = trace {
                    t.stamp(&mut want);
                }
                // Message ids are the one thing two envelopes never share.
                let id = want
                    .headers
                    .iter_mut()
                    .find(|h| h.name.is(ns::WSA, "MessageID"))
                    .unwrap();
                *id = env.header(ns::WSA, "MessageID").unwrap().clone();
                assert_eq!(env.to_xml(), want.to_xml(), "{address}");
                assert_eq!(env.wire_len(), want.wire_len(), "{address}");
                assert_eq!(env, want, "{address}");
            }
        }
    }

    #[test]
    fn pause_and_resume() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            None,
        )
        .unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1);

        set_subscription_paused(&f.net, &sub, true).unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1, "paused");

        set_subscription_paused(&f.net, &sub, false).unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 2, "resumed");
    }

    #[test]
    fn subscription_is_a_queryable_resource() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("a/*/c"),
            None,
        )
        .unwrap();
        // Read its TopicExpression through the standard port type.
        let expr = ResourceProxy::new(&f.net, sub).get_text("TopicExpression");
        assert_eq!(expr.unwrap(), "a/*/c");
    }

    #[test]
    fn subscription_lease_expires() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            Some(30.0),
        )
        .unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1);
        f.clock.advance(std::time::Duration::from_secs(31));
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1, "expired subscription no longer delivers");
    }

    #[test]
    fn initial_termination_time_is_relative_to_now() {
        let f = fixture();
        // Let virtual time run well past the lease duration first: a
        // 30-second lease taken at t=100 must expire at t=130, not be
        // treated as the long-past absolute time t=30.
        f.clock.advance(std::time::Duration::from_secs(100));
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            Some(30.0),
        )
        .unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1, "lease still live right after subscribing");
        f.clock.advance(std::time::Duration::from_secs(29));
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 2, "lease still live at t+29s");
        f.clock.advance(std::time::Duration::from_secs(2));
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 2, "lease expired at t+31s");
    }

    #[test]
    fn destroy_subscription_stops_delivery() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            None,
        )
        .unwrap();
        ResourceProxy::new(&f.net, sub).destroy().unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 0);
        // The broker reports zero matches too: index and store agree.
        let resp = publish_counted(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(resp.body.attr_value("delivered"), Some("0"));
    }

    #[test]
    fn overlapping_subscriptions_coalesce_to_one_delivery() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("a//"),
            None,
        )
        .unwrap();
        subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("a/b//"),
            None,
        )
        .unwrap();
        let resp = publish_counted(&f.net, &f.broker_epr, &msg("a/b/c")).unwrap();
        assert_eq!(l.count(), 1, "one consumer, one copy");
        assert_eq!(resp.body.attr_value("delivered"), Some("1"));
        assert_eq!(resp.body.attr_value("coalesced"), Some("1"));
        // A topic matching only one of the expressions is unaffected.
        publish(&f.net, &f.broker_epr, &msg("a/x")).unwrap();
        assert_eq!(l.count(), 2);
    }

    #[test]
    fn failed_deliveries_are_counted_and_autopause_the_subscription() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            None,
        )
        .unwrap();
        // The consumer vanishes from the network.
        f.net.unregister("inproc://c/l");
        for _ in 1..AUTOPAUSE_AFTER {
            let resp = publish_counted(&f.net, &f.broker_epr, &msg("t")).unwrap();
            assert_eq!(resp.body.attr_value("delivered"), Some("0"));
            assert_eq!(resp.body.attr_value("failed"), Some("1"));
        }
        // The `AUTOPAUSE_AFTER`th consecutive failure trips the auto-pause.
        let resp = publish_counted(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(resp.body.attr_value("failed"), Some("1"));
        let paused = ResourceProxy::new(&f.net, sub.clone()).get_text("Paused");
        assert_eq!(paused.unwrap(), "true", "auto-paused RP visible");
        // Re-registering alone does not resume the paused subscription…
        let l2 = NotificationListener::register(&f.net, "inproc://c/l");
        let resp = publish_counted(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(resp.body.attr_value("delivered"), Some("0"));
        assert_eq!(l2.count(), 0);
        // …an explicit Resume does.
        set_subscription_paused(&f.net, &sub, false).unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l2.count(), 1);
    }

    #[test]
    fn a_successful_delivery_resets_the_failure_streak() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            None,
        )
        .unwrap();
        // fail, succeed, fail, succeed… `AUTOPAUSE_AFTER` failures in
        // all, never two in a row.
        for _ in 0..AUTOPAUSE_AFTER {
            f.net.unregister("inproc://c/l");
            publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
            NotificationListener::register(&f.net, "inproc://c/l");
            publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        }
        let paused = ResourceProxy::new(&f.net, sub).get_text("Paused");
        assert_eq!(paused.unwrap(), "false", "streak never passed 1");
    }

    #[test]
    fn get_current_message_returns_latest_per_topic() {
        let f = fixture();
        assert_eq!(
            get_current_message(&f.net, &f.broker_epr, "t").unwrap(),
            None
        );
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        publish(&f.net, &f.broker_epr, &msg("other")).unwrap();
        let m2 = NotificationMessage::new("t", Element::new(ns::UVACG, "Evt").text("second"));
        publish(&f.net, &f.broker_epr, &m2).unwrap();
        let got = get_current_message(&f.net, &f.broker_epr, "t")
            .unwrap()
            .unwrap();
        assert_eq!(got.payload.text_content(), "second");
        let other = get_current_message(&f.net, &f.broker_epr, "other")
            .unwrap()
            .unwrap();
        assert_eq!(other.topic.to_string(), "other");
    }

    #[test]
    fn current_message_cache_is_bounded() {
        let f = fixture();
        let last = CURRENT_CACHE_CAP;
        for i in 0..=last {
            publish(&f.net, &f.broker_epr, &msg(&format!("t{i}"))).unwrap();
        }
        // The earliest topics aged out of the bounded cache…
        assert_eq!(
            get_current_message(&f.net, &f.broker_epr, "t0").unwrap(),
            None
        );
        // …the most recent survive.
        assert!(
            get_current_message(&f.net, &f.broker_epr, &format!("t{last}"))
                .unwrap()
                .is_some()
        );
    }

    #[test]
    fn current_cache_two_generation_bound_holds() {
        let mut c = CurrentCache::new(8);
        for i in 0..1000 {
            c.insert(format!("t{i}"), msg("x").into_fragment());
            assert!(
                c.len() <= 8,
                "cache exceeded cap at insert {i}: {}",
                c.len()
            );
        }
        assert!(c.get("t999").is_some());
        assert!(c.get("t0").is_none());
    }

    #[test]
    fn current_cache_gauge_stays_exact_across_generation_swaps() {
        // The `broker.current_cache.size` gauge is set on every Notify;
        // a shadow CurrentCache replays the same insert sequence so the
        // gauge can be checked against the true hot+cold length even as
        // eviction swaps generations.
        let clock = Clock::manual();
        let registry = wsrf_obs::MetricsRegistry::enabled();
        let net = InProcNetwork::with_metrics(
            clock.clone(),
            wsrf_transport::NetConfig::default(),
            &registry,
        );
        let broker = notification_broker(
            "Broker",
            "inproc://hub/Broker",
            Arc::new(MemoryStore::new()),
            clock,
            net.clone(),
        );
        broker.register(&net);
        let bepr = broker.core().service_epr();
        let gauge = registry.gauge("broker.current_cache.size");

        let cap = CURRENT_CACHE_CAP;
        let mut shadow = CurrentCache::new(cap);
        for i in 0..cap * 5 {
            // Cycle through three quarters of the cap: more topics than
            // one generation holds, so inserts mix fresh topics (which
            // evict) with re-publishes of resident ones (which must not
            // grow the cache).
            let topic = format!("t{}", i % (cap * 3 / 4));
            publish(&net, &bepr, &msg(&topic)).unwrap();
            shadow.insert(topic, msg("x").into_fragment());
            assert_eq!(
                gauge.get(),
                shadow.len() as i64,
                "gauge diverged from cache length at insert {i}"
            );
            assert!(
                gauge.get() <= cap as i64,
                "gauge exceeded cap at insert {i}"
            );
        }

        // GetCurrentMessage promotes cold entries back to the hot
        // generation but never changes the cache size.
        let before = gauge.get();
        assert!(get_current_message(&net, &bepr, "t0").unwrap().is_some());
        assert_eq!(gauge.get(), before, "read path must not move the gauge");
    }

    #[test]
    fn index_tracks_subscribe_pause_destroy_and_expiry() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let registry = wsrf_obs::MetricsRegistry::disabled();
        let index = Arc::new(SubscriptionIndex::new(
            registry.gauge("x"),
            registry.gauge("y"),
        ));
        let store: Arc<dyn ResourceStore> = Arc::new(IndexingStore {
            inner: Arc::new(MemoryStore::new()),
            service: "Broker".into(),
            index: index.clone(),
        });
        let broker = {
            // Build on the *pre-wrapped* store so this test can watch
            // the index directly.
            let b = notification_broker(
                "Broker",
                "inproc://hub/Broker",
                store.clone(),
                clock.clone(),
                net.clone(),
            );
            b.register(&net);
            b
        };
        let bepr = broker.core().service_epr();
        let l = NotificationListener::register(&net, "inproc://c/l");
        let sub = subscribe(&net, &bepr, &l.epr(), &TopicExpression::simple("t"), None).unwrap();
        assert_eq!(index.len(), 1, "subscribe populated the outer index");
        ResourceProxy::new(&net, sub).destroy().unwrap();
        assert_eq!(index.len(), 0, "destroy evicted the outer index");
        // Lease expiry evicts too.
        subscribe(
            &net,
            &bepr,
            &l.epr(),
            &TopicExpression::simple("t"),
            Some(5.0),
        )
        .unwrap();
        assert_eq!(index.len(), 1);
        clock.advance(std::time::Duration::from_secs(6));
        assert_eq!(index.len(), 0, "lease expiry evicted the outer index");
    }

    /// A save that keeps the consumer's address but changes its
    /// reference properties recompiles the entry: deliveries carry the
    /// new EPR, on the same queue.
    #[test]
    fn a_changed_consumer_reference_recompiles_at_the_same_address() {
        let registry = wsrf_obs::MetricsRegistry::enabled();
        let consumers = registry.gauge("consumers");
        let index = SubscriptionIndex::new(registry.gauge("subs"), consumers.clone());
        let doc = |consumer: &EndpointReference| {
            let mut doc = PropertyDoc::new();
            doc.update(
                p_consumer(),
                vec![consumer.to_element_named(ns::WSNT, "ConsumerReference")],
            );
            let expr = Element::with_name(p_expression()).attr("Dialect", Dialect::Simple.uri());
            doc.update(p_expression(), vec![expr.text("t")]);
            doc
        };
        let keyed = |k: &str| {
            EndpointReference::resource("inproc://c/l", format!("{{{}}}Key", ns::UVACG), k)
        };
        let (old, new) = (keyed("k-1"), keyed("k-2"));
        index.upsert("sub-1", &doc(&old), || true);
        let queue = index.by_key.read()["sub-1"].queue.clone();
        index.upsert("sub-1", &doc(&new), || true);
        let entry = index.by_key.read()["sub-1"].clone();
        assert_eq!(entry.consumer, new, "delivering with the stale EPR");
        assert!(Arc::ptr_eq(&entry.queue, &queue), "one consumer, one queue");
        assert_eq!((index.len(), consumers.get()), (1, 1));
        // A save racing a lease-free destroy does not resurrect it.
        index.remove("sub-1");
        index.upsert("sub-1", &doc(&new), || false);
        assert_eq!((index.len(), consumers.get()), (0, 0));
    }

    #[test]
    fn get_current_message_requires_topic() {
        let f = fixture();
        let fault = Outbound::new(
            f.broker_epr.clone(),
            format!("{}/GetCurrentMessage", ns::WSNT),
            Element::new(ns::WSNT, "GetCurrentMessage"),
        )
        .call(&f.net)
        .unwrap_err();
        assert_eq!(fault.error_code(), Some("wsrf:BadRequest"));
    }

    #[test]
    fn subscribe_without_consumer_faults() {
        let f = fixture();
        let subscribe = Element::new(ns::WSNT, "Subscribe");
        let fault = Outbound::new(f.broker_epr.clone(), subscribe_action(), subscribe)
            .call(&f.net)
            .unwrap_err();
        assert_eq!(fault.error_code(), Some("wsrf:BadRequest"));
    }

    #[test]
    fn negative_initial_termination_time_faults() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let err = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            Some(-5.0),
        )
        .unwrap_err();
        assert_eq!(err.error_code(), Some("wsrf:BadRequest"));
    }

    #[test]
    fn notify_with_no_messages_faults() {
        let f = fixture();
        let notify = Element::new(ns::WSNT, "Notify");
        let fault = Outbound::new(f.broker_epr.clone(), notify_action(), notify)
            .call(&f.net)
            .unwrap_err();
        assert_eq!(fault.error_code(), Some("wsrf:BadRequest"));
        // A faulting `Notify` is an `Err` from `publish_counted` too,
        // never an `Ok` whose envelope happens to be a fault: here a
        // service that has no such operation.
        let store = Arc::new(MemoryStore::new());
        let plain = ServiceBuilder::new("Plain", "inproc://hub/Plain", store)
            .build(f.clock.clone(), f.net.clone());
        plain.register(&f.net);
        let fault = publish_counted(&f.net, &plain.core().service_epr(), &msg("t")).unwrap_err();
        assert_eq!(fault.error_code(), Some("wsrf:NoSuchOperation"));
    }
}
