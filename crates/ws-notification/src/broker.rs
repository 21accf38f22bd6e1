//! WS-BrokeredNotification: the Notification Broker service.
//!
//! "While the web service generating the event could maintain its own
//! list of parties interested in receiving that event, it is more
//! convenient to use the Notification Broker service as a multicast
//! mechanism" (§4.3). The broker here is a full WSRF service whose
//! **resources are subscriptions**: they are created by `Subscribe`,
//! pausable, destroyable and lease-limited through the standard
//! WS-ResourceLifetime port types, and their state (consumer, topic
//! expression, paused flag) is visible through the standard
//! WS-ResourceProperties port types — one of the nicest illustrations
//! of the paper's "everything is a WS-Resource" theme.
//!
//! # The sharded fan-out path
//!
//! The store stays the source of truth for subscription state, but
//! `Notify` never rescans it: a [`SubscriptionIndex`] keeps
//! compiled entries (parsed [`TopicExpression`] + consumer EPR +
//! paused flag) bucketed by the expression's concrete root prefix
//! across hash shards, with a catch-all bucket for wildcard-first
//! expressions (`//exit`). The index is a write-through cache: every
//! mutation of the broker's resource table — `Subscribe`,
//! `Pause`/`Resume`, WSRL `Destroy`/`SetTerminationTime`, lease-expiry
//! timers, even `SetResourceProperties` — funnels through the
//! [`ResourceStore`] decorator that owns the invalidation, so no code
//! path can strand a stale entry.
//!
//! Delivery is inline (synchronous, subscription-ordered) on manual
//! clocks — the deterministic test network depends on that. On
//! scaled/realtime clocks a publish queues each delivery on its
//! consumer's queue and then starts the idle queues together; the
//! `broker-delivery` worker that drains a queue also runs the consumer
//! ([`InProcNetwork::deliver_oneway`]: the network accounts for the
//! message and, if the link has a modeled cost, sleeps it, on that
//! worker — its own one-way pool carries only `send_oneway` traffic).
//! A consumer therefore hears its messages in the order the broker took
//! them and one at a time, and a consumer that blocks in its handler
//! pins one of the `DELIVERY_WORKERS` instead of serializing the whole
//! fan-out. Duplicate notifications to the same consumer (overlapping
//! subscriptions) are coalesced. Transport failures are counted,
//! reported in `NotifyResponse`, and auto-pause a subscription after a
//! streak of `AUTOPAUSE_AFTER`.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use simclock::{Clock, SimTime};
use wsrf_core::container::{action_uri, Ctx, OpKind, Service, ServiceBuilder, ServiceCore};
use wsrf_core::faults;
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::{ResourceStore, StoreError};
use wsrf_core::{epr_in, Outbound};
use wsrf_obs::{Counter, CounterFamily, EventKind, Gauge, Severity};
use wsrf_soap::{ns, BaseFault, EndpointReference, Envelope, SoapFault, TraceContext};
use wsrf_transport::pool::ThreadPool;
use wsrf_transport::{InProcNetwork, TransportError};
use wsrf_xml::xpath::Path;
use wsrf_xml::{Element, QName};

use crate::message::{notify_action, NotificationMessage};
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

/// Worker threads draining per-consumer delivery queues on non-manual
/// clocks (manual-clock delivery stays inline).
const DELIVERY_WORKERS: usize = 4;
/// Consecutive transport failures after which a subscription is
/// auto-paused (visible through its `Paused` resource property).
const AUTOPAUSE_AFTER: u32 = 3;
/// Maximum concrete topics retained by the `GetCurrentMessage` cache.
const CURRENT_CACHE_CAP: usize = 512;
/// Maximum distinct topic *roots* minting their own
/// `broker.topic.<root>.*` counter pair; the rest share
/// `broker.topic.other.*`.
const TOPIC_ROOT_CAP: usize = 64;

// ---------------------------------------------------------------------
// Sharded subscription index
// ---------------------------------------------------------------------

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
    paused: AtomicBool,
    /// Set when the entry leaves the index (destroy, lease expiry,
    /// recompile); an in-flight fan-out that already snapshotted this
    /// entry re-checks the flag at send time so a destroyed
    /// subscription cannot deliver after `Destroy` acknowledged.
    dead: AtomicBool,
    /// Deliveries past that check and not yet returned from the
    /// consumer ([`CompiledSub::begin_delivery`]).
    in_flight: AtomicUsize,
    consecutive_failures: AtomicU32,
    /// Where deliveries to this subscription's consumer wait off the
    /// manual clock: one queue per consumer address, shared by every
    /// subscription that names it ([`SubscriptionIndex::consumers`]).
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

    fn live(&self) -> bool {
        !self.dead.load(Ordering::SeqCst) && !self.paused.load(Ordering::Acquire)
    }

    /// Count a delivery in unless the entry no longer delivers. It is
    /// counted before `dead` is read and `retire` sets `dead` before the
    /// count is read (all `SeqCst`): the sender sees one or `remove` the other.
    fn begin_delivery(&self) -> Option<Delivering<'_>> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let delivering = Delivering(self, DELIVERING.replace(true));
        self.live().then_some(delivering)
    }
}

thread_local! {
    /// Set while this thread runs a delivery.
    static DELIVERING: Cell<bool> = const { Cell::new(false) };
}

/// One delivery under way, counted on its subscription and marked on
/// this thread (over any enclosing delivery's mark) until dropped.
struct Delivering<'a>(&'a CompiledSub, bool);

impl Drop for Delivering<'_> {
    fn drop(&mut self) {
        DELIVERING.set(self.1);
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Write-through cache of compiled subscriptions, bucketed by the
/// expression's concrete root prefix. `notify_op` touches exactly one
/// shard bucket (plus the wildcard bucket) per message instead of the
/// whole resource table.
struct SubscriptionIndex {
    /// root → entries, spread over hash shards for lock granularity.
    shards: Vec<RwLock<HashMap<String, Vec<Arc<CompiledSub>>>>>,
    /// Expressions with no concrete first segment (`//exit`, `*/x`)
    /// can match any root; scanned on every publish.
    wildcard: RwLock<Vec<Arc<CompiledSub>>>,
    /// Control-plane lookup for invalidation; never touched by
    /// `notify_op`.
    by_key: RwLock<HashMap<String, Arc<CompiledSub>>>,
    size: Gauge,
    /// Consumer address → that consumer's delivery queue and the number
    /// of indexed subscriptions sharing it. Control plane only (taken
    /// under `by_key`'s write lock): a fan-out reaches the queue through
    /// its [`CompiledSub`], and the entry goes when the consumer's last
    /// subscription does, so the map is as large as the index, not as
    /// the history of everyone who ever subscribed.
    consumers: Mutex<HashMap<String, (SharedQueue, usize)>>,
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

    /// Reflect a created or saved subscription document. Pause/resume
    /// saves update the compiled entry in place; a changed expression
    /// or consumer recompiles and re-buckets it.
    fn upsert(&self, key: &str, doc: &PropertyDoc) {
        let Some((expr, consumer, paused)) = CompiledSub::parse(doc) else {
            // The doc no longer parses as a subscription; drop any
            // stale entry rather than match on garbage.
            self.remove(key);
            return;
        };
        let mut by_key = self.by_key.write();
        match by_key.get(key) {
            Some(existing)
                if existing.expr == expr && existing.consumer.address == consumer.address =>
            {
                existing.paused.store(paused, Ordering::Release);
                if !paused {
                    // A resume forgives the failure streak.
                    existing.consecutive_failures.store(0, Ordering::Relaxed);
                }
                return;
            }
            Some(_) => {
                let old = by_key.remove(key).unwrap();
                self.retire(&old);
            }
            None => {}
        }
        let queue = {
            let mut consumers = self.consumers.lock();
            match consumers.get_mut(&consumer.address) {
                Some((queue, subs)) => {
                    *subs += 1;
                    queue.clone()
                }
                None => {
                    let queue = SharedQueue::default();
                    consumers.insert(consumer.address.clone(), (queue.clone(), 1));
                    self.consumer_count.set(consumers.len() as i64);
                    queue
                }
            }
        };
        let sub = Arc::new(CompiledSub {
            key: key.to_string(),
            expr,
            consumer,
            paused: AtomicBool::new(paused),
            dead: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            consecutive_failures: AtomicU32::new(0),
            queue,
        });
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

    /// Reflect a destroyed subscription (WSRL `Destroy`, lease expiry).
    /// Returns once no delivery to it is in flight, so nothing reaches
    /// the consumer after the destroy is acknowledged — unless this
    /// thread is delivering: a consumer destroying its own subscription,
    /// or two destroying each other's, would wait for themselves.
    fn remove(&self, key: &str) {
        let mut by_key = self.by_key.write();
        if let Some(old) = by_key.remove(key) {
            self.retire(&old);
            self.size.set(by_key.len() as i64);
            drop(by_key); // the consumer waited for may subscribe
            while !DELIVERING.get() && old.in_flight.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
        }
    }

    /// An entry that left `by_key` stops matching, stops delivering
    /// (what is already queued for it is skipped at send time) and lets
    /// go of its consumer's queue. A delivery in flight keeps the queue
    /// alive through its `CompiledSub`; a consumer that subscribes again
    /// starts a fresh one.
    fn retire(&self, sub: &Arc<CompiledSub>) {
        sub.dead.store(true, Ordering::SeqCst);
        let mut consumers = self.consumers.lock();
        if let Some((_, subs)) = consumers.get_mut(&sub.consumer.address) {
            *subs -= 1;
            if *subs == 0 {
                consumers.remove(&sub.consumer.address);
                self.consumer_count.set(consumers.len() as i64);
            }
        }
        drop(consumers);
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
    }

    /// Live, unpaused entries whose expression matches `topic`: the
    /// topic root's bucket plus the wildcard bucket — never the full
    /// table.
    fn matching(&self, topic: &TopicPath) -> Vec<Arc<CompiledSub>> {
        let mut out = Vec::new();
        let root = topic.root();
        {
            let shard = self.shards[shard_of(root)].read();
            if let Some(bucket) = shard.get(root) {
                out.extend(
                    bucket
                        .iter()
                        .filter(|s| s.live() && s.expr.matches(topic))
                        .cloned(),
                );
            }
        }
        out.extend(
            self.wildcard
                .read()
                .iter()
                .filter(|s| s.live() && s.expr.matches(topic))
                .cloned(),
        );
        out
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.by_key.read().len()
    }
}

/// [`ResourceStore`] decorator owning index invalidation. Wrapping the
/// store (rather than hooking individual operations) catches *every*
/// mutation path: the Subscribe handler, the standard WSRL lifetime
/// ops, lease-expiry timers firing `store.destroy` directly from the
/// clock, and WSRP `SetResourceProperties` edits.
struct IndexingStore {
    inner: Arc<dyn ResourceStore>,
    /// The broker's service/table name; other tables on a shared store
    /// pass through untouched.
    service: String,
    index: Arc<SubscriptionIndex>,
}

impl ResourceStore for IndexingStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.create(service, key, doc)?;
        if service == self.service {
            self.index.upsert(key, doc);
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
            self.index.upsert(key, doc);
        }
        Ok(())
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        let result = self.inner.destroy(service, key);
        if service == self.service
            && (result.is_ok() || matches!(result, Err(StoreError::NotFound(_))))
        {
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

// ---------------------------------------------------------------------
// Bounded GetCurrentMessage cache
// ---------------------------------------------------------------------

/// Two-generation (segmented-LRU) cache of the last message per
/// concrete topic. Inserts land in `hot`; when `hot` fills half the
/// cap, it becomes `cold` and a fresh generation starts, so topics not
/// re-published (or re-read) within a generation age out. Total size
/// is bounded by `cap` with O(1) operations — no per-publish eviction
/// scan.
struct CurrentCache {
    cap: usize,
    hot: HashMap<String, Arc<NotificationMessage>>,
    cold: HashMap<String, Arc<NotificationMessage>>,
}

impl CurrentCache {
    fn new(cap: usize) -> CurrentCache {
        CurrentCache {
            cap: cap.max(2),
            hot: HashMap::new(),
            cold: HashMap::new(),
        }
    }

    fn insert(&mut self, topic: String, msg: Arc<NotificationMessage>) {
        self.cold.remove(&topic);
        self.hot.insert(topic, msg);
        if self.hot.len() >= (self.cap / 2).max(1) {
            self.cold = std::mem::take(&mut self.hot);
        }
    }

    fn get(&mut self, topic: &str) -> Option<&NotificationMessage> {
        if !self.hot.contains_key(topic) {
            if let Some(m) = self.cold.remove(topic) {
                self.hot.insert(topic.to_string(), m);
            }
        }
        self.hot.get(topic).map(|m| &**m)
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }
}

// ---------------------------------------------------------------------
// Delivery fabric
// ---------------------------------------------------------------------

/// How many queued deliveries a worker takes per queue visit.
const DRAIN_BATCH: usize = 64;

struct Delivery {
    sub: Arc<CompiledSub>,
    msg: Arc<NotificationMessage>,
    trace: Option<TraceContext>,
}

impl Delivery {
    /// Wait behind whatever the consumer still has pending. Returns the
    /// queue when it was idle: the caller owes it a drainer
    /// ([`DeliveryFabric::start_drains`]).
    fn enqueue(self) -> Option<SharedQueue> {
        let queue = self.sub.queue.clone();
        let mut q = queue.lock();
        q.q.push_back(self);
        let idle = !std::mem::replace(&mut q.draining, true);
        drop(q);
        idle.then_some(queue)
    }
}

/// One consumer's queue, as its subscriptions, the index and the
/// worker draining it share it.
type SharedQueue = Arc<Mutex<ConsumerQueue>>;

#[derive(Default)]
struct ConsumerQueue {
    q: VecDeque<Delivery>,
    /// True from the push that found the queue idle until the worker
    /// that drains it finds it empty: at most one drainer, and as the
    /// drainer also runs the consumer, per-consumer FIFO.
    draining: bool,
}

enum SendOutcome {
    Delivered,
    Failed,
    Skipped,
}

/// Owns the actual sends: failure accounting, auto-pause, and (on
/// non-manual clocks) the small worker pool that drains the
/// per-consumer queues and runs the consumers.
struct DeliveryFabric {
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
        msg: &NotificationMessage,
        trace: Option<TraceContext>,
    ) -> SendOutcome {
        let Some(delivering) = sub.begin_delivery() else {
            return SendOutcome::Skipped;
        };
        // Forward preserving the original producer reference.
        let env = msg
            .outbound(&sub.consumer)
            .trace(trace.as_ref())
            .into_envelope();
        // This thread is the consumer's delivery thread — the publisher's
        // on a manual clock, a `broker-delivery` worker otherwise.
        let sent = self.net.deliver_oneway(&sub.consumer.address, env);
        // Before the auto-pause edit: a `Destroy` holding the
        // subscription's lease waits for this delivery to end.
        drop(delivering);
        match sent {
            Ok(()) => {
                sub.consecutive_failures.store(0, Ordering::Relaxed);
                SendOutcome::Delivered
            }
            Err(_) => {
                self.failures.inc();
                let streak = sub.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                if streak >= AUTOPAUSE_AFTER {
                    self.autopause(core, sub);
                }
                SendOutcome::Failed
            }
        }
    }

    /// Pause a subscription whose consumer keeps failing. Written
    /// through the store so the `Paused` resource property reflects it
    /// (and, via the indexing decorator, the compiled entry too).
    fn autopause(&self, core: &ServiceCore, sub: &CompiledSub) {
        if sub.paused.swap(true, Ordering::AcqRel) {
            return;
        }
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
    fn start_drains(self: &Arc<Self>, core: &Arc<ServiceCore>, queues: Vec<SharedQueue>) {
        if queues.is_empty() {
            return;
        }
        self.pool().execute_all(queues.into_iter().map(|queue| {
            let (fabric, core) = (self.clone(), core.clone());
            move || fabric.drain(&core, &queue)
        }));
    }

    /// Drain one consumer's queue in batches, delivering on this
    /// thread. A slow consumer pins this worker; every other consumer
    /// keeps flowing on the rest of the pool.
    fn drain(&self, core: &ServiceCore, queue: &Mutex<ConsumerQueue>) {
        loop {
            let batch: Vec<Delivery> = {
                let mut q = queue.lock();
                if q.q.is_empty() {
                    q.draining = false;
                    return;
                }
                let n = q.q.len().min(DRAIN_BATCH);
                q.q.drain(..n).collect()
            };
            for d in batch {
                let _ = self.send_now(core, &d.sub, &d.msg, d.trace);
            }
        }
    }
}

/// Everything the broker's operation closures share.
struct BrokerState {
    index: Arc<SubscriptionIndex>,
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
/// * `Destroy` / `SetTerminationTime` — inherited standard port types.
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
            index.upsert(&key, &doc);
        }
    }
    let fabric = Arc::new(DeliveryFabric {
        net: net.clone(),
        failures: registry.counter("broker.delivery_failures"),
        autopaused: registry.counter("broker.autopaused"),
        pool: OnceLock::new(),
    });
    let state = Arc::new(BrokerState {
        index,
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
    ServiceBuilder::new(name, address, store)
        .key_property(format!("{{{}}}SubscriptionKey", ns::WSNT))
        .raw_operation(subscribe_action(), OpKind::Static, subscribe_op)
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
                match s_get.current.lock().get(&topic) {
                    Some(msg) => {
                        Ok(Element::new(ns::WSNT, "GetCurrentMessageResponse")
                            .child(msg.to_element()))
                    }
                    None => Err(BaseFault::new(
                        "wsnt:NoCurrentMessageOnTopic",
                        format!("no message has been published on '{topic}'"),
                    )),
                }
            },
        )
        .raw_operation(
            format!("{}/PauseSubscription", ns::WSNT),
            OpKind::Resource,
            |ctx| set_paused_op(ctx, true),
        )
        .raw_operation(
            format!("{}/ResumeSubscription", ns::WSNT),
            OpKind::Resource,
            |ctx| set_paused_op(ctx, false),
        )
        .build(clock, net)
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
    let sub_epr = ctx.core.create_resource(doc)?;

    // Optional lease. `InitialTerminationTime` is a *duration in
    // seconds from now* (WS-BaseNotification's relative form): a
    // subscription created at t=100 with a 30-second lease dies at
    // t=130, not instantly at the long-gone absolute t=30.
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
            let key = sub_epr
                .resource_key()
                .ok_or_else(|| faults::bad_request("subscription EPR carries no resource key"))?
                .to_string();
            let at = SimTime::from_secs_f64(ctx.core.clock.now().as_secs_f64() + secs);
            ctx.core.set_termination_time(&key, Some(at));
        }
    }

    Ok(Element::new(ns::WSNT, "SubscribeResponse")
        .child(sub_epr.to_element_named(ns::WSNT, "SubscriptionReference")))
}

fn set_paused_op(ctx: &mut Ctx<'_>, paused: bool) -> Result<Element, BaseFault> {
    let doc = ctx.resource_mut()?;
    doc.set_text(p_paused(), if paused { "true" } else { "false" });
    let local = if paused {
        "PauseSubscriptionResponse"
    } else {
        "ResumeSubscriptionResponse"
    };
    Ok(Element::new(ns::WSNT, local))
}

fn notify_op(ctx: &mut Ctx<'_>, state: &Arc<BrokerState>) -> Result<Element, BaseFault> {
    // Decode the incoming notification(s).
    let messages: Vec<Arc<NotificationMessage>> = ctx
        .body
        .find_all(ns::WSNT, "NotificationMessage")
        .filter_map(NotificationMessage::from_element)
        .map(Arc::new)
        .collect();
    if messages.is_empty() {
        return Err(faults::bad_request("Notify carried no NotificationMessage"));
    }
    {
        let mut cur = state.current.lock();
        for m in &messages {
            cur.insert(m.topic.to_string(), m.clone());
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

    let mut delivered = 0usize;
    let mut failed = 0usize;
    let mut coalesced = 0usize;
    // Per-message set of consumer addresses already served: a consumer
    // holding several overlapping subscriptions hears each message
    // once (its earliest subscription wins).
    let mut seen: Vec<HashSet<&str>> = vec![HashSet::new(); messages.len()];

    // Union of matching entries across the batch, in subscription
    // order (keys are "<svc>-<n>"): consumers that subscribed earlier
    // hear about an event before consumers whose handling might publish
    // *further* events, which keeps client-visible causality intact on
    // the inline test network.
    let mut matched: Vec<Arc<CompiledSub>> = Vec::new();
    for m in &messages {
        matched.extend(state.index.matching(&m.topic));
    }
    matched.sort_by(|a, b| (a.key.len(), &a.key).cmp(&(b.key.len(), &b.key)));
    matched.dedup_by(|a, b| a.key == b.key);
    // Manual clocks deliver inline and synchronously — the
    // deterministic test network depends on it. Scaled and realtime
    // clocks queue every delivery on its consumer's queue first and
    // then start the queues that were idle, together.
    let inline = core.clock.is_manual();
    let mut idle_queues = Vec::new();
    for sub in &matched {
        for (i, m) in messages.iter().enumerate() {
            if !sub.expr.matches(&m.topic) || !sub.live() {
                continue;
            }
            if !seen[i].insert(&sub.consumer.address) {
                coalesced += 1;
                continue;
            }
            state.topic_deliveries.counter(m.topic.root()).inc();
            if inline {
                match state.fabric.send_now(&core, sub, m, trace) {
                    SendOutcome::Delivered => delivered += 1,
                    SendOutcome::Failed => failed += 1,
                    SendOutcome::Skipped => {}
                }
            } else {
                let delivery = Delivery {
                    sub: sub.clone(),
                    msg: m.clone(),
                    trace,
                };
                idle_queues.extend(delivery.enqueue());
                delivered += 1;
            }
        }
    }
    state.fabric.start_drains(&core, idle_queues);
    state.deliveries.add(delivered as u64);
    state.coalesced.add(coalesced as u64);
    fanout_span.finish();
    Ok(Element::new(ns::WSNT, "NotifyResponse")
        .attr("delivered", delivered.to_string())
        .attr("failed", failed.to_string())
        .attr("coalesced", coalesced.to_string()))
}

// ---------------------------------------------------------------------
// Client-side helpers
// ---------------------------------------------------------------------

/// Subscribe `consumer` to `expression` at the broker; returns the
/// subscription's EPR. `initial_termination` is a lease duration in
/// seconds *from now* (see [`subscribe_op`]'s relative
/// `InitialTerminationTime` semantics).
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

/// Publish via request/response, returning the broker's
/// `NotifyResponse` (with its `delivered`/`failed`/`coalesced`
/// attributes) instead of fire-and-forget. A fault from the broker is
/// an `Err`, like everywhere else.
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
    let op = if paused {
        "PauseSubscription"
    } else {
        "ResumeSubscription"
    };
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

/// The action URI helper shared with `wsrf-core` services (re-export
/// for symmetry with service-defined operations).
pub fn broker_action(service: &str, op: &str) -> String {
    action_uri(service, op)
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
            c.insert(format!("t{i}"), Arc::new(msg("x")));
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
            shadow.insert(topic, Arc::new(msg("x")));
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
