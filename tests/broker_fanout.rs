//! The sharded notification fabric under contention: subscription
//! lifecycle ops racing concurrent publishes, lease-expiry eviction
//! from the index, and the queued delivery path — a slow consumer
//! isolated, every consumer served in order by one delivery worker at
//! a time (re-subscribing from inside a delivery included), no queue
//! outliving its consumer's last subscription, and no `Destroy` that
//! waits for a delivery while holding what that delivery needs.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsrf_grid::notification::{broker, NotificationListener, NotificationMessage, TopicExpression};
use wsrf_grid::prelude::*;
use wsrf_grid::wsrf::store::MemoryStore;

const BROKER_ADDR: &str = "inproc://hub/Broker";

struct Fabric {
    net: Arc<InProcNetwork>,
    clock: Clock,
    broker_epr: EndpointReference,
    store: Arc<MemoryStore>,
    registry: Arc<MetricsRegistry>,
}

fn fabric(clock: Clock) -> Fabric {
    let registry = MetricsRegistry::enabled();
    let net = InProcNetwork::with_metrics(clock.clone(), NetConfig::default(), &registry);
    let store = Arc::new(MemoryStore::new());
    let b = broker::notification_broker(
        "Broker",
        BROKER_ADDR,
        store.clone(),
        clock.clone(),
        net.clone(),
    );
    b.register(&net);
    let broker_epr = b.core().service_epr();
    Fabric {
        net,
        clock,
        broker_epr,
        store,
        registry,
    }
}

fn evt(topic: &str) -> NotificationMessage {
    NotificationMessage::new(topic, Element::local("Evt"))
}

fn destroy(net: &InProcNetwork, sub: &EndpointReference) {
    wsrf_grid::wsrf::ResourceProxy::new(net, sub.clone())
        .destroy()
        .expect("Destroy must ack cleanly");
}

/// Subscriptions destroyed while publisher threads hammer the broker:
/// no panic, no delivery after `Destroy` acknowledges, and the index
/// agrees with the (empty) store afterwards.
#[test]
fn destroy_racing_concurrent_publish() {
    let f = fabric(Clock::manual());
    let stop = Arc::new(AtomicBool::new(false));
    let publishers: Vec<_> = (0..4)
        .map(|p| {
            let net = f.net.clone();
            let epr = f.broker_epr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut n = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    broker::publish(&net, &epr, &evt(&format!("churn/p{p}/{}", n % 7))).unwrap();
                    n += 1;
                }
            })
        })
        .collect();

    // Churn subscriptions against the publish storm.
    for round in 0..30 {
        let addr = format!("inproc://churn/l{round}");
        let l = NotificationListener::register(&f.net, &addr);
        let sub = broker::subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("churn//"),
            None,
        )
        .unwrap();
        if round % 3 == 0 {
            broker::set_subscription_paused(&f.net, &sub, true).unwrap();
            broker::set_subscription_paused(&f.net, &sub, false).unwrap();
        }
        destroy(&f.net, &sub);
        // Inline manual-clock delivery: once Destroy acks, nothing
        // more may arrive for this listener.
        let settled = l.total();
        for _ in 0..50 {
            std::hint::spin_loop();
        }
        assert_eq!(
            l.total(),
            settled,
            "delivery after destroy ack (round {round})"
        );
        f.net.unregister(&addr);
    }
    stop.store(true, Ordering::Relaxed);
    for t in publishers {
        t.join().unwrap();
    }

    // Store and index agree: both empty.
    use wsrf_grid::wsrf::store::ResourceStore;
    assert_eq!(f.store.list("Broker").len(), 0, "store drained");
    let resp = broker::publish_counted(&f.net, &f.broker_epr, &evt("churn/p0/0")).unwrap();
    assert_eq!(
        resp.body.attr_value("delivered"),
        Some("0"),
        "index matches the empty store"
    );
    assert_eq!(
        f.registry.snapshot().gauge("broker.index.subscriptions"),
        Some(0)
    );
}

/// A lease expiring mid-storm evicts the subscription from the index
/// exactly like an explicit destroy.
#[test]
fn lease_expiry_evicts_from_index_under_load() {
    let f = fabric(Clock::manual());
    let l = NotificationListener::register(&f.net, "inproc://lease/l");
    broker::subscribe(
        &f.net,
        &f.broker_epr,
        &l.epr(),
        &TopicExpression::full("leased//"),
        Some(10.0),
    )
    .unwrap();
    broker::publish(&f.net, &f.broker_epr, &evt("leased/x")).unwrap();
    assert_eq!(l.total(), 1);
    f.clock.advance(Duration::from_secs(11));
    let resp = broker::publish_counted(&f.net, &f.broker_epr, &evt("leased/x")).unwrap();
    assert_eq!(resp.body.attr_value("delivered"), Some("0"));
    assert_eq!(l.total(), 1, "no delivery past the lease");
    use wsrf_grid::wsrf::store::ResourceStore;
    assert_eq!(f.store.list("Broker").len(), 0, "resource reaped");
    assert_eq!(
        f.registry.snapshot().gauge("broker.index.subscriptions"),
        Some(0)
    );
}

/// On a non-manual clock deliveries ride per-consumer queues drained
/// by the worker pool: a consumer sleeping in its handler delays only
/// itself, not the rest of the fan-out — and still hears everything in
/// publish order.
#[test]
fn slow_consumer_does_not_stall_the_fanout() {
    let f = fabric(Clock::scaled(1000.0));
    let fast = NotificationListener::register(&f.net, "inproc://fast/l");
    let slow = NotificationListener::register(&f.net, "inproc://slow/l");
    let slow_done = Arc::new(AtomicUsize::new(0));
    let done = slow_done.clone();
    slow.on_topic(TopicExpression::full("t//"), move |_| {
        std::thread::sleep(Duration::from_millis(100));
        done.fetch_add(1, Ordering::SeqCst);
    });
    broker::subscribe(
        &f.net,
        &f.broker_epr,
        &fast.epr(),
        &TopicExpression::full("t//"),
        None,
    )
    .unwrap();
    broker::subscribe(
        &f.net,
        &f.broker_epr,
        &slow.epr(),
        &TopicExpression::full("t//"),
        None,
    )
    .unwrap();

    const N: usize = 20;
    // How many callbacks the slow consumer had finished at the instant
    // the fast one's N-th callback fired — sampled there, so the
    // comparison does not depend on when this thread is scheduled
    // next, and counted after the sleep: `slow.total()` ticks when a
    // delivery *starts*, which the transport's own workers can do for
    // the slow consumer's last message in the same instant they hand
    // the fast consumer its last one.
    let (tx, rx) = std::sync::mpsc::channel();
    let tx = std::sync::Mutex::new(tx);
    let fast_seen = AtomicUsize::new(0);
    fast.on_topic(TopicExpression::full("t//"), move |_| {
        if fast_seen.fetch_add(1, Ordering::SeqCst) + 1 == N {
            let _ = tx.lock().unwrap().send(slow_done.load(Ordering::SeqCst));
        }
    });
    for i in 0..N {
        // Request/response, so the broker takes the publishes in this
        // order (one-way publishes race each other on the network's
        // workers before they reach it); the fan-out is queued all the
        // same.
        broker::publish_counted(&f.net, &f.broker_epr, &evt(&format!("t/{i}"))).unwrap();
    }
    // The slow consumer sleeps 100 ms in every callback; the fast one
    // must be done while the slow one is still working through its
    // deliveries.
    let slow_when_fast_finished = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("fast consumer stalled behind the slow one");
    assert!(
        slow_when_fast_finished < N,
        "slow consumer cannot have finished yet"
    );
    assert!(
        slow.wait_for(N, Duration::from_secs(30)),
        "slow consumer must still receive everything"
    );
    let heard = slow.scan(|log| log.iter().map(|m| m.topic.to_string()).collect::<Vec<_>>());
    let published: Vec<String> = (0..N).map(|i| format!("t/{i}")).collect();
    assert_eq!(heard, published, "slow consumer heard them out of order");
}

/// The worker that drains a consumer's queue is the thread that runs
/// the consumer: deliveries reach it strictly in publish order and one
/// at a time, however unevenly it takes them.
#[test]
fn a_consumer_is_served_in_order_and_never_concurrently() {
    let f = fabric(Clock::scaled(1000.0));
    let l = NotificationListener::register_counting(&f.net, "inproc://ordered/l");
    let heard = Arc::new(std::sync::Mutex::new(Vec::new()));
    let inside = AtomicBool::new(false);
    let overlapped = Arc::new(AtomicBool::new(false));
    let workers = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (log, overlap, names) = (heard.clone(), overlapped.clone(), workers.clone());
    l.on_topic(TopicExpression::full("seq//"), move |m| {
        if inside.swap(true, Ordering::SeqCst) {
            overlap.store(true, Ordering::SeqCst);
        }
        let n: usize = m.payload.text_content().parse().unwrap();
        // Even messages dawdle: an odd one handed to a second thread
        // would overtake.
        if n.is_multiple_of(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        names
            .lock()
            .unwrap()
            .push(std::thread::current().name().unwrap_or("").to_string());
        log.lock().unwrap().push(n);
        inside.store(false, Ordering::SeqCst);
    });
    broker::subscribe(
        &f.net,
        &f.broker_epr,
        &l.epr(),
        &TopicExpression::full("seq//"),
        None,
    )
    .unwrap();
    const N: usize = 200;
    for n in 0..N {
        let msg = NotificationMessage::new("seq/n", Element::local("Evt").text(n.to_string()));
        broker::publish_counted(&f.net, &f.broker_epr, &msg).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while heard.lock().unwrap().len() < N {
        assert!(std::time::Instant::now() < deadline, "deliveries stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(*heard.lock().unwrap(), (0..N).collect::<Vec<_>>());
    assert!(!overlapped.load(Ordering::SeqCst), "entered concurrently");
    // Off the manual clock the callback runs on the broker's own
    // delivery workers, not on the network's one-way pool.
    let workers = workers.lock().unwrap();
    assert!(
        workers.iter().all(|w| w.starts_with("broker-delivery-")),
        "delivered on {:?}",
        workers.iter().find(|w| !w.starts_with("broker-delivery-"))
    );
}

/// A consumer whose callback publishes back into the broker — the
/// Scheduler reacting to a job event does — re-enters the fan-out from
/// a delivery worker without deadlocking, even when every worker is
/// doing so at once.
#[test]
fn a_callback_that_publishes_does_not_deadlock() {
    let f = fabric(Clock::scaled(1000.0));
    const CONSUMERS: usize = 8; // twice the delivery workers
    let echoes = NotificationListener::register_counting(&f.net, "inproc://echo/sink");
    broker::subscribe(
        &f.net,
        &f.broker_epr,
        &echoes.epr(),
        &TopicExpression::full("echo//"),
        None,
    )
    .unwrap();
    for c in 0..CONSUMERS {
        let l = NotificationListener::register_counting(&f.net, &format!("inproc://echo/c{c}"));
        let (net, epr) = (f.net.clone(), f.broker_epr.clone());
        l.on_topic(TopicExpression::full("ping//"), move |_| {
            // One synchronous and one one-way publish per delivery.
            broker::publish_counted(&net, &epr, &evt("echo/sync")).unwrap();
            broker::publish(&net, &epr, &evt("echo/oneway")).unwrap();
        });
        broker::subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("ping//"),
            None,
        )
        .unwrap();
    }
    const PINGS: usize = 25;
    for _ in 0..PINGS {
        broker::publish(&f.net, &f.broker_epr, &evt("ping/x")).unwrap();
    }
    let want = PINGS * CONSUMERS * 2;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while echoes.total() < want {
        assert!(
            std::time::Instant::now() < deadline,
            "deadlocked at {} of {want} echoes",
            echoes.total()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The fabric forgets a consumer with its last subscription: a
/// thousand clients that each subscribe, hear one event and leave —
/// every job-set client on a long-running grid — leave no queue behind.
#[test]
fn delivery_queues_go_with_the_last_subscription() {
    let f = fabric(Clock::realtime());
    let queues = || f.registry.snapshot().gauge("broker.index.consumers");
    let shared = NotificationListener::register_counting(&f.net, "inproc://churn/shared");
    let shared_subs: Vec<_> = ["churn//", "churn/evt"]
        .iter()
        .map(|expr| {
            broker::subscribe(
                &f.net,
                &f.broker_epr,
                &shared.epr(),
                &TopicExpression::full(expr),
                None,
            )
            .unwrap()
        })
        .collect();
    assert_eq!(queues(), Some(1), "two subscriptions, one consumer");
    const CYCLES: usize = 1000;
    for i in 0..CYCLES {
        let addr = format!("inproc://churn/c{i}");
        let l = NotificationListener::register(&f.net, &addr);
        let sub = broker::subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("churn//"),
            None,
        )
        .unwrap();
        assert_eq!(queues(), Some(2));
        broker::publish(&f.net, &f.broker_epr, &evt("churn/evt")).unwrap();
        assert!(
            l.wait_for(1, Duration::from_secs(10)),
            "cycle {i}: delivery lost"
        );
        destroy(&f.net, &sub);
        assert_eq!(queues(), Some(1), "cycle {i}: queue outlived its consumer");
        f.net.unregister(&addr);
    }
    // The consumer that stayed heard every event once (its overlapping
    // subscriptions coalesce) and keeps its queue until the second of
    // them goes.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while shared.total() < CYCLES && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(shared.total(), CYCLES);
    destroy(&f.net, &shared_subs[0]);
    assert_eq!(queues(), Some(1));
    destroy(&f.net, &shared_subs[1]);
    assert_eq!(queues(), Some(0));
}

/// A consumer whose callback destroys its own subscription: the
/// `Destroy` must not wait for the delivery it is made from.
#[test]
fn a_callback_that_destroys_its_own_subscription_does_not_hang() {
    let f = fabric(Clock::manual());
    let l = NotificationListener::register(&f.net, "inproc://self/l");
    let sub = broker::subscribe(
        &f.net,
        &f.broker_epr,
        &l.epr(),
        &TopicExpression::full("self//"),
        None,
    )
    .unwrap();
    let net = f.net.clone();
    l.on_topic(TopicExpression::full("self//"), move |_| {
        destroy(&net, &sub)
    });
    let (done_tx, done) = std::sync::mpsc::channel();
    let (net, epr) = (f.net.clone(), f.broker_epr.clone());
    std::thread::spawn(move || {
        // Inline on the manual clock: the callback runs in this publish.
        broker::publish(&net, &epr, &evt("self/x")).unwrap();
        done_tx.send(()).unwrap();
    });
    done.recv_timeout(Duration::from_secs(30))
        .expect("the callback's Destroy waited for its own delivery");
    broker::publish(&f.net, &f.broker_epr, &evt("self/x")).unwrap();
    assert_eq!(l.total(), 1, "the subscription is gone");
}

/// Two consumers, each delivering while its callback destroys the
/// other's subscription: neither `Destroy` may wait for the other's
/// delivery, or both wait forever.
#[test]
fn callbacks_destroying_each_others_subscriptions_do_not_hang() {
    let f = fabric(Clock::scaled(1000.0));
    let listeners = ["inproc://pair/a", "inproc://pair/b"]
        .map(|addr| NotificationListener::register(&f.net, addr));
    let subs = listeners.each_ref().map(|l| {
        broker::subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("pair//"),
            None,
        )
        .unwrap()
    });
    let both_in = Arc::new(std::sync::Barrier::new(2));
    let (done_tx, done) = std::sync::mpsc::channel();
    for (l, other) in listeners.iter().zip(subs.iter().rev()) {
        let (net, other, both_in) = (f.net.clone(), other.clone(), both_in.clone());
        let done_tx = std::sync::Mutex::new(done_tx.clone());
        l.on_topic(TopicExpression::full("pair//"), move |_| {
            both_in.wait();
            destroy(&net, &other);
            done_tx.lock().unwrap().send(()).unwrap();
        });
    }
    broker::publish_counted(&f.net, &f.broker_epr, &evt("pair/x")).unwrap();
    for _ in 0..2 {
        done.recv_timeout(Duration::from_secs(30))
            .expect("a Destroy waited for the other consumer's delivery");
    }
    let resp = broker::publish_counted(&f.net, &f.broker_epr, &evt("pair/x")).unwrap();
    assert_eq!(resp.body.attr_value("delivered"), Some("0"));
}

/// A callback that writes to its own subscription (pauses it) while a
/// `Destroy` of that subscription waits for this very delivery: the
/// waiting `Destroy` must hold no lease stripe, or the callback's write
/// waits for the `Destroy` and both wait forever.
#[test]
fn a_callback_writing_its_subscription_during_its_destroy_does_not_hang() {
    use wsrf_grid::wsrf::store::ResourceStore;
    let f = fabric(Clock::scaled(1000.0));
    let l = NotificationListener::register(&f.net, "inproc://stripe/l");
    let all = TopicExpression::full("stripe//");
    let sub = broker::subscribe(&f.net, &f.broker_epr, &l.epr(), &all, None).unwrap();
    let key = sub.resource_key().unwrap().to_string();
    let (inside_tx, inside) = std::sync::mpsc::channel();
    let inside_tx = std::sync::Mutex::new(inside_tx);
    let (net, store, own) = (f.net.clone(), f.store.clone(), sub.clone());
    l.on_topic(all, move |_| {
        inside_tx.lock().unwrap().send(()).unwrap();
        // Gone from the store: the `Destroy` now waits for this delivery.
        while store.exists("Broker", &key) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Too late to pause; only the write's wait matters here.
        let _ = broker::set_subscription_paused(&net, &own, true);
    });
    broker::publish_counted(&f.net, &f.broker_epr, &evt("stripe/x")).unwrap();
    inside
        .recv_timeout(Duration::from_secs(30))
        .expect("the delivery never started");
    let (done_tx, done) = std::sync::mpsc::channel();
    let net = f.net.clone();
    let destroyer = std::thread::spawn(move || {
        destroy(&net, &sub);
        done_tx.send(()).unwrap();
    });
    done.recv_timeout(Duration::from_secs(30))
        .expect("the Destroy and the callback's write waited for each other");
    destroyer.join().unwrap();
    let resp = broker::publish_counted(&f.net, &f.broker_epr, &evt("stripe/x")).unwrap();
    assert_eq!(resp.body.attr_value("delivered"), Some("0"));
    assert_eq!(l.total(), 1);
}

/// A callback that panics still ends its delivery: a later `Destroy` of
/// its subscription does not wait for the delivery that unwound.
#[test]
fn a_callback_that_panics_leaves_no_delivery_in_flight() {
    let f = fabric(Clock::manual());
    let l = NotificationListener::register(&f.net, "inproc://panic/l");
    let all = TopicExpression::full("panic//");
    l.on_topic(all.clone(), |_| panic!("a consumer's own bug"));
    let sub = broker::subscribe(&f.net, &f.broker_epr, &l.epr(), &all, None).unwrap();
    // Inline on the manual clock: the panic unwinds out of the publish.
    let (net, epr) = (f.net.clone(), f.broker_epr.clone());
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        broker::publish(&net, &epr, &evt("panic/x"))
    }));
    assert!(
        unwound.is_err(),
        "the callback's panic reached the publisher"
    );
    let (done_tx, done) = std::sync::mpsc::channel();
    let destroyer = std::thread::spawn(move || {
        destroy(&net, &sub);
        done_tx.send(()).unwrap();
    });
    done.recv_timeout(Duration::from_secs(30))
        .expect("the Destroy waited for a delivery that had unwound");
    destroyer.join().unwrap();
}

/// A callback that panics on a `broker-delivery` worker does not strand
/// its consumer: the worker goes on serving, and the consumer's queue
/// still drains, so the next message reaches it.
#[test]
fn a_consumer_that_panicked_on_a_delivery_worker_still_hears_the_next_message() {
    let f = fabric(Clock::scaled(1000.0));
    let l = NotificationListener::register(&f.net, "inproc://unwind/l");
    let all = TopicExpression::full("unwind//");
    let (heard_tx, heard) = std::sync::mpsc::channel();
    let heard_tx = std::sync::Mutex::new(heard_tx);
    l.on_topic(all.clone(), move |m| {
        let n: usize = m.payload.text_content().parse().unwrap();
        if n == 0 {
            panic!("a consumer's own bug");
        }
        heard_tx.lock().unwrap().send(n).unwrap();
    });
    broker::subscribe(&f.net, &f.broker_epr, &l.epr(), &all, None).unwrap();
    for n in 0..2 {
        let msg = NotificationMessage::new("unwind/n", Element::local("Evt").text(n.to_string()));
        broker::publish_counted(&f.net, &f.broker_epr, &msg).unwrap();
    }
    let next = heard.recv_timeout(Duration::from_secs(30));
    assert_eq!(next, Ok(1), "the message after the panic never arrived");
}

/// A consumer that panics on a `broker-delivery` worker has failed its
/// delivery like one that answered an error: each panic counts in
/// `broker.delivery_failures`, and the third in a row auto-pauses the
/// subscription where a WS-RP read of `Paused` sees it.
#[test]
fn a_consumer_that_panics_on_a_delivery_worker_counts_as_a_failed_delivery() {
    let f = fabric(Clock::scaled(1000.0));
    let l = NotificationListener::register(&f.net, "inproc://fails/l");
    let failing = TopicExpression::full("fails//");
    l.on_topic(failing.clone(), |_| panic!("a consumer's own bug"));
    let sub = broker::subscribe(&f.net, &f.broker_epr, &l.epr(), &failing, None).unwrap();
    // A second subscription of the same consumer shares its queue, so
    // its message is delivered after the third panic has been counted.
    let settled = TopicExpression::simple("settled");
    let (done_tx, done) = std::sync::mpsc::channel();
    let done_tx = std::sync::Mutex::new(done_tx);
    l.on_topic(settled.clone(), move |_| {
        done_tx.lock().unwrap().send(()).unwrap()
    });
    broker::subscribe(&f.net, &f.broker_epr, &l.epr(), &settled, None).unwrap();
    for _ in 0..3 {
        broker::publish_counted(&f.net, &f.broker_epr, &evt("fails/x")).unwrap();
    }
    broker::publish_counted(&f.net, &f.broker_epr, &evt("settled")).unwrap();
    done.recv_timeout(Duration::from_secs(30))
        .expect("the consumer's queue stopped after its panics");
    let counter = |name| f.registry.snapshot().counter(name).unwrap_or(0);
    assert_eq!(counter("broker.delivery_failures"), 3);
    assert_eq!(counter("broker.autopaused"), 1);
    let paused = wsrf_grid::wsrf::ResourceProxy::new(&f.net, sub).get_text("Paused");
    assert_eq!(paused.unwrap(), "true", "the auto-pause is stored");
}

/// A callback that destroys its subscription and subscribes again while
/// its delivery still runs: the new subscription joins the queue that
/// delivery is served from, so the messages published meanwhile wait
/// for the callback instead of starting a second worker in the same
/// consumer.
#[test]
fn a_consumer_that_resubscribes_from_a_delivery_is_still_served_one_at_a_time() {
    let f = fabric(Clock::scaled(1000.0));
    let l = NotificationListener::register_counting(&f.net, "inproc://again/l");
    let all = TopicExpression::full("again//");
    let first = broker::subscribe(&f.net, &f.broker_epr, &l.epr(), &all, None).unwrap();
    let (active, most) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let heard = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (again_tx, again) = std::sync::mpsc::channel();
    let again_tx = std::sync::Mutex::new(again_tx);
    let (published_tx, published) = std::sync::mpsc::channel::<()>();
    let published = std::sync::Mutex::new(published);
    let (net, epr, me) = (f.net.clone(), f.broker_epr.clone(), l.epr());
    let (inside, peak, log) = (active.clone(), most.clone(), heard.clone());
    l.on_topic(all.clone(), move |m| {
        peak.fetch_max(inside.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        let n: usize = m.payload.text_content().parse().unwrap();
        if n == 0 {
            destroy(&net, &first);
            let all = TopicExpression::full("again//");
            broker::subscribe(&net, &epr, &me, &all, None).unwrap();
            again_tx.lock().unwrap().send(()).unwrap();
            // Still in the first delivery while the rest are published.
            let rest = published.lock().unwrap();
            rest.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        log.lock().unwrap().push(n);
        inside.fetch_sub(1, Ordering::SeqCst);
    });
    const N: usize = 20;
    let publish = |n: usize| {
        let msg = NotificationMessage::new("again/n", Element::local("Evt").text(n.to_string()));
        broker::publish_counted(&f.net, &f.broker_epr, &msg).unwrap();
    };
    publish(0);
    again
        .recv_timeout(Duration::from_secs(30))
        .expect("the callback never re-subscribed");
    (1..N).for_each(publish);
    published_tx.send(()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while heard.lock().unwrap().len() < N {
        assert!(std::time::Instant::now() < deadline, "deliveries stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(*heard.lock().unwrap(), (0..N).collect::<Vec<_>>());
    assert_eq!(most.load(Ordering::SeqCst), 1, "two handlers ran at once");
    let queues = f.registry.snapshot().gauge("broker.index.consumers");
    assert_eq!(queues, Some(1));
}

/// Pause/resume racing the publish storm never wedges and ends in a
/// deliverable state.
#[test]
fn pause_resume_racing_concurrent_publish() {
    let f = fabric(Clock::manual());
    let l = NotificationListener::register(&f.net, "inproc://pr/l");
    let sub = broker::subscribe(
        &f.net,
        &f.broker_epr,
        &l.epr(),
        &TopicExpression::full("pr//"),
        None,
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let net = f.net.clone();
        let epr = f.broker_epr.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                broker::publish(&net, &epr, &evt("pr/x")).unwrap();
            }
        })
    };
    for _ in 0..50 {
        broker::set_subscription_paused(&f.net, &sub, true).unwrap();
        broker::set_subscription_paused(&f.net, &sub, false).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    publisher.join().unwrap();

    let before = l.total();
    broker::publish(&f.net, &f.broker_epr, &evt("pr/x")).unwrap();
    assert_eq!(l.total(), before + 1, "resumed subscription still delivers");
}
