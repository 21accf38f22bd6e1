//! Concurrency regressions for the dispatch pipeline: per-resource
//! leases (no lost updates), read/write op classification (reads never
//! save), destroy-vs-dispatch interleavings, and the shared snapshot a
//! read is lent (no lock held, never torn).

use std::sync::Arc;

use wsrf_grid::prelude::*;
use wsrf_grid::soap::ns;
use wsrf_grid::wsrf::container::{action_uri, Service, ServiceBuilder};
use wsrf_grid::wsrf::porttypes::{wsrl_action, wsrp_action};
use wsrf_grid::wsrf::properties::PropertyDoc;
use wsrf_grid::wsrf::store::{MemoryStore, ResourceStore};
use wsrf_grid::wsrf::Outbound;
use wsrf_grid::xml::QName;

fn q(local: &str) -> QName {
    QName::new(ns::UVACG, local)
}

fn call(svc: &Arc<Service>, to: EndpointReference, action: &str, body: Element) -> Envelope {
    svc.dispatch(Outbound::new(to, action, body).into_envelope())
}

/// A counter service whose `Bump` op widens the load→save race window
/// with a yield, so a lost update would be near-certain if the lease
/// did not cover load→invoke→save.
fn counter_service(metrics: Option<Arc<MetricsRegistry>>) -> (Arc<Service>, EndpointReference) {
    let clock = Clock::manual();
    let net = InProcNetwork::new(clock.clone());
    let mut b = ServiceBuilder::new("Ctr", "inproc://m/Ctr", Arc::new(MemoryStore::new()))
        .operation("Bump", |ctx| {
            let doc = ctx.resource_mut()?;
            let n = doc.i64(&q("Hits")).unwrap_or(0);
            std::thread::yield_now();
            doc.set_i64(q("Hits"), n + 1);
            Ok(Element::new(ns::UVACG, "BumpResponse").text((n + 1).to_string()))
        })
        .operation("DestroyAndMutate", |ctx| {
            let key = ctx.key()?.to_string();
            ctx.core.destroy_resource(&key)?;
            // Mutations after self-destruction must not resurrect the
            // row through the save stage.
            ctx.resource_mut()?.set_i64(q("Hits"), 9999);
            Ok(Element::new(ns::UVACG, "Gone"))
        });
    if let Some(reg) = metrics {
        b = b.with_metrics(reg);
    }
    let svc = b.build(clock, net);
    let mut doc = PropertyDoc::new();
    doc.set_i64(q("Hits"), 0);
    let epr = svc.core().create_resource_with_key("c1", doc).unwrap();
    (svc, epr)
}

fn hammer(svc: &Arc<Service>, epr: &EndpointReference, threads: usize, rounds: usize) -> i64 {
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..rounds {
                    let resp = call(
                        svc,
                        epr.clone(),
                        &action_uri("Ctr", "Bump"),
                        Element::new(ns::UVACG, "Bump"),
                    );
                    assert!(!resp.is_fault(), "{:?}", resp.fault());
                }
            });
        }
    });
    svc.core()
        .store
        .load("Ctr", "c1")
        .unwrap()
        .i64(&q("Hits"))
        .unwrap()
}

#[test]
fn concurrent_increments_are_never_lost_with_leases() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 250;
    let (svc, epr) = counter_service(None);
    assert_eq!(
        hammer(&svc, &epr, THREADS, ROUNDS),
        (THREADS * ROUNDS) as i64,
        "every increment must land exactly once"
    );
}

#[test]
fn concurrent_readers_share_the_lease() {
    let (svc, epr) = counter_service(None);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..100 {
                    let resp = call(
                        &svc,
                        epr.clone(),
                        &wsrp_action("GetResourceProperty"),
                        Element::new(ns::WSRP, "GetResourceProperty").text("Hits"),
                    );
                    assert!(!resp.is_fault());
                    assert_eq!(resp.body.text_content(), "0");
                }
            });
        }
    });
}

#[test]
fn destroy_during_write_handler_does_not_resurrect() {
    let (svc, epr) = counter_service(None);
    let resp = call(
        &svc,
        epr.clone(),
        &action_uri("Ctr", "DestroyAndMutate"),
        Element::new(ns::UVACG, "DestroyAndMutate"),
    );
    assert!(!resp.is_fault(), "{:?}", resp.fault());
    assert!(
        !svc.core().store.exists("Ctr", "c1"),
        "post-destroy mutation must not be saved back"
    );
    // Dispatches arriving after destruction fault cleanly.
    let resp = call(
        &svc,
        epr,
        &action_uri("Ctr", "Bump"),
        Element::new(ns::UVACG, "Bump"),
    );
    assert_eq!(
        resp.fault().unwrap().error_code(),
        Some("wsrf:NoSuchResource")
    );
}

#[test]
fn destroy_races_with_writers_cleanly() {
    // One thread destroys while others bump: every bump either lands
    // before the destroy (success) or faults NoSuchResource; nothing
    // resurrects the row, and the store ends empty.
    let (svc, epr) = counter_service(None);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..100 {
                    let resp = call(
                        &svc,
                        epr.clone(),
                        &action_uri("Ctr", "Bump"),
                        Element::new(ns::UVACG, "Bump"),
                    );
                    if let Some(f) = resp.fault() {
                        assert_eq!(f.error_code(), Some("wsrf:NoSuchResource"));
                    }
                }
            });
        }
        s.spawn(|| {
            std::thread::yield_now();
            let resp = call(
                &svc,
                epr.clone(),
                &wsrl_action("Destroy"),
                Element::new(ns::WSRL, "Destroy"),
            );
            assert!(!resp.is_fault(), "{:?}", resp.fault());
        });
    });
    assert!(
        !svc.core().store.exists("Ctr", "c1"),
        "a late save must not resurrect the destroyed resource"
    );
}

#[test]
fn read_ops_never_issue_store_saves() {
    let registry = MetricsRegistry::enabled();
    let (svc, epr) = counter_service(Some(registry.clone()));
    for _ in 0..10 {
        let resp = call(
            &svc,
            epr.clone(),
            &wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text("Hits"),
        );
        assert!(!resp.is_fault());
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("container.Ctr.store.save_bytes"),
        Some(0),
        "GetResourceProperty must not write back"
    );
    assert_eq!(snap.counter("container.Ctr.reads"), Some(10));
    assert_eq!(snap.counter("container.Ctr.writes"), Some(0));

    // A genuine write is still counted and saved.
    let resp = call(
        &svc,
        epr,
        &action_uri("Ctr", "Bump"),
        Element::new(ns::UVACG, "Bump"),
    );
    assert!(!resp.is_fault());
    let snap = registry.snapshot();
    assert_eq!(snap.counter("container.Ctr.writes"), Some(1));
    assert!(snap.counter("container.Ctr.store.save_bytes").unwrap() > 0);
}

fn pair_doc(n: i64) -> PropertyDoc {
    let mut doc = PropertyDoc::new();
    doc.set_i64(q("A"), n);
    doc.set_i64(q("B"), n);
    doc
}

#[test]
fn read_handler_reentering_the_store_does_not_deadlock_with_a_writer() {
    // The handler holds its document while a writer arrives on the same
    // row, then reads that row again. Were the document a borrow under
    // the shard lock, the writer would queue behind it and the second
    // read behind the writer: this test would hang, not fail.
    let store = Arc::new(MemoryStore::new());
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let (written_tx, written) = std::sync::mpsc::channel();
    let written = std::sync::Mutex::new(written);
    let clock = Clock::manual();
    let svc = ServiceBuilder::new("Pair", "inproc://m/Pair", store.clone())
        .read_operation("Reenter", move |ctx| {
            entered_tx.send(()).expect("the test is listening");
            let written = written.lock().expect("one caller");
            written.recv().expect("the writer reports");
            let again = ctx.core.store.share(&ctx.core.name, ctx.key()?).unwrap();
            let copy = ctx.core.store.load(&ctx.core.name, ctx.key()?).unwrap();
            assert_eq!(*again, copy);
            Ok(Element::new(ns::UVACG, "ReenterResponse")
                .attr("lent", ctx.resource()?.text(&q("A")).unwrap())
                .attr("stored", again.text(&q("A")).unwrap()))
        })
        .build(clock.clone(), InProcNetwork::new(clock));
    let epr = svc
        .core()
        .create_resource_with_key("p1", pair_doc(0))
        .unwrap();
    let resp = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            call(
                &svc,
                epr.clone(),
                &action_uri("Pair", "Reenter"),
                Element::new(ns::UVACG, "Reenter"),
            )
        });
        entered.recv().expect("the handler is running");
        store.save("Pair", "p1", &pair_doc(7)).unwrap();
        written_tx.send(()).unwrap();
        reader.join().expect("the handler's own checks hold")
    });
    assert!(!resp.is_fault(), "{:?}", resp.fault());
    // Snapshot isolation: what the handler was lent is the document as
    // dispatch found it; the store has moved on.
    assert_eq!(resp.body.attr_value("lent"), Some("0"));
    assert_eq!(resp.body.attr_value("stored"), Some("7"));
}

#[test]
fn readers_racing_writers_only_see_whole_documents() {
    // The writer saves straight to the store (as the scheduler's and
    // the ES's callbacks do), so no lease keeps it apart from the
    // readers; it keeps A == B in every document it saves.
    const WRITES: i64 = 2_000;
    let store = Arc::new(MemoryStore::new());
    let clock = Clock::manual();
    let svc = ServiceBuilder::new("Pair", "inproc://m/Pair", store.clone())
        .read_operation("Pair", |ctx| {
            let doc = ctx.resource()?;
            Ok(Element::new(ns::UVACG, "PairResponse")
                .attr("a", doc.text(&q("A")).unwrap())
                .attr("b", doc.text(&q("B")).unwrap()))
        })
        .build(clock.clone(), InProcNetwork::new(clock));
    let epr = svc
        .core()
        .create_resource_with_key("p1", pair_doc(0))
        .unwrap();
    let start = std::sync::Barrier::new(4);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                start.wait();
                let mut last = 0;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let resp = call(
                        &svc,
                        epr.clone(),
                        &action_uri("Pair", "Pair"),
                        Element::new(ns::UVACG, "Pair"),
                    );
                    let (a, b) = (resp.body.attr_value("a"), resp.body.attr_value("b"));
                    assert_eq!(a, b, "a torn document");
                    let n: i64 = a.expect("answered").parse().unwrap();
                    assert!(n >= last, "a reader went back in time: {last} then {n}");
                    last = n;
                }
            });
        }
        start.wait();
        for n in 1..=WRITES {
            store.save("Pair", "p1", &pair_doc(n)).unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    let end = store.share("Pair", "p1").unwrap();
    assert_eq!(end.i64(&q("A")), Some(WRITES));
}
