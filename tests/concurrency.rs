//! Concurrency regressions for the dispatch pipeline: per-resource
//! leases (no lost updates, whether the writer is a dispatch or a
//! `ServiceCore::edit`), read/write op classification (reads never
//! save), destroy-vs-dispatch interleavings, and the shared snapshot a
//! read is lent (no lock held, never torn).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use wsrf_grid::prelude::*;
use wsrf_grid::soap::ns;
use wsrf_grid::wsrf::container::{action_uri, Service, ServiceBuilder};
use wsrf_grid::wsrf::porttypes::{wsrl_action, wsrp_action};
use wsrf_grid::wsrf::properties::PropertyDoc;
use wsrf_grid::wsrf::servicegroup::{self, MembershipContentRule, GROUP_KEY};
use wsrf_grid::wsrf::store::{MemoryStore, ResourceStore, StoreError};
use wsrf_grid::wsrf::{Outbound, ResourceProxy};
use wsrf_grid::xml::xpath::Path;
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

/// A store that makes the next two readers of one row meet: once armed
/// for a key, the first `load` or `share` of it reads the row and then
/// waits until a second read arrives or 200 ms pass. Two writers that
/// read the row with no lease held are sure to edit the same version;
/// under the lease the second cannot read before the first has saved,
/// and the wait times out.
#[derive(Default)]
struct Rendezvous {
    rows: MemoryStore,
    /// The armed key and how many of its readers have arrived.
    armed: Mutex<Option<(String, usize)>>,
    met: Condvar,
}

impl Rendezvous {
    fn arm(&self, key: &str) {
        *self.armed.lock().unwrap() = Some((key.to_string(), 0));
    }

    fn meet(&self, key: &str) {
        let mut armed = self.armed.lock().unwrap();
        let Some((armed_key, readers)) = armed.as_mut() else {
            return;
        };
        if armed_key != key {
            return;
        }
        *readers += 1;
        if *readers == 2 {
            self.met.notify_all();
            return;
        }
        let alone = |a: &mut Option<(String, usize)>| a.as_ref().is_some_and(|(_, n)| *n < 2);
        let (mut armed, _) = self
            .met
            .wait_timeout_while(armed, Duration::from_millis(200), alone)
            .unwrap();
        *armed = None;
    }
}

impl ResourceStore for Rendezvous {
    fn create(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), StoreError> {
        self.rows.create(s, k, d)
    }
    fn load(&self, s: &str, k: &str) -> Result<PropertyDoc, StoreError> {
        let row = self.rows.load(s, k);
        self.meet(k);
        row
    }
    fn share(&self, s: &str, k: &str) -> Result<Arc<PropertyDoc>, StoreError> {
        let row = self.rows.share(s, k);
        self.meet(k);
        row
    }
    fn save(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), StoreError> {
        self.rows.save(s, k, d)
    }
    fn destroy(&self, s: &str, k: &str) -> Result<(), StoreError> {
        self.rows.destroy(s, k)
    }
    fn exists(&self, s: &str, k: &str) -> bool {
        self.rows.exists(s, k)
    }
    fn list(&self, s: &str) -> Vec<String> {
        self.rows.list(s)
    }
    fn query(&self, s: &str, p: &Path) -> Vec<String> {
        self.rows.query(s, p)
    }
    fn backend_name(&self) -> &'static str {
        "rendezvous"
    }
}

#[test]
fn concurrent_group_adds_keep_every_entry() {
    let store = Arc::new(Rendezvous::default());
    let clock = Clock::manual();
    let group = servicegroup::service_group(
        "Group",
        "inproc://m/Group",
        store.clone(),
        MembershipContentRule::default(),
        clock.clone(),
        InProcNetwork::new(clock),
    );
    store.arm(GROUP_KEY);
    std::thread::scope(|s| {
        for member in ["inproc://m1/Proc", "inproc://m2/Proc"] {
            let group = &group;
            s.spawn(move || {
                let add = Element::new(ns::WSSG, "Add").child(
                    EndpointReference::service(member).to_element_named(ns::WSSG, "MemberEPR"),
                );
                let action = servicegroup::group_action("Group", "Add");
                let resp = call(group, group.core().service_epr(), &action, add);
                assert!(!resp.is_fault(), "{:?}", resp.fault());
            });
        }
    });
    let entries = store.share("Group", GROUP_KEY).unwrap();
    assert_eq!(
        entries.get(&servicegroup::entry_property()).len(),
        2,
        "an Add lost the other's Entry"
    );
}

#[test]
fn a_dispatch_racing_a_background_edit_keeps_both_writes() {
    let store = Arc::new(Rendezvous::default());
    let config = GridConfig::with_machines(1).with_scheduler_store(store.clone());
    let grid = CampusGrid::build(config, Clock::manual());
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
    let exe = FileRef::parse("local://C:\\p.exe").unwrap();
    let spec = JobSetSpec::new("race").job(JobSpec::new("worker", exe));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    let key = handle.jobset.resource_key().unwrap().to_string();
    let until = grid.clock.now() + Duration::from_secs(7200);

    store.arm(&key);
    std::thread::scope(|s| {
        // The job exits, and the Scheduler records Figure 3 step 10 on
        // the job set from its event handler...
        s.spawn(|| grid.clock.advance(Duration::from_secs(10)));
        // ...while a client extends the job set's lifetime.
        ResourceProxy::new(&grid.net, handle.jobset.clone())
            .set_termination_time(Some(until))
            .unwrap();
    });

    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    let set = store.share("Scheduler", &key).unwrap();
    assert!(
        !set.get(&QName::new(ns::WSRL, "TerminationTime")).is_empty(),
        "the client's TerminationTime was lost"
    );
    assert!(
        set.get(&q("StepMetric"))
            .iter()
            .any(|m| m.attr_value("step") == Some("10")),
        "the Scheduler's step 10 was lost"
    );
}
