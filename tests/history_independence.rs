//! A Figure 3 job set costs the same whether it is the grid's first or
//! its sixtieth, and a finished one does not stay forever: the
//! Execution Service finds an accepted job by its derived key (never by
//! scanning), the Scheduler keeps one listener handler and no message
//! history, the client polls without copying its history, and terminal
//! WS-Resources expire unless their owner extends the lease. Nor does a
//! WS-RP read cost more on a wide document: it copies none of it; nor a
//! notification more than one copy of its payload per consumer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsrf_grid::node::ProcSpawn;
use wsrf_grid::notification::NotificationMessage;
use wsrf_grid::prelude::*;
use wsrf_grid::testbed::es::{self, execution_service, EsConfig};
use wsrf_grid::wsrf::store::{ResourceStore, StoreError};
use wsrf_grid::wsrf::{MemoryStore, PropertyDoc, ResourceProxy};
use wsrf_grid::xml::xpath::Path;

/// The scheduler's and the Execution Service's terminal-resource
/// retention (`uvacg`'s private `TERMINAL_RETENTION`).
const RETENTION: Duration = Duration::from_secs(3600);

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts heap allocations per thread (tests run on parallel threads).
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that itself never allocates (const-initialised `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (out, THREAD_ALLOCS.with(Cell::get) - before)
}

#[derive(Default)]
struct StoreCalls {
    loads: AtomicUsize,
    lists: AtomicUsize,
}

/// Store wrapper counting `load` and `list` calls into shared tallies.
struct CountingStore {
    inner: MemoryStore,
    calls: Arc<StoreCalls>,
}

impl ResourceStore for CountingStore {
    fn create(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.create(s, k, d)
    }
    fn load(&self, s: &str, k: &str) -> Result<PropertyDoc, StoreError> {
        self.calls.loads.fetch_add(1, Ordering::SeqCst);
        self.inner.load(s, k)
    }
    fn save(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.save(s, k, d)
    }
    fn destroy(&self, s: &str, k: &str) -> Result<(), StoreError> {
        self.inner.destroy(s, k)
    }
    fn exists(&self, s: &str, k: &str) -> bool {
        self.inner.exists(s, k)
    }
    fn list(&self, s: &str) -> Vec<String> {
        self.calls.lists.fetch_add(1, Ordering::SeqCst);
        self.inner.list(s)
    }
    fn query(&self, s: &str, p: &Path) -> Vec<String> {
        self.inner.query(s, p)
    }
    fn backend_name(&self) -> &'static str {
        "counting"
    }
}

// ---------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------

/// `CampusGrid::build` on four machines, with every machine's
/// Execution Service redeployed at its own address over a counting
/// store (the grid keeps its ES stores private).
fn grid_with_counted_es_stores() -> (CampusGrid, Arc<StoreCalls>) {
    let grid = CampusGrid::build(GridConfig::with_machines(4), Clock::manual());
    let calls = Arc::new(StoreCalls::default());
    for machine in &grid.machines {
        let name = &machine.spec.name;
        execution_service(
            EsConfig {
                machine: machine.clone(),
                spawner: Arc::new(ProcSpawn::new(machine.clone())),
                fss_address: format!("inproc://{name}/FileSystem"),
                broker: Some(grid.broker.clone()),
                security: None,
                store: Arc::new(CountingStore {
                    inner: MemoryStore::new(),
                    calls: calls.clone(),
                }),
            },
            grid.clock.clone(),
            grid.net.clone(),
        )
        .register(&grid.net);
    }
    (grid, calls)
}

/// The Figure 3 pipeline: job2 consumes job1's output.
fn figure3_spec(client: &Client) -> JobSetSpec {
    client.put_file(
        "C:\\stage1.exe",
        JobProgram::compute(1.0)
            .writing("mid.dat", 64)
            .to_manifest(),
    );
    client.put_file(
        "C:\\stage2.exe",
        JobProgram::compute(1.0)
            .reading("in.dat")
            .writing("out.dat", 1024)
            .to_manifest(),
    );
    JobSetSpec::new("fig3")
        .job(
            JobSpec::new("job1", FileRef::parse("local://C:\\stage1.exe").unwrap())
                .output("mid.dat"),
        )
        .job(
            JobSpec::new("job2", FileRef::parse("local://C:\\stage2.exe").unwrap())
                .input(FileRef::parse("job1://mid.dat").unwrap(), "in.dat")
                .output("out.dat"),
        )
}

fn run_set(grid: &CampusGrid, client: &Client, spec: &JobSetSpec) -> JobSetHandle {
    let handle = client.submit(spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(10));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    handle
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn the_sixtieth_set_costs_what_the_fifth_did() {
    let (grid, es_calls) = grid_with_counted_es_stores();
    let client = grid.client("c");
    let spec = figure3_spec(&client);
    let sched_listener = &grid.scheduler.listener;
    // (Each service lists its store once, at deployment, to number
    // fresh keys past the ones already there.)
    let lists_at_deploy = es_calls.lists.load(Ordering::SeqCst);

    let mut es_loads_per_set = Vec::new();
    let mut handlers_after_first = 0;
    for set in 1..=60 {
        let before = es_calls.loads.load(Ordering::SeqCst);
        run_set(&grid, &client, &spec);
        es_loads_per_set.push(es_calls.loads.load(Ordering::SeqCst) - before);
        if set == 1 {
            handlers_after_first = sched_listener.handler_count();
        }
    }

    assert!(es_loads_per_set[4] > 0, "the ES store is on the path");
    assert_eq!(
        es_loads_per_set[59], es_loads_per_set[4],
        "ES documents loaded per set must not grow with history: {es_loads_per_set:?}"
    );
    assert_eq!(
        es_calls.lists.load(Ordering::SeqCst),
        lists_at_deploy,
        "Run finds an accepted job by key, never by listing"
    );

    // The scheduler's listener: one handler however many sets ran, and
    // deliveries counted but not retained.
    assert_eq!(sched_listener.handler_count(), handlers_after_first);
    assert!(
        sched_listener.total() >= 60 * 2,
        "events are still delivered"
    );
    assert_eq!(sched_listener.count(), 0, "and none of them is kept");
}

#[test]
fn terminal_resources_expire_unless_the_client_extends_the_lease() {
    let (grid, _) = grid_with_counted_es_stores();
    let client = grid.client("c");
    let spec = figure3_spec(&client);

    let forgotten = run_set(&grid, &client, &spec);
    let kept = run_set(&grid, &client, &spec);
    let forgotten_job = forgotten.job_epr("job2").expect("started event seen");
    assert_eq!(es::job_status(&grid.net, &forgotten_job).unwrap(), "Exited");
    assert_eq!(client.rediscover(None).unwrap().len(), 2);

    // The standard WS-ResourceLifetime extension, by the owner.
    ResourceProxy::new(&grid.net, kept.jobset.clone())
        .set_termination_time(Some(grid.clock.now() + 3 * RETENTION))
        .unwrap();

    let expired_before = grid.metrics.counter("events.lease_expiry").get();
    grid.clock.advance(RETENTION + Duration::from_secs(1));

    let gone = forgotten.status().unwrap_err();
    assert_eq!(gone.error_code(), Some("wsrf:NoSuchResource"));
    let gone = es::job_status(&grid.net, &forgotten_job).unwrap_err();
    assert_eq!(gone.error_code(), Some("wsrf:NoSuchResource"));
    assert!(
        grid.metrics.counter("events.lease_expiry").get() >= expired_before + 3,
        "one job set and two jobs expired at least"
    );

    let found = client.rediscover(None).unwrap();
    assert_eq!(found.len(), 1, "only the extended set is still listed");
    assert_eq!(found[0].jobset, kept.jobset);
    assert_eq!(kept.status().unwrap(), "Completed");
    assert_eq!(kept.fetch_output("job2", "out.dat").unwrap().len(), 1024);
}

#[test]
fn polling_the_outcome_copies_no_history() {
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let client = grid.client("c");
    let spec = figure3_spec(&client);

    // 10 000 unrelated notifications ahead of the set's own events.
    let listener = client.listener();
    for i in 0..10_000 {
        let msg =
            NotificationMessage::new("elsewhere/noise", Element::local("N").text(i.to_string()));
        grid.net
            .send_oneway(&listener.epr().address, msg.to_envelope(&listener.epr()))
            .unwrap();
    }
    assert_eq!(listener.count(), 10_000);
    let handle = run_set(&grid, &client, &spec);

    // Cloning the history costs several blocks per message; a borrowing
    // scan costs a handful in total (two topic paths, the result).
    let (_, copying) = allocs_during(|| listener.received());
    assert!(
        copying > 10_000,
        "the probe sees a history clone: {copying}"
    );
    let (outcome, polling) = allocs_during(|| handle.outcome());
    assert_eq!(outcome, Some(JobSetOutcome::Completed));
    assert!(polling < 32, "outcome() allocated {polling} blocks");
    let (dir, looking) = allocs_during(|| handle.job_epr("job2"));
    assert!(dir.is_some());
    assert!(looking < 64, "job_epr() allocated {looking} blocks");
}

#[test]
fn a_property_read_copies_none_of_the_document_it_reads() {
    use wsrf_grid::soap::{ns, MessageInfo};
    use wsrf_grid::wsrf::porttypes::wsrp_action;
    use wsrf_grid::wsrf::ServiceBuilder;
    use wsrf_grid::xml::QName;

    // The ledger's read workload in small: one of twelve properties.
    let store = Arc::new(MemoryStore::new());
    let clock = Clock::manual();
    let svc = ServiceBuilder::new("Wide", "inproc://m/Wide", store.clone())
        .build(clock.clone(), InProcNetwork::new(clock));
    let mut doc = PropertyDoc::new();
    for i in 0..12 {
        let name = QName::new(ns::UVACG, format!("P{i:02}"));
        doc.set_text(name, format!("value-{i}"));
    }
    let epr = svc.core().create_resource_with_key("w1", doc).unwrap();
    let body = Element::new(ns::WSRP, "GetResourceProperty").text("P07");
    let mut env = Envelope::new(body);
    MessageInfo::request(epr, wsrp_action("GetResourceProperty")).apply(&mut env);
    let wire = env.to_xml();
    svc.dispatch_wire(&wire); // warm

    let (resp, dispatch) = allocs_during(|| svc.dispatch_wire(&wire));
    assert_eq!(resp.body.text_content(), "value-7");
    // 73 blocks when dispatch loaded a copy of the document (37 of
    // them the copy); what is left is the scan, the answer and its one
    // value.
    assert!(dispatch <= 36, "the dispatch allocated {dispatch} blocks");
    let (_, sharing) = allocs_during(|| store.share("Wide", "w1").unwrap());
    assert_eq!(sharing, 0, "MemoryStore::share hands out its row");
}

/// Blocks this thread allocates for one brokered publish of `payload`
/// to `consumers` counting listeners with one matching handler each,
/// on the inline (manual-clock) fan-out: the publisher's thread runs
/// the broker, the network and every listener, so its tally is the
/// whole cost.
fn publish_blocks(payload: &Element, consumers: usize) -> u64 {
    use wsrf_grid::notification::{broker, NotificationListener, TopicExpression};

    let clock = Clock::manual();
    let net = InProcNetwork::new(clock.clone());
    let b = broker::notification_broker(
        "Broker",
        "inproc://hub/Broker",
        Arc::new(MemoryStore::new()),
        clock,
        net.clone(),
    );
    b.register(&net);
    let broker_epr = b.core().service_epr();
    let heard = Arc::new(AtomicUsize::new(0));
    for k in 0..consumers {
        let l = NotificationListener::register_counting(&net, &format!("inproc://alloc/c{k}"));
        let n = heard.clone();
        l.on_topic(TopicExpression::full("alloc//"), move |m| {
            n.fetch_add(m.payload.children.len(), Ordering::SeqCst);
        });
        let under = TopicExpression::full("alloc//");
        broker::subscribe(&net, &broker_epr, &l.epr(), &under, None).unwrap();
    }
    let msg = NotificationMessage::new("alloc/evt", payload.clone());
    broker::publish(&net, &broker_epr, &msg).unwrap(); // warm
    let (_, blocks) = allocs_during(|| broker::publish(&net, &broker_epr, &msg).unwrap());
    assert_eq!(
        heard.load(Ordering::SeqCst),
        2 * consumers * payload.children.len(),
        "every handler saw the whole payload, both times"
    );
    blocks
}

#[test]
fn one_more_consumer_costs_one_delivery_and_one_copy_of_the_payload() {
    // The step from two consumers to three is one delivery: envelope
    // built, sized, decoded by the listener, handed to its handler.
    let delivery = |payload: &Element| publish_blocks(payload, 3) - publish_blocks(payload, 2);
    let small = Element::local("Evt").text("7");
    let wide = Element::local("Evt")
        .children((0..40).map(|i| Element::local("Field").text(format!("value-{i}"))));
    let (_, small_copy) = allocs_during(|| small.clone());
    let (_, wide_copy) = allocs_during(|| wide.clone());
    assert!(
        wide_copy > 80,
        "the probe sees a payload clone: {wide_copy}"
    );

    // 43 blocks when the listener cloned each message out of the
    // envelope and again per handler, the network parsed the address
    // into owned strings twice and the fan-out copied it once more.
    let blocks = delivery(&small);
    assert_eq!(blocks, 32, "blocks per inline delivery");
    // The payload is copied once — into the envelope the broker builds
    // for this consumer — and moved from there to the handler.
    assert_eq!(
        delivery(&wide) - blocks,
        wide_copy - small_copy,
        "the payload was copied more than once on its way to the handler"
    );
}
