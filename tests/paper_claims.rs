//! The paper's §5 claims as exact assertions (EXPERIMENTS.md E3–E8).
//!
//! Everything here runs on the manual virtual clock, so every number is
//! a model output that repeats bit for bit. Each test renders its table
//! the way EXPERIMENTS.md prints it and asserts that the document
//! contains it verbatim: the document is the expected value. Wall-clock
//! costs are measured by the `benchmark/` ledger, not here.
//!
//! The last test pins what the metrics registry records over one
//! durable Figure 3 run against `tests/expected_metrics.json`, byte for
//! byte.

// Handler faults are rich by design (see wsrf-core).
#![allow(clippy::result_large_err)]

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use common::{assert_documented, ratio, table, TempDir};
use wsrf_grid::node::ProcSpawn;
use wsrf_grid::notification::broker::{notification_broker, publish, subscribe};
use wsrf_grid::notification::consumer::NotificationListener;
use wsrf_grid::notification::message::NotificationMessage;
use wsrf_grid::notification::producer::NotificationProducer;
use wsrf_grid::notification::topics::TopicExpression;
use wsrf_grid::obs::{HistogramStats, MetricValue};
use wsrf_grid::prelude::*;
use wsrf_grid::soap::ns::{UVACG, WSRP};
use wsrf_grid::testbed::baseline::{self, single_file_server};
use wsrf_grid::wsrf::container::{action_uri, Service, ServiceBuilder};
use wsrf_grid::wsrf::porttypes::wsrp_action;
use wsrf_grid::wsrf::store::ColumnType;
use wsrf_grid::wsrf::{
    BlobStore, MemoryStore, Outbound, PropertyDoc, ResourceStore, StructuredStore,
};
use wsrf_grid::xml::parser::thread_parse_counts;
use wsrf_grid::xml::QName;

fn q(local: &str) -> QName {
    QName::new(UVACG, local)
}

/// A job-like property document: four properties plus `extra` more.
fn job_doc(extra: usize) -> PropertyDoc {
    let mut doc = PropertyDoc::new();
    doc.set_text(q("JobName"), "bench-job");
    doc.set_text(q("Status"), "Running");
    doc.set_f64(q("CpuTime"), 12.5);
    doc.set_i64(q("Pid"), 4242);
    for i in 0..extra {
        doc.set_text(q(&format!("Extra{i}")), format!("value-{i}"));
    }
    doc
}

/// The structured store's schema for [`job_doc`].
fn job_schema(extra: usize) -> Vec<(QName, ColumnType)> {
    let mut cols = vec![
        (q("JobName"), ColumnType::Text),
        (q("Status"), ColumnType::Text),
        (q("CpuTime"), ColumnType::Float),
        (q("Pid"), ColumnType::Int),
    ];
    cols.extend((0..extra).map(|i| (q(&format!("Extra{i}")), ColumnType::Text)));
    cols
}

/// A client of `grid` holding a `cpu`-second program that writes a
/// 1 KiB `out.dat`, under `local://C:\prog.exe`.
fn client_with_program(grid: &CampusGrid, cpu: f64) -> Client {
    let client = grid.client("bench");
    client.put_file(
        "C:\\prog.exe",
        JobProgram::compute(cpu)
            .writing("out.dat", 1024)
            .to_manifest(),
    );
    client
}

/// A job set of `n` jobs shaped as asked: `independent`, a `chain`, a
/// `fanout` from one root, or chained `diamond`s (root → left, right →
/// join).
fn shaped_spec(shape: &str, n: usize) -> JobSetSpec {
    let exe = FileRef::parse("local://C:\\prog.exe").unwrap();
    let output_of = |job: &str| FileRef::parse(&format!("{job}://out.dat")).unwrap();
    let job = |name: &str| JobSpec::new(name, exe.clone()).output("out.dat");
    let mut spec = JobSetSpec::new(format!("{shape}-{n}"));
    match shape {
        "independent" => {
            for i in 0..n {
                spec = spec.job(job(&format!("j{i}")));
            }
        }
        "chain" => {
            spec = spec.job(job("j0"));
            for i in 1..n {
                let prev = output_of(&format!("j{}", i - 1));
                spec = spec.job(job(&format!("j{i}")).input(prev, "prev.dat"));
            }
        }
        "fanout" => {
            spec = spec.job(job("root"));
            for i in 1..n {
                spec = spec.job(job(&format!("j{i}")).input(output_of("root"), "seed.dat"));
            }
        }
        "diamond" => {
            spec = spec.job(job("j0"));
            let mut prev = "j0".to_string();
            let mut i = 1;
            while i + 2 < n {
                let (l, r, join) = (
                    format!("j{i}"),
                    format!("j{}", i + 1),
                    format!("j{}", i + 2),
                );
                for side in [&l, &r] {
                    spec = spec.job(job(side).input(output_of(&prev), "in.dat"));
                }
                spec = spec.job(
                    job(&join)
                        .input(output_of(&l), "a.dat")
                        .input(output_of(&r), "b.dat"),
                );
                prev = join;
                i += 3;
            }
        }
        _ => panic!("unknown job-set shape {shape}"),
    }
    spec
}

/// Advances the manual clock a second at a time until the set
/// completes; returns the virtual makespan in seconds.
fn drive(grid: &CampusGrid, handle: &JobSetHandle) -> f64 {
    let start = grid.clock.now();
    for _ in 0..5000 {
        if handle.outcome().is_some() {
            break;
        }
        grid.clock.advance(Duration::from_secs(1));
    }
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    (grid.clock.now() - start).as_secs_f64()
}

/// E3: chains serialize, fan-outs parallelize after the root, and the
/// traffic of Figure 3's ten steps grows linearly with the jobs.
#[test]
fn e3_job_set_makespan_and_traffic() {
    let mut rows = Vec::new();
    for (shape, n) in [
        ("independent", 4),
        ("independent", 16),
        ("chain", 4),
        ("chain", 8),
        ("fanout", 8),
        ("diamond", 7),
    ] {
        let grid = CampusGrid::build(GridConfig::with_machines(4), Clock::manual());
        let client = client_with_program(&grid, 5.0);
        let (c0, o0, b0, _) = grid.net.metrics.snapshot();
        let handle = client
            .submit(&shaped_spec(shape, n), "griduser", "gridpass")
            .unwrap();
        let makespan = drive(&grid, &handle);
        let (c1, o1, b1, _) = grid.net.metrics.snapshot();
        rows.push(vec![
            format!("{shape} × {n}"),
            format!("{makespan:.1} s"),
            (c1 - c0).to_string(),
            (o1 - o0).to_string(),
            (b1 - b0).to_string(),
        ]);
    }
    assert_documented(&table(
        &[
            "job set",
            "virtual makespan",
            "calls",
            "one-way msgs",
            "payload bytes",
        ],
        &rows,
    ));
}

/// E4: the broker costs exactly one message more per publish than
/// notifying every consumer directly, at any fan-out.
#[test]
fn e4_a_brokered_publish_costs_one_message_more() {
    let mut rows = Vec::new();
    for subscribers in [1u64, 10, 100] {
        let net = InProcNetwork::new(Clock::manual());
        let producer =
            NotificationProducer::new(EndpointReference::service("inproc://p/s"), net.clone());
        for i in 0..subscribers {
            let l = NotificationListener::register(&net, &format!("inproc://c{i}/l"));
            producer
                .subscriptions
                .subscribe(l.epr(), TopicExpression::full("js//"));
        }
        let (c0, o0, _, _) = net.metrics.snapshot();
        producer.notify("js/job/exit", Element::local("E"));
        let (c1, o1, _, _) = net.metrics.snapshot();
        let direct = (c1 - c0, o1 - o0);

        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let broker = notification_broker(
            "Broker",
            "inproc://hub/Broker",
            Arc::new(MemoryStore::new()),
            clock,
            net.clone(),
        );
        broker.register(&net);
        let bepr = broker.core().service_epr();
        for i in 0..subscribers {
            let l = NotificationListener::register(&net, &format!("inproc://c{i}/l"));
            subscribe(&net, &bepr, &l.epr(), &TopicExpression::full("js//"), None).unwrap();
        }
        let (c0, o0, _, _) = net.metrics.snapshot();
        publish(
            &net,
            &bepr,
            &NotificationMessage::new("js/job/exit", Element::local("E")),
        )
        .unwrap();
        let (c1, o1, _, _) = net.metrics.snapshot();
        let brokered = (c1 - c0, o1 - o0);

        assert_eq!(direct, (0, subscribers));
        assert_eq!(brokered, (0, subscribers + 1));
        rows.push(vec![
            subscribers.to_string(),
            direct.1.to_string(),
            brokered.1.to_string(),
        ]);
    }
    assert_documented(&table(
        &["subscribers", "direct msgs", "brokered msgs"],
        &rows,
    ));
}

/// E5: `soap.tcp` beats HTTP's base64 at every size, by the most where
/// per-message overhead dominates, and by 4/3 in the limit.
#[test]
fn e5_modeled_campus_transfer_time() {
    let cfg = NetConfig::campus();
    let ms = |d: Duration| format!("{:.1} ms", d.as_secs_f64() * 1e3);
    let mut rows = Vec::new();
    for (label, size) in [
        ("10 KB", 10_000u64),
        ("1 MB", 1_000_000),
        ("10 MB", 10_000_000),
        ("100 MB", 100_000_000),
    ] {
        let http = cfg.transfer_time("http", "m1", size);
        let tcp = cfg.transfer_time("soap.tcp", "m1", size);
        rows.push(vec![
            label.to_string(),
            ms(http),
            ms(tcp),
            ratio(http.as_secs_f64(), tcp.as_secs_f64()),
        ]);
    }
    assert_documented(&table(
        &["file size", "http (base64)", "soap.tcp (WSE)", "http/tcp"],
        &rows,
    ));
}

/// E6: on a heterogeneous, under-subscribed grid the load-aware
/// policies beat the load-blind ones, and feedback costs nothing when
/// there is nothing to learn.
#[test]
fn e6_placement_policy_makespan() {
    let policies: Vec<(&str, Arc<dyn SchedulingPolicy>)> = vec![
        ("fastest-available (paper)", Arc::new(FastestAvailable)),
        ("round-robin", Arc::new(RoundRobin::default())),
        ("random", Arc::new(Random::new(12345))),
        ("least-loaded", Arc::new(LeastLoaded)),
        ("metrics-feedback", Arc::new(MetricsFeedback::new())),
    ];
    let mut rows = Vec::new();
    let mut paper = None;
    for (name, policy) in policies {
        let grid = CampusGrid::build(
            GridConfig::with_machines(8).with_policy(policy),
            Clock::manual(),
        );
        let handle = client_with_program(&grid, 30.0)
            .submit(&shaped_spec("independent", 6), "griduser", "gridpass")
            .unwrap();
        let makespan = drive(&grid, &handle);
        let paper = *paper.get_or_insert(makespan);
        rows.push(vec![
            name.to_string(),
            format!("{makespan:.1} s"),
            ratio(makespan, paper),
        ]);
    }
    assert_documented(&table(
        &["policy", "virtual makespan", "vs paper policy"],
        &rows,
    ));
}

/// E7: typed columns answer a query the others scan for, and the
/// write-ahead log replays every resource from a log of a known size.
#[test]
fn e7_store_queries_and_replay() {
    let n = 1000;
    let running = wsrf_grid::xml::xpath::Path::parse("/Properties[Status='Running']").unwrap();
    let populate = |store: &dyn ResourceStore| {
        for i in 0..n {
            let mut doc = job_doc(8);
            if i % 2 == 0 {
                doc.set_text(q("Status"), "Exited");
            }
            store.create("Bench", &format!("r{i}"), &doc).unwrap();
        }
        store.query("Bench", &running).len().to_string()
    };
    let structured = StructuredStore::new();
    structured.define_schema("Bench", job_schema(8));
    let mut rows: Vec<Vec<String>> = [
        (
            "memory",
            Arc::new(MemoryStore::new()) as Arc<dyn ResourceStore>,
        ),
        ("blob", Arc::new(BlobStore::new())),
        ("structured", Arc::new(structured)),
    ]
    .into_iter()
    .map(|(name, store)| vec![name.into(), populate(&*store), "—".into(), "—".into()])
    .collect();

    let dir = TempDir::new("paper-claims-e7");
    let durable = DurableStore::open(&dir.0, Arc::new(MemoryStore::new())).unwrap();
    let matches = populate(&durable);
    drop(durable);
    let log_bytes: u64 = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len())
        .sum();
    let reopened = DurableStore::open(&dir.0, Arc::new(MemoryStore::new())).unwrap();
    rows.push(vec![
        "durable (wal/memory)".into(),
        matches,
        reopened.list("Bench").len().to_string(),
        log_bytes.to_string(),
    ]);
    assert!(rows.iter().all(|row| row[1] == (n / 2).to_string()));
    assert_documented(&table(
        &[
            "backend",
            "matches (half)",
            "resources after reopen",
            "log bytes",
        ],
        &rows,
    ));
}

/// E8: polling trades traffic against detection latency; push removes
/// both.
#[test]
fn e8_polling_vs_push() {
    let mut rows = Vec::new();
    for interval in [1u64, 5, 15, 60] {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let machine = Machine::new(MachineSpec::new("m1"), clock.clone());
        let spawner = Arc::new(ProcSpawn::new(machine.clone()));
        let manager = baseline::job_manager(
            "inproc://hub/JobManager",
            vec![("m1".into(), machine, spawner)],
            clock.clone(),
            net.clone(),
        );
        manager.register(&net);
        let src = single_file_server(
            &net,
            "soap.tcp://client/files",
            "prog.exe",
            JobProgram::compute(61.3).to_manifest(),
        );
        let id = baseline::submit(
            &net,
            "inproc://hub/JobManager",
            &src,
            "prog.exe",
            "griduser",
            "gridpass",
        )
        .unwrap();
        let (c0, _, _, _) = net.metrics.snapshot();
        let mut polls = 0;
        let detected_at = loop {
            clock.advance(Duration::from_secs(interval));
            polls += 1;
            if baseline::poll(&net, "inproc://hub/JobManager", id)
                .unwrap()
                .is_some()
            {
                break clock.now().as_secs_f64();
            }
        };
        let (c1, _, _, _) = net.metrics.snapshot();
        rows.push(vec![
            format!("poll every {interval} s"),
            (c1 - c0).to_string(),
            polls.to_string(),
            format!("{:.1} s", detected_at - 61.3),
        ]);
    }
    rows.push(vec![
        "WS-Notification push".into(),
        "0".into(),
        "0".into(),
        "0.0 s".into(),
    ]);
    assert_documented(&table(
        &[
            "client strategy",
            "status calls",
            "poll rounds",
            "detection latency",
        ],
        &rows,
    ));
}

/// Histograms in virtual time are model outputs; every other histogram
/// samples the wall clock.
fn is_virtual(name: &str) -> bool {
    name.ends_with(".virt_ns")
        || name.contains(".modeled")
        || name.starts_with("scheduler.step.")
        || name == "scheduler.makespan_ns"
}

/// What a deterministic run must reproduce exactly: every counter and
/// gauge, every virtual-time histogram whole, and of a wall-clock
/// histogram its sample count (its other fields are written as 0).
fn pinned(snapshot: MetricsSnapshot) -> MetricsSnapshot {
    let entries = snapshot
        .entries
        .into_iter()
        .map(|(name, value)| match value {
            MetricValue::Histogram(h) if !is_virtual(&name) => {
                let count = HistogramStats {
                    count: h.count,
                    ..HistogramStats::default()
                };
                (name, MetricValue::Histogram(count))
            }
            value => (name, value),
        })
        .collect();
    MetricsSnapshot { entries }
}

/// Every metric whose pinned value differs between the two dumps.
fn differing(expected: &str, fresh: &MetricsSnapshot) -> Vec<String> {
    let expected = match MetricsSnapshot::from_json(expected) {
        Ok(snapshot) => snapshot,
        Err(e) => return vec![format!("tests/expected_metrics.json {e}")],
    };
    let by_name = |s: &MetricsSnapshot| -> BTreeMap<String, MetricValue> {
        s.entries.iter().cloned().collect()
    };
    let (expected, fresh) = (by_name(&expected), by_name(fresh));
    let names: BTreeSet<&String> = expected.keys().chain(fresh.keys()).collect();
    let mut diffs: Vec<String> = names
        .into_iter()
        .filter(|name| expected.get(*name) != fresh.get(*name))
        .map(|name| {
            let (e, f) = (expected.get(name), fresh.get(name));
            format!("{name}: expected {e:?}, got {f:?}")
        })
        .collect();
    if diffs.is_empty() {
        diffs.push("same values, different text (a derived `mean`?)".into());
    }
    diffs
}

/// The inbound-parse fixture: a job-like service with one resource and
/// a custom read op that answers from resource state without opening
/// the request body; returns the service and its request pair, a WS-RP
/// single-property read and a 12-property traced `Poll`.
fn parse_fixture() -> (Arc<Service>, [String; 2]) {
    let clock = Clock::manual();
    let net = InProcNetwork::new(clock.clone());
    let svc = ServiceBuilder::new(
        "Job",
        "inproc://machine01/Job",
        Arc::new(MemoryStore::new()),
    )
    .read_operation("Poll", |ctx| {
        let doc = ctx.resource()?;
        Ok(Element::new(UVACG, "PollResponse").text(doc.text(&q("Status")).unwrap_or_default()))
    })
    .build(clock, net);
    let epr = svc
        .core()
        .create_resource_with_key("job-1", job_doc(0))
        .unwrap();
    let get = Outbound::new(
        epr.clone(),
        wsrp_action("GetResourceProperty"),
        Element::new(WSRP, "GetResourceProperty").text(format!("{{{UVACG}}}Status")),
    );
    let mut body = Element::new(UVACG, "Poll");
    for i in 0..12 {
        body.push_child(Element::new(UVACG, format!("Prop{i}")).text(format!("value-{i}")));
    }
    let trace = TraceContext::new(0x7ace, 0x2, true);
    let poll = Outbound::new(epr, action_uri("Job", "Poll"), body).trace(Some(&trace));
    let wires = [get, poll].map(|o| o.into_envelope().to_xml());
    (svc, wires)
}

/// One diamond × 7 set on a campus network with tracing on and a
/// scheduler over a write-ahead log, the log then reopened into the
/// same registry, and the parse budgets of the lazy and the DOM-first
/// dispatch paths: every counter, every gauge and every virtual-time
/// histogram must come out exactly as `tests/expected_metrics.json`
/// has them. On a mismatch the fresh file is written under the cargo
/// target's test tmpdir, and copying it over the committed one
/// re-blesses the pin.
#[test]
fn figure3_run_metrics_match_the_committed_pin() {
    let wal = TempDir::new("paper-claims-wal");
    let durable = Arc::new(DurableStore::open(&wal.0, Arc::new(MemoryStore::new())).unwrap());
    let grid = CampusGrid::build(
        GridConfig::with_machines(4)
            .with_net(NetConfig::campus())
            .with_tracing(TraceConfig::enabled())
            .with_scheduler_store(durable as Arc<dyn ResourceStore>),
        Clock::manual(),
    );
    let handle = client_with_program(&grid, 5.0)
        .submit(&shaped_spec("diamond", 7), "griduser", "gridpass")
        .unwrap();
    drive(&grid, &handle);
    // `recovery.records` is what the run left in the log; writing every
    // document back (empty deltas) and compacting pins the framing.
    let recovered =
        DurableStore::open_with(&wal.0, Arc::new(MemoryStore::new()), Some(&grid.metrics)).unwrap();
    for key in recovered.list("Scheduler") {
        let doc = recovered.load("Scheduler", &key).unwrap();
        recovered.save("Scheduler", &key, &doc).unwrap();
    }
    recovered.snapshot_all().unwrap();
    drop(recovered);

    // The grid is in-process (envelopes move by reference), so the wire
    // parser is driven here: this thread's parse tallies around each
    // path become the `parse.*` counters.
    let (svc, wires) = parse_fixture();
    let tally = |path: &str, dispatch: &dyn Fn(&str) -> Envelope| {
        let (events, doms) = thread_parse_counts();
        for wire in &wires {
            assert!(!dispatch(wire).is_fault());
        }
        let (events_after, doms_after) = thread_parse_counts();
        let counter = |what: &str| grid.metrics.counter(&format!("parse.{path}.{what}"));
        counter("dom_builds").add(doms_after - doms);
        counter("events").add(events_after - events);
    };
    tally("lazy", &|wire| svc.dispatch_wire(wire));
    tally("domfirst", &|wire| {
        svc.dispatch(Envelope::parse(wire).unwrap())
    });

    let fresh = pinned(grid.metrics_snapshot());
    let expected = include_str!("expected_metrics.json");
    if fresh.to_json() != expected {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("expected_metrics.json");
        std::fs::write(&out, fresh.to_json()).unwrap();
        panic!(
            "the run's metrics differ from tests/expected_metrics.json:\n  {}\n\
             the fresh pin is {}; to accept the change, copy it over the committed file",
            differing(expected, &fresh).join("\n  "),
            out.display()
        );
    }
}
