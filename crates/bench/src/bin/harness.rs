//! Regenerates the EXPERIMENTS.md tables that no `benchmark/` ledger
//! workload measures, and the metrics dump the regression gate pins.
//!
//! ```text
//! cargo run -p bench --bin harness --release              # everything
//! cargo run -p bench --bin harness --release -- e7 e14    # named experiments
//! cargo run -p bench --bin harness --release -- metrics   # BENCH_metrics.json only
//! ```
//!
//! Virtual-time and message-count numbers (E3, E5, E6, E6b, E8) are
//! exact model outputs. The wall-clock tables (E2, E4, E7, E9, E14)
//! are small in-process medians of the paper's comparisons; end-to-end
//! and per-layer wall-clock costs — dispatch, serialization, transports,
//! the broker's delivery lag, the observability tax — are measured by
//! the committed ledger in `benchmark/`, and only there.

#![allow(clippy::result_large_err)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{
    bench_service, drive, grid_with_client, job_doc, job_schema, print_table, q, request,
    shaped_spec, JobProgram,
};
use grid_node::{Machine, MachineSpec, ProcSpawn};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simclock::Clock;
use uvacg::baseline::{self, single_file_server};
use uvacg::{
    CampusGrid, FastestAvailable, GridConfig, LeastLoaded, MetricsFeedback, Random, RoundRobin,
    SchedulingPolicy,
};
use ws_notification::broker::{notification_broker, publish, subscribe};
use ws_notification::consumer::NotificationListener;
use ws_notification::message::NotificationMessage;
use ws_notification::producer::NotificationProducer;
use ws_notification::topics::TopicExpression;
use wsrf_core::porttypes::{wsrp_action, XPATH_DIALECT};
use wsrf_core::store::{BlobStore, MemoryStore, ResourceStore, StructuredStore};
use wsrf_core::{DurableStore, Outbound};
use wsrf_obs::{EventKind, MetricsRegistry, ObsConfig, Severity, TraceConfig};
use wsrf_soap::ns::{UVACG, WSRP};
use wsrf_soap::{EndpointReference, Envelope, TraceContext};
use wsrf_transport::http::{http_get, HttpConfig, HttpSoapServer};
use wsrf_transport::{FnEndpoint, InProcNetwork, NetConfig};
use wsrf_xml::Element;

/// Median wall time of `f` over `n` runs.
fn time_median(n: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Wall time per iteration over a batch (for sub-microsecond work).
fn time_per_iter(iters: u32, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed() / iters
}

fn fmt_us(d: Duration) -> String {
    format!("{:.2} µs", d.as_secs_f64() * 1e6)
}

fn e2_properties() {
    let clock = Clock::manual();
    let net = InProcNetwork::new(clock.clone());
    let svc = wsrf_core::container::ServiceBuilder::new(
        "Props",
        "inproc://bench/Props",
        Arc::new(MemoryStore::new()),
    )
    .operation("CustomGetInfo", |ctx| {
        let doc = ctx.resource_mut()?;
        Ok(Element::new(UVACG, "R")
            .attr("status", doc.text(&q("Status")).unwrap_or_default())
            .attr("cpu", doc.text(&q("CpuTime")).unwrap_or_default()))
    })
    .build(clock, net);
    let epr = svc
        .core()
        .create_resource_with_key("r1", job_doc(8))
        .unwrap();

    let mk =
        |body: Element, action: String| Outbound::new(epr.clone(), action, body).into_envelope();
    let cases: Vec<(&str, Envelope)> = vec![
        (
            "GetResourceProperty",
            mk(
                Element::new(WSRP, "GetResourceProperty").text("Status"),
                wsrp_action("GetResourceProperty"),
            ),
        ),
        (
            "GetMultipleResourceProperties (3)",
            mk(
                Element::new(WSRP, "GetMultipleResourceProperties")
                    .child(Element::new(WSRP, "ResourceProperty").text("Status"))
                    .child(Element::new(WSRP, "ResourceProperty").text("CpuTime"))
                    .child(Element::new(WSRP, "ResourceProperty").text("JobName")),
                wsrp_action("GetMultipleResourceProperties"),
            ),
        ),
        (
            "QueryResourceProperties (XPath)",
            mk(
                Element::new(WSRP, "QueryResourceProperties").child(
                    Element::new(WSRP, "QueryExpression")
                        .attr("Dialect", XPATH_DIALECT)
                        .text("/ResourcePropertyDocument[Status='Running']/CpuTime"),
                ),
                wsrp_action("QueryResourceProperties"),
            ),
        ),
        (
            "SetResourceProperties (Update)",
            mk(
                Element::new(WSRP, "SetResourceProperties").child(
                    Element::new(WSRP, "Update")
                        .child(Element::new(UVACG, "Status").text("Running")),
                ),
                wsrp_action("SetResourceProperties"),
            ),
        ),
        (
            "custom interface (GRAM-style)",
            request(
                &epr,
                "Props",
                "CustomGetInfo",
                Element::new(UVACG, "CustomGetInfo"),
            ),
        ),
    ];
    let mut rows = Vec::new();
    for (name, env) in cases {
        let t = time_per_iter(20_000, || {
            let resp = svc.dispatch(env.clone());
            assert!(!resp.is_fault(), "{name}: {:?}", resp.fault());
        });
        rows.push(vec![name.to_string(), fmt_us(t)]);
    }
    print_table(
        "E2 — resource property operations (Figure 2 programming model)",
        &["operation", "time/op"],
        &rows,
    );
}

fn e3_jobsets() {
    let mut rows = Vec::new();
    for (shape, n) in [
        ("independent", 4usize),
        ("independent", 16),
        ("chain", 4),
        ("chain", 8),
        ("fanout", 8),
        ("diamond", 7),
    ] {
        let (grid, client) = grid_with_client(4, 5.0);
        let (c0, o0, b0, _) = grid.net.metrics.snapshot();
        let handle = client
            .submit(&shaped_spec(shape, n), "griduser", "gridpass")
            .unwrap();
        let makespan = drive(&grid, &handle, 2000);
        let (c1, o1, b1, _) = grid.net.metrics.snapshot();
        rows.push(vec![
            format!("{shape} × {n}"),
            format!("{makespan:.1} s"),
            format!("{}", c1 - c0),
            format!("{}", o1 - o0),
            format!("{:.1} KiB", (b1 - b0) as f64 / 1024.0),
        ]);
    }
    print_table(
        "E3 — job-set execution (Figure 3), 4 machines, 5 cpu-s jobs",
        &[
            "job set",
            "virtual makespan",
            "calls",
            "one-way msgs",
            "payload",
        ],
        &rows,
    );
}

fn e4_notification() {
    let mut rows = Vec::new();
    for subscribers in [1usize, 10, 100] {
        // Direct.
        let net = InProcNetwork::new(Clock::manual());
        let producer =
            NotificationProducer::new(EndpointReference::service("inproc://p/s"), net.clone());
        for i in 0..subscribers {
            let l = NotificationListener::register(&net, &format!("inproc://c{i}/l"));
            producer
                .subscriptions
                .subscribe(l.epr(), TopicExpression::full("js//"));
        }
        let t_direct = time_per_iter(2_000, || {
            producer.notify("js/job/exit", Element::local("E"));
        });
        // Brokered.
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
        let msg = NotificationMessage::new("js/job/exit", Element::local("E"));
        let t_brokered = time_per_iter(2_000, || {
            publish(&net, &bepr, &msg).unwrap();
        });
        rows.push(vec![
            subscribers.to_string(),
            fmt_us(t_direct),
            fmt_us(t_brokered),
            format!("{:.2}x", t_brokered.as_secs_f64() / t_direct.as_secs_f64()),
        ]);
    }
    print_table(
        "E4 — notification fan-out per publish",
        &["subscribers", "direct", "brokered", "broker overhead"],
        &rows,
    );
}

fn e5_transfer() {
    // Modeled campus times per scheme and size.
    let cfg = NetConfig::campus();
    let mut rows = Vec::new();
    for size in [10_000u64, 1_000_000, 10_000_000, 100_000_000] {
        let http = cfg.transfer_time("http", "m1", size);
        let tcp = cfg.transfer_time("soap.tcp", "m1", size);
        rows.push(vec![
            format!("{:.1} MB", size as f64 / 1e6),
            format!("{:.1} ms", http.as_secs_f64() * 1e3),
            format!("{:.1} ms", tcp.as_secs_f64() * 1e3),
            format!("{:.2}x", http.as_secs_f64() / tcp.as_secs_f64()),
            "~0 (in-memory copy)".into(),
        ]);
    }
    print_table(
        "E5 — modeled campus transfer time per scheme (NetConfig::campus)",
        &[
            "file size",
            "http (base64)",
            "soap.tcp (WSE)",
            "http/tcp",
            "same-machine move",
        ],
        &rows,
    );
}

fn e6_scheduler() {
    // Heterogeneous grid; enough parallel work to differentiate
    // policies but not saturate every machine.
    let mut rows = Vec::new();
    let policies: Vec<(&str, Arc<dyn SchedulingPolicy>)> = vec![
        ("fastest-available (paper)", Arc::new(FastestAvailable)),
        ("round-robin", Arc::new(RoundRobin::default())),
        ("random", Arc::new(Random::new(12345))),
        ("least-loaded", Arc::new(LeastLoaded)),
        ("metrics-feedback", Arc::new(MetricsFeedback::new())),
    ];
    let mut baseline = None;
    for (name, policy) in policies {
        let grid = CampusGrid::build(
            GridConfig::with_machines(8).with_policy(policy),
            Clock::manual(),
        );
        let client = grid.client("bench");
        client.put_file(
            "C:\\prog.exe",
            JobProgram::compute(30.0)
                .writing("out.dat", 1024)
                .to_manifest(),
        );
        let handle = client
            .submit(&shaped_spec("independent", 6), "griduser", "gridpass")
            .unwrap();
        let makespan = drive(&grid, &handle, 5000);
        if baseline.is_none() {
            baseline = Some(makespan);
        }
        rows.push(vec![
            name.to_string(),
            format!("{makespan:.1} s"),
            format!("{:.2}x", makespan / baseline.unwrap()),
        ]);
    }
    print_table(
        "E6 — placement policy makespan (6 × 30 cpu-s jobs, 8 heterogeneous machines)",
        &["policy", "virtual makespan", "vs paper policy"],
        &rows,
    );
}

fn e6b_degraded() {
    // The feedback scenario: machine04 advertises the best hardware in
    // the NIS but sits behind a 15-virtual-second uplink the catalog
    // knows nothing about. A 6-link chain makes the mistake compound:
    // catalog-only placement pins every link to the degraded machine,
    // feedback placement pays the uplink once and steers away.
    let mut rows = Vec::new();
    let policies: Vec<(&str, Arc<dyn SchedulingPolicy>)> = vec![
        ("fastest-available (paper)", Arc::new(FastestAvailable)),
        ("metrics-feedback", Arc::new(MetricsFeedback::new())),
    ];
    let mut baseline = None;
    for (name, policy) in policies {
        let grid = CampusGrid::build(
            GridConfig::with_machines(4)
                .with_policy(policy)
                .with_slow_authority("machine04", Duration::from_secs(15)),
            Clock::manual(),
        );
        let client = grid.client("bench");
        client.put_file(
            "C:\\prog.exe",
            JobProgram::compute(10.0)
                .writing("out.dat", 1024)
                .to_manifest(),
        );
        let handle = client
            .submit(&shaped_spec("chain", 6), "griduser", "gridpass")
            .unwrap();
        let makespan = drive(&grid, &handle, 5000);
        let set = wsrf_core::ResourceProxy::new(&grid.net, handle.jobset.clone());
        let on_degraded = set
            .document()
            .unwrap()
            .get_local("JobStatus")
            .iter()
            .filter(|js| js.attr_value("machine") == Some("machine04"))
            .count();
        if baseline.is_none() {
            baseline = Some(makespan);
        }
        rows.push(vec![
            name.to_string(),
            format!("{makespan:.1} s"),
            format!("{on_degraded}/6"),
            format!("{:.2}x", makespan / baseline.unwrap()),
        ]);
    }
    print_table(
        "E6b — degraded-uplink grid (6-link chain of 10 cpu-s jobs, machine04 behind a 15 s link)",
        &[
            "policy",
            "virtual makespan",
            "jobs on degraded",
            "vs paper policy",
        ],
        &rows,
    );
}

fn e7_store() {
    let n = 1000usize;
    let path = wsrf_xml::xpath::Path::parse("/Properties[Status='Running']").unwrap();
    let mut rows = Vec::new();
    let backends: Vec<(&str, Arc<dyn ResourceStore>)> = vec![
        ("memory", Arc::new(MemoryStore::new())),
        ("blob", Arc::new(BlobStore::new())),
        ("structured", {
            let s = StructuredStore::new();
            s.define_schema("Bench", job_schema(8));
            Arc::new(s)
        }),
    ];
    for (name, store) in backends {
        for i in 0..n {
            let mut doc = job_doc(8);
            if i % 2 == 0 {
                doc.set_text(q("Status"), "Exited");
            }
            store.create("Bench", &format!("r{i}"), &doc).unwrap();
        }
        let t_load = time_per_iter(5_000, || {
            let doc = store.load("Bench", "r1").unwrap();
            store.save("Bench", "r1", &doc).unwrap();
        });
        let t_query = time_median(15, || {
            assert_eq!(store.query("Bench", &path).len(), n / 2);
        });
        rows.push(vec![
            name.to_string(),
            fmt_us(t_load),
            format!("{:.2} ms", t_query.as_secs_f64() * 1e3),
            "—".into(),
            "—".into(),
        ]);
    }
    // Durable backend: the write-ahead log over the memory store. Two
    // extra columns only this row fills: cold recovery (replay the n
    // creates from the log into a fresh inner store) and the bytes
    // those creates cost on disk (CRC framing + the rendered docs;
    // the shard files' sizes, since a shard that compacted on the way
    // holds its creates as the head of its log).
    {
        let dir = std::env::temp_dir().join(format!("wsrf-bench-e7-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableStore::open(&dir, Arc::new(MemoryStore::new())).unwrap();
        for i in 0..n {
            let mut doc = job_doc(8);
            if i % 2 == 0 {
                doc.set_text(q("Status"), "Exited");
            }
            store.create("Bench", &format!("r{i}"), &doc).unwrap();
        }
        let log_bytes: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().metadata().unwrap().len())
            .sum();
        let t_recover = time_median(5, || {
            let replayed = DurableStore::open(&dir, Arc::new(MemoryStore::new())).unwrap();
            assert_eq!(replayed.list("Bench").len(), n);
        });
        let t_load = time_per_iter(5_000, || {
            let doc = store.load("Bench", "r1").unwrap();
            store.save("Bench", "r1", &doc).unwrap();
        });
        let t_query = time_median(15, || {
            assert_eq!(store.query("Bench", &path).len(), n / 2);
        });
        rows.push(vec![
            "durable (wal/memory)".into(),
            fmt_us(t_load),
            format!("{:.2} ms", t_query.as_secs_f64() * 1e3),
            format!("{:.2} ms", t_recover.as_secs_f64() * 1e3),
            format!("{:.1} KiB", log_bytes as f64 / 1024.0),
        ]);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print_table(
        &format!("E7 — state backends ({n} resources, 12 properties each)"),
        &[
            "backend",
            "load+save",
            "query (match half)",
            "recovery (replay)",
            "log bytes",
        ],
        &rows,
    );
}

fn e8_polling() {
    // A 60-virtual-second job; the client either polls at interval T
    // or receives one push notification.
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
        let mut polls = 0u64;
        let finish_detected_at = loop {
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
            format!("poll every {interval}s"),
            format!("{}", c1 - c0),
            format!("{polls}"),
            format!("{:.1} s", finish_detected_at - 61.3),
        ]);
    }
    rows.push(vec![
        "WS-Notification push".into(),
        "0".into(),
        "0".into(),
        "0.0 s".into(),
    ]);
    print_table(
        "E8 — completion detection for one 61.3 s job: polling vs push",
        &[
            "client strategy",
            "status calls",
            "poll rounds",
            "detection latency",
        ],
        &rows,
    );
}

fn e9_security() {
    let mut rng = StdRng::seed_from_u64(1);
    let ca = wsrf_security::pki::CertificateAuthority::new("ca", &mut rng);
    let (keys, cert) = ca.enroll("es@m1", &mut rng);
    let token = wsrf_security::wsse::UsernameToken::new("griduser", "gridpass");
    let mut rows = Vec::new();
    {
        let mut rng = StdRng::seed_from_u64(2);
        let t = time_per_iter(2_000, || {
            token.encrypt(&cert, &mut rng);
        });
        rows.push(vec!["UsernameToken encrypt".into(), fmt_us(t)]);
    }
    let header = token.encrypt(&cert, &mut rng);
    let t = time_per_iter(2_000, || {
        wsrf_security::wsse::UsernameToken::decrypt(&header, &keys).unwrap();
    });
    rows.push(vec!["UsernameToken decrypt".into(), fmt_us(t)]);
    let t = time_per_iter(20_000, || {
        assert!(ca.verify(&cert));
    });
    rows.push(vec!["certificate verify".into(), fmt_us(t)]);
    let data = vec![0u8; 65536];
    let t = time_per_iter(2_000, || {
        wsrf_security::sha256::digest(&data);
    });
    rows.push(vec![
        format!(
            "sha256 64 KiB ({:.0} MB/s)",
            65536.0 / t.as_secs_f64() / 1e6
        ),
        fmt_us(t),
    ]);
    let key = [7u8; 32];
    let nonce = [3u8; 12];
    let t = time_per_iter(2_000, || {
        wsrf_security::chacha20::encrypt(&key, &nonce, &data);
    });
    rows.push(vec![
        format!(
            "chacha20 64 KiB ({:.0} MB/s)",
            65536.0 / t.as_secs_f64() / 1e6
        ),
        fmt_us(t),
    ]);
    print_table("E9 — WS-Security costs", &["operation", "time/op"], &rows);
}

/// The inbound-parse fixture `metrics` pins (`parse.*`, named for the
/// retired E11c table): a job-like service with one resource, the
/// standard WS-RP read ops, and a custom `Poll` read op that answers
/// from resource state without touching the request body.
fn e11c_service() -> (Arc<wsrf_core::container::Service>, EndpointReference) {
    use wsrf_core::container::ServiceBuilder;
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
    (svc, epr)
}

/// The fixture's request pair: the canonical WS-RP single-property
/// read, and a representative scheduler-bound shape (12-property body
/// + trace header) aimed at a read op that never opens the body.
fn e11c_wires(epr: &EndpointReference) -> (String, String) {
    use wsrf_core::container::action_uri;
    let get_env = Outbound::new(
        epr.clone(),
        wsrp_action("GetResourceProperty"),
        Element::new(WSRP, "GetResourceProperty").text(format!("{{{UVACG}}}Status")),
    )
    .into_envelope();

    let mut body = Element::new(UVACG, "Poll");
    for i in 0..12 {
        body.push_child(Element::new(UVACG, format!("Prop{i}")).text(format!("value-{i}")));
    }
    let poll_env = Outbound::new(epr.clone(), action_uri("Job", "Poll"), body)
        .trace(Some(&TraceContext::new(0x7ace, 0x2, true)))
        .into_envelope();
    (get_env.to_xml(), poll_env.to_xml())
}

/// An HTTP server exposing `grid`'s registry (the SOAP endpoint is an
/// echo — only the GET surface is used).
fn exposition_server(grid: &CampusGrid, name: &'static str) -> HttpSoapServer {
    let config = HttpConfig {
        registry: grid.metrics.clone(),
        clock: Some(grid.clock.clone()),
        expose: true,
    };
    HttpSoapServer::start_with(Arc::new(FnEndpoint::new(name, Some)), config)
        .expect("bind exposition server")
}

/// E14 — the monitoring plane's own cost: the event-log ablation on
/// the container dispatch path (acceptance: events + SLO windows on
/// cost the events-off path < 5%), the per-op prices of the two new
/// write paths (event emit, SLO record), and what a scrape costs —
/// both the in-process render and the end-to-end HTTP GET against a
/// live exposition server.
fn e14_monitoring() {
    let mut rows = Vec::new();

    // Ablation: full monitoring (metrics + event log + SLO) vs a
    // zero-capacity event log. Alternating best-of-N, so ambient
    // scheduler noise hits both configurations equally.
    let ablate =
        |label: &str,
         rows: &mut Vec<Vec<String>>,
         env_for: &dyn Fn(&Arc<wsrf_core::container::Service>) -> Envelope| {
            let touch = |svc: &Arc<wsrf_core::container::Service>, env: &Envelope| {
                time_per_iter(2_000, || {
                    svc.dispatch(env.clone());
                })
            };
            let (svc_off, _epr_off, _net_off) = bench_service(
                Arc::new(MemoryStore::new()),
                MetricsRegistry::new(ObsConfig::enabled().with_event_capacity(0)),
            );
            let (svc_on, _epr_on, _net_on) = bench_service(
                Arc::new(MemoryStore::new()),
                MetricsRegistry::new(ObsConfig::enabled()),
            );
            let (env_off, env_on) = (env_for(&svc_off), env_for(&svc_on));
            touch(&svc_off, &env_off); // warm both paths
            touch(&svc_on, &env_on);
            let (mut t_off, mut t_on) = (Duration::MAX, Duration::MAX);
            for _ in 0..50 {
                t_off = t_off.min(touch(&svc_off, &env_off));
                t_on = t_on.min(touch(&svc_on, &env_on));
            }
            rows.push(vec![
                format!(
                    "{label}, events+SLO on (events off {:+.1}%)",
                    (t_on.as_secs_f64() / t_off.as_secs_f64() - 1.0) * 100.0
                ),
                fmt_us(t_on),
            ]);
        };
    ablate("dispatch", &mut rows, &|svc| {
        request(
            &svc.core().epr_for("r1"),
            "Bench",
            "Touch",
            Element::new(UVACG, "Touch"),
        )
    });
    // The fault path is where the event log actually writes: every
    // fault formats a detail string and lands in the warn ring.
    ablate("faulting dispatch", &mut rows, &|svc| {
        request(
            &svc.core().epr_for("ghost"),
            "Bench",
            "Touch",
            Element::new(UVACG, "Touch"),
        )
    });

    // Per-op price of the two new write paths, in isolation.
    {
        let reg = MetricsRegistry::enabled();
        let log = reg.events().clone();
        let t = time_per_iter(100_000, || {
            log.emit(Severity::Info, EventKind::WalSnapshot, "bench", 0, || {
                "shard 00 compacted".to_string()
            });
        });
        rows.push(vec!["event emit (format + ring insert)".into(), fmt_us(t)]);
        let slo = reg.slo().service("bench");
        let t = time_per_iter(100_000, || {
            slo.record(true, 1_000, 0);
        });
        rows.push(vec!["SLO record (window bucket update)".into(), fmt_us(t)]);
    }

    // Scrape cost against a registry populated by a real run: render
    // in-process (what the exposition sink pays) and end-to-end over
    // HTTP (connect + render + transfer, a fresh connection per GET —
    // how a Prometheus-style scraper actually arrives).
    let (grid, client) = grid_with_client(2, 2.0);
    let handle = client
        .submit(&shaped_spec("diamond", 5), "griduser", "gridpass")
        .unwrap();
    drive(&grid, &handle, 2000);
    let n_metrics = grid.metrics_snapshot().entries.len();
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let t = time_per_iter(2_000, || {
        buf.clear();
        grid.metrics.write_prometheus_into(&mut buf);
    });
    rows.push(vec![
        format!("/metrics render ({n_metrics} metrics)"),
        fmt_us(t),
    ]);
    let t = time_per_iter(2_000, || {
        buf.clear();
        grid.metrics.write_json_into(&mut buf);
    });
    rows.push(vec![
        format!("/metrics.json render ({n_metrics} metrics)"),
        fmt_us(t),
    ]);
    let server = exposition_server(&grid, "bench");
    let authority = server.authority();
    for path in ["/metrics.json", "/healthz"] {
        let t = time_median(50, || {
            let (code, _) = http_get(&authority, path).unwrap();
            assert!(code == 200 || code == 503);
        });
        rows.push(vec![format!("{path} scrape over HTTP"), fmt_us(t)]);
    }
    // Streaming side: one event emitted and pumped onto the
    // monitor/events topic per iteration (no subscribers — the price
    // of the publish path itself).
    let t = time_per_iter(2_000, || {
        grid.metrics
            .events()
            .emit(Severity::Info, EventKind::WalSnapshot, "bench", 0, || {
                "tick".to_string()
            });
        grid.pump_events();
    });
    rows.push(vec![
        "event emit + pump flush (1-event batch)".into(),
        fmt_us(t),
    ]);

    print_table(
        "E14 — monitoring plane: ablation and scrape cost",
        &["path", "time/op"],
        &rows,
    );
}

/// `monitor-smoke`: boot a monitored container, scrape `/metrics`
/// and `/healthz` once each, and verify both answer. Tier-1 runs this
/// to prove the exposition surface binds and serves outside the test
/// harness.
fn monitor_smoke() {
    let (grid, client) = grid_with_client(2, 1.0);
    let handle = client
        .submit(&shaped_spec("chain", 2), "griduser", "gridpass")
        .unwrap();
    drive(&grid, &handle, 2000);
    let server = exposition_server(&grid, "smoke");
    let authority = server.authority();
    let (code, prom) = http_get(&authority, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200, "/metrics status");
    assert!(
        prom.contains("scheduler_makespan_ns_count"),
        "/metrics body missing scheduler series"
    );
    let (code, hz) = http_get(&authority, "/healthz").expect("GET /healthz");
    assert_eq!(code, 200, "/healthz status: {hz}");
    assert!(hz.contains("\"status\": \"ok\""), "/healthz body: {hz}");
    println!(
        "monitor smoke: OK — {authority} served /metrics ({} bytes) and /healthz",
        prom.len()
    );
}

fn metrics_dump() {
    // Full-pipeline observability: run one job set on a metrics-enabled
    // grid (GridConfig observes by default) and dump the whole registry
    // — container dispatch stages, transport traffic, broker fan-out,
    // file staging and the scheduler's Figure 3 steps all in one table.
    // The campus network profile keeps the modeled-latency histograms
    // nonzero so the regression gate has virtual-time metrics to pin;
    // tracing is on so the gate also pins the trace.* counters. The
    // scheduler runs in durable mode (WAL-backed store) so the dump —
    // and therefore the gate — covers the persistence path too.
    let wal_dir = std::env::temp_dir().join(format!("wsrf-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let durable = Arc::new(DurableStore::open(&wal_dir, Arc::new(MemoryStore::new())).unwrap());
    let grid = CampusGrid::build(
        GridConfig::with_machines(4)
            .with_net(NetConfig::campus())
            .with_tracing(TraceConfig::enabled())
            .with_scheduler_store(durable as Arc<dyn ResourceStore>),
        Clock::manual(),
    );
    let client = grid.client("bench");
    client.put_file(
        "C:\\prog.exe",
        JobProgram::compute(5.0)
            .writing("out.dat", 1024)
            .to_manifest(),
    );
    let handle = client
        .submit(&shaped_spec("diamond", 7), "griduser", "gridpass")
        .unwrap();
    let makespan = drive(&grid, &handle, 2000);
    // Crash-recovery counters: reopen the scheduler's WAL into the
    // grid's registry. `recovery.records` is what the run left in the
    // log — one create per resource from the shard's last size-
    // triggered compaction plus one delta per scheduler state mutation
    // since — so the gate pins persistence behaviour; the write-back
    // (empty deltas) + snapshot pass pins the append framing
    // (`store.wal.*`) the same way.
    let recovered =
        DurableStore::open_with(&wal_dir, Arc::new(MemoryStore::new()), Some(&grid.metrics))
            .unwrap();
    for key in recovered.list("Scheduler") {
        let doc = recovered.load("Scheduler", &key).unwrap();
        recovered.save("Scheduler", &key, &doc).unwrap();
    }
    recovered.snapshot_all().unwrap();
    drop(recovered);
    let _ = std::fs::remove_dir_all(&wal_dir);
    // Inbound-parse budget: the grid above is pure inproc (envelopes
    // move by reference, so the wire parser never runs). Exercise the
    // lazy dispatch path with the fixed request pair and mirror
    // the pull-parser counter deltas into the registry, so the gate
    // pins parse-event and DOM-materialization budgets per exchange.
    {
        let (svc, epr) = e11c_service();
        let (get_wire, poll_wire) = e11c_wires(&epr);
        let d0 = wsrf_xml::dom_build_count();
        let e0 = wsrf_xml::parse_event_count();
        assert!(!svc.dispatch_wire(&get_wire).is_fault());
        assert!(!svc.dispatch_wire(&poll_wire).is_fault());
        let lazy_doms = wsrf_xml::dom_build_count() - d0;
        let lazy_events = wsrf_xml::parse_event_count() - e0;
        let d1 = wsrf_xml::dom_build_count();
        let e1 = wsrf_xml::parse_event_count();
        svc.dispatch(Envelope::parse(&get_wire).unwrap());
        svc.dispatch(Envelope::parse(&poll_wire).unwrap());
        let dom_doms = wsrf_xml::dom_build_count() - d1;
        let dom_events = wsrf_xml::parse_event_count() - e1;
        grid.metrics.counter("parse.lazy.dom_builds").add(lazy_doms);
        grid.metrics.counter("parse.lazy.events").add(lazy_events);
        grid.metrics
            .counter("parse.domfirst.dom_builds")
            .add(dom_doms);
        grid.metrics
            .counter("parse.domfirst.events")
            .add(dom_events);
    }
    let snap = grid.metrics_snapshot();
    println!(
        "\n### Metrics — diamond × 7 job set, 4 machines ({makespan:.1} s virtual makespan)\n"
    );
    print!("{}", snap.render());
    match std::fs::write("BENCH_metrics.json", snap.to_json()) {
        Ok(()) => println!(
            "\nwrote BENCH_metrics.json ({} metrics)",
            snap.entries.len()
        ),
        Err(e) => eprintln!("warn: could not write BENCH_metrics.json: {e}"),
    }
}

/// What a bare `harness` runs, in EXPERIMENTS.md order.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("e2", e2_properties),
    ("e3", e3_jobsets),
    ("e4", e4_notification),
    ("e5", e5_transfer),
    ("e6", e6_scheduler),
    ("e6b", e6b_degraded),
    ("e7", e7_store),
    ("e8", e8_polling),
    ("e9", e9_security),
    ("e14", e14_monitoring),
    // Regenerates BENCH_metrics.json; tier-1 feeds it to the gate.
    ("metrics", metrics_dump),
];

/// Tier-1's fast sanity check; runs only when named.
const SMOKES: &[(&str, fn())] = &[("monitor-smoke", monitor_smoke)];

fn main() -> ExitCode {
    let known = || EXPERIMENTS.iter().chain(SMOKES);
    let mut selected: Vec<fn()> = Vec::new();
    for arg in std::env::args().skip(1) {
        match known().find(|(n, _)| *n == arg) {
            Some((_, run)) => selected.push(*run),
            None => {
                let names: Vec<&str> = known().map(|(n, _)| *n).collect();
                eprintln!("harness: unknown experiment {arg:?}");
                eprintln!("usage: harness [{}]...", names.join(" | "));
                eprintln!("       (no argument runs everything but the smokes)");
                return ExitCode::FAILURE;
            }
        }
    }
    if selected.is_empty() {
        println!("# UVaCG reproduction — experiment harness");
        println!("(scaled-down medians; wall-clock history lives in benchmark/)");
        selected.extend(EXPERIMENTS.iter().map(|(_, run)| *run));
    }
    for run in selected {
        run();
    }
    ExitCode::SUCCESS
}
