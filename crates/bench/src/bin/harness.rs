//! Regenerates every EXPERIMENTS.md table (E1–E11, E13, E14).
//!
//! ```text
//! cargo run -p bench --bin harness --release              # everything
//! cargo run -p bench --bin harness --release -- e7 e13    # named experiments
//! cargo run -p bench --bin harness --release -- metrics   # BENCH_metrics.json only
//! ```
//!
//! Real-time numbers are medians over small in-process samples (the
//! committed wall-clock ledger is `benchmark/`); virtual-time and
//! message-count numbers are exact model outputs.

#![allow(clippy::result_large_err)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{
    bench_service, bench_service_obs, drive, grid_with_client, job_doc, job_schema, print_table, q,
    request, shaped_spec, JobProgram,
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

fn e1_dispatch() {
    let mut rows = Vec::new();
    {
        let mut doc = job_doc(0);
        let t = time_per_iter(100_000, || {
            let n = doc.i64(&q("Pid")).unwrap_or(0) + 1;
            doc.set_i64(q("Pid"), n);
        });
        rows.push(vec!["bare handler (no container)".into(), fmt_us(t)]);
    }
    let backends: Vec<(&str, Arc<dyn ResourceStore>)> = vec![
        ("memory", Arc::new(MemoryStore::new())),
        ("blob", Arc::new(BlobStore::new())),
        ("structured", {
            let s = StructuredStore::new();
            s.define_schema("Bench", job_schema(0));
            Arc::new(s)
        }),
    ];
    for (name, store) in backends {
        let (svc, epr, _net) = bench_service(store);
        let env = request(&epr, "Bench", "Touch", Element::new(UVACG, "Touch"));
        let t = time_per_iter(20_000, || {
            svc.dispatch(env.clone());
        });
        rows.push(vec![
            format!("container dispatch ({name} store)"),
            fmt_us(t),
        ]);
    }
    // Ablation E1c: the observability layer on vs off (acceptance:
    // metrics cost the memory-store dispatch path < 5%). Alternating
    // best-of-N so ambient scheduler noise (which dwarfs the per-call
    // delta on a ~4 µs dispatch) hits both configurations equally.
    {
        let touch = |svc: &Arc<wsrf_core::container::Service>, epr: &EndpointReference| {
            let env = request(epr, "Bench", "Touch", Element::new(UVACG, "Touch"));
            time_per_iter(2_000, || {
                svc.dispatch(env.clone());
            })
        };
        let (svc_off, epr_off, _net_off) =
            bench_service_obs(Arc::new(MemoryStore::new()), MetricsRegistry::disabled());
        let (svc_on, epr_on, _net_on) =
            bench_service_obs(Arc::new(MemoryStore::new()), MetricsRegistry::enabled());
        touch(&svc_off, &epr_off); // warm both paths
        touch(&svc_on, &epr_on);
        let (mut t_off, mut t_on) = (Duration::MAX, Duration::MAX);
        for _ in 0..50 {
            t_off = t_off.min(touch(&svc_off, &epr_off));
            t_on = t_on.min(touch(&svc_on, &epr_on));
        }
        rows.push(vec![
            format!(
                "dispatch, memory store, metrics on (off {:+.1}%)",
                (t_on.as_secs_f64() / t_off.as_secs_f64() - 1.0) * 100.0
            ),
            fmt_us(t_on),
        ]);
    }
    // Ablation E1d: distributed tracing on vs off (acceptance: tracing
    // enabled costs the metrics-enabled dispatch path < 5%). Traces
    // begin at explicit entry points, so a headerless request — the
    // dispatch bench, and every untraced message in a simulation —
    // costs only a header scan even with tracing on. A request that
    // carries a trace header additionally records one child span; that
    // recording cost gets its own row, against a tracing-off container
    // handed the same header so both sides pay the parse.
    {
        let touch = |svc: &Arc<wsrf_core::container::Service>, env: &Envelope| {
            time_per_iter(2_000, || {
                svc.dispatch(env.clone());
            })
        };
        let (svc_off, epr_off, _net_off) =
            bench_service_obs(Arc::new(MemoryStore::new()), MetricsRegistry::enabled());
        let (svc_on, epr_on, _net_on) = bench_service_obs(
            Arc::new(MemoryStore::new()),
            MetricsRegistry::with_tracing(ObsConfig::enabled(), TraceConfig::enabled()),
        );
        let stamp = |epr: &EndpointReference| {
            let mut env = request(epr, "Bench", "Touch", Element::new(UVACG, "Touch"));
            TraceContext::new(0x7ace, 0x1, true).stamp(&mut env);
            env
        };
        let plain = (
            request(&epr_off, "Bench", "Touch", Element::new(UVACG, "Touch")),
            request(&epr_on, "Bench", "Touch", Element::new(UVACG, "Touch")),
        );
        let traced = (stamp(&epr_off), stamp(&epr_on));
        for (label, env_off, env_on) in [
            ("untraced request", &plain.0, &plain.1),
            ("traced request", &traced.0, &traced.1),
        ] {
            touch(&svc_off, env_off); // warm both paths
            touch(&svc_on, env_on);
            let (mut t_off, mut t_on) = (Duration::MAX, Duration::MAX);
            for _ in 0..50 {
                t_off = t_off.min(touch(&svc_off, env_off));
                t_on = t_on.min(touch(&svc_on, env_on));
            }
            rows.push(vec![
                format!(
                    "dispatch, tracing on, {label} (off {:+.1}%)",
                    (t_on.as_secs_f64() / t_off.as_secs_f64() - 1.0) * 100.0
                ),
                fmt_us(t_on),
            ]);
        }
    }
    {
        let (svc, epr, _net) = bench_service(Arc::new(MemoryStore::new()));
        let env = request(&epr, "Bench", "Touch", Element::new(UVACG, "Touch"));
        let t = time_per_iter(10_000, || {
            let wire = env.to_xml();
            let parsed = Envelope::parse(&wire).unwrap();
            let resp = svc.dispatch(parsed);
            let _ = Envelope::parse(&resp.to_xml()).unwrap();
        });
        rows.push(vec!["dispatch + full wire roundtrip".into(), fmt_us(t)]);
    }
    // E1b: a Write-classified op that only reads still pays the save
    // stage (the container saves after every write op, like WSRF.NET).
    {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = wsrf_core::container::ServiceBuilder::new(
            "Abl",
            "inproc://bench/Abl",
            Arc::new(BlobStore::new()),
        )
        .operation("Peek", |ctx| {
            let doc = ctx.resource_mut()?;
            Ok(Element::new(UVACG, "PeekResponse")
                .text(doc.text_local("Status").unwrap_or_default()))
        })
        .build(clock, net);
        let epr = svc
            .core()
            .create_resource_with_key("r1", job_doc(8))
            .unwrap();
        let env = request(&epr, "Abl", "Peek", Element::new(UVACG, "Peek"));
        let t = time_per_iter(10_000, || {
            svc.dispatch(env.clone());
        });
        rows.push(vec![
            "read-only dispatch, blob store, save-always (WSRF.NET)".into(),
            fmt_us(t),
        ]);
    }
    print_table(
        "E1 — container dispatch pipeline (Figure 1)",
        &["path", "time/op"],
        &rows,
    );
}

fn e2_properties() {
    let (_, epr, _net) = bench_service(Arc::new(MemoryStore::new()));
    let clock = Clock::manual();
    let net2 = InProcNetwork::new(clock.clone());
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
    .build(clock, net2);
    let epr2 = svc
        .core()
        .create_resource_with_key("r1", job_doc(8))
        .unwrap();
    let _ = epr;

    let mk =
        |body: Element, action: String| Outbound::new(epr2.clone(), action, body).into_envelope();
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
                &epr2,
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

    // Real localhost wall times, 1 MiB payload.
    use wsrf_transport::http::{http_call, HttpSoapServer};
    use wsrf_transport::tcpframe::{FramedClient, FramedServer};
    let ack = Arc::new(wsrf_transport::FnEndpoint::new("ack", |_| {
        Some(Envelope::new(Element::local("Ok")))
    }));
    let hs = HttpSoapServer::start(ack.clone()).unwrap();
    let ts = FramedServer::start(ack).unwrap();
    let tc = FramedClient::connect(&ts.authority()).unwrap();
    let mut rows = Vec::new();
    for size in [1usize << 10, 1 << 20] {
        let env =
            Envelope::new(Element::local("Write").text(wsrf_xml::base64::encode(&vec![0u8; size])));
        let t_http = time_median(9, || {
            http_call(&hs.authority(), "fs", &env).unwrap();
        });
        let t_tcp = time_median(9, || {
            tc.call(&env).unwrap();
        });
        rows.push(vec![
            format!("{} KiB", size / 1024),
            format!("{:.2} ms", t_http.as_secs_f64() * 1e3),
            format!("{:.2} ms", t_tcp.as_secs_f64() * 1e3),
        ]);
    }
    print_table(
        "E5 — real localhost wall time per call",
        &["payload", "http (new conn/call)", "soap.tcp (persistent)"],
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

fn e10_contention() {
    // Contended same-resource dispatch: reads are classified, share a
    // lease stripe and skip the save stage entirely; writes serialize
    // on an exclusive per-resource lease (the price of never losing an
    // update).
    use wsrf_core::container::{Service, ServiceBuilder};

    fn counter() -> (Arc<Service>, EndpointReference) {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("Ctr", "inproc://bench/Ctr", Arc::new(MemoryStore::new()))
            .operation("Bump", |ctx| {
                let doc = ctx.resource_mut()?;
                let n = doc.i64(&q("Pid")).unwrap_or(0) + 1;
                doc.set_i64(q("Pid"), n);
                Ok(Element::new(UVACG, "BumpResponse"))
            })
            .read_operation("Peek", |ctx| {
                let doc = ctx.resource()?;
                Ok(Element::new(UVACG, "PeekResponse")
                    .text(doc.text(&q("Status")).unwrap_or_default()))
            })
            .build(clock, net);
        let epr = svc
            .core()
            .create_resource_with_key("r1", job_doc(0))
            .unwrap();
        (svc, epr)
    }

    fn throughput(op: &str, threads: usize) -> f64 {
        const OPS_PER_THREAD: usize = 3_000;
        let (svc, epr) = counter();
        let env = request(&epr, "Ctr", op, Element::new(UVACG, op));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..OPS_PER_THREAD {
                        svc.dispatch(env.clone());
                    }
                });
            }
        });
        (threads * OPS_PER_THREAD) as f64 / t0.elapsed().as_secs_f64() / 1e3
    }

    let rows: Vec<Vec<String>> = [1usize, 4, 16]
        .into_iter()
        .map(|threads| {
            vec![
                threads.to_string(),
                format!("{:.0}", throughput("Peek", threads)),
                format!("{:.0}", throughput("Bump", threads)),
            ]
        })
        .collect();
    print_table(
        "E10 — contended same-resource dispatch throughput (kops/s)",
        &["threads", "read (shared lease)", "write (exclusive lease)"],
        &rows,
    );
}

fn e11_wirepath() {
    use wsrf_transport::tcpframe::{FramedClient, FramedServer};
    use wsrf_transport::FnEndpoint;

    // A representative scheduler-bound message: WS-Addressing headers,
    // a trace header and a 12-property body.
    let epr = EndpointReference::service("inproc://machine01/ExecutionService");
    let mut body = Element::new(UVACG, "CreateJob");
    for i in 0..12 {
        body.push_child(Element::new(UVACG, format!("Prop{i}")).text(format!("value-{i}")));
    }
    let env = Outbound::new(epr, format!("{UVACG}/CreateJob"), body)
        .trace(Some(&TraceContext::new(0x7ace, 0x1, true)))
        .into_envelope();
    let wire = env.to_xml();
    assert_eq!(env.wire_len(), wire.len(), "size pass must match render");

    // Serialization micro-costs.
    let mut rows = Vec::new();
    let t_clone = time_per_iter(50_000, || {
        std::hint::black_box(env.to_element().to_document());
    });
    rows.push(vec![
        "clone tree + render (pre-change to_xml)".into(),
        fmt_us(t_clone),
    ]);
    let mut buf: Vec<u8> = Vec::with_capacity(wire.len());
    let t_render = time_per_iter(50_000, || {
        buf.clear();
        env.write_into(&mut buf);
        std::hint::black_box(buf.len());
    });
    rows.push(vec![
        format!(
            "single render into reusable buffer ({:.2}x)",
            t_clone.as_secs_f64() / t_render.as_secs_f64()
        ),
        fmt_us(t_render),
    ]);
    let t_len = time_per_iter(50_000, || {
        std::hint::black_box(env.wire_len());
    });
    rows.push(vec![
        "exact size pass (wire_len, zero alloc)".into(),
        fmt_us(t_len),
    ]);
    print_table(
        &format!(
            "E11 — wire-path serialization, {}-byte envelope",
            wire.len()
        ),
        &["path", "time/op"],
        &rows,
    );

    // End-to-end exchanges. "old" re-adds per direction exactly what
    // the pre-change path paid on top of today's: inproc accounted
    // bytes with a clone + full render per direction (now a zero-alloc
    // size pass), the framed client/server cloned the tree before
    // rendering (now they render the borrowed tree straight into a
    // reusable frame buffer).
    let mut rows = Vec::new();
    {
        let net = InProcNetwork::new(Clock::manual());
        net.register(
            "inproc://machine01/ExecutionService",
            Arc::new(FnEndpoint::new("echo", Some)),
        );
        let addr = "inproc://machine01/executionservice";
        net.call(addr, env.clone()).unwrap(); // warm
        let r0 = wsrf_soap::render_count();
        let (_, _, b0, _) = net.metrics.snapshot();
        net.call(addr, env.clone()).unwrap();
        let renders = wsrf_soap::render_count() - r0;
        let (_, _, b1, _) = net.metrics.snapshot();
        assert_eq!(
            b1 - b0,
            2 * wire.len() as u64,
            "byte accounting must match the old double-render totals"
        );
        let t_new = time_per_iter(10_000, || {
            net.call(addr, env.clone()).unwrap();
        });
        let t_old = time_per_iter(10_000, || {
            std::hint::black_box(env.to_element().to_document());
            let resp = net.call(addr, env.clone()).unwrap();
            std::hint::black_box(resp.to_element().to_document());
        });
        rows.push(vec![
            "inproc call".into(),
            fmt_us(t_old),
            fmt_us(t_new),
            format!("{:.2}x", t_old.as_secs_f64() / t_new.as_secs_f64()),
            format!("{renders}"),
        ]);
    }
    {
        let server = FramedServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let tc = FramedClient::connect(&server.authority()).unwrap();
        tc.call(&env).unwrap(); // warm
        let r0 = wsrf_soap::render_count();
        tc.call(&env).unwrap();
        let renders = wsrf_soap::render_count() - r0;
        let t_new = time_per_iter(2_000, || {
            tc.call(&env).unwrap();
        });
        let t_old = time_per_iter(2_000, || {
            std::hint::black_box(env.to_element()); // client-side clone
            tc.call(&env).unwrap();
            std::hint::black_box(env.to_element()); // server-side clone
        });
        rows.push(vec![
            "framed TCP call".into(),
            fmt_us(t_old),
            fmt_us(t_new),
            format!("{:.2}x", t_old.as_secs_f64() / t_new.as_secs_f64()),
            format!("{renders}"),
        ]);
    }
    print_table(
        "E11b — request/response exchange, pre-change (emulated) vs single-render wire path",
        &["hop", "old", "new", "speedup", "renders/exchange (new)"],
        &rows,
    );
}

/// Build the E11c fixture: a job-like service with one resource, the
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

/// The E11c inbound request pair: the canonical WS-RP single-property
/// read, and the E11 representative scheduler-bound shape (12-property
/// body + trace header) aimed at a read op that never opens the body.
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

fn e11c_inbound() {
    use std::io::{Read as _, Write as _};
    use wsrf_transport::tcpframe::FramedServer;

    let (svc, epr) = e11c_service();
    let (get_wire, poll_wire) = e11c_wires(&epr);

    // Per-request dispatch micro-costs and the inbound budget counters.
    // "DOM-first" is exactly the pre-change server path: parse the full
    // envelope into a tree, then dispatch on it.
    let mut rows = Vec::new();
    for (label, wire) in [
        ("WS-RP GetResourceProperty", &get_wire),
        ("Job.Poll, 12-prop body", &poll_wire),
    ] {
        let warm = svc.dispatch_wire(wire);
        assert!(!warm.is_fault(), "{:?}", warm.fault());
        let d0 = wsrf_xml::dom_build_count();
        let e0 = wsrf_xml::parse_event_count();
        svc.dispatch_wire(wire);
        let doms = wsrf_xml::dom_build_count() - d0;
        let events = wsrf_xml::parse_event_count() - e0;
        let t_old = time_per_iter(20_000, || {
            let env = Envelope::parse(wire).unwrap();
            std::hint::black_box(svc.dispatch(env));
        });
        let t_new = time_per_iter(20_000, || {
            std::hint::black_box(svc.dispatch_wire(wire));
        });
        rows.push(vec![
            label.into(),
            fmt_us(t_old),
            fmt_us(t_new),
            format!("{:.2}x", t_old.as_secs_f64() / t_new.as_secs_f64()),
            format!("{doms}"),
            format!("{events}"),
        ]);
    }
    print_table(
        &format!(
            "E11c — inbound routing, DOM-first vs lazy dispatch ({}- and {}-byte requests)",
            get_wire.len(),
            poll_wire.len()
        ),
        &[
            "request",
            "DOM-first",
            "lazy",
            "speedup",
            "DOMs/req (lazy)",
            "events/req (lazy)",
        ],
        &rows,
    );

    // Real-transport inbound throughput: flood a FramedServer with a
    // pre-rendered one-way frame (the client is pure traffic generator
    // — one buffer write per message) and use a trailing CALL frame as
    // the barrier: frames on one connection are served in order, so its
    // response proves the flood drained. The DOM-first server is the
    // pre-change endpoint contract (parse, then handle); the lazy
    // server is the container routing off the borrowed receive buffer.
    const MAGIC: &[u8; 4] = b"WSE1";
    fn frame(flags: u8, payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::with_capacity(payload.len() + 9);
        f.extend_from_slice(MAGIC);
        f.push(flags);
        f.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        f.extend_from_slice(payload);
        f
    }
    fn read_response(stream: &mut std::net::TcpStream) {
        let mut head = [0u8; 9];
        stream.read_exact(&mut head).unwrap();
        let len = u32::from_be_bytes(head[5..9].try_into().unwrap()) as usize;
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).unwrap();
    }
    fn flood(authority: &str, oneway: &[u8], barrier: &[u8], n: usize) -> Duration {
        let mut stream = std::net::TcpStream::connect(authority).unwrap();
        stream.set_nodelay(true).ok();
        stream.write_all(barrier).unwrap(); // warm the connection thread
        read_response(&mut stream);
        let t0 = Instant::now();
        for _ in 0..n {
            stream.write_all(oneway).unwrap();
        }
        stream.write_all(barrier).unwrap();
        read_response(&mut stream);
        t0.elapsed()
    }

    let dom_first = {
        let svc = svc.clone();
        Arc::new(FnEndpoint::new("dom-first", move |env| {
            Some(svc.dispatch(env))
        }))
    };
    let server_old = FramedServer::start(dom_first).unwrap();
    let server_new = FramedServer::start(svc.clone()).unwrap();
    let oneway = frame(1, poll_wire.as_bytes());
    let barrier = frame(0, poll_wire.as_bytes());
    let n = 10_000;
    let t_old = flood(&server_old.authority(), &oneway, &barrier, n);
    let t_new = flood(&server_new.authority(), &oneway, &barrier, n);
    let rate = |t: Duration| n as f64 / t.as_secs_f64();
    print_table(
        &format!(
            "E11c — soap.tcp inbound throughput, {n} one-way polls ({}-byte frames)",
            oneway.len()
        ),
        &["server", "msgs/s", "speedup"],
        &[
            vec![
                "DOM-first (parse, then handle)".into(),
                format!("{:.0}", rate(t_old)),
                "1.00x".into(),
            ],
            vec![
                "lazy (route off receive buffer)".into(),
                format!("{:.0}", rate(t_new)),
                format!("{:.2}x", t_old.as_secs_f64() / t_new.as_secs_f64()),
            ],
        ],
    );
}

/// Splitmix-style PRNG for the Poisson arrival schedule — deterministic
/// and dependency-free.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn fmt_lat(d: Duration) -> String {
    if d < Duration::from_millis(1) {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    } else if d < Duration::from_secs(1) {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.2} s", d.as_secs_f64())
    }
}

/// One E13 row: `n_subs` subscriptions spread over `n_subs/100` topic
/// roots, driven open-loop with Poisson arrivals at `lambda`/s.
/// Latency is measured against each publish's *scheduled* arrival, so
/// a fan-out path slower than the arrival rate shows its queueing
/// backlog instead of hiding it (closed-loop timing would slow the
/// generator down to match).
fn e13_run(n_subs: usize, publishes: usize, lambda: f64) -> (f64, Duration, Duration, Duration) {
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
    let roots = (n_subs / 100).max(1);
    // Counting listeners: O(1) memory per consumer no matter how many
    // deliveries land.
    let listeners: Vec<NotificationListener> = (0..n_subs)
        .map(|i| {
            let l = NotificationListener::register_counting(&net, &format!("inproc://c{i}/l"));
            subscribe(
                &net,
                &bepr,
                &l.epr(),
                &TopicExpression::full(&format!("r{}//", i % roots)),
                None,
            )
            .unwrap();
            l
        })
        .collect();

    let mut rng = SplitMix(0xE13 ^ n_subs as u64);
    let mut sched = 0.0f64;
    let mut lats: Vec<Duration> = Vec::with_capacity(publishes);
    let t0 = Instant::now();
    for i in 0..publishes {
        // Exponential interarrival → Poisson process.
        sched += -(1.0 - rng.next_f64()).ln() / lambda;
        let target = Duration::from_secs_f64(sched);
        loop {
            let now = t0.elapsed();
            if now >= target {
                break;
            }
            let gap = target - now;
            if gap > Duration::from_micros(200) {
                std::thread::sleep(gap - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        let topic = format!("r{}/evt", i % roots);
        let msg = NotificationMessage::new(topic.as_str(), Element::local("E"));
        publish(&net, &bepr, &msg).unwrap();
        lats.push(t0.elapsed().saturating_sub(target));
    }
    let wall = t0.elapsed();
    let delivered: usize = listeners.iter().map(|l| l.total()).sum();
    lats.sort();
    let p = |q: f64| lats[((lats.len() - 1) as f64 * q) as usize];
    (
        delivered as f64 / wall.as_secs_f64(),
        p(0.5),
        p(0.99),
        p(0.999),
    )
}

/// E13 — open-loop load on the broker's sharded subscription index.
/// `smoke` runs the 1k-subscription row only (tier-1 CI).
fn e13_broker_openloop(smoke: bool) {
    const LAMBDA: f64 = 500.0; // publishes/s, 2 ms mean interarrival
    let (scales, publishes): (&[usize], usize) = if smoke {
        (&[1_000], 300)
    } else {
        (&[1_000, 10_000, 100_000], 1_000)
    };
    let rows: Vec<Vec<String>> = scales
        .iter()
        .map(|&n| {
            let (thru, p50, p99, p999) = e13_run(n, publishes, LAMBDA);
            vec![
                n.to_string(),
                publishes.to_string(),
                format!("{thru:.0}/s"),
                fmt_lat(p50),
                fmt_lat(p99),
                fmt_lat(p999),
            ]
        })
        .collect();
    print_table(
        "E13 — open-loop broker fan-out (Poisson arrivals, 500 publishes/s, ~100 subscriptions per topic root)",
        &[
            "subscriptions",
            "publishes",
            "deliveries",
            "p50",
            "p99",
            "p999",
        ],
        &rows,
    );
}

/// An HTTP server exposing `grid`'s registry (the SOAP endpoint is an
/// echo — only the GET surface is used).
fn exposition_server(grid: &CampusGrid, name: &'static str) -> HttpSoapServer {
    let config = HttpConfig {
        registry: grid.metrics.clone(),
        clock: Some(grid.clock.clone()),
        expose: true,
        ..HttpConfig::default()
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
    // zero-capacity event log. Alternating best-of-N, like
    // E1c, so ambient scheduler noise hits both configurations.
    let ablate =
        |label: &str,
         rows: &mut Vec<Vec<String>>,
         env_for: &dyn Fn(&Arc<wsrf_core::container::Service>) -> Envelope| {
            let touch = |svc: &Arc<wsrf_core::container::Service>, env: &Envelope| {
                time_per_iter(2_000, || {
                    svc.dispatch(env.clone());
                })
            };
            let (svc_off, _epr_off, _net_off) = bench_service_obs(
                Arc::new(MemoryStore::new()),
                MetricsRegistry::new(ObsConfig::enabled().with_event_capacity(0)),
            );
            let (svc_on, _epr_on, _net_on) = bench_service_obs(
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
    // lazy dispatch path with the fixed E11c request pair and mirror
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
    ("e1", e1_dispatch),
    ("e2", e2_properties),
    ("e3", e3_jobsets),
    ("e4", e4_notification),
    ("e5", e5_transfer),
    ("e6", e6_scheduler),
    ("e6b", e6b_degraded),
    ("e7", e7_store),
    ("e8", e8_polling),
    ("e9", e9_security),
    ("e10", e10_contention),
    ("e11", e11_wirepath),
    ("e11c", e11c_inbound),
    ("e13", || e13_broker_openloop(false)),
    ("e14", e14_monitoring),
    // Regenerates BENCH_metrics.json; tier-1 feeds it to the gate.
    ("metrics", metrics_dump),
];

/// Tier-1's fast sanity checks; run only when named.
const SMOKES: &[(&str, fn())] = &[
    ("e13-smoke", || e13_broker_openloop(true)),
    ("monitor-smoke", monitor_smoke),
];

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
