//! The monitoring-plane acceptance scenario: exposition round-trips,
//! bounded event rings, SLO burn-rate on the virtual clock, and
//! cross-authority aggregation.
//!
//! The grid already *measures* itself (observability.rs); this suite
//! proves the measurements travel: out the HTTP exposition endpoints,
//! through the structured event log onto the `monitor/events` topic,
//! into `{UVACG}Health` resource properties, and finally into one
//! [`GridCatalog`] spanning two authorities.

use std::sync::Arc;
use std::time::Duration;

use wsrf_grid::obs;
use wsrf_grid::prelude::*;
use wsrf_grid::transport::http::{http_get, HttpConfig, HttpSoapServer};
use wsrf_grid::transport::FnEndpoint;
use wsrf_grid::wsrf::proxy::ResourceProxy;

/// Submit `jobs` one-job sets of `secs` CPU-seconds and run the clock
/// until they settle.
fn run_jobs(grid: &CampusGrid, client_id: &str, jobs: usize, secs: f64) -> Vec<JobSetHandle> {
    let client = grid.client(client_id);
    client.put_file(
        "C:\\work.exe",
        JobProgram::compute(secs)
            .writing("out.dat", 32)
            .to_manifest(),
    );
    let handles: Vec<JobSetHandle> = (0..jobs)
        .map(|i| {
            let spec = JobSetSpec::new(format!("{client_id}-{i}")).job(
                JobSpec::new("crunch", FileRef::parse("local://C:\\work.exe").unwrap())
                    .output("out.dat"),
            );
            client
                .submit(&spec, "griduser", "gridpass")
                .expect("submit")
        })
        .collect();
    for _ in 0..120 {
        if handles.iter().all(|h| h.outcome().is_some()) {
            break;
        }
        grid.clock.advance(Duration::from_secs(1));
    }
    handles
}

/// Submit one job whose program exits non-zero, and run it to failure.
fn run_doomed(grid: &CampusGrid, client_id: &str) -> JobSetHandle {
    let client = grid.client(client_id);
    client.put_file(
        "C:\\bad.exe",
        JobProgram::compute(0.5).exiting(9).to_manifest(),
    );
    let spec = JobSetSpec::new(format!("{client_id}-doomed")).job(JobSpec::new(
        "boom",
        FileRef::parse("local://C:\\bad.exe").unwrap(),
    ));
    let handle = client
        .submit(&spec, "griduser", "gridpass")
        .expect("submit");
    for _ in 0..30 {
        if handle.outcome().is_some() {
            break;
        }
        grid.clock.advance(Duration::from_secs(1));
    }
    assert!(
        matches!(handle.outcome(), Some(JobSetOutcome::Failed(_))),
        "doomed set did not fail: {:?}",
        handle.outcome()
    );
    handle
}

/// A monitored HTTP server exposing `grid`'s registry (the SOAP
/// endpoint is a stub — only the GET surface is under test).
fn expose(grid: &CampusGrid) -> HttpSoapServer {
    let config = HttpConfig {
        registry: grid.metrics.clone(),
        clock: Some(grid.clock.clone()),
        expose: true,
        ..HttpConfig::default()
    };
    HttpSoapServer::start_with(Arc::new(FnEndpoint::new("echo", Some)), config)
        .expect("bind exposition server")
}

#[test]
fn exposition_round_trips_live_grid_metrics() {
    let grid = CampusGrid::build(
        GridConfig::with_machines(2).with_tracing(TraceConfig::enabled()),
        Clock::manual(),
    );
    let handles = run_jobs(&grid, "scientist", 2, 2.0);
    assert!(handles
        .iter()
        .all(|h| h.outcome() == Some(JobSetOutcome::Completed)));
    let server = expose(&grid);

    // Prometheus text: dotted registry names flatten to underscores,
    // histograms grow the standard _count/_sum series.
    let (code, prom) = http_get(&server.authority(), "/metrics").unwrap();
    assert_eq!(code, 200);
    assert!(prom.contains("scheduler_makespan_ns_count 2"), "{prom}");
    assert!(prom.contains("container_Scheduler_dispatches"), "{prom}");

    // The JSON endpoint renders the *identical* flat form the
    // in-process snapshot writes — one parser serves both paths.
    let (code, json) = http_get(&server.authority(), "/metrics.json").unwrap();
    assert_eq!(code, 200);
    let scraped = obs::MetricsSnapshot::from_json(&json).unwrap();
    let local = obs::MetricsSnapshot::from_json(&grid.metrics_snapshot().to_json()).unwrap();
    assert_eq!(scraped.histogram("scheduler.makespan_ns").unwrap().count, 2);
    for key in ["scheduler.makespan_ns", "scheduler.step.03_es_run_ns"] {
        assert_eq!(
            scraped.histogram(key),
            local.histogram(key),
            "HTTP and in-process diverge on {key}"
        );
    }

    // Healthy grid → 200 with every machine's SLO window inside budget.
    let (code, hz) = http_get(&server.authority(), "/healthz").unwrap();
    assert_eq!(code, 200);
    assert!(hz.contains("\"status\": \"ok\""), "{hz}");
    // Placement picked one machine; whichever it was, its window shows.
    assert!(hz.contains("machine0"), "{hz}");
    assert!(hz.contains("\"service\": \"Scheduler\""), "{hz}");

    // Trace export: a root span recorded on the same registry comes
    // back in Chrome trace format under its hex id.
    let root = grid
        .metrics
        .tracer()
        .start_root("probe", "Monitor", &grid.clock);
    let trace_id = root.context().trace_id;
    drop(root);
    let (code, trace) =
        http_get(&server.authority(), &format!("/traces/{trace_id:x}.json")).unwrap();
    assert_eq!(code, 200);
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    assert!(trace.contains("\"name\": \"probe\""), "{trace}");
}

#[test]
fn event_log_rings_stay_bounded_under_grid_load() {
    // Retain only 2 events per severity: four failed job sets must
    // overflow the warn ring without disturbing sequence order.
    let grid = CampusGrid::build(
        GridConfig::with_machines(1).with_obs(ObsConfig::enabled().with_event_capacity(2)),
        Clock::manual(),
    );
    for i in 0..4 {
        run_doomed(&grid, &format!("chaos-{i}"));
    }

    let log = grid.metrics.events();
    assert_eq!(log.capacity(), 2);
    let all = log.all();
    let warns: Vec<_> = all
        .iter()
        .filter(|e| e.severity == obs::Severity::Warn)
        .collect();
    assert_eq!(warns.len(), 2, "warn ring must hold exactly its capacity");
    assert!(
        warns.iter().all(|e| e.kind == obs::EventKind::JobFailed),
        "{warns:?}"
    );
    // Four failures emitted, two retained — the drop was counted, the
    // sequence stayed global and monotone.
    assert!(log.last_seq() >= 4);
    assert!(
        all.windows(2).all(|w| w[0].seq < w[1].seq),
        "sequence order"
    );
    let snap = grid.metrics_snapshot();
    assert_eq!(snap.counter("events.job_failed"), Some(4));
    assert!(snap.counter("events.dropped") >= Some(2));
    // An incremental reader starting past the tail sees nothing.
    assert!(log.since(log.last_seq()).is_empty());
}

#[test]
fn slo_burn_rate_follows_the_virtual_window() {
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    run_doomed(&grid, "chaos");

    // One failure against a 99.9% objective burns far past budget.
    let now = grid.clock.now().as_nanos();
    let health = grid
        .metrics
        .slo()
        .health("machine01", now)
        .expect("machine01 tracked");
    assert!(health.total >= 1);
    assert!(health.burn_rate > 1.0, "burn {}", health.burn_rate);
    assert!(!health.is_healthy());

    // Let the rolling window (8 × 30 virtual seconds) pass, then do
    // good work: the failure ages out and the window recovers.
    grid.clock.advance(Duration::from_secs(300));
    let handles = run_jobs(&grid, "scientist", 2, 1.0);
    assert!(handles
        .iter()
        .all(|h| h.outcome() == Some(JobSetOutcome::Completed)));
    let now = grid.clock.now().as_nanos();
    let health = grid.metrics.slo().health("machine01", now).unwrap();
    assert!(
        health.is_healthy(),
        "burn {} after recovery",
        health.burn_rate
    );
    assert_eq!(health.burn_rate, 0.0);
    assert_eq!(health.ok, health.total);
    assert!(health.p99_ns > 0, "virtual makespans feed the window p99");
}

#[test]
fn monitor_aggregates_registry_and_http_authorities() {
    // Two campuses on one clock. campus-a is read in-process; campus-b
    // is scraped over real HTTP from its exposition endpoint — the
    // catalog must not care which path a row came from.
    let clock = Clock::manual();
    let campus_a = CampusGrid::build(GridConfig::with_machines(2), clock.clone());
    let campus_b = CampusGrid::build(GridConfig::with_machines(1), clock.clone());
    let server_b = expose(&campus_b);

    let monitor = MonitorService::new(clock.clone());
    monitor
        .add_authority(
            "campus-a",
            &campus_a.net,
            &campus_a.broker,
            MetricsSource::Registry(campus_a.metrics.clone()),
        )
        .unwrap();
    monitor
        .add_authority(
            "campus-b",
            &campus_b.net,
            &campus_b.broker,
            MetricsSource::Http(server_b.authority()),
        )
        .unwrap();
    assert_eq!(monitor.authority_count(), 2);

    let ok = run_jobs(&campus_a, "ops-a", 2, 2.0);
    assert!(ok
        .iter()
        .all(|h| h.outcome() == Some(JobSetOutcome::Completed)));
    run_doomed(&campus_b, "chaos");
    assert!(campus_a.pump_events() > 0, "campus-a had events to stream");
    assert!(campus_b.pump_events() > 0, "campus-b had events to stream");

    let catalog = monitor.poll();
    let names: Vec<&str> = catalog
        .authorities
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(names, ["campus-a", "campus-b"]);

    let a = &catalog.authorities[0];
    assert_eq!(a.sets_completed, 2);
    assert_eq!(a.jobs_completed, 2);
    assert_eq!(a.jobs_in_flight, 0);
    assert!(a.dispatches > 0);
    assert_eq!(a.faults, 0);
    assert!(!a.slowest_steps.is_empty());

    // campus-b's row was digested from the scraped /metrics.json, and
    // its failed set degraded /healthz into an alert.
    let b = &catalog.authorities[1];
    assert!(b.jobs_dispatched >= 1, "HTTP row saw no dispatches");
    assert!(
        b.alerts.iter().any(|al| al.contains("SLO burn")),
        "alerts: {:?}",
        b.alerts
    );

    // The pumped events crossed the notification fabric with their
    // authority stamp intact.
    let events = monitor.events();
    assert!(events
        .iter()
        .any(|e| e.authority == "campus-b" && e.kind == "job_failed"));
    assert!(events.iter().any(|e| e.authority == "campus-a"));
    let frame = catalog.render();
    assert!(frame.contains("campus-a") && frame.contains("campus-b"));

    // The same data is a WSRF resource: campus-b's monitor resource
    // serves {UVACG}Health and {UVACG}EventLog through the standard
    // port types.
    let proxy = ResourceProxy::new(&campus_b.net, campus_b.monitor_epr());
    let doc = proxy.document().unwrap();
    let health = doc.get_local("Health").first().expect("Health RP");
    let machine = health
        .elements()
        .find(|s| s.attr_value("name") == Some("machine01"))
        .expect("machine01 health entry");
    assert_eq!(machine.attr_value("healthy"), Some("false"));
    let log = doc.get_local("EventLog").first().expect("EventLog RP");
    assert!(log.elements().next().is_some(), "EventLog RP empty");
}
