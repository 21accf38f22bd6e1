//! Distributed tracing end to end: the Figure 3 walkthrough replayed
//! with tracing enabled must leave one connected span tree behind —
//! rooted at the client's submit, covering all ten numbered steps,
//! with spans from every service in the pipeline — queryable through
//! the job set's `{UVACG}Trace` resource property and propagating over
//! a real HTTP hop.

#![allow(clippy::result_large_err)]

use std::sync::Arc;
use std::time::Duration;

use wsrf_grid::prelude::*;
use wsrf_grid::soap::ns;
use wsrf_grid::transport::http::{http_call, HttpConfig, HttpSoapServer};
use wsrf_grid::wsrf::container::ServiceBuilder;
use wsrf_grid::wsrf::porttypes::wsrp_action;
use wsrf_grid::wsrf::Outbound;
use wsrf_grid::wsrf::{MemoryStore, PropertyDoc};
use wsrf_grid::xml::{Element as El, QName};

const STEPS: [(u32, &str); 10] = [
    (1, "submit"),
    (2, "nis_poll"),
    (3, "es_run"),
    (4, "workdir"),
    (5, "client_stage"),
    (6, "grid_stage"),
    (7, "upload_complete"),
    (8, "spawn"),
    (9, "epr_broadcast"),
    (10, "exit_broadcast"),
];

fn traced_grid() -> CampusGrid {
    CampusGrid::build(
        GridConfig::with_machines(2).with_tracing(TraceConfig::enabled()),
        Clock::manual(),
    )
}

/// Submit the walkthrough job set and run it to completion.
fn run_walkthrough(grid: &CampusGrid) -> JobSetHandle {
    let client = grid.client("scientist");
    client.put_file(
        "C:\\proj\\stage1.exe",
        JobProgram::compute(2.0)
            .reading("in1")
            .writing("out", 64)
            .to_manifest(),
    );
    client.put_file("C:\\proj\\file1", vec![7u8; 128]);
    let spec = JobSetSpec::new("traced").job(
        JobSpec::new(
            "job1",
            FileRef::parse("local://C:\\proj\\stage1.exe").unwrap(),
        )
        .input(FileRef::parse("local://C:\\proj\\file1").unwrap(), "in1")
        .output("out"),
    );
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    handle
}

fn get_property(grid: &CampusGrid, epr: &EndpointReference, name: &str) -> El {
    let body = El::new(ns::WSRP, "GetResourceProperty").text(name);
    Outbound::new(epr.clone(), wsrp_action("GetResourceProperty"), body)
        .call(&grid.net)
        .expect("call")
        .body
}

fn trace_id_of(grid: &CampusGrid, handle: &JobSetHandle) -> u64 {
    let hex = get_property(grid, &handle.jobset, "TraceId").text_content();
    u64::from_str_radix(&hex, 16).expect("TraceId RP is hex")
}

#[test]
fn figure3_submission_yields_one_connected_ten_step_span_tree() {
    let grid = traced_grid();
    let handle = run_walkthrough(&grid);

    let id = trace_id_of(&grid, &handle);
    let snap = grid.metrics.tracer().trace(id);
    assert!(!snap.is_empty());

    // Exactly one root: the client-side submit span.
    let roots = snap.roots();
    assert_eq!(roots.len(), 1, "tree:\n{}", snap.render_tree());
    assert_eq!(&*roots[0].name, "client.submit");
    assert_eq!(&*roots[0].service, "Client");

    // Connected causality: every non-root span's parent is in the tree
    // and no child starts before its parent in virtual time.
    for s in &snap.spans {
        assert_eq!(s.trace_id, id);
        assert!(s.virt_start_ns <= s.virt_end_ns, "{} ends early", s.name);
        if s.parent_id != 0 {
            let parent = snap
                .spans
                .iter()
                .find(|p| p.span_id == s.parent_id)
                .unwrap_or_else(|| panic!("span {} has a dangling parent", s.name));
            assert!(
                s.virt_start_ns >= parent.virt_start_ns,
                "{} starts before its parent {}",
                s.name,
                parent.name
            );
        }
    }

    // All ten Figure 3 steps, monotone in virtual time, parented under
    // the Scheduler's SubmitJobSet dispatch span.
    let submit_dispatch = snap
        .find("dispatch.SubmitJobSet")
        .expect("scheduler dispatch span");
    let mut last = 0u64;
    for (step, name) in STEPS {
        let span = snap
            .find(&format!("step.{step:02}_{name}"))
            .unwrap_or_else(|| panic!("missing step {step} ({name}):\n{}", snap.render_tree()));
        assert_eq!(span.parent_id, submit_dispatch.span_id, "step {step}");
        assert_eq!(&*span.service, "Scheduler");
        assert!(span.virt_start_ns >= last, "step {step} goes backwards");
        last = span.virt_start_ns;
    }

    // Every service in the pipeline contributed spans, on both sides of
    // the transport hops.
    for service in [
        "Client",
        "Scheduler",
        "Execution",
        "FileSystem",
        "Broker",
        "inproc",
    ] {
        assert!(
            snap.spans.iter().any(|s| &*s.service == service),
            "no {service} span:\n{}",
            snap.render_tree()
        );
    }
}

#[test]
fn trace_rp_is_queryable_like_any_resource_property() {
    let grid = traced_grid();
    let handle = run_walkthrough(&grid);
    let id = trace_id_of(&grid, &handle);

    // GetResourceProperty("Trace") returns the whole rendered tree as
    // a {UVACG}Trace element with one Span child per finished span.
    let body = get_property(&grid, &handle.jobset, "Trace");
    let trace_el = body.elements().next().expect("Trace element");
    assert_eq!(trace_el.name.local, "Trace");
    let spans: Vec<&El> = trace_el.elements().collect();
    assert_eq!(spans.len(), grid.metrics.tracer().trace(id).len());
    let hex = format!("{id:016x}");
    for s in &spans {
        assert_eq!(s.name.local, "Span");
        assert_eq!(s.attr_value("traceId"), Some(hex.as_str()));
    }
    for (step, name) in STEPS {
        let tag = format!("step.{step:02}_{name}");
        assert!(
            spans
                .iter()
                .any(|s| s.attr_value("name") == Some(tag.as_str())),
            "step {step} missing from Trace RP"
        );
    }
}

#[test]
fn tracing_is_off_by_default_and_leaves_no_spans() {
    let grid = CampusGrid::build(GridConfig::with_machines(2), Clock::manual());
    let client = grid.client("scientist");
    client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
    let spec = JobSetSpec::new("untraced").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    assert!(!grid.metrics.tracer().is_enabled());
    assert!(grid.metrics.tracer().snapshot().is_empty());
}

#[test]
fn trace_propagates_over_real_http_transport() {
    // A traced service behind a real localhost HTTP socket: the hop
    // opens a transport.serve span as the child of the caller's header
    // and the container dispatch nests under the hop.
    let clock = Clock::manual();
    let registry = MetricsRegistry::with_tracing(ObsConfig::enabled(), TraceConfig::enabled());
    let net = wsrf_grid::transport::InProcNetwork::with_metrics(
        clock.clone(),
        NetConfig::default(),
        &registry,
    );
    let svc = ServiceBuilder::new(
        "Counter",
        "inproc://local/Counter",
        Arc::new(MemoryStore::new()),
    )
    .operation("Bump", |ctx| {
        let doc = ctx.resource_mut()?;
        let q = QName::new(wsrf_grid::testbed::UVACG, "Count");
        let n = doc.i64(&q).unwrap_or(0) + 1;
        doc.set_i64(q, n);
        Ok(El::new(wsrf_grid::testbed::UVACG, "BumpResponse").text(n.to_string()))
    })
    .build(clock.clone(), net);
    let mut doc = PropertyDoc::new();
    doc.set_i64(QName::new(wsrf_grid::testbed::UVACG, "Count"), 0);
    let epr = svc.core().create_resource_with_key("c1", doc).unwrap();
    let config = HttpConfig {
        registry: registry.clone(),
        clock: Some(clock.clone()),
        ..HttpConfig::default()
    };
    let server = HttpSoapServer::start_with(svc.clone(), config).unwrap();

    let tracer = registry.tracer().clone();
    let mut root = tracer.start_root("client.bump", "Client", &clock);
    let ctx = root.context();
    let env = Outbound::new(
        epr,
        wsrf_grid::wsrf::container::action_uri("Counter", "Bump"),
        El::new(wsrf_grid::testbed::UVACG, "Bump"),
    )
    .trace(Some(&TraceContext::new(
        ctx.trace_id,
        ctx.span_id,
        ctx.sampled,
    )))
    .into_envelope();
    let resp = http_call(&server.authority(), "Counter", &env).unwrap();
    assert!(!resp.is_fault(), "{:?}", resp.fault());
    root.annotate("transport", "http");
    root.finish();

    // The serve hop is recorded by the server thread after it writes
    // the response; give it a moment to land.
    let mut snap = tracer.trace(ctx.trace_id);
    for _ in 0..200 {
        if snap.find("transport.serve").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        snap = tracer.trace(ctx.trace_id);
    }
    let roots = snap.roots();
    assert_eq!(roots.len(), 1, "tree:\n{}", snap.render_tree());
    let serve = snap.find("transport.serve").expect("http hop span");
    assert_eq!(&*serve.service, "http");
    assert_eq!(serve.parent_id, roots[0].span_id, "hop under client root");
    let dispatch = snap.find("dispatch.Bump").expect("dispatch span");
    assert_eq!(dispatch.parent_id, serve.span_id, "dispatch under hop");
}
