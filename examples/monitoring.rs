//! WSRF introspection tour: everything on the grid is a WS-Resource,
//! so one generic toolset — GetResourceProperty, XPath queries,
//! lifetimes, subscriptions — inspects jobs, directories, job sets,
//! processors and even the broker's own subscriptions.
//!
//! ```text
//! cargo run --example monitoring
//! ```

use std::sync::Arc;
use std::time::Duration;

use wsrf_grid::notification::{broker, NotificationListener, TopicExpression};
use wsrf_grid::prelude::*;
use wsrf_grid::soap::ns;
use wsrf_grid::wsrf::{Outbound, ResourceProxy};
use wsrf_grid::xml::Element as El;

fn get_property(grid: &CampusGrid, epr: &EndpointReference, name: &str) -> String {
    ResourceProxy::new(&grid.net, epr.clone())
        .get_text(name)
        .expect("call")
}

fn query(grid: &CampusGrid, epr: &EndpointReference, xpath: &str) -> String {
    let hits = ResourceProxy::new(&grid.net, epr.clone())
        .query(xpath)
        .expect("call");
    hits.iter().map(El::text_content).collect()
}

fn main() {
    let grid = CampusGrid::build(
        GridConfig::with_machines(3)
            .with_policy(Arc::new(MetricsFeedback::new()))
            .with_tracing(TraceConfig::enabled()),
        Clock::scaled(1000.0),
    );
    let client = grid.client("ops");

    client.put_file(
        "C:\\p.exe",
        JobProgram::compute(30.0).writing("o", 100).to_manifest(),
    );
    let spec = JobSetSpec::new("observed")
        .job(JobSpec::new("watch-me", FileRef::parse("local://C:\\p.exe").unwrap()).output("o"));
    let handle = client
        .submit(&spec, "griduser", "gridpass")
        .expect("submit");
    assert!(handle.wait_job_started("watch-me", Duration::from_secs(30)));

    let job = handle.job_epr("watch-me").expect("job EPR");
    let dir = handle.job_dir("watch-me").expect("dir EPR");

    println!("== the job resource ==");
    println!("  Status       = {}", get_property(&grid, &job, "Status"));
    println!("  JobName      = {}", get_property(&grid, &job, "JobName"));
    println!(
        "  CpuTimeUsed  = {}",
        get_property(&grid, &job, "CpuTimeUsed")
    );
    println!(
        "  XPath [Status='Running']/JobName = {}",
        query(
            &grid,
            &job,
            "/ResourcePropertyDocument[Status='Running']/JobName"
        )
    );

    println!("\n== the directory resource ==");
    println!("  Path = {}", get_property(&grid, &dir, "Path"));

    println!("\n== the job-set resource ==");
    println!(
        "  Status = {}",
        get_property(&grid, &handle.jobset, "Status")
    );
    println!(
        "  JobStatus entries = {}",
        query(&grid, &handle.jobset, "//JobStatus")
    );

    println!("\n== a processor entry in the Node Info group ==");
    let nis = EndpointReference::service(&grid.nis_address);
    let resp = Outbound::new(
        nis,
        wsrf_grid::wsrf::servicegroup::group_action("NodeInfo", "Entries"),
        El::new(ns::WSSG, "Entries"),
    )
    .call(&grid.net)
    .unwrap();
    let entry =
        EndpointReference::from_element(resp.body.elements().next().expect("entry")).unwrap();
    for p in ["Machine", "CpuMhz", "Utilization"] {
        println!("  {p:<12} = {}", get_property(&grid, &entry, p));
    }

    println!("\n== a subscription resource at the broker ==");
    let probe = NotificationListener::register(&grid.net, "inproc://ops/probe");
    let sub = broker::subscribe(
        &grid.net,
        &grid.broker,
        &probe.epr(),
        &TopicExpression::full(&format!("{}//", handle.topic)),
        Some(10_000.0), // lease: virtual seconds
    )
    .expect("subscribe");
    println!(
        "  TopicExpression = {}",
        get_property(&grid, &sub, "TopicExpression")
    );
    println!(
        "  Paused          = {}",
        get_property(&grid, &sub, "Paused")
    );
    broker::set_subscription_paused(&grid.net, &sub, true).unwrap();
    println!(
        "  Paused (after PauseSubscription) = {}",
        get_property(&grid, &sub, "Paused")
    );

    let outcome = handle.wait(Duration::from_secs(60)).expect("finished");
    println!("\njob set outcome: {outcome:?}");
    println!("final job Status = {}", get_property(&grid, &job, "Status"));
    println!(
        "final CpuTimeUsed = {}",
        get_property(&grid, &job, "CpuTimeUsed")
    );
    println!(
        "probe heard {} events while paused (expected 0 extra)",
        probe.count()
    );

    // The scheduler's feedback loop is itself a WS-Resource: the
    // metrics-feedback policy publishes its per-machine penalty table
    // as {UVACG}MachinePenalty rows, readable with the same generic
    // WSRF tools as everything above.
    println!("\n== the scheduler's feedback table ==");
    let feedback = ResourceProxy::new(&grid.net, grid.scheduler.feedback_epr());
    println!(
        "  Policy = {}",
        feedback.get_text("Policy").expect("feedback policy")
    );
    for row in feedback
        .document()
        .expect("feedback doc")
        .get_local("MachinePenalty")
    {
        println!(
            "  {:<10} penalty {:<8} ewma {:>14} ns  observations {}",
            row.attr_value("machine").unwrap_or("?"),
            row.attr_value("penalty").unwrap_or("?"),
            row.attr_value("ewmaNs").unwrap_or("?"),
            row.attr_value("observations").unwrap_or("?"),
        );
    }

    // The grid observes itself too: every dispatch stage, transport
    // transfer, broker fan-out and scheduler step landed in the
    // deployment's metrics registry (wsrf-obs).
    println!("\n== live metrics (wsrf-obs registry) ==");
    print!("{}", grid.metrics_snapshot().render());

    // Tracing was enabled above, so the submission left a causal span
    // tree behind: the job set stores its TraceId as a resource
    // property, and the full tree is queryable as the {UVACG}Trace RP.
    println!("\n== the submission's span tree ==");
    let trace_hex = get_property(&grid, &handle.jobset, "TraceId");
    let trace_id = u64::from_str_radix(&trace_hex, 16).expect("TraceId RP");
    print!("{}", grid.metrics.tracer().trace(trace_id).render_tree());
}
