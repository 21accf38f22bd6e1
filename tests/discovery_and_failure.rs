//! Service self-description (the WSDL analogue) across a live grid,
//! and machine-failure behaviour: a dead machine must surface as a
//! routable fault chain, not a hang.

use std::time::Duration;

use wsrf_grid::prelude::*;
use wsrf_grid::wsrf::wsdl::fetch_description;

#[test]
fn every_grid_service_self_describes() {
    let grid = CampusGrid::build(GridConfig::with_machines(2), Clock::manual());

    let es = fetch_description(&grid.net, "inproc://machine01/Execution").unwrap();
    assert_eq!(es.name, "Execution");
    assert!(es.supports_resource_properties());
    assert!(es.supports_lifetime());
    assert!(es.key_property.ends_with("JobKey"));
    assert!(es
        .computed_properties
        .iter()
        .any(|p| p.contains("CpuTimeUsed")));

    let fss = fetch_description(&grid.net, "inproc://machine01/FileSystem").unwrap();
    assert!(fss.supports(&wsrf_grid::wsrf::container::action_uri(
        "FileSystem",
        "Read"
    )));
    assert!(fss.key_property.ends_with("DirectoryKey"));

    let sched = fetch_description(&grid.net, "inproc://hub/Scheduler").unwrap();
    assert!(sched.supports(&wsrf_grid::wsrf::container::action_uri(
        "Scheduler",
        "SubmitJobSet"
    )));
    assert!(sched.supports(&wsrf_grid::wsrf::container::action_uri(
        "Scheduler",
        "FindJobSets"
    )));

    let broker = fetch_description(&grid.net, "inproc://hub/Broker").unwrap();
    assert!(broker
        .operations
        .iter()
        .any(|(a, _)| a.ends_with("/Subscribe")));
    assert!(broker
        .operations
        .iter()
        .any(|(a, _)| a.ends_with("/GetCurrentMessage")));
}

#[test]
fn client_can_discover_capabilities_before_calling() {
    // A generic client decides which interface to use from the
    // description — the interoperability story of §5.
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let desc = fetch_description(&grid.net, "inproc://machine01/Execution").unwrap();
    // The client sees GetResourceProperty is available and uses the
    // generic proxy rather than a bespoke interface.
    assert!(desc.supports_resource_properties());
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(100.0).to_manifest());
    let spec = JobSetSpec::new("d").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    let job = handle.job_epr("j").unwrap();
    let proxy = wsrf_grid::wsrf::ResourceProxy::new(&grid.net, job);
    assert_eq!(proxy.get_text("Status").unwrap(), "Running");
}

#[test]
fn machine_dead_before_dispatch_fails_with_transport_fault_chain() {
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    // The machine's services vanish (power cut) before any submission.
    assert!(grid.net.unregister("inproc://machine01/Execution"));
    assert!(grid.net.unregister("inproc://machine01/FileSystem"));

    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
    let spec = JobSetSpec::new("dead").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            assert_eq!(fault.error_code, "uvacg:JobSetFailed");
            let chain = fault.to_string();
            assert!(chain.contains("uvacg:DispatchFailed"), "{chain}");
            assert!(chain.contains("no route"), "{chain}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn broker_get_current_message_catches_up_a_late_observer() {
    // A monitoring tool that attaches after events happened can still
    // read the last event per topic.
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let client = grid.client("c");
    client.put_file(
        "C:\\p.exe",
        JobProgram::compute(1.0).exiting(5).to_manifest(),
    );
    let spec = JobSetSpec::new("observed").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert!(matches!(handle.outcome(), Some(JobSetOutcome::Failed(_))));

    // Late observer, no subscription at all:
    let topic = format!("{}/job/j/exit", handle.topic);
    let last =
        wsrf_grid::notification::broker::get_current_message(&grid.net, &grid.broker, &topic)
            .unwrap()
            .expect("exit event cached");
    assert_eq!(last.payload.attr_value("code"), Some("5"));
    assert_eq!(
        wsrf_grid::notification::broker::get_current_message(
            &grid.net,
            &grid.broker,
            "never-published",
        )
        .unwrap(),
        None
    );
}

#[test]
fn proxies_work_against_every_resource_kind_on_the_grid() {
    // One generic tool, four resource kinds (the §5 payoff).
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(60.0).to_manifest());
    let spec = JobSetSpec::new("kinds").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(1));

    // Job resource.
    let job = wsrf_grid::wsrf::ResourceProxy::new(&grid.net, handle.job_epr("j").unwrap());
    assert_eq!(job.get_text("Status").unwrap(), "Running");
    assert!(job.get_f64("CpuTimeUsed").unwrap() > 0.0);

    // Directory resource.
    let dir = wsrf_grid::wsrf::ResourceProxy::new(&grid.net, handle.job_dir("j").unwrap());
    assert!(dir.get_text("Path").unwrap().starts_with("grid/"));

    // Job-set resource.
    let set = wsrf_grid::wsrf::ResourceProxy::new(&grid.net, handle.jobset.clone());
    assert_eq!(set.get_text("Status").unwrap(), "Running");
    assert_eq!(set.document().unwrap().get_local("JobStatus").len(), 1);

    // Processor entry resource (via the NIS group).
    let entries = wsrf_grid::wsrf::Outbound::new(
        EndpointReference::service(&grid.nis_address),
        wsrf_grid::wsrf::servicegroup::group_action("NodeInfo", "Entries"),
        wsrf_grid::xml::Element::new(wsrf_grid::soap::ns::WSSG, "Entries"),
    )
    .call(&grid.net)
    .unwrap();
    let entry_epr =
        EndpointReference::from_element(entries.body.elements().next().unwrap()).unwrap();
    let entry = wsrf_grid::wsrf::ResourceProxy::new(&grid.net, entry_epr);
    assert_eq!(entry.get_text("Machine").unwrap(), "machine01");
    assert_eq!(entry.get_f64("Utilization").unwrap(), 1.0);
}

#[test]
fn machine_crash_mid_run_trips_the_watchdog() {
    // A machine dies while a job runs: no exit notification ever
    // arrives. With the watchdog armed, the set fails with JobTimeout
    // instead of hanging forever.
    let grid = CampusGrid::build(
        GridConfig::with_machines(1).with_job_timeout(Duration::from_secs(120)),
        Clock::manual(),
    );
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(30.0).to_manifest());
    let spec = JobSetSpec::new("crash").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert_eq!(handle.poll_job_status("j").unwrap(), "Running");

    // Power cut.
    let machine = grid.machine("machine01").unwrap();
    assert_eq!(machine.crash(), 1);
    grid.net.unregister("inproc://machine01/Execution");
    grid.net.unregister("inproc://machine01/FileSystem");

    // The job would have finished at t=35; the watchdog fires at
    // t=125 (dispatch happened at t=0 + 120 + slack).
    grid.clock.advance(Duration::from_secs(100));
    assert!(handle.outcome().is_none(), "still waiting before timeout");
    grid.clock.advance(Duration::from_secs(30));
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            assert_eq!(fault.root_cause().error_code, "uvacg:JobTimeout", "{fault}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn job_completing_just_before_watchdog_keeps_the_set_completed() {
    // Race order 1: the exit event (t=119) lands before the watchdog
    // callback (t=120). The watchdog must see the terminal state and
    // stand down — a completed set must never flip to Failed.
    let grid = CampusGrid::build(
        GridConfig::with_machines(1).with_job_timeout(Duration::from_secs(120)),
        Clock::manual(),
    );
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(119.0).to_manifest());
    let spec = JobSetSpec::new("photo-finish").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(119));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    // Cross the watchdog deadline; the stale callback fires now.
    grid.clock.advance(Duration::from_secs(10));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    assert_eq!(handle.status().unwrap(), "Completed");
}

#[test]
fn exit_arriving_just_after_watchdog_keeps_the_set_failed() {
    // Race order 2: the watchdog (t=120) beats the exit event (t=121).
    // The set fails with JobTimeout, and the late exit must not
    // resurrect it to Completed.
    let grid = CampusGrid::build(
        GridConfig::with_machines(1).with_job_timeout(Duration::from_secs(120)),
        Clock::manual(),
    );
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(121.0).to_manifest());
    let spec = JobSetSpec::new("too-slow").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(120));
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            assert_eq!(fault.root_cause().error_code, "uvacg:JobTimeout", "{fault}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The job's real exit at t=121 arrives into a finished set.
    grid.clock.advance(Duration::from_secs(5));
    assert!(
        matches!(handle.outcome(), Some(JobSetOutcome::Failed(_))),
        "late exit must not resurrect a timed-out set"
    );
    assert_eq!(handle.status().unwrap(), "Failed");
}

#[test]
fn watchdog_does_not_fire_on_healthy_jobs() {
    let grid = CampusGrid::build(
        GridConfig::with_machines(1).with_job_timeout(Duration::from_secs(120)),
        Clock::manual(),
    );
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(10.0).to_manifest());
    let spec = JobSetSpec::new("healthy").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(500));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
}
