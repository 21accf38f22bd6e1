//! §5's client-durability concern, implemented and tested: "How
//! durable does that client-side information need to be (e.g., should
//! it survive client shutdown?) and how a client might possibly
//! rediscover their resources should their EPRs be lost."

use std::time::Duration;

use wsrf_grid::prelude::*;

fn submit_and_finish(grid: &CampusGrid, client: &Client, name: &str) -> JobSetHandle {
    client.put_file(
        "C:\\p.exe",
        JobProgram::compute(1.0)
            .writing("result.dat", 64)
            .to_manifest(),
    );
    let spec = JobSetSpec::new(name).job(
        JobSpec::new("worker", FileRef::parse("local://C:\\p.exe").unwrap()).output("result.dat"),
    );
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(10));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    handle
}

#[test]
fn restored_handle_recovers_outcome_and_outputs() {
    let grid = CampusGrid::build(GridConfig::with_machines(2), Clock::manual());
    let original_client = grid.client("before-crash");
    submit_and_finish(&grid, &original_client, "survivor");

    // "Client shutdown": a brand new client with empty event history.
    let new_client = grid.client("after-crash");
    let found = new_client.rediscover(Some("survivor")).unwrap();
    assert_eq!(found.len(), 1);
    let restored = &found[0];

    // No events — but the resource-backed paths all work.
    assert!(restored.events().is_empty());
    assert_eq!(restored.outcome(), None, "event-based view is empty");
    assert_eq!(
        restored.resource_outcome().unwrap(),
        Some(JobSetOutcome::Completed),
        "resource-based view is authoritative"
    );
    assert_eq!(restored.status().unwrap(), "Completed");
    // Working directory rediscovered through the JobDirectory resource
    // property, then the output fetched through the FSS.
    let out = restored.fetch_output("worker", "result.dat").unwrap();
    assert_eq!(out.len(), 64);
}

#[test]
fn rediscover_filters_by_name_and_lists_all() {
    let grid = CampusGrid::build(GridConfig::with_machines(2), Clock::manual());
    let client = grid.client("c");
    submit_and_finish(&grid, &client, "alpha");
    submit_and_finish(&grid, &client, "beta");

    let all = client.rediscover(None).unwrap();
    assert_eq!(all.len(), 2);
    let alpha = client.rediscover(Some("alpha")).unwrap();
    assert_eq!(alpha.len(), 1);
    assert!(client.rediscover(Some("nope")).unwrap().is_empty());
}

#[test]
fn restored_handle_sees_failures_with_fault_chain() {
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let client = grid.client("c");
    client.put_file(
        "C:\\bad.exe",
        JobProgram::compute(0.5).exiting(3).to_manifest(),
    );
    let spec = JobSetSpec::new("doomed").job(JobSpec::new(
        "bad",
        FileRef::parse("local://C:\\bad.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert!(matches!(handle.outcome(), Some(JobSetOutcome::Failed(_))));

    let restored = grid
        .client("c2")
        .rediscover(Some("doomed"))
        .unwrap()
        .remove(0);
    match restored.resource_outcome().unwrap() {
        Some(JobSetOutcome::Failed(fault)) => {
            assert_eq!(fault.error_code, "uvacg:JobSetFailed");
            assert!(fault.root_cause().description.contains("code 3"), "{fault}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn job_set_resources_can_be_lease_cleaned() {
    // Combine rediscovery with WS-ResourceLifetime: expire old job-set
    // records so the Scheduler's store doesn't grow forever.
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let client = grid.client("c");
    let handle = submit_and_finish(&grid, &client, "ephemeral");
    let proxy = wsrf_grid::wsrf::ResourceProxy::new(&grid.net, handle.jobset.clone());
    let now = grid.clock.now();
    proxy
        .set_termination_time(Some(now + Duration::from_secs(100)))
        .unwrap();
    grid.clock.advance(Duration::from_secs(101));
    assert!(client.rediscover(Some("ephemeral")).unwrap().is_empty());
}

/// A set whose lease a client ends now is gone to every reader at once,
/// before its reaper runs: its EPR answers `wsrf:NoSuchResource`,
/// `FindJobSets` no longer lists it and the scheduler reports no states.
#[test]
fn a_set_past_its_lease_is_neither_listed_nor_reported() {
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let client = grid.client("c");
    let handle = submit_and_finish(&grid, &client, "expired");
    let key = handle.jobset.resource_key().unwrap();
    assert!(grid.scheduler.job_states(key).is_some());
    let proxy = wsrf_grid::wsrf::ResourceProxy::new(&grid.net, handle.jobset.clone());
    proxy.set_termination_time(Some(grid.clock.now())).unwrap();

    let fault = handle.status().unwrap_err();
    assert!(format!("{fault:?}").contains("NoSuchResource"), "{fault:?}");
    assert!(client.rediscover(Some("expired")).unwrap().is_empty());
    assert_eq!(grid.scheduler.job_states(key), None);
}
