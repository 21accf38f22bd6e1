//! Failure injection across the whole stack: the WS-BaseFaults cause
//! chains the paper's design hinges on must survive every hop.

use std::sync::Arc;
use std::time::Duration;

use wsrf_grid::prelude::*;
use wsrf_grid::testbed::jobset::ValidationError;

fn grid() -> CampusGrid {
    CampusGrid::build(GridConfig::with_machines(2), Clock::manual())
}

fn stage(client: &Client, name: &str, prog: &JobProgram) -> FileRef {
    let path = format!("C:\\{name}");
    client.put_file(&path, prog.to_manifest());
    FileRef::parse(&format!("local://{path}")).unwrap()
}

#[test]
fn invalid_job_sets_fault_at_submission() {
    let grid = grid();
    let client = grid.client("c");
    // Cycle.
    let spec = JobSetSpec::new("cyclic")
        .job(
            JobSpec::new("a", FileRef::parse("local://C:\\x.exe").unwrap())
                .input(FileRef::parse("b://y").unwrap(), "i")
                .output("x"),
        )
        .job(
            JobSpec::new("b", FileRef::parse("local://C:\\x.exe").unwrap())
                .input(FileRef::parse("a://x").unwrap(), "i")
                .output("y"),
        );
    // Local validation catches it too.
    assert!(matches!(
        spec.validate(),
        Err(ValidationError::DependencyCycle(_))
    ));
    let err = client.submit(&spec, "griduser", "gridpass").unwrap_err();
    assert_eq!(err.error_code(), Some("uvacg:InvalidJobSet"));

    // Empty set.
    let err = client
        .submit(&JobSetSpec::new("empty"), "griduser", "gridpass")
        .unwrap_err();
    assert_eq!(err.error_code(), Some("uvacg:InvalidJobSet"));
}

#[test]
fn missing_local_file_fails_the_job_not_the_submission() {
    let grid = grid();
    let client = grid.client("c");
    let exe = stage(&client, "p.exe", &JobProgram::compute(1.0).reading("in"));
    let spec = JobSetSpec::new("missing-input").job(
        JobSpec::new("j", exe).input(FileRef::parse("local://C:\\does-not-exist").unwrap(), "in"),
    );
    // Submission succeeds: staging is asynchronous (one-way upload).
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(10));
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            assert_eq!(fault.error_code, "uvacg:JobSetFailed");
            assert!(fault.to_string().contains("does-not-exist"), "{fault}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn disk_quota_exhaustion_surfaces_as_job_failure() {
    let grid = CampusGrid::build(
        GridConfig {
            machines: vec![MachineSpec::new("tiny").with_disk_quota(512)],
            ..GridConfig::default()
        },
        Clock::manual(),
    );
    let client = grid.client("c");
    // Program writes 1 MB onto a 512-byte disk.
    let exe = stage(
        &client,
        "big.exe",
        &JobProgram::compute(1.0).writing("huge.dat", 1 << 20),
    );
    let spec = JobSetSpec::new("quota").job(JobSpec::new("j", exe).output("huge.dat"));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(10));
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            // exit 73 = output write failure.
            assert!(
                fault.root_cause().description.contains("code 73"),
                "{fault}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn fault_chain_preserves_all_three_levels() {
    // Scheduler fault <- dispatch fault <- ES BadCredentials: the
    // secure grid rejects a user unknown on the machine.
    let grid = CampusGrid::build(GridConfig::with_machines(1).secure(), Clock::manual());
    let client = grid.client("c");
    let exe = stage(&client, "p.exe", &JobProgram::compute(1.0));
    let spec = JobSetSpec::new("who").job(JobSpec::new("j", exe));
    let handle = client.submit(&spec, "mallory", "1337").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            assert_eq!(fault.error_code, "uvacg:JobSetFailed");
            assert!(fault.chain_len() >= 3, "chain: {fault}");
            let cause = fault.cause.as_ref().unwrap();
            assert_eq!(cause.error_code, "uvacg:DispatchFailed");
            assert_eq!(fault.root_cause().error_code, "uvacg:BadCredentials");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn a_run_whose_upload_request_cannot_leave_fails_the_set_with_its_fault() {
    // The machine's FSS answers CreateDirectory and then leaves the
    // network, so the ES cannot send the upload request and faults the
    // Run. That fault is the job's only report, so the set fails with
    // the same cause chain whichever transport carries it.
    use wsrf_grid::transport::{Endpoint, FnEndpoint};
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let fss_addr = "inproc://machine01/FileSystem";
    let fss = wsrf_grid::testbed::fss::file_system_service(
        "machine01",
        grid.machines[0].fs.clone(),
        Arc::new(wsrf_grid::wsrf::MemoryStore::new()),
        grid.clock.clone(),
        grid.net.clone(),
    );
    let net = grid.net.clone();
    grid.net.register(
        fss_addr,
        Arc::new(FnEndpoint::new("fss-then-gone", move |env: Envelope| {
            let resp = fss.handle(env);
            net.unregister(fss_addr);
            resp
        })) as Arc<dyn Endpoint>,
    );
    let client = grid.client("c");
    let exe = stage(&client, "p.exe", &JobProgram::compute(1.0));
    let spec = JobSetSpec::new("unsent").job(JobSpec::new("j", exe));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            assert_eq!(fault.error_code, "uvacg:JobSetFailed");
            let cause = fault.cause.as_ref().unwrap();
            assert_eq!(cause.error_code, "uvacg:DispatchFailed", "{fault}");
            assert!(cause.description.contains("Execution"), "{fault}");
            assert_eq!(fault.root_cause().error_code, "wsrf:StorageFault");
            assert!(fault.to_string().contains("cannot request upload"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn a_set_ends_when_its_running_jobs_resource_is_destroyed() {
    // Anyone holding the job's EPR (broadcast on `started`) may destroy
    // its resource before the process exits; the exit is still told,
    // so the set does not wait forever (no job timeout is set).
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let client = grid.client("c");
    let exe = stage(&client, "p.exe", &JobProgram::compute(10.0));
    let spec = JobSetSpec::new("orphan").job(JobSpec::new("j", exe));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    let job = handle.job_epr("j").expect("the job started");
    wsrf_grid::wsrf::ResourceProxy::new(&grid.net, job.clone())
        .destroy()
        .unwrap();
    assert!(handle.outcome().is_none());
    grid.clock.advance(Duration::from_secs(15));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
}

#[test]
fn grid_with_no_machines_fails_cleanly() {
    let grid = CampusGrid::build(GridConfig::default(), Clock::manual());
    let client = grid.client("c");
    let exe = stage(&client, "p.exe", &JobProgram::compute(1.0));
    let spec = JobSetSpec::new("nowhere").job(JobSpec::new("j", exe));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            assert_eq!(fault.root_cause().error_code, "uvacg:NoNodes");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn garbage_executable_fails_at_spawn() {
    let grid = grid();
    let client = grid.client("c");
    client.put_file(
        "C:\\notaprog.exe",
        b"MZ\x90\x00this is not a manifest".to_vec(),
    );
    let spec = JobSetSpec::new("garbage").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\notaprog.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    match handle.outcome().unwrap() {
        JobSetOutcome::Failed(fault) => {
            assert!(
                fault.to_string().contains("not a runnable program"),
                "{fault}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn independent_job_sets_are_isolated() {
    // One failing set must not affect a concurrently running one.
    let grid = grid();
    let good_client = grid.client("good");
    let bad_client = grid.client("bad");
    let good_exe = stage(&good_client, "ok.exe", &JobProgram::compute(2.0));
    let bad_exe = stage(&bad_client, "bad.exe", &JobProgram::compute(1.0).exiting(1));
    let good = good_client
        .submit(
            &JobSetSpec::new("good").job(JobSpec::new("g", good_exe)),
            "griduser",
            "gridpass",
        )
        .unwrap();
    let bad = bad_client
        .submit(
            &JobSetSpec::new("bad").job(JobSpec::new("b", bad_exe)),
            "griduser",
            "gridpass",
        )
        .unwrap();
    grid.clock.advance(Duration::from_secs(10));
    assert_eq!(good.outcome(), Some(JobSetOutcome::Completed));
    assert!(matches!(bad.outcome(), Some(JobSetOutcome::Failed(_))));
    // The good client never saw the bad set's events.
    assert!(good_client
        .listener()
        .received()
        .iter()
        .all(|m| m.topic.to_string().starts_with(&good.topic)));
}

#[test]
fn job_set_resource_records_the_fault() {
    let grid = grid();
    let client = grid.client("c");
    let exe = stage(&client, "p.exe", &JobProgram::compute(0.5).exiting(9));
    let spec = JobSetSpec::new("faulted").job(JobSpec::new("j", exe).output("x"));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert_eq!(handle.status().unwrap(), "Failed");
    // The Fault resource property is queryable via XPath.
    let codes = wsrf_grid::wsrf::ResourceProxy::new(&grid.net, handle.jobset.clone())
        .query("//Fault//ErrorCode")
        .unwrap();
    assert!(
        codes
            .iter()
            .any(|c| c.text_content().contains("uvacg:JobSetFailed")),
        "{codes:?}"
    );
}

#[test]
fn killed_jobs_release_machine_capacity() {
    let grid = grid();
    let client = grid.client("c");
    let exe = stage(&client, "spin.exe", &JobProgram::compute(1e9));
    let spec = JobSetSpec::new("spin").job(JobSpec::new("s", exe));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(1));
    let busy: f64 = grid.machines.iter().map(|m| m.utilization()).sum();
    assert!(busy > 0.0);
    handle.kill_job("s").unwrap();
    let busy: f64 = grid.machines.iter().map(|m| m.utilization()).sum();
    assert_eq!(busy, 0.0, "capacity released after kill");
}

#[test]
fn missing_client_fileserver_reference_is_reported() {
    // Submit directly through the scheduler helper without a file
    // server — the scheduler must fail the set, not panic.
    let grid = grid();
    let exe = FileRef::parse("local://C:\\x.exe").unwrap();
    let spec = JobSetSpec::new("nofs").job(JobSpec::new("j", exe));
    let reply = wsrf_grid::testbed::scheduler::submit(
        &grid.net,
        &grid.scheduler.epr(),
        &spec,
        None,
        None, // no file server
        None,
        Some(("griduser", "gridpass")),
    )
    .unwrap();
    let states = grid
        .scheduler
        .job_states(reply.jobset.resource_key().unwrap())
        .unwrap();
    assert_eq!(states[0].1, "Waiting", "job never dispatched");
    // The set resource shows Failed with the NoFileServer cause.
    let key = reply.jobset.resource_key().unwrap();
    let doc = grid
        .scheduler
        .service
        .core()
        .store
        .load("Scheduler", key)
        .unwrap();
    assert_eq!(doc.text_local("Status").unwrap(), "Failed");
    let fault_el = &doc.get_local("Fault")[0];
    assert!(fault_el.to_xml().contains("uvacg:NoFileServer"));
}

#[test]
fn lost_upload_notification_leaves_job_staging() {
    // White-box: deliver an UploadComplete for a job that never asked
    // for one — the ES must fault, not spawn.
    use wsrf_grid::testbed::UVACG;
    use wsrf_grid::xml::Element as El;
    let grid = grid();
    let es_addr = "inproc://machine01/Execution";
    let ghost = wsrf_grid::soap::EndpointReference::resource(
        es_addr,
        wsrf_grid::testbed::es::job_key_property(),
        "execution-99",
    );
    let fault = wsrf_grid::wsrf::Outbound::new(
        ghost,
        wsrf_grid::wsrf::container::action_uri("Execution", "UploadComplete"),
        El::new(UVACG, "UploadComplete").attr("uploaded", "1"),
    )
    .call(&grid.net)
    .unwrap_err();
    // The resource does not exist at all, so the container's standard
    // NoSuchResource fault fires before the ES's own check.
    assert_eq!(fault.error_code(), Some("wsrf:NoSuchResource"));
}

#[test]
fn policy_arc_can_be_shared_across_grids() {
    // Smoke test that policies are stateful-but-shareable.
    let policy: Arc<dyn SchedulingPolicy> = Arc::new(RoundRobin::default());
    for _ in 0..2 {
        let grid = CampusGrid::build(
            GridConfig {
                machines: vec![MachineSpec::new("a"), MachineSpec::new("b")],
                policy: policy.clone(),
                ..GridConfig::default()
            },
            Clock::manual(),
        );
        let client = grid.client("c");
        let exe = stage(&client, "p.exe", &JobProgram::compute(0.1));
        let spec = JobSetSpec::new("s").job(JobSpec::new("j", exe));
        let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
        grid.clock.advance(Duration::from_secs(2));
        assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    }
}
