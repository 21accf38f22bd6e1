//! The whole testbed on a *scaled* clock: real threads, real waiting,
//! modeled network latencies — the closest the simulation gets to the
//! paper's live campus deployment.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsrf_grid::notification::message::NotificationMessage;
use wsrf_grid::prelude::*;
use wsrf_grid::transport::{Endpoint, FnEndpoint};

/// 1 virtual second = 1 real millisecond.
const SPEEDUP: f64 = 1000.0;

fn scaled_grid(machines: usize) -> CampusGrid {
    CampusGrid::build(
        GridConfig::with_machines(machines).with_net(NetConfig::campus()),
        Clock::scaled(SPEEDUP),
    )
}

#[test]
fn pipeline_completes_in_real_time() {
    let grid = scaled_grid(3);
    let client = grid.client("c");
    client.put_file(
        "C:\\a.exe",
        JobProgram::compute(5.0)
            .writing("mid.dat", 50_000)
            .to_manifest(),
    );
    client.put_file(
        "C:\\b.exe",
        JobProgram::compute(3.0)
            .reading("mid.dat")
            .writing("fin.dat", 1000)
            .to_manifest(),
    );
    let spec = JobSetSpec::new("rt-pipeline")
        .job(JobSpec::new("a", FileRef::parse("local://C:\\a.exe").unwrap()).output("mid.dat"))
        .job(
            JobSpec::new("b", FileRef::parse("local://C:\\b.exe").unwrap())
                .input(FileRef::parse("a://mid.dat").unwrap(), "mid.dat"),
        );
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    let outcome = handle
        .wait(Duration::from_secs(30))
        .expect("finished in time");
    assert_eq!(outcome, JobSetOutcome::Completed);
    assert_eq!(handle.fetch_output("b", "fin.dat").unwrap().len(), 1000);
    // Virtual elapsed time is plausible: at least the serial CPU time,
    // but far less than the real-time budget would imply.
    let now = grid.clock.now().as_secs_f64();
    assert!(now >= 5.0, "virtual time ran: {now}");
}

#[test]
fn modeled_latency_orders_upload_before_start() {
    // With campus latencies the upload completion genuinely arrives
    // later than the Run response: the job is observed Staging first.
    let grid = scaled_grid(1);
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(30.0).to_manifest());
    let spec = JobSetSpec::new("latency").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    // Wait until the started event arrives.
    assert!(
        handle.wait_job_started("j", Duration::from_secs(20)),
        "job started"
    );
    let outcome = handle.wait(Duration::from_secs(60)).expect("finished");
    assert_eq!(outcome, JobSetOutcome::Completed);
}

#[test]
fn many_concurrent_clients() {
    let grid = scaled_grid(4);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let client = grid.client(&format!("client-{i}"));
            client.put_file("C:\\p.exe", JobProgram::compute(2.0).to_manifest());
            let spec = JobSetSpec::new(format!("set-{i}")).job(JobSpec::new(
                "j",
                FileRef::parse("local://C:\\p.exe").unwrap(),
            ));
            client.submit(&spec, "griduser", "gridpass").unwrap()
        })
        .collect();
    for h in &handles {
        assert_eq!(
            h.wait(Duration::from_secs(60)),
            Some(JobSetOutcome::Completed),
            "set {} finished",
            h.topic
        );
    }
}

/// A terminal notification can be lost on the way to the client; the
/// outcome is not: once `wait` times out it asks the job-set resource.
#[test]
fn wait_finds_the_outcome_when_the_completed_event_is_lost() {
    let grid = scaled_grid(1);
    let client = grid.client("c");
    // In front of the client's listener: lose the set's `completed`.
    let (listener, lost) = (client.listener().clone(), Arc::new(AtomicBool::new(false)));
    let lost2 = lost.clone();
    grid.net.register(
        client.listener().epr().address.as_str(),
        Arc::new(FnEndpoint::new("loses-completed", move |env: Envelope| {
            let completed = NotificationMessage::from_envelope(&env)
                .iter()
                .any(|m| m.topic.to_string().ends_with("/completed"));
            if completed {
                lost2.store(true, Ordering::SeqCst);
                return None;
            }
            listener.handle(env)
        })) as Arc<dyn Endpoint>,
    );
    client.put_file("C:\\p.exe", JobProgram::compute(2.0).to_manifest());
    let spec = JobSetSpec::new("lossy").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !lost.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "the set never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.outcome(), None, "the event never arrived");
    assert_eq!(
        handle.wait(Duration::from_millis(50)),
        Some(JobSetOutcome::Completed)
    );
}
