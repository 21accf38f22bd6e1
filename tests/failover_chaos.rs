//! Chaos-tested crash-recovery failover: kill the primary Scheduler
//! immediately after each of the ten Figure 3 protocol steps and
//! assert the standby drives the job set to completion **exactly
//! once** — one `completed` broadcast, one `exit` and one `started`
//! per job, no duplicate dispatches.
//!
//! The kill points reuse the Figure 3 step instrumentation from the
//! tracing work: the scheduler invokes a hook after durably recording
//! each step, and the hook crashes the scheduler the first time the
//! target step is recorded. That gives the strongest possible
//! semantics for "crashed right after step N": the step is on disk,
//! nothing after it happened.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use grid_node::JobProgram;
use wsrf_grid::notification::broker;
use wsrf_grid::notification::consumer::NotificationListener;
use wsrf_grid::notification::topics::TopicExpression;
use wsrf_grid::prelude::*;
use wsrf_grid::testbed::grid::SCHEDULER_ADDRESS;

/// Figure 3 step names, indexed by step number.
const STEP_NAMES: [&str; 10] = [
    "submit",
    "nis_poll",
    "es_run",
    "workdir",
    "client_stage",
    "grid_stage",
    "upload_complete",
    "spawn",
    "epr_broadcast",
    "exit_broadcast",
];

/// A two-job pipeline (job2 consumes job1's output), so recovery has
/// to resume mid-DAG: finish or re-own job1, then dispatch job2.
fn pipeline_spec(client: &Client) -> JobSetSpec {
    client.put_file(
        "C:\\stage1.exe",
        JobProgram::compute(2.0)
            .writing("mid.dat", 64)
            .to_manifest(),
    );
    client.put_file(
        "C:\\stage2.exe",
        JobProgram::compute(1.0)
            .reading("in.dat")
            .writing("final.dat", 32)
            .to_manifest(),
    );
    JobSetSpec::new("chaos")
        .job(
            JobSpec::new("job1", FileRef::parse("local://C:\\stage1.exe").unwrap())
                .output("mid.dat"),
        )
        .job(
            JobSpec::new("job2", FileRef::parse("local://C:\\stage2.exe").unwrap())
                .input(FileRef::parse("job1://mid.dat").unwrap(), "in.dat"),
        )
}

/// A two-machine replicating grid, with the campus PKI if `secure`.
fn replicating_grid(secure: bool) -> CampusGrid {
    let config = GridConfig::with_machines(2).with_replication();
    let config = if secure { config.secure() } else { config };
    CampusGrid::build(config, Clock::manual())
}

/// Run the whole kill-promote-recover cycle for one kill point and
/// return the client handle plus the promoted scheduler. On a `secure`
/// grid the credentials reach the standby encrypted, and a re-issued
/// dispatch re-encrypts them to the chosen machine.
fn run_kill_point(kill_step: u8, secure: bool) -> (CampusGrid, JobSetHandle, Scheduler) {
    let grid = replicating_grid(secure);
    let standby = grid.spawn_standby(None);
    let client = grid.client("chaos-client");
    let spec = pipeline_spec(&client);

    // Crash the primary the first time `kill_step` is recorded.
    let primary = grid.scheduler.clone();
    let net = grid.net.clone();
    let fired = Arc::new(AtomicBool::new(false));
    let fired2 = fired.clone();
    grid.scheduler.set_step_hook(move |step, _job| {
        if step == kill_step && !fired2.swap(true, Ordering::SeqCst) {
            primary.crash(&net);
        }
    });

    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();

    // Drive until the kill point is reached (steps 1-3 fire inline
    // during the submission itself; later ones need event delivery).
    for _ in 0..100 {
        if grid.scheduler.crashed() {
            break;
        }
        grid.clock.advance(Duration::from_millis(200));
    }
    assert!(
        grid.scheduler.crashed(),
        "step {kill_step} ({}) never recorded",
        STEP_NAMES[kill_step as usize - 1]
    );
    assert!(
        handle.outcome().is_none(),
        "set finished before the crash at step {kill_step} took effect"
    );

    // Let in-flight replication and job events drain to the standby,
    // then fail over onto the primary's address.
    grid.clock.advance(Duration::from_secs(1));
    let promoted = standby.promote(SCHEDULER_ADDRESS);

    for _ in 0..100 {
        if handle.outcome().is_some() {
            break;
        }
        grid.clock.advance(Duration::from_millis(500));
    }
    (grid, handle, promoted)
}

/// Exactly-once assertions over the client's full event history.
fn assert_exactly_once(handle: &JobSetHandle, kill_step: u8) {
    assert_eq!(
        handle.outcome(),
        Some(JobSetOutcome::Completed),
        "kill at step {kill_step}: set did not complete"
    );
    let topics: Vec<String> = handle
        .events()
        .iter()
        .map(|m| m.topic.to_string())
        .collect();
    let count = |suffix: &str| topics.iter().filter(|t| t.ends_with(suffix)).count();
    assert_eq!(
        count("/completed"),
        1,
        "kill at step {kill_step}: completed broadcasts {topics:?}"
    );
    for job in ["job1", "job2"] {
        assert_eq!(
            count(&format!("{job}/started")),
            1,
            "kill at step {kill_step}: '{job}' spawned a wrong number of times {topics:?}"
        );
        assert_eq!(
            count(&format!("{job}/exit")),
            1,
            "kill at step {kill_step}: '{job}' exited a wrong number of times {topics:?}"
        );
    }
}

/// One test per Figure 3 kill point, so a regression names the exact
/// protocol step whose recovery broke.
macro_rules! kill_point_test {
    ($name:ident, $step:expr) => {
        kill_point_test!($name, $step, false);
    };
    ($name:ident, $step:expr, $secure:expr) => {
        #[test]
        fn $name() {
            let (_grid, handle, promoted) = run_kill_point($step, $secure);
            assert_exactly_once(&handle, $step);
            // The promoted scheduler owns the terminal state.
            let states = promoted
                .job_states(handle.jobset.resource_key().unwrap())
                .expect("promoted scheduler adopted the set");
            for (job, state, code) in states {
                assert_eq!(state, "Completed", "job {job} after kill at {}", $step);
                assert_eq!(code, Some(0), "job {job} exit code");
            }
        }
    };
}

kill_point_test!(kill_after_step_01_submit, 1);
kill_point_test!(kill_after_step_02_nis_poll, 2);
kill_point_test!(kill_after_step_03_es_run, 3);
kill_point_test!(kill_after_step_04_workdir, 4);
kill_point_test!(kill_after_step_05_client_stage, 5);
kill_point_test!(kill_after_step_06_grid_stage, 6);
kill_point_test!(kill_after_step_07_upload_complete, 7);
kill_point_test!(kill_after_step_08_spawn, 8);
kill_point_test!(kill_after_step_09_epr_broadcast, 9);
kill_point_test!(kill_after_step_10_exit_broadcast, 10);
// On a secure grid: the uncertain dispatch of step 2 is re-issued with
// credentials the standby decrypted, and step 10 adopts a witnessed exit.
kill_point_test!(secure_kill_after_step_02_nis_poll, 2, true);
kill_point_test!(secure_kill_after_step_10_exit_broadcast, 10, true);

/// On a secure grid the replication stream carries the credentials
/// encrypted to the scheduler: any subscriber of `schedrepl//` sees the
/// submission, never the password.
#[test]
fn replicated_credentials_never_travel_in_clear() {
    let grid = replicating_grid(true);
    let standby = grid.spawn_standby(None);
    let spy = NotificationListener::register(&grid.net, "inproc://spy/Listener");
    broker::subscribe(
        &grid.net,
        &grid.broker,
        &spy.epr(),
        &TopicExpression::full("schedrepl//"),
        None,
    )
    .unwrap();
    let client = grid.client("c");
    let spec = pipeline_spec(&client);
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(30));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    assert_eq!(
        standby.shadow_count(),
        1,
        "the standby decoded the submission"
    );

    let seen = spy.received();
    assert!(
        seen.iter()
            .any(|m| m.topic.to_string().ends_with("/submit")),
        "the spy saw the replicated submission"
    );
    for m in &seen {
        let dump = format!("{:?}", m.payload);
        assert!(!dump.contains("gridpass"), "{}: {dump}", m.topic);
    }
}

/// The crashed primary reports itself crashed and leaves the network:
/// probes to its endpoints become undeliverable instead of reaching a
/// stale handler.
#[test]
fn crashed_primary_is_inert() {
    let grid = CampusGrid::build(
        GridConfig::with_machines(1).with_replication(),
        Clock::manual(),
    );
    let _standby = grid.spawn_standby(None);
    assert!(!grid.scheduler.crashed());
    grid.scheduler.crash(&grid.net);
    assert!(grid.scheduler.crashed());
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(0.5).to_manifest());
    let spec = JobSetSpec::new("dead").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    assert!(
        client.submit(&spec, "griduser", "gridpass").is_err(),
        "submitting to a crashed scheduler must fail"
    );
}

/// Without a crash, a replicating grid behaves exactly like a plain
/// one — replication must never change scheduling outcomes.
#[test]
fn replication_is_transparent_without_failover() {
    let grid = CampusGrid::build(
        GridConfig::with_machines(2).with_replication(),
        Clock::manual(),
    );
    let standby = grid.spawn_standby(None);
    let client = grid.client("c");
    let spec = pipeline_spec(&client);
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(30));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    // The standby shadowed the whole run and saw it finish.
    assert_eq!(standby.shadow_count(), 1);
}
