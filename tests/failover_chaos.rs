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
//!
//! The successor keeps nothing of its own: a replicating scheduler
//! built over the dead primary's store reads each unfinished set's
//! submission record and its job-set resource, and asks the machines
//! what became of the jobs in flight.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use common::TempDir;
use grid_node::JobProgram;
use wsrf_grid::prelude::*;
use wsrf_grid::soap::ns;
use wsrf_grid::testbed::grid::{NIS_ADDRESS, SCHEDULER_ADDRESS};
use wsrf_grid::testbed::scheduler::{scheduler_service, SchedulerConfig};
use wsrf_grid::wsrf::porttypes::{wsrp_action, XPATH_DIALECT};
use wsrf_grid::wsrf::store::ResourceStore;
use wsrf_grid::wsrf::{MemoryStore, Outbound};
use wsrf_grid::xml::QName;

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

    // Let in-flight job events drain while nobody schedules, then fail
    // over onto the primary's address.
    grid.clock.advance(Duration::from_secs(1));
    let promoted = grid.take_over_scheduler(None);

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
// On a secure grid: the placed job of step 2 is re-issued with
// credentials the standby unsealed from the submission record, and
// step 10 finds the exit by polling.
kill_point_test!(secure_kill_after_step_02_nis_poll, 2, true);
kill_point_test!(secure_kill_after_step_10_exit_broadcast, 10, true);

/// A scheduler restarts like any WSRF.NET service: one built with plain
/// `scheduler_service` over the crashed primary's store takes over the
/// unfinished set and completes it exactly once.
#[test]
fn a_scheduler_built_over_a_crashed_primarys_store_finishes_its_set() {
    let store: Arc<dyn ResourceStore> = Arc::new(MemoryStore::new());
    let config = GridConfig::with_machines(2)
        .with_scheduler_store(store.clone())
        .with_replication();
    let grid = CampusGrid::build(config, Clock::manual());
    let client = grid.client("c");
    let spec = pipeline_spec(&client);
    let (primary, net) = (grid.scheduler.clone(), grid.net.clone());
    grid.scheduler.set_step_hook(move |step, _job| {
        if step == 3 && !primary.crashed() {
            primary.crash(&net);
        }
    });
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    assert!(
        grid.scheduler.crashed(),
        "step 3 came inside the submission"
    );
    grid.clock.advance(Duration::from_secs(1));

    let cfg = SchedulerConfig {
        nis_address: NIS_ADDRESS.to_string(),
        broker: grid.broker.clone(),
        policy: Arc::new(FastestAvailable),
        security: None,
        store,
        listener_address: "inproc://hub/RestartedListener".to_string(),
        job_timeout: None,
        replicate: true,
    };
    let restarted = scheduler_service(SCHEDULER_ADDRESS, cfg, grid.clock.clone(), grid.net.clone());
    for _ in 0..100 {
        if handle.outcome().is_some() {
            break;
        }
        grid.clock.advance(Duration::from_millis(500));
    }
    assert_exactly_once(&handle, 3);
    let states = restarted
        .job_states(handle.jobset.resource_key().unwrap())
        .expect("the restarted scheduler took the set over");
    for (job, state, code) in states {
        assert_eq!((state.as_str(), code), ("Completed", Some(0)), "job {job}");
    }
}

/// The `consumer`'s subscription among those `scheduler` keeps in job
/// set `jobset`'s document.
fn kept_subscription(
    scheduler: &Scheduler,
    jobset: &EndpointReference,
    consumer: &str,
) -> EndpointReference {
    let (doc, _) = scheduler
        .service
        .core()
        .share_live(jobset.resource_key().unwrap())
        .unwrap();
    let subscriptions = doc.get(&QName::new(wsrf_grid::testbed::UVACG, "Subscription"));
    let kept = subscriptions
        .iter()
        .find(|e| e.attr_value("consumer") == Some(consumer));
    EndpointReference::from_element(kept.expect("a kept subscription")).unwrap()
}

/// A set that outlives its leases keeps what it made through a
/// take-over: the successor renews the client's subscription, its own
/// and the working directory, while the dead primary's subscription runs
/// out, since nobody renews it any more.
#[test]
fn a_successor_renews_what_the_adopted_set_made() {
    const LEASE: Duration = Duration::from_secs(3600);
    let grid = replicating_grid(false);
    let client = grid.client("c");
    let exe = JobProgram::compute(2.0 * LEASE.as_secs_f64()).writing("out.dat", 64);
    client.put_file("C:\\long.exe", exe.to_manifest());
    let long = FileRef::parse("local://C:\\long.exe").unwrap();
    let spec = JobSetSpec::new("long").job(JobSpec::new("job1", long).output("out.dat"));
    let (primary, net) = (grid.scheduler.clone(), grid.net.clone());
    grid.scheduler.set_step_hook(move |step, _job| {
        if step == 9 && !primary.crashed() {
            primary.crash(&net);
        }
    });
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    assert!(
        grid.scheduler.crashed(),
        "the job started inside the submission"
    );
    let primarys = kept_subscription(&grid.scheduler, &handle.jobset, "scheduler");

    grid.clock.advance(Duration::from_secs(1));
    let successor = grid.take_over_scheduler(None);
    let successors = kept_subscription(&successor, &handle.jobset, "scheduler");
    assert_ne!(successors, primarys);
    for _ in 0..3 * 60 {
        if handle.outcome().is_some() {
            break;
        }
        grid.clock.advance(Duration::from_secs(60));
    }

    // The exit and the set's end reached the successor and the client
    // after the leases taken at submission ran out: through renewals.
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    assert!(grid.clock.now() > SimTime::from_secs(LEASE.as_secs()));
    let key = handle.jobset.resource_key().unwrap();
    let states = successor
        .job_states(key)
        .expect("the successor keeps the set");
    assert_eq!(states, vec![("job1".into(), "Completed".into(), Some(0))]);
    assert_eq!(handle.fetch_output("job1", "out.dat").unwrap().len(), 64);
    let get = Element::new(ns::WSRP, "GetResourceProperty").text("TerminationTime");
    let gone = Outbound::new(primarys, wsrp_action("GetResourceProperty"), get).call(&grid.net);
    assert_eq!(
        gone.unwrap_err().error_code(),
        Some("wsrf:NoSuchResource"),
        "the dead primary's subscription ran out"
    );
}

/// A set taken over more than a lease after its submission, whose job
/// ended while no scheduler ran, is kept one lease from the take-over:
/// the successor renewed what it made then, whatever the primary's last
/// renewal was.
#[test]
fn a_set_adopted_a_lease_after_its_submission_is_kept_from_the_take_over() {
    let grid = replicating_grid(false);
    let client = grid.client("c");
    let exe = JobProgram::compute(65.0 * 60.0).writing("out.dat", 64);
    client.put_file("C:\\late.exe", exe.to_manifest());
    let late = FileRef::parse("local://C:\\late.exe").unwrap();
    let spec = JobSetSpec::new("late").job(JobSpec::new("job1", late).output("out.dat"));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    // The primary renews at 30 minutes and dies at 40; the job ends at
    // 65, with no scheduler to hear it.
    grid.clock.advance(Duration::from_secs(40 * 60));
    grid.scheduler.crash(&grid.net);
    grid.clock.advance(Duration::from_secs(30 * 60));

    let successor = grid.take_over_scheduler(None);
    let taken_over = grid.clock.now();
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    let key = handle.jobset.resource_key().unwrap();
    let (doc, _) = successor.service.core().share_live(key).unwrap();
    assert_eq!(
        doc.termination_time(),
        Some(taken_over + Duration::from_secs(3600))
    );
    grid.clock.advance(Duration::from_secs(50 * 60));
    assert_eq!(handle.status().unwrap(), "Completed");
    assert_eq!(handle.fetch_output("job1", "out.dat").unwrap().len(), 64);
}

/// A job that fails staging: its input is not on the client's disk.
fn doomed_spec(client: &Client) -> JobSetSpec {
    client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
    JobSetSpec::new("doomed").job(
        JobSpec::new("job1", FileRef::parse("local://C:\\p.exe").unwrap())
            .input(FileRef::parse("local://C:\\missing.dat").unwrap(), "in.dat"),
    )
}

/// Kill the primary on the doomed job's working directory, let the
/// staging failure happen while nobody schedules, then take over and
/// check the set ends `Failed` for the right reason instead of staying
/// `Running` for ever (the grid has no job timeout).
fn fail_while_the_primary_is_down() {
    let grid = replicating_grid(false);
    let client = grid.client("c");
    let spec = doomed_spec(&client);
    let (primary, net) = (grid.scheduler.clone(), grid.net.clone());
    grid.scheduler.set_step_hook(move |step, _job| {
        if step == 4 && !primary.crashed() {
            primary.crash(&net);
        }
    });
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    for _ in 0..100 {
        if grid.scheduler.crashed() {
            break;
        }
        grid.clock.advance(Duration::from_millis(200));
    }
    grid.clock.advance(Duration::from_secs(1));
    assert!(
        grid.scheduler.crashed(),
        "the primary saw the working directory"
    );
    assert_eq!(
        handle
            .events()
            .iter()
            .filter(|m| m.topic.to_string().ends_with("job1/failed"))
            .count(),
        1,
        "the job failed at its ES"
    );
    assert!(handle.outcome().is_none(), "nobody ended the set yet");

    let _promoted = grid.take_over_scheduler(None);
    grid.clock.advance(Duration::from_secs(5));
    match handle.outcome() {
        Some(JobSetOutcome::Failed(fault)) => {
            let cause = fault.cause.as_deref().expect("the job's failure");
            assert!(cause.description.contains("job 'job1' failed"), "{cause:?}");
            assert!(cause.description.contains("missing.dat"), "{cause:?}");
        }
        other => panic!("the adopted set did not fail: {other:?}"),
    }
    assert_eq!(handle.status().unwrap(), "Failed");
}

/// A job fails at its ES while the primary is dead, and the successor
/// is built only afterwards: it saw nothing, and finds the failure when
/// it polls the adopted job.
#[test]
fn a_failure_the_standby_missed_fails_the_adopted_set() {
    fail_while_the_primary_is_down();
}

/// A placement policy that crashes the scheduler when it is told of a
/// failure: the crash falls between the job's `Failed` status being
/// stored and the set being ended.
#[derive(Default)]
struct CrashOnFailure {
    primary: OnceLock<(Scheduler, Arc<InProcNetwork>)>,
}

impl SchedulingPolicy for CrashOnFailure {
    fn select(&self, nodes: &[NodeSnapshot]) -> Option<usize> {
        FastestAvailable.select(nodes)
    }
    fn name(&self) -> &'static str {
        "crash-on-failure"
    }
    fn observe(&self, outcome: &MachineOutcome) {
        if let (OutcomeKind::Failure, Some((primary, net))) = (&outcome.kind, self.primary.get()) {
            primary.crash(net);
        }
    }
}

/// The primary stores a job's failure and dies before ending the set:
/// the promoted scheduler reads the failure back and ends the set.
#[test]
fn a_failure_the_primary_stored_but_never_ended_fails_the_set() {
    let policy = Arc::new(CrashOnFailure::default());
    let store = Arc::new(MemoryStore::new());
    let config = GridConfig::with_machines(2)
        .with_policy(policy.clone())
        .with_scheduler_store(store.clone() as Arc<dyn ResourceStore>)
        .with_replication();
    let grid = CampusGrid::build(config, Clock::manual());
    let primary = (grid.scheduler.clone(), grid.net.clone());
    assert!(policy.primary.set(primary).is_ok());
    let client = grid.client("c");
    let handle = client
        .submit(&doomed_spec(&client), "griduser", "gridpass")
        .unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert!(grid.scheduler.crashed(), "the failure reached the policy");
    assert!(handle.outcome().is_none(), "nobody ended the set yet");
    let set = store
        .load("Scheduler", handle.jobset.resource_key().unwrap())
        .unwrap();
    let status = set.get(&QName::new(wsrf_grid::testbed::UVACG, "JobStatus"));
    assert_eq!(status[0].text_content(), "Failed", "the failure is stored");

    let _promoted = grid.take_over_scheduler(None);
    grid.clock.advance(Duration::from_secs(1));
    match handle.outcome() {
        Some(JobSetOutcome::Failed(fault)) => {
            let cause = fault.cause.as_deref().expect("the job's failure");
            assert_eq!(cause.error_code, "uvacg:JobFailed", "{cause:?}");
            assert!(cause.description.contains("job 'job1'"), "{cause:?}");
        }
        other => panic!("the adopted set did not fail: {other:?}"),
    }
    assert_eq!(handle.status().unwrap(), "Failed");
}

/// A primary killed inside its `Run` call (at step 4, which the ES
/// triggers inline) writes nothing once the call returns: no step-3
/// mark on the job set, no feedback row.
#[test]
fn a_crashed_scheduler_writes_nothing() {
    let store = Arc::new(MemoryStore::new());
    let config = GridConfig::with_machines(2)
        .with_policy(Arc::new(MetricsFeedback::new()))
        .with_scheduler_store(store.clone() as Arc<dyn ResourceStore>)
        .with_replication();
    let grid = CampusGrid::build(config, Clock::manual());
    let (primary, net) = (grid.scheduler.clone(), grid.net.clone());
    grid.scheduler.set_step_hook(move |step, _job| {
        if step == 4 && !primary.crashed() {
            primary.crash(&net);
        }
    });
    let feedback = store.load("Scheduler", "feedback").unwrap();
    let client = grid.client("c");
    let handle = client
        .submit(&pipeline_spec(&client), "griduser", "gridpass")
        .unwrap();
    assert!(grid.scheduler.crashed(), "step 4 came inside the Run");
    grid.clock.advance(Duration::from_secs(1));

    let set = store
        .load("Scheduler", handle.jobset.resource_key().unwrap())
        .unwrap();
    let steps: Vec<String> = set
        .get(&QName::new(wsrf_grid::testbed::UVACG, "StepMetric"))
        .iter()
        .map(|e| e.attr_value("step").unwrap_or_default().to_string())
        .collect();
    assert_eq!(steps, ["1", "2", "4"], "nothing after the kill");
    assert_eq!(store.load("Scheduler", "feedback").unwrap(), feedback);
}

/// The Node Info Service is down when the standby takes over: the set
/// whose job must be re-issued fails for that reason, not because its
/// machine seemed to vanish.
#[test]
fn promotion_names_an_unreachable_node_info_service() {
    let grid = replicating_grid(false);
    let (primary, net) = (grid.scheduler.clone(), grid.net.clone());
    grid.scheduler.set_step_hook(move |step, _job| {
        if step == 2 && !primary.crashed() {
            primary.crash(&net);
        }
    });
    let client = grid.client("c");
    let handle = client
        .submit(&pipeline_spec(&client), "griduser", "gridpass")
        .unwrap();
    assert!(grid.scheduler.crashed());
    assert!(grid.net.unregister(NIS_ADDRESS));

    let _promoted = grid.take_over_scheduler(None);
    grid.clock.advance(Duration::from_secs(1));
    match handle.outcome() {
        Some(JobSetOutcome::Failed(fault)) => {
            let cause = fault.cause.as_deref().expect("why the set failed");
            assert_eq!(cause.error_code, "uvacg:NoNodes", "{cause:?}");
            assert!(cause.description.contains("Node Info Service"), "{cause:?}");
            assert!(cause.description.contains(NIS_ADDRESS), "{cause:?}");
            assert!(cause.cause.is_some(), "the NIS fault itself: {cause:?}");
        }
        other => panic!("the adopted set did not fail: {other:?}"),
    }
}

/// A WS-RP read of `epr` through the standard port types, rendered.
fn wsrp_read(grid: &CampusGrid, epr: &EndpointReference, op: &str, body: Element) -> String {
    let reply = Outbound::new(epr.clone(), wsrp_action(op), body)
        .call(&grid.net)
        .unwrap();
    reply.to_xml()
}

/// The submission record keeps the credentials a standby needs: sealed
/// to the scheduler on a secure grid, so the log never holds the
/// password in clear, and out of reach of every WS-RP read of the
/// job-set resource on both grids.
#[test]
fn submission_credentials_stay_sealed_and_unreadable() {
    for secure in [false, true] {
        let wal = TempDir::new("sealed");
        let store = DurableStore::open(&wal.0, Arc::new(MemoryStore::new())).unwrap();
        let config = GridConfig::with_machines(2)
            .with_scheduler_store(Arc::new(store) as Arc<dyn ResourceStore>)
            .with_replication();
        let config = if secure { config.secure() } else { config };
        let grid = CampusGrid::build(config, Clock::manual());
        let client = grid.client("c");
        let handle = client
            .submit(&pipeline_spec(&client), "griduser", "gridpass")
            .unwrap();
        grid.clock.advance(Duration::from_millis(500));
        assert_eq!(handle.status().unwrap(), "Running");

        let mut log = Vec::new();
        for entry in std::fs::read_dir(&wal.0).unwrap() {
            log.extend(std::fs::read(entry.unwrap().path()).unwrap());
        }
        let in_clear = log.windows(8).any(|w| w == b"gridpass");
        // Without a PKI the record is the only place the password is
        // kept, which shows the log holds the record at all.
        assert_eq!(in_clear, !secure, "secure: {secure}");

        let document = wsrp_read(
            &grid,
            &handle.jobset,
            "GetResourcePropertyDocument",
            Element::new(ns::WSRP, "GetResourcePropertyDocument"),
        );
        let query = wsrp_read(
            &grid,
            &handle.jobset,
            "QueryResourceProperties",
            Element::new(ns::WSRP, "QueryResourceProperties").child(
                Element::new(ns::WSRP, "QueryExpression")
                    .attr("Dialect", XPATH_DIALECT)
                    .text("/ResourcePropertyDocument"),
            ),
        );
        for reply in [document, query] {
            assert!(reply.contains("JobStatus"), "{reply}");
            assert!(!reply.contains("gridpass"), "secure: {secure}: {reply}");
        }
        grid.clock.advance(Duration::from_secs(30));
        assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    }
}

/// A scheduler without submission records leaves nothing to take
/// over from, so a take-over is refused outright.
#[test]
#[should_panic(expected = "take_over_scheduler without with_replication")]
fn a_standby_needs_submission_records() {
    let grid = CampusGrid::build(GridConfig::with_machines(1), Clock::manual());
    let _promoted = grid.take_over_scheduler(None);
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
    let client = grid.client("c");
    let spec = pipeline_spec(&client);
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(30));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    // The finished set left nothing to take over.
    grid.scheduler.crash(&grid.net);
    let _promoted = grid.take_over_scheduler(None);
    grid.clock.advance(Duration::from_secs(30));
    let ends = handle.events();
    let ends = ends
        .iter()
        .filter(|m| m.topic.to_string().ends_with("/completed"));
    assert_eq!(ends.count(), 1);
}

/// The submission record is a store write, not a message: a
/// replicating grid sends exactly what a plain grid sends for the same
/// set.
#[test]
fn replication_adds_no_messages() {
    let messages = |replicate: bool| {
        let config = GridConfig::with_machines(2);
        let config = if replicate {
            config.with_replication()
        } else {
            config
        };
        let grid = CampusGrid::build(config, Clock::manual());
        let client = grid.client("c");
        let handle = client
            .submit(&pipeline_spec(&client), "griduser", "gridpass")
            .unwrap();
        grid.clock.advance(Duration::from_secs(30));
        assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
        let m = &grid.net.metrics;
        m.calls.load(Ordering::Relaxed) + m.oneways.load(Ordering::Relaxed)
    };
    assert_eq!(messages(true), messages(false));
}
