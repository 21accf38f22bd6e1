//! Durable WS-Resource state, end to end: property-based write-ahead
//! log replay under arbitrary tail corruption, destroy-vs-snapshot
//! interleavings, and the §5 rediscovery story across a full scheduler
//! restart over a recovered store.

mod common;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use common::TempDir;
use grid_node::JobProgram;
use proptest::prelude::*;
use wsrf_grid::prelude::*;
use wsrf_grid::wsrf::store::ResourceStore;
use wsrf_grid::wsrf::{MemoryStore, PropertyDoc};
use wsrf_grid::xml::QName;

const NS: &str = "urn:durability-test";

fn q(local: &str) -> QName {
    QName::new(NS, local)
}

fn doc_with(val: u16) -> PropertyDoc {
    let mut doc = PropertyDoc::new();
    doc.set_text(q("V"), val.to_string());
    doc
}

/// A wider document in which `val` decides what a save changes: `V`
/// always, one of four `P` properties, and whether `Opt` exists — so a
/// save over the previous one logs a delta that sets some properties,
/// deletes or appends another, and leaves the rest out.
fn wide_doc_with(val: u16) -> PropertyDoc {
    let mut doc = doc_with(val);
    for p in 0..4 {
        let v = if p == val % 4 { val } else { 0 };
        doc.set_text(q(&format!("P{p}")), format!("p{p}-{v}"));
    }
    if val % 3 == 0 {
        doc.set_text(q("Opt"), "present");
    }
    doc
}

/// The single shard log file a one-key workload wrote.
fn only_log_file(dir: &std::path::Path) -> PathBuf {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "log") && path.metadata().unwrap().len() > 0 {
            found.push(path);
        }
    }
    assert_eq!(found.len(), 1, "one key lives in exactly one shard");
    found.remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any op sequence, logged — saves as delta frames — and then
    /// corrupted (bit-flip) or truncated at an arbitrary byte, replays
    /// to exactly the state after the longest valid frame prefix — no
    /// panic, no partial record applied, no resurrected resource.
    #[test]
    fn wal_replay_equals_longest_valid_prefix(
        ops in proptest::collection::vec((0u8..3, any::<u16>()), 1..32),
        cut in any::<u64>(),
        flip in any::<bool>(),
    ) {
        let tmp = TempDir::new("prop");
        // Every op hits one key, so the workload exercises exactly one
        // shard log and the valid prefix is computable from the
        // cumulative log size after each op.
        let mut offsets = Vec::with_capacity(ops.len());
        // The model replays what each op did: Some(v) = live with v.
        let mut model: Vec<Option<u16>> = Vec::with_capacity(ops.len());
        {
            let store =
                wsrf_grid::wsrf::DurableStore::open(&tmp.0, Arc::new(MemoryStore::new()))
                    .unwrap();
            let mut live: Option<u16> = None;
            for (op, val) in &ops {
                match (op, live) {
                    // Op 2 destroys when possible; everything else
                    // writes (create when dead, save when live) so the
                    // sequence is always valid against the trait.
                    (2, Some(_)) => {
                        store.destroy("svc", "job").unwrap();
                        live = None;
                    }
                    (_, Some(_)) => {
                        store.save("svc", "job", &wide_doc_with(*val)).unwrap();
                        live = Some(*val);
                    }
                    (_, None) => {
                        store.create("svc", "job", &wide_doc_with(*val)).unwrap();
                        live = Some(*val);
                    }
                }
                offsets.push(store.log_bytes());
                model.push(live);
            }
        }

        // Corrupt the tail at an arbitrary byte.
        let log = only_log_file(&tmp.0);
        let total = log.metadata().unwrap().len();
        let b = cut % total;
        if flip {
            let mut bytes = std::fs::read(&log).unwrap();
            bytes[b as usize] ^= 0xFF;
            std::fs::write(&log, bytes).unwrap();
        } else {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&log)
                .unwrap()
                .set_len(b)
                .unwrap();
        }

        // Frames entirely inside the first `b` bytes survive; the
        // frame containing byte `b` and everything after are lost.
        let survivors = offsets.iter().filter(|&&end| end <= b).count();
        let expected = if survivors == 0 { None } else { model[survivors - 1] };

        let store =
            wsrf_grid::wsrf::DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap();
        match expected {
            Some(v) => {
                let doc = store.load("svc", "job").expect("longest valid prefix ends live");
                prop_assert_eq!(doc, wide_doc_with(v), "a delta was applied in part");
            }
            None => prop_assert!(!store.exists("svc", "job"), "resurrected a dead resource"),
        }
    }
}

/// Destroy-then-crash-then-replay must not resurrect: a resource
/// destroyed after the snapshot was taken stays destroyed when the
/// snapshot and the log tail are replayed together.
#[test]
fn snapshot_log_interleaving_does_not_resurrect_destroyed_resources() {
    let tmp = TempDir::new("interleave");
    {
        let store =
            wsrf_grid::wsrf::DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap();
        store.create("svc", "a", &doc_with(1)).unwrap();
        store.create("svc", "b", &doc_with(2)).unwrap();
        // Snapshot compacts both creates out of the logs...
        store.snapshot_all().unwrap();
        assert_eq!(store.log_bytes(), 0);
        // ...then the log alone records the destroy and a later save.
        store.destroy("svc", "a").unwrap();
        store.save("svc", "b", &doc_with(20)).unwrap();
        // Crash: the store drops without another snapshot.
    }
    let store = wsrf_grid::wsrf::DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap();
    assert!(
        !store.exists("svc", "a"),
        "destroyed resource resurrected by snapshot replay"
    );
    let doc = store.load("svc", "b").unwrap();
    assert_eq!(doc.text(&q("V")), Some("20".into()));
}

/// The §5 rediscovery story across a real restart: run a job set to
/// completion on a grid whose scheduler state lives in a WAL-backed
/// store, tear the whole grid down, boot a fresh one over the
/// recovered store, and find the set — status, outputs' location —
/// through `FindJobSets` with nothing but a username.
#[test]
fn scheduler_restart_recovers_job_sets_from_the_wal() {
    let tmp = TempDir::new("restart");
    {
        let store = Arc::new(
            wsrf_grid::wsrf::DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap(),
        );
        let grid = CampusGrid::build(
            GridConfig::with_machines(2).with_scheduler_store(store as Arc<dyn ResourceStore>),
            Clock::manual(),
        );
        let client = grid.client("c1");
        client.put_file(
            "C:\\prog.exe",
            JobProgram::compute(1.0)
                .writing("out.dat", 48)
                .to_manifest(),
        );
        let spec = JobSetSpec::new("durable-set").job(
            JobSpec::new("job1", FileRef::parse("local://C:\\prog.exe").unwrap()).output("out.dat"),
        );
        let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
        grid.clock.advance(Duration::from_secs(10));
        assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
        // Whole grid dropped here — the only survivor is the WAL dir.
    }

    let store2 = Arc::new(
        wsrf_grid::wsrf::DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap(),
    );
    let grid2 = CampusGrid::build(
        GridConfig::with_machines(2).with_scheduler_store(store2 as Arc<dyn ResourceStore>),
        Clock::manual(),
    );
    let client2 = grid2.client("c2");
    let found = client2.rediscover(Some("durable-set")).unwrap();
    assert_eq!(found.len(), 1, "completed set survives the restart");
    assert_eq!(found[0].status().unwrap(), "Completed");

    // The restarted container must not re-mint the recovered set's
    // key: a fresh submission gets a fresh resource.
    let client3 = grid2.client("c3");
    client3.put_file("C:\\p.exe", JobProgram::compute(0.5).to_manifest());
    let spec2 = JobSetSpec::new("post-restart").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle2 = client3.submit(&spec2, "griduser", "gridpass").unwrap();
    grid2.clock.advance(Duration::from_secs(10));
    assert_eq!(handle2.outcome(), Some(JobSetOutcome::Completed));
    assert_eq!(client2.rediscover(None).unwrap().len(), 2);
}

/// Failover onto a store reopened from the dead primary's WAL
/// directory (a standby on another host): the submission record and the
/// job-set resource it replays are all the standby needs, and the set
/// completes exactly once.
#[test]
fn failover_from_a_reopened_wal_completes_exactly_once() {
    let tmp = TempDir::new("reopen");
    let store = DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap();
    let grid = CampusGrid::build(
        GridConfig::with_machines(2)
            .with_scheduler_store(Arc::new(store) as Arc<dyn ResourceStore>)
            .with_replication(),
        Clock::manual(),
    );
    let client = grid.client("c");
    client.put_file(
        "C:\\p.exe",
        JobProgram::compute(1.0).writing("o.dat", 64).to_manifest(),
    );
    let exe = || FileRef::parse("local://C:\\p.exe").unwrap();
    let spec = JobSetSpec::new("reopened-failover")
        .job(JobSpec::new("a", exe()).output("o.dat"))
        .job(JobSpec::new("b", exe()).input(FileRef::parse("a://o.dat").unwrap(), "in.dat"));

    let primary = grid.scheduler.clone();
    let net = grid.net.clone();
    grid.scheduler.set_step_hook(move |step, _| {
        if step == 3 && !primary.crashed() {
            primary.crash(&net);
        }
    });
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(1));
    assert!(grid.scheduler.crashed());

    let reopened = DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap();
    let promoted = grid.take_over_scheduler(Some(Arc::new(reopened) as Arc<dyn ResourceStore>));
    grid.clock.advance(Duration::from_secs(20));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    let topics: Vec<String> = handle
        .events()
        .iter()
        .map(|m| m.topic.to_string())
        .collect();
    let count = |suffix: &str| topics.iter().filter(|t| t.ends_with(suffix)).count();
    assert_eq!(count("/completed"), 1, "{topics:?}");
    for job in ["a", "b"] {
        assert_eq!(count(&format!("/{job}/started")), 1, "{topics:?}");
        assert_eq!(count(&format!("/{job}/exit")), 1, "{topics:?}");
    }
    let states = promoted.job_states(handle.jobset.resource_key().unwrap());
    for (job, state, code) in states.unwrap() {
        assert_eq!((state.as_str(), code), ("Completed", Some(0)), "job {job}");
    }
}

/// Failover with a WAL-backed scheduler store: the promoted standby
/// shares the durable store, so its own record keeping lands in the
/// same log the crashed primary wrote.
#[test]
fn failover_over_a_durable_store_completes_and_persists() {
    let tmp = TempDir::new("failover");
    let store = Arc::new(
        wsrf_grid::wsrf::DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap(),
    );
    let grid = CampusGrid::build(
        GridConfig::with_machines(2)
            .with_scheduler_store(store as Arc<dyn ResourceStore>)
            .with_replication(),
        Clock::manual(),
    );
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
    let spec = JobSetSpec::new("durable-failover").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));

    let primary = grid.scheduler.clone();
    let net = grid.net.clone();
    grid.scheduler.set_step_hook(move |step, _| {
        if step == 3 {
            primary.crash(&net);
        }
    });
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(1));
    assert!(grid.scheduler.crashed());

    let promoted = grid.take_over_scheduler(None);
    grid.clock.advance(Duration::from_secs(20));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    drop(promoted);
    drop(grid);

    // The durable store replays to the terminal state.
    let recovered =
        wsrf_grid::wsrf::DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap();
    let keys = recovered.list("Scheduler");
    let set_key = keys
        .iter()
        .find(|k| k.as_str() != "feedback")
        .expect("job set resource recovered");
    let doc = recovered.load("Scheduler", set_key).unwrap();
    assert_eq!(
        doc.text(&QName::new(wsrf_grid::testbed::UVACG, "Status")),
        Some("Completed".into())
    );
}

/// An Execution Service restarted while a job stages finishes it: the
/// job's staging record (executable, credentials, trace) is replayed
/// from the WAL with its resource, so the upload that completes after
/// the restart starts the job, and the Figure 3 set completes exactly
/// once.
#[test]
fn an_es_restarted_mid_staging_from_its_wal_finishes_the_set() {
    use wsrf_grid::node::ProcSpawn;
    use wsrf_grid::testbed::es::{execution_service, EsConfig, STAGING};

    let tmp = TempDir::new("es-restart");
    // Campus latencies defer every one-way on the manual clock, so a
    // job stays staging until the clock moves.
    let grid = CampusGrid::build(
        GridConfig::with_machines(1).with_net(NetConfig::campus()),
        Clock::manual(),
    );
    let machine = grid.machines[0].clone();
    let es_address = format!("inproc://{}/Execution", machine.spec.name);
    let redeploy = |store: Arc<dyn ResourceStore>| {
        grid.net.unregister(&es_address);
        let es = execution_service(
            EsConfig {
                machine: machine.clone(),
                spawner: Arc::new(ProcSpawn::new(machine.clone())),
                fss_address: format!("inproc://{}/FileSystem", machine.spec.name),
                broker: Some(grid.broker.clone()),
                security: None,
                store,
            },
            grid.clock.clone(),
            grid.net.clone(),
        );
        es.register(&grid.net);
        es
    };
    let open = || -> Arc<dyn ResourceStore> {
        Arc::new(DurableStore::open(&tmp.0, Arc::new(MemoryStore::new())).unwrap())
    };
    let store = open();
    let es = redeploy(store.clone());

    let client = grid.client("c");
    client.put_file(
        "C:\\stage1.exe",
        JobProgram::compute(1.0)
            .writing("mid.dat", 64)
            .to_manifest(),
    );
    client.put_file(
        "C:\\stage2.exe",
        JobProgram::compute(1.0).reading("in.dat").to_manifest(),
    );
    let spec = JobSetSpec::new("es-restart")
        .job(
            JobSpec::new("job1", FileRef::parse("local://C:\\stage1.exe").unwrap())
                .output("mid.dat"),
        )
        .job(
            JobSpec::new("job2", FileRef::parse("local://C:\\stage2.exe").unwrap())
                .input(FileRef::parse("job1://mid.dat").unwrap(), "in.dat"),
        );
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    for _ in 0..1000 {
        if !store.list(STAGING).is_empty() {
            break;
        }
        grid.clock.advance(Duration::from_millis(1));
    }
    assert_eq!(store.list(STAGING).len(), 1, "job1 is staging");
    assert!(handle.job_epr("job1").is_none(), "job1 has not started");

    // The ES goes away with everything it kept in memory; its
    // successor knows only what the reopened log replays.
    drop((es, store));
    let store = open();
    let _es = redeploy(store.clone());
    grid.clock.advance(Duration::from_secs(20));

    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    let topics: Vec<String> = handle
        .events()
        .iter()
        .map(|m| m.topic.to_string())
        .collect();
    let count = |suffix: &str| topics.iter().filter(|t| t.ends_with(suffix)).count();
    assert_eq!(count("/completed"), 1, "{topics:?}");
    for job in ["job1", "job2"] {
        assert_eq!(count(&format!("/{job}/started")), 1, "{topics:?}");
        assert_eq!(count(&format!("/{job}/exit")), 1, "{topics:?}");
    }
    assert!(store.list(STAGING).is_empty(), "both jobs spawned");
}

/// Run a one-job set to completion on a grid whose scheduler keeps its
/// state in a WAL under `dir`, and drop the grid. Returns the set's EPR
/// and the lease it was retired with, as the log holds it.
fn finished_set_in_a_wal(dir: &std::path::Path) -> (EndpointReference, SimTime) {
    let store = Arc::new(DurableStore::open(dir, Arc::new(MemoryStore::new())).unwrap());
    let config = GridConfig::with_machines(1).with_scheduler_store(store.clone());
    let grid = CampusGrid::build(config, Clock::manual());
    let client = grid.client("c");
    client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
    let exe = FileRef::parse("local://C:\\p.exe").unwrap();
    let spec = JobSetSpec::new("leased").job(JobSpec::new("j", exe));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(10));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    let key = handle.jobset.resource_key().unwrap();
    let set = store.share("Scheduler", key).unwrap();
    let lease = set.f64(&QName::new(wsrf_grid::soap::ns::WSRL, "TerminationTime"));
    let lease = SimTime::from_secs_f64(lease.expect("a finished set is retired"));
    (handle.jobset.clone(), lease)
}

/// A grid over the scheduler WAL under `dir`, on a clock set to `at`.
fn reopened_at(dir: &std::path::Path, at: SimTime) -> (Arc<DurableStore>, CampusGrid) {
    let store = Arc::new(DurableStore::open(dir, Arc::new(MemoryStore::new())).unwrap());
    let clock = Clock::manual();
    clock.advance_to(at);
    let config = GridConfig::with_machines(1).with_scheduler_store(store.clone());
    (store, CampusGrid::build(config, clock))
}

fn status_fault(grid: &CampusGrid, set: &EndpointReference) -> Option<String> {
    let get = Element::new(wsrf_grid::soap::ns::WSRP, "GetResourceProperty").text("Status");
    let action = wsrf_grid::wsrf::porttypes::wsrp_action("GetResourceProperty");
    let resp = wsrf_grid::wsrf::Outbound::new(set.clone(), action, get).call(&grid.net);
    resp.err().and_then(|f| f.error_code().map(str::to_string))
}

/// A finished set's lease is its stored `wsrl:TerminationTime`: a
/// scheduler reopened over the WAL after that lease ran out neither
/// lists nor serves the set.
#[test]
fn a_scheduler_reopened_past_a_sets_lease_forgets_the_set() {
    let tmp = TempDir::new("lease-past");
    let (set, lease) = finished_set_in_a_wal(&tmp.0);
    let (store, grid) = reopened_at(&tmp.0, lease + Duration::from_secs(1));
    let key = set.resource_key().unwrap().to_string();
    assert!(!store.list("Scheduler").contains(&key), "reaped at build");
    assert!(grid.client("c").rediscover(None).unwrap().is_empty());
    let gone = status_fault(&grid, &set);
    assert_eq!(gone.as_deref(), Some("wsrf:NoSuchResource"));
}

/// ...and one reopened before the lease ends re-arms it: the set stays
/// until its deadline and is reaped then.
#[test]
fn a_scheduler_reopened_before_a_sets_lease_reaps_it_on_time() {
    let tmp = TempDir::new("lease-ahead");
    let (set, lease) = finished_set_in_a_wal(&tmp.0);
    let (store, grid) = reopened_at(&tmp.0, SimTime::from_secs(20));
    let key = set.resource_key().unwrap().to_string();
    let expired = || grid.metrics.counter("events.lease_expiry").get();
    let before = expired();
    grid.clock
        .advance_to(lease.saturating_sub(Duration::from_secs(1)));
    assert_eq!(status_fault(&grid, &set), None, "served until the deadline");
    assert_eq!(grid.client("c").rediscover(None).unwrap().len(), 1);
    grid.clock.advance_to(lease);
    assert!(
        !store.list("Scheduler").contains(&key),
        "reaped at the deadline"
    );
    let gone = status_fault(&grid, &set);
    assert_eq!(gone.as_deref(), Some("wsrf:NoSuchResource"));
    assert_eq!(expired(), before + 1);
}
