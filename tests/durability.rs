//! Durable WS-Resource state, end to end: property-based write-ahead
//! log replay under arbitrary tail corruption, destroy-vs-snapshot
//! interleavings, and the §5 rediscovery story across a full scheduler
//! restart over a recovered store.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// A throwaway log directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "wsrf-durability-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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
    let standby = grid.spawn_standby(None);
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

    let promoted = standby.promote(wsrf_grid::testbed::grid::SCHEDULER_ADDRESS);
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
