//! The six workloads. Each `round` builds a fresh fixture, warms it
//! up, drives it for the timed window, checks the outputs and tears
//! the fixture down; everything outside warm-up + window is set-up
//! time.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::alloc;
use crate::loadgen::{process_cpu_seconds, OpenLoop, Rng};
use crate::sut::{
    self, Counters, Deploy, Fig3, Fig3Options, NotifyFixture, ReadOp, ReplayRows, RpcFixture,
    RpcTransport, RPC_KEYS, RPC_PROPS,
};
use crate::trace::{Tracer, ROOT};

/// Name, loop shape and reason for each workload (the reasons are what
/// `BENCHMARK.json` and the README quote).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "fig3_inproc",
        "closed loop, 1 client: Figure 3 two-job set on the in-process grid; XML is sized, never parsed, so wire-path changes must not move it",
    ),
    (
        "fig3_tcp",
        "closed loop, 1 client: the same job set with every service and listener behind loopback soap.tcp; render, frame, scan and parse x 36 exchanges",
    ),
    (
        "rpc_read_tcp",
        "closed loop, 2 persistent connections: WS-RP reads on 1000 x 12 properties; smallest messages, per-message parser/writer/container cost dominates",
    ),
    (
        "rpc_write_wal_tcp",
        "closed loop, 2 persistent connections: SetResourceProperties over a DurableStore; exclusive lease, body DOM, save stage and WAL append",
    ),
    (
        "rpc_read_http",
        "open loop, Poisson 1000 calls/s, connection per call: HTTP header parse, accept and thread-per-connection at about a third of one caller's capacity",
    ),
    (
        "notify_openloop",
        "open loop, Poisson 1500 publishes/s x fan-out 20 on the real clock: the only workload on the production per-consumer delivery queues",
    ),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

/// Workloads that run pinned to one CPU (see
/// [`crate::loadgen::pin_to_one_cpu`]): everything but the two that
/// are built to keep two cores busy. The Figure 3 sets and the HTTP
/// calls are one synchronous chain — one thread runs at a time — so a
/// second core adds nothing but a coin toss over where each hand-over
/// lands. The notification fan-out does use its workers in parallel,
/// but on two cores its CPU per delivery was 13 µs or 26 µs from one run
/// to the next depending on what waking a halted vCPU cost that minute;
/// on one core (about half busy) the same code wakes its workers
/// locally.
pub fn runs_pinned(name: &str) -> bool {
    !matches!(name, "rpc_read_tcp" | "rpc_write_wal_tcp")
}

/// What one round is asked to do.
pub struct RoundPlan {
    pub seed: u64,
    /// Round index within the run; part of every RNG stream.
    pub round: u64,
    pub warmup: Duration,
    pub timed: Duration,
    /// `Some` makes this the traced pass: wrappers installed, one client.
    pub tracer: Option<Tracer>,
    /// Count allocations over the timed window.
    pub count_allocs: bool,
    /// `false` deploys the Figure 3 grid with observability disabled.
    pub obs: bool,
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub attempted: u64,
    pub failed: u64,
    /// Operations completed in the timed window.
    pub ops: u64,
    pub wall_s: f64,
    /// Process CPU over the window, less the open-loop generator's spin.
    pub cpu_s: f64,
    pub warmup_s: f64,
    /// Time spent on the replay rows after the window (traced pass);
    /// not charged to set-up.
    pub replay_s: f64,
    pub setup_s: f64,
    /// Per-op latency in µs, in completion order.
    pub latencies_us: Vec<f64>,
    /// Open loop: how late each send left the generator, µs.
    pub late_us: Vec<f64>,
    /// notify_openloop: publish return → consumer callback, µs.
    pub lag_us: Vec<f64>,
    pub counters: Counters,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Workload-specific counts, by name.
    pub facts: BTreeMap<&'static str, f64>,
    /// Output checks that failed (empty = correct).
    pub check_failures: Vec<String>,
    /// Op ids of the timed window (traced pass).
    pub op_range: (u32, u32),
    /// Replay rows on the corpus captured this round (traced pass).
    pub replay: Option<ReplayRows>,
}

/// Counters read at the edges of the timed window.
struct Window {
    start: Instant,
    cpu_s: f64,
    counters: Counters,
    allocs: (u64, u64),
    counting: bool,
}

impl Window {
    fn open(count_allocs: bool) -> Window {
        alloc::set_counting(count_allocs);
        Window {
            allocs: alloc::counters(),
            counters: Counters::read(),
            cpu_s: process_cpu_seconds(),
            counting: count_allocs,
            start: Instant::now(),
        }
    }

    fn close(self, round: &mut Round) {
        round.wall_s = self.start.elapsed().as_secs_f64();
        round.cpu_s = process_cpu_seconds() - self.cpu_s;
        round.counters = Counters::read().since(&self.counters);
        let (allocs, bytes) = alloc::counters();
        if self.counting {
            alloc::set_counting(false);
            round.allocs = allocs - self.allocs.0;
            round.alloc_bytes = bytes - self.allocs.1;
        }
    }
}

/// Rows every traced round ends with: the replay of its capture.
const REPLAY_BUDGET_PER_ROW: Duration = Duration::from_millis(40);

pub fn run_round(workload: &str, plan: &RoundPlan) -> Round {
    let started = Instant::now();
    park(plan);
    let mut round = match workload {
        "fig3_inproc" => fig3_round(plan, false),
        "fig3_tcp" => fig3_round(plan, true),
        "rpc_read_tcp" => rpc_closed_round(plan, false),
        "rpc_write_wal_tcp" => rpc_closed_round(plan, true),
        "rpc_read_http" => rpc_http_round(plan),
        "notify_openloop" => notify_round(plan),
        other => panic!("unknown workload '{other}'"),
    };
    // Everything that was neither warm-up nor window: deploy, populate,
    // subscribe, connect, drain, verification, teardown.
    round.setup_s =
        started.elapsed().as_secs_f64() - round.wall_s - round.warmup_s - round.replay_s;
    round
}

/// Spans opened outside the timed ops (set-up, warm-up, verification)
/// carry this op id, which no op range includes.
const NO_OP: u32 = u32::MAX;

fn park(plan: &RoundPlan) {
    if let Some(t) = &plan.tracer {
        t.set_op(NO_OP);
    }
}

fn fail(round: &mut Round, what: String) {
    // Keep the first few: one broken invariant usually repeats per op.
    if round.check_failures.len() < 8 {
        round.check_failures.push(what);
    }
}

/// Time the replay rows without charging them to set-up.
fn replay(round: &mut Round, capture: &sut::Capture) {
    let t0 = Instant::now();
    round.replay = Some(sut::replay_rows(capture, REPLAY_BUDGET_PER_ROW));
    round.replay_s = t0.elapsed().as_secs_f64();
}

// ---------------------------------------------------------------------
// fig3_inproc / fig3_tcp
// ---------------------------------------------------------------------

fn fig3_round(plan: &RoundPlan, tcp: bool) -> Round {
    let deploy = match (tcp, plan.tracer.is_some()) {
        (true, _) => Deploy::MirrorTcp,
        // `CampusGrid::build` hands out no endpoints to wrap; the traced
        // pass runs on the mirror `bench selftest` holds equal to it.
        (false, true) => Deploy::Mirror,
        (false, false) => Deploy::CampusGrid,
    };
    let fixture = Fig3::deploy(Fig3Options {
        deploy,
        tracer: plan.tracer.clone(),
        obs: plan.obs,
    });
    let mut round = Round::default();

    let warm_from = Instant::now();
    while warm_from.elapsed() < plan.warmup {
        fixture.run_set();
    }
    round.warmup_s = warm_from.elapsed().as_secs_f64();

    let messages_before = fixture.messages();
    let bytes_before = fixture.wire_bytes();
    let mut first: Option<(u64, u64, u64)> = None;
    let window = Window::open(plan.count_allocs);
    let mut op = 0u32;
    while window.start.elapsed() < plan.timed {
        if let Some(t) = &plan.tracer {
            t.set_op(op);
        }
        let t0 = Instant::now();
        let set = {
            let _root = plan.tracer.as_ref().map(|t| t.span(ROOT));
            fixture.run_set()
        };
        round.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        round.attempted += 1;
        if !set.completed {
            round.failed += 1;
            fail(&mut round, format!("set {op} did not complete"));
        }
        let shape = (set.makespan_ns, set.messages, set.exchanges);
        match first {
            None => first = Some(shape),
            Some(f) if f != shape => fail(
                &mut round,
                format!("set {op}: (makespan, messages, exchanges) {shape:?} != first set's {f:?}"),
            ),
            Some(_) => {}
        }
        // Every 100th set's output is read back, outside its latency.
        if let (0, Some(handle)) = (op % 100, &set.handle) {
            park(plan);
            let len = fixture.fetch_output(handle);
            if len != 1024 {
                fail(
                    &mut round,
                    format!("set {op}: out.dat is {len} bytes, expected 1024"),
                );
            }
        }
        op += 1;
    }
    window.close(&mut round);
    park(plan);
    round.ops = round.attempted - round.failed;
    round.op_range = (0, op);

    let (makespan_ns, per_set_messages, per_set_exchanges) = first.unwrap_or_default();
    let ops = round.ops.max(1) as f64;
    round
        .facts
        .insert("virtual_makespan_s", makespan_ns as f64 / 1e9);
    round
        .facts
        .insert("inproc_msgs_per_op", per_set_messages as f64);
    round
        .facts
        .insert("tcp_exchanges_per_op", per_set_exchanges as f64);
    round.facts.insert(
        "wire_bytes_per_op",
        (fixture.wire_bytes() - bytes_before) as f64 / ops,
    );
    round.facts.insert(
        "inproc_msgs_total",
        (fixture.messages() - messages_before) as f64,
    );
    if let Some(stats) = fixture.tcp_stats() {
        round.facts.insert(
            "tcp_connections",
            stats.connections.load(Ordering::Relaxed) as f64,
        );
        let errors = stats.errors.load(Ordering::Relaxed);
        if errors > 0 {
            fail(&mut round, format!("{errors} bridge exchanges failed"));
        }
    }
    if plan.tracer.is_some() {
        replay(&mut round, fixture.capture());
    }
    fixture.teardown();
    round
}

// ---------------------------------------------------------------------
// rpc_read_tcp / rpc_write_wal_tcp
// ---------------------------------------------------------------------

/// Client connections of the closed-loop RPC workloads. The target has
/// two cores; with one client they idle between ping-pongs and latency
/// measures wake-ups, so two is the floor that measures the program.
const RPC_CLIENTS: usize = 2;

fn next_read(rng: &mut Rng) -> ReadOp {
    let key = rng.below(RPC_KEYS);
    match rng.below(10) {
        0..=5 => ReadOp::Get {
            key,
            prop: rng.below(RPC_PROPS),
        },
        6..=7 => {
            let first = rng.below(RPC_PROPS);
            ReadOp::GetMultiple {
                key,
                props: [first, (first + 4) % RPC_PROPS, (first + 8) % RPC_PROPS],
            }
        }
        _ => ReadOp::Query {
            key,
            prop: rng.below(RPC_PROPS),
        },
    }
}

/// Where this process may write: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let dir = base.join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failures: Vec<String>,
    latencies_us: Vec<f64>,
    /// (key, prop) → writes applied, warm-up included.
    versions: BTreeMap<(usize, usize), u64>,
}

fn rpc_closed_round(plan: &RoundPlan, write: bool) -> Round {
    let wal_dir =
        write.then(|| out_dir().join(format!("wal-{}-{}", std::process::id(), plan.round)));
    let fixture = RpcFixture::deploy(RpcTransport::Tcp, wal_dir.as_deref(), plan.tracer.clone());
    // One client in the traced pass, so spans nest on one chain.
    let clients = if plan.tracer.is_some() {
        1
    } else {
        RPC_CLIENTS
    };
    let mut round = Round::default();

    let barrier = Barrier::new(clients + 1);
    let mut wal_before = 0;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (fixture, barrier) = (&fixture, &barrier);
                scope.spawn(move || {
                    let client = fixture.connect();
                    let mut rng = Rng::new(plan.seed, plan.round * 16 + c as u64);
                    let mut log = ClientLog::default();
                    let mut one = |log: &mut ClientLog, record: bool, op_id: u32| {
                        let t0 = Instant::now();
                        let result = if write {
                            // Each client owns the keys congruent to its
                            // index, so "last write per key" is defined.
                            let key = rng.below(RPC_KEYS / clients) * clients + c;
                            let prop = rng.below(RPC_PROPS);
                            let version = log.versions.entry((key, prop)).or_insert(0);
                            *version += 1;
                            client.write(key, prop, *version)
                        } else {
                            client.read(&next_read(&mut rng), |_, _| 0)
                        };
                        if record {
                            log.attempted += 1;
                            log.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                            if let Err(e) = result {
                                log.failures.push(format!("op {op_id}: {e}"));
                            }
                        }
                    };
                    let warm_from = Instant::now();
                    while warm_from.elapsed() < plan.warmup {
                        one(&mut log, false, 0);
                    }
                    barrier.wait();
                    let from = Instant::now();
                    let mut op = 0u32;
                    while from.elapsed() < plan.timed {
                        if let Some(t) = &plan.tracer {
                            t.set_op(op);
                        }
                        let _root = plan.tracer.as_ref().map(|t| t.span(ROOT));
                        one(&mut log, true, op);
                        op += 1;
                    }
                    barrier.wait();
                    log
                })
            })
            .collect();
        let warm_from = Instant::now();
        barrier.wait();
        round.warmup_s = warm_from.elapsed().as_secs_f64();
        wal_before = fixture.wal_bytes();
        let window = Window::open(plan.count_allocs);
        barrier.wait();
        window.close(&mut round);
        park(plan);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut versions = vec![vec![0u64; RPC_PROPS]; RPC_KEYS];
    for log in logs {
        round.attempted += log.attempted;
        round.failed += log.failures.len() as u64;
        for f in log.failures {
            fail(&mut round, f);
        }
        round.latencies_us.extend(log.latencies_us);
        for ((key, prop), v) in log.versions {
            versions[key][prop] = v;
        }
    }
    round.ops = round.attempted - round.failed;
    round.op_range = (0, NO_OP);
    let ops = round.ops.max(1) as f64;
    round.facts.insert("tcp_exchanges_per_op", 1.0);
    round.facts.insert("tcp_connections", clients as f64);

    if write {
        round.facts.insert(
            "wal_bytes_per_op",
            (fixture.wal_bytes() - wal_before) as f64 / ops,
        );
        // Read every key back over the wire, then reopen the WAL as a
        // restarted process would and compare the whole key space.
        let client = fixture.connect();
        let mut rng = Rng::new(plan.seed, plan.round * 16 + 15);
        for key in 0..RPC_KEYS {
            let op = ReadOp::Get {
                key,
                prop: rng.below(RPC_PROPS),
            };
            if let Err(e) = client.read(&op, |k, p| versions[k][p]) {
                fail(&mut round, format!("read-back: {e}"));
            }
        }
        let (mismatches, records, seconds) = fixture.verify_wal_replay(&versions);
        if mismatches > 0 {
            fail(
                &mut round,
                format!("{mismatches} properties differ after WAL replay"),
            );
        }
        round.facts.insert(
            "wal_replay_ms_per_10k",
            seconds * 1e3 / records.max(1) as f64 * 1e4,
        );
    }
    if plan.tracer.is_some() {
        replay(&mut round, fixture.capture());
    }
    fixture.teardown();
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    round
}

// ---------------------------------------------------------------------
// rpc_read_http
// ---------------------------------------------------------------------

/// Offered rate: a call takes about 0.3 ms, so about a third of what
/// the one generator could push, and few enough connections per run
/// (18 k, to a fresh server port each round) that TIME_WAIT cannot
/// exhaust ephemeral ports.
const HTTP_RATE: f64 = 1000.0;

fn rpc_http_round(plan: &RoundPlan) -> Round {
    let fixture = RpcFixture::deploy(RpcTransport::Http, None, plan.tracer.clone());
    let client = fixture.connect();
    let mut round = Round::default();
    let mut ops_rng = Rng::new(plan.seed, plan.round * 16);
    let mut pacer = OpenLoop::new(Rng::new(plan.seed, plan.round * 16 + 1), HTTP_RATE);

    let warm_from = Instant::now();
    let warm_until = warm_from + plan.warmup;
    while pacer.next(warm_until).is_some() {
        let key = ops_rng.below(RPC_KEYS);
        let prop = ops_rng.below(RPC_PROPS);
        let _ = client.read(&ReadOp::Get { key, prop }, |_, _| 0);
    }
    round.warmup_s = warm_from.elapsed().as_secs_f64();

    let mut pacer = OpenLoop::new(Rng::new(plan.seed, plan.round * 16 + 2), HTTP_RATE);
    let window = Window::open(plan.count_allocs);
    let until = window.start + plan.timed;
    let mut op = 0u32;
    while let Some(due) = pacer.next(until) {
        round.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        if let Some(t) = &plan.tracer {
            t.set_op(op);
        }
        let key = ops_rng.below(RPC_KEYS);
        let prop = ops_rng.below(RPC_PROPS);
        let result = {
            let _root = plan.tracer.as_ref().map(|t| t.span(ROOT));
            client.read(&ReadOp::Get { key, prop }, |_, _| 0)
        };
        // From when the call was *due*: a stall delays every later send
        // and that wait is the caller's too.
        round.latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
        round.attempted += 1;
        if let Err(e) = result {
            round.failed += 1;
            fail(&mut round, format!("call {op}: {e}"));
        }
        op += 1;
    }
    window.close(&mut round);
    park(plan);
    round.cpu_s -= pacer.spun.as_secs_f64();
    round.ops = round.attempted - round.failed;
    round.op_range = (0, op);
    round.facts.insert("http_connects_per_op", 1.0);
    if plan.tracer.is_some() {
        replay(&mut round, fixture.capture());
    }
    fixture.teardown();
    round
}

// ---------------------------------------------------------------------
// notify_openloop
// ---------------------------------------------------------------------

const NOTIFY_LISTENERS: usize = 2000;
const NOTIFY_ROOTS: usize = 100;
const NOTIFY_FANOUT: u64 = (NOTIFY_LISTENERS / NOTIFY_ROOTS) as u64;
/// 30 000 deliveries/s at about 16 µs of CPU each: half of the one
/// core the workload runs on, far from where queues build.
const NOTIFY_RATE: f64 = 1500.0;
/// How long the round waits for in-flight deliveries after the window.
const NOTIFY_DRAIN: Duration = Duration::from_secs(5);

/// Per-publish timestamps, ns since the round's epoch, shared with the
/// delivery callbacks.
struct PublishLog {
    epoch: Instant,
    due_ns: Vec<AtomicU64>,
    returned_ns: Vec<AtomicU64>,
    /// Deliveries of publishes `timed_from..` are recorded.
    timed_from: AtomicU64,
    /// Per listener: (latency µs from due, lag µs from publish return).
    samples: Vec<Mutex<Vec<(f32, f32)>>>,
}

/// The generator's side of a publish: picks the root, stamps the log.
struct Publisher {
    rng: Rng,
    seq: u64,
    /// Publishes per root since the tally was last cleared.
    per_root: Vec<u64>,
}

impl Publisher {
    fn publish(
        &mut self,
        fixture: &NotifyFixture,
        log: &PublishLog,
        due: Instant,
    ) -> Result<(), String> {
        let root = self.rng.below(NOTIFY_ROOTS);
        let i = self.seq as usize;
        log.due_ns[i].store((due - log.epoch).as_nanos() as u64, Ordering::Relaxed);
        let result = fixture.publish(root, self.seq);
        log.returned_ns[i].store(log.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.per_root[root] += 1;
        self.seq += 1;
        result
    }
}

fn notify_round(plan: &RoundPlan) -> Round {
    let capacity = ((plan.warmup + plan.timed).as_secs_f64() * NOTIFY_RATE * 1.5) as usize + 1024;
    let log = Arc::new(PublishLog {
        epoch: Instant::now(),
        due_ns: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        returned_ns: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        timed_from: AtomicU64::new(u64::MAX),
        samples: (0..NOTIFY_LISTENERS)
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
    });
    let cb_log = log.clone();
    let fixture = NotifyFixture::deploy(
        NOTIFY_LISTENERS,
        NOTIFY_ROOTS,
        plan.tracer.clone(),
        Arc::new(move |listener, seq| {
            let log = &cb_log;
            if seq < log.timed_from.load(Ordering::Relaxed) {
                return;
            }
            let now = log.epoch.elapsed().as_nanos() as u64;
            let due = log.due_ns[seq as usize].load(Ordering::Relaxed);
            // 0 = the callback beat `publish` returning; no lag sample.
            let returned = log.returned_ns[seq as usize].load(Ordering::Relaxed);
            let lag = if returned == 0 {
                f32::NAN
            } else {
                now.saturating_sub(returned) as f32 / 1e3
            };
            log.samples[listener]
                .lock()
                .expect("sample log poisoned")
                .push((now.saturating_sub(due) as f32 / 1e3, lag));
        }),
    );
    let mut round = Round::default();
    let mut publisher = Publisher {
        rng: Rng::new(plan.seed, plan.round * 16),
        seq: 0,
        per_root: vec![0; NOTIFY_ROOTS],
    };

    let mut pacer = OpenLoop::new(Rng::new(plan.seed, plan.round * 16 + 1), NOTIFY_RATE);
    let warm_from = Instant::now();
    let warm_until = warm_from + plan.warmup;
    while let Some(due) = pacer.next(warm_until) {
        let _ = publisher.publish(&fixture, &log, due);
    }
    round.warmup_s = warm_from.elapsed().as_secs_f64();
    let warm_publishes = publisher.seq;
    publisher.per_root.fill(0);

    let messages_before = fixture.messages();
    let mut pacer = OpenLoop::new(Rng::new(plan.seed, plan.round * 16 + 2), NOTIFY_RATE);
    log.timed_from.store(warm_publishes, Ordering::Relaxed);
    let window = Window::open(plan.count_allocs);
    let until = window.start + plan.timed;
    while let Some(due) = pacer.next(until) {
        round.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        if let Some(t) = &plan.tracer {
            t.set_op((publisher.seq - warm_publishes) as u32);
        }
        let _root = plan.tracer.as_ref().map(|t| t.span(ROOT));
        if let Err(e) = publisher.publish(&fixture, &log, due) {
            fail(&mut round, format!("publish {}: {e}", publisher.seq));
        }
    }
    window.close(&mut round);
    park(plan);
    round.cpu_s -= pacer.spun.as_secs_f64();
    let (seq, per_root) = (publisher.seq, publisher.per_root);
    let publishes = seq - warm_publishes;
    round.op_range = (0, publishes as u32);

    // Bounded drain, then the exact count: every publish reaches each
    // of its root's listeners once.
    let expected_total = seq * NOTIFY_FANOUT;
    let drain_from = Instant::now();
    while fixture.delivered().iter().sum::<u64>() < expected_total
        && drain_from.elapsed() < NOTIFY_DRAIN
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    for samples in &log.samples {
        for (latency, lag) in samples.lock().expect("sample log poisoned").iter() {
            round.latencies_us.push(*latency as f64);
            if !lag.is_nan() {
                round.lag_us.push(*lag as f64);
            }
        }
    }
    round.attempted = publishes * NOTIFY_FANOUT;
    round.ops = round.latencies_us.len() as u64;
    round.failed = round.attempted.saturating_sub(round.ops);
    if round.ops != round.attempted {
        let delivered = round.ops;
        fail(
            &mut round,
            format!("{delivered} deliveries for {publishes} publishes x {NOTIFY_FANOUT}"),
        );
    }
    // Warm-up publishes were not tallied per root; compare the timed
    // ones against each listener's recorded samples instead of totals.
    for (i, samples) in log.samples.iter().enumerate() {
        let got = samples.lock().expect("sample log poisoned").len() as u64;
        let want = per_root[i % fixture.roots()];
        if got != want {
            fail(
                &mut round,
                format!("listener {i} heard {got} of its root's {want} publishes"),
            );
        }
    }
    round.facts.insert("publishes", publishes as f64);
    round.facts.insert(
        "inproc_msgs_total",
        (fixture.messages() - messages_before) as f64,
    );
    if plan.tracer.is_some() {
        replay(&mut round, fixture.capture());
    }
    fixture.teardown();
    round
}
