//! `bench selftest`: the benchmark checking itself — that its mirrored
//! deployment is the real one, that the bridge changes the transport
//! and nothing else, that its generator keeps time and its arithmetic
//! is right. Each check panics on failure; `cargo test` runs the same
//! functions.

use std::time::{Duration, Instant};

use crate::ledger::{Outcome, ROUNDS};
use crate::loadgen::{OpenLoop, Rng};
use crate::stats::{median, percentile_sorted, round_spread, slope, sort};
use crate::sut::{self, Deploy, Fig3, Fig3Options};
use crate::trace::{Recording, Span, ROOT};
use crate::workloads::{run_round, RoundPlan, WORKLOADS};

/// What a deployment does with three job sets, as far as a client or
/// an operator could tell.
#[derive(Debug, PartialEq)]
struct Behaviour {
    completed: Vec<bool>,
    makespans_ns: Vec<u64>,
    messages: Vec<u64>,
    job_states: Vec<(String, String, Option<i32>)>,
    output_len: usize,
}

fn behaviour(deploy: Deploy) -> (Behaviour, u64) {
    let fixture = Fig3::deploy(Fig3Options {
        deploy,
        tracer: None,
        obs: true,
    });
    let sets: Vec<_> = (0..3).map(|_| fixture.run_set()).collect();
    let output_len = fixture.fetch_output(sets[2].handle.as_ref().expect("set was submitted"));
    let b = Behaviour {
        completed: sets.iter().map(|s| s.completed).collect(),
        makespans_ns: sets.iter().map(|s| s.makespan_ns).collect(),
        messages: sets.iter().map(|s| s.messages).collect(),
        job_states: fixture.last_job_states(2),
        output_len,
    };
    let exchanges = sets.iter().map(|s| s.exchanges).sum();
    fixture.teardown();
    (b, exchanges)
}

fn mirrored_deploy_equals_campus_grid() {
    let (real, _) = behaviour(Deploy::CampusGrid);
    let (mirror, _) = behaviour(Deploy::Mirror);
    assert_eq!(real.completed, vec![true; 3]);
    assert_eq!(real.output_len, 1024);
    assert_eq!(real.job_states.len(), 2);
    assert_eq!(mirror, real);
}

fn bridged_equals_inproc() {
    let (inproc, none) = behaviour(Deploy::Mirror);
    let (bridged, exchanges) = behaviour(Deploy::MirrorTcp);
    assert_eq!(bridged, inproc);
    assert_eq!(none, 0);
    assert!(exchanges > 0, "the bridged grid crossed no socket");
    assert_eq!(exchanges % 3, 0, "exchanges per set are not constant");
}

fn nested_call_through_bridge_does_not_deadlock() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sut::bridge_reentrancy_probe(4));
    });
    let connections = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("re-entrant call through the bridge deadlocked")
        .expect("probe failed");
    // One connection per level still waiting for its response.
    assert_eq!(connections, 5);
}

fn open_loop_generator_keeps_its_schedule() {
    // 2000 sends/s for 0.25 s against a target that does nothing: the
    // generator itself must not run late.
    let mut pacer = OpenLoop::new(Rng::new(1, 0), 2000.0);
    let until = Instant::now() + Duration::from_millis(250);
    let mut late_us = Vec::new();
    while let Some(due) = pacer.next(until) {
        late_us.push(due.elapsed().as_secs_f64() * 1e6);
    }
    sort(&mut late_us);
    assert!(late_us.len() > 300, "only {} sends", late_us.len());
    let p50 = percentile_sorted(&late_us, 0.5);
    assert!(p50 < 100.0, "generator p50 lateness {p50} us");
}

fn percentile_median_slope_arithmetic() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    assert_eq!(percentile_sorted(&v, 0.5), 51.0);
    assert_eq!(percentile_sorted(&v, 0.9), 90.0);
    assert_eq!(percentile_sorted(&v, 1.0), 100.0);
    assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    // Median of rounds, odd and even; spread between rounds.
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(round_spread(&[90.0, 100.0, 110.0]), 0.2);
    let line: Vec<f64> = (0..50).map(|i| 7.0 + 3.0 * f64::from(i)).collect();
    assert!((slope(&line) - 3.0).abs() < 1e-9);
    assert_eq!(slope(&[1.0; 10]), 0.0);
}

fn self_time_arithmetic_on_hand_made_spans() {
    // op [0,100] ─ a [10,60] ─ b [20,30]      a carries 5 ns of leaf time
    //            └ c [70,90]
    let span = |id, parent, name, start_ns, end_ns, leaf_ns| Span {
        id,
        parent,
        op: 0,
        name,
        start_ns,
        end_ns,
        leaf_ns,
    };
    let rec = Recording {
        spans: vec![
            span(1, 0, ROOT, 0, 100, 0),
            span(2, 1, "a", 10, 60, 5),
            span(3, 2, "b", 20, 30, 0),
            span(4, 1, "c", 70, 90, 0),
        ],
        leaves: vec![],
    };
    assert_eq!(rec.self_times(), vec![30, 35, 10, 20]);
    let totals = rec.totals((0, 1));
    assert_eq!(totals["a"].total_ns, 50);
    // Self times plus leaf time sum to the root: the identity the
    // waterfall rests on.
    let sum: u64 = totals.values().map(|t| t.self_ns).sum::<u64>() + 5;
    assert_eq!(sum, 100);
}

/// The allocation counter's switch is process-wide; checks that flip
/// it take turns (`cargo test` runs them on parallel threads).
static ALLOC_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counting_allocator_counts_a_known_pattern() {
    let _turn = ALLOC_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let before = crate::alloc::counters();
    crate::alloc::set_counting(true);
    for _ in 0..10 {
        std::hint::black_box(Vec::<u8>::with_capacity(1000));
    }
    crate::alloc::set_counting(false);
    let after = crate::alloc::counters();
    // Other threads may allocate meanwhile: at least, not exactly.
    assert!(after.0 - before.0 >= 10, "allocations not counted");
    assert!(after.1 - before.1 >= 10_000, "bytes not counted");
    let idle = crate::alloc::counters();
    std::hint::black_box(Vec::<u8>::with_capacity(1000));
    assert_eq!(crate::alloc::counters(), idle, "counted while off");
}

fn benchmark_json_names_what_the_program_measures() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside benchmark/");
    crate::report::check_benchmark_json(&text).expect("BENCHMARK.json matches the program");
}

fn every_workload_runs_clean_for_a_moment() {
    for (workload, _) in WORKLOADS {
        let round = run_round(
            workload,
            &RoundPlan {
                seed: 1,
                round: ROUNDS + 7,
                warmup: Duration::from_millis(30),
                timed: Duration::from_millis(150),
                tracer: None,
                count_allocs: false,
                obs: true,
            },
        );
        assert!(round.ops > 0, "{workload}: no operation completed");
        assert_eq!(round.failed, 0, "{workload}");
        assert_eq!(round.check_failures, Vec::<String>::new(), "{workload}");
    }
}

fn traced_pass_accounts_for_a_job_set() {
    let _turn = ALLOC_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Outcome::default();
    crate::ledger::run_per_layer("fig3_tcp", 1, 1.0, Vec::new(), &mut out);
    assert!(out.correct(), "{:?}", out.check_failures);
    let w = out
        .waterfall
        .as_ref()
        .expect("traced pass builds a waterfall");
    assert!(w.accounted_share() >= 0.9, "{}", w.accounted_share());
    let gap = (w.rows_sum_us() + w.unaccounted_us - w.root_us).abs();
    assert!(
        gap < 0.01 * w.root_us,
        "rows do not sum to the op: gap {gap} us"
    );
    assert_eq!(out.per_layer["transport.tcp.exchanges_per_op"], 36.0);
    assert!(out.per_layer["xml.parse_events_per_op"] > 0.0);
}

macro_rules! checks {
    ($($name:ident),* $(,)?) => {
        pub const CHECKS: &[(&str, fn())] = &[$((stringify!($name), $name)),*];

        #[cfg(test)]
        mod tests {
            $(#[test] fn $name() { super::$name() })*
        }
    };
}

checks!(
    mirrored_deploy_equals_campus_grid,
    bridged_equals_inproc,
    nested_call_through_bridge_does_not_deadlock,
    open_loop_generator_keeps_its_schedule,
    percentile_median_slope_arithmetic,
    self_time_arithmetic_on_hand_made_spans,
    counting_allocator_counts_a_known_pattern,
    benchmark_json_names_what_the_program_measures,
    every_workload_runs_clean_for_a_moment,
    traced_pass_accounts_for_a_job_set,
);

/// Run every check; `true` when all passed.
pub fn run() -> bool {
    let started = Instant::now();
    let mut failed = 0;
    for (name, check) in CHECKS {
        let ok = std::panic::catch_unwind(check).is_ok();
        println!("{} {name}", if ok { "ok  " } else { "FAIL" });
        failed += !ok as usize;
    }
    println!(
        "\nselftest: {} of {} checks passed in {:.1} s",
        CHECKS.len() - failed,
        CHECKS.len(),
        started.elapsed().as_secs_f64()
    );
    failed == 0
}
