//! Metrics-feedback placement: the Scheduler reports
//! observed per-machine outcomes back into the policy, and
//! `MetricsFeedback` steers work away from machines whose observed
//! latencies exceed the fleet median — closing the loop the paper
//! leaves open ("chooses the fastest, most available machine" from
//! catalog data alone).
//!
//! The E6b scenario: machine04 advertises the best hardware in the
//! NIS (3000 MHz × 2 cores) but sits behind a degraded uplink, so
//! every message to it pays 15 virtual seconds. Catalog-only placement
//! keeps choosing it; feedback placement learns after one job.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use common::{assert_documented, ratio, table};
use wsrf_grid::prelude::*;
use wsrf_grid::wsrf::ResourceProxy;

const DEGRADED: &str = "machine04";
const LINK_LATENCY: Duration = Duration::from_secs(15);

/// Run a 6-link chain (each job consumes its predecessor's 1 KiB
/// output) on a 4-machine grid with `machine04` behind the slow uplink.
/// Returns the completed grid, the set's virtual makespan in seconds
/// (submit to the client's `completed`), and the per-machine job
/// placement counts.
fn run_chain(policy: Arc<dyn SchedulingPolicy>) -> (CampusGrid, f64, HashMap<String, usize>) {
    let grid = CampusGrid::build(
        GridConfig::with_machines(4)
            .with_policy(policy)
            .with_slow_authority(DEGRADED, LINK_LATENCY),
        Clock::manual(),
    );
    let client = grid.client("c");
    client.put_file(
        "C:\\step.exe",
        JobProgram::compute(10.0)
            .writing("out.dat", 1024)
            .to_manifest(),
    );
    let mut spec = JobSetSpec::new("chain");
    let mut prev: Option<String> = None;
    for i in 0..6 {
        let name = format!("j{i}");
        let mut job =
            JobSpec::new(&name, FileRef::parse("local://C:\\step.exe").unwrap()).output("out.dat");
        if let Some(p) = &prev {
            job = job.input(FileRef::parse(&format!("{p}://out.dat")).unwrap(), "in.dat");
        }
        spec = spec.job(job);
        prev = Some(name);
    }
    let start = grid.clock.now();
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    for _ in 0..500 {
        if handle.outcome().is_some() {
            break;
        }
        grid.clock.advance(Duration::from_secs(1));
    }
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    let makespan = (grid.clock.now() - start).as_secs_f64();

    let set = ResourceProxy::new(&grid.net, handle.jobset.clone());
    let mut per_machine: HashMap<String, usize> = HashMap::new();
    for js in set.document().unwrap().get_local("JobStatus") {
        let machine = js.attr_value("machine").unwrap_or("?").to_string();
        *per_machine.entry(machine).or_default() += 1;
    }
    (grid, makespan, per_machine)
}

/// EXPERIMENTS.md E6b. Catalog-only placement never learns: machine04
/// advertises the best hardware and gets every chain link, paying the
/// slow uplink twice per staging round trip. Feedback placement pays it
/// once (the cold-start pick) and steers the remaining links to healthy
/// machines.
#[test]
fn feedback_placement_beats_catalog_placement_on_a_degraded_grid() {
    let policies: [(&str, Arc<dyn SchedulingPolicy>); 2] = [
        ("fastest-available (paper)", Arc::new(FastestAvailable)),
        ("metrics-feedback", Arc::new(MetricsFeedback::new())),
    ];
    let mut rows = Vec::new();
    let mut paper = None;
    for (name, policy) in policies {
        let (_grid, makespan, placement) = run_chain(policy);
        let paper = *paper.get_or_insert(makespan);
        rows.push(vec![
            name.to_string(),
            format!("{makespan:.1} s"),
            format!("{}/6", placement.get(DEGRADED).copied().unwrap_or(0)),
            ratio(makespan, paper),
        ]);
    }
    assert_documented(&table(
        &[
            "policy",
            "virtual makespan",
            "jobs on degraded",
            "vs paper policy",
        ],
        &rows,
    ));
}

#[test]
fn penalty_table_is_a_queryable_resource_property() {
    let (grid, _, _) = run_chain(Arc::new(MetricsFeedback::new()));

    // The feedback table is an ordinary WS-Resource: any generic WSRF
    // client can read the {UVACG}MachinePenalty rows.
    let feedback = ResourceProxy::new(&grid.net, grid.scheduler.feedback_epr());
    assert_eq!(feedback.get_text("Policy").unwrap(), "metrics-feedback");
    let doc = feedback.document().unwrap();
    let rows = doc.get_local("MachinePenalty");
    assert_eq!(rows.len(), 4, "one row per machine");
    let penalty = |machine: &str| -> f64 {
        rows.iter()
            .find(|r| r.attr_value("machine") == Some(machine))
            .and_then(|r| r.attr_value("penalty"))
            .and_then(|p| p.parse().ok())
            .unwrap()
    };
    assert!(
        penalty(DEGRADED) > penalty("machine02"),
        "degraded machine carries the largest penalty: {rows:?}"
    );
    let degraded = rows
        .iter()
        .find(|r| r.attr_value("machine") == Some(DEGRADED))
        .unwrap();
    assert!(
        degraded
            .attr_value("observations")
            .unwrap()
            .parse::<u64>()
            .unwrap()
            > 0,
        "the cold-start job fed the EWMA"
    );
}

#[test]
fn feedback_resource_does_not_leak_into_job_set_rediscovery() {
    let (grid, _, _) = run_chain(Arc::new(MetricsFeedback::new()));
    let client = grid.client("late");
    let found = client.rediscover(None).unwrap();
    assert_eq!(found.len(), 1, "only the submitted set, not 'feedback'");
    assert_eq!(found[0].status().unwrap(), "Completed");
}

#[test]
fn feedbackless_policies_publish_an_empty_penalty_table() {
    let grid = CampusGrid::build(GridConfig::with_machines(2), Clock::manual());
    let feedback = ResourceProxy::new(&grid.net, grid.scheduler.feedback_epr());
    assert_eq!(feedback.get_text("Policy").unwrap(), "fastest-available");
    assert!(feedback
        .document()
        .unwrap()
        .get_local("MachinePenalty")
        .is_empty());
}
