//! Shared workload builders for the `harness` binary, which prints the
//! EXPERIMENTS.md tables no ledger workload covers (see DESIGN.md):
//! exact model outputs where the quantity of interest is virtual time
//! or message traffic, and small in-process timings of the paper's
//! comparisons. The committed wall-clock ledger is the separate
//! `benchmark/` package.

// See wsrf-core: fault values are rich by design; not hot paths.
#![allow(clippy::result_large_err)]

use std::sync::Arc;
use std::time::Duration;

use simclock::Clock;
use uvacg::{CampusGrid, Client, FileRef, GridConfig, JobSetHandle, JobSetSpec, JobSpec};
use wsrf_core::container::{action_uri, Service, ServiceBuilder};
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::{ColumnType, ResourceStore};
use wsrf_core::Outbound;
use wsrf_soap::ns::UVACG;
use wsrf_soap::{EndpointReference, Envelope};
use wsrf_transport::InProcNetwork;
use wsrf_xml::{Element, QName};

pub use grid_node::JobProgram;

/// Qualified name in the testbed namespace.
pub fn q(local: &str) -> QName {
    QName::new(UVACG, local)
}

/// A canonical "job-like" property document with `extra` additional
/// scalar properties (to sweep document size).
pub fn job_doc(extra: usize) -> PropertyDoc {
    let mut doc = PropertyDoc::new();
    doc.set_text(q("JobName"), "bench-job");
    doc.set_text(q("Status"), "Running");
    doc.set_f64(q("CpuTime"), 12.5);
    doc.set_i64(q("Pid"), 4242);
    for i in 0..extra {
        doc.set_text(q(&format!("Extra{i}")), format!("value-{i}"));
    }
    doc
}

/// The schema matching [`job_doc`] for the structured store.
pub fn job_schema(extra: usize) -> Vec<(QName, ColumnType)> {
    let mut cols = vec![
        (q("JobName"), ColumnType::Text),
        (q("Status"), ColumnType::Text),
        (q("CpuTime"), ColumnType::Float),
        (q("Pid"), ColumnType::Int),
    ];
    for i in 0..extra {
        cols.push((q(&format!("Extra{i}")), ColumnType::Text));
    }
    cols
}

/// A minimal one-op service on the given store, instrumented into
/// `metrics`; returns (service, resource EPR, network). E14 measures
/// two registries against each other on it.
pub fn bench_service(
    store: Arc<dyn ResourceStore>,
    metrics: Arc<wsrf_obs::MetricsRegistry>,
) -> (Arc<Service>, EndpointReference, Arc<InProcNetwork>) {
    let clock = Clock::manual();
    let net = InProcNetwork::new(clock.clone());
    let svc = ServiceBuilder::new("Bench", "inproc://bench/Svc", store)
        .with_metrics(metrics)
        .operation("Touch", |ctx| {
            let doc = ctx.resource_mut()?;
            let n = doc.i64(&q("Pid")).unwrap_or(0) + 1;
            doc.set_i64(q("Pid"), n);
            Ok(Element::new(UVACG, "TouchResponse").text(n.to_string()))
        })
        .build(clock, net.clone());
    svc.register(&net);
    let epr = svc
        .core()
        .create_resource_with_key("r1", job_doc(0))
        .unwrap();
    (svc, epr, net)
}

/// A pre-addressed envelope for an operation on `epr`.
pub fn request(epr: &EndpointReference, service: &str, op: &str, body: Element) -> Envelope {
    Outbound::new(epr.clone(), action_uri(service, op), body).into_envelope()
}

/// Deploy a grid and a client pre-loaded with a `cpu`-second program
/// under `local://C:\prog.exe`.
pub fn grid_with_client(machines: usize, cpu: f64) -> (CampusGrid, Client) {
    let grid = CampusGrid::build(GridConfig::with_machines(machines), Clock::manual());
    let client = grid.client("bench");
    client.put_file(
        "C:\\prog.exe",
        JobProgram::compute(cpu)
            .writing("out.dat", 1024)
            .to_manifest(),
    );
    (grid, client)
}

/// A job set of `n` jobs shaped as requested.
pub fn shaped_spec(shape: &str, n: usize) -> JobSetSpec {
    let exe = FileRef::parse("local://C:\\prog.exe").unwrap();
    let mut spec = JobSetSpec::new(format!("{shape}-{n}"));
    match shape {
        "chain" => {
            for i in 0..n {
                let mut job = JobSpec::new(format!("j{i}"), exe.clone()).output("out.dat");
                if i > 0 {
                    job = job.input(
                        FileRef::parse(&format!("j{}://out.dat", i - 1)).unwrap(),
                        "prev.dat",
                    );
                }
                spec = spec.job(job);
            }
        }
        "fanout" => {
            spec = spec.job(JobSpec::new("root", exe.clone()).output("out.dat"));
            for i in 1..n {
                spec = spec.job(
                    JobSpec::new(format!("j{i}"), exe.clone())
                        .input(FileRef::parse("root://out.dat").unwrap(), "seed.dat")
                        .output("out.dat"),
                );
            }
        }
        "diamond" => {
            // Repeated diamonds: root -> (left,right) -> join, chained.
            assert!(n >= 4, "diamond needs >= 4 jobs");
            spec = spec.job(JobSpec::new("j0", exe.clone()).output("out.dat"));
            let mut prev = "j0".to_string();
            let mut i = 1;
            while i + 2 < n {
                let l = format!("j{i}");
                let r = format!("j{}", i + 1);
                let join = format!("j{}", i + 2);
                for side in [&l, &r] {
                    spec = spec.job(
                        JobSpec::new(side, exe.clone())
                            .input(
                                FileRef::parse(&format!("{prev}://out.dat")).unwrap(),
                                "in.dat",
                            )
                            .output("out.dat"),
                    );
                }
                spec = spec.job(
                    JobSpec::new(&join, exe.clone())
                        .input(FileRef::parse(&format!("{l}://out.dat")).unwrap(), "a.dat")
                        .input(FileRef::parse(&format!("{r}://out.dat")).unwrap(), "b.dat")
                        .output("out.dat"),
                );
                prev = join;
                i += 3;
            }
        }
        _ => {
            // independent
            for i in 0..n {
                spec = spec.job(JobSpec::new(format!("j{i}"), exe.clone()).output("out.dat"));
            }
        }
    }
    spec
}

/// Drive a submitted set to completion on a manual clock; returns the
/// virtual makespan in seconds (panics on failure or budget overrun).
pub fn drive(grid: &CampusGrid, handle: &JobSetHandle, budget_virtual_secs: u64) -> f64 {
    let start = grid.clock.now();
    let mut elapsed = 0;
    while handle.outcome().is_none() {
        assert!(
            elapsed < budget_virtual_secs,
            "budget exceeded for {}",
            handle.topic
        );
        grid.clock.advance(Duration::from_secs(1));
        elapsed += 1;
    }
    assert_eq!(
        handle.outcome(),
        Some(uvacg::JobSetOutcome::Completed),
        "job set failed"
    );
    (grid.clock.now() - start).as_secs_f64()
}

/// Render an aligned text table (used by the harness binary).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        s
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}
