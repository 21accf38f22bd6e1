//! The pre-WSRF baseline: a GRAM/GlobusRun-style job manager.
//!
//! The paper positions WSRF against "the existing tools such as
//! GRAM/GlobusRun, MDS and Condor/Condor-G" and claims WSRF and
//! WS-Notification "facilitate far richer client-side and server-side
//! interactions than previously accomplished in the state of the art".
//! To make that comparison quantitative (experiments E2 and E8), this
//! module implements that state of the art faithfully-in-spirit:
//!
//! * one **stateless** job-manager web service with a *custom*
//!   interface (no resource properties, no EPRs, no standard port
//!   types — job state lives in an internal table keyed by an opaque
//!   job id),
//! * **no notifications** — the client discovers completion by
//!   polling `Poll` at an interval, exactly the traffic pattern
//!   WS-Notification eliminates,
//! * synchronous (blocking) input staging on submit, in contrast to
//!   the FSS's one-way overlapped upload protocol.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use simclock::Clock;
use wsrf_core::container::{action_uri, Service, ServiceBuilder};
use wsrf_core::faults;
use wsrf_core::store::MemoryStore;
use wsrf_core::Outbound;
use wsrf_soap::ns::UVACG;
use wsrf_soap::{BaseFault, EndpointReference, Envelope, SoapFault};
use wsrf_transport::InProcNetwork;
use wsrf_xml::Element;

use grid_node::{Machine, ProcSpawn};

use crate::fss::read_response;

/// Internal job record (deliberately *not* a WS-Resource).
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Running on the named machine.
    Running(String),
    /// Exited with the code.
    Done(i32),
    /// Could not start.
    Failed(String),
}

struct ManagerState {
    jobs: Arc<Mutex<HashMap<u64, JobState>>>,
    next_id: Mutex<u64>,
    machines: Vec<(String, Arc<Machine>, Arc<ProcSpawn>)>,
}

/// Build the baseline job manager over a set of machines.
///
/// The service understands two custom actions:
/// * `Submit` — stage the executable from the given source EPR
///   (synchronously), pick the least-loaded machine, spawn, return a
///   numeric job id.
/// * `Poll` — return `Running` / `Done code` / `Failed reason` for a
///   job id.
pub fn job_manager(
    address: &str,
    machines: Vec<(String, Arc<Machine>, Arc<ProcSpawn>)>,
    clock: Clock,
    net: Arc<InProcNetwork>,
) -> Arc<Service> {
    let state = Arc::new(ManagerState {
        jobs: Arc::new(Mutex::new(HashMap::new())),
        next_id: Mutex::new(1),
        machines,
    });
    let st_submit = state.clone();
    let st_poll = state.clone();

    ServiceBuilder::new("JobManager", address, Arc::new(MemoryStore::new()))
        // The whole point of the baseline: no standard port types.
        .without_standard_port_types()
        .without_lifetime()
        .static_operation("Submit", move |ctx| {
            let exe_src = ctx
                .body
                .find(UVACG, "ExecutableSource")
                .ok_or_else(|| faults::bad_request("Submit requires ExecutableSource"))?;
            let source = EndpointReference::from_element(
                exe_src
                    .find(wsrf_soap::ns::WSA, "EndpointReference")
                    .unwrap_or(exe_src),
            )
            .map_err(|e| faults::bad_request(&format!("bad source: {e}")))?;
            let filename = exe_src
                .attr_value("name")
                .ok_or_else(|| faults::bad_request("ExecutableSource requires name"))?
                .to_string();
            let creds = ctx
                .body
                .find(UVACG, "Credentials")
                .ok_or_else(|| faults::bad_request("Submit requires Credentials"))?;
            let user = creds.attr_value("user").unwrap_or_default().to_string();
            let password = creds.attr_value("password").unwrap_or_default().to_string();

            // Synchronous staging (blocking the submit call — the
            // anti-pattern the FSS one-way protocol avoids).
            let bytes = crate::fss::read(&ctx.core.net, &source, &filename, None)
                .map_err(|e| BaseFault::new("gram:StageFailed", e.to_string()))?;

            // Least-loaded machine.
            let (mname, machine, spawner) = st_submit
                .machines
                .iter()
                .min_by(|a, b| a.1.utilization().partial_cmp(&b.1.utilization()).unwrap())
                .ok_or_else(|| BaseFault::new("gram:NoMachines", "no machines"))?;

            let workdir = machine
                .fs
                .create_unique_dir("gram", "job")
                .map_err(|e| faults::storage(&e.to_string()))?;
            let exe_path = format!("{workdir}/job.exe");
            machine
                .fs
                .write(&exe_path, bytes)
                .map_err(|e| faults::storage(&e.to_string()))?;

            let id = {
                let mut next = st_submit.next_id.lock();
                let id = *next;
                *next += 1;
                id
            };
            st_submit
                .jobs
                .lock()
                .insert(id, JobState::Running(mname.clone()));
            let jobs = st_submit.jobs.clone();
            match spawner.spawn(&exe_path, &workdir, &user, &password, move |code, _| {
                jobs.lock().insert(id, JobState::Done(code));
            }) {
                Ok(_) => Ok(Element::new(UVACG, "SubmitResponse").attr("jobId", id.to_string())),
                Err(e) => {
                    st_submit
                        .jobs
                        .lock()
                        .insert(id, JobState::Failed(e.to_string()));
                    Err(BaseFault::new("gram:SpawnFailed", e.to_string()))
                }
            }
        })
        .static_operation("Poll", move |ctx| {
            let id: u64 = ctx
                .body
                .attr_value("jobId")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| faults::bad_request("Poll requires jobId"))?;
            let jobs = st_poll.jobs.lock();
            let state = jobs
                .get(&id)
                .ok_or_else(|| BaseFault::new("gram:NoSuchJob", format!("no job {id}")))?;
            let resp = match state {
                JobState::Running(m) => Element::new(UVACG, "PollResponse")
                    .attr("state", "Running")
                    .attr("machine", m),
                JobState::Done(code) => Element::new(UVACG, "PollResponse")
                    .attr("state", "Done")
                    .attr("exitCode", code.to_string()),
                JobState::Failed(reason) => Element::new(UVACG, "PollResponse")
                    .attr("state", "Failed")
                    .attr("reason", reason),
            };
            Ok(resp)
        })
        // A bespoke "get everything" call — the custom interface the
        // paper contrasts with the standard resource-property
        // operations (experiment E2b).
        .static_operation("GetJobInfo", move |_ctx| {
            Ok(Element::new(UVACG, "GetJobInfoResponse"))
        })
        .build(clock, net)
}

/// Submit a job by pointing at an executable on a file server.
pub fn submit(
    net: &InProcNetwork,
    manager: &str,
    source: &EndpointReference,
    filename: &str,
    user: &str,
    password: &str,
) -> Result<u64, SoapFault> {
    let body = Element::new(UVACG, "Submit")
        .child(
            Element::new(UVACG, "ExecutableSource")
                .attr("name", filename)
                .child(source.to_element()),
        )
        .child(
            Element::new(UVACG, "Credentials")
                .attr("user", user)
                .attr("password", password),
        );
    let resp = Outbound::new(
        EndpointReference::service(manager),
        action_uri("JobManager", "Submit"),
        body,
    )
    .call(net)?;
    resp.body
        .attr_value("jobId")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| SoapFault::server("SubmitResponse missing jobId"))
}

/// One poll round trip; `Ok(Some(code))` once the job is done.
pub fn poll(net: &InProcNetwork, manager: &str, job_id: u64) -> Result<Option<i32>, SoapFault> {
    let body = Element::new(UVACG, "Poll").attr("jobId", job_id.to_string());
    let resp = Outbound::new(
        EndpointReference::service(manager),
        action_uri("JobManager", "Poll"),
        body,
    )
    .call(net)?;
    match resp.body.attr_value("state") {
        Some("Done") => Ok(resp
            .body
            .attr_value("exitCode")
            .and_then(|c| c.parse().ok())),
        Some("Failed") => Ok(Some(-1)),
        _ => Ok(None),
    }
}

/// A tiny in-memory file server for baseline tests/benches (serves one
/// named file over the `FileSystem/Read` action).
pub fn single_file_server(
    net: &InProcNetwork,
    address: &str,
    filename: &str,
    content: bytes::Bytes,
) -> EndpointReference {
    let filename = filename.to_string();
    net.register(
        address,
        Arc::new(wsrf_transport::FnEndpoint::new("file-server", move |env| {
            let asked = env
                .body
                .find(UVACG, "FileName")
                .map(|e| e.text_content())
                .unwrap_or_default();
            if asked == filename {
                Some(Envelope::new(read_response(&content)))
            } else {
                Some(SoapFault::client(format!("no file '{asked}'")).to_envelope())
            }
        })),
    );
    EndpointReference::service(address)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_node::{JobProgram, MachineSpec};
    use std::time::Duration;

    fn setup() -> (Clock, Arc<InProcNetwork>, Arc<Service>) {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let machines: Vec<(String, Arc<Machine>, Arc<ProcSpawn>)> = (1..=2)
            .map(|i| {
                let m = Machine::new(MachineSpec::new(format!("m{i}")), clock.clone());
                let s = Arc::new(ProcSpawn::new(m.clone()));
                (format!("m{i}"), m, s)
            })
            .collect();
        let svc = job_manager(
            "inproc://hub/JobManager",
            machines,
            clock.clone(),
            net.clone(),
        );
        svc.register(&net);
        (clock, net, svc)
    }

    #[test]
    fn submit_and_poll_lifecycle() {
        let (clock, net, _svc) = setup();
        let src = single_file_server(
            &net,
            "soap.tcp://client/files",
            "prog.exe",
            JobProgram::compute(5.0).exiting(7).to_manifest(),
        );
        let id = submit(
            &net,
            "inproc://hub/JobManager",
            &src,
            "prog.exe",
            "griduser",
            "gridpass",
        )
        .unwrap();
        assert_eq!(poll(&net, "inproc://hub/JobManager", id).unwrap(), None);
        clock.advance(Duration::from_secs(3));
        assert_eq!(poll(&net, "inproc://hub/JobManager", id).unwrap(), None);
        clock.advance(Duration::from_secs(3));
        assert_eq!(poll(&net, "inproc://hub/JobManager", id).unwrap(), Some(7));
    }

    #[test]
    fn poll_unknown_job_faults() {
        let (_clock, net, _svc) = setup();
        let err = poll(&net, "inproc://hub/JobManager", 999).unwrap_err();
        assert_eq!(err.error_code(), Some("gram:NoSuchJob"));
    }

    #[test]
    fn bad_credentials_fail_submit() {
        let (_clock, net, _svc) = setup();
        let src = single_file_server(
            &net,
            "soap.tcp://client/files",
            "prog.exe",
            JobProgram::compute(1.0).to_manifest(),
        );
        let err = submit(
            &net,
            "inproc://hub/JobManager",
            &src,
            "prog.exe",
            "nobody",
            "x",
        )
        .unwrap_err();
        assert_eq!(err.error_code(), Some("gram:SpawnFailed"));
    }

    #[test]
    fn staging_failure_faults_submit() {
        let (_clock, net, _svc) = setup();
        let src = single_file_server(
            &net,
            "soap.tcp://client/files",
            "prog.exe",
            JobProgram::compute(1.0).to_manifest(),
        );
        let err = submit(
            &net,
            "inproc://hub/JobManager",
            &src,
            "wrong-name.exe",
            "griduser",
            "gridpass",
        )
        .unwrap_err();
        assert_eq!(err.error_code(), Some("gram:StageFailed"));
    }

    #[test]
    fn no_resource_properties_on_the_baseline() {
        let (_clock, net, _svc) = setup();
        // A GetResourceProperty call must be rejected — the baseline
        // has a custom interface only.
        let manager = EndpointReference::service("inproc://hub/JobManager");
        let fault = wsrf_core::ResourceProxy::new(&net, manager)
            .get_text("Status")
            .unwrap_err();
        assert_eq!(fault.error_code(), Some("wsrf:NoSuchOperation"));
    }

    #[test]
    fn jobs_balance_across_machines() {
        let (_clock, net, _svc) = setup();
        let src = single_file_server(
            &net,
            "soap.tcp://client/files",
            "prog.exe",
            JobProgram::compute(100.0).to_manifest(),
        );
        let mut machines_seen = std::collections::HashSet::new();
        for _ in 0..2 {
            let id = submit(
                &net,
                "inproc://hub/JobManager",
                &src,
                "prog.exe",
                "griduser",
                "gridpass",
            )
            .unwrap();
            // Read the machine from a poll.
            let body = Element::new(UVACG, "Poll").attr("jobId", id.to_string());
            let resp = Outbound::new(
                EndpointReference::service("inproc://hub/JobManager"),
                action_uri("JobManager", "Poll"),
                body,
            )
            .call(&net)
            .unwrap();
            machines_seen.insert(resp.body.attr_value("machine").unwrap().to_string());
        }
        assert_eq!(machines_seen.len(), 2, "least-loaded spread");
    }
}
